"""Command-line surface: deterministic subcommands over the pipeline modules.

Every subcommand is a thin wrapper over one module operation, writes a
resolved-config JSON next to its outputs, and reports errors as one JSON
object on stderr.  Exit codes: 0 success, 1 validation error, 2 I/O
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import fusion_eval, keyframe, learn, rankpool, synthgen, tensorio
from .imgproc import SsimParams


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"argument error: {message}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _write_run_config(args: argparse.Namespace, anchor: Path) -> None:
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved = {k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()}
    if anchor.suffix:
        path = anchor.with_name(anchor.name + ".config.json")
    else:
        anchor.mkdir(parents=True, exist_ok=True)
        path = anchor / "run-config.json"
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True))


def _load_video_dir(directory, entry=None) -> tensorio.VideoSequence:
    directory = Path(directory)
    files = sorted(directory.glob("*.pgm")) + sorted(directory.glob("*.ppm"))
    if not files:
        raise ValueError(f"no .pgm/.ppm frames found in {directory}")
    meta = entry or {}
    return tensorio.video_from_frame_files(
        files,
        class_id=int(meta.get("class_id", 0)),
        subject_id=int(meta.get("subject_id", 0)),
        view_id=int(meta.get("view_id", 0)),
    )


# ---------------------------------------------------------------------------
# Feature extraction shared by train and predict
# ---------------------------------------------------------------------------


def _ssim_params(feature_cfg: dict) -> SsimParams:
    keys = ("alpha", "beta", "gamma_exp", "k1", "k2", "k3", "window_radius", "window_sigma")
    return SsimParams(**{k: feature_cfg[k] for k in keys if k in feature_cfg})


def _motion_feature(rgb_video: tensorio.VideoSequence) -> np.ndarray:
    return rankpool.dynamic_image(rgb_video).raw.ravel()


def _std_feature(depth_video: tensorio.VideoSequence, feature_cfg: dict) -> np.ndarray:
    frames = keyframe.keyframe_stack(
        depth_video,
        k=int(feature_cfg.get("k", 10)),
        side=int(feature_cfg.get("roi_side", 227)),
        on_silhouette=bool(feature_cfg.get("on_silhouette", True)),
        params=_ssim_params(feature_cfg),
    ).frames
    vectors = frames.reshape(frames.shape[0], -1)
    return learn.pool_features(vectors, strategy=feature_cfg.get("pool", "mean"))


def _sequence_feature(root: Path, entry: dict, stream: str, feature_cfg: dict) -> np.ndarray:
    if stream == "motion":
        return _motion_feature(_load_video_dir(root / entry["rgb_dir"], entry))
    if "std_features" in entry:
        seq = tensorio.read_feature_sequence(root / entry["std_features"])
        return learn.pool_features(seq.vectors, strategy=feature_cfg.get("pool", "mean"))
    return _std_feature(_load_video_dir(root / entry["depth_dir"], entry), feature_cfg)


def _check_feature_lengths(ids, features) -> None:
    """Name the first sequence whose feature length differs from the first one's."""
    want = len(features[0])
    for seq_id, vec in zip(ids, features):
        if len(vec) != want:
            raise ValueError(
                f"sequence {seq_id!r} has feature length {len(vec)}, "
                f"but {ids[0]!r} has {want}"
            )


def _protocol_from_args(args) -> fusion_eval.SplitProtocol:
    if args.protocol == "cross-view":
        if not args.train_views or not args.test_views:
            raise ValueError("cross-view protocol needs --train-views and --test-views")
        return fusion_eval.SplitProtocol.cross_view(args.train_views, args.test_views)
    if not args.train_subjects or not args.test_subjects:
        raise ValueError("cross-subject protocol needs --train-subjects and --test-subjects")
    return fusion_eval.SplitProtocol.cross_subject(args.train_subjects, args.test_subjects)


def _recorded_test_side(entries: list[dict], sidecar: dict) -> list[dict]:
    """The entries on the test side of the model's recorded protocol; unlike
    ``make_splits``, this needs no training entries in the manifest."""
    record = sidecar.get("protocol")
    if not record:
        raise ValueError("model.json records no protocol: pass --views or --subjects")
    key = "views" if record["kind"] == "cross_view" else "subjects"
    sides = {f"{side}_{key}": frozenset(record[side]) for side in ("train", "test")}
    protocol = fusion_eval.SplitProtocol(kind=record["kind"], **sides)
    test_side = protocol.sides()[1]
    return [e for e in entries if protocol.key_of(e) in test_side]


# ---------------------------------------------------------------------------
# Score CSV files
# ---------------------------------------------------------------------------


def _write_scores_csv(path, ids, labels, scores: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sequence_id", "label"] + [f"score_{c}" for c in range(scores.shape[1])]
        )
        for seq_id, label, row in zip(ids, labels, scores):
            writer.writerow([seq_id, int(label)] + [repr(float(v)) for v in row])


def _read_scores_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise ValueError(f"score file {path} has no data rows")
    header = rows[0]
    if header[:2] != ["sequence_id", "label"]:
        raise ValueError(f"score file {path} has an unexpected header")
    ids = [r[0] for r in rows[1:]]
    labels = np.asarray([int(r[1]) for r in rows[1:]])
    scores = np.asarray([[float(v) for v in r[2:]] for r in rows[1:]])
    return ids, labels, scores


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = synthgen.SynthConfig(
        num_classes=args.num_classes,
        subjects=args.subjects,
        views=args.views,
        frames_per_video=args.frames,
        frame_side=args.frame_side,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    outdir = Path(args.out)
    _write_run_config(args, outdir)
    pairs = synthgen.generate(cfg)
    synthgen.write_corpus(pairs, outdir, cfg)
    print(f"wrote {len(pairs)} sequence pairs to {outdir}")
    return 0


def cmd_keyframes(args) -> int:
    out = Path(args.out)
    _write_run_config(args, out.with_suffix(".rpt1"))
    video = _load_video_dir(args.video)
    stack = keyframe.keyframe_stack(
        video,
        k=args.k,
        side=args.roi_side,
        on_silhouette=not args.on_raw,
        params=_ssim_params(vars(args)),
        keyframe_of_pair=args.pick,
    )
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_index", "ssii"])
        for pair_index, value in stack.ssii.entries:
            writer.writerow([pair_index, repr(value)])
    tensorio.write_tensor(
        stack.frames.astype(np.float32),
        {
            "frame_indices": list(stack.frame_indices),
            "dropped_indices": list(stack.dropped_indices),
            "class_id": video.class_id,
            "subject_id": video.subject_id,
            "view_id": video.view_id,
        },
        out.with_suffix(".rpt1"),
    )
    print(
        f"selected frames {list(stack.frame_indices)} "
        f"({len(stack.dropped_indices)} dropped) -> {out.with_suffix('.rpt1')}"
    )
    return 0


def cmd_encode_di(args) -> int:
    out = Path(args.out)
    _write_run_config(args, out.with_suffix(".rpt1"))
    video = _load_video_dir(args.video)
    di = rankpool.dynamic_image(video)
    tensorio.write_tensor(
        di.raw.astype(np.float32),
        {
            "class_id": video.class_id,
            "subject_id": video.subject_id,
            "view_id": video.view_id,
        },
        out.with_suffix(".rpt1"),
    )
    fmt = "ppm" if di.frame.shape[0] == 3 else "pgm"
    tensorio.write_frame(di.frame, out.with_suffix("." + fmt), fmt)
    print(f"dynamic image -> {out.with_suffix('.rpt1')}")
    return 0


def cmd_rankpool_exact(args) -> int:
    out = Path(args.out)
    _write_run_config(args, out)
    seq = tensorio.read_feature_sequence(args.features)
    result = rankpool.exact_rank_pool(
        seq, lam=args.lam, step=args.step, max_iter=args.max_iter, tol=args.tol
    )
    payload = {
        "r": result.r.tolist(),
        "lambda": result.lam,
        "iterations": result.iterations,
        "final_objective": result.final_objective,
        "converged": result.converged,
    }
    out.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    print(f"rank vector ({result.iterations} iterations) -> {out}")
    return 0


def cmd_train(args) -> int:
    model_dir = Path(args.model_out)
    _write_run_config(args, model_dir)
    manifest = synthgen.load_manifest(args.manifest)
    root = Path(args.manifest).parent / manifest.get("root", ".")
    protocol = _protocol_from_args(args)
    train_ids, _ = fusion_eval.make_splits(manifest["sequences"], protocol)
    by_id = {e["id"]: e for e in manifest["sequences"]}
    feature_cfg = {
        "k": args.k,
        "roi_side": args.roi_side,
        "on_silhouette": not args.on_raw,
        "pool": args.pool,
    }
    features = [_sequence_feature(root, by_id[i], args.stream, feature_cfg) for i in train_ids]
    _check_feature_lengths(train_ids, features)
    samples = [(f, by_id[i]["class_id"]) for f, i in zip(features, train_ids)]
    num_classes = int(manifest["config"]["num_classes"])
    cfg = learn.AdamConfig(
        learning_rate=args.learning_rate,
        beta1=args.beta1,
        beta2=args.beta2,
        epsilon=args.epsilon,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    model, log = learn.train(samples, num_classes, cfg, val_fraction=args.val_fraction)
    learn.save_model(
        model,
        model_dir,
        cfg=cfg,
        extra={
            "stream": args.stream,
            "feature": feature_cfg,
            "protocol": {
                "kind": protocol.kind,
                "train": sorted(protocol.sides()[0]),
                "test": sorted(protocol.sides()[1]),
            },
            "best_epoch": log.best_epoch,
            "best_val_accuracy": log.best_val_accuracy,
        },
    )
    print(
        f"trained {args.stream} stream on {len(samples)} sequences; "
        f"best epoch {log.best_epoch} (val acc {log.best_val_accuracy:.3f}) -> {model_dir}"
    )
    return 0


def cmd_predict(args) -> int:
    out = Path(args.out)
    _write_run_config(args, out)
    model, sidecar = learn.load_model(args.model)
    manifest = synthgen.load_manifest(args.manifest)
    root = Path(args.manifest).parent / manifest.get("root", ".")
    entries = manifest["sequences"]
    if args.views:
        entries = [e for e in entries if e["view_id"] in set(args.views)]
    if args.subjects:
        entries = [e for e in entries if e["subject_id"] in set(args.subjects)]
    if not (args.views or args.subjects):
        entries = _recorded_test_side(entries, sidecar)
    if not entries:
        raise ValueError("no sequences match the requested filter")
    entries = sorted(entries, key=lambda e: e["id"])
    stream = sidecar.get("stream", "motion")
    feature_cfg = sidecar.get("feature", {})
    ids = [e["id"] for e in entries]
    labels = [e["class_id"] for e in entries]
    features = [_sequence_feature(root, e, stream, feature_cfg) for e in entries]
    _check_feature_lengths(ids, features)
    scores = learn.predict(model, np.stack(features))
    _write_scores_csv(out, ids, labels, scores)
    print(f"scored {len(ids)} sequences -> {out}")
    return 0


def cmd_fuse(args) -> int:
    out = Path(args.out)
    _write_run_config(args, out)
    mode = fusion_eval.FusionMode.parse(args.mode)
    tables = [_read_scores_csv(p) for p in args.scores]
    ids, labels, _ = tables[0]
    for other_ids, other_labels, _ in tables[1:]:
        if other_ids != ids or not np.array_equal(other_labels, labels):
            raise ValueError("score files disagree on sequence ids or labels")
    fused = fusion_eval.fuse([scores for _, _, scores in tables], mode)
    _write_scores_csv(out, ids, labels, fused)
    print(f"fused {len(tables)} streams ({mode.value}) -> {out}")
    return 0


def cmd_eval(args) -> int:
    report_out = Path(args.report_out)
    _write_run_config(args, report_out)
    named = []
    for item in args.scores:
        if "=" not in item:
            raise ValueError(f"--scores expects NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        named.append((name, path))
    tables = {name: _read_scores_csv(path) for name, path in named}
    first_ids, first_labels, _ = next(iter(tables.values()))
    for name, (ids, labels, _) in tables.items():
        if ids != first_ids or not np.array_equal(labels, first_labels):
            raise ValueError(f"stream {name!r} disagrees on sequence ids or labels")
    modes = [fusion_eval.FusionMode.parse(m) for m in args.modes.split(",") if m]
    report = fusion_eval.evaluate(
        {name: scores for name, (_, _, scores) in tables.items()},
        first_labels,
        modes=modes,
    )
    report_out.write_text(fusion_eval.report_to_json(report, num_samples=len(first_ids)))
    if args.curves_out:
        curves_dir = Path(args.curves_out)
        curves_dir.mkdir(parents=True, exist_ok=True)
        for name, rep in report["streams"].items():
            fusion_eval.write_curves_csv(rep, curves_dir / f"stream_{name}.csv")
        for mode_name, rep in report["fusion"].items():
            fusion_eval.write_curves_csv(rep, curves_dir / f"fusion_{mode_name}.csv")
    summary = {name: rep.accuracy for name, rep in report["streams"].items()}
    summary.update({mode: rep.accuracy for mode, rep in report["fusion"].items()})
    print("accuracy: " + ", ".join(f"{k}={v:.4f}" for k, v in summary.items()))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand parser, built once per process; parsing does not change it."""
    parser = _Parser(prog="dynafuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic multi-view corpus")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.add_argument("--num-classes", type=int, default=3, help="number of action classes")
    p.add_argument("--subjects", type=int, default=8, help="subjects per class")
    p.add_argument("--views", type=int, default=3, help="camera views per subject")
    p.add_argument("--frames", type=int, default=16, help="frames per video")
    p.add_argument("--frame-side", type=int, default=64, help="square frame side in pixels")
    p.add_argument("--noise-sigma", type=float, default=0.02, help="rgb pixel noise sigma")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("keyframes", help="similarity vector and key-frame stack for one video")
    p.add_argument("--video", required=True, help="directory of .pgm/.ppm frames")
    p.add_argument("--k", type=int, default=10, help="number of key frames")
    p.add_argument("--roi-side", type=int, default=227, help="square ROI side")
    p.add_argument("--on-raw", action="store_true", help="rank raw depth ROIs, not silhouettes")
    p.add_argument("--pick", choices=["first", "second"], default="first",
                   help="which frame of each pair becomes the key frame")
    p.add_argument("--alpha", type=float, default=0.5, help="luminance exponent")
    p.add_argument("--beta", type=float, default=0.5, help="contrast exponent")
    p.add_argument("--gamma-exp", type=float, default=1.0, help="structure exponent")
    p.add_argument("--k1", type=float, default=1e-4, help="luminance stabilizer")
    p.add_argument("--k2", type=float, default=9e-4, help="contrast stabilizer")
    p.add_argument("--k3", type=float, default=4.5e-4, help="structure stabilizer")
    p.add_argument("--window-radius", type=int, default=5, help="Gaussian window radius")
    p.add_argument("--window-sigma", type=float, default=1.5, help="Gaussian window sigma")
    p.add_argument("--out", required=True, help="output prefix (.csv and .rpt1 are written)")
    p.set_defaults(func=cmd_keyframes)

    p = sub.add_parser("encode-di", help="pool a video into its dynamic image")
    p.add_argument("--video", required=True, help="directory of .pgm/.ppm frames")
    p.add_argument("--out", required=True, help="output prefix (.rpt1 and display image)")
    p.set_defaults(func=cmd_encode_di)

    p = sub.add_parser("rankpool-exact", help="solve the exact rank-pooling objective")
    p.add_argument("--features", required=True, help="RPT1 feature-sequence file")
    p.add_argument("--lam", type=float, default=0.01, help="regularizer weight")
    p.add_argument("--step", type=float, default=0.1, help="initial step size")
    p.add_argument("--max-iter", type=int, default=10_000, help="iteration cap")
    p.add_argument("--tol", type=float, default=1e-8, help="objective improvement tolerance")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_rankpool_exact)

    p = sub.add_parser("train", help="train one stream's classifier")
    p.add_argument("--manifest", required=True, help="corpus manifest.json")
    p.add_argument("--stream", choices=["motion", "std"], required=True, help="stream to train")
    p.add_argument("--protocol", choices=["cross-view", "cross-subject"],
                   default="cross-view", help="split protocol kind")
    p.add_argument("--train-views", type=_int_list, default=[], help="training view ids")
    p.add_argument("--test-views", type=_int_list, default=[], help="test view ids")
    p.add_argument("--train-subjects", type=_int_list, default=[], help="training subject ids")
    p.add_argument("--test-subjects", type=_int_list, default=[], help="test subject ids")
    p.add_argument("--val-fraction", type=float, default=0.2, help="validation fraction")
    p.add_argument("--learning-rate", type=float, default=2e-4, help="Adam learning rate")
    p.add_argument("--beta1", type=float, default=0.9, help="Adam beta1")
    p.add_argument("--beta2", type=float, default=0.999, help="Adam beta2")
    p.add_argument("--epsilon", type=float, default=1e-8, help="Adam epsilon")
    p.add_argument("--epochs", type=int, default=80, help="training epochs")
    p.add_argument("--batch-size", type=int, default=10, help="minibatch size")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed")
    p.add_argument("--k", type=int, default=10, help="key frames per video (std stream)")
    p.add_argument("--roi-side", type=int, default=227, help="ROI side (std stream)")
    p.add_argument("--on-raw", action="store_true", help="std features from raw depth ROIs")
    p.add_argument("--pool", choices=["mean", "concat"], default="mean",
                   help="key-frame pooling strategy (std stream)")
    p.add_argument("--model-out", required=True, help="model output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score sequences with a trained model")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--manifest", required=True, help="corpus manifest.json")
    p.add_argument("--views", type=_int_list, default=[], help="views (default: test side)")
    p.add_argument("--subjects", type=_int_list, default=[], help="subjects (default: test side)")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fuse", help="fuse score files from several streams")
    p.add_argument("--scores", action="append", required=True, help="scores CSV (repeatable)")
    p.add_argument("--mode", default="product", help="maximum, average or product")
    p.add_argument("--out", required=True, help="output fused scores CSV")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("eval", help="accuracy, ROC and AUC report over streams and fusions")
    p.add_argument("--scores", action="append", required=True,
                   help="NAME=PATH scores CSV (repeatable)")
    p.add_argument("--modes", default="maximum,average,product",
                   help="comma-separated fusion modes")
    p.add_argument("--report-out", required=True, help="report JSON path")
    p.add_argument("--curves-out", default="", help="directory for ROC curve CSVs")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


def run_synthetic_experiment(
    workdir,
    seed: int = 7,
    train_views=(1, 2),
    test_views=(3,),
    roi_side: int = 64,
    epochs: int = 80,
) -> Path:
    """Full pipeline on the synthetic corpus: synth, train both streams,
    predict, and evaluate all three fusion modes.  Returns the report path.

    Raises RuntimeError if any stage exits nonzero.
    """
    workdir = Path(workdir)
    corpus = workdir / "corpus"
    tv = ",".join(str(v) for v in train_views)
    sv = ",".join(str(v) for v in test_views)
    stages = [
        ["synth", "--out", str(corpus), "--seed", str(seed)],
        [
            "train", "--manifest", str(corpus / "manifest.json"), "--stream", "motion",
            "--train-views", tv, "--test-views", sv, "--epochs", str(epochs),
            "--model-out", str(workdir / "model_motion"),
        ],
        [
            "train", "--manifest", str(corpus / "manifest.json"), "--stream", "std",
            "--train-views", tv, "--test-views", sv, "--epochs", str(epochs),
            "--roi-side", str(roi_side),
            "--model-out", str(workdir / "model_std"),
        ],
        [
            "predict", "--model", str(workdir / "model_motion"),
            "--manifest", str(corpus / "manifest.json"), "--views", sv,
            "--out", str(workdir / "scores_motion.csv"),
        ],
        [
            "predict", "--model", str(workdir / "model_std"),
            "--manifest", str(corpus / "manifest.json"), "--views", sv,
            "--out", str(workdir / "scores_std.csv"),
        ],
        [
            "eval",
            "--scores", f"motion={workdir / 'scores_motion.csv'}",
            "--scores", f"std={workdir / 'scores_std.csv'}",
            "--modes", "maximum,average,product",
            "--report-out", str(workdir / "report.json"),
            "--curves-out", str(workdir / "curves"),
        ],
    ]
    for stage in stages:
        code = main(stage)
        if code != 0:
            raise RuntimeError(f"stage {stage[0]} exited with {code}")
    return workdir / "report.json"


if __name__ == "__main__":
    sys.exit(main())
