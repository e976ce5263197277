"""Command-line surface: deterministic subcommands over the pipeline modules.

Every subcommand is a thin wrapper over one module operation.  Once it
succeeds, a resolved-config JSON is written next to its outputs; errors
are reported as one JSON object on stderr.  Exit codes: 0 success, 1
validation error (also a request too large for memory), 2 I/O error.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(f"argument error: {message}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _write_run_config(args: argparse.Namespace, anchor: Path) -> None:
    """Record the resolved arguments beside a file anchor or inside a
    directory anchor (one without a suffix)."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    resolved = {k: (str(v) if isinstance(v, Path) else v) for k, v in resolved.items()}
    if anchor.suffix:
        path = anchor.with_name(anchor.name + ".config.json")
    else:
        path = anchor / "run-config.json"
    path.write_text(json.dumps(resolved, indent=2, sort_keys=True))


def _load_video_dir(directory) -> tensorio.VideoSequence:
    directory = Path(directory)
    files = sorted(directory.glob("*.pgm")) + sorted(directory.glob("*.ppm"))
    if not files:
        raise ValueError(f"no .pgm/.ppm frames found in {directory}")
    return tensorio.video_from_frame_files(files)


# ---------------------------------------------------------------------------
# Feature extraction shared by train and predict
# ---------------------------------------------------------------------------


def _feature_matrix(root: Path, entries: list[dict], stream: str, feature_cfg: dict) -> np.ndarray:
    """Each entry's pooled frame vectors (motion: its one dynamic image), one row
    per entry in order.  A row never depends on the split, so splits share rows."""
    key = "rgb_dir" if stream == "motion" else "depth_dir"
    rows = []
    for entry in entries:
        from_file = stream == "std" and "std_features" in entry
        if not from_file and key not in entry:
            raise ValueError(f"sequence {entry['id']!r} has no {key!r} in the manifest")
        try:
            if from_file:
                frames = tensorio.read_feature_sequence(root / entry["std_features"]).vectors
            elif stream == "motion":
                frames = rankpool.dynamic_image(_load_video_dir(root / entry[key])).raw[None]
            else:
                frames = keyframe.keyframe_stack(
                    _load_video_dir(root / entry[key]),
                    k=feature_cfg["k"],
                    side=feature_cfg["roi_side"],
                    on_silhouette=feature_cfg["on_silhouette"],
                ).frames
            row = learn.pool_features(frames.reshape(len(frames), -1), strategy=feature_cfg["pool"])
        except ValueError as exc:
            raise ValueError(f"sequence {entry['id']!r}: {exc}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"sequence {entry['id']!r} has feature length {len(row)}, "
                             f"but {entries[0]['id']!r} has {len(rows[0])}")
        rows.append(row)
    return np.stack(rows)


def _protocol_from_args(args) -> fusion_eval.SplitProtocol:
    if args.protocol == "cross-view":
        if not args.train_views or not args.test_views:
            raise ValueError("cross-view protocol needs --train-views and --test-views")
        return fusion_eval.SplitProtocol.cross_view(args.train_views, args.test_views)
    if not args.train_subjects or not args.test_subjects:
        raise ValueError("cross-subject protocol needs --train-subjects and --test-subjects")
    return fusion_eval.SplitProtocol.cross_subject(args.train_subjects, args.test_subjects)


# The feature settings a model records, by type (``type(v) is int`` rejects bools).
_FEATURE_TYPES = {"k": int, "roi_side": int, "on_silhouette": bool, "pool": str}
_POOLS = ("mean", "concat")


def _check_feature_ranges(feature: dict, source: str) -> None:
    """Range-check the feature settings that ``source`` (train's flags or a
    model file) gives, so that a bad one is named before any video is read."""
    for key in ("k", "roi_side"):
        if feature[key] < 1:
            raise ValueError(f"{source} needs a feature {key!r} >= 1, got {feature[key]}")
    if feature["pool"] not in _POOLS:
        raise ValueError(f"{source} needs a feature 'pool' in {_POOLS}, got {feature['pool']!r}")


def _model_features(sidecar: dict, path: Path) -> tuple[str, dict]:
    """The stream and feature settings that ``model.json`` at ``path`` records."""
    stream, feature = sidecar.get("stream"), sidecar.get("feature")
    if stream not in ("motion", "std"):
        raise ValueError(f"model file {path} needs a 'stream' of 'motion' or 'std', got {stream!r}")
    if not isinstance(feature, dict) or any(
        type(feature.get(key)) is not kind for key, kind in _FEATURE_TYPES.items()
    ):
        raise ValueError(f"model file {path} needs a 'feature' block with integer 'k' and "
                         f"'roi_side', boolean 'on_silhouette' and string 'pool', got {feature!r}")
    _check_feature_ranges(feature, f"model file {path}")
    return stream, feature


def _recorded_test_side(entries: list[dict], sidecar: dict, path: Path) -> list[dict]:
    """The entries on the test side of the protocol that ``model.json`` at
    ``path`` records; unlike ``make_splits``, this needs no training entries
    in the manifest."""
    record = sidecar.get("protocol")
    if not record:
        raise ValueError(f"model file {path} records no protocol: pass --views or --subjects")
    if not isinstance(record, dict) or {"kind", "train", "test"} - record.keys():
        raise ValueError(f"model file {path} needs a protocol with 'kind', 'train' and 'test', "
                         f"got {record!r}")
    try:
        protocol = fusion_eval.SplitProtocol(record["kind"], record["train"], record["test"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {path} records an unusable protocol: {exc}") from None
    return [e for e in entries if protocol.key_of(e) in protocol.test]


# ---------------------------------------------------------------------------
# Score CSV files
# ---------------------------------------------------------------------------


def _write_scores_csv(path, ids, labels, scores: np.ndarray) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sequence_id", "label"] + [f"score_{c}" for c in range(scores.shape[1])]
        )
        for seq_id, label, row in zip(ids, labels, scores):
            writer.writerow([seq_id, int(label)] + [repr(float(v)) for v in row])


def _read_scores_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError:
        raise ValueError(f"score file {path} is not UTF-8 text") from None
    if len(rows) < 2:
        raise ValueError(f"score file {path} has no data rows")
    header = rows[0][1]
    if header[:2] != ["sequence_id", "label"]:
        raise ValueError(f"score file {path} has an unexpected header")
    num_classes = len(header) - 2
    ids, labels, scores = [], [], []
    for line, row in rows[1:]:
        where = f"score file {path} line {line}"
        if len(row) != len(header):
            raise ValueError(f"{where} has {len(row)} fields, but its header has {len(header)}")
        try:
            labels.append(int(row[1]))
        except ValueError:
            raise ValueError(f"{where} has a non-integer label {row[1]!r}") from None
        if not 0 <= labels[-1] < num_classes:
            raise ValueError(f"{where} has a label {labels[-1]} outside [0, {num_classes})")
        try:
            scores.append([float(v) for v in row[2:]])
        except ValueError:
            raise ValueError(f"{where} has a non-numeric score") from None
        tensorio._require_finite(scores[-1], f"{where} has a non-finite score")
        ids.append(row[0])
    return ids, np.asarray(labels), np.asarray(scores)


def _read_score_tables(paths) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """Score files that list the same sequences with the same labels in the
    same order: (ids, labels, one score matrix per file)."""
    tables = [_read_scores_csv(p) for p in paths]
    ids, labels, _ = tables[0]
    for path, (other_ids, other_labels, _) in zip(paths[1:], tables[1:]):
        if other_ids != ids or not np.array_equal(other_labels, labels):
            raise ValueError(
                f"score file {path} disagrees with {paths[0]} on sequence ids or labels"
            )
    return ids, labels, [scores for _, _, scores in tables]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


# Each subcommand returns the path its outputs are anchored on; ``main``
# writes the run-config record there once the command has succeeded.


def cmd_synth(args) -> Path:
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
    corpus = synthgen.Corpus(cfg)
    synthgen.write_corpus(corpus, outdir, cfg)
    print(f"wrote {len(corpus)} sequence pairs to {outdir}")
    return outdir


def cmd_keyframes(args) -> Path:
    out = Path(args.out)
    video = _load_video_dir(args.video)
    stack = keyframe.keyframe_stack(
        video, k=args.k, side=args.roi_side, on_silhouette=not args.on_raw
    )
    with open(out.with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_index", "ssii"])
        for pair_index in stack.ranking.tolist():
            writer.writerow([pair_index, repr(float(stack.similarity[pair_index - 1]))])
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
    return out.with_suffix(".rpt1")


def cmd_encode_di(args) -> Path:
    out = Path(args.out)
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
    tensorio.write_frame(di.frame, out.with_suffix(".ppm" if di.frame.shape[0] == 3 else ".pgm"))
    print(f"dynamic image -> {out.with_suffix('.rpt1')}")
    return out.with_suffix(".rpt1")


def cmd_rankpool_exact(args) -> Path:
    out = Path(args.out)
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
    return out


def cmd_train(args) -> Path:
    model_dir = Path(args.model_out)
    manifest = synthgen.load_manifest(args.manifest)
    config = manifest.get("config")
    num_classes = config.get("num_classes") if isinstance(config, dict) else None
    if isinstance(num_classes, bool) or not isinstance(num_classes, int) or num_classes < 2:
        raise ValueError(f"manifest {args.manifest} needs an integer "
                         f"config.num_classes >= 2, got {num_classes!r}")
    root = Path(args.manifest).parent / manifest.get("root", ".")
    protocol = _protocol_from_args(args)
    train_ids, _ = fusion_eval.make_splits(manifest["sequences"], protocol)
    by_id = {e["id"]: e for e in manifest["sequences"]}
    entries = [by_id[i] for i in train_ids]
    cfg = learn.AdamConfig(
        learning_rate=args.learning_rate,
        beta1=args.beta1,
        beta2=args.beta2,
        epsilon=args.epsilon,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    if not 0 <= args.val_fraction < 1:  # learn.train checks it too, after every video is read
        raise ValueError(f"val_fraction must lie in [0, 1), got {args.val_fraction}")
    feature_cfg = {
        "k": args.k,
        "roi_side": args.roi_side,
        "on_silhouette": not args.on_raw,
        "pool": args.pool,
    }
    _check_feature_ranges(feature_cfg, "train")
    features = _feature_matrix(root, entries, args.stream, feature_cfg)
    labels = [e["class_id"] for e in entries]
    model, log = learn.train(features, labels, num_classes, cfg, val_fraction=args.val_fraction)
    learn.save_model(
        model,
        model_dir,
        cfg=cfg,
        extra={
            "stream": args.stream,
            "feature": feature_cfg,
            "protocol": {
                "kind": protocol.kind,
                "train": sorted(protocol.train),
                "test": sorted(protocol.test),
            },
            "best_epoch": log.best_epoch,
            "best_val_accuracy": log.best_val_accuracy,
        },
    )
    val = "none" if log.best_val_accuracy is None else f"{log.best_val_accuracy:.3f}"
    print(
        f"trained {args.stream} stream on {len(entries)} sequences; "
        f"best epoch {log.best_epoch} (val acc {val}) -> {model_dir}"
    )
    return model_dir


def cmd_predict(args) -> Path:
    out = Path(args.out)
    model, sidecar = learn.load_model(args.model)
    sidecar_path = Path(args.model) / "model.json"
    stream, feature_cfg = _model_features(sidecar, sidecar_path)
    manifest = synthgen.load_manifest(args.manifest)
    root = Path(args.manifest).parent / manifest.get("root", ".")
    entries = manifest["sequences"]
    if args.views:
        entries = [e for e in entries if e["view_id"] in set(args.views)]
    if args.subjects:
        entries = [e for e in entries if e["subject_id"] in set(args.subjects)]
    if not (args.views or args.subjects):
        entries = _recorded_test_side(entries, sidecar, sidecar_path)
    if not entries:
        raise ValueError("no sequences match the requested filter")
    entries = sorted(entries, key=lambda e: e["id"])
    ids = [e["id"] for e in entries]
    labels = [e["class_id"] for e in entries]
    scores = learn.predict(model, _feature_matrix(root, entries, stream, feature_cfg))
    _write_scores_csv(out, ids, labels, scores)
    print(f"scored {len(ids)} sequences -> {out}")
    return out


def cmd_fuse(args) -> Path:
    out = Path(args.out)
    mode = fusion_eval.FusionMode.parse(args.mode)
    ids, labels, scores = _read_score_tables(args.scores)
    _write_scores_csv(out, ids, labels, fusion_eval.fuse(scores, mode))
    print(f"fused {len(scores)} streams ({mode.value}) -> {out}")
    return out


def cmd_eval(args) -> Path:
    report_out = Path(args.report_out)
    named = {}
    for item in args.scores:
        if "=" not in item:
            raise ValueError(f"--scores expects NAME=PATH, got {item!r}")
        name, path = item.split("=", 1)
        if name in named:
            raise ValueError(f"--scores names stream {name!r} twice")
        named[name] = path
    ids, labels, scores = _read_score_tables(list(named.values()))
    modes = [fusion_eval.FusionMode.parse(m) for m in args.modes.split(",") if m]
    report = fusion_eval.evaluate(dict(zip(named, scores)), labels, modes=modes)
    report_out.write_text(fusion_eval.report_to_json(report, num_samples=len(ids)))
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
    return report_out


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
    p.add_argument("--pool", choices=_POOLS, default="mean",
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
        _write_run_config(args, args.func(args))
        return 0
    except (ValueError, MemoryError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


def run_synthetic_experiment(workdir, seed: int = 7, roi_side: int = 64, epochs: int = 80) -> Path:
    """Full pipeline on the synthetic corpus: synth, train both streams on
    views 1 and 2, predict view 3, and evaluate all three fusion modes.
    Returns the report path.

    Raises RuntimeError if any stage exits nonzero.
    """
    workdir = Path(workdir)
    corpus = workdir / "corpus"
    tv, sv = "1,2", "3"
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
