"""Subcommand wiring: exit codes, emitted files, determinism."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynafuse import cli, imgproc
from dynafuse.learn import pool_features
from dynafuse.tensorio import (
    FeatureSequence,
    read_feature_sequence,
    read_tensor,
    write_feature_sequence,
    write_frame,
    write_tensor,
)


def make_video_dir(path, frames, fmt="pgm"):
    path.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames):
        write_frame(frame, path / f"{t:04d}.{fmt}")


def small_pipeline(tmp_path, seed=3):
    """synth -> train both streams -> predict -> fuse -> eval on a tiny corpus."""
    corpus = tmp_path / "corpus"
    steps = [
        ["synth", "--out", str(corpus), "--seed", str(seed), "--subjects", "3",
         "--frames", "8", "--frame-side", "32"],
        ["train", "--manifest", str(corpus / "manifest.json"), "--stream", "motion",
         "--train-views", "1,2", "--test-views", "3", "--epochs", "6",
         "--model-out", str(tmp_path / "m_motion")],
        ["train", "--manifest", str(corpus / "manifest.json"), "--stream", "std",
         "--train-views", "1,2", "--test-views", "3", "--epochs", "6",
         "--roi-side", "24", "--model-out", str(tmp_path / "m_std")],
        ["predict", "--model", str(tmp_path / "m_motion"),
         "--manifest", str(corpus / "manifest.json"), "--views", "3",
         "--out", str(tmp_path / "s_motion.csv")],
        ["predict", "--model", str(tmp_path / "m_std"),
         "--manifest", str(corpus / "manifest.json"), "--views", "3",
         "--out", str(tmp_path / "s_std.csv")],
        ["fuse", "--scores", str(tmp_path / "s_motion.csv"),
         "--scores", str(tmp_path / "s_std.csv"), "--mode", "product",
         "--out", str(tmp_path / "fused.csv")],
        ["eval", "--scores", f"motion={tmp_path / 's_motion.csv'}",
         "--scores", f"std={tmp_path / 's_std.csv'}",
         "--modes", "maximum,average,product",
         "--report-out", str(tmp_path / "report.json"),
         "--curves-out", str(tmp_path / "curves")],
    ]
    for step in steps:
        assert cli.main(step) == 0, f"step {step[0]} failed"
    return tmp_path / "report.json"


class TestPipeline:
    def test_full_pipeline_emits_all_fusion_modes(self, tmp_path):
        report = json.loads(small_pipeline(tmp_path).read_text())
        assert set(report["fusion"]) == {"maximum", "average", "product"}
        assert set(report["streams"]) == {"motion", "std"}
        assert report["num_samples"] == 9

    def test_rerun_is_byte_identical(self, tmp_path):
        r1 = small_pipeline(tmp_path / "a").read_bytes()
        r2 = small_pipeline(tmp_path / "b").read_bytes()
        assert r1 == r2

    def test_curves_csv_columns(self, tmp_path):
        small_pipeline(tmp_path)
        curves = (tmp_path / "curves" / "fusion_product.csv").read_text().splitlines()
        assert curves[0] == "class_id,fpr,tpr,threshold"
        assert len(curves) > 1

    def test_run_config_written(self, tmp_path):
        small_pipeline(tmp_path)
        cfg = json.loads((tmp_path / "corpus" / "run-config.json").read_text())
        assert cfg["command"] == "synth"
        assert cfg["seed"] == 3
        assert (tmp_path / "report.json.config.json").exists()


class TestEncodeDi:
    def test_constant_video_gives_zero_tensor(self, tmp_path):
        frames = [np.full((1, 16, 16), 0.5)] * 5
        make_video_dir(tmp_path / "vid", frames)
        out = tmp_path / "di"
        assert cli.main(["encode-di", "--video", str(tmp_path / "vid"),
                         "--out", str(out)]) == 0
        raw, meta = read_tensor(out.with_suffix(".rpt1"))
        np.testing.assert_allclose(raw, 0.0, atol=1e-7)
        assert (out.with_suffix(".pgm")).exists()


def _run_quietly(argv) -> tuple[int, str]:
    """``cli.main`` with its output captured: (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stderr.getvalue()


def _assert_success_or_one_json_error(code, err, bad, left, outputs):
    """Exit 0 leaving the outputs and their config record, or exit 1 or 2
    with one JSON line that names the bad file and nothing left behind."""
    if code == 0:
        assert err == "" and left == outputs
    else:
        assert code in (1, 2)
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert str(bad) in json.loads(err)["message"]
        assert left == []


# encode-di's input surface: a valid three-frame pixmap directory and the
# ways a frame directory can be broken.  Each mutation returns the path the
# error must name, or None when the directory stays valid.
def _header(blob: bytes) -> tuple[bytes, bytes]:
    """Split a file written by write_frame into its three header lines and payload."""
    end = 0
    for _ in range(3):
        end = blob.index(b"\n", end) + 1
    return blob[:end], blob[end:]


def _truncate(video, index, cut):
    path = video / f"{index:04d}.ppm"
    blob = path.read_bytes()
    path.write_bytes(blob[: int(cut * len(blob))])
    return path


def _rewrite_header(header):
    def mutate(video, index, cut):
        path = video / f"{index:04d}.ppm"
        path.write_bytes(header + _header(path.read_bytes())[1])
        return path

    return mutate


def _comment(video, index, cut):
    path = video / f"{index:04d}.ppm"
    payload = _header(path.read_bytes())[1]
    path.write_bytes(b"P6\n# a comment line\n5 4 # width height\n255\n" + payload)


def _mixed_size(video, index, cut):
    path = video / f"{index:04d}.ppm"
    write_frame(np.zeros((3, 5, 4)), path)
    return path


def _graymap_among_pixmaps(video, index, cut):
    path = video / "0000.pgm"
    write_frame(np.zeros((1, 4, 5)), path)
    return path


def _empty(video, index, cut):
    for path in video.iterdir():
        path.unlink()
    return video


def _subdirectory(video, index, cut):
    (video / "x.ppm").mkdir()
    return video / "x.ppm"


FRAME_DIR_MUTATIONS = {
    "valid": lambda video, index, cut: None,
    "truncated": _truncate,
    "bad_magic": _rewrite_header(b"P3\n5 4\n255\n"),
    "maxval_0": _rewrite_header(b"P6\n5 4\n0\n"),
    "maxval_256": _rewrite_header(b"P6\n5 4\n256\n"),
    "maxval_70000": _rewrite_header(b"P6\n5 4\n70000\n"),
    "zero_width": _rewrite_header(b"P6\n0 4\n255\n"),
    "comment": _comment,
    "mixed_size": _mixed_size,
    "graymap_among_pixmaps": _graymap_among_pixmaps,
    "empty": _empty,
    "subdirectory": _subdirectory,
}


class TestEncodeDiInputSurface:
    @settings(max_examples=18, deadline=None, derandomize=True, database=None)
    @given(
        mutation=st.sampled_from(sorted(FRAME_DIR_MUTATIONS)),
        index=st.integers(0, 2),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(mutation="valid", index=0, cut=0.0)
    @example(mutation="truncated", index=2, cut=0.9)
    @example(mutation="bad_magic", index=0, cut=0.0)
    @example(mutation="maxval_0", index=1, cut=0.0)
    @example(mutation="maxval_256", index=1, cut=0.0)
    @example(mutation="maxval_70000", index=1, cut=0.0)
    @example(mutation="zero_width", index=2, cut=0.0)
    @example(mutation="comment", index=1, cut=0.0)
    @example(mutation="mixed_size", index=0, cut=0.0)
    @example(mutation="graymap_among_pixmaps", index=0, cut=0.0)
    @example(mutation="empty", index=0, cut=0.0)
    @example(mutation="subdirectory", index=0, cut=0.0)
    def test_success_or_one_json_error(self, mutation, index, cut):
        """A mutated frame directory either encodes, writing the tensor, the
        display image and the config record, or exits 1 or 2 with one JSON
        line that names the bad file (or the empty directory) and leaves
        nothing behind."""
        with tempfile.TemporaryDirectory() as tmp:
            video, out_dir = Path(tmp) / "video", Path(tmp) / "out"
            rng = np.random.default_rng(index)
            make_video_dir(video, [rng.random((3, 4, 5)) for _ in range(3)], fmt="ppm")
            bad = FRAME_DIR_MUTATIONS[mutation](video, index, cut)
            out_dir.mkdir()
            code, err = _run_quietly(["encode-di", "--video", str(video),
                                      "--out", str(out_dir / "di")])
            left = sorted(p.name for p in out_dir.iterdir())
        assert (code == 0) == (bad is None)
        _assert_success_or_one_json_error(code, err, bad, left,
                                          ["di.ppm", "di.rpt1", "di.rpt1.config.json"])


def _every_case(cases, **values):
    """Run a property test on each named case once, besides the drawn ones."""
    def apply(test):
        for case in cases:
            test = example(mutation=case, **values)(test)
        return test

    return apply


# rankpool-exact's input surface: a valid 4x3 feature file and the ways it
# can be broken, each mutation turning the drawn ``cut`` in [0, 1) into bytes.
def _rpt1(dims, payload=None, trailer=b'{"class_id": 1, "subject_id": 2, "view_id": 3}'):
    values = np.arange(np.prod(dims), dtype="<f4") / 7 if payload is None else payload
    header = b"RPT1" + np.asarray([len(dims)], "<u4").tobytes() + np.asarray(dims, "<u4").tobytes()
    return header + values.astype("<f4").tobytes() + trailer


def _non_finite(value):
    def mutate(cut):
        payload = np.arange(12, dtype="<f4")
        payload[int(cut * 12)] = value
        return _rpt1([4, 3], payload)

    return mutate


FEATURE_FILE_MUTATIONS = {
    "valid": lambda cut: _rpt1([4, 3]),
    "truncated": lambda cut: _rpt1([4, 3])[: int(cut * len(_rpt1([4, 3])))],
    "bad_magic": lambda cut: b"RPT2" + _rpt1([4, 3])[4:],
    "rank_0": lambda cut: b"RPT1" + bytes(4),
    "rank_3": lambda cut: _rpt1([2, 2, 3]),
    "zero_dim": lambda cut: _rpt1([4, 0], np.zeros(0)),
    "nan": _non_finite(np.nan),
    "inf": _non_finite(-np.inf),
    "null_id": lambda cut: _rpt1([4, 3], trailer=b'{"class_id": null}'),
    "list_metadata": lambda cut: _rpt1([4, 3], trailer=b"[1, 2]"),
    "string_id": lambda cut: _rpt1([4, 3], trailer=b'{"class_id": "x"}'),
    "negative_id": lambda cut: _rpt1([4, 3], trailer=b'{"class_id": -3}'),
    "float_id": lambda cut: _rpt1([4, 3], trailer=b'{"view_id": 1.5}'),
    "not_utf8": lambda cut: _rpt1([4, 3], trailer=b'{"view_id": "\xff"}'),
}


class TestRankpoolExactInputSurface:
    @settings(max_examples=26, deadline=None, derandomize=True, database=None)
    @given(mutation=st.sampled_from(sorted(FEATURE_FILE_MUTATIONS)),
           cut=st.floats(0.0, 1.0, exclude_max=True))
    @_every_case(FEATURE_FILE_MUTATIONS, cut=0.5)
    def test_success_or_one_json_error(self, mutation, cut):
        """Only the valid file and a truncation that keeps the whole
        payload can succeed; every other case is named in its error."""
        with tempfile.TemporaryDirectory() as tmp:
            feat, out_dir = Path(tmp) / "seq.rpt1", Path(tmp) / "out"
            feat.write_bytes(FEATURE_FILE_MUTATIONS[mutation](cut))
            out_dir.mkdir()
            code, err = _run_quietly(["rankpool-exact", "--features", str(feat),
                                      "--out", str(out_dir / "rank.json")])
            left = sorted(p.name for p in out_dir.iterdir())
        assert code != 0 or mutation in ("valid", "truncated")
        _assert_success_or_one_json_error(code, err, feat, left,
                                          ["rank.json", "rank.json.config.json"])


# fuse's and eval's input surface: two agreeing score files, one of which a
# mutation breaks at a drawn data row.
_SCORE_ROWS = ["a,0,0.25,0.75", "b,1,0.6,0.4", "c,1,0.1,0.9"]


def _score_row_edit(edit):
    return lambda lines, row: lines[:row] + [edit(lines[row])] + lines[row + 1:]


SCORE_FILE_MUTATIONS = {
    "valid": lambda lines, row: lines,
    "ragged": _score_row_edit(lambda line: line.rsplit(",", 1)[0]),
    "non_integer_label": _score_row_edit(lambda line: line.replace(",", ",x", 1)),
    "nan": _score_row_edit(lambda line: line.rsplit(",", 1)[0] + ",nan"),
    "inf": _score_row_edit(lambda line: line.rsplit(",", 1)[0] + ",inf"),
    "changed_header": lambda lines, row: ["id,label,score_0,score_1"] + lines[1:],
    "empty": lambda lines, row: [],
    "ids_disagree": _score_row_edit(lambda line: "z" + line),
}


class TestScoreFileInputSurface:
    @pytest.mark.parametrize("command", ["fuse", "eval"])
    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(mutation=st.sampled_from(sorted(SCORE_FILE_MUTATIONS)),
           second=st.booleans(), row=st.integers(1, len(_SCORE_ROWS)))
    @_every_case(SCORE_FILE_MUTATIONS, second=True, row=2)
    def test_success_or_one_json_error(self, command, mutation, second, row):
        """A broken score file, first or second on the command line, is
        named in the one JSON error line and nothing is written."""
        with tempfile.TemporaryDirectory() as tmp:
            paths, out_dir = [Path(tmp) / "x.csv", Path(tmp) / "y.csv"], Path(tmp) / "out"
            lines = ["sequence_id,label,score_0,score_1", *_SCORE_ROWS]
            for path in paths:
                path.write_text("\n".join(lines) + "\n")
            bad = paths[int(second)]
            mutated = SCORE_FILE_MUTATIONS[mutation](lines, row)
            bad.write_text("".join(line + "\n" for line in mutated))
            out_dir.mkdir()
            if command == "fuse":
                argv = ["fuse", "--scores", str(paths[0]), "--scores", str(paths[1]),
                        "--out", str(out_dir / "fused.csv")]
                outputs = ["fused.csv", "fused.csv.config.json"]
            else:
                argv = ["eval", "--scores", f"m={paths[0]}", "--scores", f"s={paths[1]}",
                        "--report-out", str(out_dir / "report.json"),
                        "--curves-out", str(out_dir / "curves")]
                outputs = ["curves", "report.json", "report.json.config.json"]
            code, err = _run_quietly(argv)
            left = sorted(p.name for p in out_dir.iterdir())
        assert code != 0 or mutation == "valid"
        _assert_success_or_one_json_error(code, err, bad, left, outputs)


class TestErrorsNameTheFile:
    def encode_di_case(self, tmp_path):
        video = tmp_path / "video"
        make_video_dir(video, [np.full((3, 32, 32), t / 16) for t in range(16)], fmt="ppm")
        bad = video / "0007.ppm"
        bad.write_bytes(bad.read_bytes()[:100])
        out = tmp_path / "di"
        return ["encode-di", "--video", str(video), "--out", str(out)], bad, out.with_suffix(".rpt1")

    def rankpool_exact_case(self, tmp_path):
        bad = tmp_path / "bad.rpt1"
        write_feature_sequence(FeatureSequence(vectors=np.eye(3)), bad)
        bad.write_bytes(bad.read_bytes()[:6])
        out = tmp_path / "rank.json"
        return ["rankpool-exact", "--features", str(bad), "--out", str(out)], bad, out

    def predict_case(self, tmp_path):
        corpus = tiny_corpus(tmp_path)
        manifest = str(corpus / "manifest.json")
        model = tmp_path / "model"
        assert cli.main(["train", "--manifest", manifest, "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model)]) == 0
        bad = model / "weights.rpt1"
        bad.write_bytes(bad.read_bytes()[:-5])
        out = tmp_path / "scores.csv"
        return ["predict", "--model", str(model), "--manifest", manifest, "--out", str(out)], bad, out

    @pytest.mark.parametrize("case", ["encode_di", "rankpool_exact", "predict"])
    def test_truncated_input_is_named(self, tmp_path, capsys, case):
        """A truncated frame, features file or weights file exits 1 with one
        JSON line that names it, and writes no output or config record."""
        argv, bad, out = getattr(self, f"{case}_case")(tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{bad}: ")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.config.json"))

    def test_swapped_weights_name_the_model_file(self, tmp_path, capsys):
        """A valid weights tensor of the wrong shape is a model-file error."""
        argv, bad, out = self.predict_case(tmp_path)
        write_tensor(np.zeros((3, 5), np.float32), None, bad)
        capsys.readouterr()
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["message"].startswith(f"model file {bad.parent / 'model.json'} ")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.config.json"))


def depth_frames(n=6, side=24):
    frames = []
    for t in range(n):
        arr = np.zeros((1, side, side))
        arr[0, 4 : 14 + (t % 2), 6:18] = 0.9
        frames.append(arr)
    return frames


class TestKeyframesCommand:
    def test_outputs_csv_and_stack(self, tmp_path):
        make_video_dir(tmp_path / "vid", depth_frames())
        out = tmp_path / "kf"
        assert cli.main(["keyframes", "--video", str(tmp_path / "vid"),
                         "--k", "3", "--roi-side", "16", "--out", str(out)]) == 0
        rows = (out.with_suffix(".csv")).read_text().splitlines()
        assert rows[0] == "pair_index,ssii"
        assert len(rows) == 6  # header + five pairs
        stack, meta = read_tensor(out.with_suffix(".rpt1"))
        assert stack.shape == (3, 16, 16)
        assert len(meta["frame_indices"]) == 3

    def test_reports_dropped_frames(self, tmp_path, monkeypatch, capsys):
        """A blank frame is reported, and the 5 kept frames cost 4 pair
        evaluations: one pass over the kept frames, none for the dropped one."""
        frames = depth_frames()
        frames[2] = np.zeros((1, 24, 24))
        make_video_dir(tmp_path / "vid", frames)
        calls = []
        consecutive_ssim = imgproc.consecutive_ssim

        def counted(stack):
            values = consecutive_ssim(stack)
            calls.append((len(stack), len(values)))
            return values

        monkeypatch.setattr(imgproc, "consecutive_ssim", counted)
        out = tmp_path / "kf"
        assert cli.main(["keyframes", "--video", str(tmp_path / "vid"),
                         "--k", "3", "--roi-side", "16", "--out", str(out)]) == 0
        _, meta = read_tensor(out.with_suffix(".rpt1"))
        assert meta["dropped_indices"] == [3]
        assert 3 not in meta["frame_indices"]
        assert "(1 dropped)" in capsys.readouterr().out
        assert calls == [(5, 4)]
        rows = out.with_suffix(".csv").read_text().splitlines()
        assert sorted(int(r.split(",")[0]) for r in rows[1:]) == [1, 2, 3, 4]

    @pytest.mark.parametrize(
        "fmt, frames, flags, message",
        [
            ("pgm", depth_frames(), ["--roi-side", "8"], "window 11x11 larger than image 8x8"),
            ("ppm", [np.repeat(f, 3, axis=0) for f in depth_frames()], ["--roi-side", "16"],
             "expected single-channel input, got 3 channels"),
        ],
        ids=["roi_side_8", "three_channel_depth"],
    )
    def test_unusable_input_exits_1(self, tmp_path, capsys, fmt, frames, flags, message):
        make_video_dir(tmp_path / "vid", frames, fmt=fmt)
        out = tmp_path / "kf"
        code = cli.main(["keyframes", "--video", str(tmp_path / "vid"), "--k", "3",
                         *flags, "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": message}
        assert not out.with_suffix(".rpt1").exists() and not out.with_suffix(".csv").exists()
        assert not list(tmp_path.rglob("*.config.json"))

    def test_config_sits_beside_outputs_for_dotted_out(self, tmp_path):
        make_video_dir(tmp_path / "vid", depth_frames())
        assert cli.main(["keyframes", "--video", str(tmp_path / "vid"), "--k", "3",
                         "--roi-side", "16", "--out", str(tmp_path / "kf.v2")]) == 0
        assert (tmp_path / "kf.rpt1").exists() and (tmp_path / "kf.csv").exists()
        cfg = json.loads((tmp_path / "kf.rpt1.config.json").read_text())
        assert cfg["command"] == "keyframes"
        assert not (tmp_path / "kf.v2.config.json").exists()

    def test_stack_is_what_the_std_stream_pools(self, tmp_path):
        frames = depth_frames(n=8)
        make_video_dir(tmp_path / "vid", frames)
        out = tmp_path / "kf"
        assert cli.main(["keyframes", "--video", str(tmp_path / "vid"),
                         "--k", "4", "--roi-side", "16", "--out", str(out)]) == 0
        stack, _ = read_tensor(out.with_suffix(".rpt1"))
        entry = {"id": "vid", "depth_dir": "vid"}
        pooled = cli._feature_matrix(tmp_path, [entry], "std",
                                     {"k": 4, "roi_side": 16, "on_silhouette": True,
                                      "pool": "concat"})[0]
        np.testing.assert_array_equal(stack, pooled.astype(np.float32).reshape(stack.shape))


class TestRankpoolExactCommand:
    def test_analytic_instance_via_file(self, tmp_path):
        seq = FeatureSequence(vectors=np.array([[0.0], [1.0]]))
        feat = tmp_path / "seq.rpt1"
        write_feature_sequence(seq, feat)
        out = tmp_path / "rank.json"
        assert cli.main(["rankpool-exact", "--features", str(feat),
                         "--lam", "0.01", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert abs(payload["r"][0] - 2.0) <= 1e-3
        assert payload["converged"] is True

    @pytest.mark.parametrize(
        "flags",
        [
            ["--step", "0"],
            ["--step", "nan"],
            ["--lam", "nan"],
            ["--lam", "inf"],
            ["--max-iter", "-1"],
            ["--tol", "nan"],
        ],
    )
    def test_bad_solver_parameters_exit_1(self, tmp_path, capsys, flags):
        feat = tmp_path / "seq.rpt1"
        write_feature_sequence(FeatureSequence(vectors=np.array([[0.0], [1.0]])), feat)
        out = tmp_path / "rank.json"
        code = cli.main(["rankpool-exact", "--features", str(feat), "--out", str(out), *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"{flags[0][2:].replace('-', '_')} must be" in err["message"]
        assert not out.exists()
        assert not list(tmp_path.rglob("*.config.json"))

    @pytest.mark.parametrize(
        "shape, metadata",
        [
            ((4, 3), {"class_id": None}),
            ((4, 3), [1, 2]),
            ((4, 3), {"class_id": "x"}),
            ((2, 2, 3), {"class_id": 1}),
            ((4, 3), {"class_id": -3}),
            ((4, 3), {"view_id": 1.5}),
        ],
        ids=["null_id", "list_metadata", "string_id", "rank_3", "negative_id", "float_id"],
    )
    def test_bad_feature_file_is_named(self, tmp_path, capsys, shape, metadata):
        """A features file of the wrong rank, or whose metadata is not an
        object of integer ids >= 0, exits 1 with one JSON line that names it."""
        feat = tmp_path / "seq.rpt1"
        write_tensor(np.ones(shape, np.float32), metadata, feat)
        out = tmp_path / "rank.json"
        capsys.readouterr()
        assert cli.main(["rankpool-exact", "--features", str(feat), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["message"].startswith(f"{feat}: ")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.config.json"))

    def test_too_many_frames_exit_1(self, tmp_path, capsys):
        """A 16 KB file of 4097 one-number frames asks for (n, n) arrays past
        the solver's bound: the JSON error, no traceback and no output."""
        feat = tmp_path / "long.rpt1"
        write_feature_sequence(FeatureSequence(vectors=np.zeros((4097, 1))), feat)
        assert feat.stat().st_size < 17_000
        out = tmp_path / "rank.json"
        code = cli.main(["rankpool-exact", "--features", str(feat), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "n = 4097" in payload["message"] and "4096" in payload["message"]
        assert not out.exists()
        assert not list(tmp_path.rglob("*.config.json"))


class TestModuleEntryPoint:
    def test_python_dash_m_from_a_checkout(self, tmp_path):
        """``PYTHONPATH=src python -m dynafuse`` runs a subcommand and passes
        its exit code on, with nothing installed."""
        feat = tmp_path / "seq.rpt1"
        write_feature_sequence(FeatureSequence(vectors=np.array([[0.0], [1.0]])), feat)
        out = tmp_path / "rank.json"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def run(*flags):
            argv = [sys.executable, "-m", "dynafuse", "rankpool-exact",
                    "--features", str(feat), "--out", str(out), *flags]
            return subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True,
                                  text=True, timeout=120)

        done = run("--lam", "0.01")
        assert done.returncode == 0, done.stderr
        assert abs(json.loads(out.read_text())["r"][0] - 2.0) <= 1e-3
        out.unlink()
        failed = run("--step", "0")
        assert failed.returncode == 1
        assert json.loads(failed.stderr)["error"] == "ValueError"
        assert not out.exists()


class TestUtf8Inputs:
    def test_json_inputs_are_utf8_in_an_ascii_locale(self, tmp_path):
        """A manifest and a model.json holding non-ASCII text, written as
        UTF-8 (RFC 8259), train and predict under the C locale with Python's
        UTF-8 mode off, where the locale's encoding is ASCII."""
        corpus = tiny_corpus(tmp_path)
        manifest = corpus / "manifest.json"
        record = json.loads(manifest.read_text())
        for entry in record["sequences"]:
            if entry["id"] in ("c0_s0_v1", "c0_s0_v3"):
                entry["id"] += "_\u00e9"
        manifest.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        model = tmp_path / "model"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "dynafuse", *argv], env=env,
                                  cwd=tmp_path, capture_output=True, text=True, timeout=120)

        done = run("train", "--manifest", str(manifest), "--stream", "motion",
                   "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                   "--model-out", str(model))
        assert done.returncode == 0, done.stderr
        sidecar = model / "model.json"
        record = {**json.loads(sidecar.read_text()), "note": "\u00e9"}
        sidecar.write_text(json.dumps(record, ensure_ascii=False), encoding="utf-8")
        scores = tmp_path / "scores.csv"
        done = run("predict", "--model", str(model), "--manifest", str(manifest),
                   "--out", str(scores))
        assert done.returncode == 0, done.stderr
        assert "c0_s0_v3_\u00e9" in scores.read_text(encoding="utf-8")


class TestColdStart:
    def test_motion_path_never_imports_scipy(self, tmp_path):
        """A fresh process runs the whole motion stream, fusion and eval
        without loading scipy; the first shape-stream call loads it."""
        script = r"""
import json, sys
from pathlib import Path
import numpy as np
from dynafuse import cli
from dynafuse.tensorio import FeatureSequence, write_feature_sequence

tmp = Path(sys.argv[1])
corpus = tmp / "corpus"
manifest = str(corpus / "manifest.json")
write_feature_sequence(FeatureSequence(vectors=np.array([[0.0], [1.0], [3.0]])), tmp / "seq.rpt1")
steps = [
    ["synth", "--out", str(corpus), "--subjects", "2", "--frames", "4", "--frame-side", "32"],
    ["encode-di", "--video", str(corpus / "c0_s0_v1" / "rgb"), "--out", str(tmp / "di")],
    ["rankpool-exact", "--features", str(tmp / "seq.rpt1"), "--out", str(tmp / "rank.json")],
    ["train", "--manifest", manifest, "--stream", "motion", "--train-views", "1,2",
     "--test-views", "3", "--epochs", "2", "--model-out", str(tmp / "model")],
    ["predict", "--model", str(tmp / "model"), "--manifest", manifest,
     "--out", str(tmp / "scores.csv")],
    ["fuse", "--scores", str(tmp / "scores.csv"), "--out", str(tmp / "fused.csv")],
    ["eval", "--scores", f"motion={tmp / 'scores.csv'}", "--report-out", str(tmp / "report.json")],
]
codes = [cli.main(step) for step in steps]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(cli.main(["keyframes", "--video", str(corpus / "c0_s0_v1" / "depth"),
                       "--k", "2", "--roi-side", "16", "--out", str(tmp / "kf")]))
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy.ndimage" in sys.modules}))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"codes": [0] * 8, "before": [], "after": True}, done.stderr


def tiny_corpus(tmp_path, frames=4, side=16):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out", str(corpus), "--subjects", "2",
                     "--frames", str(frames), "--frame-side", str(side)]) == 0
    return corpus


class TestParserReuse:
    def test_repeated_main_calls_match_a_fresh_parser(self, tmp_path, monkeypatch):
        """One cached parser serves every call: a list option given in one
        call does not carry into the next, and an argument error leaves
        nothing behind."""
        assert cli.build_parser() is cli.build_parser()
        corpus = tiny_corpus(tmp_path)
        manifest = str(corpus / "manifest.json")
        model = tmp_path / "model"
        assert cli.main(["train", "--manifest", manifest, "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model)]) == 0

        def calls(out_dir):
            base = ["predict", "--model", str(model), "--manifest", manifest]
            return [
                base + ["--views", "3", "--out", str(out_dir / "a.csv")],
                base + ["--out", str(out_dir / "b.csv")],
                base + ["--views", "x", "--out", str(out_dir / "c.csv")],
                base + ["--views", "3", "--out", str(out_dir / "d.csv")],
            ]

        def run(out_dir):
            out_dir.mkdir()
            results = []
            for argv in calls(out_dir):
                code = cli.main(argv)
                out = Path(argv[-1])
                results.append((code, out.read_text() if out.exists() else None))
            return results

        fresh_parser = cli.build_parser.__wrapped__
        cached = run(tmp_path / "cached")
        assert [code for code, _ in cached] == [0, 0, 1, 0]
        assert len(cached[0][1].splitlines()) == 1 + 6  # view 3 only
        assert len(cached[1][1].splitlines()) == 1 + 6  # the recorded test view, 3
        assert cached[3] == cached[0]
        for argv in calls(tmp_path / "cached"):
            if "x" not in argv:
                assert cli.build_parser().parse_args(argv) == fresh_parser().parse_args(argv)

        monkeypatch.setattr(cli, "build_parser", fresh_parser)
        assert run(tmp_path / "fresh") == cached



class TestPredictSelection:
    def test_default_is_the_recorded_test_side(self, tmp_path, capsys):
        """Without --views/--subjects, predict scores the test side that
        model.json records; an explicit filter selects exactly what it
        names, training sequences included."""
        corpus = tiny_corpus(tmp_path)
        manifest = str(corpus / "manifest.json")
        protocols = {
            "view": ["--train-views", "1,2", "--test-views", "3"],
            "subject": ["--protocol", "cross-subject", "--train-subjects", "0",
                        "--test-subjects", "1"],
        }
        for name, flags in protocols.items():
            assert cli.main(["train", "--manifest", manifest, "--stream", "motion",
                             "--epochs", "2", "--model-out", str(tmp_path / name), *flags]) == 0

        def scored(model, *flags, manifest=manifest):
            out = tmp_path / "scores.csv"
            out.unlink(missing_ok=True)
            code = cli.main(["predict", "--model", str(tmp_path / model), "--manifest",
                             manifest, *flags, "--out", str(out)])
            return code, [line.split(",")[0] for line in out.read_text().splitlines()[1:]]

        def ids(subjects, views):
            return [f"c{c}_s{s}_v{v}" for c in range(3) for s in subjects for v in views]

        assert scored("view") == (0, ids([0, 1], [3]))
        assert scored("subject") == (0, ids([1], [1, 2, 3]))
        assert scored("view", "--views", "1") == (0, ids([0, 1], [1]))
        assert scored("subject", "--subjects", "0") == (0, ids([0], [1, 2, 3]))
        # a manifest of held-out sequences alone needs no filter either
        record = json.loads((corpus / "manifest.json").read_text())
        record["sequences"] = [e for e in record["sequences"] if e["view_id"] == 3]
        (corpus / "held_out.json").write_text(json.dumps(record))
        assert scored("view", manifest=str(corpus / "held_out.json")) == (0, ids([0, 1], [3]))
        sidecar = tmp_path / "view" / "model.json"
        record = json.loads(sidecar.read_text())
        del record["protocol"]
        sidecar.write_text(json.dumps(record))
        capsys.readouterr()
        assert cli.main(["predict", "--model", str(tmp_path / "view"), "--manifest", manifest,
                         "--out", str(tmp_path / "none.csv")]) == 1
        assert "records no protocol" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "none.csv").exists()


def _pre_fold(record):
    """model.json as written before the standardization was folded into the
    weights: no bias, and the mean and scale vectors."""
    del record["bias"]
    record.update(feature_mean=[0.0] * record["dim"], feature_scale=[1.0] * record["dim"])


class TestModelFileChecks:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """A tiny corpus and a std model trained on it, shared by every case."""
        tmp_path = tmp_path_factory.mktemp("model_file")
        corpus = tiny_corpus(tmp_path, side=32)
        model = tmp_path / "model"
        assert cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", "std",
                         "--roi-side", "16", "--train-views", "1,2", "--test-views", "3",
                         "--epochs", "2", "--model-out", str(model)]) == 0
        return corpus, model

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.pop("dim"),
            lambda r: r.update(num_classes="3"),
            lambda r: r.update(dim=True),
            lambda r: r.pop("bias"),
            lambda r: r["protocol"].pop("train"),
            lambda r: r["protocol"].update(test=3),
            lambda r: r.update(stream="depth"),
            lambda r: r.pop("stream"),
            lambda r: r.pop("feature"),
            lambda r: r["feature"].pop("on_silhouette"),
            lambda r: r["feature"].update(k=2.5),
            lambda r: r["feature"].update(on_silhouette="false"),
            lambda r: r.update(dim=5),
            lambda r: r["bias"].pop(),
            lambda r: r["bias"].__setitem__(0, "x"),
            lambda r: r.update(bias=["1e3"] + [str(v) for v in r["bias"][1:]]),
            lambda r: r["bias"].__setitem__(0, True),
            lambda r: r["bias"].__setitem__(0, 10**400),
            _pre_fold,
            lambda r: r.update(num_classes=1),
            lambda r: r["feature"].update(k=0),
            lambda r: r["feature"].update(roi_side=0),
            lambda r: r["feature"].update(pool="max"),
            "{not json",
        ],
        ids=["no_dim", "string_num_classes", "bool_dim", "no_bias",
             "protocol_without_train", "scalar_test_side", "depth_stream", "no_stream",
             "no_feature", "feature_without_on_silhouette", "float_k", "string_on_silhouette",
             "dim_5", "short_bias", "string_in_bias", "numeric_strings_in_bias",
             "bool_in_bias", "int_past_float_range_in_bias", "pre_fold_model", "one_class",
             "k_0", "roi_side_0", "pool_max", "not_json"],
    )
    def test_bad_model_file_exits_1(self, trained, tmp_path, capsys, monkeypatch, edit):
        """A model.json that is not JSON, or lacks, mistypes or puts out of
        range what predict reads, is named in a one-line JSON error before
        any video is read.  A string case is the whole text of the file."""
        corpus, model = trained
        read = []
        monkeypatch.setattr(cli, "_load_video_dir", lambda *args: read.append(args))
        broken = tmp_path / "model"
        shutil.copytree(model, broken)
        sidecar = broken / "model.json"
        if isinstance(edit, str):
            sidecar.write_text(edit)
        else:
            record = json.loads(sidecar.read_text())
            edit(record)
            sidecar.write_text(json.dumps(record))
        capsys.readouterr()
        out = tmp_path / "scores.csv"
        code = cli.main(["predict", "--model", str(broken), "--manifest",
                         str(corpus / "manifest.json"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"model file {sidecar} ")
        assert read == []
        assert not out.exists()
        assert not list(tmp_path.glob("*.config.json"))


class TestExternalFeatureHook:
    def test_std_features_files_are_pooled(self, tmp_path):
        """Entries that name a ``std_features`` file train and score the std
        stream from it alone (no depth frames are listed), one row per file."""
        corpus = tiny_corpus(tmp_path)
        record = json.loads((corpus / "manifest.json").read_text())
        (corpus / "features").mkdir()
        rng = np.random.default_rng(5)
        for entry in record["sequences"]:
            entry["std_features"] = f"features/{entry['id']}.rpt1"
            del entry["depth_dir"]
            vectors = rng.random((3, 5)) + entry["class_id"]
            write_feature_sequence(FeatureSequence(vectors=vectors), corpus / entry["std_features"])
        manifest = corpus / "external.json"
        manifest.write_text(json.dumps(record))
        assert cli.main(["train", "--manifest", str(manifest), "--stream", "std",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(tmp_path / "model")]) == 0
        out = tmp_path / "scores.csv"
        assert cli.main(["predict", "--model", str(tmp_path / "model"),
                         "--manifest", str(manifest), "--out", str(out)]) == 0
        test_ids = sorted(e["id"] for e in record["sequences"] if e["view_id"] == 3)
        assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == test_ids

        entries = sorted(record["sequences"], key=lambda e: e["id"])
        matrix = cli._feature_matrix(corpus, entries, "std", {"pool": "mean"})
        assert matrix.shape == (len(entries), 5)
        for entry, row in zip(entries, matrix):
            vectors = read_feature_sequence(corpus / entry["std_features"]).vectors
            np.testing.assert_array_equal(row, pool_features(vectors))


# train's and predict's input surface: a tiny corpus whose std stream reads
# one feature file per sequence, a model of each stream trained on it, and
# the ways the manifest, a model.json and a feature file can be broken.  A
# mutation edits a copy for the drawn stream and sequence and returns what
# the error must name; its readers are the commands and streams that read
# what it breaks, and a run that reads none of it succeeds.
def _json_edit(where, edit):
    def mutate(work, stream, seq_id):
        path = where(work, stream)
        record = json.loads(path.read_text())
        edit(record, seq_id)
        path.write_text(json.dumps(record))  # NaN and Infinity as JSON extensions
        return path

    return mutate


def _manifest(work, stream):
    return work / "corpus" / "manifest.json"


def _model_json(work, stream):
    return work / f"model_{stream}" / "model.json"


def _entry_edit(edit):
    """A manifest mutation of the drawn sequence's entry."""
    def apply(record, seq_id):
        entries = record["sequences"]
        edit(next(e for e in entries if e["id"] == seq_id), entries)

    return _json_edit(_manifest, apply)


def _not_utf8(where):
    def mutate(work, stream, seq_id):
        path = where(work, stream)
        path.write_bytes(path.read_bytes().replace(b"{", b'{"note": "\xff", ', 1))
        return path

    return mutate


def _feature_file(blob, named_by_id=False):
    """Overwrite the drawn sequence's feature file, or delete it (``blob`` None)."""
    def mutate(work, stream, seq_id):
        path = work / "corpus" / "features" / f"{seq_id}.rpt1"
        if blob is None:
            path.unlink()
        else:
            path.write_bytes(blob)
        return seq_id if named_by_id else path

    return mutate


def _duplicate_id(entry, entries):
    entry["id"] = next(e["id"] for e in entries if e is not entry)


TRAIN_PREDICT_MUTATIONS = {
    "valid": (set(), lambda work, stream, seq_id: None),
    "manifest_no_view_id": ({"train", "predict"}, _entry_edit(lambda e, _: e.pop("view_id"))),
    "manifest_string_class_id": ({"train", "predict"},
                                 _entry_edit(lambda e, _: e.update(class_id="1"))),
    "manifest_nan_view_id": ({"train", "predict"},
                             _entry_edit(lambda e, _: e.update(view_id=float("nan")))),
    "manifest_inf_subject_id": ({"train", "predict"},
                                _entry_edit(lambda e, _: e.update(subject_id=float("inf")))),
    "manifest_duplicate_id": ({"train", "predict"}, _entry_edit(_duplicate_id)),
    "manifest_number_as_path": ({"train", "predict"},
                                _entry_edit(lambda e, _: e.update(std_features=3))),
    "manifest_not_utf8": ({"train", "predict"}, _not_utf8(_manifest)),
    "manifest_number_as_root": ({"train", "predict"}, _json_edit(
        _manifest, lambda r, _: r.update(root=3))),
    "manifest_zero_num_classes": ({"train"}, _json_edit(
        _manifest, lambda r, _: r["config"].update(num_classes=0))),
    "model_no_dim": ({"predict"}, _json_edit(_model_json, lambda r, _: r.pop("dim"))),
    "model_string_num_classes": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r.update(num_classes="3"))),
    "model_nan_bias": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r["bias"].__setitem__(0, float("nan")))),
    "model_inf_bias": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r["bias"].__setitem__(0, float("inf")))),
    "model_short_bias": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r["bias"].pop())),
    "model_feature_list": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r.update(feature=[]))),
    "model_k_0": ({"predict"}, _json_edit(_model_json, lambda r, _: r["feature"].update(k=0))),
    "model_roi_side_0": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r["feature"].update(roi_side=0))),
    "model_pool_max": ({"predict"}, _json_edit(
        _model_json, lambda r, _: r["feature"].update(pool="max"))),
    "model_not_utf8": ({"predict"}, _not_utf8(_model_json)),
    "features_nan": ({"std"}, _feature_file(_non_finite(np.nan)(0.5))),
    "features_inf": ({"std"}, _feature_file(_non_finite(np.inf)(0.25))),
    "features_ragged": ({"std"}, _feature_file(_rpt1([4, 2]), named_by_id=True)),
    "features_rank_3": ({"std"}, _feature_file(_rpt1([2, 2, 3]))),
    "features_truncated": ({"std"}, _feature_file(_rpt1([4, 3])[:20])),
    "features_missing": ({"std"}, _feature_file(None)),
}


def _copy_linking_frames(src, dst):
    """No mutation edits a frame, so frames are linked rather than copied."""
    if src.endswith((".pgm", ".ppm")):
        os.link(src, dst)
    else:
        shutil.copy2(src, dst)


def _each_mutation_once(test):
    """Run each mutation once with a command that reads what it breaks."""
    for name, (readers, _) in TRAIN_PREDICT_MUTATIONS.items():
        command = "train" if "train" in readers else "predict"
        test = example(mutation=name, command=command, stream="std", row=0)(test)
    return test


class TestTrainPredictInputSurface:
    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """A 2-subject 16 px 4-frame corpus with a (4, 3) feature file per
        sequence, and a motion and a std model trained on it; the copies an
        example makes go beside it, on the same file system."""
        base = tmp_path_factory.mktemp("train_predict") / "base"
        corpus = tiny_corpus(base)
        record = json.loads((corpus / "manifest.json").read_text())
        (corpus / "features").mkdir()
        rng = np.random.default_rng(5)
        for entry in record["sequences"]:
            entry["std_features"] = f"features/{entry['id']}.rpt1"
            vectors = rng.random((4, 3)) + entry["class_id"]
            write_feature_sequence(FeatureSequence(vectors=vectors), corpus / entry["std_features"])
        (corpus / "manifest.json").write_text(json.dumps(record))
        for stream in ("motion", "std"):
            code, err = _run_quietly(["train", "--manifest", str(corpus / "manifest.json"),
                                      "--stream", stream, "--train-views", "1,2",
                                      "--test-views", "3", "--epochs", "2",
                                      "--model-out", str(base / f"model_{stream}")])
            assert code == 0, err
        return base

    @settings(max_examples=24, deadline=None, derandomize=True, database=None)
    @given(mutation=st.sampled_from(sorted(TRAIN_PREDICT_MUTATIONS)),
           command=st.sampled_from(["train", "predict"]),
           stream=st.sampled_from(["motion", "std"]),
           row=st.integers(0, 11))
    @_each_mutation_once
    def test_success_or_one_json_error(self, base, mutation, command, stream, row):
        """A broken input that the run reads is named in the one JSON error
        line, and nothing is written; a run that reads none of it succeeds."""
        readers, mutate = TRAIN_PREDICT_MUTATIONS[mutation]
        views = (1, 2) if command == "train" else (3,)
        read_ids = [f"c{c}_s{s}_v{v}" for c in range(3) for s in range(2) for v in views]
        with tempfile.TemporaryDirectory(dir=base.parent) as tmp:
            work, out_dir = Path(tmp) / "work", Path(tmp) / "out"
            shutil.copytree(base, work, copy_function=_copy_linking_frames)
            bad = mutate(work, stream, read_ids[row % len(read_ids)])
            out_dir.mkdir()
            manifest = str(work / "corpus" / "manifest.json")
            if command == "train":
                argv = ["train", "--manifest", manifest, "--stream", stream,
                        "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                        "--model-out", str(out_dir / "model")]
                outputs = ["model", "model/model.json", "model/run-config.json",
                           "model/weights.rpt1"]
            else:
                argv = ["predict", "--model", str(work / f"model_{stream}"),
                        "--manifest", manifest, "--out", str(out_dir / "scores.csv")]
                outputs = ["scores.csv", "scores.csv.config.json"]
            code, err = _run_quietly(argv)
            left = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*"))
        assert (code == 0) == (mutation == "valid" or not readers & {command, stream})
        _assert_success_or_one_json_error(code, err, bad, left, outputs)


class TestManifestChecks:
    def write_manifest(self, corpus, case):
        path = corpus / "manifest.json"
        if case == "not_json":
            path.write_text("{not json")
            return path
        record = json.loads(path.read_text())
        first = record["sequences"][0]  # c0_s0_v1, on the training side
        if case == "missing_key":
            del first["view_id"]
        elif case == "string_id_value":
            first["class_id"] = "0"
        elif case == "missing_depth_dir":
            del first["depth_dir"]
        path.write_text(json.dumps(record))
        return path

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing_key", "sequence 'c0_s0_v1' has no 'view_id'"),
            ("string_id_value", "sequence 'c0_s0_v1' needs an integer 'class_id' >= 0, got '0'"),
            ("missing_depth_dir", "sequence 'c0_s0_v1' has no 'depth_dir' in the manifest"),
            ("not_json", "is not JSON"),
        ],
        ids=["missing_key", "string_id_value", "missing_depth_dir", "not_json"],
    )
    def test_bad_manifest_exits_1(self, tmp_path, capsys, case, message):
        manifest = self.write_manifest(tiny_corpus(tmp_path), case)
        capsys.readouterr()
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(manifest), "--stream", "std",
                         "--roi-side", "16", "--train-views", "1,2", "--test-views", "3",
                         "--epochs", "2", "--model-out", str(model)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert message in payload["message"]
        if case != "missing_depth_dir":
            assert payload["message"].startswith(f"manifest {manifest}")
        assert not model.exists()
        assert not list(tmp_path.glob("*.config.json"))


    @pytest.mark.parametrize(
        "config",
        [None, {}, {"num_classes": "3"}, {"num_classes": 0}, {"num_classes": True},
         {"num_classes": 1}],
        ids=["no_config", "no_num_classes", "string", "zero", "bool", "one"],
    )
    def test_bad_num_classes_exits_1(self, tmp_path, capsys, monkeypatch, config):
        """The class count is checked before any video is read."""
        corpus = tiny_corpus(tmp_path)
        read = []
        monkeypatch.setattr(cli, "_load_video_dir", lambda *args: read.append(args))
        path = corpus / "manifest.json"
        record = json.loads(path.read_text())
        if config is None:
            del record["config"]
        else:
            record["config"] = config
        path.write_text(json.dumps(record))
        capsys.readouterr()
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(path), "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3",
                         "--epochs", "2", "--model-out", str(model)])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"manifest {path} needs an integer config.num_classes")
        assert read == []
        assert not model.exists()
        assert not list(tmp_path.glob("*.config.json"))


class TestConcatLengthMismatch:
    def blank_depth_frames(self, corpus, seq_id, count, side=32):
        for t in range(count):
            write_frame(np.zeros((1, side, side)), corpus / seq_id / "depth" / f"{t:04d}.pgm")

    def test_short_sequence_is_named(self, tmp_path, capsys):
        """With --pool concat, a video that keeps fewer than k frames gives
        a shorter vector; train and predict name it and both lengths."""
        corpus = tiny_corpus(tmp_path, frames=8, side=32)
        manifest = str(corpus / "manifest.json")
        train = ["train", "--manifest", manifest, "--stream", "std", "--pool", "concat",
                 "--k", "6", "--roi-side", "16", "--epochs", "2",
                 "--train-views", "1,2", "--test-views", "3"]
        self.blank_depth_frames(corpus, "c1_s1_v3", 4)  # 4 kept frames < k
        assert cli.main(train + ["--model-out", str(tmp_path / "model")]) == 0
        capsys.readouterr()
        code = cli.main(["predict", "--model", str(tmp_path / "model"), "--manifest", manifest,
                         "--views", "3", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "'c1_s1_v3'" in err["message"]
        assert "1024" in err["message"] and "1536" in err["message"]
        assert not (tmp_path / "s.csv").exists()

        self.blank_depth_frames(corpus, "c2_s0_v1", 5)
        assert cli.main(train + ["--model-out", str(tmp_path / "model2")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "'c2_s0_v1'" in err["message"]
        assert "768" in err["message"] and "1536" in err["message"]


class TestErrorHandling:
    def test_validation_error_exit_1(self, tmp_path, capsys):
        code = cli.main(["predict", "--model", str(tmp_path / "nope"),
                         "--manifest", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 2  # missing files surface as I/O errors
        err = json.loads(capsys.readouterr().err)
        assert "message" in err

    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch):
        """A request too large for memory ends in the JSON error, not a
        traceback (the allocation is simulated, never made)."""

        def too_large(cfg, class_id, subject_id, view_id):
            raise MemoryError("Unable to allocate 671. GiB for an array")

        monkeypatch.setattr(cli.synthgen, "_render_pair", too_large)
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(out), "--frame-side", "300000"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload == {"error": "MemoryError",
                           "message": "Unable to allocate 671. GiB for an array"}
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--learning-rate", "nan"],
            ["--learning-rate", "inf"],
            ["--learning-rate", "0"],
            ["--epsilon", "-1"],
            ["--epsilon", "nan"],
            ["--epsilon", "0"],
        ],
    )
    def test_bad_adam_hyperparameters_exit_1(self, tmp_path, capsys, monkeypatch, flags):
        """Adam's settings are checked before any video is read."""
        corpus = tiny_corpus(tmp_path)
        read = []
        monkeypatch.setattr(cli, "_load_video_dir", lambda *args: read.append(args))
        capsys.readouterr()
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model), *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{flags[0][2:].replace('-', '_')} must be finite and > 0")
        assert read == []
        assert not model.exists()
        assert not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("fraction", ["1.5", "-0.1", "nan"])
    def test_bad_val_fraction_exit_1(self, tmp_path, capsys, monkeypatch, fraction):
        """The validation fraction is checked before any video is read."""
        corpus = tiny_corpus(tmp_path)
        read = []
        monkeypatch.setattr(cli, "_load_video_dir", lambda *args: read.append(args))
        capsys.readouterr()
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model), "--val-fraction", fraction])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("val_fraction must lie in [0, 1)")
        assert read == []
        assert not model.exists()
        assert not list(tmp_path.glob("*.config.json"))

    def test_no_validation_split_writes_strict_json(self, tmp_path):
        """Without a validation split there is no best validation accuracy:
        model.json records null there and stays RFC 8259 JSON, with no NaN."""
        corpus = tiny_corpus(tmp_path)
        model = tmp_path / "model"
        assert cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", "motion",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model), "--val-fraction", "0"]) == 0

        def refuse(constant):
            raise ValueError(f"model.json holds {constant}")

        record = json.loads((model / "model.json").read_text(), parse_constant=refuse)
        assert record["best_val_accuracy"] is None

    @pytest.mark.parametrize("stream", ["motion", "std"])
    @pytest.mark.parametrize("flags", [["--k", "0"], ["--roi-side", "0"], ["--k", "-3"]],
                             ids=["k_0", "roi_side_0", "negative_k"])
    def test_bad_feature_settings_exit_1(self, tmp_path, capsys, monkeypatch, stream, flags):
        """The key-frame count and ROI side are checked before any video is
        read, whichever stream is trained, so no model records them."""
        corpus = tiny_corpus(tmp_path)
        read = []
        monkeypatch.setattr(cli, "_load_video_dir", lambda *args: read.append(args))
        capsys.readouterr()
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", stream,
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model), *flags])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        key = flags[0][2:].replace("-", "_")
        assert err["message"] == f"train needs a feature {key!r} >= 1, got {flags[1]}"
        assert read == []
        assert not model.exists()
        assert not list(tmp_path.rglob("*.config.json"))

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
    def test_bad_noise_sigma_exit_1(self, tmp_path, capsys, sigma):
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(out), "--noise-sigma", sigma]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("noise_sigma must be finite and >= 0")
        assert not out.exists()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--out", str(out), "--seed", "-1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError", "message": "seed must be >= 0, got -1"}
        assert not out.exists()

    def test_feature_error_names_the_sequence(self, tmp_path, capsys):
        """A video whose frames yield no feature is named; the error it
        raises keeps its text after the sequence id."""
        corpus = tiny_corpus(tmp_path, side=1)
        model = tmp_path / "model"
        code = cli.main(["train", "--manifest", str(corpus / "manifest.json"), "--stream", "std",
                         "--train-views", "1,2", "--test-views", "3", "--epochs", "2",
                         "--model-out", str(model)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ValueError",
                       "message": "sequence 'c0_s0_v1': all frames produced empty silhouettes"}
        assert not model.exists()

    def test_unknown_flag_exit_1(self, tmp_path, capsys):
        """An unknown flag, including the similarity constants and the pair
        pick, which keyframes does not take, is a JSON argument error."""
        kf = ["keyframes", "--video", str(tmp_path / "v"), "--out", str(tmp_path / "kf")]
        for argv in (
            ["synth", "--out", str(tmp_path / "x"), "--bogus-flag", "1"],
            kf + ["--alpha", "0.5"],
            kf + ["--pick", "second"],
        ):
            assert cli.main(argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError"
            assert err["message"].startswith("argument error: unrecognized arguments")
        assert not list(tmp_path.iterdir())

    def test_bad_mode_exit_1(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("sequence_id,label,score_0,score_1\na,0,0.5,0.5\n")
        code = cli.main(["fuse", "--scores", str(tmp_path / "s.csv"),
                         "--mode", "median", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "fusion mode" in json.loads(capsys.readouterr().err)["message"]

    def write_mismatched_scores(self, tmp_path):
        header = "sequence_id,label,score_0,score_1\n"
        (tmp_path / "a.csv").write_text(header + "a,0,0.25,0.75\nb,1,0.6,0.4\n")
        (tmp_path / "b.csv").write_text(header + "a,0,0.5,0.5\nb,0,0.5,0.5\n")
        return tmp_path / "a.csv", tmp_path / "b.csv"

    def test_fuse_names_the_disagreeing_file(self, tmp_path, capsys):
        first, second = self.write_mismatched_scores(tmp_path)
        out = tmp_path / "o.csv"
        code = cli.main(["fuse", "--scores", str(first), "--scores", str(second),
                         "--mode", "product", "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ValueError",
            "message": f"score file {second} disagrees with {first} on sequence ids or labels",
        }
        assert not out.exists() and not list(tmp_path.glob("*.config.json"))

    def test_eval_names_the_disagreeing_file(self, tmp_path, capsys):
        first, second = self.write_mismatched_scores(tmp_path)
        report = tmp_path / "report.json"
        code = cli.main(["eval", "--scores", f"motion={first}", "--scores", f"std={second}",
                         "--report-out", str(report)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "ValueError",
            "message": f"score file {second} disagrees with {first} on sequence ids or labels",
        }
        assert not report.exists() and not list(tmp_path.glob("*.config.json"))

    @pytest.mark.parametrize("command", ["fuse", "eval"])
    @pytest.mark.parametrize(
        "row, problem",
        [
            (b"b,1,nan,nan", "line 3 has a non-finite score"),
            (b"b,1,inf,0.0", "line 3 has a non-finite score"),
            (b"b,1,0.5", "line 3 has 3 fields, but its header has 4"),
            (b"b,1.0,0.5,0.5", "line 3 has a non-integer label '1.0'"),
            (b"\xff,1,0.5,0.5", "is not UTF-8 text"),
            (b"b,2,0.5,0.5", "line 3 has a label 2 outside [0, 2)"),
            (b"b,-1,0.5,0.5", "line 3 has a label -1 outside [0, 2)"),
        ],
        ids=["nan", "inf", "ragged", "non_integer_label", "not_utf8", "label_2", "label_minus_1"],
    )
    def test_bad_score_row_exits_1(self, tmp_path, capsys, command, row, problem):
        """A bad row, or a byte that is not UTF-8, is an error naming the
        file (and the line of a bad row), whichever position the file takes."""
        header = b"sequence_id,label,score_0,score_1\n"
        good = tmp_path / "good.csv"
        good.write_bytes(header + b"a,0,0.25,0.75\nb,1,0.6,0.4\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(header + b"a,0,0.25,0.75\n" + row + b"\n")
        out = tmp_path / "out"
        if command == "fuse":
            argv = ["fuse", "--scores", str(good), "--scores", str(bad), "--out", str(out)]
        else:
            argv = ["eval", "--scores", f"m={bad}", "--scores", f"s={good}",
                    "--report-out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload == {"error": "ValueError", "message": f"score file {bad} {problem}"}
        assert not out.exists() and not list(tmp_path.glob("*.config.json"))

    def test_eval_repeated_stream_name_exit_1(self, tmp_path, capsys):
        header = "sequence_id,label,score_0,score_1\n"
        (tmp_path / "x.csv").write_text(header + "a,0,0.25,0.75\nb,1,0.6,0.4\n")
        (tmp_path / "y.csv").write_text(header + "a,0,0.75,0.25\nb,1,0.4,0.6\n")
        report = tmp_path / "report.json"
        code = cli.main(["eval", "--scores", f"s={tmp_path / 'x.csv'}",
                         "--scores", f"s={tmp_path / 'y.csv'}", "--report-out", str(report)])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "--scores names stream 's' twice",
        }
        assert not report.exists() and not list(tmp_path.glob("*.config.json"))

    def test_fuse_single_stream_identity(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "sequence_id,label,score_0,score_1\na,0,0.25,0.75\nb,1,0.6,0.4\n"
        )
        out = tmp_path / "o.csv"
        assert cli.main(["fuse", "--scores", str(tmp_path / "s.csv"),
                         "--mode", "average", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("a,0,0.25,0.75")
