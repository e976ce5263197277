"""Subcommand wiring: exit codes, emitted files, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from dynafuse import cli, imgproc
from dynafuse.tensorio import (
    FeatureSequence,
    read_tensor,
    write_feature_sequence,
    write_frame,
)


def make_video_dir(path, frames, fmt="pgm"):
    path.mkdir(parents=True, exist_ok=True)
    for t, frame in enumerate(frames):
        write_frame(frame, path / f"{t:04d}.{fmt}", fmt)


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
        """A blank frame is reported, and the 5 kept frames cost 4 SSIMs."""
        frames = depth_frames()
        frames[2] = np.zeros((1, 24, 24))
        make_video_dir(tmp_path / "vid", frames)
        calls = []
        ssim = imgproc.ssim

        def counted(*args, **kwargs):
            calls.append(args)
            return ssim(*args, **kwargs)

        monkeypatch.setattr(imgproc, "ssim", counted)
        out = tmp_path / "kf"
        assert cli.main(["keyframes", "--video", str(tmp_path / "vid"),
                         "--k", "3", "--roi-side", "16", "--out", str(out)]) == 0
        _, meta = read_tensor(out.with_suffix(".rpt1"))
        assert meta["dropped_indices"] == [3]
        assert 3 not in meta["frame_indices"]
        assert "(1 dropped)" in capsys.readouterr().out
        assert len(calls) == 4
        rows = out.with_suffix(".csv").read_text().splitlines()
        assert sorted(int(r.split(",")[0]) for r in rows[1:]) == [1, 2, 3, 4]

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
        video = cli._load_video_dir(tmp_path / "vid")
        pooled = cli._std_feature(video, {"k": 4, "roi_side": 16, "pool": "concat"})
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

class TestConcatLengthMismatch:
    def blank_depth_frames(self, corpus, seq_id, count, side=32):
        for t in range(count):
            write_frame(np.zeros((1, side, side)),
                        corpus / seq_id / "depth" / f"{t:04d}.pgm", "pgm")

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

    def test_unknown_flag_exit_1(self, capsys):
        assert cli.main(["synth", "--out", "x", "--bogus-flag", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert "unrecognized" in err["message"]

    def test_bad_mode_exit_1(self, tmp_path, capsys):
        (tmp_path / "s.csv").write_text("sequence_id,label,score_0,score_1\na,0,0.5,0.5\n")
        code = cli.main(["fuse", "--scores", str(tmp_path / "s.csv"),
                         "--mode", "median", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "fusion mode" in json.loads(capsys.readouterr().err)["message"]

    def test_fuse_single_stream_identity(self, tmp_path):
        (tmp_path / "s.csv").write_text(
            "sequence_id,label,score_0,score_1\na,0,0.25,0.75\nb,1,0.6,0.4\n"
        )
        out = tmp_path / "o.csv"
        assert cli.main(["fuse", "--scores", str(tmp_path / "s.csv"),
                         "--mode", "average", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("a,0,0.25,0.75")
