"""The benchmark's workloads: their inputs, the timed job and the output checks.

Every workload runs one timed *job* per pass:

* ``experiment_64`` / ``experiment_227``: the whole synthetic experiment
  (synth, train both streams, predict both, eval) through
  ``cli.run_synthetic_experiment``.  Its report must equal the report
  recorded for the seed commit.
* ``motion_long``: one ``encode-di`` and one ``rankpool-exact`` call through
  ``cli.main`` for every long video.

In an untraced run the experiment workloads also run a *motion probe*
after each job (``encode-di`` three times on each of the 6 long videos,
``rankpool-exact`` once on the features of the first 32 frames of each)
so that every end-to-end metric exists on every workload.  The probe is
not part of ``experiment_s``.

Inputs are fixed: the correctness gates are digests recorded from the seed
commit.  The run seed only orders the operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from dynafuse import cli, synthgen, tensorio

CORPUS_SEED = 7
POOL_GRID = 8  # per-frame features: 8x8 mean-pooled RGB, d = 192
# the long RGB videos: 6 of 64 frames at 128 px
LONG_VIDEOS = synthgen.SynthConfig(
    subjects=2, views=1, frames_per_video=64, frame_side=128, seed=CORPUS_SEED
)
# The probe solves on the first 32 frames of each long video.  A solve on
# the 16-frame videos of the acceptance corpus is mostly interpreter
# overhead, and its latency spread across runs about twice as much as a
# solve on long features (the host's speed drifts); a solve on all 64
# frames takes about a second.
PROBE_FRAMES = 32
# rankpool-exact may drift by reordered sums, not by a different answer
EXACT_R_RTOL = 1e-3
EXACT_OBJECTIVE_RTOL = 1e-6
REFERENCE_PATH = Path(__file__).with_name("reference.json")
# every run measures at least this many passes
MIN_PASSES = 5
# How often the motion probe repeats each operation: three encode-di
# calls per video give 18 samples a pass, enough for a p88 tail
PROBE_ROUNDS = {"encode": 3, "exact": 1}
# glibc's malloc raises its mmap threshold to the size of each large
# mmapped block that is freed, up to 32 MiB
MMAP_THRESHOLD_MAX = 32 * 2**20


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "experiment" or "motion"
    roi_side: int = 0
    subjects: int = 8  # subjects per class in the experiment's corpus (CLI default 8)


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("experiment_64", "experiment", roi_side=64),
        Workload("experiment_227", "experiment", roi_side=227, subjects=3),
        Workload("motion_long", "motion"),
    )
}


def pooled_features(video: tensorio.VideoSequence, frames: int | None = None) -> tensorio.FeatureSequence:
    """Features of the first ``frames`` frames (all by default)."""
    stack = np.stack([f.data for f in video.frames[:frames]])  # (n, C, H, W)
    n, c, h, w = stack.shape
    g = POOL_GRID
    pooled = stack.reshape(n, c, g, h // g, g, w // g).mean(axis=(3, 5))
    return tensorio.FeatureSequence(
        vectors=pooled.reshape(n, -1),
        class_id=video.class_id,
        subject_id=video.subject_id,
        view_id=video.view_id,
    )


@contextlib.contextmanager
def quiet():
    """Send cli.main's terminal lines to a buffer so they are not timed."""
    with contextlib.redirect_stdout(io.StringIO()):
        yield


@contextlib.contextmanager
def synth_subjects(subjects: int):
    """Give the synth stage of run_synthetic_experiment ``--subjects``."""
    if subjects == 8:
        yield
        return
    original = cli.main

    def main(argv=None):
        if argv and argv[0] == "synth":
            argv = [*argv, "--subjects", str(subjects)]
        return original(argv)

    cli.main = main
    try:
        yield
    finally:
        cli.main = original


def run_experiment(workdir: Path, roi_side: int, subjects: int, epochs: int = 80) -> Path:
    with synth_subjects(subjects):
        return cli.run_synthetic_experiment(workdir, seed=CORPUS_SEED, roi_side=roi_side, epochs=epochs)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CheckError(Exception):
    """An operation's output differs from the recorded reference."""


# Whatever an operation raises counts as a failed operation, also the
# SystemExit of an argparse error inside cli.main.
OP_ERRORS = (Exception, SystemExit)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def build_inputs(workload: Workload, root: Path) -> None:
    """Write the long videos and the workload's feature files under ``root``.

    ``motion_long`` solves on the long videos' features, the experiment
    probe on those of their first ``PROBE_FRAMES`` frames.
    """
    pairs = synthgen.generate(LONG_VIDEOS)
    synthgen.write_corpus(pairs, root / "videos", LONG_VIDEOS)
    frames = PROBE_FRAMES if workload.kind == "experiment" else None
    features = root / "features"
    features.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        tensorio.write_feature_sequence(pooled_features(pair.rgb, frames), features / f"{pair.seq_id}.rpt1")
    # a short sequence for the warm-up solve
    short = pooled_features(pairs[0].rgb)
    tensorio.write_feature_sequence(
        tensorio.FeatureSequence(vectors=short.vectors[:8]), root / "warmup.rpt1"
    )


def video_ids(root: Path) -> list[str]:
    manifest = synthgen.load_manifest(root / "videos" / "manifest.json")
    return sorted(e["id"] for e in manifest["sequences"])


def feature_ids(root: Path) -> list[str]:
    return sorted(p.stem for p in (root / "features").glob("*.rpt1"))


def settle_allocator() -> None:
    """Put malloc into the state a long-lived process reaches at once.

    Until glibc has raised its mmap threshold, every frame-sized numpy
    array is a fresh mmap whose pages fault in on first touch.  In one
    process that changes after a few experiment passes: before it,
    encode-di ran ~1.7x slower, so a run's medians depended on how many
    passes it managed.  Freeing one block just under the cap raises the
    threshold to its final value now.
    """
    block = np.empty(MMAP_THRESHOLD_MAX - 2**20, dtype=np.uint8)
    del block


def warm_up(workload: Workload, root: Path, scratch: Path) -> None:
    """Pay lazy imports and first-call costs before anything is timed."""
    settle_allocator()
    scratch.mkdir(parents=True, exist_ok=True)
    with quiet():
        if workload.kind == "experiment":
            run_experiment(scratch / "pipeline", roi_side=32, subjects=2, epochs=2)
        first = video_ids(root)[0]
        encode_di(root / "videos" / first / "rgb", scratch / "di")
        rankpool_exact(root / "warmup.rpt1", scratch / "rank.json")


# ---------------------------------------------------------------------------
# Operations (each one cli.main call) and their checks
# ---------------------------------------------------------------------------


def _cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise CheckError(f"dynafuse {argv[0]} exited with {code}")


def encode_di(video_dir: Path, out_prefix: Path) -> float:
    start = perf_counter()
    _cli(["encode-di", "--video", str(video_dir), "--out", str(out_prefix)])
    return perf_counter() - start


def rankpool_exact(features: Path, out_json: Path) -> float:
    start = perf_counter()
    _cli(["rankpool-exact", "--features", str(features), "--out", str(out_json)])
    return perf_counter() - start


def check_encode(out_prefix: Path, expected_sha256: str) -> None:
    got = sha256(out_prefix.with_suffix(".rpt1"))
    if got != expected_sha256:
        raise CheckError(f"encode-di {out_prefix.name}: rpt1 sha256 {got} != {expected_sha256}")


def check_exact(out_json: Path, expected: dict) -> None:
    result = json.loads(out_json.read_text())
    if not result["converged"]:
        raise CheckError(f"rankpool-exact {out_json.name}: did not converge")
    r = np.asarray(result["r"])
    r_ref = np.asarray(expected["r"])
    r_err = float(np.linalg.norm(r - r_ref) / np.linalg.norm(r_ref))
    obj, obj_ref = result["final_objective"], expected["final_objective"]
    obj_err = abs(obj - obj_ref) / abs(obj_ref)
    if r.shape != r_ref.shape or r_err > EXACT_R_RTOL or obj_err > EXACT_OBJECTIVE_RTOL:
        raise CheckError(
            f"rankpool-exact {out_json.name}: r rel. error {r_err:.3g} "
            f"(limit {EXACT_R_RTOL}), objective rel. error {obj_err:.3g} "
            f"(limit {EXACT_OBJECTIVE_RTOL})"
        )


def check_report(workload: Workload, report: Path, reference: dict) -> None:
    expected = reference[workload.name]
    got = sha256(report)
    if got != expected["report_sha256"]:
        accuracy = json.loads(report.read_text())["fusion"]["product"]["accuracy"]
        raise CheckError(
            f"{workload.name}: report.json sha256 {got} != {expected['report_sha256']} "
            f"(product accuracy {accuracy})"
        )
    if "product_accuracy" in expected:
        num, den = expected["product_accuracy"]
        accuracy = json.loads(report.read_text())["fusion"]["product"]["accuracy"]
        if accuracy != num / den:
            raise CheckError(f"{workload.name}: product accuracy {accuracy} != {num}/{den}")


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{type(exc).__name__}: {exc}")


class Runner:
    """Runs passes of one workload against the inputs under ``root``."""

    def __init__(self, workload: Workload, root: Path, seed: int):
        self.workload = workload
        self.root = root
        self.rng = random.Random(seed)
        self.reference = load_reference()
        self.videos = video_ids(root)
        self.features = feature_ids(root)
        self.outcome = Outcome()
        self.encode_ms: list[float] = []
        self.exact_ms: list[float] = []

    def _refs(self) -> dict:
        key = "probe" if self.workload.kind == "experiment" else self.workload.name
        return self.reference[key]

    def rounds(self, kind: str) -> int:
        """How often a pass calls ``kind`` ("encode" or "exact") on each input."""
        return PROBE_ROUNDS[kind] if self.workload.kind == "experiment" else 1

    def ops_per_pass(self, kind: str) -> int:
        """How many ``kind`` samples one pass gives."""
        return self.rounds(kind) * len(self.videos if kind == "encode" else self.features)

    def job(self, passdir: Path, span=None) -> float | None:
        """The timed job of one pass; returns its wall time, or None on failure.

        ``span`` is the tracer's span context (or None when untraced); it
        wraps exactly the timed interval.
        """
        passdir.mkdir(parents=True)
        scope = span("bench.pass") if span else contextlib.nullcontext()
        if self.workload.kind == "experiment":
            self.outcome.attempted += 1
            try:
                with quiet(), scope:
                    start = perf_counter()
                    report = run_experiment(passdir, self.workload.roi_side, self.workload.subjects)
                    elapsed = perf_counter() - start
                check_report(self.workload, report, self.reference)
            except OP_ERRORS as exc:
                self.outcome.fail(exc)
                return None
            return elapsed
        return self._motion_ops(passdir, scope)

    def probe(self, passdir: Path) -> None:
        """The motion probe that follows an experiment job (untimed as experiment_s)."""
        passdir.mkdir(parents=True)
        self._motion_ops(passdir, contextlib.nullcontext())

    def _motion_ops(self, passdir: Path, scope) -> float | None:
        """Every encode-di call on the videos and rankpool-exact call on the
        feature files of one pass, in seed order."""
        refs = self._refs()
        ops = [("encode", v, k) for v in self.videos for k in range(self.rounds("encode"))]
        ops += [("exact", f, k) for f in self.features for k in range(self.rounds("exact"))]
        self.rng.shuffle(ops)
        done = []
        ok = True
        with quiet(), scope:
            start = perf_counter()
            for kind, item, k in ops:
                self.outcome.attempted += 1
                try:
                    if kind == "encode":
                        seconds = encode_di(self.root / "videos" / item / "rgb", passdir / f"di_{item}_{k}")
                    else:
                        seconds = rankpool_exact(
                            self.root / "features" / f"{item}.rpt1", passdir / f"rank_{item}_{k}.json"
                        )
                except OP_ERRORS as exc:
                    self.outcome.fail(exc)
                    ok = False
                    continue
                done.append((kind, item, k, seconds))
            elapsed = perf_counter() - start
        for kind, item, k, seconds in done:
            try:
                if kind == "encode":
                    check_encode(passdir / f"di_{item}_{k}", refs["encode_sha256"][item])
                else:
                    check_exact(passdir / f"rank_{item}_{k}.json", refs["exact"][item])
            except OP_ERRORS as exc:
                self.outcome.fail(exc)
                ok = False
                continue
            (self.encode_ms if kind == "encode" else self.exact_ms).append(seconds * 1e3)
        return elapsed if ok else None
