#!/usr/bin/env python3
"""dynafuse benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload experiment_64 --seed 1 --seconds 54 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` prints every end-to-end metric of BENCHMARK.json,
``--trace 1`` every per-layer metric from a separate traced run.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run,
with the environment, goes to ``.bench_results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import gzip
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3


def limit_blas_threads() -> int:
    """Never let BLAS use more threads than the cores this process may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    return cores


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> int | None:
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least 10 of ``min_samples`` beyond it."""
    return max(0, math.floor(100 * (min_samples - 10) / min_samples))


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# Set-up: several fresh interpreters, each importing, writing the inputs and
# warming up
# ---------------------------------------------------------------------------


def setup_child(workload_name: str, directory: Path) -> int:
    start = perf_counter()
    import workloads

    imported = perf_counter()
    workload = workloads.WORKLOADS[workload_name]
    workloads.build_inputs(workload, directory)
    built = perf_counter()
    workloads.warm_up(workload, directory, directory / "warmup")
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported, "warmup_s": done - built}))
    return 0


def run_setup(workload_name: str, directory: Path) -> tuple[float, dict]:
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-child",
         "--workload", workload_name, "--dir", str(directory)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Measured runs
# ---------------------------------------------------------------------------


def untraced_run(runner, seconds: float, work: Path) -> dict:
    from workloads import MIN_PASSES

    pass_s = []
    start = perf_counter()
    longest = 0.0
    index = 0
    while True:
        gc.collect()
        began = perf_counter()
        elapsed = runner.job(work / f"pass{index}")
        if elapsed is not None:
            pass_s.append(elapsed)
        if runner.workload.kind == "experiment":
            runner.probe(work / f"probe{index}")
        index += 1
        longest = max(longest, perf_counter() - began)
        if index >= MIN_PASSES and perf_counter() - start + longest > seconds:
            break
    return {"pass_s": pass_s, "passes": index}


def traced_run(runner, seconds: float, work: Path) -> dict:
    """Alternate untraced (U) and traced (T) passes, U T T U U T T U ...

    At least one full U T T U cycle runs, so the first pass after the
    warm-up is not the only untraced one.
    """
    from tracer import Tracer, summarize
    from workloads import MIN_PASSES

    tracer = Tracer()
    untraced, traced, summaries, counts = [], [], [], []
    start = perf_counter()
    longest = 0.0
    index = 0
    while True:
        gc.collect()
        began = perf_counter()
        passdir = work / f"pass{index}"
        if index % 4 in (1, 2):
            root = len(tracer.spans)
            tracer.counts = Counter()
            with tracer.installed():
                elapsed = runner.job(passdir, span=tracer.span)
            if elapsed is not None:
                traced.append(elapsed)
                summaries.append(summarize(tracer.spans, root))
                counts.append(tracer.counts)
        else:
            elapsed = runner.job(passdir)
            if elapsed is not None:
                untraced.append(elapsed)
        index += 1
        longest = max(longest, perf_counter() - began)
        if index >= max(MIN_PASSES, 4) and perf_counter() - start + longest > seconds:
            break
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "summaries": summaries,
        "counts": counts,
        "spans": tracer.spans,
        "passes": index,
    }


COUNTED = {
    "synthgen.frames_written",
    "tensorio.bytes_read",
    "tensorio.bytes_written",
    "keyframe.dropped_frames",
    "rankpool.exact_rank_pool.iterations",
    "learn.train.adam_steps",
}
MODULE_NAMES = {"cli", "synthgen", "tensorio", "imgproc", "keyframe", "rankpool", "learn", "fusion_eval"}


def layer_value(name: str, summary: dict, counts: Counter) -> float:
    """One per-layer metric of one traced pass."""
    names = summary["names"]
    if name in COUNTED:
        return counts[name]
    if name == "imgproc.ssim.mpix":
        return counts["imgproc.ssim.pixels"] / 1e6
    if name == "rankpool.exact_rank_pool.converged_frac":
        calls = names.get("rankpool.exact_rank_pool", {}).get("calls", 0)
        return counts["rankpool.exact_rank_pool.converged"] / calls if calls else 0.0
    if name == "trace.coverage_frac":
        return summary["coverage_frac"]
    prefix, _, field = name.rpartition(".")
    if field == "self_s" and prefix in MODULE_NAMES:
        return summary["module_self_s"].get(prefix, 0.0)
    if field in ("calls", "s", "self_s"):
        return names.get(prefix, {}).get(field, 0)
    raise KeyError(f"no rule for per-layer metric {name!r}")


def exact_counts(summary: dict, counts: Counter) -> dict:
    """Everything that must repeat exactly from one traced pass to the next."""
    calls = {f"{n}.calls": e["calls"] for n, e in summary["names"].items()}
    return {**calls, **counts}


def layer_values(run: dict, wanted: list, seed_counts, notes: list, details: dict) -> tuple[dict, bool]:
    """Per-layer metrics (medians over traced passes) and whether counts repeated."""
    summaries, counts, traced = run["summaries"], run["counts"], run["traced_s"]
    if len(summaries) < 2 or not run["untraced_s"]:
        notes.append("too few successful passes to report per-layer metrics")
        return {}, False
    untraced = statistics.median(run["untraced_s"])
    values = {"trace.overhead_frac": statistics.median(traced) / untraced - 1.0}
    for metric in wanted:
        if metric["name"] not in values:
            values[metric["name"]] = statistics.median(
                layer_value(metric["name"], s, c) for s, c in zip(summaries, counts)
            )
    first = exact_counts(summaries[0], counts[0])
    drift = set()
    for summary, count in zip(summaries[1:], counts[1:]):
        other = exact_counts(summary, count)
        drift |= {k for k in first.keys() | other.keys() if first.get(k) != other.get(k)}
    drift = sorted(drift)
    if drift:
        notes.append(f"counts did not repeat exactly across traced passes: {drift}")
    complete = wrapping_complete(summaries[0], counts[0], notes)
    if seed_counts is not None:
        notes.append(f"counts equal to the seed commit's: {first == seed_counts}")
    notes.append(
        f"traced pass {statistics.median(traced):.3f} s (untraced {untraced:.3f} s); "
        f"self times cover {values['trace.coverage_frac']:.4%} of it"
    )
    details.update(counts=first, traced_s=traced, untraced_s=run["untraced_s"])
    return values, not drift and complete


def wrapping_complete(summary: dict, counts: Counter, notes: list) -> bool:
    """Check that frame writes are traced under every lookup name.

    ``synthgen.write_corpus`` writes its frames through its own
    ``write_frame`` binding; a frame written through an unpatched name
    would be missing from ``tensorio.write_frame.calls`` (its time would
    move into ``synthgen.self_s``, which no coverage sum can show).
    """
    names = summary["names"]
    written = counts["synthgen.frames_written"]
    calls = names.get("tensorio.write_frame", {}).get("calls", 0)
    if "cli.synth" in names and not names.get("synthgen.write_corpus"):
        notes.append("tracing incomplete: the synth stage ran but synthgen.write_corpus was not traced")
        return False
    if calls < written:
        notes.append(f"tracing incomplete: {calls} tensorio.write_frame spans for {written} frames written")
        return False
    return True


def end_to_end_values(run: dict, runner, setup: list, notes: list, details: dict) -> dict:
    from workloads import MIN_PASSES

    values = {
        "setup_s": statistics.median(s for s, _ in setup),
        "experiment_s": statistics.median(run["pass_s"]) if run["pass_s"] else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for op, samples in (("encode_ms", runner.encode_ms), ("exact_ms", runner.exact_ms)):
        p = tail_percentile(MIN_PASSES * runner.ops_per_pass(op.removesuffix("_ms")))
        values[f"{op}.p50"] = statistics.median(samples) if samples else 0.0
        values[f"{op}.tail"] = percentile(samples, p) if samples else 0.0
        notes.append(f"{op}.tail is p{p} of {len(samples)} samples")
        details[op] = samples
    details["pass_s"] = run["pass_s"]
    return values


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dynafuse" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no dynafuse sources under {ROOT / 'src'}\n")
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_child:
        return setup_child(args.workload, args.dir)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        # Nothing under ``work`` is deleted before the run ends: on ext4,
        # files created soon after others were deleted take several times
        # longer to write, and that would be timed as the program's cost.
        setup = [run_setup(workload.name, work / "inputs")]
        for i in range(1, SETUP_SAMPLES):
            setup.append(run_setup(workload.name, work / f"setup{i}"))
        workloads.warm_up(workload, work / "inputs", work / "warmup")
        runner = workloads.Runner(workload, work / "inputs", args.seed)
        measure = traced_run if args.trace else untraced_run
        run = measure(runner, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = runner.outcome

    notes = []
    details = {"setup": [{"wall_s": s, **parts} for s, parts in setup], "passes": run["passes"]}
    correct = outcome.failed == 0
    if args.trace:
        seed_counts = runner.reference.get("counts", {}).get(workload.name)
        values, repeated = layer_values(run, wanted, seed_counts, notes, details)
        correct = correct and repeated
    else:
        values = end_to_end_values(run, runner, setup, notes, details)
    notes.extend(f"failed: {e}" for e in outcome.errors[:10])

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    env = environment()
    lines = [
        f"environment: {json.dumps(env)}",
        f"workload {workload.name}, seed {args.seed}, {run['passes']} passes, failed_frac "
        f"{outcome.failed}/{outcome.attempted} = {outcome.failed / max(outcome.attempted, 1):.4f}",
        *notes,
        *(f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()),
    ]
    result = {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}

    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    record = {"args": {k: v for k, v in vars(args).items() if k != "dir"}, "environment": env, "result": result, "details": details}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        with gzip.open(out / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"format": ["name", "parent", "start_s", "end_s"], "spans": run["spans"]}, fh)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
