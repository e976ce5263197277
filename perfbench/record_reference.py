#!/usr/bin/env python3
"""Write perfbench/reference.json from the program in this checkout.

    python3 perfbench/record_reference.py

The reference holds what every measured run is checked against: the
report digest of each experiment workload, the RPT1 digest of every
``encode-di`` output, the ``rankpool-exact`` solution of every feature
file, and the per-pass counts of a traced pass (for information only).
Record it only from a commit whose outputs are known to be right; the
committed file was recorded from the seed commit, whose acceptance
criteria 9 and 10 pass with product accuracy 23/24.
"""

from __future__ import annotations

import json
import shutil
import sys
from fractions import Fraction

import run

FROZEN_PRODUCT_ACCURACY = Fraction(23, 24)


def motion_reference(workloads, workload, root) -> dict:
    workloads.build_inputs(workload, root)
    scratch = root / "out"
    scratch.mkdir()
    ref = {"encode_sha256": {}, "exact": {}}
    with workloads.quiet():
        for vid in workloads.video_ids(root):
            workloads.encode_di(root / "videos" / vid / "rgb", scratch / f"di_{vid}")
            ref["encode_sha256"][vid] = workloads.sha256(scratch / f"di_{vid}.rpt1")
        for fid in workloads.feature_ids(root):
            workloads.rankpool_exact(root / "features" / f"{fid}.rpt1", scratch / f"rank_{fid}.json")
            result = json.loads((scratch / f"rank_{fid}.json").read_text())
            if not result["converged"]:
                raise SystemExit(f"rankpool-exact did not converge on {fid}")
            ref["exact"][fid] = {k: result[k] for k in ("r", "final_objective", "iterations")}
    return ref


def traced_counts(workloads, workload, root) -> dict:
    from tracer import Tracer, summarize

    workloads.build_inputs(workload, root / "inputs")
    workloads.warm_up(workload, root / "inputs", root / "warmup")
    runner = workloads.Runner(workload, root / "inputs", seed=0)
    tracer = Tracer()
    with tracer.installed():
        if runner.job(root / "pass", span=tracer.span) is None:
            raise SystemExit(f"{workload.name}: traced pass failed: {runner.outcome.errors}")
    return run.exact_counts(summarize(tracer.spans, 0), tracer.counts)


def main() -> int:
    run.limit_blas_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    work = run.ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    reference = {"recorded_with": run.environment(), "tolerance": {
        "exact_r_rtol": workloads.EXACT_R_RTOL,
        "exact_objective_rtol": workloads.EXACT_OBJECTIVE_RTOL,
    }}
    try:
        for name, workload in workloads.WORKLOADS.items():
            if workload.kind != "experiment":
                continue
            with workloads.quiet():
                report = workloads.run_experiment(work / name, workload.roi_side, workload.subjects)
            entry = {"report_sha256": workloads.sha256(report)}
            accuracy = json.loads(report.read_text())["fusion"]["product"]["accuracy"]
            if name == "experiment_64":
                if accuracy != float(FROZEN_PRODUCT_ACCURACY):
                    raise SystemExit(f"experiment_64 product accuracy {accuracy}, expected 23/24")
                entry["product_accuracy"] = [23, 24]
            reference[name] = entry
        reference["probe"] = motion_reference(workloads, workloads.WORKLOADS["experiment_64"], work / "probe")
        reference["motion_long"] = motion_reference(workloads, workloads.WORKLOADS["motion_long"], work / "motion")
        workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        reference["counts"] = {
            name: traced_counts(workloads, workload, work / f"counts_{name}")
            for name, workload in workloads.WORKLOADS.items()
        }
        workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
