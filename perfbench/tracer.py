"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the seven library modules and
the ``cli.main`` entry point, from outside the program.  A function is
patched under every name it is looked up by: ``synthgen`` binds
``write_frame`` and ``learn`` binds ``read_tensor``/``write_tensor`` with
``from .tensorio import ...``, so those module attributes are replaced
too, not just ``tensorio.*``.

A span is ``[name, parent index, start, end]``.  Spans stay in a list in
memory until the run ends; the parent index gives every span's self time
(its duration minus the time its direct children cover).  Counters that
the metrics need (pixels compared by SSIM, Adam steps, bytes through the
RPT1/PNM readers and writers, ...) are computed at the same boundaries
from each call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("synthgen", "tensorio", "imgproc", "keyframe", "rankpool", "learn", "fusion_eval")


# ---------------------------------------------------------------------------
# Counters: (counts, bound arguments, result) -> None, keyed by span name
# ---------------------------------------------------------------------------


def _plane_pixels(image) -> int:
    shape = getattr(getattr(image, "data", image), "shape")
    return int(shape[-2]) * int(shape[-1])


def _count_ssim(counts, args, result):
    counts["imgproc.ssim.pixels"] += _plane_pixels(args["f1"])


def _count_train(counts, args, result):
    n = len(args["features"])
    cfg = args["cfg"]
    n_val = min(int(round(n * args["val_fraction"])), n - 1)
    counts["learn.train.adam_steps"] += cfg.epochs * math.ceil((n - n_val) / cfg.batch_size)


def _count_exact(counts, args, result):
    counts["rankpool.exact_rank_pool.iterations"] += result.iterations
    counts["rankpool.exact_rank_pool.converged"] += int(result.converged)


def _count_preprocess(counts, args, result):
    counts["keyframe.dropped_frames"] += len(result[1])


def _count_write_corpus(counts, args, result):
    counts["synthgen.frames_written"] += sum(len(p.rgb) + len(p.depth) for p in args["pairs"])


def _count_bytes(key):
    def count(counts, args, result):
        counts[key] += os.stat(args["path"]).st_size

    return count


COUNTERS = {
    "imgproc.ssim": _count_ssim,
    "learn.train": _count_train,
    "rankpool.exact_rank_pool": _count_exact,
    "keyframe.preprocess_video": _count_preprocess,
    "synthgen.write_corpus": _count_write_corpus,
    "tensorio.read_frame": _count_bytes("tensorio.bytes_read"),
    "tensorio.read_tensor": _count_bytes("tensorio.bytes_read"),
    "tensorio.write_frame": _count_bytes("tensorio.bytes_written"),
    "tensorio.write_tensor": _count_bytes("tensorio.bytes_written"),
}


def _option(argv, flag):
    for i, item in enumerate(argv[:-1]):
        if item == flag:
            return argv[i + 1]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._model_stream = "motion"
        self._patches = self._plan()

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> list:
        span = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[3] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)
        if name == "learn.load_model":
            count = self._note_model_stream

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
            return result

        return traced

    def _note_model_stream(self, counts, args, result):
        # predict learns its stream from the model sidecar, so its stage
        # span is named only once learn.load_model has returned
        self._model_stream = result[1].get("stream", "motion")

    def _wrap_cli_main(self, main):
        """One span per subcommand call, named after the pipeline stage."""

        @functools.wraps(main)
        def traced(argv=None):
            argv = list(argv or [])
            command = argv[0].replace("-", "_") if argv else "none"
            if command == "train":
                command = f"train_{_option(argv, '--stream')}"
            span = self._begin(f"cli.{command}")
            try:
                return main(argv)
            finally:
                self._end(span)
                if command == "predict":
                    span[0] = f"cli.predict_{self._model_stream}"

        return traced

    # -- patching ----------------------------------------------------------

    def _plan(self):
        package = importlib.import_module("dynafuse")
        modules = {m: importlib.import_module(f"dynafuse.{m}") for m in MODULES + ("cli",)}
        wrapped = {}
        for short in MODULES:
            module = modules[short]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        cli_main = modules["cli"].main
        wrapped[id(cli_main)] = (cli_main, self._wrap_cli_main(cli_main))
        patches = []
        for namespace in (package, *modules.values()):
            for attr, obj in vars(namespace).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((namespace, attr, obj, hit[1]))
        return patches

    @contextmanager
    def installed(self):
        """Patch every lookup name for the duration of the block."""
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original, _ in self._patches:
                setattr(namespace, attr, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def summarize(spans: list[list], root: int) -> dict:
    """Per-name calls, busy time and self time for the tree under ``root``.

    Busy time ``s`` counts only the outermost span of a name on any path,
    so a function that re-enters itself is not counted twice.
    """
    covered = Counter()
    for index in range(root + 1, len(spans)):
        _, parent, start, end = spans[index]
        covered[parent] += end - start
    names: dict = {}
    modules = Counter()
    total_self = 0.0
    for index in range(root + 1, len(spans)):
        name, parent, start, end = spans[index]
        self_time = end - start - covered[index]
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_time
        modules[name.split(".", 1)[0]] += self_time
        total_self += self_time
        ancestor = parent
        while ancestor > root and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor <= root:
            entry["s"] += end - start
    _, _, start, end = spans[root]
    return {
        "names": names,
        "module_self_s": dict(modules),
        "wall_s": end - start,
        "coverage_frac": total_self / (end - start),
    }
