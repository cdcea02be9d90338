"""One campaign process of the benchmark: ``python -m repro run --spec`` with timing hooks.

``run.py`` starts this script in a fresh interpreter for every campaign::

    python3 perfbench/child.py --src SRC --spec SPEC --runs-dir DIR --out TIMINGS --trace 0|1

It imports ``repro`` from ``SRC`` (timing the import), wraps public calls of
the package from the outside, and then hands the argument vector to the real
entry point, ``repro.__main__.main(["--runs-dir", DIR, "run", "--spec", SPEC])``.
Nothing under ``src/`` is changed.

Untraced (``--trace 0``) only two calls are wrapped, each once per campaign:
``OperationalTestingLoop.run`` (its entry ends set-up) and ``StoredRun.finish``
(its return is the verdict).  Traced (``--trace 1``) every layer listed in
``LAYERS`` is wrapped as well; each call becomes a span (name, start, end,
parent, run id) kept in memory and written to TIMINGS when the campaign ends.
All times are ``time.perf_counter`` readings, which on Linux share the
system-wide monotonic clock with the parent process.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import uuid
from pathlib import Path

#: (span name, module, class or None, attribute, include subclass overrides).
#: A class entry with subclasses wraps every override of the attribute in the
#: class hierarchy, so a span exists whichever implementation a campaign uses.
LAYERS = (
    ("evaluation.make_scenario", "repro.evaluation.scenarios", None, "make_scenario", False),
    ("op.density", "repro.op.profile", "OperationalProfile", "density", True),
    ("sampling.select", "repro.sampling.samplers", "SeedSampler", "select", True),
    ("fuzzing.fuzz", "repro.fuzzing.fuzzer", "OperationalFuzzer", "fuzz", True),
    ("naturalness.score", "repro.naturalness.metrics", "NaturalnessScorer", "score", True),
    ("engine.predict_proba", "repro.engine.batching", "BatchedQueryEngine", "predict_proba", True),
    ("engine.loss_input_gradient", "repro.engine.batching", "BatchedQueryEngine",
     "loss_input_gradient", True),
    ("engine.score_naturalness", "repro.engine.batching", "BatchedQueryEngine",
     "score_naturalness", True),
    ("nn.forward", "repro.nn.network", "Sequential", "forward", True),
    ("nn.backward", "repro.nn.network", "Sequential", "backward", True),
    ("nn.optimizer.step", "repro.nn.optimizers", "Optimizer", "step", True),
    ("nn.trainer.fit", "repro.nn.trainer", "Trainer", "fit", True),
    ("retraining.retrain", "repro.retraining.adversarial_training", "OperationalRetrainer",
     "retrain", True),
    ("reliability.assess", "repro.reliability.assessment", "ReliabilityAssessor", "assess", True),
    ("reliability.cells.evaluate", "repro.reliability.cells", "CellRobustnessEvaluator",
     "evaluate", True),
    ("reliability.bayes.upper_bounds", "repro.reliability.bayesian", "BayesianCellModel",
     "posterior_upper_bounds", True),
    ("store.checkpoint.save", "repro.store.checkpoint", "Checkpointer", "save", True),
    ("store.registry.write", "repro.store.registry", "StoredRun", "save_report", False),
    ("store.registry.write", "repro.store.registry", "StoredRun", "save_detections", False),
    ("store.registry.write", "repro.store.registry", "StoredRun", "save_stats", False),
    ("store.registry.write", "repro.store.registry", "StoredRun", "save_estimates", False),
)


class Tracer:
    """In-memory span recorder with a parent stack (one campaign, one thread)."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a super() call into the same layer is part of the outer span,
            # so calls and rows are not counted twice
            if self._stack and self.spans[self._stack[-1]]["name"] == name:
                return fn(*args, **kwargs)
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "run_id": self.run_id,
            }
            if name == "op.density":
                # density(self, x): rows of x, summed into op.density.rows
                span["rows"] = len(args[1])
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced


def _hierarchy(cls) -> list:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in found:
            found.append(current)
            todo.extend(current.__subclasses__())
    return found


def install_layers(tracer: Tracer) -> int:
    """Wrap every ``LAYERS`` entry; returns the number of functions wrapped."""
    import importlib

    wrapped = 0
    for name, module_name, class_name, attr, subclasses in LAYERS:
        module = importlib.import_module(module_name)
        if class_name is None:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
            wrapped += 1
            continue
        root = getattr(module, class_name)
        for cls in _hierarchy(root) if subclasses else [root]:
            if attr in vars(cls):
                setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
                wrapped += 1
    return wrapped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--runs-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import repro

    import_s = time.perf_counter() - t0
    import repro.__main__
    from repro.core.workflow import OperationalTestingLoop
    from repro.store.registry import StoredRun

    if not str(Path(repro.__file__).resolve()).startswith(src):
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")

    marks: dict = {}
    tracer = Tracer(uuid.uuid4().hex[:12])
    wrapped = install_layers(tracer) if args.trace else 0

    loop_run = OperationalTestingLoop.run

    @functools.wraps(loop_run)
    def run(*a, **kw):
        marks.setdefault("loop_run_entry", time.perf_counter())
        return loop_run(*a, **kw)

    finish = StoredRun.finish
    finish_impl = tracer.wrap("store.registry.write", finish) if args.trace else finish

    @functools.wraps(finish)
    def finished(*a, **kw):
        try:
            return finish_impl(*a, **kw)
        finally:
            marks["finish_return"] = time.perf_counter()

    OperationalTestingLoop.run = run
    StoredRun.finish = finished

    status = repro.__main__.main(["--runs-dir", args.runs_dir, "run", "--spec", args.spec])
    timings = {
        "import_s": import_s,
        "loop_run_entry": marks.get("loop_run_entry"),
        "finish_return": marks.get("finish_return"),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wrapped_functions": wrapped + (1 if args.trace else 0),
        "spans": tracer.spans,
    }
    Path(args.out).write_text(json.dumps(timings))
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())
