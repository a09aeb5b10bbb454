"""In-memory spans around the public functions of each stablesub module.

`install` wraps every public function of the package at each module-level name
that refers to it, so a caller's global lookup (for example
`stablesub.experiments.sample_path_values` or
`stablesub.reporting.run_moment_check`) reaches the wrapper.  Each call
becomes a span (id, parent, name, start, end, counts); spans stay in memory
until the run ends.  Pool tasks run under `_traced_task`, which sends the
spans a worker recorded back with the task's result, so sampler work inside
`ProcessPoolExecutor` workers is measured too.

`layer_metrics` turns spans into the per-layer numbers: a span's self time is
its duration minus the part of its interval that its child spans cover.

Recompute the metrics from a span file written by `write_spans`:

    python3 perfbench/tracing.py .perfbench/spans-acceptance_w1.jsonl
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

import numpy as np

# Module -> layer.  `config` is argument and config handling, so it shares the
# `cli` layer.
LAYER_OF_MODULE = {
    "subordinator": "subordinator",
    "integrals": "integrals",
    "experiments": "experiments",
    "special": "special",
    "reporting": "reporting",
    "config": "cli",
    "cli": "cli",
}
MODULES = tuple(LAYER_OF_MODULE)

# Integrals time counts as batch work under these entry points, as per-path
# work under every other one.
BATCH_SUMS = {"integrals.power_bracket_sums", "integrals.exp_bracket_sums"}
REDUCTIONS = {"experiments.MomentEstimate.from_samples", "experiments.ks_distance"}
SERIALIZERS = {"reporting.record_to_json", "reporting.write_record", "reporting.emit_plot_data"}
POOL_SPAN = "experiments.ProcessPoolExecutor"
# Layer times that, in a single process, add up to the root span's duration.
PARTITION = (
    "subordinator.busy_s",
    "integrals.batch_busy_s",
    "integrals.path_busy_s",
    "experiments.self_s",
    "special.busy_s",
    "reporting.self_s",
    "cli.self_s",
)
ROOT_SPAN = "cli.main"

# The tracer of this process.  Pool workers started by fork find the inherited
# tracer here; a worker started another way installs its own.
_TRACER = None


class Tracer:
    """Span recorder for one process; ids carry the pid so workers never clash."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self._adopt(os.getpid())

    def _adopt(self, pid: int) -> None:
        self.pid = pid
        self._next_id = pid << 32

    def begin(self, name: str) -> tuple:
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        self.stack.append(self._next_id)
        return (self._next_id, parent, name, time.perf_counter())

    def end(self, token: tuple, count=None, call=()) -> None:
        """Close a span; `count(*call)` runs after the end time is taken."""
        end = time.perf_counter()
        self.stack.pop()
        self.spans.append(token + (end, count(*call) if count else None))


def _draws(fn):
    """Stable draws a sampler call makes, computed from its arguments."""
    signature = inspect.signature(fn)
    per_call = {
        "sample_path_values": lambda a: int(a["n_paths"]) * len(a["grid"]),
        "sample_path": lambda a: len(a["grid"]),
        "sample_standard_stable_batch": lambda a: int(a["size"]),
        "sample_standard_stable": lambda a: 1,
    }.get(fn.__name__)
    if per_call is None:
        return None
    return lambda args, kwargs, result: {"draws": per_call(signature.bind(*args, **kwargs).arguments)}


def _bracket_counts(args, kwargs, result):
    """How many returned brackets are on log scale and how many are not finite."""
    if isinstance(result, tuple):  # batched (lower, upper) rows
        lower, upper = (np.asarray(side) for side in result)
        bad = ~(np.isfinite(lower) & np.isfinite(upper))
        return {"log_scale": 0, "nonfinite": int(np.count_nonzero(bad))}
    if hasattr(result, "log_scale"):
        finite = math.isfinite(result.lower) and math.isfinite(result.upper)
        return {"log_scale": int(result.log_scale), "nonfinite": int(not finite)}
    return {"log_scale": 0, "nonfinite": int(not math.isfinite(result))}


def _wrap(tracer: Tracer, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(token)
            raise
        tracer.end(token, count, (args, kwargs, result))
        return result

    return traced


def _traced_pool(tracer: Tracer, base):
    """Subclass of the pool class: one span per pool, worker spans merged back."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._span = tracer.begin(POOL_SPAN)

        def map(self, fn, *iterables, **kwargs):
            task = functools.partial(_traced_task, fn, self._span[0])
            return (self._merge(*pair) for pair in super().map(task, *iterables, **kwargs))

        def _merge(self, result, spans):
            tracer.spans.extend(spans)
            return result

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.end(self._span)

    return TracedPool


def _traced_task(fn, parent: int, args):
    """Run one pool task in a worker; return its result and the spans it made."""
    tracer = _TRACER if _TRACER is not None else install("worker")
    if tracer.pid != os.getpid():
        tracer._adopt(os.getpid())
        tracer.spans = []
    mark = len(tracer.spans)
    tracer.stack = [parent]
    token = tracer.begin(f"experiments.{fn.__name__}")
    try:
        result = fn(args)
    finally:
        tracer.end(token)
    spans = tracer.spans[mark:]
    del tracer.spans[mark:]
    return result, spans


def install(run_id: str) -> Tracer:
    """Wrap the public functions of every stablesub module; return the tracer."""
    global _TRACER
    import importlib

    package = importlib.import_module("stablesub")
    modules = {name: importlib.import_module(f"stablesub.{name}") for name in MODULES}
    tracer = Tracer(run_id)
    replacements = {}
    for short, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                count = _draws(fn) if short == "subordinator" else None
                if short == "integrals":
                    count = _bracket_counts
                replacements[id(fn)] = _wrap(tracer, f"{short}.{attr}", fn, count)
    for namespace in [package, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if id(value) in replacements:
                setattr(namespace, attr, replacements[id(value)])

    experiments = modules["experiments"]
    estimate = experiments.MomentEstimate
    estimate.from_samples = classmethod(
        _wrap(tracer, "experiments.MomentEstimate.from_samples", estimate.from_samples.__func__, None)
    )
    experiments.ProcessPoolExecutor = _traced_pool(tracer, experiments.ProcessPoolExecutor)
    _TRACER = tracer
    return tracer


# --------------------------------------------------------------------------
# span files and per-layer metrics

FIELDS = ("id", "parent", "name", "start", "end", "counts")


def write_spans(path: str, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"run_id": tracer.run_id, "fields": FIELDS}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [tuple(json.loads(line)) for line in fh]


def layer_of(name: str) -> str:
    return LAYER_OF_MODULE[name.split(".", 1)[0]]


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals in it."""
    children: dict = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    result = {}
    for sid, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[sid] = (end - start) - covered
    return result


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced CLI invocation (names as in BENCHMARK.json)."""
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)
    entry_of: dict = {}

    def entry(span):
        """The outermost span of the same layer that this span runs inside."""
        sid = span[0]
        if sid not in entry_of:
            parent = by_id.get(span[1])
            same = parent is not None and layer_of(parent[2]) == layer_of(span[2])
            entry_of[sid] = entry(parent) if same else span
        return entry_of[sid]

    sums: dict = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for span in spans:
        sid, _, name, _, _, counts = span
        layer = layer_of(name)
        add(f"{layer}.self_s", own[sid])
        top = entry(span)
        if name in REDUCTIONS:
            add("experiments.reduce_s", own[sid])
        if name in SERIALIZERS:
            add("reporting.serialize_s", own[sid])
        if name == POOL_SPAN:
            add("experiments.pool_starts", 1)
        if layer == "integrals":
            add("integrals.batch_busy_s" if top[2] in BATCH_SUMS else "integrals.path_busy_s", own[sid])
        if top is span:
            add(f"{layer}.calls", 1)
            for key, value in (counts or {}).items():
                add(f"{layer}.{key}", value)

    draws = sums.get("subordinator.draws", 0)
    busy = sums.get("subordinator.self_s", 0.0)
    return {
        "subordinator.busy_s": busy,
        "subordinator.calls": sums.get("subordinator.calls", 0),
        "subordinator.draws": draws,
        "subordinator.ns_per_draw": busy / draws * 1e9 if draws else 0.0,
        "integrals.batch_busy_s": sums.get("integrals.batch_busy_s", 0.0),
        "integrals.path_busy_s": sums.get("integrals.path_busy_s", 0.0),
        "integrals.calls": sums.get("integrals.calls", 0),
        "integrals.log_scale_results": sums.get("integrals.log_scale", 0),
        "integrals.nonfinite_results": sums.get("integrals.nonfinite", 0),
        "experiments.self_s": sums.get("experiments.self_s", 0.0),
        "experiments.reduce_s": sums.get("experiments.reduce_s", 0.0),
        "experiments.pool_starts": sums.get("experiments.pool_starts", 0),
        "special.busy_s": sums.get("special.self_s", 0.0),
        "special.calls": sums.get("special.calls", 0),
        "reporting.self_s": sums.get("reporting.self_s", 0.0),
        "reporting.serialize_s": sums.get("reporting.serialize_s", 0.0),
        "cli.self_s": sums.get("cli.self_s", 0.0),
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 perfbench/tracing.py SPANS_FILE")
    print(json.dumps(layer_metrics(read_spans(sys.argv[1])), indent=2, sort_keys=True))
