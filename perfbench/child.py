"""One measured stablesub invocation, in the fresh process that runs this file.

    python3 perfbench/child.py cli RESULT.json [--spans SPANS.jsonl RUN_ID] -- CLI ARGS...
    python3 perfbench/child.py micro RESULT.json SEED

`cli` imports `stablesub.cli` (set-up, not timed), then calls its `main` once
and writes wall time from CLI entry to exit, CPU time of this process and its
pool workers, peak RSS, exit status, verdicts and the digest of
`comparable_record_json`.  With `--spans` the public functions of every
module are traced and the per-layer metrics are added.

`micro` times the sampler stages at batch shape 4096 x 41, alpha = 0.5, and
the start, first task and shutdown of a 2-worker pool.

`src` must be on PYTHONPATH; `perfbench/run.py` sets it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import stablesub
import stablesub.cli
from stablesub.reporting import comparable_record_json

import tracing

MICRO_PATHS = 4096
MICRO_LEVELS = 40  # 41 grid points
MICRO_REPEATS = 15
POOL_REPEATS = 7


def versions() -> dict:
    return {
        "stablesub": stablesub.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mp_start_method": multiprocessing.get_context().get_start_method(),
    }


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def run_cli(argv: list[str], spans_path: str | None, run_id: str | None) -> dict:
    tracer = tracing.install(run_id) if spans_path else None
    stdout = io.StringIO()
    error = None
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    root = tracer.begin(tracing.ROOT_SPAN) if tracer else None
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        try:
            stablesub.cli.main(args=argv, prog_name="stablesub")
            code = 0
        except SystemExit as exc:
            code = _exit_code(exc)
        except Exception:  # a crash is a measured outcome, not a harness error
            code, error = -1, traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(
        getattr(after, field) - getattr(before, field)
        for before, after in ((self0, self1), (kids0, kids1))
        for field in ("ru_utime", "ru_stime")
    )
    result = {
        "exit_code": code,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "versions": versions(),
    }
    if tracer:
        spans = list(tracer.spans)
        result["layers"] = tracing.layer_metrics(spans)
        result["spans"] = len(spans)
        tracing.write_spans(spans_path, tracer)

    text = stdout.getvalue()
    written = len(text.encode("utf-8"))
    if "--out" in argv:
        stem = Path(argv[argv.index("--out") + 1])
        written += sum(path.stat().st_size for path in stem.parent.iterdir())
        record_path = stem.with_suffix(".json")
        text = record_path.read_text(encoding="utf-8") if record_path.exists() else ""
    result["bytes_written"] = written
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = None
    if isinstance(record, dict):
        result["verdicts"] = record.get("verdicts", {})
        digest = hashlib.sha256(comparable_record_json(text).encode("utf-8"))
        result["digest"] = digest.hexdigest()
    else:
        result["verdicts"], result["digest"] = {}, None
    return result


def _median_seconds(fn, repeats: int) -> float:
    fn(0)  # warm-up: first-touch page faults and lazy imports
    times = []
    for i in range(1, repeats + 1):
        start = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_micro(seed: int) -> dict:
    from stablesub import experiments
    from stablesub.subordinator import (
        SeedSpec,
        StableParams,
        TimeGrid,
        sample_path_values,
        sample_standard_stable_batch,
    )

    params = StableParams(0.5)
    grid = TimeGrid.geometric(1.0, MICRO_LEVELS)
    shape = (MICRO_PATHS, len(grid))
    draws = shape[0] * shape[1]

    def uniform_exp(i):
        rng = SeedSpec(seed, i).generator()
        rng.random(shape)
        rng.standard_exponential(shape)

    def stable(i):
        sample_standard_stable_batch(params, SeedSpec(seed, i), draws)

    def path(i):
        sample_path_values(params, grid, SeedSpec(seed, i), MICRO_PATHS)

    def pool(i):
        with experiments.ProcessPoolExecutor(max_workers=2) as executor:
            executor.submit(abs, -i).result()

    ns = {name: _median_seconds(fn, MICRO_REPEATS) / draws * 1e9
          for name, fn in (("uniform_exp", uniform_exp), ("stable", stable), ("path", path))}
    return {
        "subordinator.uniform_exp_ns_per_draw": ns["uniform_exp"],
        "subordinator.stable_ns_per_draw": ns["stable"],
        "subordinator.path_ns_per_draw": ns["path"],
        "experiments.pool_start_ms": _median_seconds(pool, POOL_REPEATS) * 1e3,
        "batch_shape": list(shape),
    }


def main(argv: list[str]) -> None:
    mode, result_path, rest = argv[0], argv[1], argv[2:]
    if mode == "micro":
        result = run_micro(int(rest[0]))
    elif mode == "cli":
        split = rest.index("--")
        options, cli_args = rest[:split], rest[split + 1:]
        spans_path, run_id = (options[1], options[2]) if options[:1] == ["--spans"] else (None, None)
        result = run_cli(cli_args, spans_path, run_id)
    else:
        sys.exit(f"unknown mode {mode!r}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
