"""Benchmark of the stablesub CLI: one client, one invocation at a time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Every measured invocation is a fresh Python process (`perfbench/child.py`)
that imports `stablesub.cli` and calls its `main` once; the next one starts
only after the previous one has ended (closed loop, one client).  Run from the
repository root; the program is used from `src/` as checked out, with no
install step.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json: medians over the
invocations that fit in `--seconds`, plus the median of five set-up runs
(interpreter start and `import stablesub.cli`).  `--trace 1` alternates
untraced and traced invocations, reports the per-layer metrics from the traced
ones, the tracing overhead (traced minus untraced wall time), the sampler and
pool microbenchmarks and the source line counts.

Each invocation is checked: exit status 0, every verdict `pass`, and a
`comparable_record_json` digest equal to that of every other invocation of the
same seed, including those of the other acceptance workload.  The last line of
standard output is the result object; the line before it is the provenance.
Details, per-invocation data and span files go to `.perfbench/`.

`--smoke` runs all three workloads at 5000 replicates, traced and untraced,
and checks the harness itself (digests across worker counts, tracing that
leaves the record unchanged, self times that add up, layer counts that do not
depend on the worker count).  It exits 1 on any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"
DEFAULT_SEED = 12345  # the master seed of the acceptance criteria
SETUP_RUNS = 5
SMOKE_REPLICATES = 5000  # two 4096-replicate batches, so the pool is used
DEADLINE_S = 170.0  # a run must end within 180 s

# name -> (CLI arguments, verdicts a record must hold, digest group).
# Workloads in one digest group must produce byte-identical comparable records
# for the same seed.
WORKLOADS = {
    # Full acceptance grid, single process: the run users wait on; the
    # subordinator layer does most of the work.
    "acceptance_w1": (["verify-all", "--workers", "1", "--replicates", "100000"], 12, "verify-all"),
    # Same grid with a 2-worker process pool: pool start-up and pool work
    # that buys no wall time on a 2-core machine.
    "acceptance_w2": (["verify-all", "--workers", "2", "--replicates", "100000"], 12, "verify-all"),
    # Per-path estimator API: integrals and path construction dominate and
    # the sampler does little, so sampler changes should not move it.
    "ibp_paths": (["ibp", "--alpha", "0.5", "--theta", "1", "--replicates", "50000"], 3, "ibp"),
}

# Earlier cProfile figures for one 4096 x 41 batch (ROADMAP.md), printed next
# to the microbenchmarks for comparison.
ROADMAP_NS_PER_DRAW = {"uniform_exp": 23.0, "stable": 112.0}


def workers(workload: str) -> int:
    args = WORKLOADS[workload][0]
    return int(args[args.index("--workers") + 1]) if "--workers" in args else 1


class HarnessError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], timeout: float) -> tuple[int, str]:
    """Run a process in its own session; kill the whole group on timeout."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            return -9, f"timed out after {timeout:.0f} s\n{err}"
        return proc.returncode, err


class Bench:
    def __init__(self, seed: int, scale: int | None):
        self.seed = seed
        self.scale = scale
        self.started = time.perf_counter()
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli_args(self, workload: str) -> list[str]:
        args = list(WORKLOADS[workload][0])
        if self.scale is not None:
            args[args.index("--replicates") + 1] = str(self.scale)
        return args + ["--seed", str(self.seed)]

    def setup_times(self) -> list[float]:
        times = []
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            code, err = spawn([sys.executable, "-c", "import stablesub.cli"], self.remaining())
            times.append(time.perf_counter() - start)
            if code != 0:
                raise HarnessError(f"import stablesub.cli failed:\n{err}")
        return times

    def invoke(self, workload: str, traced: bool) -> dict:
        """One CLI invocation in a fresh process; returns the child's report."""
        self.count += 1
        run_dir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{workload}-"))
        try:
            args = self.cli_args(workload)
            if args[0] == "verify-all":
                args += ["--out", str(run_dir / "record")]
            result_path = run_dir / "child.json"
            options = []
            if traced:
                spans = OUT / f"spans-{workload}.jsonl"
                options = ["--spans", str(spans), f"{workload}-{self.seed}-{self.count}"]
            cmd = [sys.executable, str(CHILD), "cli", str(result_path), *options, "--", *args]
            start = time.perf_counter()
            code, err = spawn(cmd, self.remaining())
            elapsed = time.perf_counter() - start
            if result_path.exists():
                result = json.loads(result_path.read_text(encoding="utf-8"))
            else:
                result = {"exit_code": code, "error": err[-4000:], "verdicts": {}, "digest": None}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        result.update(traced=traced, elapsed_s=elapsed, stderr=err[-2000:])
        return result

    def rounds(self, workload: str, seconds: float, traced: bool) -> list[dict]:
        """Invocations until `seconds` are used up; at least two, for the digest check."""
        modes = (False, True) if traced else (False,)
        deadline = time.perf_counter() + seconds
        invocations: list[dict] = []
        while True:
            started = time.perf_counter()
            invocations += [self.invoke(workload, mode) for mode in modes]
            last = time.perf_counter() - started
            enough = len(invocations) >= 2
            if enough and (time.perf_counter() + last > deadline or self.remaining() < 2 * last):
                return invocations

    def micro(self) -> dict:
        path = OUT / f"micro-{os.getpid()}.json"
        code, err = spawn([sys.executable, str(CHILD), "micro", str(path), str(self.seed)],
                          self.remaining())
        if code != 0:
            raise HarnessError(f"microbenchmark failed:\n{err}")
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        finally:
            path.unlink()


def judge(workload: str, invocations: list[dict], reference: str | None) -> tuple[bool, int]:
    """(outputs correct, operations failed) for one workload's invocations.

    An operation fails on a nonzero exit, a verdict other than pass, fewer
    verdicts than the workload's record must hold, or a digest that differs
    from the other runs of the seed.  Outputs are incorrect when the program
    crashed, when its exit status disagrees with its verdicts, or when digests
    differ: a statistical verdict failing at a given seed is a failed
    operation but correct output.
    """
    digests = [inv["digest"] for inv in invocations]
    expected = reference or Counter(digests).most_common(1)[0][0]
    failed = 0
    correct = expected is not None and all(d == expected for d in digests)
    for inv in invocations:
        verdicts = inv["verdicts"]
        passed = bool(verdicts) and all(v == "pass" for v in verdicts.values())
        if inv["exit_code"] != (0 if passed else 1) or not verdicts:
            correct = False
        if (inv["exit_code"] != 0 or not passed or len(verdicts) < WORKLOADS[workload][1]
                or inv["digest"] != expected):
            failed += 1
    return correct, failed


def cross_reference(workload: str, seed: int, digest: str | None) -> str | None:
    """Digest recorded for the same seed by another workload of the digest group.

    Records this workload's digest for the next run; the file lives in the
    checkout's `.perfbench/`.
    """
    store = OUT / "digests.json"
    table = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"{WORKLOADS[workload][2]}:{seed}"
    entry = table.setdefault(key, {})
    others = [d for name, d in sorted(entry.items()) if name != workload]
    if digest is not None:
        entry[workload] = digest
        store.write_text(json.dumps(table, indent=1, sort_keys=True), encoding="utf-8")
    return others[0] if others else None


def median(values) -> float:
    return float(statistics.median(values))


def line_counts() -> dict:
    counts = {}
    for path in sorted((SRC / "stablesub").glob("*.py")):
        if path.stem != "__init__":
            counts[f"{path.stem}.loc"] = len(path.read_text(encoding="utf-8").splitlines())
    counts["src.loc"] = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return counts


def provenance(args, bench: Bench, versions: dict) -> dict:
    def sysconf(name):
        try:
            return os.sysconf(name) or None
        except (ValueError, OSError):
            return None

    cpuinfo = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    break  # first processor only
                key, _, value = line.partition(":")
                cpuinfo[key.strip()] = value.strip()
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cli_args = bench.cli_args(args.workload)
    return {
        **versions,
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo.get("model name") or platform.processor() or None,
        "cpuinfo_cache_size": cpuinfo.get("cache size"),
        "cache_bytes": {level: sysconf(f"SC_{level}_SIZE") for level in
                        ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE")},
        "workload": args.workload,
        "cli_args": cli_args,
        "replicates": int(cli_args[cli_args.index("--replicates") + 1]),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def end_to_end(bench: Bench, invocations: list[dict], failed: int) -> dict:
    untraced = [inv for inv in invocations if not inv["traced"]]
    return {
        "wall_s": median(inv["wall_s"] for inv in untraced),
        "setup_s": median(bench.setup_times()),
        "cpu_s": median(inv["cpu_s"] for inv in untraced),
        "peak_rss_mb": median(inv["peak_rss_mb"] for inv in untraced),
        "ok_frac": (len(invocations) - failed) / len(invocations),
    }


def per_layer(bench: Bench, invocations: list[dict]) -> tuple[dict, dict]:
    traced = [inv for inv in invocations if inv["traced"] and "layers" in inv]
    untraced = [inv for inv in invocations if not inv["traced"]]
    if not traced:
        raise HarnessError("no traced invocation produced layer metrics")
    metrics = {key: median(inv["layers"][key] for inv in traced) for key in traced[0]["layers"]}
    metrics["reporting.bytes_written"] = median(inv["bytes_written"] for inv in traced)
    metrics["trace.spans"] = median(inv["spans"] for inv in traced)
    traced_wall = median(inv["wall_s"] for inv in traced)
    untraced_wall = median(inv["wall_s"] for inv in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    micro = bench.micro()
    metrics.update({k: v for k, v in micro.items() if k.startswith(("subordinator.", "experiments."))})
    metrics.update(line_counts())
    details = {
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "micro_batch_shape": micro["batch_shape"],
        "roadmap_cprofile_ns_per_draw": ROADMAP_NS_PER_DRAW,
        "kanter_ns_per_draw": metrics["subordinator.stable_ns_per_draw"]
        - metrics["subordinator.uniform_exp_ns_per_draw"],
        "assembly_ns_per_draw": metrics["subordinator.path_ns_per_draw"]
        - metrics["subordinator.stable_ns_per_draw"],
    }
    return metrics, details


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(args) -> dict:
    units = declared("per_layer" if args.trace else "end_to_end")
    bench = Bench(args.seed, None)
    invocations = bench.rounds(args.workload, args.seconds, bool(args.trace))
    digest = invocations[0]["digest"]
    reference = cross_reference(args.workload, args.seed, digest)
    correct, failed = judge(args.workload, invocations, reference)
    if args.trace:
        values, details = per_layer(bench, invocations)
    else:
        values, details = end_to_end(bench, invocations, failed), {}
    missing = sorted(set(units) - set(values))
    if missing:
        raise HarnessError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    prov = provenance(args, bench, invocations[0].get("versions", {}))
    OUT.joinpath(f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({
            "provenance": prov, "metrics": metrics, "details": details,
            "digest": digest, "cross_reference_digest": reference,
            "invocations": invocations,
        }, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    print(json.dumps({"provenance": prov, "digest": digest, **details}, sort_keys=True))
    return {"correct": correct, "attempted": len(invocations), "failed": failed, "metrics": metrics}


def smoke(seed: int) -> int:
    """Reduced-scale run of every workload with checks on the harness itself."""
    bench = Bench(seed, SMOKE_REPLICATES)
    problems = []
    layers, digests = {}, {}
    for workload in WORKLOADS:
        invocations = bench.rounds(workload, 0.0, traced=True)
        correct, failed = judge(workload, invocations, None)
        if not correct or failed:
            problems.append(f"{workload}: correct={correct} failed={failed}: "
                            f"{[(i['exit_code'], i['verdicts'], i.get('error')) for i in invocations]}")
            continue
        digests[workload] = invocations[0]["digest"]
        traced = next(inv for inv in invocations if inv["traced"])
        layers[workload] = traced["layers"]
        if workers(workload) == 1:
            layer_total = sum(traced["layers"][key] for key in tracing.PARTITION)
            if not math.isclose(layer_total, traced["wall_s"], rel_tol=0.01):
                problems.append(f"{workload}: layer self times sum to {layer_total:.4f} s, "
                                f"traced wall time is {traced['wall_s']:.4f} s")
        print(f"smoke {workload}: ok, {len(invocations)} invocations, digest {digests[workload][:12]}")
    if len(set(digests.get(w) for w in ("acceptance_w1", "acceptance_w2"))) != 1:
        problems.append(f"verify-all digests differ across worker counts: {digests}")
    if "acceptance_w1" in layers and "acceptance_w2" in layers:
        one, two = layers["acceptance_w1"], layers["acceptance_w2"]
        for key in ("subordinator.calls", "subordinator.draws", "integrals.calls", "special.calls"):
            if one[key] != two[key] or one[key] <= 0:
                problems.append(f"{key}: {one[key]} with 1 worker, {two[key]} with 2")
        if one["experiments.pool_starts"] != 0 or two["experiments.pool_starts"] <= 0:
            problems.append("pool starts: expected none with 1 worker and some with 2")
    micro = bench.micro()
    if not all(micro[k] > 0 for k in micro if k.endswith(("_ns_per_draw", "_ms"))):
        problems.append(f"microbenchmarks not positive: {micro}")
    for problem in problems:
        print(f"smoke FAILED: {problem}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "stablesub" / "cli.py").is_file():
        print(f"error: no stablesub sources under {SRC}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    OUT.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke(args.seed)
        result = run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
