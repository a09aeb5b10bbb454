"""Experiment dispatch, result records, and JSON/CSV persistence.

A ResultRecord echoes the exact config (so a run can be reproduced from the
record alone), carries pass/fail verdicts plus all reported numbers, and is
serialized deterministically: timestamps live in a separate "timing" section
that byte-level comparisons strip.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .config import _KEYS, ConfigError, ExperimentConfig, config_from_mapping, default_replicates, render_config
from .experiments import (
    BLOWUP_MIN_REPLICATES,
    SE_MULTIPLE,
    MomentEstimate,
    _batch_task,
    _pool_map,
    _worker_pool,
    classify_power_kernel,
    draw_standard_samples,
    run_blowup_diagnostics,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_checks,
    run_scaling_check,
)
from .special import FracMomentQuery, frac_moment_closed_form, frac_moment_quadrature
from .subordinator import StableParams

__all__ = [
    "ResultRecord",
    "comparable_record_json",
    "emit_plot_data",
    "record_to_json",
    "run",
    "write_record",
]


@dataclass
class ResultRecord:
    """Everything one experiment run produced, sufficient to re-run it exactly."""

    experiment: str
    config: dict
    verdicts: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    library_version: str = __version__
    master_seed: int = 0
    wall_clock_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(v == "pass" for v in self.verdicts.values())


def run(config: ExperimentConfig) -> ResultRecord:
    """Dispatch an experiment and assemble its record.

    Persisting it (write_record) and exit-status policy are left to the
    caller.  With more than one worker the run's batches share one process
    pool, whose workers have exited when this returns.
    """
    started = time.perf_counter()
    # One process pool serves every sampling pass of the run.
    with _worker_pool(config.workers):
        [(verdicts, results, series)] = _BUILDERS[config.experiment]([config])
    return ResultRecord(
        experiment=config.experiment,
        config=json.loads(render_config(config)),
        verdicts=verdicts,
        results=results,
        series=series,
        master_seed=config.master_seed,
        wall_clock_seconds=time.perf_counter() - started,
    )


# --------------------------------------------------------------------------
# serialization


def record_to_json(record: ResultRecord) -> str:
    payload = dict(vars(record))  # every field, the wall time under "timing"
    payload["timing"] = {"wall_clock_seconds": payload.pop("wall_clock_seconds")}
    # allow_nan=False: a non-finite float that _strict_json missed raises.
    return json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _strict_json(value):
    """Copy of a record payload with each non-finite float spelled as a string.

    Strict JSON has no NaN or Infinity tokens; the strings "NaN", "Infinity"
    and "-Infinity" keep the value readable (float("NaN") parses them).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value


def comparable_record_json(record_json: str) -> str:
    """Canonical form for reproducibility comparisons.

    Strips the timing section plus the two config fields that describe the
    execution environment rather than the experiment (worker count and output
    location); every remaining byte, including all numeric results, must be
    identical across runs with the same seed.
    """
    payload = json.loads(record_json)
    payload.pop("timing", None)
    config = payload.get("config", {})
    config.pop("workers", None)
    config.pop("output_path", None)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_record(record: ResultRecord, stem: Path) -> list[Path]:
    """Write <stem>.json (a stem ending in .json names it) plus companion CSVs; returns all paths written."""
    stem = Path(stem)
    if stem.suffix == ".json":
        stem = stem.with_suffix("")
    stem.parent.mkdir(parents=True, exist_ok=True)
    json_path = stem.with_name(stem.name + ".json")  # a dot in the stem stays
    json_path.write_text(record_to_json(record), encoding="utf-8")
    return [json_path] + emit_plot_data(record, stem)


def emit_plot_data(record: ResultRecord, stem: Path) -> list[Path]:
    """One CSV per series: named header row, 17 significant digits, fixed order."""
    stem = Path(stem)
    written = []
    for name in sorted(record.series):
        block = record.series[name]
        path = stem.parent / f"{stem.name}_{name}.csv"
        lines = [",".join(block["columns"])]
        for row in block["rows"]:
            lines.append(",".join(_format_cell(cell) for cell in row))
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
        written.append(path)
    return written


def _format_cell(cell) -> str:
    if isinstance(cell, bool):
        return str(cell).lower()
    if isinstance(cell, float):
        return f"{cell:.17g}"
    return str(cell)


# --------------------------------------------------------------------------
# per-experiment record builders: each becomes (verdicts, results, series)


def _verdicts(**checks: bool) -> dict:
    return {name: "pass" if ok else "fail" for name, ok in checks.items()}


def _series(columns: list[str], *values) -> dict:
    """Series block: the columns, then one row per position of the value lists."""
    return {"columns": columns, "rows": [list(row) for row in zip(*values)]}


def _sampling(config: ExperimentConfig) -> dict:
    """Replicate count and seed: the keywords every sampling driver takes."""
    return dict(n_replicates=config.n_replicates, master_seed=config.master_seed)


def _build_laplace(config: ExperimentConfig):
    report = run_laplace_check(alphas=config.alphas(), **_sampling(config))
    columns = ["alpha", "lambda", "mc_mean", "std_error", "target", "within_3se"]
    rows = [[c.alpha, c.lam, c.mc_mean, c.std_error, c.target, c.within_3se] for c in report.cells]
    return (
        _verdicts(laplace_transform=report.passed),
        {"n_cells": len(report.cells), "n_within_3se": report.n_within},
        {"laplace_cells": {"columns": columns, "rows": rows}},
    )


def _build_cdf(config: ExperimentConfig):
    report = run_cdf_check(**_sampling(config))
    results = {"ks_distance": report.ks_distance, "critical_value": report.critical_value,
               "n_replicates": report.n_replicates}
    return _verdicts(distribution_ks=report.passed), results, {}


def _build_scaling(config: ExperimentConfig):
    params = StableParams(config.alpha)
    report = run_scaling_check(params, p=config.p, times=config.times, **_sampling(config))
    columns = ["t", "normalized_moment", "std_error"]
    return (
        _verdicts(scaling_collapse=report.passed),
        {"reference_moment": report.reference, "max_deviation_sigmas": report.max_deviation_sigmas},
        {"scaling": _series(columns, report.times, report.normalized_means, report.std_errors)},
    )


def _plan(configs: list, key, build) -> list:
    """One triple per config, in order: the configs that share `key(config)`
    go to `build` together, which runs them in one driver call."""
    groups: dict = {}
    for index, config in enumerate(configs):
        groups.setdefault(key(config), []).append(index)
    triples = {}
    for indices in groups.values():
        triples.update(zip(indices, build([configs[i] for i in indices]), strict=True))
    return [triples[index] for index in range(len(configs))]


def _build_bounds(configs: list):
    """Moment-bound configs of one count and seed, in one run_moment_checks
    call: the cells of one grid length share one sampling pass."""
    cells = [(StableParams(c.alpha), c.kernel(), c.p, c.grid.build(c.T)) for c in configs]
    triples = []
    for report in run_moment_checks(cells, **_sampling(configs[0])):
        upper, lower = report.estimate, report.lower_estimate
        results = {"bound_value": report.bound_value, "margin": report.margin,
                   "upper_mean": upper.mean, "upper_std_error": upper.std_error,
                   "lower_mean": lower.mean, "lower_std_error": lower.std_error}
        triples.append((_verdicts(moment_bound=report.passed), results, {}))
    return triples


def _build_blowups(configs: list):
    """Blowup configs that share every argument of the driver but theta, in one
    run_blowup_diagnostics call: every exponent is reduced on the same paths."""
    config, triples = configs[0], []
    names = ("fitted_slope", "expected_slope", "residual", "lower_sum_slope", "boundary_inconclusive")
    for r in run_blowup_diagnostics(StableParams(config.alpha), tuple(c.theta for c in configs), T=config.T,
                                    max_level=config.grid.levels, **_sampling(config)):
        series = {
            "scaled_endpoint": _series(["epsilon", "median_scaled", "lower_ci", "upper_ci"],
                                       r.epsilons, r.medians, r.median_ci_lower, r.median_ci_upper),
            "truncated_lower_sum": _series(["epsilon", "median", "lower_ci", "upper_ci"], r.epsilons,
                                           r.lower_sum_medians, r.lower_sum_ci_lower, r.lower_sum_ci_upper),
        }
        # At the threshold the slope statistic carries no information: the
        # record reports the case and checks nothing.
        verdicts = {} if r.boundary_inconclusive else _verdicts(blowup_slope=r.slope_matches)
        triples.append((verdicts, {name: getattr(r, name) for name in names}, series))
    return triples


def _build_ibp(config: ExperimentConfig):
    report = run_ibp_consistency(
        StableParams(config.alpha), theta=config.theta, T=config.T,
        n_paths=config.n_replicates, master_seed=config.master_seed,
        grid=config.grid.build(config.T),
    )
    verdicts = _verdicts(
        brackets_intersect=report.all_brackets_intersect,
        abel_identity=report.abel_identity,
        classical_integrals=report.classical_integrals,
    )
    results = {
        "n_paths": report.n_paths,
        "max_abel_discrepancy": report.max_abel_discrepancy,
        "det_power_target": report.det_power_target,
        "det_exp_target": report.det_exp_target,
    }
    columns = ["grid_levels", "lower_sum", "upper_sum", "gap"]
    rows = [list(row) for row in report.convergence_rows]
    return verdicts, results, {"bracket_convergence": {"columns": columns, "rows": rows}}


def _build_classify(config: ExperimentConfig):
    label = classify_power_kernel(config.alpha, config.theta)
    return {}, {"classification": label}, {}


# --------------------------------------------------------------------------
# verify-all: the full acceptance grid in one run, as a table of sections.
# A section maps (replicate cap, seed) to one triple per name; it is a
# module-level function or a partial of one, so it pickles as a pool task.
# Every section but the oracle chain, which no experiment owns, runs ordinary
# configs of the experiments that own its cells through their planner and
# only tabulates the cells' own records.
_MIN_REPLICATES = {"blowup": BLOWUP_MIN_REPLICATES}  # the fewest paths whose medians blowup takes


def _config_section(cells, tabulate, cap, seed):
    """`tabulate(configs, triples)`, or the triples, of one validated config per
    (experiment, keys) cell, run in one call of the cells' shared planner.  A cell
    runs at the cap, raised to _MIN_REPLICATES, up to its experiment's default count."""
    configs = [config_from_mapping({
        "experiment": experiment, **keys, "master_seed": seed,
        "n_replicates": min(max(cap, _MIN_REPLICATES.get(experiment, 0)), default_replicates(experiment)),
    }) for experiment, keys in cells]
    triples = _BUILDERS[configs[0].experiment](configs)
    return tabulate(configs, triples) if tabulate else triples  # else each cell's own record


def _bound_tables(configs, triples):
    """The power- and exponential-kernel tables: one row per cell, its config
    keys, then its record's bound, upper-bracket mean and standard error, and margin."""
    fields = ("bound_value", "upper_mean", "upper_std_error", "margin")
    tables = []
    for name, keys in (("moment_bound_theta", ["alpha", "theta", "p"]), ("moment_bound_exp", ["lambda", "T"])):
        cells = [(config, triple) for config, triple in zip(configs, triples) if config.experiment == name]
        rows = [[getattr(config, _KEYS[key].name) for key in keys] + [results[field] for field in fields]
                for config, (_, results, _) in cells]
        series = {"cells": {"columns": keys + ["bound", "upper_mean", "std_error", "margin"], "rows": rows}}
        verdicts = _verdicts(all_cells_pass=all(v["moment_bound"] == "pass" for _, (v, _, _) in cells))
        tables.append((verdicts, {"n_cells": len(rows)}, series))
    return tables


def _slopes_table(configs, triples):
    """The blow-up slope law: one row per exponent."""
    fields = ["fitted_slope", "expected_slope", "residual"]
    rows = [[c.theta] + [results[name] for name in fields] for c, (_, results, _) in zip(configs, triples)]
    series = {"slopes": {"columns": ["theta"] + fields, "rows": rows}}
    verdicts = _verdicts(slopes_match=all(v["blowup_slope"] == "pass" for v, _, _ in triples))
    return [(verdicts, {"n_cases": len(rows)}, series)]


def _stabilization_table(configs, triples):
    """Finiteness stabilization of the truncated lower sums (theta < 1/alpha):
    the cell's medians change by under 1 % from 2^-35 to 2^-40."""
    [(_, _, series)] = triples
    rows = [row[:2] for row in series["truncated_lower_sum"]["rows"]]  # epsilon, median
    at35, at40 = dict(rows)[2.0**-35], dict(rows)[2.0**-40]
    change = abs(at40 - at35) / abs(at35)
    results = {"median_at_2^-35": at35, "median_at_2^-40": at40, "relative_change": change}
    series = {"lower_sum_medians": {"columns": ["epsilon", "median"], "rows": rows}}
    return [(_verdicts(median_change_below_1pct=change < 0.01), results, series)]


def _oracle_chain_section(cap, seed):
    """Quadrature vs closed form on the 36-cell grid (np.max passes a NaN cell
    through, so it fails), then a Monte Carlo check of E S_1^p at the pinned cell."""
    queries = [FracMomentQuery(alpha, p, t) for alpha in (0.3, 0.5, 0.7, 0.9)
               for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0) for t in (0.25, 1.0, 4.0)]
    closed = np.array([frac_moment_closed_form(q) for q in queries])
    max_rel = float(np.max(np.abs([frac_moment_quadrature(q) for q in queries] - closed) / closed))
    draws = draw_standard_samples(0.5, min(1_000_000, cap * 10), seed, cell=90)
    estimate = MomentEstimate.from_samples(np.power(draws, 0.25, out=draws))
    oracle = frac_moment_closed_form(FracMomentQuery(0.5, 0.25, 1.0))
    verdicts = _verdicts(
        quadrature_agrees_closed_form=max_rel <= 1e-6,
        mc_matches_oracle=abs(estimate.mean - oracle) <= SE_MULTIPLE * estimate.std_error,
    )
    results = {
        "max_relative_difference": max_rel,
        "mc_mean": estimate.mean,
        "mc_std_error": estimate.std_error,
        "oracle": oracle,
        "n_replicates": estimate.n_replicates,
    }
    return [(verdicts, results, {})]


# The power-kernel bound over (alpha, theta, p) and the exponential-kernel
# bound over lambda x T share one planner call: cells sharing paths draw them once.
_MOMENT_GRID = functools.partial(_config_section, [
    ("moment_bound_theta", {"alpha": alpha, "theta": frac / alpha, "p": p})
    for alpha in (0.3, 0.5, 0.7) for frac in (0.5, 0.8) for p in (alpha / 4.0, alpha / 2.0)
] + [("moment_bound_exp", {"alpha": 0.5, "p": 0.25, "lambda": lam, "T": T})
     for lam in (0.5, 1.0, 2.0) for T in (1.0, 5.0)], _bound_tables)
_VERIFY_ALL_SECTIONS = (
    (("laplace",), functools.partial(_config_section, [("laplace_check", {})], None)),
    (("cdf",), functools.partial(_config_section, [("cdf_check", {})], None)),
    (("frac_moment_chain",), _oracle_chain_section),
    (("scaling",), functools.partial(_config_section, [("scaling", {"alpha": 0.5, "p": 0.25})], None)),
    (("bound_theta_grid", "bound_exp_grid"), _MOMENT_GRID),
    # Three supercritical exponents at alpha = 1/2 (threshold 2), on one set of paths.
    (("blowup_slopes",), functools.partial(
        _config_section, [("blowup", {"alpha": 0.5, "theta": theta}) for theta in (2.5, 3.0, 4.0)], _slopes_table)),
    (("finiteness_stabilization",), functools.partial(
        _config_section, [("blowup", {"alpha": 0.5, "theta": 1.0, "grid": {"levels": 40}})],
        _stabilization_table)),
    (("ibp",), functools.partial(_config_section, [("ibp_consistency", {"alpha": 0.5, "theta": 1.0})], None)),
)


def _build_verify_all(config: ExperimentConfig):
    """Each section but the moment grid is one pool task, sampling serially in
    its worker, while the grid's pass here spreads its batches over the same
    pool.  With no pool the lazy map runs the sections in table order.  The
    run's config is valid, so a section that refuses a cell is an internal error."""
    cap, seed = config.n_replicates, config.master_seed
    others = [(section, cap, seed) for _, section in _VERIFY_ALL_SECTIONS if section is not _MOMENT_GRID]
    tasks = _pool_map(_batch_task, others)
    verdicts, results, series = {}, {}, {}
    for names, section in _VERIFY_ALL_SECTIONS:
        try:
            triples = section(cap, seed) if section is _MOMENT_GRID else next(tasks)
        except ConfigError as exc:
            raise RuntimeError(f"{exc} (a cell of verify-all section {'/'.join(names)})") from exc
        for prefix, (sub_verdicts, sub_results, sub_series) in zip(names, triples, strict=True):
            verdicts.update((f"{prefix}.{key}", value) for key, value in sub_verdicts.items())
            results[prefix] = sub_results
            series.update((f"{prefix}_{key}", value) for key, value in sub_series.items())
    return verdicts, results, series


def _each(build):
    return lambda configs: [build(config) for config in configs]


# Experiment -> planner: its configs to one triple each, in order.  The two
# moment-bound experiments share one planner, so a mix of them takes one call.
_plan_bound = functools.partial(_plan, key=lambda c: (c.n_replicates, c.master_seed), build=_build_bounds)
_BUILDERS = {
    "laplace_check": _each(_build_laplace),
    "cdf_check": _each(_build_cdf),
    "scaling": _each(_build_scaling),
    "moment_bound_theta": _plan_bound,
    "moment_bound_exp": _plan_bound,
    "blowup": functools.partial(_plan, key=lambda c: (c.alpha, c.T, c.grid.levels, c.n_replicates, c.master_seed),
                                build=_build_blowups),
    "ibp_consistency": _each(_build_ibp),
    "kernel_classify": _each(_build_classify),
    "verify_all": _each(_build_verify_all),
}
