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
from .config import ExperimentConfig, config_from_mapping, default_replicates, render_config
from .experiments import (
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
from .integrals import ExpKernel, SingularKernel
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
    """Dispatch an experiment, assemble its record, and persist it if requested.

    Persists a JSON record plus one CSV per numeric series when
    config.output_path is set; exit-status policy is left to the CLI.  With
    more than one worker the run's batches share one process pool, whose
    workers have exited when this returns.
    """
    started = time.perf_counter()
    # One process pool serves every sampling pass of the run.
    with _worker_pool(config.workers):
        verdicts, results, series = _BUILDERS[config.experiment](config)
    record = ResultRecord(
        experiment=config.experiment,
        config=json.loads(render_config(config)),
        verdicts=verdicts,
        results=results,
        series=series,
        master_seed=config.master_seed,
        wall_clock_seconds=time.perf_counter() - started,
    )
    if config.output_path:
        write_record(record, Path(config.output_path))
    return record


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
    """Write <stem>.json plus companion CSVs; returns all paths written."""
    stem = Path(stem)
    if stem.suffix == ".json":
        stem = stem.with_suffix("")
    stem.parent.mkdir(parents=True, exist_ok=True)
    json_path = stem.with_suffix(".json")
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


def _build_bound(config: ExperimentConfig):
    params = StableParams(config.alpha)
    grid = config.grid.build(config.T)
    report = run_moment_checks([(params, config.kernel(), config.p, grid)], **_sampling(config))[0]
    results = {
        "bound_value": report.bound_value,
        "margin": report.margin,
        "upper_mean": report.estimate.mean,
        "upper_std_error": report.estimate.std_error,
        "lower_mean": report.lower_estimate.mean,
        "lower_std_error": report.lower_estimate.std_error,
    }
    return _verdicts(moment_bound=report.passed), results, {}


def _build_blowup(config: ExperimentConfig):
    report = run_blowup_diagnostics(
        StableParams(config.alpha), (config.theta,), T=config.T,
        max_level=config.grid.levels, **_sampling(config),
    )[0]
    results = {
        "fitted_slope": report.fitted_slope,
        "expected_slope": report.expected_slope,
        "residual": report.residual,
        "lower_sum_slope": report.lower_sum_slope,
        "boundary_inconclusive": report.boundary_inconclusive,
    }
    series = {
        "scaled_endpoint": _series(
            ["epsilon", "median_scaled", "lower_ci", "upper_ci"],
            report.epsilons, report.medians, report.median_ci_lower, report.median_ci_upper,
        ),
        "truncated_lower_sum": _series(
            ["epsilon", "median", "lower_ci", "upper_ci"],
            report.epsilons, report.lower_sum_medians,
            report.lower_sum_ci_lower, report.lower_sum_ci_upper,
        ),
    }
    if report.boundary_inconclusive:
        # At the threshold the slope statistic carries no information: the
        # record reports the case and checks nothing.
        return {}, results, series
    return _verdicts(blowup_slope=report.slope_matches), results, series


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
# Each section runs its experiment at the smaller of the cap and that
# experiment's own default count, with two exceptions: the blowup sections
# draw at least 100 paths, and the oracle chain draws min(1 000 000, 10 x cap).


def _experiment_section(experiment: str, keys: dict, cap, seed):
    """Section that runs an ordinary experiment config through its builder."""
    config = config_from_mapping({"experiment": experiment, **keys,
                                  "n_replicates": min(cap, default_replicates(experiment)),
                                  "master_seed": seed})
    return [_BUILDERS[experiment](config)]


def _oracle_chain_section(cap, seed):
    """Quadrature vs closed form on the 36-cell grid (np.max passes a NaN cell
    through, so it fails), then a Monte Carlo check of E S_1^p at the pinned cell."""
    queries = [FracMomentQuery(alpha, p, t) for alpha in (0.3, 0.5, 0.7, 0.9)
               for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0) for t in (0.25, 1.0, 4.0)]
    closed = np.array([frac_moment_closed_form(q) for q in queries])
    max_rel = float(np.max(np.abs([frac_moment_quadrature(q) for q in queries] - closed) / closed))
    draws = draw_standard_samples(0.5, min(1_000_000, cap * 10), seed, cell=90)
    estimate = MomentEstimate.from_samples(draws**0.25)
    oracle = frac_moment_closed_form(FracMomentQuery(0.5, 0.25, 1.0))
    verdicts = _verdicts(
        quadrature_agrees_closed_form=max_rel <= 1e-6,
        mc_matches_oracle=abs(estimate.mean - oracle) <= 3.0 * estimate.std_error,
    )
    results = {
        "max_relative_difference": max_rel,
        "mc_mean": estimate.mean,
        "mc_std_error": estimate.std_error,
        "oracle": oracle,
        "n_replicates": estimate.n_replicates,
    }
    return [(verdicts, results, {})]


_THETA_GRID = [
    (alpha, frac / alpha, p)
    for alpha in (0.3, 0.5, 0.7) for frac in (0.5, 0.8) for p in (alpha / 4.0, alpha / 2.0)
]
_EXP_GRID = [(lam, T) for lam in (0.5, 1.0, 2.0) for T in (1.0, 5.0)]


def _bound_grid_sections(cap, seed):
    """Power-kernel bound over the (alpha, theta, p) grid and exponential-kernel
    bound over lambda x T, in one driver call so that cells sharing sample
    paths draw them once."""
    cells = [
        (StableParams(alpha), SingularKernel(theta=theta, T=1.0), p, None)
        for alpha, theta, p in _THETA_GRID
    ] + [(StableParams(0.5), ExpKernel(lam=lam, T=T), 0.25, None) for lam, T in _EXP_GRID]
    count = min(cap, default_replicates("moment_bound_theta"), default_replicates("moment_bound_exp"))
    checks = run_moment_checks(cells, count, seed)
    triples = []
    for keys, key_columns, section in (
        (_THETA_GRID, ["alpha", "theta", "p"], checks[: len(_THETA_GRID)]),
        (_EXP_GRID, ["lambda", "T"], checks[len(_THETA_GRID) :]),
    ):
        rows = [
            [*key, c.bound_value, c.estimate.mean, c.estimate.std_error, c.margin]
            for key, c in zip(keys, section)
        ]
        columns = key_columns + ["bound", "upper_mean", "std_error", "margin"]
        verdicts = _verdicts(all_cells_pass=all(c.passed for c in section))
        series = {"cells": {"columns": columns, "rows": rows}}
        triples.append((verdicts, {"n_cells": len(rows)}, series))
    return triples


def _blowup_slopes_section(cap, seed):
    """Blow-up slope law at three supercritical exponents (alpha = 1/2, threshold 2)."""
    thetas = (2.5, 3.0, 4.0)
    reports = run_blowup_diagnostics(
        StableParams(0.5), thetas, n_replicates=max(100, min(cap, default_replicates("blowup"))),
        master_seed=seed,
    )
    rows = [[theta, r.fitted_slope, r.expected_slope, r.residual] for theta, r in zip(thetas, reports)]
    matches = [r.slope_matches for r in reports]
    columns = ["theta", "fitted_slope", "expected_slope", "residual"]
    verdicts = _verdicts(slopes_match=all(matches))
    return [(verdicts, {"n_cases": len(rows)}, {"slopes": {"columns": columns, "rows": rows}})]


def _stabilization_section(cap, seed):
    """Finiteness stabilization of the truncated lower sums (theta < 1/alpha)."""
    report = run_blowup_diagnostics(
        StableParams(0.5), (1.0,), max_level=40,
        n_replicates=max(100, min(cap, default_replicates("blowup"))), master_seed=seed,
    )[0]
    medians = report.lower_sum_medians
    at35 = medians[report.epsilons.index(2.0**-35)]
    at40 = medians[report.epsilons.index(2.0**-40)]
    change = abs(at40 - at35) / abs(at35)
    results = {"median_at_2^-35": at35, "median_at_2^-40": at40, "relative_change": change}
    series = {"lower_sum_medians": _series(["epsilon", "median"], report.epsilons, medians)}
    return [(_verdicts(median_change_below_1pct=change < 0.01), results, series)]


_VERIFY_ALL_SECTIONS = (
    (("laplace",), functools.partial(_experiment_section, "laplace_check", {})),
    (("cdf",), functools.partial(_experiment_section, "cdf_check", {})),
    (("frac_moment_chain",), _oracle_chain_section),
    (("scaling",), functools.partial(_experiment_section, "scaling", {"alpha": 0.5, "p": 0.25})),
    (("bound_theta_grid", "bound_exp_grid"), _bound_grid_sections),
    (("blowup_slopes",), _blowup_slopes_section),
    (("finiteness_stabilization",), _stabilization_section),
    (("ibp",), functools.partial(_experiment_section, "ibp_consistency", {"alpha": 0.5, "theta": 1.0})),
)


def _build_verify_all(config: ExperimentConfig):
    """Each section but the moment grid is one pool task, sampling serially in
    its worker, while the grid's pass here spreads its batches over the same
    pool.  With no pool the lazy map runs the sections in table order."""
    cap, seed = config.n_replicates, config.master_seed
    others = [(section, cap, seed) for _, section in _VERIFY_ALL_SECTIONS
              if section is not _bound_grid_sections]
    tasks = _pool_map(_batch_task, others)
    verdicts, results, series = {}, {}, {}
    for names, section in _VERIFY_ALL_SECTIONS:
        triples = section(cap, seed) if section is _bound_grid_sections else next(tasks)
        for prefix, (sub_verdicts, sub_results, sub_series) in zip(names, triples, strict=True):
            verdicts.update((f"{prefix}.{key}", value) for key, value in sub_verdicts.items())
            results[prefix] = sub_results
            series.update((f"{prefix}_{key}", value) for key, value in sub_series.items())
    return verdicts, results, series


_BUILDERS = {
    "laplace_check": _build_laplace,
    "cdf_check": _build_cdf,
    "scaling": _build_scaling,
    "moment_bound_theta": _build_bound,
    "moment_bound_exp": _build_bound,
    "blowup": _build_blowup,
    "ibp_consistency": _build_ibp,
    "kernel_classify": _build_classify,
    "verify_all": _build_verify_all,
}
