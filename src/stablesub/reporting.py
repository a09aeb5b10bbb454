"""Experiment dispatch, result records, and JSON/CSV persistence.

A ResultRecord echoes the exact config (so a run can be reproduced from the
record alone), carries pass/fail verdicts plus all reported numbers, and is
serialized deterministically: timestamps live in a separate "timing" section
that byte-level comparisons strip.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .config import ExperimentConfig, render_config
from .experiments import (
    MomentEstimate,
    classify_power_kernel,
    draw_standard_samples,
    run_blowup_diagnostic,
    run_cdf_check,
    run_ibp_consistency,
    run_laplace_check,
    run_moment_check,
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
    "strip_timing",
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
    config.output_path is set; exit-status policy is left to the CLI.
    """
    started = time.perf_counter()
    builder = _BUILDERS[config.experiment]
    verdicts, results, series = builder(config)
    record = ResultRecord(
        experiment=config.experiment,
        config=json.loads(render_config(config)),
        verdicts=verdicts,
        results=results,
        series=series,
        library_version=__version__,
        master_seed=config.master_seed,
        wall_clock_seconds=time.perf_counter() - started,
    )
    if config.output_path:
        write_record(record, Path(config.output_path))
    return record


# --------------------------------------------------------------------------
# serialization


def record_to_json(record: ResultRecord) -> str:
    payload = {
        "experiment": record.experiment,
        "config": record.config,
        "verdicts": record.verdicts,
        "results": record.results,
        "series": record.series,
        "library_version": record.library_version,
        "master_seed": record.master_seed,
        "timing": {"wall_clock_seconds": record.wall_clock_seconds},
    }
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


def strip_timing(record_json: str) -> str:
    """Canonical record text with the volatile timing section removed."""
    payload = json.loads(record_json)
    payload.pop("timing", None)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
# per-experiment record builders


def _build_laplace(config: ExperimentConfig):
    report = run_laplace_check(
        alphas=config.alphas(),
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        workers=config.workers,
    )
    rows = [
        [c.alpha, c.lam, c.mc_mean, c.std_error, c.target, c.within_3se]
        for c in report.cells
    ]
    results = {
        "n_cells": len(report.cells),
        "n_within_3se": report.n_within,
        "cells": [
            {
                "alpha": c.alpha,
                "lambda": c.lam,
                "mc_mean": c.mc_mean,
                "std_error": c.std_error,
                "target": c.target,
                "within_3se": c.within_3se,
            }
            for c in report.cells
        ],
    }
    series = {
        "laplace_cells": {
            "columns": ["alpha", "lambda", "mc_mean", "std_error", "target", "within_3se"],
            "rows": rows,
        }
    }
    return _verdict("laplace_transform", report.passed), results, series


def _build_cdf(config: ExperimentConfig):
    report = run_cdf_check(
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        workers=config.workers,
    )
    results = {
        "ks_distance": report.ks_distance,
        "critical_value": report.critical_value,
        "n_replicates": report.n_replicates,
    }
    return _verdict("distribution_ks", report.passed), results, {}


def _build_scaling(config: ExperimentConfig):
    report = run_scaling_check(
        StableParams(config.scalar_alpha()),
        p=config.p,
        times=config.times,
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        workers=config.workers,
    )
    results = {
        "reference_moment": report.reference,
        "max_deviation_sigmas": report.max_deviation_sigmas,
        "normalized_means": list(report.normalized_means),
        "std_errors": list(report.std_errors),
        "times": list(report.times),
    }
    series = {
        "scaling": {
            "columns": ["t", "normalized_moment", "std_error"],
            "rows": [
                [t, m, s]
                for t, m, s in zip(report.times, report.normalized_means, report.std_errors)
            ],
        }
    }
    return _verdict("scaling_collapse", report.passed), results, series


def _build_bound_theta(config: ExperimentConfig):
    alpha = config.scalar_alpha()
    kernel = SingularKernel(theta=config.theta, T=config.T)
    report = run_moment_check(
        StableParams(alpha),
        kernel,
        p=config.p,
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        grid=config.grid.build(config.T),
        workers=config.workers,
    )
    return _verdict("moment_bound", report.passed), _bound_results(report), {}


def _build_bound_exp(config: ExperimentConfig):
    alpha = config.scalar_alpha()
    kernel = ExpKernel(lam=config.lam, T=config.T)
    grid = config.grid.build(config.T)
    report = run_moment_check(
        StableParams(alpha),
        kernel,
        p=config.p,
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        grid=grid,
        workers=config.workers,
    )
    return _verdict("moment_bound", report.passed), _bound_results(report), {}


def _bound_results(report):
    return {
        "bound_value": report.bound_value,
        "margin": report.margin,
        "upper_mean": report.estimate.mean,
        "upper_std_error": report.estimate.std_error,
        "lower_mean": report.lower_estimate.mean,
        "lower_std_error": report.lower_estimate.std_error,
        "n_replicates": report.estimate.n_replicates,
    }


def _build_blowup(config: ExperimentConfig):
    report = run_blowup_diagnostic(
        StableParams(config.scalar_alpha()),
        theta=config.theta,
        T=config.T,
        max_level=config.grid.levels,
        n_replicates=config.n_replicates,
        master_seed=config.master_seed,
        workers=config.workers,
    )
    results = {
        "fitted_slope": report.fitted_slope,
        "expected_slope": report.expected_slope,
        "residual": report.residual,
        "lower_sum_slope": report.lower_sum_slope,
        "boundary_inconclusive": report.boundary_inconclusive,
    }
    series = {
        "scaled_endpoint": {
            "columns": ["epsilon", "median_scaled", "lower_ci", "upper_ci"],
            "rows": [
                [e, m, lo, hi]
                for e, m, lo, hi in zip(
                    report.epsilons, report.medians, report.median_ci_lower, report.median_ci_upper
                )
            ],
        },
        "truncated_lower_sum": {
            "columns": ["epsilon", "median", "lower_ci", "upper_ci"],
            "rows": [
                [e, m, lo, hi]
                for e, m, lo, hi in zip(
                    report.epsilons,
                    report.lower_sum_medians,
                    report.lower_sum_ci_lower,
                    report.lower_sum_ci_upper,
                )
            ],
        },
    }
    if report.boundary_inconclusive:
        # At the threshold the slope statistic carries no information; the
        # record labels the case instead of asserting divergence numerically.
        verdicts = {"blowup_slope_inconclusive_boundary": "pass"}
    else:
        ok = abs(report.fitted_slope - report.expected_slope) <= 0.1
        verdicts = _verdict("blowup_slope", ok)
    return verdicts, results, series


def _build_ibp(config: ExperimentConfig):
    report = run_ibp_consistency(
        StableParams(config.scalar_alpha()),
        theta=config.theta if config.theta is not None else 0.5,
        T=config.T,
        n_paths=config.n_replicates,
        master_seed=config.master_seed,
        grid=config.grid.build(config.T),
    )
    verdicts, results, series = _ibp_triple(report)
    results.update(
        all_brackets_intersect=report.all_brackets_intersect,
        det_power_bracket=list(report.det_power_bracket),
        det_exp_bracket=list(report.det_exp_bracket),
    )
    return verdicts, results, series


def _build_classify(config: ExperimentConfig):
    label = classify_power_kernel(config.scalar_alpha(), config.theta)
    results = {"alpha": config.scalar_alpha(), "exponent": config.theta, "classification": label}
    return _verdict("classified", True), results, {}


def _verdict(name: str, ok: bool) -> dict:
    return {name: "pass" if ok else "fail"}


# --------------------------------------------------------------------------
# verify-all: the full acceptance grid in one run


def _build_verify_all(config: ExperimentConfig):
    cap = config.n_replicates
    seed = config.master_seed
    workers = config.workers
    verdicts: dict = {}
    results: dict = {}
    series: dict = {}

    def absorb(prefix: str, triple):
        sub_verdicts, sub_results, sub_series = triple
        for key, value in sub_verdicts.items():
            verdicts[f"{prefix}.{key}"] = value
        results[prefix] = sub_results
        for key, value in sub_series.items():
            series[f"{prefix}_{key}"] = value

    # 1. Laplace transform fidelity, 9 cells.
    laplace = run_laplace_check(n_replicates=min(100_000, cap), master_seed=seed, workers=workers)
    absorb("laplace", _laplace_triple(laplace))

    # 2. Distribution oracle at alpha = 1/2 (1% KS critical value).
    cdf = run_cdf_check(n_replicates=min(100_000, cap), master_seed=seed, workers=workers)
    absorb(
        "cdf",
        (
            _verdict("distribution_ks", cdf.passed),
            {
                "ks_distance": cdf.ks_distance,
                "critical_value": cdf.critical_value,
                "n_replicates": cdf.n_replicates,
            },
            {},
        ),
    )

    # 3. Fractional-moment oracle chain: quadrature vs closed form on the
    #    36-cell grid, then a Monte Carlo check of E S_1^p at the pinned cell.
    chain_max_rel = 0.0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0):
            for t in (0.25, 1.0, 4.0):
                query = FracMomentQuery(alpha, p, t)
                closed = frac_moment_closed_form(query)
                quad = frac_moment_quadrature(query)
                chain_max_rel = max(chain_max_rel, abs(quad - closed) / closed)
    mc_draws = draw_standard_samples(0.5, min(1_000_000, cap * 10), seed, cell=90, workers=workers)
    mc_est = MomentEstimate.from_samples(mc_draws**0.25, "upper")
    oracle = frac_moment_closed_form(FracMomentQuery(0.5, 0.25, 1.0))
    mc_ok = abs(mc_est.mean - oracle) <= 3.0 * mc_est.std_error
    absorb(
        "frac_moment_chain",
        (
            {
                **_verdict("quadrature_agrees_closed_form", chain_max_rel <= 1e-6),
                **_verdict("mc_matches_oracle", mc_ok),
            },
            {
                "max_relative_difference": chain_max_rel,
                "mc_mean": mc_est.mean,
                "mc_std_error": mc_est.std_error,
                "oracle": oracle,
                "n_replicates": mc_est.n_replicates,
            },
            {},
        ),
    )

    # 4. Scaling collapse across horizons.
    scaling = run_scaling_check(
        StableParams(0.5), p=0.25, n_replicates=min(100_000, cap), master_seed=seed, workers=workers
    )
    absorb("scaling", _scaling_triple(scaling))

    # 5-6. Power-kernel moment bound over the (alpha, theta, p) acceptance
    #      grid and exponential-kernel bound over lambda x T, in one driver
    #      call so that cells sharing sample paths draw them once.
    theta_keys = [
        (alpha, frac / alpha, p)
        for alpha in (0.3, 0.5, 0.7)
        for frac in (0.5, 0.8)
        for p in (alpha / 4.0, alpha / 2.0)
    ]
    exp_keys = [(lam, T) for lam in (0.5, 1.0, 2.0) for T in (1.0, 5.0)]
    cells = [
        (StableParams(alpha), SingularKernel(theta=theta, T=1.0), p, None)
        for alpha, theta, p in theta_keys
    ] + [(StableParams(0.5), ExpKernel(lam=lam, T=T), 0.25, None) for lam, T in exp_keys]
    checks = run_moment_checks(cells, min(100_000, cap), seed, workers)
    for prefix, keys, key_columns, section in (
        ("bound_theta_grid", theta_keys, ["alpha", "theta", "p"], checks[: len(theta_keys)]),
        ("bound_exp_grid", exp_keys, ["lambda", "T"], checks[len(theta_keys):]),
    ):
        rows = [
            [*key, c.bound_value, c.estimate.mean, c.estimate.std_error, c.margin]
            for key, c in zip(keys, section)
        ]
        absorb(
            prefix,
            (
                _verdict("all_cells_pass", all(c.passed for c in section)),
                {"n_cells": len(rows)},
                {
                    "cells": {
                        "columns": key_columns + ["bound", "upper_mean", "std_error", "margin"],
                        "rows": rows,
                    }
                },
            ),
        )

    # 7. Blow-up slope law at three supercritical exponents.
    slope_ok = True
    slope_rows = []
    n_blow = max(100, min(10_000, cap))
    for gap in (0.5, 1.0, 2.0):
        theta = 2.0 + gap  # alpha = 0.5, threshold 1/alpha = 2
        report = run_blowup_diagnostic(
            StableParams(0.5),
            theta=theta,
            n_replicates=n_blow,
            master_seed=seed,
            workers=workers,
        )
        slope_ok &= abs(report.fitted_slope - report.expected_slope) <= 0.1
        slope_rows.append([theta, report.fitted_slope, report.expected_slope, report.residual])
    absorb(
        "blowup_slopes",
        (
            _verdict("slopes_match", slope_ok),
            {"n_cases": len(slope_rows)},
            {
                "slopes": {
                    "columns": ["theta", "fitted_slope", "expected_slope", "residual"],
                    "rows": slope_rows,
                }
            },
        ),
    )

    # 8. Finiteness stabilization of the truncated lower sums (theta < 1/alpha).
    stab = run_blowup_diagnostic(
        StableParams(0.5),
        theta=1.0,
        min_level=10,
        max_level=40,
        n_replicates=n_blow,
        master_seed=seed,
        workers=workers,
    )
    idx35 = stab.epsilons.index(2.0**-35)
    idx40 = stab.epsilons.index(2.0**-40)
    stab_change = abs(stab.lower_sum_medians[idx40] - stab.lower_sum_medians[idx35]) / abs(
        stab.lower_sum_medians[idx35]
    )
    absorb(
        "finiteness_stabilization",
        (
            _verdict("median_change_below_1pct", stab_change < 0.01),
            {
                "median_at_2^-35": stab.lower_sum_medians[idx35],
                "median_at_2^-40": stab.lower_sum_medians[idx40],
                "relative_change": stab_change,
            },
            {
                "lower_sum_medians": {
                    "columns": ["epsilon", "median"],
                    "rows": [[e, m] for e, m in zip(stab.epsilons, stab.lower_sum_medians)],
                }
            },
        ),
    )

    # 9-10. Exact identities and the dual-route bracket consistency.
    ibp = run_ibp_consistency(
        StableParams(0.5), theta=1.0, n_paths=max(2, min(1000, cap)), master_seed=seed
    )
    absorb("ibp", _ibp_triple(ibp))

    return verdicts, results, series


def _laplace_triple(report):
    rows = [[c.alpha, c.lam, c.mc_mean, c.std_error, c.target, c.within_3se] for c in report.cells]
    return (
        _verdict("laplace_transform", report.passed),
        {"n_cells": len(report.cells), "n_within_3se": report.n_within},
        {
            "laplace_cells": {
                "columns": ["alpha", "lambda", "mc_mean", "std_error", "target", "within_3se"],
                "rows": rows,
            }
        },
    )


def _scaling_triple(report):
    return (
        _verdict("scaling_collapse", report.passed),
        {
            "reference_moment": report.reference,
            "max_deviation_sigmas": report.max_deviation_sigmas,
        },
        {
            "scaling": {
                "columns": ["t", "normalized_moment", "std_error"],
                "rows": [
                    [t, m, s]
                    for t, m, s in zip(report.times, report.normalized_means, report.std_errors)
                ],
            }
        },
    )


def _ibp_triple(report):
    return (
        {
            **_verdict("brackets_intersect", report.all_brackets_intersect),
            **_verdict("abel_identity", report.abel_identity),
            **_verdict("classical_integrals", report.classical_integrals),
        },
        {
            "n_paths": report.n_paths,
            "max_abel_discrepancy": report.max_abel_discrepancy,
            "det_power_target": report.det_power_target,
            "det_exp_target": report.det_exp_target,
        },
        {
            "bracket_convergence": {
                "columns": ["grid_levels", "lower_sum", "upper_sum", "gap"],
                "rows": [list(row) for row in report.convergence_rows],
            }
        },
    )


_BUILDERS = {
    "laplace_check": _build_laplace,
    "cdf_check": _build_cdf,
    "scaling": _build_scaling,
    "moment_bound_theta": _build_bound_theta,
    "moment_bound_exp": _build_bound_exp,
    "blowup": _build_blowup,
    "ibp_consistency": _build_ibp,
    "kernel_classify": _build_classify,
    "verify_all": _build_verify_all,
}
