"""Command-line driver: one subcommand per experiment plus verify-all.

Exit status is 0 only when every verdict passes; configuration errors exit
with status 2 and name the offending key.  Without --out the full JSON record
goes to stdout; with --out the record and companion CSVs are written to files
and a short verdict summary is printed instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .config import ConfigError, config_from_mapping, parse_document
from .reporting import record_to_json, run


def _common_options(fn):
    options = [
        click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="JSON config document; explicit flags override it."),
        click.option("--seed", type=int, default=None, help="Master seed."),
        click.option("--replicates", type=int, default=None, help="Replicate count."),
        click.option("--workers", type=int, default=None, help="Parallel worker processes."),
        click.option("--out", "output_path", type=click.Path(), default=None,
                     help="Output stem: writes <out>.json plus companion CSVs."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _grid_options(fn):
    options = [
        click.option("--grid-kind", type=click.Choice(["geometric", "uniform"]), default=None),
        click.option("--grid-levels", type=int, default=None),
        click.option("--grid-q", type=float, default=None),
        click.option("--grid-epsilon", type=float, default=None),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _execute(experiment: str, config_path, overrides: dict, grid_overrides: dict) -> None:
    try:
        text = Path(config_path).read_text(encoding="utf-8") if config_path else "{}"
        payload = parse_document(text)
        payload["experiment"] = experiment
        for key, value in overrides.items():
            if value is not None:
                payload[key] = value
        grid = dict(payload.get("grid") or {})
        for key, value in grid_overrides.items():
            if value is not None:
                grid[key] = value
        if grid:
            payload["grid"] = grid
        config = config_from_mapping(payload)
        record = run(config)
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    if config.output_path:
        for name in sorted(record.verdicts):
            click.echo(f"[{record.verdicts[name].upper()}] {name}")
        click.echo(f"record written to {Path(config.output_path).with_suffix('.json')}")
    else:
        click.echo(record_to_json(record), nl=False)
    sys.exit(0 if record.passed else 1)


def _collect(seed, replicates, workers, output_path, **extra) -> dict:
    overrides = {
        "master_seed": seed,
        "n_replicates": replicates,
        "workers": workers,
        "output_path": output_path,
    }
    overrides.update(extra)
    return overrides


@click.group()
def main():
    """Stable-subordinator simulation and singular-integral experiments."""


@main.command()
@_common_options
@click.option("--alpha", type=float, multiple=True, help="Stability index; repeatable. Default grid: 0.3 0.5 0.7.")
def laplace(config_path, seed, replicates, workers, output_path, alpha):
    """Laplace-transform fidelity of the sampler over an (alpha, lambda) grid."""
    extra = {"alpha": list(alpha)} if alpha else {}
    _execute("laplace_check", config_path, _collect(seed, replicates, workers, output_path, **extra), {})


@main.command()
@_common_options
def cdf(config_path, seed, replicates, workers, output_path):
    """Kolmogorov-Smirnov check of alpha = 1/2 draws against the closed-form CDF."""
    _execute("cdf_check", config_path, _collect(seed, replicates, workers, output_path), {})


@main.command()
@_common_options
@click.option("--alpha", type=float, default=None)
@click.option("--p", type=float, default=None)
@click.option("--times", type=float, multiple=True, help="Horizons; default 0.25 1 4.")
def scaling(config_path, seed, replicates, workers, output_path, alpha, p, times):
    """Self-similarity collapse of normalized fractional moments across horizons."""
    extra = {"alpha": alpha, "p": p}
    if times:
        extra["times"] = list(times)
    _execute("scaling", config_path, _collect(seed, replicates, workers, output_path, **extra), {})


@main.command("bound-theta")
@_common_options
@_grid_options
@click.option("--alpha", type=float, default=None)
@click.option("--theta", type=float, default=None)
@click.option("--p", type=float, default=None)
@click.option("--T", "horizon", type=float, default=None)
def bound_theta(config_path, seed, replicates, workers, output_path,
                grid_kind, grid_levels, grid_q, grid_epsilon, alpha, theta, p, horizon):
    """Power-kernel moment bound check: MC mean of the bracketed integral^p vs bound."""
    extra = {"alpha": alpha, "theta": theta, "p": p, "T": horizon}
    grid = {"kind": grid_kind, "levels": grid_levels, "q": grid_q, "epsilon": grid_epsilon}
    _execute("moment_bound_theta", config_path, _collect(seed, replicates, workers, output_path, **extra), grid)


@main.command("bound-exp")
@_common_options
@_grid_options
@click.option("--alpha", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--p", type=float, default=None)
@click.option("--T", "horizon", type=float, default=None)
def bound_exp(config_path, seed, replicates, workers, output_path,
              grid_kind, grid_levels, grid_q, grid_epsilon, alpha, lam, p, horizon):
    """Exponential-kernel moment bound check (kernel e^(-lambda (T-t)))."""
    extra = {"alpha": alpha, "lambda": lam, "p": p, "T": horizon}
    grid = {"kind": grid_kind, "levels": grid_levels, "q": grid_q, "epsilon": grid_epsilon}
    _execute("moment_bound_exp", config_path, _collect(seed, replicates, workers, output_path, **extra), grid)


@main.command()
@_common_options
@click.option("--alpha", type=float, default=None)
@click.option("--theta", type=float, default=None)
@click.option("--levels", type=int, default=None, help="Deepest epsilon level 2^-levels; default 30.")
def blowup(config_path, seed, replicates, workers, output_path, alpha, theta, levels):
    """Blow-up diagnostic: log-log slope of scaled near-origin medians."""
    extra = {"alpha": alpha, "theta": theta}
    _execute("blowup", config_path, _collect(seed, replicates, workers, output_path, **extra),
             {"levels": levels})


@main.command()
@_common_options
@click.option("--alpha", type=float, default=None)
@click.option("--theta", type=float, default=None)
def ibp(config_path, seed, replicates, workers, output_path, alpha, theta):
    """Dual-route bracket consistency and exact summation-by-parts identity."""
    extra = {"alpha": alpha, "theta": theta}
    _execute("ibp_consistency", config_path, _collect(seed, replicates, workers, output_path, **extra), {})


@main.command()
@_common_options
@click.option("--alpha", type=float, default=None)
@click.option("--theta", type=float, default=None, help="Exponent c of the comparison power t^c.")
def classify(config_path, seed, replicates, workers, output_path, alpha, theta):
    """Analytic short-time classification of S_t against the power t^theta."""
    extra = {"alpha": alpha, "theta": theta}
    _execute("kernel_classify", config_path, _collect(seed, replicates, workers, output_path, **extra), {})


@main.command("verify-all")
@_common_options
def verify_all(config_path, seed, replicates, workers, output_path):
    """Run the full acceptance grid; nonzero exit if any verdict fails."""
    _execute("verify_all", config_path, _collect(seed, replicates, workers, output_path), {})


if __name__ == "__main__":
    main()
