"""Command-line driver: one subcommand per experiment plus verify-all.

Exit status is 0 only when every verdict passes; configuration errors exit
with status 2 and name the offending key, and so does a sampler that leaves
double range (naming alpha).  Without --out the full JSON record
goes to stdout; with --out the record and companion CSVs are written to files
and a short verdict summary is printed instead.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .config import _DEFAULTS, ConfigError, _object, config_from_mapping, parse_document
from .experiments import LAPLACE_ALPHAS
from .reporting import record_to_json, run
from .subordinator import NonFiniteDrawError


def _listed(values) -> str:
    return " ".join(f"{value:g}" for value in values)


# A flag is (flag, config key, type, help); a key "grid_<name>" sets grid.<name>.
_COMMON = (
    ("--seed", "master_seed", int, "Master seed."),
    ("--replicates", "n_replicates", int, "Replicate count."),
    ("--workers", "workers", int, "Parallel worker processes."),
    ("--out", "output_path", click.Path(), "Output stem: writes <out>.json plus companion CSVs."),
)
_GRID = (
    ("--grid-kind", "grid_kind", click.Choice(["geometric", "uniform"]), None),
    ("--grid-levels", "grid_levels", int, None),
    ("--grid-q", "grid_q", float, None),
    ("--grid-epsilon", "grid_epsilon", float, None),
)
_ALPHA = ("--alpha", "alpha", float, None)
_THETA = ("--theta", "theta", float, None)
_P = ("--p", "p", float, None)
_T = ("--T", "T", float, None)

# Subcommand -> (experiment, help, flags after the common ones).  A flag whose
# type is a list is repeatable.
_COMMANDS = {
    "laplace": ("laplace_check", "Laplace-transform fidelity of the sampler over an (alpha, lambda) grid.", (
        ("--alpha", "alpha", [float],
         f"Stability index; repeatable. Default grid: {_listed(LAPLACE_ALPHAS)}."),
    )),
    "cdf": ("cdf_check", "Kolmogorov-Smirnov check of alpha = 1/2 draws against the closed-form CDF.", ()),
    "scaling": ("scaling", "Self-similarity collapse of normalized fractional moments across horizons.", (
        _ALPHA, _P,
        ("--times", "times", [float], f"Horizons; default {_listed(_DEFAULTS['scaling']['times'])}."),
    )),
    "bound-theta": ("moment_bound_theta",
                    "Power-kernel moment bound check: MC mean of the bracketed integral^p vs bound.",
                    (*_GRID, _ALPHA, _THETA, _P, _T)),
    "bound-exp": ("moment_bound_exp", "Exponential-kernel moment bound check (kernel e^(-lambda (T-t))).",
                  (*_GRID, _ALPHA, ("--lambda", "lambda", float, None), _P, _T)),
    "blowup": ("blowup", "Blow-up diagnostic: log-log slope of scaled near-origin medians.", (
        _ALPHA, _THETA,
        ("--levels", "grid_levels", int,
         f"Deepest epsilon level 2^-levels; default {_DEFAULTS['blowup']['grid']['levels']:g}."),
    )),
    "ibp": ("ibp_consistency", "Dual-route bracket consistency and exact summation-by-parts identity.",
            (_ALPHA, _THETA)),
    "classify": ("kernel_classify", "Analytic short-time classification of S_t against the power t^theta.",
                 (_ALPHA, ("--theta", "theta", float, "Exponent c of the comparison power t^c."))),
    "verify-all": ("verify_all", "Run the full acceptance grid; nonzero exit if any verdict fails.", ()),
}


def _execute(experiment: str, config_path, **flags) -> None:
    try:
        text = Path(config_path).read_text(encoding="utf-8") if config_path else "{}"
        payload = parse_document(text)
        payload["experiment"] = experiment
        grid = dict(_object(payload.get("grid"), "grid"))
        for key, value in flags.items():
            if value is None or value == ():  # flag not given
                continue
            value = list(value) if isinstance(value, tuple) else value
            if key.startswith("grid_"):
                grid[key.removeprefix("grid_")] = value
            else:
                payload[key] = value
        if grid:
            payload["grid"] = grid
        config = config_from_mapping(payload)
        record = run(config)
    except (ConfigError, NonFiniteDrawError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    if config.output_path:
        for name in sorted(record.verdicts):
            click.echo(f"[{record.verdicts[name].upper()}] {name}")
        click.echo(f"record written to {Path(config.output_path).with_suffix('.json')}")
    else:
        click.echo(record_to_json(record), nl=False)
    sys.exit(0 if record.passed else 1)


@click.group()
def main():
    """Stable-subordinator simulation and singular-integral experiments."""


def _command(name: str, experiment: str, summary: str, flags: tuple) -> click.Command:
    options = [click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False),
                            help="JSON config document; explicit flags override it.")]
    for flag, key, kind, flag_help in _COMMON + flags:
        repeatable = isinstance(kind, list)
        options.append(click.Option([flag, key], type=kind[0] if repeatable else kind,
                                    multiple=repeatable, help=flag_help))
    return click.Command(name, params=options, help=summary, callback=functools.partial(_execute, experiment))


for _name, _spec in _COMMANDS.items():
    main.add_command(_command(_name, *_spec))

if __name__ == "__main__":
    main()
