"""Command-line driver: one subcommand per experiment plus verify-all.

Exit status is 0 only when every verdict passes and 1 when one fails;
configuration errors exit with status 2 and name the offending key, and so
does a sampler that leaves double range (naming alpha).  Any other error that
ends the run is an internal error: it prints one `error:` line and exits with
status 3.  Without --out the full JSON record goes to stdout; with --out the
record and companion CSVs are written to files and a short verdict summary is
printed instead.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .config import _DEFAULTS, ConfigError, _object, config_from_mapping, parse_document
from .reporting import record_to_json, run
from .subordinator import NonFiniteDrawError

# Config key -> (flag, type, help) of every key a run may read; a subcommand
# takes the flags of the keys its experiment's _DEFAULTS entry lists.
_FLAGS = {
    "alpha": ("--alpha", float, "Stability index."),
    "theta": ("--theta", float, "Kernel exponent."),
    "p": ("--p", float, "Moment order."),
    "lambda": ("--lambda", float, "Rate of the kernel e^(-lambda (T - t))."),
    "T": ("--T", float, "Horizon T: the grid ends there."),
    "times": ("--times", float, "Horizon t of S_t."),
    "grid.kind": ("--grid-kind", click.Choice(["geometric", "uniform"]), "Grid kind."),
    "grid.levels": ("--grid-levels", int, "Number of grid cells."),
    "grid.q": ("--grid-q", float, "Ratio of a geometric grid."),
    "grid.epsilon": ("--grid-epsilon", float, "First grid point."),
    "n_replicates": ("--replicates", int, "Replicate count."),
    "master_seed": ("--seed", int, "Master seed."),
    "workers": ("--workers", int, "Parallel worker processes, at most one per usable CPU."),
}

# Subcommand -> (experiment, help).
_COMMANDS = {
    "laplace": ("laplace_check", "Laplace-transform fidelity of the sampler over an (alpha, lambda) grid."),
    "cdf": ("cdf_check", "Kolmogorov-Smirnov check of alpha = 1/2 draws against the closed-form CDF."),
    "scaling": ("scaling", "Self-similarity collapse of normalized fractional moments across horizons."),
    "bound-theta": ("moment_bound_theta",
                    "Power-kernel moment bound check: MC mean of the bracketed integral^p vs bound."),
    "bound-exp": ("moment_bound_exp", "Exponential-kernel moment bound check (kernel e^(-lambda (T-t)))."),
    "blowup": ("blowup", "Blow-up diagnostic: log-log slope of scaled near-origin medians."),
    "ibp": ("ibp_consistency", "Dual-route bracket consistency and exact summation-by-parts identity."),
    "classify": ("kernel_classify",
                 "Analytic short-time classification of S_t against the power t^c, c = --theta."),
    "verify-all": ("verify_all", "Run the full acceptance grid; nonzero exit if any verdict fails."),
}


def _execute(experiment: str, config_path, **flags) -> None:
    try:
        text = Path(config_path).read_text(encoding="utf-8") if config_path else "{}"
        payload = parse_document(text)
        grid = payload.get("grid")
        grid = {} if grid is None else dict(_object(grid, "grid"))
        for key, value in flags.items():
            if value is not None and value != ():  # flag given
                value = list(value) if isinstance(value, tuple) else value
                if key.startswith("grid_"):
                    grid[key.removeprefix("grid_")] = value
                else:
                    payload[key] = value
        payload.update(experiment=experiment, grid=grid)
        config = config_from_mapping(payload)
        record = run(config)
    except (ConfigError, NonFiniteDrawError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # an internal error, not a failed verdict
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)

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


def _command(name: str, experiment: str, summary: str) -> click.Command:
    """The subcommand: --config, one flag per key the experiment reads, --out.
    A key whose default is a tuple takes a repeatable flag; a default that is
    a value, not a marker or a rule, is shown in the flag's help."""
    options = [click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False),
                            help="JSON config document; explicit flags override it.")]
    for key, default in _DEFAULTS[experiment].items():
        flag, kind, text = _FLAGS[key]
        repeatable = isinstance(default, tuple)
        if repeatable:
            text += " Repeatable."
        if isinstance(default, (int, float, str, tuple)):
            text += f" Default: {' '.join(map(str, default if repeatable else (default,)))}."
        # A key "grid.<name>" reaches _execute as grid_<name>.
        options.append(click.Option([flag, key.replace(".", "_")], type=kind, multiple=repeatable,
                                    help=text))
    options.append(click.Option(["--out", "output_path"], type=click.Path(),
                                help="Output stem: writes <out>.json plus companion CSVs."))
    return click.Command(name, params=options, help=summary, callback=functools.partial(_execute, experiment))


for _name, _spec in _COMMANDS.items():
    main.add_command(_command(_name, *_spec))

if __name__ == "__main__":
    main()
