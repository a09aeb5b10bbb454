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

from .config import _EXPERIMENTS, _SETTINGS, ConfigError, _integer, _object
from .config import config_from_mapping, parse_document
from .reporting import record_to_json, run, write_record
from .subordinator import NonFiniteDrawError


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
        written = write_record(record, Path(config.output_path)) if config.output_path else None
    except (ConfigError, NonFiniteDrawError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # an internal error, not a failed verdict
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)

    if written:
        for name in sorted(record.verdicts):
            click.echo(f"[{record.verdicts[name].upper()}] {name}")
        click.echo(f"record written to {written[0]}")
    else:
        click.echo(record_to_json(record), nl=False)
    sys.exit(0 if record.passed else 1)


@click.group()
def main():
    """Stable-subordinator simulation and singular-integral experiments."""


def _command(row) -> click.Command:
    """The subcommand of an experiment's row: --config, one flag per key its
    run reads, --out.  A flag takes one of the key's allowed values if it has
    any, else an int where the key parses an integer, else a float.  A key
    whose default is a tuple takes a repeatable flag; a default that is a
    value, not a marker or a rule, is shown in the flag's help."""
    options = [click.Option(["--config", "config_path"], type=click.Path(exists=True, dir_okay=False),
                            help="JSON config document; explicit flags override it.")]
    for key, default in row.reads.items():
        meta = _SETTINGS[key].metadata
        kind = int if meta["parse"] is _integer else float
        kind = click.Choice(meta["choices"]) if meta["choices"] else kind
        text = meta["help"]
        repeatable = isinstance(default, tuple)
        if repeatable:
            text += " Repeatable."
        if isinstance(default, (int, float, str, tuple)):
            text += f" Default: {' '.join(map(str, default if repeatable else (default,)))}."
        # A key "grid.<name>" reaches _execute as grid_<name>.
        options.append(click.Option([meta["flag"] or "--" + key.replace(".", "-"), key.replace(".", "_")],
                                    type=kind, multiple=repeatable, help=text))
    options.append(click.Option(["--out", "output_path"], type=click.Path(),
                                help="Output stem: writes <out>.json plus companion CSVs."))
    return click.Command(row.command, params=options, help=row.summary,
                         callback=functools.partial(_execute, row.name))


for _row in _EXPERIMENTS.values():
    main.add_command(_command(_row))

if __name__ == "__main__":
    main()
