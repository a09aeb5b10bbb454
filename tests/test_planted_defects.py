"""Planted defects: each row swaps one library function for a wrong version
and names what must fail when a command runs on it.

A row's expected failure is either the set of `verify-all` verdicts that
fail (every other verdict passes) or the text of the internal error that
ends the run with exit status 3.  The same commands pass every verdict on
the real library, so a row's failures are the defect's.  The defects live
only here.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

import stablesub.experiments as experiments
import stablesub.integrals as integrals
import stablesub.reporting as reporting
import stablesub.special as special
import stablesub.subordinator as subordinator
from stablesub.cli import main

MODULES = {module.__name__.rpartition(".")[2]: module
           for module in (subordinator, integrals, special, experiments, reporting)}


def _alpha_off(kanter_draws):
    """Every stability index 3 % too large."""
    return lambda alphas, u, w: kanter_draws([alpha * 1.03 for alpha in alphas], u, w)


def _linear_scale(assemble_paths):
    """Increments scaled by dt instead of dt^(1/alpha)."""
    return lambda draws, grid, alpha: np.cumsum(draws * np.diff(grid.points, prepend=0.0), axis=1)


def _first_cell_dropped(assemble_paths):
    """No increment over (0, epsilon]."""
    def assemble(draws, grid, alpha):
        draws = draws.copy()
        draws[:, 0] = 0.0
        return assemble_paths(draws, grid, alpha)
    return assemble


def _tripled(bracket_sums):
    return lambda *args: tuple(3.0 * side for side in bracket_sums(*args))


def _swapped(bracket_sums):
    return lambda *args: bracket_sums(*args)[::-1]


def _gamma_off(gamma_fn):
    return lambda x: gamma_fn(x) * (1.0 + 1e-5)


def _abel_off_by_one(abel_discrepancies):
    """Summation by parts pairs each df_i with S_{t_i} instead of S_{t_{i+1}}."""
    def discrepancies(points, values, thetas):
        f = points ** -thetas[:, None]
        left_sum = np.vecdot(f[:, :-1], np.diff(values, axis=1))
        right_sum = np.vecdot(values[:, :-1], np.diff(f, axis=1))
        boundary = f[:, -1] * values[:, -1] - f[:, 0] * values[:, 0]
        scale = np.abs(left_sum) + np.abs(right_sum) + np.abs(boundary)
        return np.abs(left_sum + right_sum - boundary) / scale
    return discrepancies


def _bound_over(divisor: float):
    """A moment bound `divisor` times too small.  The largest single term's
    p-th moment on the default 40-cell grids stays below the wrong bound
    (below 0.14 of the true exponential bound), so the cells still run and
    the verdict, not the grid check, must catch it."""
    return lambda moment_bound: lambda *args: moment_bound(*args) / divisor


# (defect, patched function, command, expected failure), each measured at the default seed.
DEFECTS = [
    ("alpha 3 % off", "subordinator.kanter_draws", _alpha_off, "verify-all --replicates 20000",
     {"laplace.laplace_transform", "cdf.distribution_ks", "frac_moment_chain.mc_matches_oracle"}),
    ("paths scaled by dt", "subordinator._assemble_paths", _linear_scale, "verify-all --replicates 3000",
     {"blowup_slopes.slopes_match", "bound_theta_grid.all_cells_pass",
      "finiteness_stabilization.median_change_below_1pct"}),
    ("(0, epsilon] cell dropped", "subordinator._assemble_paths", _first_cell_dropped,
     "verify-all --replicates 3000", {"blowup_slopes.slopes_match"}),
    ("bracket sums tripled", "integrals.power_bracket_sums", _tripled, "verify-all --replicates 3000",
     {"ibp.brackets_intersect", "ibp.classical_integrals"}),
    ("gamma 1e-5 off", "special.gamma_fn", _gamma_off, "verify-all --replicates 3000",
     {"frac_moment_chain.quadrature_agrees_closed_form"}),
    ("Abel sum off by one", "integrals._abel_discrepancies", _abel_off_by_one,
     "verify-all --replicates 3000", {"ibp.abel_identity"}),
    ("exp bound a third", "integrals.ExpKernel.moment_bound", _bound_over(3.0),
     "verify-all --replicates 3000", {"bound_exp_grid.all_cells_pass"}),
    # A third is not caught here, and a tenth trips the grid check (exit 3).
    ("power bound a fifth", "integrals.SingularKernel.moment_bound", _bound_over(5.0),
     "verify-all --replicates 3000", {"bound_theta_grid.all_cells_pass"}),
    ("power bound a tenth", "integrals.SingularKernel.moment_bound", _bound_over(10.0),
     "verify-all --replicates 3000", "grid.levels = 40 is too coarse"),
    ("bracket sides swapped", "integrals.power_bracket_sums", _swapped, "ibp --alpha 0.5 --theta 1",
     "invalid bracket"),
    ("bracket sides swapped", "integrals.power_bracket_sums", _swapped,
     "bound-theta --alpha 0.5 --theta 1 --replicates 20000", "invalid bracket"),
]
# verify-all verdicts that no row makes fail yet.
UNCAUGHT = {"scaling.scaling_collapse"}


def _invoke(command: str):
    result = CliRunner().invoke(main, command.split())
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def _verdicts(command: str) -> dict:
    return json.loads(_invoke(command).output)["verdicts"]


def _planted(monkeypatch, target: str, defect, command: str):
    """The CLI result of `command` with `target` replaced wherever a module
    binds it, or on its class when `target` is "module.Class.method"."""
    module_name, _, attr = target.partition(".")
    class_name, _, method = attr.rpartition(".")
    if class_name:
        owner = getattr(MODULES[module_name], class_name)
        monkeypatch.setattr(owner, method, defect(vars(owner)[method]))
    else:
        real = getattr(MODULES[module_name], attr)
        wrong = defect(real)
        for module in MODULES.values():
            for name, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, name, wrong)
    # A defect may drive a median to 0, whose log warns; the verdicts tell.
    with np.errstate(divide="ignore"):
        return _invoke(command)


@pytest.mark.parametrize("command", sorted({row[3] for row in DEFECTS}))
def test_commands_pass_on_the_real_library(command):
    verdicts = _verdicts(command)
    assert verdicts and set(verdicts.values()) == {"pass"}, verdicts


@pytest.mark.parametrize("label, target, defect, command, expected", DEFECTS,
                         ids=[f"{row[0]}: {row[3].split()[0]}" for row in DEFECTS])
def test_planted_defect_fails(monkeypatch, label, target, defect, command, expected):
    result = _planted(monkeypatch, target, defect, command)
    if isinstance(expected, str):
        # An internal error, not a failed verdict: one error line, status 3.
        assert result.exit_code == 3, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {expected}"), result.stderr
        assert result.stdout == ""
        return
    verdicts = json.loads(result.output)["verdicts"]
    assert {name for name, verdict in verdicts.items() if verdict == "fail"} == expected


def test_every_verify_all_verdict_is_caught_but_the_pinned_few():
    verdicts = set(_verdicts("verify-all --replicates 3000"))
    caught = set().union(*(row[4] for row in DEFECTS if isinstance(row[4], set)))
    assert caught <= verdicts
    assert verdicts - caught == UNCAUGHT


def _refusal(only_levels=None):
    """A check that refuses every cell, or only a blowup cell `only_levels` deep."""
    def refuse(real):
        def check(*args):
            if only_levels is None or args[3] == only_levels:
                raise ValueError("planted refusal")
            return real(*args)
        return check
    return refuse


# (check that refuses, its arguments' filter, the verify-all section whose cell it refuses)
SECTION_CHECKS = [
    ("experiments._check_laplace_args", None, "laplace"),
    ("experiments._check_cdf_args", None, "cdf"),
    ("experiments._check_scaling_args", None, "scaling"),
    ("experiments._moment_cell", None, "bound_theta_grid/bound_exp_grid"),
    ("experiments._check_blowup_args", None, "blowup_slopes"),
    ("experiments._check_blowup_args", 40, "finiteness_stabilization"),
    ("experiments._check_ibp_grid", None, "ibp"),
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("target, only_levels, section", SECTION_CHECKS, ids=[row[2] for row in SECTION_CHECKS])
def test_a_refused_verify_all_cell_is_an_internal_error(monkeypatch, target, only_levels, section, workers):
    # verify-all's own config was valid, so a section that refuses one of its
    # fixed cells is the library's fault: exit 3, naming the section, not the
    # ConfigError exit 2 that blames the caller's config.
    result = _planted(monkeypatch, target, _refusal(only_levels),
                      f"verify-all --replicates 3000 --workers {workers}")
    assert result.exit_code == 3, result.output
    assert result.stderr.splitlines() == [f"error: planted refusal (a cell of verify-all section {section})"]
