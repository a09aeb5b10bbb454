"""Acceptance suite: every top-level criterion at its stated scale and tolerance.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or on failure) in addition to its asserts.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from stablesub import (
    ExpKernel,
    FracMomentQuery,
    SeedSpec,
    SingularKernel,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    abel_identity_check,
    deterministic_path,
    draw_standard_samples,
    frac_moment_closed_form,
    frac_moment_quadrature,
    ibp_estimate,
    run_blowup_diagnostics,
    run_cdf_check,
    run_laplace_check,
    run_moment_checks,
    run_scaling_check,
    sample_path_values,
    stieltjes_bracket,
)
from stablesub.cli import main
from stablesub.reporting import comparable_record_json

SEED = 12345


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_laplace_transform_fidelity():
    rep = run_laplace_check(n_replicates=100_000, master_seed=SEED)
    report(
        "criterion 1 (Laplace transform fidelity)",
        rep.n_within >= 8,
        f"{rep.n_within}/9 cells within 3 SE at N=1e5",
    )


def test_criterion_02_half_stable_distribution_oracle():
    rep = run_cdf_check(n_replicates=100_000, master_seed=SEED)
    report(
        "criterion 2 (alpha=1/2 distribution oracle)",
        rep.ks_distance < rep.critical_value,
        f"KS distance {rep.ks_distance:.6f} below 1% critical {rep.critical_value:.6f}",
    )


def test_criterion_03_fractional_moment_oracle_chain():
    differences = []
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for p in (alpha / 4.0, alpha / 2.0, 3.0 * alpha / 4.0):
            for t in (0.25, 1.0, 4.0):
                query = FracMomentQuery(alpha, p, t)
                closed = frac_moment_closed_form(query)
                differences.append(abs(frac_moment_quadrature(query) - closed) / closed)
    worst = np.max(differences)  # a NaN cell fails the criterion
    # own substream (cell 3) so this heavy-tailed statistic is drawn
    # independently of the other criteria
    draws = draw_standard_samples(0.5, 1_000_000, SEED, cell=3)
    powered = draws**0.25
    mc_mean = powered.mean()
    se = powered.std(ddof=1) / math.sqrt(powered.size)
    oracle = frac_moment_closed_form(FracMomentQuery(0.5, 0.25, 1.0))
    ok = worst <= 1e-6 and abs(mc_mean - oracle) <= 3.0 * se
    report(
        "criterion 3 (fractional moment oracle chain)",
        ok,
        f"36-cell max rel diff {worst:.2e} <= 1e-6; MC {mc_mean:.5f} vs oracle "
        f"{oracle:.5f} within 3 SE ({se:.5f}) at N=1e6",
    )


def test_criterion_04_scaling_collapse():
    rep = run_scaling_check(StableParams(0.5), 0.25, n_replicates=100_000, master_seed=SEED)
    report(
        "criterion 4 (scaling collapse)",
        rep.max_deviation_sigmas <= 3.0,
        f"max pairwise deviation {rep.max_deviation_sigmas:.2f} combined SEs over t in {rep.times}",
    )


# Criteria 5 and 6 at their stated scale: 12 power-kernel and 6
# exponential-kernel cells.
THETA_CELLS = [
    (alpha, frac / alpha, p)
    for alpha in (0.3, 0.5, 0.7) for frac in (0.5, 0.8) for p in (alpha / 4.0, alpha / 2.0)
]
EXP_CELLS = [(lam, T) for lam in (0.5, 1.0, 2.0) for T in (1.0, 5.0)]


@pytest.fixture(scope="module")
def bound_reports():
    """The reports of criteria 5 and 6 from one run_moment_checks call, whose
    18 cells share one sampling pass; each report equals its one-cell call."""
    cells = [(StableParams(alpha), SingularKernel(theta=theta, T=1.0), p, None)
             for alpha, theta, p in THETA_CELLS]
    cells += [(StableParams(0.5), ExpKernel(lam=lam, T=T), 0.25, None) for lam, T in EXP_CELLS]
    reports = run_moment_checks(cells, n_replicates=100_000, master_seed=SEED)
    return reports[: len(THETA_CELLS)], reports[len(THETA_CELLS) :]


def test_criterion_05_power_kernel_moment_bound(bound_reports):
    failures = []
    reference_checked = False
    for (alpha, theta, p), rep in zip(THETA_CELLS, bound_reports[0], strict=True):
        if not rep.passed:
            failures.append((alpha, theta, p))
        if (alpha, theta, p) == (0.5, 1.0, 0.25):
            reference_checked = True
            assert rep.bound_value == pytest.approx(11.811069891303610336, rel=1e-12)
    assert reference_checked
    report(
        "criterion 5 (power-kernel moment bound)",
        not failures,
        f"12/12 grid cells pass at N=1e5; reference bound 11.811" if not failures
        else f"failing cells: {failures}",
    )


def test_criterion_06_exponential_kernel_moment_bound(bound_reports):
    failures = []
    for (lam, T), rep in zip(EXP_CELLS, bound_reports[1], strict=True):
        if lam == 1.0:
            assert rep.bound_value == pytest.approx(6.5389430609918908993, rel=1e-12)
        if not rep.passed:
            failures.append((lam, T))
    report(
        "criterion 6 (exponential-kernel moment bound)",
        not failures,
        "6/6 (lambda, T) cells pass at N=1e5; reference bound 6.539" if not failures
        else f"failing cells: {failures}",
    )


def test_criterion_07_blowup_slope_law():
    details = []
    ok = True
    thetas = tuple(2.0 + gap for gap in (0.5, 1.0, 2.0))  # alpha = 0.5 so the threshold sits at 2
    reports = run_blowup_diagnostics(
        StableParams(0.5), thetas, max_level=30, n_replicates=10_000, master_seed=SEED,
    )
    for theta, rep in zip(thetas, reports, strict=True):
        ok &= abs(rep.fitted_slope - rep.expected_slope) <= 0.1
        details.append(f"theta={theta}: {rep.fitted_slope:.3f} vs {rep.expected_slope}")
    report("criterion 7 (blow-up slope law)", ok, "; ".join(details))


def test_criterion_08_finiteness_stabilization():
    [rep] = run_blowup_diagnostics(
        StableParams(0.5), (1.0,), max_level=40, n_replicates=10_000, master_seed=SEED,
    )
    med = dict(zip(rep.epsilons, rep.lower_sum_medians))
    change = abs(med[2.0**-40] - med[2.0**-35]) / med[2.0**-35]
    report(
        "criterion 8 (finiteness stabilization)",
        change < 0.01,
        f"median truncated lower sum changes {change:.2e} between eps=2^-35 and 2^-40",
    )


def test_criterion_09_exact_identities():
    grid = TimeGrid.geometric(1.0, levels=40, q=0.5)
    values = sample_path_values(StableParams(0.5), grid, SeedSpec(SEED, 9), 1000)
    rng = np.random.default_rng(SEED)
    discrepancies = []
    for row in values:
        path = SubordinatorPath(grid=grid, values=row)
        theta = 0.05 + 4.0 * rng.random()
        discrepancies.append(abel_identity_check(path, SingularKernel(theta=theta, T=1.0)))
    worst = np.max(discrepancies)  # a NaN discrepancy fails the criterion
    det = deterministic_path(grid)
    power = stieltjes_bracket(det, SingularKernel(theta=0.5, T=1.0))
    power_ok = power.contains(2.0 * (1.0 - math.sqrt(grid.epsilon)))
    exp_grid = TimeGrid.uniform(1.0, levels=40)
    exp_bracket = stieltjes_bracket(deterministic_path(exp_grid), ExpKernel(lam=1.0, T=1.0))
    exp_ok = exp_bracket.contains(1.0 - math.exp(-(1.0 - exp_grid.epsilon)))
    ok = worst <= 1e-10 and power_ok and exp_ok
    report(
        "criterion 9 (exact identities)",
        ok,
        f"Abel discrepancy {worst:.2e} <= 1e-10 on 1000 pairs; "
        f"deterministic integrals 2 and 1-1/e inside brackets: {power_ok}, {exp_ok}",
    )


def test_criterion_10_dual_route_consistency():
    grid = TimeGrid.geometric(1.0, levels=40, q=0.5)
    values = sample_path_values(StableParams(0.5), grid, SeedSpec(SEED, 10), 1000)
    kernel = SingularKernel(theta=1.0, T=1.0)
    misses = 0
    for row in values:
        path = SubordinatorPath(grid=grid, values=row)
        if not stieltjes_bracket(path, kernel).intersects(ibp_estimate(path, kernel)):
            misses += 1
    report(
        "criterion 10 (IBP/endpoint-sum consistency)",
        misses == 0,
        f"brackets intersect on 1000/1000 paths ({misses} misses)",
    )


def test_criterion_11_reproducibility(tmp_path):
    runner = CliRunner()
    base = ["verify-all", "--seed", "777", "--replicates", "10000"]
    runs = {
        "a": base + ["--out", str(tmp_path / "a" / "rec")],
        "b": base + ["--out", str(tmp_path / "b" / "rec")],
        "c": base + ["--workers", "8", "--out", str(tmp_path / "c" / "rec")],
    }
    for name, args in runs.items():
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"verify-all run {name} failed: {result.output}"
    a = comparable_record_json((tmp_path / "a" / "rec.json").read_text())
    b = comparable_record_json((tmp_path / "b" / "rec.json").read_text())
    c = comparable_record_json((tmp_path / "c" / "rec.json").read_text())
    report(
        "criterion 11 (verify-all reproducibility)",
        a == b == c,
        "numeric records byte-identical across two runs and 1-vs-8 workers",
    )


# The comparable record of `verify-all --seed 777 --replicates 10000`.  A change
# that moves the record on purpose regenerates it:
#   PYTHONPATH=src python -m stablesub.cli verify-all --seed 777 --replicates 10000 \
#   | PYTHONPATH=src python -c "import sys, stablesub.reporting as r; print(r.comparable_record_json(sys.stdin.read()), end='')" \
#   > tests/data/verify_all_seed777_10k.json
RECORD_FIXTURE = Path(__file__).parent / "data" / "verify_all_seed777_10k.json"


def _assert_matches(actual, expected, where="record", rel_tol=1e-9):
    """Same keys, verdicts, strings and integers; floats within `rel_tol`
    relative or 1e-12 absolute, since BLAS kernels may move their last bits."""
    assert type(actual) is type(expected), where
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}", rel_tol)
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{index}]", rel_tol)
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=1e-12), (where, actual, expected)
    else:
        assert actual == expected, where


def test_verify_all_record_matches_its_fixture():
    result = CliRunner().invoke(main, ["verify-all", "--seed", "777", "--replicates", "10000"])
    assert result.exit_code == 0, result.output
    actual = json.loads(comparable_record_json(result.output))
    _assert_matches(actual, json.loads(RECORD_FIXTURE.read_text()))


# Settings that make numpy pick other BLAS kernels or SIMD loops.  Each moves
# the record's last bits, so byte identity holds only within one build; the
# verdicts, strings and integers must not move, and floats only by rounding.
# Measured at this scale, the worst relative change is 1.1e-14 (a blowup slope
# residual), and ibp.max_abel_discrepancy, rounding noise near 5e-16, moves by
# 2.4e-16: both well inside 1e-12 relative or 1e-12 absolute.
BUILD_SETTINGS = {
    "OpenBLAS Prescott kernel": {"OPENBLAS_CORETYPE": "Prescott"},
    "OpenBLAS Haswell kernel": {"OPENBLAS_CORETYPE": "Haswell"},
    "no AVX-512 loops": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}
SETTING_KEYS = {key for setting in BUILD_SETTINGS.values() for key in setting}


def _child_env():
    """This environment without the build settings, with the package's source first on the path."""
    env = {key: value for key, value in os.environ.items() if key not in SETTING_KEYS}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_verify_all_verdicts_hold_across_blas_kernels_and_simd_targets():
    args = ["verify-all", "--seed", "777", "--replicates", "3000"]
    env = _child_env()
    runs = {
        name: subprocess.Popen([sys.executable, "-m", "stablesub.cli", *args], env={**env, **setting},
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name, setting in BUILD_SETTINGS.items()
    }
    # The reference runs in this process while the others start.
    reference = json.loads(comparable_record_json(CliRunner().invoke(main, args).output))
    for name, run in runs.items():
        out, err = run.communicate(timeout=300)
        # A failed verdict exits 1; the comparison decides.
        assert run.returncode in (0, 1), (name, err)
        _assert_matches(json.loads(comparable_record_json(out)), reference, name, rel_tol=1e-12)


# Prepended to a child's code: every import of scipy or a submodule fails.
BLOCK_SCIPY = """
import sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, _BlockScipy())
"""


def test_cli_imports_without_scipy():
    code = (
        "try:\n    import scipy\nexcept ImportError:\n    print('blocked')\n"
        "import stablesub.cli\n"
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy'))\n"
    )
    run = subprocess.run([sys.executable, "-c", BLOCK_SCIPY + code], env=_child_env(),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["blocked", "[]"]


def test_verify_all_loads_no_masked_arrays():
    # np.median would import numpy.ma (about 9 ms) on its first call; the
    # medians are read off the sorted columns instead.
    code = ("import contextlib, io, sys\nfrom stablesub.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    main(['verify-all', '--replicates', '100'])\n"
            "print(sorted(name for name in sys.modules if name.partition('.')[::2] == ('numpy', 'ma')))\n")
    run = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]"]


def test_verify_all_without_scipy_gives_the_same_record():
    # Byte identity holds within one build, so the child is compared byte for
    # byte with this process, and with the fixture as across builds.
    args = ["verify-all", "--replicates", "10000", "--seed", "777", "--workers", "1"]
    child = subprocess.Popen([sys.executable, "-c", BLOCK_SCIPY + "from stablesub.cli import main\nmain()", *args],
                             env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    reference = CliRunner().invoke(main, args)
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    assert comparable_record_json(out) == comparable_record_json(reference.output)
    _assert_matches(json.loads(comparable_record_json(out)), json.loads(RECORD_FIXTURE.read_text()))
