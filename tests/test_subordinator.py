"""Sampler distribution checks, grid/path invariants, seed reproducibility."""

import inspect
import math
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import stablesub.subordinator as subordinator
from stablesub import (
    NonFiniteDrawError,
    SeedSpec,
    StableParams,
    SubordinatorPath,
    TimeGrid,
    deterministic_path,
    ks_distance,
    levy_half_cdf,
    sample_path,
    sample_path_values,
    sample_standard_stable_batch,
)
from stablesub.subordinator import kanter_draws, kanter_inputs


class TestTypes:
    def test_stable_params_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                StableParams(bad)

    def test_seed_spec_domain(self):
        with pytest.raises(ValueError):
            SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            SeedSpec(0, 1 << 64)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            TimeGrid(points=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid.geometric(1.0, levels=40, q=1.5)
        for build in (TimeGrid.geometric, TimeGrid.uniform):
            with pytest.raises(ValueError, match="T must be > 0 and finite, got inf"):
                build(math.inf, levels=40)

    def test_geometric_grid_shape(self):
        grid = TimeGrid.geometric(2.0, levels=10, q=0.5)
        assert len(grid) == 11
        assert grid.T == 2.0
        assert grid.epsilon == pytest.approx(2.0 * 2.0**-10)
        ratios = grid.points[:-1] / grid.points[1:]
        assert np.allclose(ratios, 0.5)

    def test_uniform_grid_shape(self):
        grid = TimeGrid.uniform(1.0, levels=4, epsilon=0.2)
        assert np.allclose(grid.points, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_refined_grid(self):
        grid = TimeGrid.geometric(1.0, levels=3, q=0.5)
        fine = grid.refined(2)
        assert len(fine) == 2 * (len(grid) - 1) + 1
        assert fine.epsilon == grid.epsilon and fine.T == grid.T
        # original points survive at even indices
        assert np.allclose(fine.points[::2], grid.points)

    def test_path_validation(self):
        grid = TimeGrid.geometric(1.0, levels=3)
        with pytest.raises(ValueError):
            SubordinatorPath(grid=grid, values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SubordinatorPath(grid=grid, values=np.array([1.0, 0.5, 2.0, 3.0]))
        with pytest.raises(ValueError):
            SubordinatorPath(grid=grid, values=np.array([-1.0, 0.5, 2.0, 3.0]))

    def test_path_immutable(self):
        path = deterministic_path(TimeGrid.geometric(1.0, levels=3))
        with pytest.raises(ValueError):
            path.values[0] = 99.0


class TestReproducibility:
    def test_bit_identical_across_runs(self):
        grid = TimeGrid.geometric(1.0, levels=20)
        params = StableParams(0.5)
        a = sample_path(params, grid, SeedSpec(42, 17)).values
        b = sample_path(params, grid, SeedSpec(42, 17)).values
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        grid = TimeGrid.geometric(1.0, levels=20)
        params = StableParams(0.5)
        a = sample_path(params, grid, SeedSpec(42, 0)).values
        b = sample_path(params, grid, SeedSpec(42, 1)).values
        c = sample_path(params, grid, SeedSpec(43, 0)).values
        assert not (a == b).all() and not (a == c).all()

    def test_bit_identical_across_thread_counts(self):
        grid = TimeGrid.geometric(1.0, levels=10)
        params = StableParams(0.7)
        seeds = [SeedSpec(9, i) for i in range(32)]
        serial = [sample_path(params, grid, s).values for s in seeds]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda s: sample_path(params, grid, s).values, seeds))
        for a, b in zip(serial, threaded):
            assert (a == b).all()

    def test_scalar_and_batch_draws_reproducible(self):
        params = StableParams(0.4)
        a = sample_standard_stable_batch(params, SeedSpec(5, 5), 64)
        b = sample_standard_stable_batch(params, SeedSpec(5, 5), 64)
        assert (a == b).all()


class TestSamplerLaw:
    def test_laplace_transform_cells(self):
        # |MC mean of e^(-lam S_1) - e^(-lam^alpha)| <= 4 SE per cell at this
        # seed (checked once, then frozen; the dedicated acceptance run uses
        # the full 3-sigma / 8-of-9 protocol).
        n = 50_000
        for alpha in (0.3, 0.5, 0.7):
            draws = sample_standard_stable_batch(StableParams(alpha), SeedSpec(2024, 1), n)
            for lam in (0.5, 1.0, 2.0):
                g = np.exp(-lam * draws)
                se = g.std(ddof=1) / math.sqrt(n)
                assert abs(g.mean() - math.exp(-(lam**alpha))) <= 4.0 * se

    def test_ks_against_closed_form_cdf(self):
        draws = sample_standard_stable_batch(StableParams(0.5), SeedSpec(2024, 2), 50_000)
        assert ks_distance(draws, levy_half_cdf) < 1.63 / math.sqrt(draws.size)

    def test_empirical_cdf_point(self):
        draws = sample_standard_stable_batch(StableParams(0.5), SeedSpec(2024, 3), 100_000)
        ecdf = np.mean(draws <= 0.25)
        se = math.sqrt(0.157 * (1 - 0.157) / draws.size)
        assert abs(ecdf - 0.15729920705028513) <= 4.0 * se

    def test_draws_positive(self):
        for alpha in (0.1, 0.5, 0.9):
            draws = sample_standard_stable_batch(StableParams(alpha), SeedSpec(11, 4), 10_000)
            assert np.all(draws > 0.0) and np.all(np.isfinite(draws))


class TestPaths:
    def test_single_point_grid_is_marginal(self):
        # Value at t = 1 on the one-point grid is a plain S_1 draw.
        grid = TimeGrid(points=np.array([1.0]))
        values = sample_path_values(StableParams(0.5), grid, SeedSpec(3, 0), 20_000)[:, 0]
        assert ks_distance(values, levy_half_cdf) < 1.63 / math.sqrt(values.size)

    def test_paths_nondecreasing(self):
        grid = TimeGrid.geometric(1.0, levels=30)
        values = sample_path_values(StableParams(0.3), grid, SeedSpec(3, 1), 500)
        assert np.all(np.diff(values, axis=1) >= 0.0)
        assert np.all(values >= 0.0)

    def test_increment_consistency_coarse_vs_fine(self):
        # Same marginal law at t = 1 whether sampled in one or two increments.
        n = 20_000
        coarse = sample_path_values(
            StableParams(0.5), TimeGrid(points=np.array([1.0])), SeedSpec(3, 2), n
        )[:, -1]
        fine = sample_path_values(
            StableParams(0.5), TimeGrid(points=np.array([0.5, 1.0])), SeedSpec(3, 3), n
        )[:, -1]
        assert stats.ks_2samp(coarse, fine).pvalue > 0.05

    def test_scaling_of_marginals(self):
        # E S_t^p / t^(p/alpha) flat across horizons (p < alpha).
        alpha, p = 0.5, 0.2
        normalized = []
        for cell, t in enumerate((0.25, 1.0, 4.0)):
            grid = TimeGrid(points=np.array([t]))
            vals = sample_path_values(StableParams(alpha), grid, SeedSpec(77, cell), 50_000)[:, 0]
            normalized.append((vals**p).mean() / t ** (p / alpha))
        spread = max(normalized) - min(normalized)
        assert spread < 0.05 * np.mean(normalized)

    def test_deterministic_path(self):
        grid = TimeGrid(points=np.array([0.5, 1.0]))
        path = deterministic_path(grid)
        assert np.allclose(path.values, [0.5, 1.0])
        assert np.all(np.diff(path.values) > 0.0)


class TestSharedDraws:
    ALPHAS = (0.3, 0.5, 0.7)

    def test_each_alpha_matches_its_own_sampling(self):
        grid = TimeGrid.geometric(1.0, levels=20)
        u, w = kanter_inputs(SeedSpec(11, 4), (300, len(grid)))
        shared = kanter_draws(self.ALPHAS, u, w)
        assert len(shared) == len(self.ALPHAS)
        for alpha, draws in zip(self.ALPHAS, shared):
            # Kanter's expression written out, each sine evaluated on its own.
            inv = 1.0 / alpha
            kanter = np.sin(alpha * u) * np.sin((1.0 - alpha) * u) ** (inv - 1.0) / (
                np.sin(u) ** inv * w ** (inv - 1.0)
            )
            assert np.array_equal(draws, kanter)
            alone = sample_path_values(StableParams(alpha), grid, SeedSpec(11, 4), 300)
            steps = np.diff(grid.points, prepend=0.0) ** (1.0 / alpha)
            assert np.array_equal(np.cumsum(draws * steps, axis=1), alone)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_row_blocks_give_identical_draws(self, rows):
        u, w = kanter_inputs(SeedSpec(11, 4), (300, 21))
        whole = kanter_draws(self.ALPHAS, u, w)
        blocks = [kanter_draws(self.ALPHAS, u[i : i + rows], w[i : i + rows]) for i in range(0, 300, rows)]
        for a, draws in enumerate(whole):
            assert np.array_equal(np.concatenate([block[a] for block in blocks]), draws)

    def test_non_finite_draws_are_a_named_error(self):
        # At alpha = 0.01, sin(U)^(1/alpha) underflows on a few draws in a
        # thousand; the error names alpha and counts that alpha's draws.
        u, w = kanter_inputs(SeedSpec(11, 4), (300, 21))
        with np.errstate(all="ignore"):
            kanter = np.sin(0.01 * u) * np.sin(0.99 * u) ** 99.0 / (np.sin(u) ** 100.0 * w**99.0)
        bad = int(np.count_nonzero(~np.isfinite(kanter)))
        assert bad > 0
        message = f"alpha = 0.01 leaves the sampler's double range: {bad} of 6300 stable draws are not finite"
        with pytest.raises(NonFiniteDrawError, match=f"^{re.escape(message)}$"):
            kanter_draws((0.5, 0.01), u, w)
        assert all(np.all(np.isfinite(draws)) for draws in kanter_draws(self.ALPHAS, u, w))

    def test_overflowing_paths_are_a_named_error(self):
        # T^(1/alpha) = 1e308 fits, but the paths of the larger draws overflow.
        params, seed = StableParams(0.5), SeedSpec(11, 4)
        grid = TimeGrid.geometric(1e154, levels=20)
        draws = kanter_draws((0.5,), *kanter_inputs(seed, (300, len(grid))))[0]
        with np.errstate(over="ignore"):
            paths = np.cumsum(draws * np.diff(grid.points, prepend=0.0) ** 2.0, axis=1)
        bad = int(np.count_nonzero(~np.isfinite(paths).all(axis=1)))
        assert 0 < bad < 300
        message = f"T = 1e+154 at alpha = 0.5: {bad} of 300 paths leave double range"
        with pytest.raises(NonFiniteDrawError, match=f"^{re.escape(message)}$"):
            sample_path_values(params, grid, seed, 300)


# The benchmark tracer (perfbench/tracing.py) counts a sampler call's draws by
# binding the call to the sampler's signature and reading these parameters by
# name; a rename would crash every traced run.
GRID = TimeGrid.geometric(1.0, levels=40)
TRACED_CALLS = {
    "sample_path_values": ((StableParams(0.5), GRID, SeedSpec(1), 7), {"grid": GRID, "n_paths": 7}),
    "sample_path": ((StableParams(0.5), GRID, SeedSpec(1)), {"grid": GRID}),
    "sample_standard_stable_batch": ((StableParams(0.5), SeedSpec(1), 9), {"size": 9}),
}


@pytest.mark.parametrize("name", sorted(TRACED_CALLS))
def test_sampler_parameters_keep_the_names_the_tracer_reads(name):
    args, expected = TRACED_CALLS[name]
    arguments = inspect.signature(getattr(subordinator, name)).bind(*args).arguments
    assert {key: arguments.get(key) for key in expected} == expected
