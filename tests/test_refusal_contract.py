"""The refusal contract, as a property: a run is refused before sampling, or
its record holds only finite numbers and it raises no numerical warning.  A
default run meets no floating-point exception at all, underflow included."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablesub import ConfigError
from stablesub.config import config_from_mapping
from stablesub.reporting import run
from stablesub.subordinator import NonFiniteDrawError

EXPERIMENTS = ("moment_bound_theta", "moment_bound_exp", "blowup", "ibp_consistency", "scaling")


@st.composite
def configs(draw):
    """A config document of one sampling experiment, with only the keys its run reads."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    alpha = draw(st.floats(0.05, 0.95))
    payload = {"experiment": experiment, "alpha": alpha, "n_replicates": draw(st.integers(50, 200))}
    horizon = 10.0 ** draw(st.floats(-150.0, 150.0))
    if experiment == "scaling":
        payload["times"] = [horizon, 10.0 ** draw(st.floats(-150.0, 150.0))]
    else:
        payload["T"] = horizon
        payload["grid"] = {"levels": draw(st.integers(1, 600))}
    if experiment in ("moment_bound_theta", "blowup", "ibp_consistency"):
        # theta * alpha in [0, 2]: below, at and above the threshold theta = 1/alpha.
        payload["theta"] = draw(st.floats(0.0, 2.0)) / alpha
    if experiment != "blowup" and experiment != "ibp_consistency":
        payload["p"] = alpha * draw(st.floats(0.05, 0.95))
    if experiment == "moment_bound_exp":
        payload["lambda"] = 10.0 ** draw(st.floats(-3.0, 3.0))
    return payload


@st.composite
def unsampled_grid_configs(draw):
    """A config document of laplace, cdf or classify: the runs `configs` does not draw."""
    experiment = draw(st.sampled_from(("laplace_check", "cdf_check", "kernel_classify")))
    if experiment == "laplace_check":
        alphas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        return {"experiment": experiment, "alpha": draw(st.lists(alphas, min_size=1, max_size=3)),
                "n_replicates": draw(st.integers(2, 200))}
    if experiment == "cdf_check":
        return {"experiment": experiment, "n_replicates": draw(st.integers(1, 200))}
    return {"experiment": experiment, "alpha": draw(st.floats(0.0, 1.2, exclude_min=True)),
            "theta": 10.0 ** draw(st.floats(-5.0, 5.0))}


def _numbers(value):
    """Every float of a record block, however deeply nested."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(configs())
# The statistic's medians underflow to 0 at the deepest level of the first and
# at the coarsest level of the second: both are refused before sampling.
@example({"experiment": "blowup", "alpha": 0.5, "theta": 1.0, "T": 1.0,
          "grid": {"levels": 600}, "n_replicates": 100})
@example({"experiment": "blowup", "alpha": 0.323, "theta": 8.87, "T": 2.48e83,
          "grid": {"levels": 200}, "n_replicates": 100})
def test_refused_or_finite(payload):
    _assert_refused_or_finite(payload)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(unsampled_grid_configs())
def test_refused_or_finite_without_a_grid(payload):
    _assert_refused_or_finite(payload)


def _assert_refused_or_finite(payload):
    """The run is refused by an error that names one of its keys, or its
    record holds only finite numbers and it raises no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            record = run(config_from_mapping(payload))
        except (ConfigError, NonFiniteDrawError) as exc:
            words = set(re.findall(r"\w+", str(exc)))
            assert any(key in words for key in payload if key != "experiment"), str(exc)
            return
    numbers = list(_numbers([record.results, record.series]))
    assert all(math.isfinite(number) for number in numbers), record.results


# Each subcommand's default run, given its required keys, at a small replicate count.
DEFAULT_RUNS = [
    {"experiment": "laplace_check", "n_replicates": 2000},
    {"experiment": "cdf_check", "n_replicates": 2000},
    {"experiment": "scaling", "alpha": 0.5, "n_replicates": 2000},
    {"experiment": "moment_bound_theta", "alpha": 0.5, "theta": 1.0, "n_replicates": 2000},
    {"experiment": "moment_bound_exp", "alpha": 0.5, "n_replicates": 2000},
    {"experiment": "blowup", "alpha": 0.5, "theta": 3.0, "n_replicates": 2000},
    {"experiment": "ibp_consistency", "alpha": 0.5},
    {"experiment": "kernel_classify", "alpha": 0.5, "theta": 2.0},
    {"experiment": "verify_all", "n_replicates": 3000, "workers": 1},
]


@pytest.mark.parametrize("payload", DEFAULT_RUNS, ids=[run["experiment"] for run in DEFAULT_RUNS])
def test_default_run_raises_no_floating_point_exception(payload):
    with np.errstate(all="raise"):
        record = run(config_from_mapping(payload))
    assert record.passed
