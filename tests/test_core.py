import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcontrol import core
from mfcontrol.core import (
    BrownianPaths,
    ConfigError,
    EnsembleConfig,
    StateView,
    make_time_grid,
    sample_brownian,
    view_means,
)


def test_time_grid_basics():
    g = make_time_grid(1.0, 64)
    assert g.dt == pytest.approx(1.0 / 64)
    assert g.nodes.shape == (65,)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == pytest.approx(1.0)


def test_time_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        make_time_grid(0.0, 8)
    with pytest.raises(ConfigError):
        make_time_grid(-1.0, 8)
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 0)


def test_node_index_roundtrip():
    g = make_time_grid(1.0, 64)
    for k in range(65):
        assert g.node_index(k * g.dt) == k


def test_ensemble_config_validation():
    with pytest.raises(ConfigError):
        EnsembleConfig(particles=1)


@pytest.mark.parametrize("make, name", [
    (lambda v: make_time_grid(1.0, v), "steps"),
    (lambda v: EnsembleConfig(particles=v), "particles"),
    (lambda v: EnsembleConfig(particles=16, seed=v), "seed"),
], ids=["steps", "particles", "seed"])
@pytest.mark.parametrize("value", [64.9, 2.5, True, -1], ids=["float", "half", "bool", "negative"])
def test_counts_are_checked_not_coerced(make, name, value):
    # make_time_grid(1.0, 64.9) built a 64-step grid and True a 1-step one;
    # seed=2.5 drew seed 2's increments and seed=-1 raised numpy's ValueError
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        make(value)


def test_brownian_shapes_and_determinism():
    g = make_time_grid(1.0, 32)
    cfg = EnsembleConfig(particles=128, seed=11)
    w1 = sample_brownian(g, cfg)
    w2 = sample_brownian(g, cfg)
    assert w1.increments.shape == (32, 128)
    assert np.array_equal(w1.increments, w2.increments)
    w3 = sample_brownian(g, EnsembleConfig(particles=128, seed=12))
    assert not np.array_equal(w1.increments, w3.increments)


def test_brownian_increment_variance_close_to_dt():
    g = make_time_grid(1.0, 64)
    cfg = EnsembleConfig(particles=8192, seed=0)
    w = sample_brownian(g, cfg)
    var = w.increments.var(axis=1)
    assert np.all(np.abs(var - g.dt) <= 0.05 * g.dt)


def test_cumulative_path_starts_at_zero():
    g = make_time_grid(1.0, 16)
    w = sample_brownian(g, EnsembleConfig(particles=8, seed=3))
    path = w.cumulative()
    assert np.all(path[0] == 0.0)
    assert np.allclose(path[-1], w.increments.sum(axis=0))


def test_view_means():
    own = StateView(x=np.array([1.0, 3.0]), y=np.array([2.0, 2.0]))
    law = view_means(own)
    assert law.x == pytest.approx(2.0)
    assert law.y == pytest.approx(2.0)
    assert law.z is None and law.u is None


def test_mean_is_numpy_mean_bit_for_bit():
    # the 1-D float64 fast path must round exactly as np.mean does, on
    # sizes below, at and above numpy's pairwise-summation block (128)
    rng = np.random.default_rng(0)
    for n in (1, 7, 127, 128, 129, 2048, 100_003):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        assert core._mean(v) == float(np.mean(v))
        assert core._mean(v[::3]) == float(np.mean(v[::3]))
    # other inputs go to np.mean itself
    block = rng.standard_normal((4, 9))
    assert core._mean(block) == float(np.mean(block))
    single = rng.standard_normal(129).astype(np.float32)
    assert core._mean(single) == float(np.mean(single))
    assert core._mean(2.5) == 2.5


@pytest.mark.parametrize("value", [0.4, np.float64(0.4), np.array(0.4), np.array([0.4])],
                         ids=["float", "numpy_float", "0d", "one_element"])
def test_value_reads_a_constant_as_a_python_float(value):
    got = core._value("terminal_cost", value, (5,))
    assert type(got) is float and got == 0.4
    filled = core._broadcast("terminal_cost", value, (5,))
    assert filled.shape == (5,) and np.array_equal(filled, np.full(5, 0.4))


def test_value_returns_an_array_of_the_shape_as_it_is():
    arr = np.arange(5.0)
    assert core._value("drift", arr, (5,)) is arr
    assert core._broadcast("drift", arr, (5,)) is arr
    ints = core._value("drift", np.arange(5), (5,))  # not float: converted
    assert ints.dtype == np.float64 and np.array_equal(ints, arr)


@pytest.mark.parametrize("value, shape", [
    (np.zeros((5, 1)), r"\(5, 1\)"), (np.zeros(3), r"\(3,\)"), (np.zeros((1, 1)), r"\(1, 1\)"),
], ids=["column", "short", "one_element_2d"])
def test_value_of_any_other_shape_fails_typed_naming_its_subject(value, shape):
    message = rf"^terminal_cost has shape {shape}, expected \(5,\)$"
    for rule in (core._value, core._broadcast):
        with pytest.raises(ConfigError, match=message):
            rule("terminal_cost", value, (5,))


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    steps=st.integers(min_value=1, max_value=20),
    particles=st.integers(min_value=2, max_value=33),
)
def test_brownian_scaling_property(seed, steps, particles):
    # increments scale like sqrt(dt): doubling the horizon at fixed step
    # count doubles the variance parameter exactly
    g1 = make_time_grid(1.0, steps)
    g2 = make_time_grid(2.0, steps)
    cfg = EnsembleConfig(particles=particles, seed=seed)
    w1 = sample_brownian(g1, cfg)
    w2 = sample_brownian(g2, cfg)
    assert np.allclose(w2.increments, np.sqrt(2.0) * w1.increments)
