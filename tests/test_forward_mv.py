import numpy as np
import pytest

from mfcontrol.core import DivergenceError, EnsembleConfig, make_time_grid, sample_brownian
from mfcontrol.forward_mv import ForwardModel, moment_scaling_check, simulate_forward

from oracles import naive_forward


def _linear_mean_model(a=0.5, s=0.2, x0=1.0):
    return ForwardModel(
        drift=lambda t, law, own: a * law.x * np.ones_like(own.x),
        diffusion=lambda t, law, own: s * np.ones_like(own.x),
        initial=x0,
    )


def test_forward_matches_naive_loop():
    g = make_time_grid(1.0, 16)
    cfg = EnsembleConfig(particles=24, seed=9)
    w = sample_brownian(g, cfg)
    model = ForwardModel(
        drift=lambda t, law, own: 0.3 * law.x - 0.1 * own.x,
        diffusion=lambda t, law, own: 0.2 + 0.05 * own.x,
        initial=0.7,
    )
    x = simulate_forward(model, g, w)
    ref = naive_forward(
        lambda t, mx, xi: 0.3 * mx - 0.1 * xi,
        lambda t, mx, xi: 0.2 + 0.05 * xi,
        0.7,
        w.scalar(),
        g.dt,
    )
    assert np.allclose(x, ref, atol=1e-10)


def test_forward_mean_recursion_exact_for_linear_mean_drift():
    # with drift a*mean(X) and additive noise, the ensemble mean follows the
    # deterministic recursion (1 + a dt)^k plus the averaged noise, exactly
    g = make_time_grid(1.0, 32)
    cfg = EnsembleConfig(particles=512, seed=2)
    w = sample_brownian(g, cfg)
    a, s = 0.5, 0.2
    x = simulate_forward(_linear_mean_model(a, s), g, w)
    mean = x.mean(axis=1)
    expected = np.empty_like(mean)
    expected[0] = 1.0
    noise_mean = w.scalar().mean(axis=1)
    for k in range(32):
        expected[k + 1] = expected[k] * (1 + a * g.dt) + s * noise_mean[k]
    assert np.allclose(mean, expected, atol=1e-12)


def test_forward_terminal_mean_near_closed_form():
    g = make_time_grid(1.0, 64)
    cfg = EnsembleConfig(particles=8192, seed=0)
    w = sample_brownian(g, cfg)
    x = simulate_forward(_linear_mean_model(), g, w)
    sd = x[-1].std()
    assert abs(x[-1].mean() - np.exp(0.5)) <= 3.0 * sd / np.sqrt(8192)


def test_initial_sampler_and_array():
    g = make_time_grid(0.5, 4)
    cfg = EnsembleConfig(particles=16, seed=1)
    w = sample_brownian(g, cfg)
    model_arr = ForwardModel(
        drift=lambda t, law, own: 0.0 * own.x,
        diffusion=lambda t, law, own: 0.0 * own.x,
        initial=np.linspace(0, 1, 16),
    )
    x = simulate_forward(model_arr, g, w)
    assert np.allclose(x[-1], np.linspace(0, 1, 16))

    model_sampler = ForwardModel(
        drift=lambda t, law, own: 0.0 * own.x,
        diffusion=lambda t, law, own: 0.0 * own.x,
        initial=lambda rng, n: rng.normal(size=n),
    )
    x1 = simulate_forward(model_sampler, g, w)
    x2 = simulate_forward(model_sampler, g, w)
    assert np.array_equal(x1, x2)  # sampler keyed off the noise seed


def test_control_threading():
    g = make_time_grid(1.0, 8)
    cfg = EnsembleConfig(particles=8, seed=4)
    w = sample_brownian(g, cfg)
    u = np.ones((8, 8))
    model = ForwardModel(
        drift=lambda t, law, own: own.u,
        diffusion=lambda t, law, own: np.zeros_like(own.x),
        initial=0.0,
    )
    x = simulate_forward(model, g, w, control=u)
    assert np.allclose(x[-1], 1.0)


def test_divergence_guard():
    g = make_time_grid(1.0, 64)
    cfg = EnsembleConfig(particles=8, seed=5)
    w = sample_brownian(g, cfg)
    model = ForwardModel(
        drift=lambda t, law, own: own.x**2 + 1.0,
        diffusion=lambda t, law, own: np.zeros_like(own.x),
        initial=5.0,
    )
    with pytest.raises(DivergenceError) as err:
        simulate_forward(model, g, w)
    assert err.value.step >= 1


def test_divergence_guard_checks_the_initial_node():
    # a start outside the guard is a breach at node 0, not at the first step
    g = make_time_grid(1.0, 8)
    w = sample_brownian(g, EnsembleConfig(particles=4, seed=5))
    model = ForwardModel(
        drift=lambda t, law, own: np.zeros_like(own.x),
        diffusion=lambda t, law, own: np.zeros_like(own.x),
        initial=5.0,
    )
    with pytest.raises(DivergenceError) as err:
        simulate_forward(model, g, w, guard=1.0)
    assert err.value.step == 0
    assert err.value.value == 5.0


def test_moment_scaling_slope_near_half_p():
    # short horizons keep the drift contribution (an O(delta^2) term) from
    # contaminating the diffusion-dominated O(delta) scaling
    cfg = EnsembleConfig(particles=2048, seed=6)
    report = moment_scaling_check(
        _linear_mean_model(), 2.0, [0.005, 0.01, 0.02, 0.04], cfg
    )
    assert not report.degenerate
    assert abs(report.slope - 1.0) <= 0.15


def test_moment_scaling_degenerate_flagged():
    cfg = EnsembleConfig(particles=64, seed=7)
    frozen = ForwardModel(
        drift=lambda t, law, own: np.zeros_like(own.x),
        diffusion=lambda t, law, own: np.zeros_like(own.x),
        initial=1.0,
    )
    report = moment_scaling_check(frozen, 2.0, [0.05, 0.1], cfg)
    assert report.degenerate
    assert report.slope is None
