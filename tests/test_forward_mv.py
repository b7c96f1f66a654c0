import numpy as np
import pytest

from mfcontrol import forward_mv
from mfcontrol.core import (
    ConfigError,
    DivergenceError,
    EnsembleConfig,
    StateView,
    make_time_grid,
    sample_brownian,
    view_means,
)
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
        w.increments,
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
    noise_mean = w.increments.mean(axis=1)
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


def test_law_view_is_view_means_taken_on_first_read(monkeypatch):
    rng = np.random.default_rng(4)
    tri = StateView(x=rng.normal(size=(5, 33)), y=rng.normal(size=(5, 33)))  # z stays None
    control = rng.normal(size=(4, 33))
    for k in range(5):
        own, law = forward_mv._views(tri, k, control)
        want = view_means(own)
        for slot in ("x", "y", "z", "u"):
            assert getattr(law, slot) == getattr(want, slot)
    assert law.z is None

    # a coefficient that reads only law.x (twice) takes exactly one mean
    calls = []
    real_mean = forward_mv._mean
    monkeypatch.setattr(forward_mv, "_mean", lambda v: calls.append(v) or real_mean(v))
    own, law = forward_mv._views(tri, 2, control)
    drift = lambda t, law, own: law.x * own.x - 0.5 * law.x  # noqa: E731
    drift(0.0, law, own)
    assert len(calls) == 1 and calls[0] is own.x

    # and in the Euler pass, one mean per step
    calls.clear()
    g = make_time_grid(1.0, 8)
    w = sample_brownian(g, EnsembleConfig(particles=16, seed=2))
    simulate_forward(ForwardModel(drift=drift, diffusion=lambda t, law, own: 0.2), g, w)
    assert len(calls) == 8


@pytest.mark.parametrize(
    "case, match",
    [
        ("noise_grid", "steps but grid"),
        ("control_shape", "control has shape"),
        ("initial_shape", "initial condition has shape"),
        ("one_horizon", "two horizons"),
    ],
)
def test_forward_layer_rejects_malformed_inputs(case, match):
    g = make_time_grid(1.0, 8)
    cfg = EnsembleConfig(particles=16, seed=1)
    w = sample_brownian(g, cfg)
    model = _linear_mean_model()
    short_sample = ForwardModel(model.drift, model.diffusion, initial=lambda rng, n: np.zeros(n - 1))
    calls = {
        "noise_grid": lambda: simulate_forward(model, make_time_grid(1.0, 4), w),
        "control_shape": lambda: simulate_forward(model, g, w, control=np.zeros((8, 15))),
        "initial_shape": lambda: simulate_forward(short_sample, g, w),
        "one_horizon": lambda: moment_scaling_check(model, 2.0, [0.1], cfg),
    }
    with pytest.raises(ConfigError, match=match):
        calls[case]()
