import numpy as np
import pytest

from mfcontrol.core import (
    ConfigError,
    EnsembleConfig,
    RegressionError,
    make_time_grid,
    sample_brownian,
)
from mfcontrol.mf_bsde import (
    BackwardModel,
    RegressionBasis,
    default_polynomial_basis,
    regress_conditional_expectation,
    solve_mf_bsde,
)

from oracles import per_node_mf_bsde, ridge_lstsq_oracle


def test_regression_matches_augmented_lstsq_oracle():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(1000, 3))
    targets = rng.normal(size=1000)
    lam = 1e-8 * 1000
    coef = regress_conditional_expectation(feats, targets, lam)
    ref = ridge_lstsq_oracle(feats, targets, lam)
    assert np.allclose(coef, ref, atol=1e-10)


def test_regression_multi_target():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(500, 4))
    targets = rng.normal(size=(500, 2))
    lam = 1e-8 * 500
    coef = regress_conditional_expectation(feats, targets, lam)
    for j in range(2):
        ref = ridge_lstsq_oracle(feats, targets[:, j], lam)
        assert np.allclose(coef[:, j], ref, atol=1e-10)


def test_regression_escalates_then_fails_on_rank_deficiency():
    # a duplicated column with a vanishing ridge cannot be rescued forever
    feats = np.ones((50, 2))
    feats[:, 1] = 1.0
    with pytest.raises(RegressionError) as err:
        regress_conditional_expectation(feats, np.ones(50), 0.0)
    assert err.value.condition_number > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_regression_fails_typed_on_nonfinite_features(bad):
    feats = np.random.default_rng(3).normal(size=(64, 3))
    feats[5, 1] = bad
    with pytest.raises(RegressionError) as err:
        regress_conditional_expectation(feats, np.ones(64), 1e-8)
    assert err.value.condition_number == np.inf


def test_constant_targets_reproduced():
    # tower property: a constant sits in the basis span, so the fitted
    # conditional expectation is the constant (up to ridge shrinkage)
    rng = np.random.default_rng(2)
    basis = default_polynomial_basis()
    feats = basis.features(rng.normal(size=400))
    coef = regress_conditional_expectation(feats, np.full(400, 2.5), basis.ridge_scale * 400)
    assert np.allclose(feats @ coef, 2.5, atol=1e-6)


def _grid_noise(m=32, n=4096, seed=0, horizon=1.0):
    g = make_time_grid(horizon, m)
    cfg = EnsembleConfig(particles=n, seed=seed)
    return g, sample_brownian(g, cfg)


def test_zero_driver_constant_terminal():
    g, w = _grid_noise(8, 128)
    cond = w.cumulative()
    y, z = solve_mf_bsde(BackwardModel(driver=None, terminal=3.0), g, w, cond)
    assert np.allclose(y, 3.0, atol=1e-6)
    # the integrand estimate regresses Y*dW, which for a deterministic Y is
    # pure sampling noise with std ~ |Y|/sqrt(N dt) -- just check the scale
    assert np.abs(z.mean(axis=1)).max() <= 5 * 3.0 / np.sqrt(128 * g.dt)


def test_linear_mean_driver_matches_closed_form():
    # driver a*mean(Y) + b*Y with constant terminal: Y_t = exp((a+b)(T-t))
    a, b = 0.4, 0.6
    g, w = _grid_noise(64, 2048, seed=3)
    cond = w.cumulative()
    model = BackwardModel(
        driver=lambda t, law, own: a * law.y + b * own.y,
        terminal=1.0,
    )
    y, z = solve_mf_bsde(model, g, w, cond)
    expected = np.exp((a + b) * (1.0 - g.nodes))
    err = np.abs(y.mean(axis=1) - expected) / expected
    assert err.max() <= 0.02

    # first-order convergence: the error drops when the grid is refined
    g32, w32 = _grid_noise(32, 2048, seed=3)
    y32, _ = solve_mf_bsde(model, g32, w32, w32.cumulative())
    exp32 = np.exp((a + b) * (1.0 - g32.nodes))
    err32 = np.abs(y32.mean(axis=1) - exp32) / exp32
    assert err.max() < err32.max()


def test_martingale_representation_brownian_terminal():
    # f = 0, terminal W_T: Y_k should track W_k and Z should sit near 1
    g, w = _grid_noise(32, 8192, seed=4)
    cond = w.cumulative()
    y, z = solve_mf_bsde(
        BackwardModel(driver=None, terminal=lambda xT: xT), g, w, cond
    )
    err = np.sqrt(np.mean((y - cond) ** 2))
    assert err <= 0.05
    assert abs(np.mean(z[:-1]) - 1.0) <= 0.02


def test_driver_sees_x_and_control_slots():
    g, w = _grid_noise(16, 512, seed=5)
    cond = np.ones((17, 512))
    u = np.full((16, 512), 2.0)
    model = BackwardModel(
        driver=lambda t, law, own: own.x + own.u + 0.0 * own.y,
        terminal=0.0,
    )
    y, _ = solve_mf_bsde(model, g, w, cond, control=u)
    # deterministic: Y_0 = (1 + 2) * T
    assert np.allclose(y[0], 3.0, atol=1e-8)


def test_terminal_z_copies_last_interior_node():
    g, w = _grid_noise(8, 256, seed=6)
    cond = w.cumulative()
    y, z = solve_mf_bsde(BackwardModel(driver=None, terminal=lambda xT: xT), g, w, cond)
    assert np.array_equal(z[-1], z[-2])


@pytest.mark.parametrize("ridge", [-1e-3, -0.5, np.nan, np.inf])
def test_bad_ridge_weights_are_rejected(ridge):
    with pytest.raises(ConfigError):
        default_polynomial_basis(ridge_scale=ridge)
    feats = default_polynomial_basis().features(np.random.default_rng(0).normal(size=400))
    with pytest.raises(ConfigError):
        regress_conditional_expectation(feats, np.ones(400), ridge)


def test_empty_basis_is_rejected():
    with pytest.raises(ConfigError):
        RegressionBasis(features=lambda x: x[..., None], size=0)


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_features_of_a_stack_equal_features_of_each_snapshot(degree):
    basis = default_polynomial_basis(degree)
    stack = np.random.default_rng(7).normal(size=(5, 300))
    stack[2] = 0.7  # a constant snapshot is centered, not scaled
    feats = basis.features(stack)
    assert feats.shape == (5, 300, basis.size)
    for k in range(5):
        assert np.array_equal(feats[k], basis.features(stack[k]))
        row = stack[k]
        spread = row.std()
        z = (row - row.mean()) / spread if spread > 0.0 else row - row.mean()
        assert np.array_equal(feats[k], np.polynomial.polynomial.polyvander(z, degree))


def test_regression_with_precomputed_normal_matrix_is_unchanged():
    rng = np.random.default_rng(8)
    feats = default_polynomial_basis().features(rng.normal(size=600))
    targets = rng.normal(size=600)
    lam = 1e-8 * 600
    normal = feats.T @ feats + lam * np.eye(feats.shape[1])
    assert np.array_equal(
        regress_conditional_expectation(feats, targets, lam, normal=normal),
        regress_conditional_expectation(feats, targets, lam),
    )
    with pytest.raises(ConfigError):
        regress_conditional_expectation(feats, targets, lam, normal=normal[:2, :2])
    with pytest.raises(RegressionError):  # a singular solve fails typed
        regress_conditional_expectation(feats, targets, lam, normal=np.zeros_like(normal))


def _constant_node_path(w):
    # constant at node 0 (as every LQ fixture's state is) and at node 3
    path = 0.5 + w.cumulative()
    path[3] = -1.25
    return path


@pytest.mark.parametrize("ridge_scale", [1e-8, 1e-14])
@pytest.mark.parametrize("separate_carrier", [False, True])
def test_sweep_equals_per_node_loop_exactly(ridge_scale, separate_carrier):
    # at ridge 1e-14 only the constant nodes need ridge escalation, so this
    # also pins that escalation is decided node by node
    g, w = _grid_noise(8, 256, seed=9)
    cond = _constant_node_path(w)
    carrier = np.cos(cond) + cond if separate_carrier else None
    u = np.random.default_rng(10).normal(size=(8, 256))
    model = BackwardModel(
        driver=lambda t, law, own: 0.3 * law.y - 0.2 * own.y + own.z * law.u
        + law.x * own.u - 0.1 * own.x * law.z,
        terminal=lambda xT: np.sin(xT),
    )
    basis = default_polynomial_basis(ridge_scale=ridge_scale)
    kwargs = dict(basis=basis, control=u, carrier=carrier)
    y, z = solve_mf_bsde(model, g, w, cond, **kwargs)
    y_ref, z_ref = per_node_mf_bsde(model, g, w, cond, **kwargs)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(z, z_ref)


def test_sweep_without_ridge_fails_typed_on_a_constant_node():
    g, w = _grid_noise(8, 256, seed=11)
    basis = default_polynomial_basis(ridge_scale=0.0)
    with pytest.raises(RegressionError) as err:
        solve_mf_bsde(
            BackwardModel(driver=None, terminal=lambda xT: xT), g, w,
            _constant_node_path(w), basis=basis,
        )
    assert np.isfinite(err.value.condition_number)
    assert err.value.condition_number > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sweep_fails_typed_on_nonfinite_carrier(bad):
    # a NaN (or inf) in the carrier is a failed regression, which a
    # continuation rung can retry, not a numpy error that ends the solve
    g, w = _grid_noise(4, 64)
    cond = w.cumulative()
    cond[2, 7] = bad
    with pytest.raises(RegressionError) as err, np.errstate(invalid="ignore"):
        solve_mf_bsde(BackwardModel(driver=None, terminal=1.0), g, w, cond)
    assert err.value.condition_number == np.inf


@pytest.mark.parametrize(
    "case, match",
    [
        ("noise_grid", "steps but grid"),
        ("control", "control has shape"),
        ("conditioning", "conditioning has shape"),
        ("carrier", "carrier has shape"),
        ("features", "features of shape"),
        ("terminal", "terminal values have shape"),
        ("degree", "degree"),
        ("flat_features", "2-d"),
    ],
)
def test_backward_layer_rejects_malformed_inputs(case, match):
    g = make_time_grid(1.0, 8)
    w = sample_brownian(g, EnsembleConfig(particles=16, seed=1))
    x = w.cumulative()
    model = BackwardModel(driver=None, terminal=lambda xt: xt)
    cubic = default_polynomial_basis()
    narrow = RegressionBasis(features=lambda c: cubic.features(c)[..., :2], size=cubic.size)
    calls = {
        "noise_grid": lambda: solve_mf_bsde(model, make_time_grid(1.0, 4), w, x),
        "control": lambda: solve_mf_bsde(model, g, w, x, control=np.zeros((8, 15))),
        "conditioning": lambda: solve_mf_bsde(model, g, w, x[:-1]),
        "carrier": lambda: solve_mf_bsde(model, g, w, x, carrier=x[:, :-1]),
        "features": lambda: solve_mf_bsde(model, g, w, x, basis=narrow),
        "terminal": lambda: solve_mf_bsde(BackwardModel(None, lambda xt: xt[:-1]), g, w, x),
        "degree": lambda: default_polynomial_basis(-1),
        "flat_features": lambda: regress_conditional_expectation(np.ones(10), np.ones(10), 0.0),
    }
    with pytest.raises(ConfigError, match=match):
        calls[case]()
