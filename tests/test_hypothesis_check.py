import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcontrol.core import ConfigError
from mfcontrol.fbsde_solver import CoupledModel
from mfcontrol.hypothesis_check import (
    MonotonicityReport,
    UniformPairSampler,
    check_H4,
    check_H5,
    check_H6,
    check_convexity,
)

from oracles import homotopy_coefficients, operator_norm


# ----------------------------------------------------------------------
# model builders
# ----------------------------------------------------------------------


def _canonical_model():
    return CoupledModel(
        drift=lambda t, law, own: -(law.y + own.y),
        diffusion=lambda t, law, own: -(law.z + own.z),
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda x: x,
        initial=0.0,
    )


def _mirror_model():
    # sign-reversed canonical pair: pairing bounded below, terminal slope -1
    return CoupledModel(
        drift=lambda t, law, own: law.y + own.y,
        diffusion=lambda t, law, own: law.z + own.z,
        driver=lambda t, law, own: -(law.x + own.x),
        terminal_map=lambda x: -x,
        initial=0.0,
    )


def _cross_model():
    # antisymmetric law coupling: the 3 law.z / -3 law.y terms cancel only
    # through the empirical means, leaving the -own diagonal
    return CoupledModel(
        drift=lambda t, law, own: -own.y + 3.0 * law.z,
        diffusion=lambda t, law, own: -own.z - 3.0 * law.y,
        driver=lambda t, law, own: own.x,
        terminal_map=lambda x: x,
        initial=0.0,
    )


def _linear_model(cf, cb, cs):
    cf = np.asarray(cf, dtype=float)
    cb = np.asarray(cb, dtype=float)
    cs = np.asarray(cs, dtype=float)

    def dot(c, law, own):
        return (
            c[0] * law.x + c[1] * law.y + c[2] * law.z
            + c[3] * own.x + c[4] * own.y + c[5] * own.z
        )

    return CoupledModel(
        drift=lambda t, law, own: dot(cb, law, own),
        diffusion=lambda t, law, own: dot(cs, law, own),
        driver=lambda t, law, own: dot(cf, law, own),
        terminal_map=lambda x: 0.5 * x,
        initial=0.0,
    )


def _quadratic_model():
    return CoupledModel(
        drift=lambda t, law, own: own.x**2,
        diffusion=lambda t, law, own: 0.3 * np.ones_like(own.x),
        driver=None,
        terminal_map=lambda x: x,
        initial=0.0,
    )


# ----------------------------------------------------------------------
# (H4)
# ----------------------------------------------------------------------


def test_h4_linear_matches_operator_norm():
    cf = [0.2, -0.4, 0.1, 0.5, 0.3, -0.2]
    cb = [-0.3, 0.8, 0.0, 0.2, -0.6, 0.4]
    cs = [0.1, 0.0, -0.5, 0.3, 0.2, 0.7]
    rep = check_H4(_linear_model(cf, cb, cs), n_samples=20_000, seed=3)
    bound = operator_norm(np.vstack([np.negative(cf), cb, cs]))
    assert rep.check == "H4"
    assert rep.passed and not rep.trend_flag
    assert rep.lipschitz <= bound + 1e-9
    assert rep.lipschitz >= 0.9 * bound
    assert rep.lipschitz_terminal == pytest.approx(0.5, abs=1e-12)
    # witness is re-evaluable: feeding the stored pair back reproduces it
    w = rep.worst_pair
    p1, p2 = w["point1"], w["point2"]
    mat = np.vstack([np.negative(cf), cb, cs])
    ratio = np.linalg.norm(mat @ (p1 - p2)) / np.linalg.norm(p1 - p2)
    assert ratio == pytest.approx(w["ratio"], rel=1e-12)


def test_h4_constant_model_has_zero_constant():
    model = CoupledModel(
        drift=lambda t, law, own: 0.7,
        diffusion=lambda t, law, own: 0.3,
        driver=None,
        terminal_map=2.0,
        initial=0.0,
    )
    rep = check_H4(model, n_samples=4_000, seed=0)
    assert rep.passed
    assert rep.lipschitz == 0.0
    assert rep.lipschitz_terminal == 0.0


def test_h4_flags_quadratic_growth():
    rep = check_H4(_quadratic_model(), n_samples=8_000, seed=1)
    assert rep.trend_flag
    assert not rep.passed
    # estimate at radius 10 should be near the true local bound ~ 2 * 10
    assert rep.lipschitz > 10.0


def test_h4_reports_the_terminal_witness_when_only_the_terminal_map_trends():
    # linear coefficients, quadratic terminal map: the terminal estimate
    # trends and fails the report, so its pair is the witness, and feeding
    # it back reproduces the ratio
    model = CoupledModel(
        drift=lambda t, law, own: -own.y,
        diffusion=lambda t, law, own: -own.z,
        driver=lambda t, law, own: own.x,
        terminal_map=lambda x: x**2,
        initial=0.0,
    )
    rep = check_H4(model, n_samples=2_000)
    assert not rep.passed and rep.trend_flag
    assert rep.lipschitz < 1.0 < 10.0 < rep.lipschitz_terminal
    w = rep.worst_pair
    assert w["kind"] == "terminal" and w["point1"].shape == (1,)
    x1, x2 = w["point1"][0], w["point2"][0]
    assert abs(x1**2 - x2**2) / abs(x1 - x2) == pytest.approx(w["ratio"], rel=1e-12)
    assert w["ratio"] == rep.lipschitz_terminal
    # a coefficient trend keeps the coefficients' witness
    quad = check_H4(_quadratic_model(), n_samples=2_000, seed=1)
    assert quad.trend_flag and quad.worst_pair["kind"] == "coefficients"


def test_h4_records_sampler_metadata():
    rep = check_H4(_canonical_model(), sampler=UniformPairSampler(radius=2.0), n_samples=2_000)
    assert rep.radius == 2.0
    assert rep.n_samples == 2_000


# ----------------------------------------------------------------------
# (H5)
# ----------------------------------------------------------------------


def test_h5_canonical_pair_has_unit_constants():
    rep = check_H5(_canonical_model(), n_samples=20_000, seed=5)
    assert rep.check == "H5"
    assert rep.passed and rep.violations == 0
    assert 1.0 - 1e-9 <= rep.monotonicity <= 1.25
    assert rep.terminal_monotonicity == pytest.approx(1.0, abs=1e-9)
    assert rep.nested == 32


def test_h5_cross_coupling_cancels_through_means():
    # ratio is identically 1: the antisymmetric law terms cancel in every
    # cloud average, exactly as they do in expectation
    rep = check_H5(_cross_model(), n_samples=10_000, seed=7)
    assert rep.passed
    assert rep.monotonicity == pytest.approx(1.0, abs=1e-9)


def test_h5_sign_flip_fails_with_reevaluable_witness():
    rep = check_H5(_mirror_model(), n_samples=5_000, seed=2)
    assert not rep.passed
    assert rep.violations > 0
    w = rep.worst_pair
    assert w["kind"] == "pairing"
    c1, c2 = w["cloud1"], w["cloud2"]
    d = c1 - c2
    m1, m2 = c1.mean(axis=0), c2.mean(axis=0)
    # coefficients of _mirror_model, evaluated by hand on the stored clouds
    db = (m1[1] + c1[:, 1]) - (m2[1] + c2[:, 1])
    ds = (m1[2] + c1[:, 2]) - (m2[2] + c2[:, 2])
    df = -(m1[0] + c1[:, 0]) + (m2[0] + c2[:, 0])
    pairing = np.mean(-df * d[:, 0] + db * d[:, 1] + ds * d[:, 2])
    denom = np.mean(np.sum(d * d, axis=1))
    assert -pairing / denom == pytest.approx(w["ratio"], rel=1e-12)
    assert w["ratio"] <= 0.0


def test_h5_constant_coefficients_are_not_strictly_monotone():
    model = CoupledModel(
        drift=lambda t, law, own: 0.1,
        diffusion=lambda t, law, own: 0.2,
        driver=None,
        terminal_map=1.0,
        initial=0.0,
    )
    rep = check_H5(model, n_samples=2_000, seed=0)
    assert not rep.passed
    assert rep.monotonicity == 0.0


def test_h5_blend_origin_passes_for_any_model():
    # the alpha = 0 blend of even a badly behaved model is the canonical
    # pair, which certifies with constants 1
    base = _quadratic_model()
    rep = check_H5(homotopy_coefficients(base, 0.0), n_samples=10_000, seed=11)
    assert rep.passed
    assert rep.monotonicity >= 1.0 - 1e-6
    assert rep.terminal_monotonicity >= 1.0 - 1e-6


def test_h5_deterministic_given_seed():
    a = check_H5(_canonical_model(), n_samples=3_000, seed=9)
    b = check_H5(_canonical_model(), n_samples=3_000, seed=9)
    assert a.monotonicity == b.monotonicity
    assert a.terminal_monotonicity == b.terminal_monotonicity
    assert a.violations == b.violations


# ----------------------------------------------------------------------
# (H6)
# ----------------------------------------------------------------------


def test_h6_mirror_model_passes():
    rep = check_H6(_mirror_model(), n_samples=10_000, seed=4)
    assert rep.check == "H6"
    assert rep.passed and rep.violations == 0
    assert 1.0 - 1e-9 <= rep.monotonicity <= 1.25
    assert rep.terminal_monotonicity == pytest.approx(1.0, abs=1e-9)


def test_h6_rejects_forward_monotone_model():
    rep = check_H6(_canonical_model(), n_samples=5_000, seed=4)
    assert not rep.passed
    assert rep.violations > 0


# ----------------------------------------------------------------------
# convexity
# ----------------------------------------------------------------------


def test_convexity_quadratic_passes():
    rep = check_convexity(lambda p: np.sum(p**2, axis=1), dim=7, n_samples=20_000)
    assert rep.check == "convexity"
    assert rep.passed and rep.violations == 0


def test_convexity_concave_fails_with_witness():
    rep = check_convexity(lambda p: -np.sum(p**2, axis=1), dim=3, n_samples=5_000)
    assert not rep.passed
    assert rep.violations > 0
    w = rep.worst_pair
    mid = 0.5 * (w["point1"] + w["point2"])
    gap = -np.sum(mid**2) - 0.5 * (-np.sum(w["point1"] ** 2) - np.sum(w["point2"] ** 2))
    assert gap == pytest.approx(w["gap"], rel=1e-12)
    assert gap > 1e-9


def test_convexity_affine_passes_within_slack():
    rep = check_convexity(lambda p: 2.0 * p[:, 0] - p[:, 1] + 1.0, dim=2, n_samples=5_000)
    assert rep.passed


def test_convexity_reads_a_float_as_a_constant_function():
    # a float value used to be indexed as an array (numpy's IndexError)
    rep = check_convexity(lambda p: 0.0, dim=1, n_samples=100)
    assert rep.passed and rep.violations == 0 and rep.worst_pair["gap"] == 0.0


def test_convexity_rejects_a_column_of_values():
    # a column [n, 1] used to fail in float() on its row (numpy's TypeError)
    with pytest.raises(ConfigError, match=r"check_convexity's fn values have shape \(100, 1\)"):
        check_convexity(lambda p: p[:, :1] ** 2, dim=1, n_samples=100)


# ----------------------------------------------------------------------
# validation and properties
# ----------------------------------------------------------------------


def test_bad_arguments_raise():
    with pytest.raises(ConfigError):
        check_H4(_canonical_model(), n_samples=0)
    with pytest.raises(ConfigError):
        check_H5(_canonical_model(), nested=0)
    with pytest.raises(ConfigError):
        check_convexity(lambda p: p[:, 0], dim=0)


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("check, name", [
    ("H4", "n_samples"), ("H5", "n_samples"), ("H5", "nested"), ("H6", "n_samples"),
    ("H6", "nested"), ("convexity", "n_samples"), ("convexity", "dim"),
])
def test_counts_must_be_integers(check, name, value):
    # a float count raised numpy's bare TypeError, and True ran (and passed)
    # on a single sample, a single-atom cloud or a one-coordinate point
    calls = {
        "H4": lambda **kw: check_H4(_canonical_model(), **kw),
        "H5": lambda **kw: check_H5(_canonical_model(), **kw),
        "H6": lambda **kw: check_H6(_mirror_model(), **kw),
        "convexity": lambda **kw: check_convexity(lambda p: p[:, 0] ** 2, **{"dim": 1, **kw}),
    }
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        calls[check](**{name: value})


@pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
def test_sampler_rejects_radius_without_effective_samples(radius):
    # at radius 0 or NaN no sampled pair counts, so check_H5 passed the
    # mirror model (which fails at radius 10) and check_convexity passed -x^2
    with pytest.raises(ConfigError, match="radius"):
        check_H5(_mirror_model(), sampler=UniformPairSampler(radius=radius), n_samples=500)
    with pytest.raises(ConfigError, match="radius"):
        check_convexity(lambda p: -p[:, 0] ** 2, dim=1, sampler=UniformPairSampler(radius))


@given(
    cf=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    cb=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    cs=st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
)
def test_h4_linear_never_exceeds_operator_norm(cf, cb, cs):
    rep = check_H4(_linear_model(cf, cb, cs), n_samples=2_000, seed=1)
    bound = operator_norm(np.vstack([np.negative(cf), cb, cs]))
    assert rep.lipschitz <= bound + 1e-9
    assert isinstance(rep, MonotonicityReport)
