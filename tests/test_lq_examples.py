"""Tests for the linear-quadratic reference fixtures and their
verification pipelines."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol.core import (
    ConfigError,
    EnsembleConfig,
    NonConvergenceError,
    RegressionError,
    StateView,
    make_time_grid,
    sample_brownian,
)
from mfcontrol import games as games_module
from mfcontrol import lq_examples, smp_control
from mfcontrol.fbsde_solver import ContinuationSchedule
from mfcontrol.forward_mv import ForwardModel, simulate_forward
from mfcontrol.games import deviation_test, induced_model, nash_iterate, player_adjoint
from mfcontrol.hypothesis_check import check_H4, check_H5, check_H6
from mfcontrol.lq_examples import (
    DeviationReport,
    LQ1Params,
    LQ2Params,
    VerifyConfig,
    deviation_check,
    lq1_candidate,
    lq1_model,
    lq2_adjoint_fbsde,
    lq2_candidate,
    lq2_fbsde,
    lq2_model,
    lq_game,
    variational_margin,
    verify_example,
)
from mfcontrol.smp_control import (
    check_sufficiency,
    cost,
    projected_gradient_descent,
    smp_gradient,
    solve_adjoint,
    solve_state,
)

from oracles import (
    cold_candidate_fixed_point,
    lq1_riccati_cost,
    lq2_coefficients,
    lq_feedback,
    unpruned_linear,
    unpruned_slopes,
)


def _grid_noise(m, n, horizon=1.0, seed=7):
    grid = make_time_grid(horizon, m)
    noise = sample_brownian(grid, EnsembleConfig(particles=n, seed=seed))
    return grid, noise


def _rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


# ======================================================================
# Parameter validation
# ======================================================================


def test_lq1_rejects_unbounded_coefficient():
    bad = LQ1Params(drift_x=lambda t: float("nan") if t > 0.5 else -0.3)
    with pytest.raises(ConfigError, match="drift_x"):
        lq1_model(bad)


def test_lq1_rejects_nonpositive_horizon():
    with pytest.raises(ConfigError, match="horizon"):
        LQ1Params(horizon=0.0).validate()


def test_lq2_sign_gate_names_coefficient():
    with pytest.raises(ConfigError, match="driver_x"):
        lq2_model(replace(LQ2Params(), driver_x=-0.2))


@given(name=st.sampled_from(LQ2Params._POSITIVE + LQ2Params._NEGATIVE))
@settings(max_examples=6)
def test_lq2_sign_gate_rejects_any_flip(name):
    flipped = -float(getattr(LQ2Params(), name))
    with pytest.raises(ConfigError, match=name):
        lq2_model(replace(LQ2Params(), **{name: flipped}))


def test_lq2_rejects_vanishing_control_weight():
    with pytest.raises(ConfigError, match="control_weight"):
        lq2_model(replace(LQ2Params(), control_weight=0.0))


def test_lq2_probe_encodings_skip_sign_gate():
    # The FBSDE encodings exist so the sampling certificates can probe
    # sign-violating parameter sets; constructing them must not gate.
    bad = replace(LQ2Params(), driver_x=-0.2)
    lq2_fbsde(bad)
    lq2_adjoint_fbsde(bad)


# ======================================================================
# Structural identities of the candidate formulas
# ======================================================================


def test_lq1_candidate_vanishes_without_control_coupling():
    params = replace(
        LQ1Params(), drift_control=0.0, diff_control=0.0, driver_control=0.0
    )
    grid, noise = _grid_noise(8, 128)
    u, history = lq1_candidate(params, grid, noise)
    assert np.all(u == 0.0)
    assert len(history) == 1  # formula is identically zero from sweep one


def test_lq2_candidate_vanishes_without_control_coupling():
    params = replace(
        LQ2Params(),
        drift_control=0.0, diff_control=0.0, driver_control=0.0,
        horizon=0.25,
    )
    grid, noise = _grid_noise(8, 128, horizon=0.25)
    u, history = lq2_candidate(params, grid, noise)
    assert np.all(u == 0.0)
    assert len(history) == 1


def test_lq2_candidate_matches_cold_loop():
    # the warm-started candidate loop against the loop that solves every
    # iteration's state and adjoint cold (the default parameters are
    # constants: controls 0.1, control weight 1)
    params = replace(LQ2Params(), horizon=0.25)
    grid, noise = _grid_noise(8, 256, horizon=0.25, seed=3)
    model = lq2_model(params)

    def formula(k, t, adj):
        return -0.1 * (adj.p[k] + adj.q[k] - adj.Q[k])

    ref, ref_gaps = cold_candidate_fixed_point(model, formula, grid, noise)
    u, history = lq2_candidate(params, grid, noise)
    # Anderson mixing reaches tol in no more iterations than the damped loop
    assert len(history) <= len(ref_gaps)
    assert np.sqrt(np.mean((u - ref) ** 2)) <= 1e-6
    j, j_ref = cost(model, u, grid, noise), cost(model, ref, grid, noise)
    assert abs(j - j_ref) <= 1e-8 * abs(j_ref)


#: solver slack of a gap measured on a cold-solved state and adjoint: at one
#: control the cold and the warm-started solutions put the feedback 1.2e-8
#: to 3.2e-8 apart in RMS (noise seeds 0-9, T=0.25, M=8, N=256)
COLD_GAP_SLACK = 1e-7


def _lq2_feedback(grid, adj):
    # the default LQ2 feedback, written in the package's operation order
    return np.stack([
        -(adj.p[k] * 0.1 + adj.q[k] * 0.1 - adj.Q[k] * 0.1) / 1.0
        for k in range(grid.steps)
    ])


def test_lq2_candidate_satisfies_its_own_gap():
    # the loop returns the control whose gap it measured, with the adjoint
    # it measured it on; solved again from cold there, the feedback is
    # within tol of the control, and the gap is the recorded last one up to
    # the solver slack (a damped step past the measured control has about
    # half that gap)
    params = replace(LQ2Params(), horizon=0.25)
    grid, noise = _grid_noise(8, 256, horizon=0.25, seed=3)
    model = lq2_model(params)
    u, history = lq2_candidate(params, grid, noise)
    assert _rms(_lq2_feedback(grid, history.adjoint) - u) == history[-1]["target_gap"]
    state = solve_state(model, u, grid, noise)
    gap = _rms(_lq2_feedback(grid, solve_adjoint(model, u, state, grid, noise)) - u)
    assert gap <= 1e-6 + COLD_GAP_SLACK
    assert abs(gap - history[-1]["target_gap"]) <= COLD_GAP_SLACK


def test_candidate_first_step_is_the_damped_step():
    # damping is Anderson's relaxation factor; the first step has no history
    # to mix, so from u = 0 it is damping * proposal, bit for bit
    params = replace(LQ2Params(), horizon=0.25)
    grid, noise = _grid_noise(8, 128, horizon=0.25)
    model = lq2_model(params)
    state = solve_state(model, 0.0, grid, noise)
    proposal = _lq2_feedback(grid, solve_adjoint(model, 0.0, state, grid, noise))
    with pytest.raises(NonConvergenceError) as err:
        lq2_candidate(params, grid, noise, damping=0.5, tol=1e-300, max_iter=1)
    assert np.array_equal(err.value.last, 0.5 * proposal)


def test_lq2_candidate_formula_scales_with_control_weight():
    # One undamped sweep from u = 0 evaluates the feedback formula at
    # frozen multipliers, which the control weight must divide exactly;
    # the multipliers themselves do not see the weight at u = 0.
    grid, noise = _grid_noise(8, 128, horizon=0.25)

    def one_sweep(weight):
        params = replace(LQ2Params(), horizon=0.25, control_weight=weight)
        with pytest.raises(NonConvergenceError) as err:
            lq2_candidate(params, grid, noise, damping=1.0, tol=1e-300,
                          max_iter=1)
        return err.value.last

    assert np.array_equal(one_sweep(2.0), one_sweep(1.0) / 2.0)


#: a time-dependent control weight and drift slope, so that H_v / weight
#: differs from node to node
_TIMED_CONTROL = replace(
    LQ2Params(), horizon=0.25, control_weight=lambda t: 1.0 + t,
    drift_control=lambda t: 0.1 + 0.05 * t,
)


def test_candidate_step_is_the_written_feedback():
    # the candidate steps to u - H_v / weight with H_v from smp_gradient;
    # from u = 0 that is the feedback written out from the raw parameters,
    # bit for bit, and one undamped step returns it
    grid, noise = _grid_noise(8, 128, horizon=0.25)
    model = lq2_model(_TIMED_CONTROL)
    state = solve_state(model, 0.0, grid, noise)
    adj = solve_adjoint(model, 0.0, state, grid, noise)
    formula = lq_feedback(_TIMED_CONTROL, _TIMED_CONTROL.control_weight)
    proposal = np.stack([formula(k, k * grid.dt, adj) for k in range(grid.steps)])
    with pytest.raises(NonConvergenceError) as err:
        lq2_candidate(_TIMED_CONTROL, grid, noise, damping=1.0, tol=1e-300, max_iter=1)
    assert np.array_equal(err.value.last, proposal)


def test_candidate_converges_to_the_written_feedbacks_fixed_point():
    # with every solve cold and tight (no polish, so a warm start is unused)
    # the Anderson loop on H_v and the plain loop on the written feedback
    # solve one map of the control, and meet at its fixed point
    grid, noise = _grid_noise(8, 64, horizon=0.25)
    sched = ContinuationSchedule(polish_max_iter=0, picard_tol=1e-12)
    formula = lq_feedback(_TIMED_CONTROL, _TIMED_CONTROL.control_weight)
    ref, _ = cold_candidate_fixed_point(
        lq2_model(_TIMED_CONTROL), formula, grid, noise, damping=1.0, tol=1e-11, schedule=sched,
    )
    u, _ = lq2_candidate(_TIMED_CONTROL, grid, noise, tol=1e-11, schedule=sched)
    assert _rms(u - ref) <= 1e-10


# ======================================================================
# Fixture dynamics against closed-form recursions
# ======================================================================


def test_lq1_frozen_control_mean_path_matches_recursion():
    # Under any deterministic control the ensemble mean follows the
    # deterministic Euler recursion exactly, up to the martingale term
    # mean(diffusion * dW) of size O(1/sqrt(N)).
    params = LQ1Params()
    grid, noise = _grid_noise(64, 4096, seed=11)
    u = np.full((64, 4096), 0.3)
    sol = solve_state(lq1_model(params), u, grid, noise)

    mean_path = sol.x.mean(axis=1)
    m = np.empty(65)
    m[0] = params.x0
    for k in range(64):
        m[k + 1] = m[k] + grid.dt * (
            (params.drift_mean_x + params.drift_x) * m[k]
            + params.drift_control * 0.3
        )
    assert float(np.max(np.abs(mean_path - m))) < 0.02


def test_terminal_tie_is_exact():
    grid, noise = _grid_noise(8, 256)
    sol1 = solve_state(lq1_model(LQ1Params()), 0.0, grid, noise)
    np.testing.assert_array_equal(sol1.y[-1], sol1.x[-1])

    params2 = replace(LQ2Params(), horizon=0.25, terminal_gain=1.5)
    grid2, noise2 = _grid_noise(8, 256, horizon=0.25)
    sol2 = solve_state(lq2_model(params2), 0.0, grid2, noise2)
    np.testing.assert_allclose(sol2.y[-1], 1.5 * sol2.x[-1], atol=1e-12)


_TIME_VARYING = replace(
    LQ2Params(),
    driver_x=lambda t: 0.2 + 0.05 * np.cos(3.0 * t),
    drift_y=lambda t: -0.2 - 0.1 * t,
    diff_mean_z=lambda t: -0.1 - 0.05 * np.sin(t) ** 2,
    cross=lambda t: 0.3 * np.sin(2.0 * t),
    drift_mean_x=lambda t: 0.1 - 0.2 * t,
    diff_x=lambda t: 0.1 * np.exp(-t),
    driver_control=lambda t: 0.1 + t,
    control_weight=lambda t: 1.0 + 0.5 * t,
)


@pytest.mark.parametrize("params", [LQ2Params(), _TIME_VARYING], ids=["default", "time_varying"])
def test_lq2_encodings_match_the_written_formulas(params):
    rng = np.random.default_rng(11)
    c = lambda t: -0.37 + 0.5 * t  # noqa: E731
    state_enc, adj_enc, model = lq2_fbsde(params, c), lq2_adjoint_fbsde(params), lq2_model(params)
    for t in (0.0, 0.6180339887):
        own_xyz = rng.normal(size=(3, 33))
        law_xyz = rng.normal(size=3)
        own = StateView(x=own_xyz[0], y=own_xyz[1], z=own_xyz[2])
        law = StateView(x=law_xyz[0], y=law_xyz[1], z=law_xyz[2])
        controlled = StateView(x=own.x, y=own.y, z=own.z, u=c(t))
        state_ref, adj_ref = lq2_coefficients(params, t, law, own, c(t))
        for j, name in enumerate(("drift", "diffusion", "driver")):
            assert np.array_equal(getattr(state_enc, name)(t, law, own), state_ref[j])
            assert np.array_equal(getattr(model, name)(t, law, controlled), state_ref[j])
            assert np.array_equal(getattr(adj_enc, name)(t, law, own), adj_ref[j])


_SLOTS = ("law_x", "x", "law_y", "y", "law_z", "z", "v")


def _unit_views(slot, n):
    """``(law, own)`` with every state value and the control 0, except
    ``slot``, which is 1."""
    zero, one = np.zeros(n), np.ones(n)
    law = {s: 1.0 if slot == "law_" + s else 0.0 for s in ("x", "y", "z")}
    own = {s: one if slot == s else zero for s in ("x", "y", "z")}
    u = one if slot == "v" else zero
    return (StateView(u=float(u.mean()), **law), StateView(u=u, **own))


def _zero(t, law, own, *controls):
    """A ``None`` driver read as the zero coefficient it stands for."""
    return np.zeros(np.shape(own.x))


def _lq_models():
    grid = make_time_grid(1.0, 16)
    opponent = np.repeat(np.linspace(-0.5, 0.7, 16)[:, None], 6, axis=1)
    game = lq_game(coupling=0.2)
    return {
        "lq1": lq1_model(LQ1Params()),
        "lq2": lq2_model(LQ2Params()),
        "lq2_time_varying": lq2_model(_TIME_VARYING),
        "player1": induced_model(game, 1, opponent, grid),
        "player2": induced_model(game, 2, opponent, grid),
    }


@pytest.mark.parametrize("which", ["lq1", "lq2", "lq2_time_varying", "player1", "player2"])
def test_declared_partials_are_the_coefficients_slopes(which):
    # the coefficients are linear in every slot, so each declared partial
    # is the change of its coefficient from all-zero to a unit slot value,
    # and a slot without a declared partial changes nothing
    model = _lq_models()[which]
    n = 6
    law0, own0 = _unit_views(None, n)
    for t in (0.0, 0.37, 0.8125):
        for name in ("drift", "diffusion", "driver"):
            coef, declared = getattr(model, name) or _zero, model.partials.get(name, {})
            at_zero = coef(t, law0, own0)
            for slot in _SLOTS:
                law, own = _unit_views(slot, n)
                change = coef(t, law, own) - at_zero
                want = declared[slot](t, law0, own0) if slot in declared else np.zeros(n)
                np.testing.assert_allclose(change, want, rtol=0.0, atol=1e-13,
                                           err_msg=f"{name}[{slot}] at t={t}")


def test_player_one_of_the_uncoupled_game_is_the_lq_problem():
    grid = make_time_grid(1.0, 16)
    rng = np.random.default_rng(5)
    opponent = rng.normal(size=(16, 7))
    player = induced_model(lq_game(coupling=0.0), 1, opponent, grid)
    lq1 = lq1_model(LQ1Params())
    own_xyzu = rng.normal(size=(4, 7))
    own = StateView(x=own_xyzu[0], y=own_xyzu[1], z=own_xyzu[2], u=own_xyzu[3])
    law = StateView(x=0.3, y=-0.4, z=0.2, u=float(own.u.mean()))
    assert player.partials.keys() == lq1.partials.keys()
    for t in (0.0, 0.4375):
        for name in ("drift", "diffusion", "driver", "running_cost"):
            assert np.array_equal((getattr(player, name) or _zero)(t, law, own),
                                  (getattr(lq1, name) or _zero)(t, law, own))
            assert player.partials.get(name, {}).keys() == lq1.partials.get(name, {}).keys()
            for slot, fn in lq1.partials.get(name, {}).items():
                assert np.array_equal(player.partials[name][slot](t, law, own),
                                      fn(t, law, own))
    # the terminal and initial maps, costs and slopes, including at -0.0
    nodes = np.append(rng.normal(size=7), -0.0)
    for name in ("terminal_map", "terminal_cost", "initial_cost", "terminal_slope",
                 "terminal_cost_slope", "initial_cost_slope"):
        got, want = getattr(player, name)(nodes), getattr(lq1, name)(nodes)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_folding_leaves_time_dependent_parameters_live():
    # constant parameters are folded into floats once; a time-dependent one
    # is still read at every t, in the drift and in its x partial
    model = lq1_model(LQ1Params(drift_x=lambda t: -0.3 + 0.1 * t))
    rng = np.random.default_rng(8)
    own = StateView(x=rng.normal(size=9), u=rng.normal(size=9))
    law = StateView(x=float(own.x.mean()), u=float(own.u.mean()))
    for t in (0.0, 0.5):
        written = 0.1 * law.x + (-0.3 + 0.1 * t) * own.x + 1.0 * own.u
        assert np.array_equal(model.drift(t, law, own), written)
        slope = model.partials["drift"]["x"](t, law, own)
        assert type(slope) is float and slope == -0.3 + 0.1 * t
        assert type(model.partials["drift"]["law_x"](t, law, own)) is float
    assert model.partials["drift"]["x"](0.5, law, own) != model.partials["drift"]["x"](0.0, law, own)


# ======================================================================
# Zero constants dropped from the term tables
# ======================================================================


_ZEROED_LQ1 = LQ1Params(drift_mean_x=0.0, diff_x=0.0, driver_x=0.3, driver_mean_y=-0.1,
                        driver_z=-0.0)
_ZEROED_LQ2 = replace(LQ2Params(), cross_mean=0.0, cross=0.0, drift_mean_x=0.0,
                      diff_control=0.0)


def _random_views(rng, n):
    own_xyzu = rng.normal(size=(4, n))
    own = StateView(x=own_xyzu[0], y=own_xyzu[1], z=own_xyzu[2], u=own_xyzu[3])
    law_xyz = rng.normal(size=3)
    return StateView(x=law_xyz[0], y=law_xyz[1], z=law_xyz[2], u=float(own.u.mean())), own


def _assert_matches_unpruned(coef, block, ref, ref_block, t, law, own):
    """A pruned coefficient (``None`` read as zero) and its partials equal
    the unpruned ones, an absent partial being an unpruned zero."""
    assert np.array_equal((coef or _zero)(t, law, own), ref(t, law, own))
    assert set(block) <= set(ref_block)
    for slot, fn in ref_block.items():
        want = fn(t, law, own)
        assert (block[slot](t, law, own) == want) if slot in block else (want == 0.0)


@pytest.mark.parametrize("params", [LQ1Params(), LQ2Params(), _TIME_VARYING, _ZEROED_LQ1,
                                    _ZEROED_LQ2],
                         ids=["lq1", "lq2", "lq2_time_varying", "lq1_zeros", "lq2_zeros"])
def test_pruned_tables_match_the_unpruned_ones(params):
    model = (lq1_model if isinstance(params, LQ1Params) else lq2_model)(params)
    rng = np.random.default_rng(21)
    for t in (0.0, 0.37, 0.8125):
        law, own = _random_views(rng, 9)
        for name, terms in params._TERMS.items():
            ref = unpruned_linear(terms, params, lambda t, own: own.u)
            _assert_matches_unpruned(getattr(model, name), model.partials.get(name, {}), ref,
                                     unpruned_slopes(terms, params), t, law, own)


def _unpruned_game(params, coupling):
    """``lq_game(params, coupling)`` and its twin built from the unpruned
    tables."""
    game = lq_game(params, coupling=coupling)
    pushed = {"drift": lambda t, own, v1, v2: v1 + coupling * v2}
    coefs, partials = {}, {}
    for name, terms in params._TERMS.items():
        coefs[name] = unpruned_linear(terms, params,
                                      pushed.get(name, lambda t, own, v1, v2: v1))
        partials[name] = {"v1" if slot == "v" else slot: fn
                          for slot, fn in unpruned_slopes(terms, params).items()}
    drift_v1 = partials["drift"]["v1"]
    partials["drift"]["v2"] = lambda t, law, own, v1, v2: coupling * drift_v1(t, law, own)
    return game, replace(game, **coefs, partials={**game.partials, **partials})


@pytest.mark.parametrize("params", [LQ1Params(), _ZEROED_LQ1], ids=["lq1", "lq1_zeros"])
@pytest.mark.parametrize("i", [1, 2])
def test_pruned_game_players_match_the_unpruned_ones(params, i):
    grid = make_time_grid(1.0, 16)
    rng = np.random.default_rng(22)
    opponent = rng.normal(size=(16, 9))
    game, twin = _unpruned_game(params, 0.2)
    player, ref = induced_model(game, i, opponent, grid), induced_model(twin, i, opponent, grid)
    for j in (0, 5, 16):
        law, own = _random_views(rng, 9)
        for name in ("drift", "diffusion", "driver"):
            _assert_matches_unpruned(getattr(player, name), player.partials.get(name, {}),
                                     getattr(ref, name), ref.partials[name], grid.nodes[j],
                                     law, own)


def test_a_time_parameter_that_returns_zero_stays_live():
    params = LQ1Params(diff_mean_x=lambda t: 0.0, driver_z=lambda t: 0.0 * t)
    model = lq1_model(params)
    assert model.driver is not None and model.partials["driver"].keys() == {"z"}
    assert model.partials["diffusion"].keys() == {"law_x", "x", "v"}
    law, own = _random_views(np.random.default_rng(23), 9)
    for t in (0.0, 0.5):
        for name, terms in params._TERMS.items():
            ref = unpruned_linear(terms, params, lambda t, own: own.u)
            assert np.array_equal(getattr(model, name)(t, law, own), ref(t, law, own))
        assert model.partials["diffusion"]["law_x"](t, law, own) == 0.0


def test_a_zero_driver_is_none_and_the_state_sweep_gets_none(monkeypatch):
    model = lq1_model(LQ1Params())
    assert model.driver is None and "driver" not in model.partials
    handed = []
    sweep = smp_control.solve_mf_bsde
    monkeypatch.setattr(smp_control, "solve_mf_bsde",
                        lambda backward, *args, **kw: handed.append(backward.driver)
                        or sweep(backward, *args, **kw))
    grid, noise = _grid_noise(8, 64)
    sol = solve_state(model, 0.2, grid, noise)
    assert handed == [None] and np.all(np.isfinite(sol.y))


def test_player_adjoints_compile_no_driver_and_no_zero_partial(monkeypatch):
    paths = []

    class Recorded(smp_control._FrozenPath):
        def __init__(self, *args):
            super().__init__(*args)
            paths.append(self)

    monkeypatch.setattr(smp_control, "_FrozenPath", Recorded)
    game = lq_game(coupling=0.2)
    grid, noise = _grid_noise(8, 64)
    u1 = np.full((8, 64), 0.2)
    u2 = np.full((8, 64), -0.1)
    state = solve_state(induced_model(game, 1, u2, grid), u1, grid, noise)
    for i, own, other in ((1, u1, u2), (2, u2, u1)):
        adj = player_adjoint(game, i, (u1, u2), state, grid, noise)
        smp_gradient(induced_model(game, i, other, grid), own, grid, noise, state=state,
                     adjoint=adj)
    assert len(paths) == 4
    for path in paths:
        assert path._transposed and all(name != "driver" for name, _ in path._fns)
        for (_, _, names), form in path._transposed.items():
            for c_law, c, j in form:
                assert names[j] != "driver"
                assert all(type(val) is not float or val != 0.0 for val in (c_law, c))


def test_an_all_zero_diffusion_table_still_returns_ensemble_zeros():
    model = lq1_model(LQ1Params(diff_mean_x=0, diff_x=0, diff_control=0))
    assert "diffusion" not in model.partials
    grid, noise = _grid_noise(8, 64)
    u = np.full((8, 64), 0.2)
    x = simulate_forward(ForwardModel(model.drift, model.diffusion, model.initial), grid, noise,
                         control=u)
    assert x.shape == (9, 64) and np.all(np.isfinite(x))
    assert np.all(x == x[:, :1])  # no noise enters: every particle follows one path
    law, own = _random_views(np.random.default_rng(24), 64)
    assert np.array_equal(model.diffusion(0.25, law, own), np.zeros(64))


# ======================================================================
# Standing-condition certificates on the committed fixture
# ======================================================================


def test_lq2_state_encoding_passes_H4_H5():
    enc = lq2_fbsde(LQ2Params())
    h4 = check_H4(enc, n_samples=4000, seed=1)
    assert h4.passed and np.isfinite(h4.lipschitz)
    h5 = check_H5(enc, n_samples=1000, nested=16, seed=1)
    assert h5.passed
    assert h5.monotonicity >= 0.05  # fixture constant is 0.1
    assert h5.terminal_monotonicity == pytest.approx(1.0, rel=1e-6)
    assert not h5.violations


def test_lq2_adjoint_encoding_passes_H6():
    h6 = check_H6(lq2_adjoint_fbsde(LQ2Params()), n_samples=1000, nested=16,
                  seed=1)
    assert h6.passed
    assert h6.monotonicity >= 0.05
    assert not h6.violations


def test_lq2_sign_flip_fails_H5_with_witness():
    enc = lq2_fbsde(replace(LQ2Params(), driver_x=-0.2))
    h5 = check_H5(enc, n_samples=1000, nested=16, seed=1)
    assert not h5.passed
    assert h5.violations
    assert h5.worst_pair is not None


# ======================================================================
# Candidate construction and optimality
# ======================================================================


def test_lq1_candidate_is_stationary():
    grid, noise = _grid_noise(16, 2048, seed=3)
    u, history = lq1_candidate(LQ1Params(), grid, noise)
    assert history[-1]["target_gap"] <= 1e-6

    model = lq1_model(LQ1Params())
    grad = smp_gradient(model, u, grid, noise)
    j = cost(model, u, grid, noise)
    assert _rms(grad) <= 5e-3 * max(1.0, abs(j))

    vi = variational_margin(model, u, grid, noise, n_trials=10)
    assert vi["passed"]


def test_lq1_riccati_oracle_value():
    # the optimal cost of the default LQ1 problem, from its two Riccati
    # equations; a 4x finer RK4 step moves it by under 1e-13
    assert lq1_riccati_cost(LQ1Params()) == pytest.approx(0.26107009932, abs=1e-11)
    assert lq1_riccati_cost(LQ1Params(), steps=4000) == pytest.approx(
        lq1_riccati_cost(LQ1Params()), abs=1e-13)


def test_lq1_candidate_cost_matches_the_riccati_optimum():
    # eight independent ensembles at M=32: the seed-mean cost error sits
    # within three seed standard errors of the exact optimum (measured
    # -1.0e-3 against an SE of 6.9e-4; at M=16 the O(dt) bias, -2.8e-3,
    # is over four SEs and would fail)
    params, exact = LQ1Params(), lq1_riccati_cost(LQ1Params())
    errors = []
    for seed in range(8):
        grid, noise = _grid_noise(32, 2048, seed=seed)
        u, history = lq1_candidate(params, grid, noise)
        errors.append(cost(lq1_model(params), u, grid, noise, state=history.state) - exact)
    mean, se = np.mean(errors), np.std(errors, ddof=1) / np.sqrt(len(errors))
    assert abs(mean) <= 3.0 * se


def test_lq1_candidate_fixed_point_damping_insensitive():
    # The limit is a fixed point of the undamped map, so the damping
    # factor must only affect the route, not the destination.
    grid, noise = _grid_noise(8, 256)
    u_half, _ = lq1_candidate(LQ1Params(), grid, noise, damping=0.5, tol=1e-8)
    u_damped, _ = lq1_candidate(LQ1Params(), grid, noise, damping=0.35,
                                tol=1e-8)
    assert _rms(u_half - u_damped) < 5e-7


def test_candidate_rejects_bad_damping():
    grid, noise = _grid_noise(8, 64)
    with pytest.raises(ConfigError, match="damping"):
        lq1_candidate(LQ1Params(), grid, noise, damping=0.0)
    with pytest.raises(ConfigError, match="damping"):
        lq1_candidate(LQ1Params(), grid, noise, damping=1.5)


@pytest.mark.parametrize("bad", [
    {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-6},
    {"max_iter": 0}, {"max_iter": 2.5}, {"max_iter": True},
], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()))
def test_candidate_rejects_bad_tolerance_and_cap(bad):
    # unchecked, tol=nan ran all 200 iterations (about 1 s at this size) and
    # then reported "did not reach rms tolerance nan"; max_iter=2.5 raised a
    # bare TypeError and max_iter=True ran one iteration
    grid, noise = _grid_noise(8, 64)
    with pytest.raises(ConfigError, match="tol" if "tol" in bad else "max_iter"):
        lq1_candidate(LQ1Params(), grid, noise, **bad)


def test_candidate_nonconvergence_carries_history():
    grid, noise = _grid_noise(8, 64)
    with pytest.raises(NonConvergenceError) as err:
        lq1_candidate(LQ1Params(), grid, noise, tol=1e-14, max_iter=2)
    assert len(err.value.history) == 2
    assert err.value.last.shape == (8, 64)


# ======================================================================
# Deviation sampling
# ======================================================================


def test_deviation_check_accepts_candidate_rejects_offset():
    grid, noise = _grid_noise(16, 1024, seed=3)
    model = lq1_model(LQ1Params())
    u, _ = lq1_candidate(LQ1Params(), grid, noise)

    rep = deviation_check(model, u, grid, noise, n_deviations=6)
    assert isinstance(rep, DeviationReport)
    assert rep.passed
    assert len(rep.records) == 6
    assert rep.worst_margin == pytest.approx(
        min(r["margin"] for r in rep.records)
    )

    bad = deviation_check(model, u + 0.8, grid, noise, n_deviations=6)
    assert not bad.passed
    assert bad.worst_margin < 0.0


def test_deviation_check_falls_back_to_continuation_on_regression_error(monkeypatch):
    # the warm decoupling pass of a coupled deviation fails with a
    # RegressionError: the continuation must take over, as it does for
    # non-convergence and divergence, and the pass uses the schedule's memory
    grid, noise = _grid_noise(4, 256, horizon=0.25, seed=3)
    model = lq2_model(LQ2Params())
    schedule = ContinuationSchedule(accel_memory=3)
    seen = []

    def failing_picard(*args, **kwargs):
        seen.append(kwargs["accel_memory"])
        raise RegressionError("ill-conditioned", condition_number=np.inf)

    monkeypatch.setattr(smp_control, "solve_picard", failing_picard)
    rep = deviation_check(
        model, 0.1, grid, noise, n_deviations=2, schedule=schedule
    )
    assert seen == [3, 3]
    assert len(rep.records) == 2
    assert np.isfinite(rep.worst_margin)


def test_deviation_check_reuses_a_given_state(monkeypatch):
    # a caller's state at u replaces the cold solve and gives the same report
    grid, noise = _grid_noise(4, 256, horizon=0.25, seed=3)
    model = lq2_model(replace(LQ2Params(), horizon=0.25))
    state = solve_state(model, 0.1, grid, noise)
    cold = deviation_check(model, 0.1, grid, noise, n_deviations=2)

    def no_cold_solve(*args, **kwargs):
        raise AssertionError("deviation_check solved the given state again")

    monkeypatch.setattr(lq_examples, "solve_state", no_cold_solve)
    reused = deviation_check(model, 0.1, grid, noise, n_deviations=2, state=state)
    assert reused.records == cold.records


@pytest.mark.parametrize(
    "check, kwargs, match",
    [
        ("deviation_check", {"n_deviations": 0}, "at least one sampled"),
        ("deviation_check", {"n_deviations": -2}, "at least one sampled"),
        ("deviation_check", {"radius": 0.0}, "radius"),
        ("deviation_check", {"radius": float("nan")}, "radius"),
        ("deviation_check", {"radius": float("inf")}, "radius"),
        ("variational_margin", {"n_trials": 0}, "at least one sampled"),
        ("variational_margin", {"radius": -0.5}, "radius"),
        ("deviation_test", {"n_deviations": 0}, "at least one sampled"),
        ("deviation_test", {"radius": 0.0}, "radius"),
        ("nash_iterate", {"n_deviations": 0}, "at least one sampled"),
        ("nash_iterate", {"n_trials": 0}, "at least one sampled"),
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
)
def test_certificates_refuse_to_pass_without_samples(check, kwargs, match):
    # unchecked, a certificate drawn from no samples or from perturbations
    # of zero size passes vacuously: on this fixture deviation_check reads
    # margin inf at n_deviations=0 and 0.0 at radius=0, while radius 0.5
    # rejects u = 5 with margin -4.3
    grid, noise = _grid_noise(4, 64, seed=3)
    model = lq1_model(LQ1Params())
    calls = {
        "deviation_check": lambda: deviation_check(model, 5.0, grid, noise, **kwargs),
        "variational_margin": lambda: variational_margin(model, 5.0, grid, noise, **kwargs),
        "deviation_test": lambda: deviation_test(lq_game(), (5.0, 0.0), grid, noise, **kwargs),
        "nash_iterate": lambda: nash_iterate(lq_game(), (5.0, 0.0), grid, noise, **kwargs),
    }
    with pytest.raises(ConfigError, match=match):
        calls[check]()


@pytest.mark.parametrize(
    "check, kwargs",
    [
        ("descent", {"steps": 2.5}),
        ("descent", {"steps": True}),
        ("nash_iterate", {"rounds": 2.5}),
        ("nash_iterate", {"br_steps": 1.5}),
        ("nash_iterate", {"n_trials": 2.5}),
        ("nash_iterate", {"n_deviations": True}),
        ("sufficiency", {"control_trials": 2.5}),
        ("sufficiency", {"control_trials": True}),
        ("deviation_check", {"n_deviations": 2.5}),
        ("variational_margin", {"n_trials": 2.5}),
        ("deviation_test", {"n_deviations": 2.5}),
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
)
def test_integer_counts_refuse_non_integers(check, kwargs):
    # unchecked, a float count raised a bare TypeError ("'float' object
    # cannot be interpreted as an integer") somewhere inside the run, and
    # True counted as one
    grid, noise = _grid_noise(4, 64, seed=3)
    model = lq1_model(LQ1Params())
    calls = {
        "descent": lambda: projected_gradient_descent(model, 5.0, grid, noise, **kwargs),
        "nash_iterate": lambda: nash_iterate(lq_game(), (5.0, 0.0), grid, noise, **kwargs),
        "sufficiency": lambda: check_sufficiency(model, 5.0, grid, noise, n_samples=1000,
                                                 **kwargs),
        "deviation_check": lambda: deviation_check(model, 5.0, grid, noise, **kwargs),
        "variational_margin": lambda: variational_margin(model, 5.0, grid, noise, **kwargs),
        "deviation_test": lambda: deviation_test(lq_game(), (5.0, 0.0), grid, noise, **kwargs),
    }
    with pytest.raises(ConfigError, match="integer"):
        calls[check]()


def test_variational_margin_flags_suboptimal_control():
    grid, noise = _grid_noise(16, 1024, seed=3)
    model = lq1_model(LQ1Params())
    u, _ = lq1_candidate(LQ1Params(), grid, noise)
    bad = variational_margin(model, u + 0.8, grid, noise, n_trials=10)
    assert not bad["passed"]
    assert bad["margin"] < 0.0


# ======================================================================
# End-to-end verification pipelines
# ======================================================================

_SMALL = dict(
    particles=512, n_deviations=8, sufficiency_samples=2000,
    hypothesis_samples=2000, control_trials=8,
)


def test_verify_example_rejects_unknown_example():
    with pytest.raises(ConfigError):
        verify_example(3)


def test_verify_example_lq1_passes_end_to_end():
    report = verify_example(
        1, grid=make_time_grid(1.0, 16), cfg=VerifyConfig(**_SMALL)
    )
    assert report.passed and report.failing_stage is None
    assert [s["name"] for s in report.stages] == [
        "candidate", "stationarity", "sufficiency", "deviations",
        "descent_recovery",
    ]
    assert all(s["passed"] for s in report.stages)
    assert report.candidate_cost > 0.0
    json.dumps(report.to_dict())  # stage payloads must stay JSON-ready


def test_verify_example_lq2_passes_end_to_end():
    report = verify_example(
        2,
        params=replace(LQ2Params(), horizon=0.25),
        grid=make_time_grid(0.25, 8),
        cfg=VerifyConfig(
            schedule=ContinuationSchedule(step=0.5), **_SMALL
        ),
    )
    assert report.passed and report.failing_stage is None
    assert [s["name"] for s in report.stages] == [
        "hypothesis", "candidate", "stationarity", "sufficiency",
        "deviations",
    ]
    assert report.stages[0]["monotonicity"] >= 0.05
    json.dumps(report.to_dict())


def test_verify_example_lq2_reuses_the_candidate_solutions(monkeypatch):
    # the candidate loop solves cold only in its first iteration (state and
    # adjoint); every later stage reuses or warm-starts from its solutions
    real = smp_control.solve_continuation
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(smp_control, "solve_continuation", counting)
    report = verify_example(
        2,
        params=replace(LQ2Params(), horizon=0.25),
        grid=make_time_grid(0.25, 8),
        cfg=VerifyConfig(
            schedule=ContinuationSchedule(step=0.5), **_SMALL
        ),
    )
    assert report.passed
    assert len(calls) == 2


def test_verify_example_lq2_sign_violation_fails_at_hypothesis():
    report = verify_example(
        2,
        params=replace(LQ2Params(), driver_x=-0.2, horizon=0.25),
        grid=make_time_grid(0.25, 8),
        cfg=VerifyConfig(**_SMALL),
    )
    assert not report.passed
    assert report.failing_stage == "hypothesis"
    assert "H5" in report.stages[0]["failed_checks"]
    assert len(report.stages) == 1  # later stages short-circuit


def _stub(name, value):
    def stub(*args, **kwargs):
        if isinstance(value, Exception):
            raise value
        return value

    return name, stub


_NOT_REACHED = AssertionError("a stage after the failing one ran")
_FAILED_SUFFICIENCY = smp_control.SufficiencyReport(
    passed=False, convexity={}, minimality_violations=3, worst_violation=None,
    slack=1e-4, control_trials=8,
)
_FAILED_DEVIATIONS = DeviationReport(
    passed=False, n_deviations=8, worst_margin=-1.0, worst_index=2,
)


@pytest.mark.parametrize(
    "stage, patches",
    [
        ("stationarity", [("STATIONARITY_TOL", 0.0), _stub("check_sufficiency", _NOT_REACHED)]),
        ("sufficiency", [_stub("check_sufficiency", _FAILED_SUFFICIENCY),
                         _stub("deviation_check", _NOT_REACHED)]),
        ("deviations", [_stub("deviation_check", _FAILED_DEVIATIONS),
                        _stub("projected_gradient_descent", _NOT_REACHED)]),
        ("descent_recovery", [("DESCENT_RMS_TOL", 0.0)]),
    ],
    ids=["stationarity", "sufficiency", "deviations", "descent_recovery"],
)
def test_verify_example_stops_at_the_first_failing_stage(monkeypatch, stage, patches):
    # each later stage of the LQ1 pipeline fails on its own: the report
    # names it, its record is the last one, and no later stage runs
    for name, value in patches:
        monkeypatch.setattr(lq_examples, name, value)
    report = verify_example(1, grid=make_time_grid(1.0, 16), cfg=VerifyConfig(**_SMALL))
    names = ["candidate", "stationarity", "sufficiency", "deviations", "descent_recovery"]
    assert not report.passed
    assert report.failing_stage == stage
    assert [s["name"] for s in report.stages] == names[: names.index(stage) + 1]
    assert [s["passed"] for s in report.stages] == [True] * (len(report.stages) - 1) + [False]
    json.dumps(report.to_dict())


def test_verify_example_records_a_failed_candidate(monkeypatch):
    monkeypatch.setattr(lq_examples, *_stub("lq1_candidate", NonConvergenceError("no fixed point")))
    report = verify_example(1, grid=make_time_grid(1.0, 16), cfg=VerifyConfig(**_SMALL))
    assert report.failing_stage == "candidate" and not report.passed
    assert report.stages == [{"name": "candidate", "passed": False, "error": "no fixed point"}]


@pytest.mark.parametrize(
    "check, kwargs",
    [
        ("deviation_check", {"n_deviations": 0}),
        ("deviation_check", {"radius": float("nan")}),
        ("deviation_test", {"n_deviations": 0}),
        ("deviation_test", {"radius": -1.0}),
        ("sufficiency", {"n_samples": 0}),
    ],
    ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else None,
)
def test_sampling_certificates_reject_before_solving(monkeypatch, check, kwargs):
    # a bad sample count or radius is known before any solve: the check
    # raises ConfigError without paying for the base state or adjoint
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating the sampling options")

    for module in (lq_examples, smp_control, games_module):
        for name in ("solve_state", "solve_adjoint"):
            monkeypatch.setattr(module, name, no_solve)
    grid, noise = _grid_noise(4, 64, seed=3)
    model = lq1_model(LQ1Params())
    calls = {
        "deviation_check": lambda: deviation_check(model, 0.0, grid, noise, **kwargs),
        "deviation_test": lambda: deviation_test(lq_game(), (0.0, 0.0), grid, noise, **kwargs),
        "sufficiency": lambda: check_sufficiency(model, 0.0, grid, noise, **kwargs),
    }
    with pytest.raises(ConfigError):
        calls[check]()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: lq1_model(LQ1Params(x0=float("nan"))), "x0"),
        (lambda: lq2_model(LQ2Params(x0=float("inf"))), "x0"),
        (lambda: lq2_model(LQ2Params(terminal_gain=0.0)), "terminal_gain"),
        (lambda: lq2_model(LQ2Params(terminal_weight=-0.5)), "terminal_weight"),
        (lambda: lq2_model(LQ2Params(initial_weight=0.0)), "initial_weight"),
        (lambda: lq_game(coupling=-1.0), "coupling"),
    ],
    ids=["lq1_x0", "lq2_x0", "terminal_gain", "terminal_weight", "initial_weight", "coupling"],
)
def test_fixtures_reject_invalid_parameters(build, match):
    with pytest.raises(ConfigError, match=match):
        build()
