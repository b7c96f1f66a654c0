"""Tests for the stochastic-maximum-principle control layer."""

import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfcontrol import fbsde_solver, smp_control
from mfcontrol.core import (
    ConfigError,
    DivergenceError,
    EnsembleConfig,
    NonConvergenceError,
    RegressionError,
    StateView,
    _value,
    make_time_grid,
    sample_brownian,
)
from mfcontrol.fbsde_solver import (
    ContinuationSchedule,
    LinearInhomogeneity,
    SolutionTriple,
    residual,
    solve_continuation,
    solve_linear_seed,
    solve_picard,
)
from mfcontrol.games import best_response, deviation_test, induced_model
from mfcontrol.hypothesis_check import check_convexity
from mfcontrol.lq_examples import (
    LQ1Params,
    LQ2Params,
    deviation_check,
    lq1_model,
    lq2_fbsde,
    lq2_model,
    lq_game,
)
from mfcontrol.forward_mv import ForwardModel, _views, simulate_forward
from mfcontrol.mf_bsde import BackwardModel, solve_mf_bsde
from mfcontrol.smp_control import (
    AdjointTriple,
    ControlModel,
    as_control,
    box_projection,
    cost,
    check_sufficiency,
    hamiltonian,
    projected_gradient_descent,
    smp_gradient,
    solve_adjoint,
    solve_state,
    solve_variational,
    variational_inequality_residual,
)

from oracles import (
    array_slopes,
    directional_fd,
    first_polish_fails,
    sequential_adjoint,
    sequential_variational,
)


def _grid_noise(m=16, n=256, horizon=1.0, seed=7):
    grid = make_time_grid(horizon, m)
    noise = sample_brownian(grid, EnsembleConfig(particles=n, seed=seed))
    return grid, noise


def _zeros(t, law, own):
    return np.zeros_like(own.x)


def _const(c):
    return lambda t, law, own: np.full_like(own.x, c)


def _tracking_model(target):
    """State-independent control tracking: J = E int (u - target(t))^2 / 2."""
    return ControlModel(
        drift=_zeros,
        diffusion=_const(0.3),
        driver=None,
        terminal_map=0.0,
        running_cost=lambda t, law, own: 0.5 * (own.u - target(t)) ** 2,
        terminal_cost=lambda x: np.zeros_like(x),
        initial_cost=lambda y: np.zeros_like(y),
        partials={"running_cost": {"v": lambda t, law, own: own.u - target(t)}},
        terminal_slope=lambda x: np.zeros_like(x),
        terminal_cost_slope=lambda x: np.zeros_like(x),
        initial_cost_slope=lambda y: np.zeros_like(y),
    )


def _affine_model(scale=1.0):
    """Decoupled affine state, quadratic costs; scale multiplies the costs."""
    return ControlModel(
        drift=lambda t, law, own: 0.1 * law.x - 0.3 * own.x + own.u + 0.05,
        diffusion=lambda t, law, own: 0.2 * own.x + 0.5 * own.u + 0.3,
        driver=lambda t, law, own: 0.2 * own.y + 0.1 * law.y - 0.05 * own.z + 0.3 * own.u,
        terminal_map=0.0,
        running_cost=lambda t, law, own: scale * (
            0.5 * own.u**2 + 0.5 * own.x**2 + 0.1 * own.x * own.u + 0.05 * law.x * own.x
        ),
        terminal_cost=lambda x: scale * 0.5 * x**2,
        initial_cost=lambda y: scale * 0.5 * y**2,
        partials={
            "drift": {
                "law_x": _const(0.1),
                "x": _const(-0.3),
                "v": _const(1.0),
            },
            "diffusion": {"x": _const(0.2), "v": _const(0.5)},
            "driver": {
                "y": _const(0.2),
                "law_y": _const(0.1),
                "z": _const(-0.05),
                "v": _const(0.3),
            },
            "running_cost": {
                "x": lambda t, law, own: scale * (own.x + 0.1 * own.u + 0.05 * law.x),
                "v": lambda t, law, own: scale * (own.u + 0.1 * own.x),
                "law_x": lambda t, law, own: scale * 0.05 * own.x,
            },
        },
        terminal_slope=lambda x: np.zeros_like(x),
        terminal_cost_slope=lambda x: scale * x,
        initial_cost_slope=lambda y: scale * y,
        initial=1.0,
    )


def _coupled_canonical():
    """Coupled model of the forward-monotone type with quadratic costs."""
    return ControlModel(
        drift=lambda t, law, own: -(law.y + own.y) + own.u,
        diffusion=lambda t, law, own: -(law.z + own.z) + 0.5 * own.u,
        driver=lambda t, law, own: law.x + own.x + 0.3 * own.u,
        terminal_map=lambda x: x,
        running_cost=lambda t, law, own: 0.5 * own.u**2,
        terminal_cost=lambda x: 0.5 * x**2,
        initial_cost=lambda y: 0.5 * y**2,
        partials={
            "drift": {"law_y": _const(-1.0), "y": _const(-1.0), "v": _const(1.0)},
            "diffusion": {"law_z": _const(-1.0), "z": _const(-1.0), "v": _const(0.5)},
            "driver": {"law_x": _const(1.0), "x": _const(1.0), "v": _const(0.3)},
            "running_cost": {"v": lambda t, law, own: own.u},
        },
        terminal_slope=lambda x: np.ones_like(x),
        terminal_cost_slope=lambda x: x,
        initial_cost_slope=lambda y: y,
        initial=0.5,
        coupled=True,
    )


# ======================================================================
# control arrays, admissibility, model validation
# ======================================================================


def test_as_control_shapes():
    grid, noise = _grid_noise(m=4, n=3)
    full = as_control(2.0, grid, 3)
    assert full.shape == (4, 3) and np.all(full == 2.0)
    row = as_control(np.arange(4.0), grid, 3)
    assert row.shape == (4, 3) and np.all(row[:, 0] == np.arange(4.0))
    col = as_control(np.arange(4.0)[:, None], grid, 3)
    assert np.array_equal(col, row)
    with pytest.raises(ConfigError):
        as_control(np.zeros((3, 3)), grid, 3)


@pytest.mark.parametrize(
    "u, node, particle",
    [
        (np.nan, 0, 0),
        (np.inf, 0, 0),
        (np.array([0.0, 1.0, -np.inf, 0.0]), 2, 0),
        (np.array([[0.0], [0.0], [0.0], [np.nan]]), 3, 0),
        (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, np.nan], [np.inf, 0.0, 0.0], [0.0] * 3]), 1, 2),
    ],
)
def test_as_control_rejects_non_finite_entries(u, node, particle):
    grid, _ = _grid_noise(m=4, n=3)
    with pytest.raises(ConfigError, match=f"node {node}, particle {particle}"):
        as_control(u, grid, 3)


def test_non_finite_controls_fail_typed():
    grid, noise = _grid_noise(m=8, n=64, horizon=0.5)
    model = lq1_model(LQ1Params())
    state = solve_state(model, 0.1, grid, noise)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="not finite"):
            solve_state(model, bad, grid, noise)
        with pytest.raises(ConfigError, match="not finite"):
            solve_variational(model, 0.1, bad, state, grid, noise)
        with pytest.raises(ConfigError, match="not finite"):
            duality_gap(model, 0.1, bad, grid, noise, state=state)
        with pytest.raises(ConfigError, match="not finite"):
            variational_inequality_residual(model, 0.1, [bad], grid, noise, state=state)


def test_partials_validation():
    with pytest.raises(ConfigError, match="unknown coefficient"):
        ControlModel(
            drift=_zeros, diffusion=_zeros, driver=None, terminal_map=0.0,
            running_cost=_zeros,
            terminal_cost=lambda x: x, initial_cost=lambda y: y,
            partials={"drif": {"v": _const(1.0)}},
            terminal_slope=lambda x: x, terminal_cost_slope=lambda x: x,
            initial_cost_slope=lambda y: y,
        )
    with pytest.raises(ConfigError, match="unknown slot"):
        ControlModel(
            drift=_zeros, diffusion=_zeros, driver=None, terminal_map=0.0,
            running_cost=_zeros,
            terminal_cost=lambda x: x, initial_cost=lambda y: y,
            partials={"drift": {"u": _const(1.0)}},
            terminal_slope=lambda x: x, terminal_cost_slope=lambda x: x,
            initial_cost_slope=lambda y: y,
        )
    # a decoupled model's drift and diffusion read no y or z slot
    for name in ("drift", "diffusion"):
        for slot in ("law_y", "y", "law_z", "z"):
            with pytest.raises(ConfigError, match=f"partials\\['{name}'\\]\\['{slot}'\\]"):
                ControlModel(
                    drift=_zeros, diffusion=_zeros, driver=None, terminal_map=0.0,
                    running_cost=_zeros,
                    terminal_cost=lambda x: x, initial_cost=lambda y: y,
                    partials={name: {slot: _const(1.0)}},
                    terminal_slope=lambda x: x, terminal_cost_slope=lambda x: x,
                    initial_cost_slope=lambda y: y, coupled=False,
                )


def test_inadmissible_control_rejected():
    grid, noise = _grid_noise(m=4, n=8)
    model = replace(_tracking_model(lambda t: 0.0), project=box_projection(0.0, 1.0))
    with pytest.raises(ConfigError):
        solve_state(model, 5.0, grid, noise)


# ======================================================================
# state reduction and cost quadrature
# ======================================================================


def test_decoupled_state_matches_manual_pipeline():
    grid, noise = _grid_noise()
    model = _affine_model()
    u = as_control(0.2, grid, noise.particles)
    sol = solve_state(model, u, grid, noise)
    x = simulate_forward(
        ForwardModel(drift=model.drift, diffusion=model.diffusion, initial=model.initial),
        grid, noise, control=u,
    )
    y, z = solve_mf_bsde(
        BackwardModel(driver=model.driver, terminal=model.terminal_map),
        grid, noise, x, control=u,
    )
    assert np.array_equal(sol.x, x)
    assert np.array_equal(sol.y, y)
    assert np.array_equal(sol.z, z)


def test_cost_quadrature_exact():
    grid, noise = _grid_noise(m=8, n=16, horizon=1.0)
    model = ControlModel(
        drift=_zeros, diffusion=_zeros, driver=None, terminal_map=0.0,
        running_cost=lambda t, law, own: own.u**2,
        terminal_cost=lambda x: np.zeros_like(x),
        initial_cost=lambda y: np.zeros_like(y),
        partials={},
        terminal_slope=lambda x: np.zeros_like(x),
        terminal_cost_slope=lambda x: np.zeros_like(x),
        initial_cost_slope=lambda y: np.zeros_like(y),
    )
    assert cost(model, 1.0, grid, noise) == pytest.approx(1.0, abs=1e-14)


def test_hamiltonian_formula():
    model = _coupled_canonical()
    own = StateView(x=np.array([1.0]), y=np.array([0.0]), z=np.array([0.0]), u=np.array([2.0]))
    law = StateView(x=1.0, y=0.0, z=0.0, u=2.0)
    # b = -(0+0)+2 = 2, s = 0+1 = 1, f = 1+1+0.6 = 2.6, h = 2
    val = hamiltonian(model, 0.0, law, own, p=3.0, q=1.0, Q=0.5)
    assert val[0] == pytest.approx(2.0 * 3.0 + 1.0 * 1.0 - 2.6 * 0.5 + 2.0)


# ======================================================================
# adjoint structure
# ======================================================================


def test_adjoint_boundary_identities_decoupled():
    grid, noise = _grid_noise()
    model = _affine_model()
    u = as_control(0.1, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    adj = solve_adjoint(model, u, state, grid, noise)
    assert np.allclose(adj.Q[0], -state.y[0], atol=1e-14)
    m = grid.steps
    expected_pm = state.x[m] - 0.0 * adj.Q[m]
    assert np.allclose(adj.p[m], expected_pm, atol=1e-12)


def test_adjoint_zero_costs_zero_multipliers():
    grid, noise = _grid_noise(m=8, n=64)
    model = _tracking_model(lambda t: 0.3)
    u = as_control(0.5, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    adj = solve_adjoint(model, u, state, grid, noise)
    assert np.allclose(adj.p, 0.0, atol=1e-12)
    assert np.allclose(adj.q, 0.0, atol=1e-12)
    assert np.allclose(adj.Q, 0.0, atol=1e-12)


def test_coupled_adjoint_boundaries():
    grid, noise = _grid_noise(m=8, n=256, horizon=0.5, seed=3)
    model = _coupled_canonical()
    u = as_control(0.2, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    adj = solve_adjoint(model, u, state, grid, noise)
    assert np.allclose(adj.Q[0], -state.y[0], atol=1e-12)
    m = grid.steps
    assert np.allclose(adj.p[m], state.x[m] - adj.Q[m], atol=1e-10)


def test_coupled_and_decoupled_adjoints_agree():
    # a model whose forward block is decoupled can be solved either way
    grid, noise = _grid_noise(m=8, n=512, horizon=0.5, seed=11)
    kwargs = dict(
        drift=lambda t, law, own: -0.3 * own.x + own.u,
        diffusion=_const(0.3),
        driver=lambda t, law, own: own.x + 0.3 * own.u,
        terminal_map=lambda x: x,
        running_cost=lambda t, law, own: 0.5 * own.u**2 + 0.5 * own.x**2,
        terminal_cost=lambda x: 0.5 * x**2,
        initial_cost=lambda y: 0.5 * y**2,
        partials={
            "drift": {"x": _const(-0.3), "v": _const(1.0)},
            "driver": {"x": _const(1.0), "v": _const(0.3)},
            "running_cost": {
                "x": lambda t, law, own: own.x,
                "v": lambda t, law, own: own.u,
            },
        },
        terminal_slope=lambda x: np.ones_like(x),
        terminal_cost_slope=lambda x: x,
        initial_cost_slope=lambda y: y,
        initial=1.0,
    )
    dec = ControlModel(coupled=False, **kwargs)
    cpl = ControlModel(coupled=True, **kwargs)
    u = as_control(0.1, grid, noise.particles)
    state_d = solve_state(dec, u, grid, noise)
    state_c = solve_state(cpl, u, grid, noise)
    # the continuation polish lands on the sequential route's fixed point
    assert np.allclose(state_d.x, state_c.x, atol=1e-10)
    assert np.allclose(state_d.y, state_c.y, atol=1e-10)
    adj_d = solve_adjoint(dec, u, state_d, grid, noise)
    adj_c = solve_adjoint(cpl, u, state_d, grid, noise)
    for a, b in ((adj_d.p, adj_c.p), (adj_d.q, adj_c.q), (adj_d.Q, adj_c.Q)):
        assert np.allclose(a, b, atol=1e-10)


def _sequential_case(case, grid, noise):
    t = grid.nodes[:-1, None]
    u = np.broadcast_to(0.2 + 0.1 * np.cos(3.0 * t), (grid.steps, noise.particles))
    if case == "lq1":
        params = LQ1Params(
            driver_mean_x=-0.1, driver_x=0.3, driver_mean_y=0.1, driver_y=-0.2,
            driver_mean_z=0.15, driver_z=0.05, driver_control=0.2,
        )
        return lq1_model(params), u
    opponent = np.broadcast_to(-0.3 + 0.2 * np.sin(2.0 * t), u.shape)
    return induced_model(lq_game(coupling=0.2), int(case[-1]), opponent, grid), u


@pytest.mark.parametrize("case", ["lq1", "player1", "player2"])
def test_single_systems_match_sequential_routes_bit_for_bit(case):
    # one written system per problem, solved sequentially when the model is
    # decoupled, reproduces the hand-written forward/backward routes to the
    # last bit; only the sign of an exact zero may differ: the adjoint runs Q
    # forward negated, and where a step's sum cancels to +0.0, Q = -(+0.0)
    grid, noise = _grid_noise(m=8, n=256, horizon=0.5, seed=3)
    model, u = _sequential_case(case, grid, noise)
    direction = np.random.default_rng(5).normal(size=u.shape)
    state = solve_state(model, u, grid, noise)
    adj = solve_adjoint(model, u, state, grid, noise)
    ref = sequential_adjoint(model, u, state, grid, noise)
    var = solve_variational(model, u, direction, state, grid, noise)
    var_ref = sequential_variational(model, u, direction, state, grid, noise)
    for got, want in (
        (adj.p, ref.p), (adj.q, ref.q), (adj.Q, ref.Q),
        (var.k, var_ref.k), (var.m, var_ref.m), (var.n, var_ref.n),
    ):
        assert np.array_equal(got, want)
    assert np.all(np.isfinite(adj.p)) and np.any(var.k[1:] != 0.0)
    if case == "lq1":  # the driver's y and z partials make Q move
        assert np.any(adj.Q != adj.Q[0])


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: calls.append(1) or fn(*args, **kw))
    return calls


@pytest.mark.parametrize("case, passes", [
    ("lq1_default", 0), ("player1", 0), ("player2", 0), ("lq1", 1),
])
def test_decoupled_adjoint_runs_the_euler_pass_only_when_x_tilde_moves(monkeypatch, case, passes):
    # without a y or z partial H_y = H_z = 0, X~ stays at X~_0 and the
    # adjoint runs no Euler pass; the driver's y and z partials of the
    # "lq1" case make it move, so that one still runs it
    grid, noise = _grid_noise(m=8, n=256, horizon=0.5, seed=3)
    if case == "lq1_default":
        model, u = lq1_model(LQ1Params()), as_control(0.2, grid, noise.particles)
    else:
        model, u = _sequential_case(case, grid, noise)
    state = solve_state(model, u, grid, noise)
    forward = _counting(monkeypatch, smp_control, "simulate_forward")
    adj = solve_adjoint(model, u, state, grid, noise)
    assert len(forward) == passes
    ref = sequential_adjoint(model, u, state, grid, noise)
    for got, want in ((adj.p, ref.p), (adj.q, ref.q), (adj.Q, ref.Q)):
        assert np.array_equal(got, want)
    assert np.any(adj.Q != adj.Q[0]) == bool(passes)


def test_constant_x_tilde_keeps_the_guard_check_on_its_initial_node():
    grid, noise = _grid_noise(m=8, n=64)
    model = replace(_tracking_model(lambda t: 0.0),
                    initial_cost_slope=lambda y: np.full_like(y, 1e13))
    state = solve_state(model, 0.0, grid, noise)
    with pytest.raises(DivergenceError) as err:
        solve_adjoint(model, 0.0, state, grid, noise)
    assert err.value.step == 0 and err.value.guard == 1e12


def test_descent_from_the_callers_state_skips_only_the_start_solve(monkeypatch):
    grid, noise = _grid_noise(m=8, n=128, seed=5)
    model = _affine_model()
    fresh = projected_gradient_descent(model, 0.1, grid, noise, steps=4)
    state = solve_state(model, 0.1, grid, noise)
    solves = _counting(monkeypatch, smp_control, "solve_state")
    given = projected_gradient_descent(model, 0.1, grid, noise, steps=4, state=state)
    assert np.array_equal(given[0], fresh[0]) and given[1] == fresh[1]
    trials = sum(rec.get("backtracks", 0) + ("status" not in rec) for rec in given[1])
    assert len(solves) == trials


def test_decoupled_descent_lets_go_of_its_state_before_each_search(monkeypatch):
    # each search's first trial solves with no earlier state alive: the
    # iterate's state and adjoint are dropped once the gradient is formed
    grid, noise = _grid_noise(m=8, n=128, seed=5)
    states, seen = [], []
    solve_state_, solve_adjoint_ = smp_control.solve_state, smp_control.solve_adjoint

    def solve_state_spy(*args, **kw):
        if seen and seen[-1] is None:
            seen[-1] = sum(ref() is not None for ref in states)
        out = solve_state_(*args, **kw)
        states.append(weakref.ref(out))
        return out

    def solve_adjoint_spy(*args, **kw):
        seen.append(None)  # a search follows this iteration's gradient
        return solve_adjoint_(*args, **kw)

    monkeypatch.setattr(smp_control, "solve_state", solve_state_spy)
    monkeypatch.setattr(smp_control, "solve_adjoint", solve_adjoint_spy)
    _, history = projected_gradient_descent(_affine_model(), 0.1, grid, noise, steps=4)
    searched = [s for s in seen if s is not None]
    assert len(searched) >= 3 and searched == [0] * len(searched)


def test_paired_deviations_release_each_state_before_the_next_solve(monkeypatch):
    grid, noise = _grid_noise(m=8, n=128, seed=5)
    model = _affine_model()
    u = as_control(0.1, grid, noise.particles)
    base = solve_state(model, u, grid, noise)
    states, alive = [], []
    solve = smp_control.solve_state

    def spy(*args, **kw):
        alive.append(sum(ref() is not None for ref in states))
        out = solve(*args, **kw)
        states.append(weakref.ref(out))
        return out

    monkeypatch.setattr(smp_control, "solve_state", spy)
    rng = np.random.Generator(np.random.Philox(key=3))
    report = smp_control._paired_deviations(model, u, base, grid, noise, rng, 4, 0.5)
    assert len(report.records) == 4 and alive == [0, 0, 0, 0]


def test_vi_residual_reads_a_generator_of_trials_one_at_a_time(monkeypatch):
    grid, noise = _grid_noise(m=8, n=64)
    model = _affine_model()
    rng = np.random.default_rng(2)
    trials = [rng.uniform(-1.0, 1.0, size=(grid.steps, noise.particles)) for _ in range(5)]
    listed = variational_inequality_residual(model, 0.2, trials, grid, noise)
    assert variational_inequality_residual(model, 0.2, iter(trials), grid, noise) == listed
    # an empty iterable fails before the gradient's solves
    gradients = _counting(monkeypatch, smp_control, "smp_gradient")
    with pytest.raises(ConfigError, match="at least one trial"):
        variational_inequality_residual(model, 0.2, (t for t in ()), grid, noise)
    assert gradients == []


def _law_cost_model(slope):
    """Decoupled model whose partials are all constant in the state, each
    written through ``slope`` (a float or an array), with a running cost of
    law statistics only and no terminal or initial cost: the running
    cost's partials meet multipliers of 1, so each of their E'[c_law w] is
    the mean of a constant, and they alone drive the adjoint."""
    return ControlModel(
        drift=lambda t, law, own: 0.1 * law.x - 0.3 * own.x + own.u,
        diffusion=lambda t, law, own: 0.2 * own.x + 0.5 * own.u + 0.3,
        driver=lambda t, law, own: 0.2 * own.y + 0.1 * law.y + 0.3 * own.u,
        terminal_map=lambda x: x,
        running_cost=lambda t, law, own: 0.3 * law.x + 0.1 * law.y,
        terminal_cost=np.zeros_like,
        initial_cost=np.zeros_like,
        partials={
            "drift": {"law_x": slope(0.1), "x": slope(-0.3), "v": slope(1.0)},
            "diffusion": {"x": slope(0.2), "v": slope(0.5)},
            "driver": {"y": slope(0.2), "law_y": slope(0.1), "v": slope(0.3)},
            "running_cost": {"law_x": slope(0.3), "law_y": slope(0.1)},
        },
        terminal_slope=np.ones_like,
        terminal_cost_slope=np.zeros_like,
        initial_cost_slope=np.zeros_like,
        initial=1.0,
    )


def _array_slope_twins(case):
    """(grid, noise, u, model, twin): a model and its twin whose constant
    partials return arrays (``oracles.array_slopes`` for the LQ models)
    where the model's return floats."""
    t = np.linspace(0.0, 1.0, 8)[:, None]
    if case == "law_cost":  # N not a power of two: N copies of c need not average to c
        grid, noise = _grid_noise(m=8, n=333, horizon=0.5, seed=3)
        return (grid, noise, 0.2 + 0.1 * np.cos(3.0 * t),
                _law_cost_model(lambda c: lambda t, law, own: c), _law_cost_model(_const))
    if case == "lq2":  # the coupled route, at a small size
        grid, noise = _grid_noise(m=8, n=128, horizon=0.25, seed=4)
        params = LQ2Params(horizon=0.25)
        model = lq2_model(params)
        slopes = {name: array_slopes(terms, params) for name, terms in params._TERMS.items()}
        return grid, noise, 0.3 + 0.1 * t, model, replace(
            model, partials={**model.partials, **slopes})
    grid, noise = _grid_noise(m=8, n=256, horizon=0.5, seed=3)
    if case == "lq1":
        params = LQ1Params(
            driver_mean_x=-0.1, driver_x=0.3, driver_mean_y=0.1, driver_y=-0.2,
            driver_mean_z=0.15, driver_z=0.05, driver_control=0.2,
        )
        model = lq1_model(params)
        slopes = {name: array_slopes(terms, params) for name, terms in params._TERMS.items()}
        return grid, noise, 0.2 + 0.1 * np.cos(3.0 * t), model, replace(
            model, partials={**model.partials, **slopes})
    # player 2 of the coupled game: its drift slope is the coupling times
    # player 1's, a product of two folded parameters
    params, coupling = LQ1Params(), 0.2
    game = lq_game(params, coupling=coupling)
    slopes = {
        name: {"v1" if slot == "v" else slot: fn
               for slot, fn in array_slopes(terms, params).items()}
        for name, terms in params._TERMS.items()
    }
    drift_v1 = slopes["drift"]["v1"]
    slopes["drift"]["v2"] = lambda t, law, own, v1, v2: coupling * drift_v1(t, law, own)
    twin = replace(game, partials={**game.partials, **slopes})
    opponent = np.broadcast_to(-0.3 + 0.2 * np.sin(2.0 * t), (8, noise.particles))
    return (grid, noise, 0.2 + 0.1 * np.cos(3.0 * t), induced_model(game, 2, opponent, grid),
            induced_model(twin, 2, opponent, grid))


@pytest.mark.parametrize("case", ["lq1", "lq2", "player2", "law_cost"])
def test_float_partials_match_their_array_form_bit_for_bit(case):
    # a partial constant in the state may return a float; the adjoint, the
    # gradient, the variational system and the duality defect must not see
    # the difference
    grid, noise, u, model, twin = _array_slope_twins(case)
    own = StateView(x=np.ones(3), y=np.ones(3), z=np.ones(3), u=np.ones(3))
    law = StateView(x=1.0, y=1.0, z=1.0, u=1.0)
    assert type(model.partials["drift"]["x"](0.0, law, own)) is float
    assert twin.partials["drift"]["x"](0.0, law, own).shape == (3,)
    direction = np.random.default_rng(5).normal(size=(grid.steps, noise.particles))
    state = solve_state(model, u, grid, noise)

    def solved(m):
        adj = solve_adjoint(m, u, state, grid, noise)
        grad = smp_gradient(m, u, grid, noise, state=state, adjoint=adj)
        var = solve_variational(m, u, direction, state, grid, noise)
        gap = duality_gap(m, u, direction, grid, noise, state=state)
        return adj.p, adj.q, adj.Q, grad, var.k, var.m, var.n, gap

    got = solved(model)
    for a, b in zip(got, solved(twin)):
        assert np.array_equal(a, b)
    assert np.any(got[3] != 0.0) and np.any(got[4][1:] != 0.0)


def test_frozen_path_forms_are_keyed_by_their_term_list():
    # two term lists for the same node and slot each get their own form
    grid, noise = _grid_noise(m=8, n=64, horizon=0.5, seed=3)
    model = lq1_model(LQ1Params(driver_mean_x=-0.1, driver_x=0.3))
    u = as_control(0.2, grid, noise.particles)
    path = smp_control._FrozenPath(model, u, solve_state(model, u, grid, noise), grid)
    w = np.random.default_rng(1).normal(size=noise.particles)
    for _ in range(2):  # compiled on the first call, reused on the second
        for names, c_law, c in ((("drift",), 0.1, -0.3), (("driver",), -0.1, 0.3)):
            got = path.transposed(3, "x", names, (w,))
            assert np.array_equal(got, float(np.mean(c_law * w)) + c * w)


# ======================================================================
# warm-started state and adjoint solves
# ======================================================================


def _rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


def _lq2_pair(seed=3):
    """The coupled LQ2 model on a short grid, its state and adjoint solved
    cold at u = 0.3 (the warm start) and u = 0.35 (the target)."""
    grid, noise = _grid_noise(m=8, n=256, horizon=0.25, seed=seed)
    model = lq2_model(LQ2Params(horizon=0.25))
    state0 = solve_state(model, 0.3, grid, noise)
    adj0 = solve_adjoint(model, 0.3, state0, grid, noise)
    state1 = solve_state(model, 0.35, grid, noise)
    adj1 = solve_adjoint(model, 0.35, state1, grid, noise)
    return grid, noise, model, (state0, adj0), (state1, adj1)


def _must_not_run(*args, **kwargs):
    raise AssertionError("unexpected solver call")


def _recording(solver, outputs):
    """``solver`` with each solution it returns appended to ``outputs``."""

    def record(*args, **kwargs):
        sol, log = solver(*args, **kwargs)
        outputs.append(sol)
        return sol, log

    return record


_RETRYABLE_ERRORS = [
    NonConvergenceError("no contraction", history=[1.0]),
    DivergenceError(3, 0, 1e13, 1e12),
    RegressionError("ill-conditioned", condition_number=np.inf),
]
_RETRYABLE_IDS = ["nonconvergence", "divergence", "regression"]


def test_warm_coupled_solves_agree_with_cold(monkeypatch):
    # The warm pass and the continuation's polish stop at the same change
    # tolerance (_POLISH_TOL = 1e-6) from different sides of the fixed point.
    # Measured over noise seeds 0-5: the solutions differ by at most 2.9e-7
    # RMS (state) and 3.2e-8 RMS (adjoint), while the 0.05 control step
    # moves them by ~2.6e-3 and ~4.5e-3.
    grid, noise, model, (state0, adj0), (state1, adj1) = _lq2_pair()
    # the warm polish converges: no seed is solved and no rung climbed
    monkeypatch.setattr(fbsde_solver, "solve_linear_seed", _must_not_run)
    monkeypatch.setattr(fbsde_solver, "_seed_iteration", _must_not_run)
    state = solve_state(model, 0.35, grid, noise, warm=state0)
    adj = solve_adjoint(model, 0.35, state1, grid, noise, warm=adj0)
    for warm, cold in ((state.x, state1.x), (state.y, state1.y), (state.z, state1.z)):
        assert _rms(warm - cold) <= 1e-6
    for warm, cold in ((adj.p, adj1.p), (adj.q, adj1.q), (adj.Q, adj1.Q)):
        assert _rms(warm - cold) <= 3e-7
    assert _rms(state1.y - state0.y) > 1e-3  # the warm start is not the answer


@pytest.mark.parametrize("error", _RETRYABLE_ERRORS, ids=_RETRYABLE_IDS)
def test_failed_warm_start_falls_back_to_cold_continuation(monkeypatch, error):
    # the fallback is the cold ladder and its polish, bit for bit: the state
    # against a direct cold call whose first polish fails too, the adjoint
    # against what its continuation returned
    grid, noise, model, (state0, adj0), (state1, _) = _lq2_pair()
    calls, outputs = [], []
    monkeypatch.setattr(fbsde_solver, "solve_picard", first_polish_fails(error, calls))
    monkeypatch.setattr(smp_control, "solve_continuation",
                        _recording(solve_continuation, outputs))
    state = solve_state(model, 0.35, grid, noise, warm=state0)
    adj = solve_adjoint(model, 0.35, state1, grid, noise, warm=adj0)
    # the failed warm polishes, each followed by the polish after the ladder;
    # the adjoint's warm start is built from adj0
    assert len(calls) == 4 and calls[0]["initial_guess"] is state0
    u = as_control(0.35, grid, noise.particles)
    cold, _ = solve_continuation(model, grid, noise, control=u)
    assert len(calls) == 6 and len(outputs) == 2
    for got, want in ((state.x, cold.x), (state.y, cold.y), (state.z, cold.z),
                      (adj.p, outputs[1].y), (adj.q, outputs[1].z), (adj.Q, -outputs[1].x)):
        assert np.array_equal(got, want)


def test_cold_coupled_solves_polish_from_the_seed(monkeypatch):
    # A cold coupled solve runs the polish from the blend-0 linear seed and
    # never climbs the continuation.  It lands on the polish's fixed point,
    # as the continuation plus its polish does, from another start: measured
    # over noise seeds 0-9 the two differ by at most 5.8e-7 RMS (state) and
    # 2.1e-7 RMS (adjoint), 1.4e-7 and 6.7e-8 at seed 3, against an
    # _POLISH_TOL of 1e-6.
    grid, noise = _grid_noise(m=8, n=256, horizon=0.25, seed=3)
    model = lq2_model(LQ2Params(horizon=0.25))
    fails = NonConvergenceError("no contraction", history=[1.0])
    monkeypatch.setattr(fbsde_solver, "solve_picard", first_polish_fails(fails, []))
    ref = solve_state(model, 0.35, grid, noise)  # by the ladder and the polish after it
    ref_adj = solve_adjoint(model, 0.35, ref, grid, noise)
    starts = []

    def seeded_picard(*args, **kwargs):
        starts.append(kwargs["initial_guess"])
        return solve_picard(*args, **kwargs)

    monkeypatch.setattr(fbsde_solver, "solve_picard", seeded_picard)
    monkeypatch.setattr(fbsde_solver, "_seed_iteration", _must_not_run)
    state = solve_state(model, 0.35, grid, noise)
    adj = solve_adjoint(model, 0.35, ref, grid, noise)
    seed, _ = solve_linear_seed(LinearInhomogeneity(), grid, noise, x0=model.initial)
    adj_seed, _ = solve_linear_seed(LinearInhomogeneity(), grid, noise, x0=-ref_adj.Q[0],
                                    conditioning=ref.x)
    assert len(starts) == 2
    for start, want in zip(starts, (seed, adj_seed)):
        for a, b in ((start.x, want.x), (start.y, want.y), (start.z, want.z)):
            assert np.array_equal(a, b)
    for got, want in ((state.x, ref.x), (state.y, ref.y), (state.z, ref.z)):
        assert _rms(got - want) <= 1e-6
    for got, want in ((adj.p, ref_adj.p), (adj.q, ref_adj.q), (adj.Q, ref_adj.Q)):
        assert _rms(got - want) <= 3e-7
    assert _rms(state.y - seed.y) > 1e-2  # the seed is not the answer


@pytest.mark.parametrize("error", _RETRYABLE_ERRORS, ids=_RETRYABLE_IDS)
def test_failed_seed_polish_falls_back_to_the_continuation(monkeypatch, error):
    grid, noise = _grid_noise(m=8, n=256, horizon=0.25, seed=3)
    model = lq2_model(LQ2Params(horizon=0.25))
    calls, outputs = [], []
    monkeypatch.setattr(fbsde_solver, "solve_picard", first_polish_fails(error, calls))
    monkeypatch.setattr(smp_control, "solve_continuation",
                        _recording(solve_continuation, outputs))
    state = solve_state(model, 0.35, grid, noise)
    adj = solve_adjoint(model, 0.35, state, grid, noise)
    assert len(calls) == 4 and len(outputs) == 2
    u = as_control(0.35, grid, noise.particles)
    cold, _ = solve_continuation(model, grid, noise, control=u)  # its first polish fails too
    for got, want in ((state.x, cold.x), (state.y, cold.y), (state.z, cold.z),
                      (adj.p, outputs[1].y), (adj.q, outputs[1].z), (adj.Q, -outputs[1].x)):
        assert np.array_equal(got, want)


def _counting_seeds(monkeypatch):
    """Count the source-free ``solve_linear_seed`` calls, the seeds (a
    rung's calls carry its blend sources)."""
    seeds = []

    def seed(inhom, *args, **kwargs):
        if all(src is None for src in vars(inhom).values()):
            seeds.append(1)
        return solve_linear_seed(inhom, *args, **kwargs)

    monkeypatch.setattr(fbsde_solver, "solve_linear_seed", seed)
    return seeds


def test_failed_warm_polish_climbs_the_ladder_from_one_seed(monkeypatch):
    # a warm start far from the answer: its polish leaves the guard at the
    # first sweep, so the solve climbs the ladder from the seed, with no
    # polish from the seed in between, and polishes the ladder's answer
    grid, noise, model, (state0, _), _ = _lq2_pair()
    far = replace(state0, y=state0.y + 1e14)
    starts, rungs = [], []

    def recording_picard(*args, **kwargs):
        starts.append(kwargs["initial_guess"])
        return solve_picard(*args, **kwargs)

    def counting_rung(*args, **kwargs):
        rungs.append(kwargs["weight"])
        return seed_iteration(*args, **kwargs)

    seed_iteration = fbsde_solver._seed_iteration
    monkeypatch.setattr(fbsde_solver, "solve_picard", recording_picard)
    monkeypatch.setattr(fbsde_solver, "_seed_iteration", counting_rung)
    seeds = _counting_seeds(monkeypatch)
    state = solve_state(model, 0.35, grid, noise, warm=far)
    assert len(starts) == 2 and starts[0] is far
    assert len(seeds) == 1 and rungs == [1.0]
    seed, _ = solve_linear_seed(LinearInhomogeneity(), grid, noise, x0=model.initial)
    assert not np.array_equal(starts[1].y, seed.y)  # the ladder's answer
    # where a cold solve whose polish from the seed fails lands, bit for bit
    fails = NonConvergenceError("no contraction", history=[1.0])
    monkeypatch.setattr(fbsde_solver, "solve_picard", first_polish_fails(fails, []))
    cold = solve_state(model, 0.35, grid, noise)
    for a, b in ((state.x, cold.x), (state.y, cold.y), (state.z, cold.z)):
        assert np.array_equal(a, b)


def test_cold_solve_without_polish_is_the_continuation(monkeypatch):
    # polish_max_iter = 0: no polish runs, from the seed or anywhere, and the
    # answer is the unpolished homotopy solution, bit for bit
    grid, noise = _grid_noise(m=8, n=256, horizon=0.25, seed=3)
    model = lq2_model(LQ2Params(horizon=0.25))
    sched = ContinuationSchedule(polish_max_iter=0)
    u = as_control(0.35, grid, noise.particles)
    want, log = solve_continuation(model, grid, noise, schedule=sched, control=u)
    assert "polish" not in log[-1]
    monkeypatch.setattr(fbsde_solver, "solve_picard", _must_not_run)
    state = solve_state(model, 0.35, grid, noise, schedule=sched)
    for got, ref in ((state.x, want.x), (state.y, want.y), (state.z, want.z)):
        assert np.array_equal(got, ref)


def test_cold_seed_outside_the_guard_fails_at_blend_zero(monkeypatch):
    # the seed that starts the polish is checked against the guard as the
    # continuation's own seed is; neither solver runs after a breach
    grid, noise = _grid_noise(m=8, n=64, horizon=0.25, seed=3)
    model = replace(lq2_model(LQ2Params(horizon=0.25)), initial=2e12)
    monkeypatch.setattr(fbsde_solver, "solve_picard", _must_not_run)
    monkeypatch.setattr(fbsde_solver, "_seed_iteration", _must_not_run)
    with pytest.raises(DivergenceError) as err:
        solve_state(model, 0.3, grid, noise)
    assert err.value.blend == 0.0 and err.value.step == 0 and err.value.value == 2e12


def test_warm_start_unused_without_polish(monkeypatch):
    # polish_max_iter = 0: the cold route returns the unpolished homotopy
    # solution, so a warm pass would land elsewhere; it must not run
    grid, noise, model, (state0, adj0), _ = _lq2_pair()
    sched = ContinuationSchedule(polish_max_iter=0)
    cold = solve_state(model, 0.35, grid, noise, schedule=sched)
    adj_cold = solve_adjoint(model, 0.35, cold, grid, noise, schedule=sched)
    monkeypatch.setattr(fbsde_solver, "solve_picard", _must_not_run)
    state = solve_state(model, 0.35, grid, noise, schedule=sched, warm=state0)
    adj = solve_adjoint(model, 0.35, cold, grid, noise, schedule=sched, warm=adj0)
    for a, b in ((state.x, cold.x), (state.y, cold.y), (state.z, cold.z),
                 (adj.p, adj_cold.p), (adj.q, adj_cold.q), (adj.Q, adj_cold.Q)):
        assert np.array_equal(a, b)


def test_rejected_polish_returns_the_unpolished_solution(monkeypatch):
    # A long horizon and a strong y-coupling: the polish from the seed
    # fails, the continuation reaches blend 1, but the polish from there
    # diverges too (its first change, 0.25, is its best; the next is 27,
    # and sweep 21's is 276).  The solve must then return the unpolished
    # homotopy solution as it is, and solve_state with it.  Neither polish
    # spends its budget: the decoupling map has stopped converging long
    # before.
    params = replace(LQ2Params(horizon=8.0), drift_y=-0.6, drift_mean_y=-0.6,
                     cross=0.9, cross_mean=0.9)
    grid, noise = _grid_noise(m=16, n=256, horizon=8.0, seed=0)
    sched = ContinuationSchedule()
    stops = []

    def recording_picard(*args, **kwargs):
        try:
            return solve_picard(*args, **kwargs)
        except NonConvergenceError as exc:
            stops.append((exc.reason, len(exc.history)))
            raise

    monkeypatch.setattr(fbsde_solver, "solve_picard", recording_picard)
    logs = []

    def recording_continuation(*args, **kwargs):
        sol, log = solve_continuation(*args, **kwargs)
        logs.append(log)
        return sol, log

    monkeypatch.setattr(smp_control, "solve_continuation", recording_continuation)
    state = solve_state(lq2_model(params), 0.3, grid, noise)
    assert [log[-1] for log in logs] == [{"alpha": 1.0, "polish": "rejected"}]
    assert logs[0][1] == {"alpha": 1.0, "polish": "rejected"}  # the polish from the seed

    frozen = lq2_fbsde(params, control=0.3)
    unpolished, log = solve_continuation(
        frozen, grid, noise, schedule=ContinuationSchedule(polish_max_iter=0)
    )
    assert "polish" not in log[-1]
    for a, b in ((state.x, unpolished.x), (state.y, unpolished.y), (state.z, unpolished.z)):
        assert np.array_equal(a, b)
    # the polish from the seed, then the one after the ladder
    for reason, sweeps in stops:
        assert reason in ("stalled", "diverging") and sweeps < sched.polish_max_iter
    assert len(stops) == 2
    with pytest.raises(NonConvergenceError) as err:
        solve_picard(frozen, grid, noise, tol=fbsde_solver._POLISH_TOL,
                     max_iter=sched.polish_max_iter, initial_guess=unpolished,
                     accel_memory=sched.accel_memory)
    history = err.value.history
    assert err.value.reason == "diverging"
    assert len(history) < sched.polish_max_iter
    assert min(history[1:]) > history[0]
    assert history[-1] > fbsde_solver._GROWTH * history[0] >= max(history[2:-1])
    report = residual(frozen, state, grid, noise)
    assert report.forward <= 1e-7 and report.terminal == 0.0


def test_cold_fallback_solves_the_seed_once(monkeypatch):
    # the model of test_rejected_polish_returns_the_unpolished_solution: the
    # polish from the seed fails and the ladder starts from that same seed
    params = replace(LQ2Params(horizon=8.0), drift_y=-0.6, drift_mean_y=-0.6,
                     cross=0.9, cross_mean=0.9)
    grid, noise = _grid_noise(m=16, n=256, horizon=8.0, seed=0)
    seeds = _counting_seeds(monkeypatch)
    logs = []

    def recording_continuation(*args, **kwargs):
        sol, log = solve_continuation(*args, **kwargs)
        logs.append(log)
        return sol, log

    monkeypatch.setattr(smp_control, "solve_continuation", recording_continuation)
    solve_state(lq2_model(params), 0.3, grid, noise)
    assert len(seeds) == 1
    [log] = logs
    assert log[:2] == [{"alpha": 0.0, "seed": True}, {"alpha": 1.0, "polish": "rejected"}]
    assert "changes" in log[2]


def test_slow_polish_after_the_continuation_is_not_cut(monkeypatch):
    # The model of test_rejected_polish_returns_the_unpolished_solution at
    # T=6: the polish from the seed fails, and the continuation's polish
    # climbs above its first change for 39 sweeps before it converges (at
    # sweep 87).  The stall stop must let it finish, so the cold solve lands
    # on the polished fixed point, not on the unpolished homotopy solution.
    params = replace(LQ2Params(horizon=6.0), drift_y=-0.6, drift_mean_y=-0.6,
                     cross=0.9, cross_mean=0.9)
    grid, noise = _grid_noise(m=12, n=256, horizon=6.0, seed=0)
    logs = []

    def recording_continuation(*args, **kwargs):
        sol, log = solve_continuation(*args, **kwargs)
        logs.append(log)
        return sol, log

    monkeypatch.setattr(smp_control, "solve_continuation", recording_continuation)
    state = solve_state(lq2_model(params), 0.3, grid, noise)
    [log] = logs
    polish = log[-1]["polish"]
    assert isinstance(polish, list) and polish[-1] <= fbsde_solver._POLISH_TOL
    first_best = next(i for i, c in enumerate(polish) if c < polish[0])
    assert first_best > 30
    frozen = lq2_fbsde(params, control=0.3)
    assert residual(frozen, state, grid, noise).terminal == 0.0


def test_warm_start_changes_nothing_for_decoupled_models():
    grid, noise = _grid_noise(m=8, n=128, seed=5)
    model = _affine_model()
    state0 = solve_state(model, 0.1, grid, noise)
    adj0 = solve_adjoint(model, 0.1, state0, grid, noise)
    cold = solve_state(model, 0.4, grid, noise)
    adj_cold = solve_adjoint(model, 0.4, cold, grid, noise)
    state = solve_state(model, 0.4, grid, noise, warm=state0)
    adj = solve_adjoint(model, 0.4, cold, grid, noise, warm=adj0)
    for a, b in ((state.x, cold.x), (state.y, cold.y), (state.z, cold.z),
                 (adj.p, adj_cold.p), (adj.q, adj_cold.q), (adj.Q, adj_cold.Q)):
        assert np.array_equal(a, b)


def test_warm_state_of_wrong_shape_fails_typed():
    # a [M+1, 1] warm start would broadcast silently inside the decoupling
    # pass; it is rejected with ConfigError before the solve
    grid, noise = _grid_noise(m=8, n=256, horizon=0.25, seed=3)
    model = lq2_model(LQ2Params(horizon=0.25))
    bad = SolutionTriple(x=np.zeros((9, 1)), y=np.zeros((9, 1)), z=np.zeros((9, 1)))
    with pytest.raises(ConfigError, match=r"\(9, 256\)"):
        solve_state(model, 0.3, grid, noise, warm=bad)


def _malformed_warm_solve(case, grid, noise):
    bad = SolutionTriple(x=np.zeros((3, 3)), y=np.zeros((3, 3)), z=np.zeros((3, 3)))
    if case == "decoupled_state":
        return solve_state(lq1_model(LQ1Params()), 0.0, grid, noise, warm=bad)
    if case == "state_without_polish":
        sched = ContinuationSchedule(polish_max_iter=0)
        return solve_state(lq2_model(LQ2Params()), 0.3, grid, noise, schedule=sched, warm=bad)
    model = lq1_model(LQ1Params())
    state = solve_state(model, 0.0, grid, noise)
    warm = AdjointTriple(p=np.zeros(2), q=np.zeros(2), Q=np.zeros(2))
    return solve_adjoint(model, 0.0, state, grid, noise, warm=warm)


@pytest.mark.parametrize("case", ["decoupled_state", "state_without_polish", "decoupled_adjoint"])
def test_malformed_warm_start_fails_typed_on_every_route(case):
    # these routes never read warm, and a malformed one used to pass silently
    grid, noise = _grid_noise(m=8, n=64)
    with pytest.raises(ConfigError, match=r"expected \(9, 64\) each"):
        _malformed_warm_solve(case, grid, noise)


def test_state_solve_checks_the_default_guard():
    # the control layer takes no guard of its own: a decoupled state solve
    # runs the Euler pass at DEFAULT_GUARD, and x_k = 126^k first leaves
    # it at step 6 (126^6 = 4.0e12)
    grid, noise = _grid_noise(m=8, n=64)
    model = replace(_tracking_model(lambda t: 0.0), drift=lambda t, law, own: 1e3 * own.x,
                    initial=1.0)
    with pytest.raises(DivergenceError) as err:
        solve_state(model, 0.0, grid, noise)
    assert err.value.step == 6
    assert err.value.guard == 1e12


# ======================================================================
# variational system
# ======================================================================


def test_variational_zero_direction():
    grid, noise = _grid_noise()
    model = _affine_model()
    u = as_control(0.2, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    var = solve_variational(model, u, 0.0, state, grid, noise)
    assert np.allclose(var.k, 0.0, atol=1e-14)
    assert np.allclose(var.m, 0.0, atol=1e-14)
    assert np.allclose(var.n, 0.0, atol=1e-14)


def test_variational_exact_linearity():
    grid, noise = _grid_noise()
    model = _affine_model()
    u = as_control(0.2, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    d = np.cos(2.0 * np.pi * grid.nodes[:-1])
    one = solve_variational(model, u, d, state, grid, noise)
    two = solve_variational(model, u, 2.0 * d, state, grid, noise)
    assert np.allclose(two.k, 2.0 * one.k, rtol=1e-9, atol=1e-12)
    assert np.allclose(two.m, 2.0 * one.m, rtol=1e-9, atol=1e-12)
    assert np.allclose(two.n, 2.0 * one.n, rtol=1e-9, atol=1e-12)


def test_variational_matches_state_difference():
    # the state system is affine in the control, so finite differences of
    # the solved paths reproduce the linearization exactly
    grid, noise = _grid_noise()
    model = _affine_model()
    u = as_control(0.2, grid, noise.particles)
    state = solve_state(model, u, grid, noise)
    d = np.sin(2.0 * np.pi * grid.nodes[:-1] + 0.4)
    var = solve_variational(model, u, d, state, grid, noise)
    theta = 1e-3
    up = solve_state(model, u + theta * as_control(d, grid, noise.particles), grid, noise)
    dn = solve_state(model, u - theta * as_control(d, grid, noise.particles), grid, noise)
    fd_k = (up.x - dn.x) / (2.0 * theta)
    fd_m = (up.y - dn.y) / (2.0 * theta)
    assert np.sqrt(np.mean((fd_k - var.k) ** 2)) <= 1e-9 * max(1.0, np.abs(fd_k).max())
    assert np.sqrt(np.mean((fd_m - var.m) ** 2)) <= 1e-7 * max(1.0, np.abs(fd_m).max())


# ======================================================================
# gradient correctness
# ======================================================================


def test_gradient_matches_fd_state_independent():
    grid, noise = _grid_noise(m=8, n=64)
    model = _tracking_model(lambda t: np.sin(2.0 * np.pi * t))
    u = as_control(0.4, grid, noise.particles)
    grad = smp_gradient(model, u, grid, noise)
    d = np.cos(grid.nodes[:-1])
    deriv = np.mean(np.sum(grad * as_control(d, grid, noise.particles), axis=0)) * grid.dt
    fd = directional_fd(
        lambda uu: cost(model, uu, grid, noise),
        u, as_control(d, grid, noise.particles), 1e-5,
    )
    assert fd == pytest.approx(deriv, rel=1e-8, abs=1e-12)


def test_gradient_matches_fd_affine_model():
    # Agreement is limited by the O(dt) mismatch between the corrector-pass
    # conditional expectations in the backward sweep and the exact discrete
    # transpose of the forward scheme, so the tolerance here is resolution
    # bound, not machine precision (measured ~2% at m=16, ~0.8% at m=64).
    grid, noise = _grid_noise(m=16, n=2048)
    model = _affine_model()
    u = as_control(0.2, grid, noise.particles)
    grad = smp_gradient(model, u, grid, noise)
    dd = as_control(1.0, grid, noise.particles)
    deriv = np.mean(np.sum(grad * dd, axis=0)) * grid.dt
    fd = directional_fd(lambda uu: cost(model, uu, grid, noise), u, dd, 1e-4)
    assert abs(fd - deriv) <= 3e-2 * max(abs(fd), 1e-12)


def test_gradient_matches_fd_coupled_model():
    grid, noise = _grid_noise(m=8, n=512, seed=5)
    model = _coupled_canonical()
    u = as_control(0.2, grid, noise.particles)
    grad = smp_gradient(model, u, grid, noise)
    dd = as_control(1.0, grid, noise.particles)
    deriv = np.mean(np.sum(grad * dd, axis=0)) * grid.dt
    fd = directional_fd(lambda uu: cost(model, uu, grid, noise), u, dd, 1e-4)
    assert abs(fd - deriv) <= 0.1 * max(abs(fd), 1e-12)


def test_gradient_scaling_covariance():
    grid, noise = _grid_noise(m=8, n=128)
    u = as_control(0.3, grid, noise.particles)
    base = smp_gradient(_affine_model(1.0), u, grid, noise)
    lam = 3.7
    scaled = smp_gradient(_affine_model(lam), u, grid, noise)
    assert np.allclose(scaled, lam * base, rtol=1e-10, atol=1e-12)


@settings(max_examples=6, deadline=None)
@given(lam=st.floats(min_value=0.5, max_value=4.0))
def test_gradient_scaling_covariance_property(lam):
    grid, noise = _grid_noise(m=4, n=64)
    u = as_control(0.1, grid, noise.particles)
    base = smp_gradient(_affine_model(1.0), u, grid, noise)
    scaled = smp_gradient(_affine_model(lam), u, grid, noise)
    assert np.allclose(scaled, lam * base, rtol=1e-9, atol=1e-12)


# ======================================================================
# descent, stationarity, duality
# ======================================================================


def test_pgd_tracks_target():
    grid, noise = _grid_noise(m=8, n=64)
    target = lambda t: np.sin(2.0 * np.pi * t)
    model = _tracking_model(target)
    u, history = projected_gradient_descent(
        model, 0.0, grid, noise, steps=40, grad_tol=1e-10
    )
    goal = as_control(target(grid.nodes[:-1]), grid, noise.particles)
    assert np.sqrt(np.mean((u - goal) ** 2)) <= 1e-6
    costs = [h["cost"] for h in history]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))
    assert all(h["backtracks"] == 0 for h in history)
    assert history[-1].get("status") == "converged"


def test_pgd_box_constraint_pins_and_certifies():
    grid, noise = _grid_noise(m=8, n=64)
    model = replace(_tracking_model(lambda t: 2.0), project=box_projection(0.0, 1.0))
    u, history = projected_gradient_descent(model, 0.2, grid, noise, steps=30, grad_tol=1e-12)
    assert np.allclose(u, 1.0, atol=1e-9)
    rng = np.random.default_rng(0)
    trials = [rng.uniform(0.0, 1.0, size=(grid.steps, noise.particles)) for _ in range(16)]
    res = variational_inequality_residual(model, u, trials, grid, noise)
    assert res >= -1e-9


def test_pgd_stagnates_on_wrong_sign_gradient():
    grid, noise = _grid_noise(m=4, n=16)
    target = lambda t: 1.0
    # sabotage the control partial so the "descent" direction climbs
    bad = replace(
        _tracking_model(target),
        partials={"running_cost": {"v": lambda t, law, own: target(t) - own.u}},
    )
    u, history = projected_gradient_descent(bad, 0.0, grid, noise, steps=5)
    # the tracking cost carries no noise (SE = 0), so every climbing trial is
    # a resolved change and the search runs down to min_eta
    assert history[-1].get("status") == "stagnated"
    assert np.allclose(u, 0.0)
    assert len(history) == 1


def test_pgd_mirror_step_does_not_end_the_search():
    # from u = 0 the step eta0 = 2 lands on the mirror point 2 * target,
    # whose cost equals the start's exactly: a zero paired change, which
    # is unresolved; half that step descends onto the target
    grid, noise = _grid_noise(m=8, n=64)
    target = lambda t: np.sin(2.0 * np.pi * t)
    model = _tracking_model(target)
    goal = as_control(target(grid.nodes[:-1]), grid, noise.particles)
    zero = as_control(0.0, grid, noise.particles)
    per = [
        smp_control._per_particle_cost(model, v, solve_state(model, v, grid, noise), grid)
        for v in (zero, 2.0 * goal)
    ]
    assert np.array_equal(per[1], per[0])
    u, history = projected_gradient_descent(
        model, 0.0, grid, noise, steps=5, eta0=2.0, grad_tol=1e-12
    )
    assert np.sqrt(np.mean((u - goal) ** 2)) <= 1e-12
    assert history[0]["backtracks"] == 1 and history[0]["step"] == 1.0
    assert history[-1].get("status") == "converged"


@pytest.mark.parametrize("seed, rule", [(7, "reject"), (5, "reject"), (10, "accept")])
def test_pgd_stops_at_the_noise_floor(seed, rule):
    # at N = 64 the LQ1 descent reaches its Monte Carlo floor in a few
    # steps.  Before the paired-resolution stop, seed 7 ended with one
    # search of 39 backtracks (backtracks [0, 0, 0, 0, 1, 39], then
    # "stagnated"), and seed 5 ran 24 iterations, the last nine searches
    # backtracking 34-39 times each.  With every search after the first
    # starting from the Barzilai-Borwein step, seeds 7 and 5 end on two
    # unresolved rejected trials (seed 5: backtracks [0, 0, 0, 0, 2]; it
    # ended on the accept rule while the searches started at eta0), and
    # seed 10 ends on two unresolved accepted steps
    grid, noise = _grid_noise(m=8, n=64, seed=seed)
    u, history = projected_gradient_descent(lq1_model(LQ1Params()), 0.0, grid, noise, steps=40)
    last = history[-1]
    assert last.get("status") == "resolved"
    assert max(h["backtracks"] for h in history) <= 4
    assert all("status" not in h for h in history[:-1])
    if rule == "reject":
        assert last["backtracks"] >= 2 and last["step"] == 0.0
    else:
        # the stop has its own record: no trial, and the step before it
        # was accepted
        assert last["backtracks"] == 0 and last["step"] == 0.0
        assert "grad_norm" not in last and history[-2]["step"] > 0.0
    costs = [h["cost"] for h in history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_pgd_resolves_where_the_fixed_start_stagnated():
    # LQ1 at M=16, N=256, noise seed 7: with every search starting at
    # eta0 the descent ran 7 iterations, backtracks [0, 0, 0, 0, 0, 1, 39],
    # its last search shrinking through resolved increases down to
    # min_eta ("stagnated"); from the Barzilai-Borwein step it runs 4,
    # backtracks [0, 0, 0, 2], and ends on the resolution stop
    grid, noise = _grid_noise(m=16, n=256, seed=7)
    u, history = projected_gradient_descent(lq1_model(LQ1Params()), 0.0, grid, noise)
    assert history[-1].get("status") == "resolved"
    assert max(h["backtracks"] for h in history) <= 4
    costs = [h["cost"] for h in history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))


def test_pgd_second_search_starts_from_the_bb_step():
    # the tracking cost has identity curvature in the pairing, so after
    # the first step (eta0 = 0.5, halfway to the target) the BB step is
    # 1.0 = 2 * 0.5, which lands on the target; at eta0 every step halves
    # the gap and the run took 33 iterations
    grid, noise = _grid_noise(m=8, n=64)
    target = lambda t: np.sin(2.0 * np.pi * t)
    u, history = projected_gradient_descent(
        _tracking_model(target), 0.0, grid, noise, steps=40, grad_tol=1e-10
    )
    assert len(history) == 3 and history[-1].get("status") == "converged"
    assert [h["step"] for h in history[:-1]] == [0.5, 1.0]
    goal = as_control(target(grid.nodes[:-1]), grid, noise.particles)
    assert np.sqrt(np.mean((u - goal) ** 2)) <= 1e-12


def test_bb_step_rule():
    grid = make_time_grid(1.0, 4)
    rng = np.random.default_rng(0)
    s = rng.standard_normal((4, 8))

    def bb(y, last=1.0, eta0=0.5, min_eta=1e-6):
        return smp_control._bb_step(grid, s, y, last, eta0, min_eta)

    # <s, s> / <s, y> with y = s / 0.3 is 0.3, inside [min_eta, 2 * last]
    assert bb(s / 0.3) == pytest.approx(0.3, rel=1e-12)
    # clipped at twice the last accepted step, and at min_eta
    assert bb(s / 10.0, last=0.25) == 0.5
    assert bb(s * 1e9) == 1e-6
    # no positive curvature along the move: back to eta0
    assert bb(-s) == 0.5
    assert bb(np.zeros_like(s)) == 0.5
    assert bb(np.full_like(s, np.nan)) == 0.5
    # a positive <s, y> whose ratio is not finite: back to eta0
    inf = np.full_like(s, np.inf)
    assert smp_control._bb_step(grid, inf, np.ones_like(s), 1.0, 0.5, 1e-6) == 0.5


@pytest.mark.parametrize("bad", [
    {"eta0": -0.5}, {"eta0": 0.0}, {"eta0": np.nan}, {"eta0": 1e-13}, {"eta0": np.inf},
])
def test_pgd_rejects_armijo_parameters_that_cannot_work(bad):
    # an eta0 below the minimum step tries no step, and a NaN or infinite
    # one no finite step; from u0 = 5 the first trial is accepted, so none
    # of these runs hangs without the check
    grid, noise = _grid_noise(m=8, n=64)
    with pytest.raises(ConfigError, match="eta0"):
        projected_gradient_descent(lq1_model(LQ1Params()), 5.0, grid, noise, steps=1, **bad)


@pytest.mark.parametrize("bad", [{"control_trials": 0}, {"control_trials": -1}, {"n_samples": 0}])
def test_sufficiency_rejects_a_check_without_samples(bad):
    # with no trial control the check passed lq1 at u = 5, where 4 trials
    # at the sampler's radius 10 find 1534 minimality violations; a check
    # of no sampled point is refused the same way
    grid, noise = _grid_noise(m=8, n=64)
    with pytest.raises(ConfigError):
        check_sufficiency(lq1_model(LQ1Params()), 5.0, grid, noise, **{"n_samples": 1000, **bad})


@pytest.mark.parametrize("slack", [np.nan, np.inf, -1e-6])
@pytest.mark.parametrize("check", ["sufficiency", "convexity"])
def test_slack_must_be_finite_and_nonnegative(check, slack):
    # unchecked, a NaN or infinite slack hid every violation: lq1 at u = 3
    # (M=8, N=64, seed 3, 32 trials) has 10759 minimality violations at
    # slack 1e-6 and passed with none, and -x^2 passed the midpoint test at
    # slack nan; a negative slack counts exact ties as violations
    grid, noise = _grid_noise(m=8, n=64, seed=3)
    calls = {
        "sufficiency": lambda: check_sufficiency(
            lq1_model(LQ1Params()), 3.0, grid, noise, n_samples=1000, slack=slack
        ),
        "convexity": lambda: check_convexity(
            lambda pts: -pts[:, 0] ** 2, dim=1, n_samples=1000, slack=slack
        ),
    }
    with pytest.raises(ConfigError, match="slack"):
        calls[check]()


def test_vi_residual_nonnegative_at_optimum():
    grid, noise = _grid_noise(m=8, n=64)
    target = lambda t: np.sin(2.0 * np.pi * t)
    model = _tracking_model(target)
    u, _ = projected_gradient_descent(model, 0.0, grid, noise, steps=40, grad_tol=1e-10)
    rng = np.random.default_rng(1)
    trials = [rng.uniform(-2.0, 2.0, size=(grid.steps, noise.particles)) for _ in range(8)]
    res = variational_inequality_residual(model, u, trials, grid, noise)
    assert res >= -1e-6
    with pytest.raises(ConfigError):
        variational_inequality_residual(model, u, [], grid, noise)


def duality_gap(model, u, direction, grid, noise, state=None):
    """Defect of the discrete integration-by-parts identity linking the
    variational and adjoint systems.

    The identity equates the terminal/initial cost linearization
    E[g_x(X_T) k_T + gamma_y(Y_0) m_0] plus the running cost's
    linearization E[int (h_x-terms + h_v direction) dt] along the
    variational triple (k, m, n) with the gradient pairing
    E[int H_v direction dt], H_v = b_v p + sigma_v q - f_v Q + h_v (the
    h_v terms cancel).  Both sides are assembled from the solved systems
    and the absolute difference returned; it vanishes at first order in
    the step size.
    """
    u = as_control(u, grid, noise.particles)
    d = as_control(direction, grid, noise.particles)
    state = smp_control._state_at(model, u, grid, noise, state)
    var = solve_variational(model, u, d, state, grid, noise)
    lin = SolutionTriple(x=var.k, y=var.m, z=var.n)
    path = smp_control._FrozenPath(model, u, state, grid)
    m, n = grid.steps, (noise.particles,)
    g_x = _value("terminal_cost_slope", model.terminal_cost_slope(state.x[m]), n)
    gamma_y = _value("initial_cost_slope", model.initial_cost_slope(state.y[0]), n)
    lhs = float(np.mean(g_x * var.k[m])) + float(np.mean(gamma_y * var.m[0]))
    for k in range(m):
        own, law = _views(lin, k, None)
        lhs += grid.dt * float(np.mean(path.linearized(k, "running_cost", law, own, d[k])))
    grad = smp_gradient(model, u, grid, noise, state=state)
    return abs(lhs - smp_control._pairing(grid, grad, d))


def test_duality_gap_small_affine():
    # With regression-fitted multipliers the defect is dominated by the
    # conditional-expectation fit noise (shrinks like 1/sqrt(particles),
    # flat in dt), so this only pins the magnitude at a fixed budget.
    model = _affine_model()
    grid, noise = _grid_noise(m=16, n=256, seed=5)
    u = as_control(0.2, grid, noise.particles)
    d = np.cos(2.0 * np.pi * grid.nodes[:-1])
    assert duality_gap(model, u, d, grid, noise) <= 0.05


def test_duality_gap_rate_deterministic_fixture():
    # State-independent diffusion and x-free driver make every
    # conditional-expectation regression exact, exposing the pure
    # time-discretisation defect and its super-linear decay in dt.
    model = ControlModel(
        drift=lambda t, law, own: own.u + 0.05,
        diffusion=_const(0.3),
        driver=lambda t, law, own: 0.2 * own.y + 0.3 * own.u,
        terminal_map=lambda x: np.zeros_like(x),
        running_cost=lambda t, law, own: 0.5 * own.u**2,
        terminal_cost=lambda x: np.zeros_like(x),
        initial_cost=lambda y: 0.5 * y**2,
        partials={
            "drift": {"v": _const(1.0)},
            "driver": {"y": _const(0.2), "v": _const(0.3)},
            "running_cost": {"v": lambda t, law, own: own.u},
        },
        terminal_slope=lambda x: np.zeros_like(x),
        terminal_cost_slope=lambda x: np.zeros_like(x),
        initial_cost_slope=lambda y: y,
        initial=1.0,
    )
    gaps = {}
    for m in (8, 16, 32):
        grid, noise = _grid_noise(m=m, n=256, seed=5)
        u = as_control(0.2, grid, noise.particles)
        gaps[m] = duality_gap(model, u, 1.0, grid, noise)
    assert gaps[8] <= 1e-3
    # first-order decay in dt (measured ratio ~0.50 per halving)
    assert gaps[16] <= 0.6 * gaps[8]
    assert gaps[32] <= 0.6 * gaps[16]


# ======================================================================
# sufficiency
# ======================================================================


def test_sufficiency_passes_on_convex_tracking():
    grid, noise = _grid_noise(m=4, n=32)
    target = lambda t: 0.25
    model = _tracking_model(target)
    u, _ = projected_gradient_descent(model, 0.0, grid, noise, steps=30, grad_tol=1e-12)
    report = check_sufficiency(
        model, u, grid, noise, n_samples=4000, control_trials=8, slack=1e-6
    )
    assert report.passed
    assert report.minimality_violations == 0
    assert set(report.convexity) >= {"terminal_cost", "initial_cost", "terminal_map"}


def test_sufficiency_fills_float_valued_boundary_functions():
    # zero costs and constant coefficients returned as floats are filled to
    # ensemble arrays before the midpoint tests index them
    grid, noise = _grid_noise(m=4, n=32)
    model = replace(_tracking_model(lambda t: 0.25), drift=lambda t, law, own: 0.0,
                    diffusion=lambda t, law, own: 0.3, terminal_cost=lambda x: 0.0,
                    initial_cost=lambda y: 0.0)
    report = check_sufficiency(model, 0.25, grid, noise, n_samples=1000, control_trials=2)
    assert report.passed and report.minimality_violations == 0
    assert {"terminal_cost", "initial_cost", "terminal_map"} <= set(report.convexity)


def test_sufficiency_flags_nonminimal_candidate():
    grid, noise = _grid_noise(m=4, n=32)
    model = _tracking_model(lambda t: 0.25)
    # far from the minimizer: plenty of trial controls beat it pointwise
    report = check_sufficiency(
        model, 3.0, grid, noise, n_samples=2000, control_trials=8, slack=1e-6
    )
    assert not report.passed
    assert report.minimality_violations > 0
    assert report.worst_violation is not None
    assert report.worst_violation["gap"] > 0.0


def test_sufficiency_flags_concave_terminal_cost():
    grid, noise = _grid_noise(m=4, n=32)
    model = replace(
        _tracking_model(lambda t: 0.0),
        terminal_cost=lambda x: -(x**2),
        terminal_cost_slope=lambda x: -2.0 * x,
    )
    u, _ = projected_gradient_descent(model, 0.0, grid, noise, steps=10)
    report = check_sufficiency(
        model, u, grid, noise, n_samples=4000, control_trials=4, slack=1e-6
    )
    assert not report.passed
    assert not report.convexity["terminal_cost"].passed


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (0.5, 0.5)])
def test_box_projection_rejects_an_empty_box(lo, hi):
    with pytest.raises(ConfigError, match="lo < hi"):
        box_projection(lo, hi)


def test_frozen_path_keeps_a_0d_array_partial_as_a_float():
    # a partial that returns a 0-d array is constant in the state: it is
    # compiled as a Python float, as a float-valued partial is
    grid, noise = _grid_noise(m=4, n=32, horizon=0.5, seed=3)
    model = lq1_model(LQ1Params())
    zero_d = dict(model.partials, drift={"x": lambda t, law, own: np.array(-0.3)})
    path = smp_control._FrozenPath(
        replace(model, partials=zero_d), as_control(0.2, grid, 32),
        solve_state(model, 0.2, grid, noise), grid,
    )
    got = path._partial("drift", "x", 1)
    assert type(got) is float and got == -0.3


def test_as_control_returns_a_conforming_array_as_it_is():
    grid = make_time_grid(1.0, 4)
    full = np.arange(12.0).reshape(4, 3)
    assert as_control(full, grid, 3) is full
    ints = np.arange(12).reshape(4, 3)  # not float: converted, a fresh array
    assert as_control(ints, grid, 3).dtype == np.float64


def test_decoupled_descent_releases_each_rejected_trial(monkeypatch):
    # a rejected Armijo trial's state is let go before the next trial solves,
    # so no solve of a decoupled descent sees an earlier state alive, in
    # searches of two trials and more too (a long first step backtracks)
    grid, noise = _grid_noise(m=8, n=128, seed=5)
    states, alive = [], []
    solve = smp_control.solve_state

    def spy(*args, **kw):
        alive.append(sum(ref() is not None for ref in states))
        out = solve(*args, **kw)
        states.append(weakref.ref(out))
        return out

    monkeypatch.setattr(smp_control, "solve_state", spy)
    _, history = projected_gradient_descent(_affine_model(), 0.1, grid, noise, steps=3, eta0=8.0)
    assert max(rec["backtracks"] for rec in history) >= 1
    assert len(alive) >= 3 and alive == [0] * len(alive)


# ======================================================================
# a caller's state and adjoint
# ======================================================================


_STATE_ENTRIES = {
    "cost": lambda model, grid, noise, state: cost(model, 0.1, grid, noise, state=state),
    "smp_gradient": lambda model, grid, noise, state: smp_gradient(
        model, 0.1, grid, noise, state=state),
    "descent": lambda model, grid, noise, state: projected_gradient_descent(
        model, 0.1, grid, noise, steps=1, state=state),
    "vi_residual": lambda model, grid, noise, state: variational_inequality_residual(
        model, 0.1, [0.0], grid, noise, state=state),
    "duality_gap": lambda model, grid, noise, state: duality_gap(
        model, 0.1, 1.0, grid, noise, state=state),
    "sufficiency": lambda model, grid, noise, state: check_sufficiency(
        model, 0.1, grid, noise, state=state, n_samples=100, control_trials=1),
    "solve_adjoint": lambda model, grid, noise, state: solve_adjoint(
        model, 0.1, state, grid, noise),
    "solve_variational": lambda model, grid, noise, state: solve_variational(
        model, 0.1, 1.0, state, grid, noise),
    "deviation_check": lambda model, grid, noise, state: deviation_check(
        model, 0.1, grid, noise, n_deviations=1, state=state),
    "best_response": lambda model, grid, noise, state: best_response(
        lq_game(), 1, (0.1, 0.0), grid, noise, steps=1, state=state),
    "deviation_test": lambda model, grid, noise, state: deviation_test(
        lq_game(), (0.1, 0.0), grid, noise, n_deviations=1, state=state),
    "player_adjoint": lambda model, grid, noise, state: solve_adjoint(
        induced_model(lq_game(), 1, np.zeros((grid.steps, noise.particles)), grid), 0.1, state,
        grid, noise),
}

_ADJOINT_ENTRIES = {
    "smp_gradient": lambda model, grid, noise, state, adjoint: smp_gradient(
        model, 0.1, grid, noise, state=state, adjoint=adjoint),
    "sufficiency": lambda model, grid, noise, state, adjoint: check_sufficiency(
        model, 0.1, grid, noise, state=state, adjoint=adjoint, n_samples=100, control_trials=1),
}


def _misshaped_solutions(case, model, grid, noise):
    """The state and adjoint at u = 0.1 solved on a grid of twice the steps
    ([2M+1, N] paths), or the right ones cut to their first column
    ([M+1, 1])."""
    if case == "finer_grid":
        grid = make_time_grid(grid.horizon, 2 * grid.steps)
        noise = sample_brownian(grid, EnsembleConfig(particles=noise.particles, seed=0))
    state = solve_state(model, 0.1, grid, noise)
    adj = solve_adjoint(model, 0.1, state, grid, noise)
    if case == "finer_grid":
        return state, adj
    return (SolutionTriple(x=state.x[:, :1], y=state.y[:, :1], z=state.z[:, :1]),
            AdjointTriple(p=adj.p[:, :1], q=adj.q[:, :1], Q=adj.Q[:, :1]))


@pytest.mark.parametrize("case", ["finer_grid", "one_column"])
@pytest.mark.parametrize("entry", sorted(_STATE_ENTRIES))
def test_a_callers_state_of_the_wrong_shape_fails_typed(entry, case):
    # a state of another grid or ensemble used to be priced as it was (cost
    # read 0.8443 on a 16-step state where 0.7547 is right), to fail in
    # numpy's broadcasting (the descent), or to be named "warm start" or
    # "carrier" (deviation_check, smp_gradient)
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    model = lq1_model(LQ1Params())
    state, _ = _misshaped_solutions(case, model, grid, noise)
    with pytest.raises(ConfigError, match=r"^state has shapes .*expected \(9, 64\) each"):
        _STATE_ENTRIES[entry](model, grid, noise, state)


@pytest.mark.parametrize("case", ["finer_grid", "one_column"])
@pytest.mark.parametrize("entry", sorted(_ADJOINT_ENTRIES))
def test_a_callers_adjoint_of_the_wrong_shape_fails_typed(entry, case):
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    model = lq1_model(LQ1Params())
    state = solve_state(model, 0.1, grid, noise)
    _, adjoint = _misshaped_solutions(case, model, grid, noise)
    with pytest.raises(ConfigError, match=r"^adjoint has shapes .*expected \(9, 64\) each"):
        _ADJOINT_ENTRIES[entry](model, grid, noise, state, adjoint)


# ======================================================================
# model outputs read by the output contract
# ======================================================================

#: wrong-shaped values at N = 64: a column [N, 1] and three values [3]
_MISSHAPED = {"column": np.zeros((64, 1)), "short": np.zeros(3)}


def _first_then(value):
    """A projection that returns its input on its first call (the start's
    admissibility check) and ``value`` on every later one."""
    calls = []

    def project(u):
        calls.append(u)
        return u if len(calls) == 1 else value

    return project


def _misshaped(model, name, value):
    """(``model`` with the callable ``name`` returning ``value``, the
    subject the error must name)."""
    if name == "partial":
        drift = {**model.partials["drift"], "v": lambda t, law, own: value}
        return replace(model, partials={**model.partials, "drift": drift}), "partials['drift']['v']"
    if name == "project":
        return replace(model, project=_first_then(value)), name
    subject = {"terminal_map": "terminal values", "initial": "initial condition"}.get(name, name)
    return replace(model, **{name: lambda *args: value}), subject


_OUTPUT_CALLS = {
    "solve_state": lambda model, bad, grid, noise: solve_state(bad, 0.1, grid, noise),
    "cost": lambda model, bad, grid, noise: cost(bad, 0.1, grid, noise),
    "solve_adjoint": lambda model, bad, grid, noise: solve_adjoint(
        bad, 0.1, solve_state(model, 0.1, grid, noise), grid, noise),
    "solve_variational": lambda model, bad, grid, noise: solve_variational(
        bad, 0.1, 1.0, solve_state(model, 0.1, grid, noise), grid, noise),
    "smp_gradient": lambda model, bad, grid, noise: smp_gradient(bad, 0.1, grid, noise),
    "projected_gradient_descent": lambda model, bad, grid, noise: projected_gradient_descent(
        bad, 0.1, grid, noise, steps=1),
}

_OUTPUT_CASES = [
    *((which, name, "solve_state") for which in ("lq1", "lq2")
      for name in ("drift", "diffusion", "driver")),
    *(("lq1", name, "cost") for name in ("running_cost", "terminal_cost", "initial_cost")),
    *(("lq1", name, "solve_adjoint")
      for name in ("terminal_cost_slope", "terminal_slope", "initial_cost_slope")),
    ("lq1", "terminal_slope", "solve_variational"),
    ("lq1", "partial", "smp_gradient"),
    ("lq1", "project", "projected_gradient_descent"),
]


@pytest.mark.parametrize("kind", sorted(_MISSHAPED))
@pytest.mark.parametrize("which, name, entry", _OUTPUT_CASES)
def test_a_misshaped_model_output_fails_typed_naming_its_callable(which, name, entry, kind):
    # a model's callable returning a column or too few values used to raise
    # numpy's ValueError, a ConfigError blaming "terminal values", or
    # nothing at all (a column cost was priced as an [N, N] array)
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    model = lq1_model(LQ1Params()) if which == "lq1" else lq2_model(LQ2Params())
    bad, subject = _misshaped(model, name, _MISSHAPED[kind])
    shape = re.escape(str(_MISSHAPED[kind].shape))
    with pytest.raises(ConfigError, match=rf"^{re.escape(subject)} has shape {shape}, expected"):
        _OUTPUT_CALLS[entry](model, bad, grid, noise)


#: values that are not real numbers: None (which numpy reads as NaN), a
#: string and a function (which numpy cannot read as floats), and two that
#: numpy casts to floats: a list holding None (read as NaN: a drift gave a
#: DivergenceError "|nan| > guard") and a complex array (its imaginary part
#: dropped: a running cost + 1j priced as the real model)
_NOT_REAL = {"none": None, "string": "abc", "function": len, "none_in_list": [None] * 64,
             "complex": np.full(64, 0.5 + 1j)}

#: one case per kind of value: coefficient, partial, cost, slope, terminal
#: map, projection and initial condition (a sampler's value)
_NOT_REAL_CASES = [
    ("drift", "solve_state"),
    ("partial", "smp_gradient"),
    ("running_cost", "cost"),
    ("terminal_cost", "cost"),
    ("terminal_cost_slope", "solve_adjoint"),
    ("terminal_map", "solve_state"),
    ("project", "projected_gradient_descent"),
    ("initial", "solve_state"),
]


@pytest.mark.parametrize("kind", sorted(_NOT_REAL))
@pytest.mark.parametrize("name, entry", _NOT_REAL_CASES)
def test_a_model_output_that_is_not_real_numbers_fails_typed_naming_its_callable(
        name, entry, kind):
    # None used to be read as NaN: a cost without its return priced nan, a
    # partial gave an all-NaN gradient, a drift or initial condition a
    # DivergenceError "|nan| > guard"; a string or a function raised
    # numpy's ValueError or TypeError
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    model = lq1_model(LQ1Params())
    bad, subject = _misshaped(model, name, _NOT_REAL[kind])
    what = "None" if kind == "none" else f"of type {type(_NOT_REAL[kind]).__name__}, not real"
    with pytest.raises(ConfigError, match=rf"^{re.escape(subject)} (is|are) {what}"):
        _OUTPUT_CALLS[entry](model, bad, grid, noise)


@pytest.mark.parametrize("kind", ["none", "string"])  # a function is a sampler
def test_a_constant_initial_condition_that_is_not_real_numbers_fails_typed(kind):
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    bad = replace(lq1_model(LQ1Params()), initial=_NOT_REAL[kind])
    with pytest.raises(ConfigError, match="^initial condition is "):
        solve_state(bad, 0.1, grid, noise)


def test_a_column_terminal_cost_fails_the_deviation_check_typed():
    # a terminal cost [N, 1] used to price each particle's cost as a row of
    # an [N, N] array: the cost kept its value, but every paired SE came
    # out sqrt(N) = 8 times too small, so every margin 8 times too tight
    grid, noise = _grid_noise(m=8, n=64, seed=0)
    model = lq1_model(LQ1Params())
    column = replace(model, terminal_cost=lambda x: model.terminal_cost(x)[:, None])
    with pytest.raises(ConfigError, match=r"^terminal_cost has shape \(64, 1\), expected \(64,\)$"):
        deviation_check(column, 0.1, grid, noise, n_deviations=3)


def _constant_twins(which):
    """(grid, noise, model, twin): an LQ model whose diffusion, initial
    cost slope and terminal slope are constants returned as floats, and
    its twin returning the same constants as ``c * np.ones_like(x)``."""
    if which == "lq1":
        grid, noise = _grid_noise(m=8, n=128, horizon=0.5, seed=3)
        base, gain = lq1_model(LQ1Params(horizon=0.5)), 1.0
    else:
        grid, noise = _grid_noise(m=8, n=128, horizon=0.25, seed=4)
        params = LQ2Params(horizon=0.25)
        base, gain = lq2_model(params), params.terminal_gain
    partials = {name: block for name, block in base.partials.items() if name != "diffusion"}
    model = replace(base, diffusion=lambda t, law, own: 0.3, partials=partials,
                    initial_cost=lambda y: 0.4 * y, initial_cost_slope=lambda y: 0.4)
    twin = replace(model, diffusion=lambda t, law, own: 0.3 * np.ones_like(own.x),
                   initial_cost_slope=lambda y: 0.4 * np.ones_like(y),
                   terminal_slope=lambda x: gain * np.ones_like(x))
    return grid, noise, model, twin


@pytest.mark.parametrize("which", ["lq1", "lq2"])
def test_float_outputs_match_their_array_form_bit_for_bit(which):
    # a float and a constant array enter the same arithmetic, so the state,
    # the adjoint, the gradient and the per-particle cost must not differ
    grid, noise, model, twin = _constant_twins(which)
    assert type(model.terminal_slope(np.ones(3))) is float  # the fixture's own slope
    u = as_control(0.2 + 0.1 * np.cos(3.0 * np.linspace(0.0, 1.0, 8))[:, None], grid, 128)

    def solved(m):
        state = solve_state(m, u, grid, noise)
        adj = solve_adjoint(m, u, state, grid, noise)
        grad = smp_gradient(m, u, grid, noise, state=state, adjoint=adj)
        per = smp_control._per_particle_cost(m, u, state, grid)
        return state.x, state.y, state.z, adj.p, adj.q, adj.Q, grad, per

    got = solved(model)
    for a, b in zip(got, solved(twin)):
        assert np.array_equal(a, b)
    assert np.any(got[6] != 0.0) and np.any(got[0][1] != got[0][1, 0])  # the noise enters
