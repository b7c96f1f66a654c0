"""Tests for the two-player equilibrium search layer."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfcontrol.core import (
    ConfigError,
    EnsembleConfig,
    StateView,
    make_time_grid,
    sample_brownian,
)
from mfcontrol import games
from mfcontrol.games import (
    GameModel,
    NashResult,
    best_response,
    deviation_test,
    induced_model,
    nash_iterate,
)
from mfcontrol.lq_examples import LQ1Params, LQ2Params, lq1_candidate, lq1_model, lq2_model, lq_game
from mfcontrol.smp_control import (
    _per_particle_cost,
    box_projection,
    check_sufficiency,
    projected_gradient_descent,
    solve_adjoint,
    solve_state,
)

from oracles import per_player_cost


def _zeros(arr):
    return np.zeros_like(arr)


def _zero(t, law, own, *controls):
    """A ``None`` driver read as the zero coefficient it stands for."""
    return np.zeros(np.shape(own.x))


def _setup(m, n, seed, horizon=1.0):
    grid = make_time_grid(horizon, m)
    noise = sample_brownian(grid, EnsembleConfig(particles=n, seed=seed))
    return grid, noise


def _interaction_game(strength=4.0, costs=True):
    """Control-free dynamics; bilinear running-cost interaction.

    Player 1 pays v1^2/2 + strength*v1*v2, player 2 the sign-flipped
    counterpart, so undamped best responses scale each other up by
    ``strength`` and the damped pair map is expansive for strength > 1.
    With ``costs=False`` both players pay nothing at all.
    """

    def drift(t, law, own, v1, v2):
        return -0.3 * own.x

    def diffusion(t, law, own, v1, v2):
        return 0.3 * np.ones_like(own.x)

    partials = {
        "drift": {"x": lambda t, law, own, v1, v2: -0.3 * np.ones_like(own.x)}
    }
    if costs:
        partials["running_cost_1"] = {
            "v1": lambda t, law, own, v1, v2: v1 + strength * v2
        }
        partials["running_cost_2"] = {
            "v2": lambda t, law, own, v1, v2: v2 - strength * v1
        }
        h1 = lambda t, law, own, v1, v2: 0.5 * v1**2 + strength * v1 * v2
        h2 = lambda t, law, own, v1, v2: 0.5 * v2**2 - strength * v1 * v2
    else:
        h1 = lambda t, law, own, v1, v2: np.zeros_like(own.x)
        h2 = h1
    return GameModel(
        drift=drift,
        diffusion=diffusion,
        driver=None,
        terminal_map=lambda x: np.asarray(x, dtype=float),
        running_cost_1=h1,
        running_cost_2=h2,
        terminal_cost_1=_zeros,
        terminal_cost_2=_zeros,
        initial_cost_1=_zeros,
        initial_cost_2=_zeros,
        partials=partials,
        terminal_slope=lambda x: np.ones_like(x),
        terminal_cost_slope_1=_zeros,
        terminal_cost_slope_2=_zeros,
        initial_cost_slope_1=_zeros,
        initial_cost_slope_2=_zeros,
        initial=1.0,
    )


def _symmetric_game():
    """Both players steer the same state with identical quadratic costs.

    The control sum in the drift is parenthesized so that both induced
    models evaluate it in the same association order; everything the two
    players compute is then bitwise identical.
    """

    def drift(t, law, own, v1, v2):
        return -0.3 * own.x + (v1 + v2)

    def diffusion(t, law, own, v1, v2):
        return 0.3 * np.ones_like(own.x)

    ones = lambda t, law, own, v1, v2: np.ones_like(own.x)
    half_x = lambda t, law, own, v1, v2: 0.5 * own.x
    partials = {
        "drift": {
            "x": lambda t, law, own, v1, v2: -0.3 * np.ones_like(own.x),
            "v1": ones,
            "v2": ones,
        },
        "running_cost_1": {"v1": lambda t, law, own, v1, v2: v1, "x": half_x},
        "running_cost_2": {"v2": lambda t, law, own, v1, v2: v2, "x": half_x},
    }
    return GameModel(
        drift=drift,
        diffusion=diffusion,
        driver=None,
        terminal_map=lambda x: np.asarray(x, dtype=float),
        running_cost_1=lambda t, law, own, v1, v2: 0.5 * v1**2 + 0.25 * own.x**2,
        running_cost_2=lambda t, law, own, v1, v2: 0.5 * v2**2 + 0.25 * own.x**2,
        terminal_cost_1=lambda x: 0.5 * x**2,
        terminal_cost_2=lambda x: 0.5 * x**2,
        initial_cost_1=_zeros,
        initial_cost_2=_zeros,
        partials=partials,
        terminal_slope=lambda x: np.ones_like(x),
        terminal_cost_slope_1=lambda x: x,
        terminal_cost_slope_2=lambda x: x,
        initial_cost_slope_1=_zeros,
        initial_cost_slope_2=_zeros,
        initial=1.0,
    )


def _ridge_game():
    """Player 1 pays (v1^2 - 1)^2 / 8: v1 = 0 is a stationary ridge top.

    The first-order residual vanishes there while every sampled
    deviation with |v1| < sqrt(2) strictly lowers the cost, so the two
    certificates disagree by construction.
    """

    def drift(t, law, own, v1, v2):
        return -0.3 * own.x

    def diffusion(t, law, own, v1, v2):
        return 0.3 * np.ones_like(own.x)

    partials = {
        "drift": {"x": lambda t, law, own, v1, v2: -0.3 * np.ones_like(own.x)},
        "running_cost_1": {
            "v1": lambda t, law, own, v1, v2: 0.5 * v1 * (v1**2 - 1.0)
        },
        "running_cost_2": {"v2": lambda t, law, own, v1, v2: v2},
    }
    return GameModel(
        drift=drift,
        diffusion=diffusion,
        driver=None,
        terminal_map=lambda x: np.asarray(x, dtype=float),
        running_cost_1=lambda t, law, own, v1, v2: 0.125 * (v1**2 - 1.0) ** 2,
        running_cost_2=lambda t, law, own, v1, v2: 0.5 * v2**2,
        terminal_cost_1=_zeros,
        terminal_cost_2=_zeros,
        initial_cost_1=_zeros,
        initial_cost_2=_zeros,
        partials=partials,
        terminal_slope=lambda x: np.ones_like(x),
        terminal_cost_slope_1=_zeros,
        terminal_cost_slope_2=_zeros,
        initial_cost_slope_1=_zeros,
        initial_cost_slope_2=_zeros,
        initial=1.0,
    )


def _tracking_muted(game):
    """Copy of ``game`` with player 2's running cost removed entirely."""
    partials = {k: v for k, v in game.partials.items() if k != "running_cost_2"}
    return replace(
        game,
        running_cost_2=lambda t, law, own, v1, v2: np.zeros_like(own.x),
        partials=partials,
    )


# ======================================================================
# Model validation
# ======================================================================


def test_partials_rejects_unknown_coefficient():
    with pytest.raises(ConfigError, match="unknown coefficient"):
        replace(lq_game(), partials={"costs": {}})


@pytest.mark.parametrize("name, slot", [("drift", "y"), ("diffusion", "law_z")])
def test_decoupled_game_rejects_y_or_z_partials_at_construction(name, slot):
    # the rule used to surface only at the first induced_model
    game = lq_game(coupling=0.2)
    block = {**game.partials.get(name, {}), slot: lambda t, law, own, v1, v2: 1.0}
    match = rf"partials\['{name}'\]\['{slot}'\] contradicts coupled=False"
    with pytest.raises(ConfigError, match=match):
        replace(game, partials={**game.partials, name: block})
    assert replace(game, partials={**game.partials, name: block}, coupled=True).coupled


def test_partials_rejects_unknown_slot():
    bad = {"drift": {"u": lambda t, law, own, v1, v2: v1}}
    with pytest.raises(ConfigError, match="unknown slot"):
        replace(lq_game(), partials=bad)


def test_player_index_validated():
    game = lq_game()
    grid, noise = _setup(4, 8, 0)
    opp = np.zeros((grid.steps, noise.particles))
    with pytest.raises(ConfigError, match="player index"):
        induced_model(game, 0, opp, grid)
    with pytest.raises(ConfigError, match="player index"):
        best_response(game, 3, (0.0, 0.0), grid, noise, steps=1)


def test_nash_rejects_bad_rounds_and_damping():
    game = lq_game()
    grid, noise = _setup(4, 8, 0)
    with pytest.raises(ConfigError, match="rounds"):
        nash_iterate(game, (0.0, 0.0), grid, noise, rounds=0)
    for damping in (0.0, 1.5):
        with pytest.raises(ConfigError, match="damping"):
            nash_iterate(game, (0.0, 0.0), grid, noise, damping=damping)


# ======================================================================
# Reduction to the single-player problem
# ======================================================================


@given(
    j=st.integers(min_value=0, max_value=16),
    c1=st.floats(min_value=-2.0, max_value=2.0),
    c2=st.floats(min_value=-2.0, max_value=2.0),
)
def test_induced_coefficients_agree_with_direct_evaluation(j, c1, c2):
    game = lq_game(coupling=0.7)
    grid = make_time_grid(1.0, 16)
    opp = 0.1 * np.arange(16)[:, None] + c2 * np.ones((16, 5))
    own = StateView(
        x=np.linspace(-1.0, 1.0, 5),
        y=np.linspace(0.5, -0.5, 5),
        z=np.linspace(-0.2, 0.3, 5),
        u=np.full(5, c1),
    )
    law = StateView(x=0.4, y=-0.2, z=0.1)
    t = grid.nodes[j]
    k = min(j, grid.steps - 1)
    for i in (1, 2):
        model = induced_model(game, i, opp, grid)
        pair = (own.u, opp[k]) if i == 1 else (opp[k], own.u)
        for name in ("drift", "diffusion", "driver"):
            lifted = (getattr(model, name) or _zero)(t, law, own)
            direct = (getattr(game, name) or _zero)(t, law, own, *pair)
            assert np.array_equal(lifted, direct)
        h = (game.running_cost_1 if i == 1 else game.running_cost_2)
        assert np.array_equal(model.running_cost(t, law, own), h(t, law, own, *pair))


def test_induced_model_selects_costs_and_drops_opponent_partials():
    game = lq_game(coupling=0.7)
    grid = make_time_grid(1.0, 8)
    opp = np.zeros((grid.steps, 4))
    m1 = induced_model(game, 1, opp, grid)
    m2 = induced_model(game, 2, opp, grid)
    assert m1.terminal_cost is game.terminal_cost_1
    assert m2.terminal_cost is game.terminal_cost_2
    assert m1.initial_cost_slope is game.initial_cost_slope_1
    assert m2.project is game.project_2
    for model in (m1, m2):
        for block in model.partials.values():
            assert "v1" not in block and "v2" not in block
    own = StateView(x=np.ones(4), y=np.ones(4), z=np.ones(4), u=np.zeros(4))
    law = StateView(x=1.0, y=1.0, z=1.0)
    # the own-control slot carries each player's drift sensitivity
    assert np.allclose(m1.partials["drift"]["v"](0.0, law, own), 1.0)
    assert np.allclose(m2.partials["drift"]["v"](0.0, law, own), 0.7)


def test_induced_model_at_sampled_atoms_raises_a_typed_error():
    # the lifted coefficients read the frozen opponent's [N] node row, so
    # the sufficiency check's sampled atoms used to meet numpy's ValueError
    grid, noise = _setup(16, 256, 0)
    zero = np.zeros((grid.steps, noise.particles))
    model, own = games._player(lq_game(coupling=0.2), 1, zero, zero, grid)
    with pytest.raises(ConfigError, match=r"player 1's .* shape \(1000,\).* shape \(256,\)"):
        check_sufficiency(model, own, grid, noise, n_samples=2000, control_trials=2)


def test_player_costs_through_the_induced_model_match_the_game_costs():
    # the deviation test and the Nash tolerance price each player through
    # the single-player per-particle cost of induced_model
    game = lq_game(coupling=0.2, target=lambda t: 0.3 - 0.4 * t)
    grid, noise = _setup(8, 256, seed=4)
    rng = np.random.default_rng(2)
    u1 = 0.3 * rng.normal(size=(8, 256))
    u2 = np.repeat((0.5 - np.linspace(0.0, 1.0, 8))[:, None], 256, axis=1)
    state = solve_state(induced_model(game, 1, u2, grid), u1, grid, noise)
    for i, own, other in ((1, u1, u2), (2, u2, u1)):
        got = _per_particle_cost(induced_model(game, i, other, grid), own, state, grid)
        want = per_player_cost(game, i, u1, u2, state, grid)
        assert np.array_equal(got, want)
        assert np.ptp(want) > 0.0


def test_player_adjoint_matches_single_player_reference():
    # a player's adjoint is the single-player adjoint of their induced model
    params = LQ1Params()
    game = lq_game(params)
    grid, noise = _setup(8, 128, 4)
    u1 = np.full((grid.steps, noise.particles), 0.2)
    u2 = np.full((grid.steps, noise.particles), 0.3)
    model = lq1_model(params)
    state = solve_state(model, u1, grid, noise)
    adj_game = solve_adjoint(induced_model(game, 1, u2, grid), u1, state, grid, noise)
    adj_ref = solve_adjoint(model, u1, state, grid, noise)
    assert np.array_equal(adj_game.p, adj_ref.p)
    assert np.array_equal(adj_game.q, adj_ref.q)
    assert np.array_equal(adj_game.Q, adj_ref.Q)


def test_zero_cost_player_has_zero_adjoint():
    game = _tracking_muted(lq_game())
    grid, noise = _setup(8, 64, 3)
    u1 = np.full((grid.steps, noise.particles), 0.2)
    u2 = np.full((grid.steps, noise.particles), 0.25)
    state = solve_state(induced_model(game, 1, u2, grid), u1, grid, noise)
    adj = solve_adjoint(induced_model(game, 2, u1, grid), u2, state, grid, noise)
    assert np.all(adj.p == 0.0)
    assert np.all(adj.q == 0.0)
    assert np.all(adj.Q == 0.0)


# ======================================================================
# Best responses
# ======================================================================


def test_best_response_without_own_influence_returns_start():
    game = _tracking_muted(lq_game())
    grid, noise = _setup(8, 64, 3)
    u2 = np.full((grid.steps, noise.particles), 0.25)
    out, history = best_response(game, 2, (0.2, u2), grid, noise, steps=5)
    assert np.array_equal(out, u2)
    assert len(history) == 1
    assert history[0]["status"] == "converged"


def test_best_response_ignores_decoupled_opponent():
    game = lq_game()
    grid, noise = _setup(8, 64, 7)
    out_a, _ = best_response(game, 1, (0.0, 0.3), grid, noise, steps=3)
    out_b, _ = best_response(game, 1, (0.0, 0.9), grid, noise, steps=3)
    assert np.array_equal(out_a, out_b)


def test_best_response_chain_matches_single_descent():
    # with an inert opponent and no damping, the per-round descents of
    # player 1 restart exactly where the previous round stopped
    game = _tracking_muted(lq_game())
    grid, noise = _setup(8, 64, 3)
    br_steps = 5
    res = nash_iterate(
        game, (0.0, 0.25), grid, noise, rounds=2, damping=1.0,
        br_steps=br_steps, n_trials=4, n_deviations=4, seed=0,
    )
    chained = [rec["cost"] for h in res.history for rec in h["response_1"]]
    opp = np.full((grid.steps, noise.particles), 0.25)
    model = induced_model(game, 1, opp, grid)
    u_long, h_long = projected_gradient_descent(
        model, 0.0, grid, noise, steps=br_steps * res.rounds
    )
    assert chained == [rec["cost"] for rec in h_long]
    assert np.array_equal(res.u1, u_long)
    assert np.array_equal(res.u2, opp)


# ======================================================================
# Equilibrium search
# ======================================================================


def test_symmetric_game_stays_symmetric_bitwise():
    game = _symmetric_game()
    grid, noise = _setup(8, 64, 2, horizon=0.5)
    res = nash_iterate(
        game, (0.7, 0.7), grid, noise, rounds=2, damping=0.5,
        br_steps=6, n_trials=4, n_deviations=4, seed=1,
    )
    assert np.array_equal(res.u1, res.u2)
    for h in res.history:
        assert h["move_1"] == h["move_2"]


def test_adversarial_interaction_reports_oscillation():
    game = _interaction_game(strength=4.0)
    grid, noise = _setup(8, 32, 0, horizon=0.5)
    res = nash_iterate(
        game, (1.0, 1.0), grid, noise, rounds=9, damping=0.5,
        br_steps=12, n_trials=6, n_deviations=4, seed=0,
    )
    assert res.status == "oscillation"
    assert not res.converged
    assert res.deviation is None
    assert not res.inconsistent
    assert res.rounds == 5
    # the damped pair map is expansive: residuals deteriorate round over round
    assert res.history[-1]["residual_1"] < res.history[0]["residual_1"]


def test_nash_converges_for_independent_copies():
    params = LQ1Params()
    game = lq_game(params)
    grid, noise = _setup(16, 256, 0)
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=3, damping=1.0,
        br_steps=25, n_trials=8, n_deviations=12, seed=0,
    )
    assert res.converged and res.status == "converged"
    assert res.rounds == 1
    assert res.deviation["passed"]
    # player 2 tracks the target exactly, player 1 lands on the
    # single-player candidate
    assert np.abs(res.u2 - 0.3).max() <= 1e-6
    cand, _ = lq1_candidate(params, grid, noise)
    assert np.sqrt(np.mean((res.u1 - cand) ** 2)) <= 5e-2


def test_nash_best_responses_stop_at_their_resolution():
    # best responses end their descents once the cost changes fall below
    # the paired Monte Carlo resolution; before that stop this run made 461
    # Armijo backtracks (11 with it), with the same 2 rounds
    game = lq_game(coupling=0.1)
    grid, noise = _setup(16, 512, 0)
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=8, damping=1.0,
        br_steps=20, n_trials=12, n_deviations=12, seed=0,
    )
    assert res.converged and not res.inconsistent
    backtracks = sum(
        rec["backtracks"]
        for h in res.history for key in ("response_1", "response_2") for rec in h[key]
    )
    assert backtracks <= 30


def test_nash_round_solves_its_shared_state_once(monkeypatch):
    # both players' residuals read the state at the same blended pair, so
    # a round solves it once; the certificate is stubbed out of the count
    solves = []
    solve = games.solve_state
    monkeypatch.setattr(games, "solve_state",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    refuted = {"passed": False, "player_1": {"worst_margin": -1.0},
               "player_2": {"worst_margin": -1.0}}
    monkeypatch.setattr(games, "deviation_test", lambda *args, **kw: refuted)
    grid, noise = _setup(8, 64, 0)
    res = nash_iterate(lq_game(coupling=0.2), (0.0, 0.0), grid, noise, rounds=1,
                       br_steps=1, n_trials=2)
    assert res.rounds == 1
    assert len(solves) == 1


def test_nash_certificate_reads_the_rounds_shared_state(monkeypatch):
    # the deviation test prices its deviations from the state the round
    # solved at the certified pair, so a certified round solves it once too
    solved, handed = [], []
    solve, certify = games.solve_state, games.deviation_test
    monkeypatch.setattr(games, "solve_state",
                        lambda *args, **kw: solved.append(solve(*args, **kw)) or solved[-1])
    monkeypatch.setattr(games, "deviation_test",
                        lambda *args, **kw: handed.append(kw["state"]) or certify(*args, **kw))
    grid, noise = _setup(8, 64, 0)
    res = nash_iterate(lq_game(coupling=0.2), (0.0, 0.0), grid, noise, rounds=3,
                       damping=1.0, n_trials=2, n_deviations=2)
    assert res.converged and len(handed) == 1
    assert len(solved) == res.rounds and handed[0] is solved[-1]


def _armijo_trials(history):
    # rejected trials, plus one for each accepted step (a record without status)
    return sum(rec.get("backtracks", 0) + ("status" not in rec) for rec in history)


def test_later_rounds_start_both_best_responses_from_the_round_state(monkeypatch):
    # round 0 solves both descents' start states; every later round starts
    # them from the state it solved at the blended pair, so its best
    # responses solve only their Armijo trials
    from mfcontrol import smp_control

    solves, per_response = [], []
    solve, respond = smp_control.solve_state, games.best_response

    def counted_solve(*args, **kw):
        solves.append(1)
        return solve(*args, **kw)

    def counted_response(*args, **kw):
        start = len(solves)
        out = respond(*args, **kw)
        per_response.append(len(solves) - start)
        return out

    monkeypatch.setattr(smp_control, "solve_state", counted_solve)
    monkeypatch.setattr(games, "best_response", counted_response)
    refuted = {"passed": False, "player_1": {"worst_margin": -1.0},
               "player_2": {"worst_margin": -1.0}}
    monkeypatch.setattr(games, "deviation_test", lambda *args, **kw: refuted)
    grid, noise = _setup(8, 64, 0)
    res = nash_iterate(lq_game(coupling=0.2), (0.0, 0.0), grid, noise, rounds=3,
                       br_steps=2, n_trials=2)
    assert res.rounds == 3 and len(per_response) == 6
    for rnd, row in enumerate(res.history):
        trials = [_armijo_trials(row["response_1"]), _armijo_trials(row["response_2"])]
        start = 1 if rnd == 0 else 0
        assert per_response[2 * rnd: 2 * rnd + 2] == [t + start for t in trials]


@pytest.mark.parametrize("player", [1, 2])
def test_best_response_from_the_shared_state_matches_a_fresh_solve(player):
    game = lq_game(coupling=0.2)
    grid, noise = _setup(8, 64, 3)
    pair = (0.3, -0.2)
    fresh = best_response(game, player, pair, grid, noise, steps=3)
    state = solve_state(induced_model(game, 1, np.full((8, 64), -0.2), grid), 0.3, grid, noise)
    given = best_response(game, player, pair, grid, noise, steps=3, state=state)
    assert np.array_equal(given[0], fresh[0]) and given[1] == fresh[1]


def test_deviation_test_with_the_callers_state_matches_a_fresh_solve(monkeypatch):
    game = lq_game(coupling=0.2)
    grid, noise = _setup(8, 64, 3)
    pair = (0.3, -0.2)
    fresh = deviation_test(game, pair, grid, noise, n_deviations=3, seed=1)
    state = solve_state(induced_model(game, 1, np.full((8, 64), -0.2), grid), 0.3, grid, noise)
    solves = []
    solve = games.solve_state
    monkeypatch.setattr(games, "solve_state",
                        lambda *args, **kw: solves.append(1) or solve(*args, **kw))
    given = deviation_test(game, pair, grid, noise, n_deviations=3, seed=1, state=state)
    assert solves == [] and given == fresh


def test_nash_certifies_weakly_coupled_pair():
    game = lq_game(coupling=0.1)
    grid, noise = _setup(16, 2048, 0)
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=8, damping=1.0,
        br_steps=20, n_trials=12, n_deviations=12, seed=0,
    )
    assert res.converged
    assert res.rounds <= 4
    assert not res.inconsistent
    assert res.deviation["passed"]
    for i in (0, 1):
        assert res.residuals[i] >= -res.epsilons[i]
    for player in ("player_1", "player_2"):
        assert res.deviation[player]["worst_margin"] > 0.0


def test_nash_certifies_a_coupled_fbsde_game():
    # on LQ2 dynamics the game's drift and diffusion read y and z, so the
    # game is coupled and every state solve runs the continuation; the
    # game used to be built with coupled=False and rejected its own partials
    game = lq_game(LQ2Params(horizon=0.25), coupling=0.2)
    grid, noise = _setup(8, 256, 0, horizon=0.25)
    assert game.coupled and induced_model(game, 2, np.zeros((8, 256)), grid).coupled
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=8, damping=1.0,
        br_steps=20, n_trials=12, trial_radius=0.25, n_deviations=12, seed=0,
    )
    assert res.converged and not res.inconsistent
    assert res.deviation["passed"]
    for i in (0, 1):
        assert res.residuals[i] >= -res.epsilons[i]


@pytest.mark.parametrize("coupling, rounds", [(0.0, 1), (0.2, 2)])
def test_nash_keeps_a_player_inside_a_convex_action_set(coupling, rounds):
    # player 2 tracks 0.3 but may only play in [-1, 0.2]; at coupling 0 its
    # cost does not read the state, so the exact equilibrium control is
    # clip(0.3) = 0.2, and at coupling 0.2 the box's upper face still binds
    game = replace(lq_game(coupling=coupling), project_2=box_projection(-1.0, 0.2))
    grid, noise = _setup(16, 256, 0)
    trial = np.linspace(-2.0, 2.0, 16 * 256).reshape(16, 256)
    induced = induced_model(game, 2, np.zeros((16, 256)), grid)
    assert np.array_equal(induced.project(trial), np.clip(trial, -1.0, 0.2))
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=8, damping=1.0,
        br_steps=20, n_trials=12, trial_radius=0.25, n_deviations=12,
    )
    assert res.status == "converged" and res.rounds == rounds
    assert not res.inconsistent
    assert np.all(res.u2 == 0.2)


def test_a_game_on_lq2_ties_y_t_to_terminal_gain_times_x_t():
    # the game used to tie Y_T = X_T whatever terminal_gain said; without
    # player 2's push, player 1's state is the LQ2 state at the same control
    params = LQ2Params(horizon=0.25, terminal_gain=2.0)
    game = lq_game(params)
    x = np.linspace(-1.0, 1.0, 5)
    assert np.array_equal(game.terminal_map(x), 2.0 * x) and game.terminal_slope(x) == 2.0
    grid, noise = _setup(8, 128, 1, horizon=0.25)
    u1 = np.full((8, 128), 0.3)
    got = solve_state(induced_model(game, 1, np.zeros((8, 128)), grid), u1, grid, noise)
    want = solve_state(lq2_model(params), u1, grid, noise)
    for a, b in ((got.x, want.x), (got.y, want.y), (got.z, want.z)):
        assert np.array_equal(a, b)


def test_stationary_ridge_flags_certificate_disagreement():
    game = _ridge_game()
    grid, noise = _setup(8, 32, 0, horizon=0.5)
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=1, damping=1.0,
        br_steps=4, n_trials=4, n_deviations=6, seed=0,
    )
    assert res.status == "rounds_exhausted"
    assert not res.converged
    assert res.inconsistent
    assert res.residuals == (0.0, 0.0)
    assert res.deviation is not None and not res.deviation["passed"]
    assert not res.deviation["player_1"]["passed"]
    assert res.deviation["player_2"]["passed"]
    assert res.deviation["player_1"]["min_cost_change"] < 0.0


# ======================================================================
# Deviation certification
# ======================================================================


def test_deviation_test_flags_beatable_pair():
    game = lq_game()
    grid, noise = _setup(8, 256, 5)
    report = deviation_test(game, (0.8, 0.3), grid, noise, n_deviations=10, seed=0)
    assert not report["passed"]
    p1 = report["player_1"]
    assert not p1["passed"]
    assert p1["min_cost_change"] < 0.0
    assert p1["worst_margin"] < 0.0
    assert 0 <= p1["worst_index"] < 10
    # player 2 sits at the exact tracking optimum
    assert report["player_2"]["passed"]


def test_deviation_test_neutral_on_zero_costs():
    game = _interaction_game(costs=False)
    grid, noise = _setup(8, 32, 0, horizon=0.5)
    report = deviation_test(game, (0.0, 0.0), grid, noise, n_deviations=4, seed=0)
    assert report["passed"]
    assert report["player_1"]["min_cost_change"] == 0.0
    assert report["player_2"]["min_cost_change"] == 0.0


# ======================================================================
# Results and serialization
# ======================================================================


def test_nash_result_requires_history_and_finite_residuals():
    u = np.zeros((4, 2))
    with pytest.raises(ConfigError, match="history"):
        NashResult(
            u1=u, u2=u, residuals=(0.0, 0.0), epsilons=(0.0, 0.0),
            status="converged", converged=True, rounds=0, history=[],
        )
    with pytest.raises(ConfigError, match="non-finite"):
        NashResult(
            u1=u, u2=u, residuals=(float("nan"), 0.0), epsilons=(0.0, 0.0),
            status="converged", converged=True, rounds=1, history=[{}],
        )


def test_nash_result_serialization():
    game = _ridge_game()
    grid, noise = _setup(8, 32, 0, horizon=0.5)
    res = nash_iterate(
        game, (0.0, 0.0), grid, noise, rounds=1, damping=1.0,
        br_steps=4, n_trials=4, n_deviations=6, seed=0,
    )
    payload = res.to_dict()
    json.dumps(payload, sort_keys=True)
    assert "u1" not in payload and "u2" not in payload
    assert payload["status"] == res.status
    rows = res.residual_table()
    assert len(rows) == res.rounds
    assert set(rows[0]) == {
        "round", "residual_1", "residual_2", "eps_1", "eps_2",
        "move_1", "move_2",
    }
