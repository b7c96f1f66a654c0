"""Two-player non-zero-sum games on a shared mean-field state.

Both players steer one forward-backward triple (X, Y, Z): the shared
coefficients read the state, its empirical means, and *both* controls.
Each player prices the resulting trajectory with their own running,
terminal, and initial costs and may only move inside their own convex
action set.  A control pair is an equilibrium when neither player can
lower their cost by deviating unilaterally.

Freezing one player's control turns the other player's problem into the
single-player mean-field control problem handled by
:mod:`mfcontrol.smp_control`; everything here is built on that
reduction.  :func:`induced_model` performs it explicitly (a player's
adjoint is ``solve_adjoint`` on it), :func:`best_response` delegates
through it, and :func:`nash_iterate` searches for an equilibrium by damped
*simultaneous* best responses: each round both players respond to the
round-start profile and then blend the response into their control with
factor ``damping``.  Responding to the round-start profile (rather than
taking turns within the round) keeps the two subproblems independent --
they could run concurrently -- and preserves the symmetry u1 = u2 of
symmetric games round by round.

No algorithm is guaranteed to find an equilibrium here, and best-response
dynamics can cycle on strongly coupled instances; runs therefore end in
one of three recorded states: certified (both players' first-order
residuals clear their Monte Carlo tolerance), oscillating (the residual
violation has stopped improving), or out of rounds.  Certification
combines the residual test with paired unilateral-deviation sampling
(:func:`deviation_test`); the two certificates must agree, otherwise the
result is flagged inconsistent rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from mfcontrol.core import BrownianPaths, ConfigError, TimeGrid, _check_cap, _check_fraction
from mfcontrol.fbsde_solver import SolutionTriple
from mfcontrol.smp_control import (
    _COEF_KEYS,
    _NUMERICAL_ZERO,
    _PROFILE_RADIUS,
    _RESOLUTION_SES,
    ControlModel,
    _check_partials,
    _check_sampling,
    _mean_se,
    _paired_deviations,
    _per_particle_cost,
    _profile,
    _projected,
    _rms,
    _state_at,
    as_control,
    identity_projection,
    projected_gradient_descent,
    solve_state,
    variational_inequality_residual,
)

__all__ = [
    "GameModel",
    "NashResult",
    "induced_model",
    "best_response",
    "deviation_test",
    "nash_iterate",
]

_GAME_COEFS = ("drift", "diffusion", "driver", "running_cost_1", "running_cost_2")
_GAME_SLOTS = ("law_x", "law_y", "law_z", "x", "y", "z", "v1", "v2")

#: a player's own fields, ``<name>_1`` and ``<name>_2`` on :class:`GameModel`
_PLAYER_FIELDS = ("running_cost", "terminal_cost", "initial_cost", "terminal_cost_slope",
                  "initial_cost_slope", "project")


# ======================================================================
# Game description
# ======================================================================


@dataclass(frozen=True)
class GameModel:
    """Shared controlled dynamics plus per-player cost structure.

    State coefficients are vectorized ``(t, law, own, v1, v2) -> [N]``
    with ``law``/``own`` the usual mean/per-particle views of (x, y, z)
    and ``v1``, ``v2`` the players' control slices at that node.  The
    per-player running costs use the same signature; terminal and
    initial costs and their slopes are functions of the node array as in
    :class:`mfcontrol.smp_control.ControlModel`.

    ``partials`` mirrors the single-player layout with two control
    slots: outer keys from ``drift/diffusion/driver/running_cost_i``,
    inner keys from ``law_x/law_y/law_z/x/y/z/v1/v2``; absent entries
    are identically zero.  ``project_1``/``project_2`` are the players'
    idempotent projections onto their action sets.  ``coupled=False``
    declares that drift and diffusion read only x and the controls,
    enabling the cheap sequential state solve; a ``drift`` or
    ``diffusion`` partial in a y or z slot contradicts it
    (:class:`ConfigError`, as for the single-player model).  Every
    callable's value is read by the output contract of
    :mod:`mfcontrol.core` (a float or an array of the expected shape).
    """

    drift: Callable
    diffusion: Callable
    driver: Optional[Callable]
    terminal_map: Callable
    running_cost_1: Callable
    running_cost_2: Callable
    terminal_cost_1: Callable[[np.ndarray], np.ndarray]
    terminal_cost_2: Callable[[np.ndarray], np.ndarray]
    initial_cost_1: Callable[[np.ndarray], np.ndarray]
    initial_cost_2: Callable[[np.ndarray], np.ndarray]
    partials: Mapping[str, Mapping[str, Callable]]
    terminal_slope: Callable[[np.ndarray], np.ndarray]
    terminal_cost_slope_1: Callable[[np.ndarray], np.ndarray]
    terminal_cost_slope_2: Callable[[np.ndarray], np.ndarray]
    initial_cost_slope_1: Callable[[np.ndarray], np.ndarray]
    initial_cost_slope_2: Callable[[np.ndarray], np.ndarray]
    project_1: Callable[[np.ndarray], np.ndarray] = identity_projection
    project_2: Callable[[np.ndarray], np.ndarray] = identity_projection
    initial: float = 0.0
    coupled: bool = False

    def __post_init__(self):
        _check_partials(self.partials, _GAME_COEFS, _GAME_SLOTS, self.coupled)


def _check_player(i: int) -> None:
    if i not in (1, 2):
        raise ConfigError(f"player index must be 1 or 2, got {i}")


def _pair(controls, grid: TimeGrid, particles: int):
    u1, u2 = controls
    return (
        as_control(u1, grid, particles),
        as_control(u2, grid, particles),
    )


# ======================================================================
# Reduction to the single-player problem
# ======================================================================


def induced_model(
    game: GameModel, i: int, opponent: np.ndarray, grid: TimeGrid
) -> ControlModel:
    """Single-player control model seen by player ``i`` when the
    opponent's control is frozen at the array ``opponent`` [steps, N].

    Freezing the opponent turns the shared dynamics into ordinary
    controlled coefficients: the player's own control rides in
    ``own.u``, the opponent's is looked up by node index.  Partials with
    respect to the frozen control are dropped; everything else passes
    through unchanged, so the full single-player toolchain (state,
    adjoint, gradient, descent) applies verbatim.  The frozen control
    exists only at the ensemble's particles: a coefficient or running cost
    evaluated at own values of another shape (sampled atoms, say) raises
    :class:`ConfigError`.
    """

    _check_player(i)
    last = opponent.shape[0] - 1
    width = opponent.shape[1:]

    def lift(fn2, checked=True):
        if fn2 is None:
            return None

        def fn(t, law, own):
            if checked and np.shape(own.x) != width:
                raise ConfigError(
                    f"player {i}'s model evaluated at own values of shape {np.shape(own.x)}, "
                    f"but the frozen opponent control has shape {width} at each node"
                )
            k = min(grid.node_index(t), last)
            if i == 1:
                return fn2(t, law, own, own.u, opponent[k])
            return fn2(t, law, own, opponent[k], own.u)

        return fn

    mine = {name: getattr(game, f"{name}_{i}") for name in _PLAYER_FIELDS}
    mine["running_cost"] = lift(mine["running_cost"])
    # the own control's slot becomes v, the frozen control's is dropped; a
    # partial constant in the state may be read at any shape, so unchecked
    own_slot, frozen_slot = f"v{i}", f"v{3 - i}"
    blocks = {
        coef: {("v" if slot == own_slot else slot): lift(fn2, checked=False)
               for slot, fn2 in game.partials.get(name, {}).items() if slot != frozen_slot}
        for coef, name in zip(_COEF_KEYS, ("drift", "diffusion", "driver", f"running_cost_{i}"))
    }
    return ControlModel(
        drift=lift(game.drift),
        diffusion=lift(game.diffusion),
        driver=lift(game.driver),
        terminal_map=game.terminal_map,
        partials={coef: block for coef, block in blocks.items() if block},
        terminal_slope=game.terminal_slope,
        initial=game.initial,
        coupled=game.coupled,
        **mine,
    )


def _player(game: GameModel, i: int, u1: np.ndarray, u2: np.ndarray, grid: TimeGrid):
    """Player ``i``'s reduction at the control arrays (u1, u2): the
    :func:`induced_model` with the opponent frozen, and the player's own
    control."""
    opponent, own = (u2, u1) if i == 1 else (u1, u2)
    return induced_model(game, i, opponent, grid), own


# ======================================================================
# Best response
# ======================================================================


def best_response(
    game: GameModel,
    i: int,
    controls,
    grid: TimeGrid,
    noise: BrownianPaths,
    steps: int = 20,
    state: Optional[SolutionTriple] = None,
):
    """Player ``i``'s approximate best response to the frozen opponent.

    Runs up to ``steps`` iterations of
    :func:`mfcontrol.smp_control.projected_gradient_descent` on the
    induced single-player model, starting from the player's current
    control, with the descent's default Armijo parameters and a fixed
    projected-gradient tolerance ``grad_tol=1e-8``.  The first Armijo
    search starts at ``eta0`` (0.5); each later one at the
    Barzilai-Borwein step of the last accepted move, at most twice that
    move's step.  On ``lq_game(coupling=0.2)`` that step is about 0.34
    for player 1 and 0.99 for player 2: a fixed 0.5 overshoots the first
    player's and takes half steps on the second's.  The descent ends
    early, with status ``"resolved"``, once its cost changes fall below
    the paired Monte Carlo resolution (two consecutive rejected trials,
    or two consecutive accepted steps, whose paired change is within
    three standard errors of zero), so near the equilibrium a response
    costs a few state solves instead of a search down to the descent's
    minimum step.
    ``state`` is the shared state at ``controls`` when the caller has it
    (the descent solves it otherwise).  Returns ``(control, history)`` as
    the descent does; a zero own-control gradient returns the starting
    control unchanged.
    """

    model, own = _player(game, i, *_pair(controls, grid, noise.particles), grid)
    return projected_gradient_descent(
        model, own, grid, noise, steps=steps, grad_tol=1e-8, state=state
    )


# ======================================================================
# Equilibrium certification
# ======================================================================


def deviation_test(
    game: GameModel,
    controls,
    grid: TimeGrid,
    noise: BrownianPaths,
    n_deviations: int = 50,
    radius: float = _PROFILE_RADIUS,
    seed: int = 0,
    state: Optional[SolutionTriple] = None,
) -> dict:
    """Sampled unilateral deviations must not beat either player.

    For each player, ``n_deviations`` random admissible profile
    deviations of their own control (opponent held fixed) are priced by
    the single-player paired sampler on :func:`induced_model`: each
    re-solves the shared state, warm-started from the state at
    ``controls``, and compares costs particle by particle on the common
    noise.  Player 2's draws continue player 1's stream.  A deviation
    clears when mean(cost change) + 3*SE >= 0; the per-player summary
    records the minimum sampled cost change and the worst margin, and the
    test passes when every deviation of both players clears.  ``state``
    is the shared state at ``controls`` when the caller has it, as
    [M+1, N] paths (solved there otherwise).  ``n_deviations < 1``, or a
    ``radius`` that is not finite and > 0, raise :class:`ConfigError`.
    """

    _check_sampling(n_deviations, radius)
    u1, u2 = _pair(controls, grid, noise.particles)
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x6A3E_DE7))
    reductions = {i: _player(game, i, u1, u2, grid) for i in (1, 2)}
    base_state = _state_at(*reductions[1], grid, noise, state)
    players = {}
    for i, (model, own) in reductions.items():
        report = _paired_deviations(
            model, own, base_state, grid, noise, rng, n_deviations, radius
        )
        players[i] = {
            "min_cost_change": min(rec["cost_delta"] for rec in report.records),
            "worst_margin": report.worst_margin,
            "worst_index": report.worst_index,
            "n_deviations": n_deviations,
            "passed": report.passed,
        }
    return {
        "passed": bool(players[1]["passed"] and players[2]["passed"]),
        "player_1": players[1],
        "player_2": players[2],
    }


@dataclass
class NashResult:
    """Outcome of the damped best-response search.

    ``residuals`` are both players' worst sampled first-order pairings
    <grad_i, v - u_i> at the final pair and ``epsilons`` the matching
    acceptance tolerances (three standard errors of each player's cost
    estimate).  ``status`` is ``"converged"``, ``"oscillation"``, or
    ``"rounds_exhausted"``; ``deviation`` holds the unilateral-deviation
    summary when certification ran, and ``inconsistent`` flags
    disagreement between the residual and deviation certificates.  Each
    ``history`` row also holds both players' best-response descent
    histories (``response_1``, ``response_2``); a descent's last record
    carries its stop: ``"converged"``, ``"resolved"`` (cost changes below
    the paired Monte Carlo resolution) or ``"stagnated"``, and no status
    when it used all its steps.  Summing their ``backtracks`` gives the
    rejected Armijo trials of the run.
    """

    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)
    residuals: Tuple[float, float]
    epsilons: Tuple[float, float]
    status: str
    converged: bool
    rounds: int
    history: List[dict] = field(repr=False)
    deviation: Optional[dict] = None
    inconsistent: bool = False

    def __post_init__(self):
        if not self.history:
            raise ConfigError("NashResult requires a non-empty history")
        if not all(np.isfinite(r) for r in self.residuals):
            raise ConfigError(
                f"non-finite residuals in NashResult: {self.residuals}"
            )

    def residual_table(self) -> List[dict]:
        """Per-round residual rows, ready for CSV serialization."""
        return [
            {
                "round": h["round"],
                "residual_1": h["residual_1"],
                "residual_2": h["residual_2"],
                "eps_1": h["eps_1"],
                "eps_2": h["eps_2"],
                "move_1": h["move_1"],
                "move_2": h["move_2"],
            }
            for h in self.history
        ]

    def to_dict(self) -> dict:
        """JSON-ready summary (controls excluded: they are arrays)."""
        return {
            "status": self.status,
            "converged": self.converged,
            "rounds": self.rounds,
            "residuals": list(self.residuals),
            "epsilons": list(self.epsilons),
            "inconsistent": self.inconsistent,
            "deviation": self.deviation,
            "history": self.residual_table(),
        }


def nash_iterate(
    game: GameModel,
    controls0,
    grid: TimeGrid,
    noise: BrownianPaths,
    rounds: int = 20,
    damping: float = 0.5,
    br_steps: int = 10,
    n_trials: int = 16,
    trial_radius: float = _PROFILE_RADIUS,
    n_deviations: int = 50,
    seed: int = 0,
) -> NashResult:
    """Search for an equilibrium pair by damped simultaneous best
    responses, then certify or report why not.

    Each round computes both players' best responses against the
    round-start profile (the two subproblems are independent and could
    run concurrently) and blends them in with factor ``damping``.  The
    shared state solved at the blended pair serves both residuals and the
    deviation test of its round, and both descents of the next round start
    from it, so only the first round's descents solve their start states.
    After the blend, each player's first-order residual -- the minimum
    sampled pairing <grad_i, v - u_i> over ``n_trials`` admissible profile
    perturbations -- is compared against that player's Monte Carlo
    tolerance of three standard errors of their cost estimate plus the
    numerical-zero floor ``_NUMERICAL_ZERO`` = 1e-6 (a player whose cost
    estimate carries no sampling noise, e.g. pure deterministic tracking,
    would otherwise face a zero tolerance against the descent's truncation
    residual).
    Once both residuals clear, the unilateral :func:`deviation_test`
    runs as the second, sharper certificate (paired sampling cancels
    most of the common-noise cost variance, so its error bars are much
    tighter than the residual tolerance).  Certification requires both:
    if sampled deviations still beat a residual-certified pair, the
    rounds continue.  The loop ends when a pair passes both tests
    (``"converged"``), when the worst outstanding violation -- residual
    or deviation margin, whichever currently binds -- has not improved
    over five consecutive rounds (``"oscillation"``: best-response
    dynamics may cycle; there is no convergence guarantee to invoke), or
    when ``rounds`` runs out.  A run that ends residual-certified but
    deviation-refuted is flagged ``inconsistent`` instead of trusted.

    Returns
    -------
    NashResult
        Controls, final residuals and tolerances, per-round history
        (including both descent histories per round), status, and the
        deviation summary when certification ran.  Bad ``rounds``,
        ``damping``, ``br_steps``, ``n_trials``, ``n_deviations`` or
        ``trial_radius`` raise :class:`ConfigError` before any round; the
        counts must be integers >= 1.
    """

    _check_cap("rounds", rounds, 1)
    _check_fraction("damping", damping)
    _check_cap("br_steps", br_steps, 1)
    _check_sampling(n_trials, trial_radius)
    _check_sampling(n_deviations, trial_radius)
    u1, u2 = _pair(controls0, grid, noise.particles)
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x6A3E_17E))

    def residual_and_eps(model, own, state):
        # drawn one at a time as the residual reads them, in the same order
        trials = (_projected(model, own + _profile(grid, rng, trial_radius))
                  for _ in range(n_trials))
        res = variational_inequality_residual(model, own, trials, grid, noise, state=state)
        _, se = _mean_se(_per_particle_cost(model, own, state, grid))
        eps = _RESOLUTION_SES * se + _NUMERICAL_ZERO
        return res, eps

    history: List[dict] = []
    status = "rounds_exhausted"
    r1 = r2 = e1 = e2 = np.nan
    violations: List[float] = []
    last_dev = None
    resid_clear = False
    state = None  # the shared state at (u1, u2), once a round has solved it
    for rnd in range(rounds):
        b1, h1 = best_response(game, 1, (u1, u2), grid, noise, steps=br_steps, state=state)
        b2, h2 = best_response(game, 2, (u1, u2), grid, noise, steps=br_steps, state=state)
        move1 = _rms(b1 - u1) * damping
        move2 = _rms(b2 - u2) * damping
        u1 = (1.0 - damping) * u1 + damping * b1
        u2 = (1.0 - damping) * u2 + damping * b2
        reductions = {i: _player(game, i, u1, u2, grid) for i in (1, 2)}
        # one shared state at the blended pair serves both residuals
        state = solve_state(*reductions[1], grid, noise)
        r1, e1 = residual_and_eps(*reductions[1], state)
        r2, e2 = residual_and_eps(*reductions[2], state)
        history.append(
            {
                "round": rnd, "residual_1": r1, "residual_2": r2,
                "eps_1": e1, "eps_2": e2, "move_1": move1, "move_2": move2,
                "response_1": h1, "response_2": h2,
            }
        )
        viol = max(-(r1 + e1), -(r2 + e2), 0.0)
        resid_clear = viol == 0.0
        if resid_clear:
            last_dev = deviation_test(
                game, (u1, u2), grid, noise, n_deviations=n_deviations,
                radius=trial_radius, seed=seed, state=state,
            )
            if last_dev["passed"]:
                violations.append(0.0)
                status = "converged"
                break
            # the sharper paired certificate still finds an improving
            # unilateral deviation: keep iterating on its margin
            viol = -min(
                last_dev["player_1"]["worst_margin"],
                last_dev["player_2"]["worst_margin"],
            )
        violations.append(viol)
        if len(violations) >= 5 and all(
            violations[k] >= violations[k - 1] - 1e-15
            for k in range(-4, 0)
        ):
            status = "oscillation"
            break

    # a round whose residuals clear always runs the deviation test
    converged = status == "converged"
    deviation = last_dev if resid_clear else None
    inconsistent = resid_clear and not converged
    return NashResult(
        u1=u1, u2=u2,
        residuals=(float(r1), float(r2)),
        epsilons=(float(e1), float(e2)),
        status=status, converged=converged, rounds=len(history),
        history=history, deviation=deviation, inconsistent=inconsistent,
    )
