"""Stochastic-maximum-principle control for mean-field FBSDE systems.

The controlled state follows the coupled system

    dX_t  =  b(t, law, X, Y, Z, u) dt + sigma(t, law, X, Y, Z, u) dW_t
    -dY_t =  f(t, law, X, Y, Z, u) dt - Z_t dW_t,   Y_T = Phi(X_T),

and the control problem minimizes

    J(u) = E[ integral of law-averaged h(t, law, X, Y, Z, u) dt ]
         + E[ g(X_T) ] + E[ gamma(Y_0) ].

This module provides the first-order machinery around that problem: the
Hamiltonian H = b p + sigma q - f Q + h, the adjoint system (p, q, Q)
written as H's transposed state partials in the forward-monotone variables
(-Q, p, q) and its solver, the per-node gradient process E'[H_v] from the
same partial evaluator, the linearized (variational) state response to a
control direction, projected gradient descent with Armijo backtracking
(stopped once its paired cost changes fall below Monte Carlo resolution), a
variational-inequality residual over trial controls, a discrete duality
(integration-by-parts) defect, and a convexity/minimality sufficiency
check.  The paired cost-deviation sampler behind both the single-player
deviation check (:mod:`mfcontrol.lq_examples`) and the game's unilateral
deviation test (:mod:`mfcontrol.games`, one induced model per player)
lives here too, with the per-particle cost it compares.

Each of the three systems -- state, adjoint, variational -- is written
once, as one FBSDE, and the model's ``coupled`` flag chooses only the
solver: one Euler pass forward and one regression pass backward when b and
sigma read only the x and u slots, the homotopy continuation otherwise.

Law arguments are statistics of the ensemble (empirical means), so every
law-coupling linearizes to "coefficient times mean of the perturbation".
The adjoint realizes the exact transpose of that pattern: a mean-coupled
term c(theta_i) * mean(delta) transposes to mean_j[c(theta_j) * w_j]
broadcast to every particle.  Keeping the discrete adjoint an exact
transpose of the discrete linearization is what makes the gradient agree
with common-noise finite differences of the cost to well inside one
percent on the linear-quadratic reference fixtures.

Controls are open-loop per particle: arrays [M, N] (scalars and [M]
arrays broadcast), adapted by construction since node k values feed only
the step from node k.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    Coefficient,
    ConfigError,
    StateView,
    TerminalMap,
    TimeGrid,
    _broadcast,
    _check_cap,
    _check_nonneg,
    _check_paths,
    _check_tol,
    _mean,
    _value,
    view_means,
)
from mfcontrol.forward_mv import (
    DEFAULT_GUARD,
    ForwardModel,
    Initial,
    _check_guard,
    _views,
    simulate_forward,
)
from mfcontrol.hypothesis_check import UniformPairSampler, _atom_pairing, check_convexity
from mfcontrol.mf_bsde import BackwardModel, _terminal_values, solve_mf_bsde
from mfcontrol.fbsde_solver import (
    _RETRYABLE,
    ContinuationSchedule,
    CoupledModel,
    SolutionTriple,
    _coefficients,
    solve_continuation,
    solve_picard,
)

__all__ = [
    "ControlModel",
    "AdjointTriple",
    "VariationalTriple",
    "SufficiencyReport",
    "identity_projection",
    "box_projection",
    "as_control",
    "solve_state",
    "solve_adjoint",
    "hamiltonian",
    "solve_variational",
    "smp_gradient",
    "cost",
    "projected_gradient_descent",
    "variational_inequality_residual",
    "duality_gap",
    "check_sufficiency",
]

#: coefficient names that may carry partial derivatives
_COEF_KEYS = ("drift", "diffusion", "driver", "running_cost")

#: differentiation slots: three law statistics, three own values, control
_SLOT_KEYS = ("law_x", "law_y", "law_z", "x", "y", "z", "v")

#: the slots a decoupled model's drift and diffusion must not read
_YZ_SLOTS = ("law_y", "y", "law_z", "z")

#: Monte Carlo resolution: a mean within this many standard errors of zero is unresolved
_RESOLUTION_SES = 3.0

#: the numerical zero under a sampled tolerance (a noise-free cost has SE 0)
_NUMERICAL_ZERO = 1e-6


def identity_projection(control: np.ndarray) -> np.ndarray:
    """Projection onto an unconstrained action space (the identity)."""
    return control


def box_projection(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Elementwise projection onto the box [lo, hi]."""
    if not lo < hi:
        raise ConfigError(f"box bounds must satisfy lo < hi, got [{lo}, {hi}]")

    def project(control: np.ndarray) -> np.ndarray:
        return np.clip(control, lo, hi)

    return project


def _check_partials(partials: Mapping, coefs: tuple, slots: tuple, coupled: bool) -> None:
    """Every key of a ``partials`` table names one of ``coefs`` and every
    inner key one of ``slots``, and a decoupled model (``coupled`` False)
    declares no ``drift`` or ``diffusion`` partial in a y or z slot
    (:class:`ConfigError` names the first entry that breaks a rule)."""
    for name, block in partials.items():
        if name not in coefs:
            raise ConfigError(f"unknown coefficient {name!r} in partials; expected one of {coefs}")
        for slot in block:
            if slot not in slots:
                raise ConfigError(
                    f"unknown slot {slot!r} in partials[{name!r}]; expected one of {slots}"
                )
            if not coupled and name in ("drift", "diffusion") and slot in _YZ_SLOTS:
                raise ConfigError(
                    f"partials[{name!r}][{slot!r}] contradicts coupled=False: "
                    f"a decoupled {name} reads only the x and control slots"
                )


@dataclass(frozen=True)
class ControlModel:
    """Controlled mean-field FBSDE plus cost structure and action set.

    Coefficients are vectorized ``(t, law, own) -> array [N]`` with the
    control read from ``own.u`` (its ensemble mean sits in ``law.u``).
    Every callable's value -- coefficient, partial, cost, slope, terminal
    map, projection -- is read by the output contract of
    :mod:`mfcontrol.core`: a float or an array of the expected shape, any
    other shape a :class:`ConfigError` naming the callable.
    ``coupled=False`` declares that ``drift``/``diffusion`` read only the
    x and u slots, which unlocks the sequential solve of the state,
    adjoint and variational systems; a ``partials`` entry of ``drift`` or
    ``diffusion`` in a y or z slot contradicts it (:class:`ConfigError`).

    ``partials`` supplies closed-form first derivatives: an outer key per
    coefficient ("drift", "diffusion", "driver", "running_cost") and an
    inner key per slot ("law_x", "law_y", "law_z", "x", "y", "z", "v");
    absent entries are identically zero.  Partials use the same
    ``(t, law, own)`` signature as the coefficients; a partial that is
    constant in the state may return a float.

    ``project`` must be idempotent; a control u is admissible when
    ``project(u) == u`` elementwise.
    """

    drift: Coefficient
    diffusion: Coefficient
    driver: Optional[Coefficient]
    terminal_map: TerminalMap
    running_cost: Coefficient
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    initial_cost: Callable[[np.ndarray], np.ndarray]
    partials: Mapping[str, Mapping[str, Coefficient]]
    terminal_slope: Callable[[np.ndarray], np.ndarray]
    terminal_cost_slope: Callable[[np.ndarray], np.ndarray]
    initial_cost_slope: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray] = identity_projection
    initial: Initial = 0.0
    coupled: bool = False

    def __post_init__(self):
        _check_partials(self.partials, _COEF_KEYS, _SLOT_KEYS, self.coupled)


@dataclass(frozen=True)
class AdjointTriple:
    """Adjoint processes: backward pair (p, q) and forward multiplier Q.

    All arrays [M+1, N].  By construction ``Q[0] = -gamma_y(Y_0)`` and
    ``p[M] = g_x(X_M) - Phi_x(X_M) Q[M]``.  ``warning`` carries the
    message of a failed monotonicity probe when certification was
    requested (``None`` otherwise).
    """

    p: np.ndarray
    q: np.ndarray
    Q: np.ndarray
    warning: Optional[str] = None


@dataclass(frozen=True)
class VariationalTriple:
    """Linearized state response (k, m, n) to a control direction.

    Arrays [M+1, N]; ``k[0] = 0`` and ``m[M] = Phi_x(X_M) k[M]``.  Exactly
    linear in the direction for fixed noise.
    """

    k: np.ndarray
    m: np.ndarray
    n: np.ndarray


# ======================================================================
# Control arrays and admissibility
# ======================================================================


def as_control(u, grid: TimeGrid, particles: int) -> np.ndarray:
    """Normalize a control to an open-loop array [M, N].

    Accepts a scalar (constant policy), an [M] array (deterministic in
    time), an [M, 1] column, or a full [M, N] array, all finite
    (:class:`ConfigError` names the first non-finite node and particle).
    A float [M, N] array is returned as it is, not copied; the others
    become a fresh array.
    """
    arr = np.asarray(u, dtype=float)
    m = grid.steps
    if arr.shape not in ((), (m,), (m, 1), (m, particles)):
        raise ConfigError(
            f"control has shape {arr.shape}; expected scalar, ({m},), ({m}, 1) or ({m}, {particles})"
        )
    finite = np.isfinite(arr)
    if not finite.all():
        # a scalar or a column holds the same value for every particle
        node, particle = (*np.argwhere(~finite)[0], 0, 0)[:2]
        value = arr.flat[np.argmin(finite)]
        raise ConfigError(f"control is not finite at node {node}, particle {particle}: {value}")
    if arr.shape == (m, particles):
        return arr
    return np.broadcast_to(arr[:, None] if arr.ndim == 1 else arr, (m, particles)).copy()


def _projected(model: ControlModel, v: np.ndarray) -> np.ndarray:
    """``model.project(v)`` read as a control of ``v``'s shape (a float
    fills it, :func:`mfcontrol.core._broadcast`)."""
    return _broadcast("project", model.project(v), v.shape)


def _require_admissible(model: ControlModel, u: np.ndarray) -> None:
    if model.project is identity_projection:  # as_control made u finite, so it is fixed
        return
    if not np.allclose(_projected(model, u), u, rtol=0.0, atol=1e-9):
        raise ConfigError("control is not admissible: projection moves it")


# ======================================================================
# Frozen-trajectory evaluation cache
# ======================================================================


class _FrozenPath:
    """Coefficient partials along a frozen (state, control) trajectory,
    compiled per node into the forms that the two evaluators run.

    :meth:`transposed` is the one evaluator of the Hamiltonian's partials
    H_s = E'[c_law w] + c w summed over the coefficients: the adjoint's
    coefficients are H's partials in the state slots x, y, z, the gradient
    its partial in the control slot v.  :meth:`linearized` is the
    variational system's linearization of one coefficient.

    The first call at a node compiles its form: the declared partials it
    reads, each evaluated once and read by the output contract (a float or
    an array of the ensemble's shape, :func:`mfcontrol.core._value`),
    paired with the position of the multiplier it scales.  Undeclared
    partials (identically zero) are left out.  A transposed form is cached
    under (node, slot, term names) and a linearized one under (node,
    coefficient), so a different term list never reads another's form.
    Every later call at the node -- each sweep of a coupled solve, the
    predictor and the corrector of a sequential one -- does only the
    left-to-right arithmetic.
    """

    def __init__(self, model: ControlModel, u: np.ndarray, state: SolutionTriple, grid: TimeGrid):
        self.u = u
        self.state = state
        self.grid = grid
        self._shape = state.x.shape[1:]
        skip = "driver" if model.driver is None else None
        self._fns = {
            (name, slot): fn
            for name, block in model.partials.items() if name != skip
            for slot, fn in block.items()
        }
        self._views: dict = {}
        self._transposed: dict = {}
        self._linearized: dict = {}

    def views(self, k: int):
        got = self._views.get(k)
        if got is None:
            got = self._views[k] = _views(self.state, k, self.u)
        return got

    def _partial(self, name: str, slot: str, k: int):
        """Partial of coefficient ``name`` in ``slot`` at node k: a float, an
        array of the ensemble's shape, or ``None`` when undeclared."""
        fn = self._fns.get((name, slot))
        if fn is None:
            return None
        own, law = self.views(k)
        return _value(f"partials[{name!r}][{slot!r}]", fn(k * self.grid.dt, law, own), self._shape)

    def transposed(self, k: int, slot: str, names: tuple, ws: tuple) -> Union[float, np.ndarray]:
        """The Hamiltonian's partial in ``slot`` at node k: the left-to-right
        sum over the coefficients ``names`` and their multipliers ``ws`` of
        E'[c_law w] + c w, with c the partial of the coefficient in
        ``slot``; undeclared partials are skipped."""
        key = (k, slot, names)
        form = self._transposed.get(key)
        if form is None:
            form = self._transposed[key] = []
            for j, name in enumerate(names):
                c_law, c = self._partial(name, "law_" + slot, k), self._partial(name, slot, k)
                if c_law is not None or c is not None:
                    form.append((c_law, c, j))
        total = None
        for c_law, c, j in form:
            w = ws[j]
            if c_law is not None:
                prod = c_law * w
                if type(prod) is not np.ndarray:  # E' of a constant: the mean of N copies
                    prod = np.broadcast_to(prod, self._shape)
                mean = _mean(prod)
                total = mean if total is None else total + mean
            if c is not None:
                total = c * w if total is None else total + c * w
        return 0.0 if total is None else total

    def linearized(self, k: int, name: str, law: StateView, own: StateView, direction):
        """Linearization of coefficient ``name``: the left-to-right sum of
        c_law * law + c * own over the x, y, z slots plus c_v * direction;
        undeclared partials skipped, and only the slots they scale read."""
        key = (k, name)
        form = self._linearized.get(key)
        if form is None:
            form = self._linearized[key] = tuple(
                (c, slot.startswith("law_"), slot.removeprefix("law_"))
                for slot in ("law_x", "x", "law_y", "y", "law_z", "z", "v")
                if (c := self._partial(name, slot, k)) is not None
            )
        total = None
        for c, on_law, var in form:
            w = direction if var == "v" else getattr(law if on_law else own, var)
            total = c * w if total is None else total + c * w
        return 0.0 if total is None else total


def _pairing(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Time-quadrature inner product E[ sum_k a_k b_k dt ] of [M, N] arrays."""
    return float(np.mean(np.sum(a * b, axis=0)) * grid.dt)


def _bb_step(grid: TimeGrid, s: np.ndarray, y: np.ndarray, last: float,
             eta0: float, min_eta: float) -> float:
    """First Armijo trial after an accepted move: the Barzilai-Borwein step
    ``<s, s> / <s, y>`` of the move ``s`` and its gradient change ``y``,
    clamped to ``[min_eta, 2 * last]`` (``last`` the move's step), or
    ``eta0`` when ``<s, y> <= 0`` or the ratio is not finite."""
    sy = _pairing(grid, s, y)
    if not sy > 0.0:
        return eta0
    step = _pairing(grid, s, s) / sy
    if not np.isfinite(step):
        return eta0
    return min(max(step, min_eta), 2.0 * last)


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


# ======================================================================
# State equation
# ======================================================================


def _solve_system(
    model: Union[CoupledModel, ControlModel],
    coupled: bool,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule],
    warm: Optional[SolutionTriple],
    control: Optional[np.ndarray] = None,
    conditioning: Optional[np.ndarray] = None,
    x: Optional[np.ndarray] = None,
) -> SolutionTriple:
    """Solve one of the control problem's FBSDE systems; ``coupled``
    chooses only the solver.  Only the model's ``drift``, ``diffusion``,
    ``driver``, ``terminal_map`` and ``initial`` are read, so a
    :class:`ControlModel` is solved as it is.

    A ``warm`` triple whose arrays are not [M+1, N] raises
    :class:`ConfigError` before either route runs.  A decoupled system
    (drift and diffusion free of the y and z slots, which stay ``None`` in
    the forward pass) is solved exactly by one Euler pass for X and one
    backward pass for (Y, Z), regressed on ``conditioning`` when given and
    on X otherwise; ``warm`` is unused.  A decoupled system whose forward
    path is known without the Euler pass (the adjoint's constant X~) passes
    it as ``x``.

    A coupled system is solved by the continuation, which is what makes it
    converge from a cold start; from ``warm`` only its final polish is
    needed: the same Anderson-accelerated :func:`solve_picard` call
    (``inner_tol``, ``polish_max_iter``, ``accel_memory``), so both routes
    land on the same discrete fixed point.  The cold route hands its rungs
    to that polish at a loose tolerance; the polish's own ``inner_tol``
    sets where it lands.  If the warm pass fails with an error the
    continuation retries on, the continuation runs from its seed.  With
    ``polish_max_iter == 0`` the cold route returns the unpolished homotopy
    solution, run to ``picard_tol``, which a warm pass would not reproduce,
    so ``warm`` is unused.  Both routes run the solvers' default regression basis and
    divergence guard.
    """
    if warm is not None:
        _check_paths("warm start", (warm.x, warm.y, warm.z), (grid.steps + 1, noise.particles))
    if not coupled:
        if x is None:
            fwd = ForwardModel(drift=model.drift, diffusion=model.diffusion, initial=model.initial)
            x = simulate_forward(fwd, grid, noise, control=control)
        y, z = solve_mf_bsde(
            BackwardModel(driver=model.driver, terminal=model.terminal_map), grid, noise, x,
            control=control, carrier=conditioning,
        )
        return SolutionTriple(x=x, y=y, z=z)
    sched = schedule or ContinuationSchedule()
    if warm is not None and sched.polish_max_iter > 0:
        try:
            sol, _ = solve_picard(
                model, grid, noise, tol=sched.inner_tol, max_iter=sched.polish_max_iter,
                initial_guess=warm, accel_memory=sched.accel_memory, control=control,
                conditioning=conditioning,
            )
            return sol
        except _RETRYABLE:
            pass
    sol, _ = solve_continuation(
        model, grid, noise, schedule=schedule, control=control, conditioning=conditioning,
    )
    return sol


def solve_state(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule] = None,
    warm: Optional[SolutionTriple] = None,
) -> SolutionTriple:
    """Solve the controlled state system for an admissible control.

    The system is written once, with the control threaded through every
    coefficient's ``own.u`` slot; ``model.coupled`` chooses only the
    solver.  Decoupled models are solved sequentially: an Euler particle
    pass for X, then a regression backward pass for (Y, Z).  Coupled
    models go to the homotopy continuation solver.

    Parameters
    ----------
    model : ControlModel
    u : scalar, [M], [M, 1] or [M, N]
        Admissible control (``project`` must leave it fixed).
    grid, noise
        Time grid and matching Brownian increment block.
    schedule : ContinuationSchedule, optional
        Coupled-route solver schedule.
    warm : SolutionTriple, optional
        State solution at a nearby control on the same noise.  A coupled
        solve then runs only the continuation's polish from there (an
        Anderson-accelerated decoupling iteration to ``inner_tol``) and
        falls back to the full continuation if that fails to converge,
        diverges or hits a failed regression.  ``warm`` is unused for
        decoupled models, which the sequential pass solves exactly, and
        when ``schedule.polish_max_iter == 0``, where the cold route
        returns the unpolished homotopy solution; its arrays must be
        [M+1, N] on every route (:class:`ConfigError` otherwise).

    Returns
    -------
    SolutionTriple
        Arrays [M+1, N] for (X, Y, Z).
    """
    u = as_control(u, grid, noise.particles)
    _require_admissible(model, u)
    return _solve_system(model, model.coupled, grid, noise, schedule, warm, control=u)


def _check_state(state: SolutionTriple, grid: TimeGrid, noise: BrownianPaths) -> None:
    _check_paths("state", (state.x, state.y, state.z), (grid.steps + 1, noise.particles))


def _state_at(model: ControlModel, u, grid: TimeGrid, noise: BrownianPaths,
              state: Optional[SolutionTriple],
              schedule: Optional[ContinuationSchedule] = None) -> SolutionTriple:
    """The state at ``u``: the caller's ``state``, whose paths must be
    [M+1, N] (:class:`ConfigError` naming ``state`` otherwise), or, when it
    is ``None``, a fresh solve."""
    if state is None:
        return solve_state(model, u, grid, noise, schedule)
    _check_state(state, grid, noise)
    return state


# ======================================================================
# Adjoint system
# ======================================================================


def _h5_probe(model: CoupledModel, grid: TimeGrid, seed: int, n: int, trials=8, radius=1.0):
    """Empirical forward-monotonicity (H5) probe of an assembled adjoint.

    Draws random ensemble perturbation pairs (sized to the trajectory
    ensemble so frozen coefficient arrays broadcast) at a few nodes, each
    with its ensemble means as its law, and averages the per-atom pairing
    <dF, du> of :func:`mfcontrol.hypothesis_check._atom_pairing` over the
    ensemble; (H5) requires it to be nonpositive.  Returns the smallest
    normalized -pairing observed.
    """
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0xAD01))
    sampler = UniformPairSampler(radius)
    m = grid.steps
    nodes = sorted({0, m // 3, (2 * m) // 3, m - 1})
    worst = np.inf
    for k in nodes:
        for _ in range(trials):
            a, b = sampler.draw(rng, 3, n), sampler.draw(rng, 3, n)
            atoms, sq = _atom_pairing(
                model, k * grid.dt, a.T, view_means(StateView(*a)), b.T, view_means(StateView(*b)),
            )
            worst = min(worst, -float(np.mean(atoms)) / float(np.mean(sq)))
    return worst


def solve_adjoint(
    model: ControlModel,
    u,
    state: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule] = None,
    certify: bool = False,
    warm: Optional[AdjointTriple] = None,
) -> AdjointTriple:
    """Solve the adjoint system (p, q, Q) along a solved trajectory.

    The adjoint is the Hamiltonian's transposed state partials, written
    once as one forward-monotone mean-field FBSDE in (X~, p, q) = (-Q, p, q):

        dX~ = H_y dt + H_z dW,   X~_0 = gamma_y(Y_0),
        -dp = H_x dt - q dW,     p_T = g_x(X_T) + Phi_x(X_T) X~_T,

    where each partial H_s = E'[c_law w] + c w is summed over the
    multipliers w of (driver, X~), (drift, p), (diffusion, q) and
    (running_cost, 1), so a mean coupling c(theta_i) * mean(delta) of the
    state linearization enters as its exact transpose mean_j[c(theta_j)
    w_j].  The sign change X~ = -Q turns the mirrored condition (H6) of
    (Q, p, q) into (H5), which the continuation needs.  ``model.coupled``
    chooses only the solver, as in :func:`solve_state` (for a decoupled
    model X~'s coefficients read only X~).  The backward passes regress on
    the state path, since the adjoint's data are functionals of it.  A
    decoupled model that declares no partial in a y, law_y, z or law_z slot
    has H_y = H_z = 0, so X~ stays at X~_0 on every path: X~ is X~_0
    broadcast to [M+1, N] and Q = -X~, with no Euler pass run (after node
    0 a -0.0 becomes +0.0, as the pass's x + 0.0 makes it).  X~_0 is still
    checked against the divergence guard.

    With ``certify=True`` an empirical (H5) probe runs on the assembled
    coupled adjoint before solving; a violation does not raise but is
    attached to the result's ``warning`` field.  Decoupled adjoints are
    solved sequentially and need no monotonicity, so the probe is skipped
    there.

    Parameters
    ----------
    model, u, grid, noise
        As in :func:`solve_state`; ``state`` must solve the state system
        for ``u`` on the same noise, as [M+1, N] paths
        (:class:`ConfigError` naming ``state`` otherwise).
    schedule : ContinuationSchedule, optional
        Coupled-route solver schedule, as in :func:`solve_state`.
    certify : bool
        Run the monotonicity probe (off by default).
    warm : AdjointTriple, optional
        Adjoint at a nearby control (or along a nearby state) on the same
        noise.  As in :func:`solve_state`, a coupled solve then runs only
        the continuation's polish from it, with the continuation as the
        fallback; it is unused for decoupled models (solved exactly by the
        sequential pass) and when ``schedule.polish_max_iter == 0``, and
        its arrays must be [M+1, N] on every route, as there.

    Returns
    -------
    AdjointTriple
    """
    u = as_control(u, grid, noise.particles)
    _check_state(state, grid, noise)
    path = _FrozenPath(model, u, state, grid)
    x_last, n = state.x[grid.steps], (noise.particles,)
    terminal_cost_slope = _value("terminal_cost_slope", model.terminal_cost_slope(x_last), n)
    terminal_slope = _value("terminal_slope", model.terminal_slope(x_last), n)
    x0 = _value("initial_cost_slope", model.initial_cost_slope(state.y[0]), n)

    def h_partial(slot):
        # the summation order fixes the result's bits: the driver adds its
        # X~ term last, the drift and the diffusion add theirs first
        if slot == "x":
            names = ("drift", "diffusion", "running_cost", "driver")
            return lambda t, law, own: path.transposed(
                grid.node_index(t), slot, names, (own.y, own.z, 1.0, own.x))
        names = ("driver", "drift", "diffusion", "running_cost")
        return lambda t, law, own: path.transposed(
            grid.node_index(t), slot, names, (own.x, own.y, own.z, 1.0))

    adj_model = CoupledModel(
        drift=h_partial("y"),
        diffusion=h_partial("z"),
        driver=h_partial("x"),
        terminal_map=lambda x_last: terminal_cost_slope + terminal_slope * x_last,
        initial=x0,
    )
    warning = None
    if certify and model.coupled:
        worst = _h5_probe(adj_model, grid, noise.seed, noise.particles)
        if worst < -1e-9:
            warning = f"adjoint monotonicity probe found pairing ratio {worst:.3e}"
    guess = None if warm is None else SolutionTriple(x=-warm.Q, y=warm.p, z=warm.q)
    x_tilde = None
    if not model.coupled and not any(slot in _YZ_SLOTS for _, slot in path._fns):
        x_tilde = np.empty((grid.steps + 1, noise.particles))
        x_tilde[0] = adj_model.initial
        _check_guard(x_tilde[0], 0, DEFAULT_GUARD)
        x_tilde[1:] = x_tilde[0] + 0.0  # the Euler step x + 0.0 * dt + 0.0 * dW
    sol = _solve_system(
        adj_model, model.coupled, grid, noise, schedule, guess, conditioning=state.x, x=x_tilde,
    )
    return AdjointTriple(p=sol.y, q=sol.z, Q=-sol.x, warning=warning)


def _adjoint_at(model: ControlModel, u, state: SolutionTriple, grid: TimeGrid,
                noise: BrownianPaths, adjoint: Optional[AdjointTriple]) -> AdjointTriple:
    """The adjoint along ``state``: the caller's ``adjoint``, whose paths
    must be [M+1, N] (:class:`ConfigError` naming ``adjoint`` otherwise),
    or, when it is ``None``, a fresh solve."""
    if adjoint is None:
        return solve_adjoint(model, u, state, grid, noise)
    _check_paths("adjoint", (adjoint.p, adjoint.q, adjoint.Q), (grid.steps + 1, noise.particles))
    return adjoint


# ======================================================================
# Hamiltonian
# ======================================================================


def hamiltonian(model: ControlModel, t, law, own, p, q, Q) -> np.ndarray:
    """Hamiltonian H = b p + sigma q - f Q + h at per-particle arguments.

    ``law``/``own`` are StateViews with the control in the u slots;
    (p, q, Q) are the multiplier values (arrays or scalars).  The result
    has the shape of ``own.x``, also where every term is a float.
    """
    shape = np.shape(own.x)
    b, s, f = _coefficients(model, t, law, own, shape)
    h = _value("running_cost", model.running_cost(t, law, own), shape)
    return _broadcast("hamiltonian", b * p + s * q - f * Q + h, shape)


# ======================================================================
# Variational (linearized state) system
# ======================================================================


def solve_variational(
    model: ControlModel,
    u,
    direction,
    state: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
) -> VariationalTriple:
    """Solve the linearized state system along a control direction.

    The triple (k, m, n) starts at ``k_0 = 0``, is driven by the frozen
    coefficient partials along (state, u) plus the direction terms
    (b_v, sigma_v, f_v) times the direction, and closes with
    ``m_T = Phi_x(X_T) k_T``.  Law couplings act through means of the
    perturbation, matching the statistics-form linearization, so the
    solve is exactly linear in the direction for fixed noise.  The system
    is written once; as in :func:`solve_state`, ``model.coupled`` chooses
    only the solver (one forward and one backward pass, or the
    continuation at its default schedule).  The backward passes regress on
    the state path, which must be [M+1, N] as in :func:`solve_adjoint`.
    """
    u = as_control(u, grid, noise.particles)
    d = as_control(direction, grid, noise.particles)
    _check_state(state, grid, noise)
    m_steps = grid.steps
    path = _FrozenPath(model, u, state, grid)
    slope = _value("terminal_slope", model.terminal_slope(state.x[m_steps]), (noise.particles,))

    def lin(name):
        def coef(t, law, own):
            k = grid.node_index(t)
            return path.linearized(k, name, law, own, d[min(k, m_steps - 1)])

        return coef

    var_model = CoupledModel(
        drift=lin("drift"),
        diffusion=lin("diffusion"),
        driver=lin("driver"),
        terminal_map=lambda k_last: slope * k_last,
        initial=0.0,
    )
    sol = _solve_system(var_model, model.coupled, grid, noise, None, None, conditioning=state.x)
    return VariationalTriple(k=sol.x, m=sol.y, n=sol.z)


# ======================================================================
# Cost and gradient
# ======================================================================


def cost(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
) -> float:
    """Monte Carlo cost J(u) = E[integral of h dt + g(X_T) + gamma(Y_0)]:
    the mean of :func:`_per_particle_cost`, the running cost integrated by
    left-endpoint quadrature.  The state is solved at ``u`` unless
    supplied, and a supplied one must be [M+1, N] paths."""
    u = as_control(u, grid, noise.particles)
    state = _state_at(model, u, grid, noise, state)
    return float(_per_particle_cost(model, u, state, grid).mean())


def smp_gradient(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
    adjoint: Optional[AdjointTriple] = None,
) -> np.ndarray:
    """Per-node cost gradient: the law-averaged Hamiltonian control slope.

    Solves the state and adjoint systems (unless supplied, as [M+1, N]
    paths) and evaluates

        grad[k, i] = b_v p + sigma_v q - f_v Q + h_v

    along the trajectory.  Its time-quadrature pairing with a direction
    equals the directional derivative of :func:`cost` under common noise;
    descent methods and the variational-inequality residual both consume
    it.

    Returns
    -------
    ndarray, shape [M, N]
    """
    u = as_control(u, grid, noise.particles)
    state = _state_at(model, u, grid, noise, state)
    adjoint = _adjoint_at(model, u, state, grid, noise, adjoint)
    path = _FrozenPath(model, u, state, grid)
    grad = np.empty((grid.steps, noise.particles))
    names = ("drift", "diffusion", "driver", "running_cost")
    for k in range(grid.steps):
        grad[k] = path.transposed(
            k, "v", names, (adjoint.p[k], adjoint.q[k], -adjoint.Q[k], 1.0))
    return grad


# ======================================================================
# Projected gradient descent
# ======================================================================


def projected_gradient_descent(
    model: ControlModel,
    u0,
    grid: TimeGrid,
    noise: BrownianPaths,
    steps: int = 20,
    eta0: float = 0.5,
    shrink: float = 0.5,
    slope: float = 1e-4,
    grad_tol: float = 0.0,
    min_eta: float = 1e-12,
    schedule: Optional[ContinuationSchedule] = None,
    state: Optional[SolutionTriple] = None,
):
    """Projected gradient descent on the control cost with Armijo
    backtracking, stopped at the cost's Monte Carlo resolution.

    Each iteration computes the gradient process, proposes
    ``Project(u - eta * grad)``, and shrinks the step by ``shrink`` until
    the common-noise cost satisfies the sufficient-decrease test
    ``J(candidate) <= J(u) - slope * <grad, u - candidate>``.  The first
    search starts at ``eta0``; every later one starts at the
    Barzilai-Borwein step ``<s, s> / <s, y>`` of the last accepted move,
    ``s = u_k - u_{k-1}`` and ``y = grad_k - grad_{k-1}`` in the
    time-quadrature pairing, clamped to ``[min_eta, 2 * last step]``, and
    at ``eta0`` again when ``<s, y> <= 0`` or the ratio is not finite
    (the spectral projected gradient: Barzilai & Borwein 1988, IMA J.
    Numer. Anal. 8; Birgin, Martinez & Raydan 2000, SIAM J. Optim. 10(4)).
    On a quadratic cost the BB step is the inverse curvature along the
    move, which a fixed ``eta0`` can miss by any factor.  J is the
    mean of the per-particle costs, and each trial is priced once: its
    per-particle change against the current iterate on the shared noise
    gives the paired change and its standard error (SE).  Because the
    noise is frozen, the cost is a deterministic function of the control,
    so the history is genuinely monotone.  Coupled solves are
    warm-started: every Armijo trial's state from the current state, and
    each iteration's adjoint from the previous iteration's.

    Near the optimum the SMP gradient matches the discrete cost only to
    O(dt) plus regression noise, so -grad stops being a descent direction
    there.  A paired change with ``|mean| <= 3 * SE`` is *unresolved*: the
    noise cannot tell it from zero.  One unresolved trial proves nothing
    (a step that overshoots to the minimum's mirror point changes the
    cost by about zero while half of it descends), so the descent ends
    with status ``"resolved"`` only after two in a row:

    * two consecutive rejected trials of one search are both unresolved
      (the search is below resolution); that iteration's record carries
      the status, and its ``backtracks`` count every rejected trial;
    * two consecutive accepted steps are both unresolved (progress is
      below resolution); both steps are recorded as accepted, and the
      stop gets a record of its own (``step`` 0, no trial).

    A model whose per-particle cost carries no noise has SE = 0, so only
    an exactly zero change is unresolved there.  The other statuses:
    ``"converged"`` when the projected-gradient residual clears
    ``grad_tol`` and ``"stagnated"`` when a search shrinks the step below
    ``min_eta``; both end the run without raising.

    Parameters
    ----------
    model, grid, noise
        Problem definition and frozen noise.
    u0
        Admissible starting control.
    steps : int
        Maximum iterations, an integer >= 1.
    eta0, shrink, slope : float
        Armijo parameters (first search's initial step, and the fallback
        of the Barzilai-Borwein start; backtrack factor; slope factor).
    grad_tol : float
        Stop when the projected-gradient residual
        ``rms(u - Project(u - eta0 * grad))`` falls to this level
        (0 disables the test).
    min_eta : float
        Step-size underflow threshold.
    schedule : ContinuationSchedule, optional
        Coupled-route solver schedule of the state and adjoint solves.
    state : SolutionTriple, optional
        The state at ``u0`` when the caller has it (solved there
        otherwise).

    A decoupled model (``model.coupled`` False) reads no warm start, so
    each iteration lets go of its state and adjoint once the gradient is
    formed; its Armijo search reads only the control, the gradient and the
    per-particle costs.

    The Armijo parameters must satisfy ``0 < shrink < 1``,
    ``0 < min_eta <= eta0`` with ``eta0`` finite, and ``0 <= slope < 1``
    (:class:`ConfigError` otherwise): any other choice can backtrack
    forever, try no step, or accept a cost increase.

    Returns
    -------
    (ndarray [M, N], list of dict)
        Final control and per-iteration history (iteration, cost,
        gradient norm, residual, accepted step, backtracks, and a status
        on the record that ends the run: ``"converged"``, ``"resolved"``
        or ``"stagnated"``).  A record without a status is an accepted
        step.
    """
    u = as_control(u0, grid, noise.particles)
    _require_admissible(model, u)
    _check_cap("steps", steps, 1)
    if not (0.0 < shrink < 1.0):
        raise ConfigError(f"shrink must lie in (0, 1), got {shrink}")
    if not (np.isfinite(eta0) and 0.0 < min_eta <= eta0):
        raise ConfigError(f"need 0 < min_eta <= eta0 < inf, got min_eta={min_eta}, eta0={eta0}")
    if not (0.0 <= slope < 1.0):
        raise ConfigError(f"slope must lie in [0, 1), got {slope}")
    state = _state_at(model, u, grid, noise, state, schedule)
    per = _per_particle_cost(model, u, state, grid)
    value = float(per.mean())
    history: list = []
    adjoint = None
    move = None  # (u_k - u_{k-1}, grad_{k-1}, step) of the last accepted step
    flat_steps = 0  # consecutive accepted steps with an unresolved change
    for it in range(steps):
        if flat_steps == 2:
            history.append(
                {"iteration": it, "cost": value, "step": 0.0, "backtracks": 0,
                 "status": "resolved"}
            )
            break
        adjoint = solve_adjoint(model, u, state, grid, noise, schedule=schedule, warm=adjoint)
        grad = smp_gradient(model, u, grid, noise, state=state, adjoint=adjoint)
        if not model.coupled:  # no warm start reads them again
            state = cand_state = adjoint = None
        residual = _rms(u - _projected(model, u - eta0 * grad))
        record = {
            "iteration": it,
            "cost": value,
            "grad_norm": _rms(grad),
            "residual": residual,
        }
        if grad_tol > 0.0 and residual <= grad_tol:
            record.update(step=0.0, backtracks=0, status="converged")
            history.append(record)
            break
        eta = eta0 if move is None else _bb_step(
            grid, move[0], grad - move[1], move[2], eta0, min_eta
        )
        backtracks = 0
        flat_trials = 0  # consecutive rejected trials with an unresolved change
        accepted = False
        while eta >= min_eta:
            candidate = _projected(model, u - eta * grad)
            decrease = slope * _pairing(grid, grad, u - candidate)
            cand_state = solve_state(model, candidate, grid, noise, schedule=schedule, warm=state)
            cand_per = _per_particle_cost(model, candidate, cand_state, grid)
            cand_value = float(cand_per.mean())
            change, se = _mean_se(cand_per - per)
            unresolved = abs(change) <= _RESOLUTION_SES * se
            if cand_value <= value - decrease:
                accepted = True
                break
            backtracks += 1
            cand_state = cand_per = None  # released before the next trial solves
            flat_trials = flat_trials + 1 if unresolved else 0
            if flat_trials == 2:
                break
            eta *= shrink
        record.update(step=eta if accepted else 0.0, backtracks=backtracks)
        if not accepted:
            record["status"] = "resolved" if flat_trials == 2 else "stagnated"
            history.append(record)
            break
        history.append(record)
        flat_steps = flat_steps + 1 if unresolved else 0
        move = (candidate - u, grad, eta)
        u, value, per, state = candidate, cand_value, cand_per, cand_state
    return u, history


# ======================================================================
# Optimality diagnostics
# ======================================================================


def variational_inequality_residual(
    model: ControlModel,
    u,
    trials: Iterable,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
) -> float:
    """Minimum over trial controls of the first-order pairing
    ``<grad, v - u>``; an optimum certifies with a residual that is
    nonnegative up to Monte Carlo tolerance.  ``trials`` may be any
    iterable, a generator included: the trials are read one at a time,
    the first before the gradient is solved, so an empty one raises
    :class:`ConfigError` before any solve."""
    u = as_control(u, grid, noise.particles)
    trials = iter(trials)
    try:
        first = next(trials)
    except StopIteration:
        raise ConfigError("need at least one trial control") from None
    grad = smp_gradient(model, u, grid, noise, state=state)
    best = np.inf
    for trial in itertools.chain((first,), trials):
        v = as_control(trial, grid, noise.particles)
        best = min(best, _pairing(grid, grad, v - u))
    return float(best)


def duality_gap(
    model: ControlModel,
    u,
    direction,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
) -> float:
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
    state = _state_at(model, u, grid, noise, state)
    var = solve_variational(model, u, d, state, grid, noise)
    lin = SolutionTriple(x=var.k, y=var.m, z=var.n)
    path = _FrozenPath(model, u, state, grid)
    m, n = grid.steps, (noise.particles,)
    g_x = _value("terminal_cost_slope", model.terminal_cost_slope(state.x[m]), n)
    gamma_y = _value("initial_cost_slope", model.initial_cost_slope(state.y[0]), n)
    lhs = float(np.mean(g_x * var.k[m])) + float(np.mean(gamma_y * var.m[0]))
    for k in range(m):
        own, law = _views(lin, k, None)
        lhs += grid.dt * float(np.mean(path.linearized(k, "running_cost", law, own, d[k])))
    return abs(lhs - _pairing(grid, smp_gradient(model, u, grid, noise, state=state), d))


@dataclass(frozen=True)
class SufficiencyReport:
    """Outcome of the convexity/minimality sufficiency check.

    ``convexity`` maps check names (terminal_cost, initial_cost,
    terminal_map, hamiltonian_<s>) to their midpoint-test reports;
    ``minimality_violations`` counts sampled (node, particle, trial)
    points where a trial control beat the candidate's Hamiltonian by
    more than ``slack``.
    """

    passed: bool
    convexity: dict
    minimality_violations: int
    worst_violation: Optional[dict]
    slack: float
    control_trials: int


def check_sufficiency(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
    adjoint: Optional[AdjointTriple] = None,
    n_samples: int = 20_000,
    control_trials: int = 32,
    radius: float = 10.0,
    slack: float = 1e-4,
    seed: int = 0,
) -> SufficiencyReport:
    """First-order sufficiency check for a candidate control.

    Runs midpoint convexity tests on the terminal cost, initial cost, and
    terminal map, and on the Hamiltonian as a function of the full
    (law, own, control) tuple at multiplier values sampled along the
    trajectory; then verifies pointwise Hamiltonian minimality of the
    candidate against projected random trial controls, with ``slack``
    absorbing solver-tolerance suboptimality of the candidate.  It needs
    integer ``n_samples`` and ``control_trials`` >= 1, a finite ``radius``
    > 0 and a finite ``slack`` >= 0 (:class:`ConfigError` otherwise, before
    any solve).
    """
    _check_cap("n_samples", n_samples, 1)
    _check_cap("control_trials", control_trials, 1)
    _check_nonneg("slack", slack)
    sampler = UniformPairSampler(radius=radius)
    u = as_control(u, grid, noise.particles)
    state = _state_at(model, u, grid, noise, state)
    adjoint = _adjoint_at(model, u, state, grid, noise, adjoint)
    boundary = {
        "terminal_cost": model.terminal_cost,
        "initial_cost": model.initial_cost,
        "terminal_map": lambda x: _terminal_values(model.terminal_map, x),
    }
    convexity = {
        name: check_convexity(
            lambda pts, fn=fn, name=name: _broadcast(name, fn(pts[:, 0]), (len(pts),)),
            dim=1, sampler=sampler, n_samples=n_samples, seed=seed + j,
        )
        for j, (name, fn) in enumerate(boundary.items())
    }
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5FF1C))
    m, n = grid.steps, noise.particles
    for s in range(4):
        k_s = int(rng.integers(0, m))
        i_s = int(rng.integers(0, n))
        t_s = k_s * grid.dt
        p_s, q_s, qq_s = (
            float(adjoint.p[k_s, i_s]),
            float(adjoint.q[k_s, i_s]),
            float(adjoint.Q[k_s, i_s]),
        )

        def ham_at(pts, t=t_s, p=p_s, q=q_s, qq=qq_s):
            law = StateView(x=pts[:, 0], y=pts[:, 1], z=pts[:, 2], u=pts[:, 6])
            own = StateView(x=pts[:, 3], y=pts[:, 4], z=pts[:, 5], u=pts[:, 6])
            return hamiltonian(model, t, law, own, p, q, qq)

        convexity[f"hamiltonian_{s}"] = check_convexity(
            ham_at, dim=7, sampler=sampler, n_samples=max(n_samples // 4, 1000),
            seed=seed + 10 + s,
        )

    def ham(k, control):  # the Hamiltonian at node k along the state
        own, law = _views(state, k, control)
        return hamiltonian(model, k * grid.dt, law, own, adjoint.p[k], adjoint.q[k], adjoint.Q[k])

    bases = [ham(k, u) for k in range(m)]  # the candidate's, shared by every trial
    violations = 0
    worst = None
    worst_gap = 0.0
    for _ in range(control_trials):
        v = _projected(model, sampler.draw(rng, m, n))
        for k in range(m):
            gap = bases[k] - ham(k, v)
            bad = gap > slack
            violations += int(np.sum(bad))
            if np.any(bad):
                i = int(np.argmax(gap))
                if gap[i] > worst_gap:
                    worst_gap = float(gap[i])
                    worst = {
                        "node": k,
                        "particle": i,
                        "gap": worst_gap,
                        "candidate": float(u[k, i]),
                        "trial": float(v[k, i]),
                    }
    passed = all(rep.passed for rep in convexity.values()) and violations == 0
    return SufficiencyReport(
        passed=passed,
        convexity=convexity,
        minimality_violations=violations,
        worst_violation=worst,
        slack=slack,
        control_trials=control_trials,
    )


# ======================================================================
# Paired deviation sampling
# ======================================================================


def _per_particle_cost(
    model: ControlModel, u: np.ndarray, state, grid: TimeGrid
) -> np.ndarray:
    """Per-particle cost contributions [N]: each particle's left-endpoint
    sum of h dt plus g(X_T) plus gamma(Y_0).  The one pricing rule of
    J(u): :func:`cost` is their mean.

    Statistics slots in the running cost are evaluated at the ensemble
    means, so the decomposition is exact for the mean; the paired
    standard errors computed from it treat those means as fixed, which
    is the standard plug-in approximation.
    """

    n = state.x.shape[1:]
    total = np.zeros(n)
    for k in range(grid.steps):
        own, law = _views(state, k, u)
        total += grid.dt * _value("running_cost", model.running_cost(k * grid.dt, law, own), n)
    total = total + _value("terminal_cost", model.terminal_cost(state.x[-1]), n)
    total = total + _value("initial_cost", model.initial_cost(state.y[0]), n)
    return total


def _mean_se(values: np.ndarray) -> Tuple[float, float]:
    """Mean of per-particle values [N] and its standard error.

    On a paired difference (two controls priced on the shared noise) the
    SE is the Monte Carlo resolution of the mean change: the descent's
    stop, the deviation margins and the variational margins all compare
    a mean against three of them.
    """
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(values.size))


def _profile(grid: TimeGrid, rng: np.random.Generator, radius: float):
    """Random deterministic time profile on the step nodes, [steps, 1]."""

    t = grid.nodes[:-1] / grid.horizon
    c = rng.uniform(-1.0, 1.0, size=3)
    w = rng.integers(0, 4)
    prof = c[0] + c[1] * np.cos(2.0 * np.pi * w * t) + c[2] * np.sin(
        2.0 * np.pi * w * t
    )
    return radius * prof[:, None]


def _check_sampling(n: int, radius: float) -> None:
    """A certificate needs at least one sample (an integer count) at a
    positive finite radius."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"need at least one sampled perturbation (an integer), got {n!r}")
    _check_tol("perturbation radius", radius)


def _paired_deviations(
    model: ControlModel,
    u: np.ndarray,
    base_state: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
    rng: np.random.Generator,
    n: int,
    radius: float,
    schedule: Optional[ContinuationSchedule] = None,
) -> list:
    """Paired cost changes of ``n`` random admissible profile deviations.

    Each deviation adds a :func:`_profile` drawn from ``rng`` to ``u``,
    projects it, re-solves the state warm-started from ``base_state`` (the
    state at ``u``) and differences the per-particle costs on the shared
    noise.  Returns one ``{"index", "cost_delta", "se", "margin"}`` record
    per deviation, with margin = cost_delta + 3*SE.  Callers check ``n`` and
    ``radius`` (:func:`_check_sampling`) before they solve ``base_state``.
    """
    base_j = _per_particle_cost(model, u, base_state, grid)
    records = []
    for i in range(n):
        v = _projected(model, u + _profile(grid, rng, radius))
        state_v = solve_state(model, v, grid, noise, schedule, warm=base_state)
        mean, se = _mean_se(_per_particle_cost(model, v, state_v, grid) - base_j)
        del v, state_v  # released before the next deviation solves
        records.append(
            {"index": i, "cost_delta": mean, "se": se, "margin": mean + _RESOLUTION_SES * se}
        )
    return records
