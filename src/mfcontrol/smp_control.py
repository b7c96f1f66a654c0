"""Stochastic-maximum-principle control for mean-field FBSDE systems.

The controlled state follows the coupled system

    dX_t  =  b(t, law, X, Y, Z, u) dt + sigma(t, law, X, Y, Z, u) dW_t
    -dY_t =  f(t, law, X, Y, Z, u) dt - Z_t dW_t,   Y_T = Phi(X_T),

and the control problem minimizes

    J(u) = E[ integral of law-averaged h(t, law, X, Y, Z, u) dt ]
         + E[ g(X_T) ] + E[ gamma(Y_0) ].

This module provides the first-order machinery around that problem: the
adjoint system (p, q, Q) and its solver, the Hamiltonian
H = b p + sigma q - f Q + h, the per-node gradient process E'[H_v], the
linearized (variational) state response to a control direction, projected
gradient descent with Armijo backtracking, a variational-inequality
residual over trial controls, a discrete duality (integration-by-parts)
defect, and a convexity/minimality sufficiency check.  The paired
cost-deviation sampler behind both the single-player deviation check
(:mod:`mfcontrol.lq_examples`) and the game's unilateral deviation test
(:mod:`mfcontrol.games`, one induced model per player) lives here too,
with the per-particle cost it compares.

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
the step from node k.  Feedback maps can be materialized on a state path
with :func:`feedback_to_open_loop`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    ConfigError,
    StateView,
    TimeGrid,
    view_means,
)
from mfcontrol.forward_mv import DEFAULT_GUARD, ForwardModel, Initial, _views, simulate_forward
from mfcontrol.hypothesis_check import UniformPairSampler, check_convexity
from mfcontrol.mf_bsde import BackwardModel, RegressionBasis, _terminal_values, solve_mf_bsde
from mfcontrol.fbsde_solver import (
    _RETRYABLE,
    ContinuationSchedule,
    CoupledModel,
    SolutionTriple,
    _coefficients,
    negate_forward_model,
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
    "feedback_to_open_loop",
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

Coefficient = Callable[[float, StateView, StateView], np.ndarray]
TerminalMap = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]

#: coefficient names that may carry partial derivatives
_COEF_KEYS = ("drift", "diffusion", "driver", "running_cost")

#: differentiation slots: three law statistics, three own values, control
_SLOT_KEYS = ("law_x", "law_y", "law_z", "x", "y", "z", "v")

#: the slots a decoupled model's drift and diffusion must not read
_YZ_SLOTS = ("law_y", "y", "law_z", "z")


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


@dataclass(frozen=True)
class ControlModel:
    """Controlled mean-field FBSDE plus cost structure and action set.

    Coefficients are vectorized ``(t, law, own) -> array [N]`` with the
    control read from ``own.u`` (its ensemble mean sits in ``law.u``).
    ``coupled=False`` declares that ``drift``/``diffusion`` read only the
    x and u slots, which unlocks the sequential solve of the state,
    adjoint and variational systems; a ``partials`` entry of ``drift`` or
    ``diffusion`` in a y or z slot contradicts it (:class:`ConfigError`).

    ``partials`` supplies closed-form first derivatives: an outer key per
    coefficient ("drift", "diffusion", "driver", "running_cost") and an
    inner key per slot ("law_x", "law_y", "law_z", "x", "y", "z", "v");
    absent entries are identically zero.  Partials use the same
    ``(t, law, own)`` signature as the coefficients.

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
        for name, block in self.partials.items():
            if name not in _COEF_KEYS:
                raise ConfigError(
                    f"unknown coefficient {name!r} in partials; expected one of {_COEF_KEYS}"
                )
            for slot in block:
                if slot not in _SLOT_KEYS:
                    raise ConfigError(
                        f"unknown slot {slot!r} in partials[{name!r}]; "
                        f"expected one of {_SLOT_KEYS}"
                    )
                if not self.coupled and name in ("drift", "diffusion") and slot in _YZ_SLOTS:
                    raise ConfigError(
                        f"partials[{name!r}][{slot!r}] contradicts coupled=False: "
                        f"a decoupled {name} reads only the x and u slots"
                    )


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
    return np.broadcast_to(arr[:, None] if arr.ndim == 1 else arr, (m, particles)).copy()


def feedback_to_open_loop(policy, x_path: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Materialize a feedback map ``policy(t, x) -> array`` on a state path."""
    m = grid.steps
    out = np.empty((m, x_path.shape[1]))
    for k in range(m):
        out[k] = np.asarray(policy(k * grid.dt, x_path[k]), dtype=float)
    return out


def _require_admissible(model: ControlModel, u: np.ndarray) -> None:
    proj = np.asarray(model.project(u), dtype=float)
    if proj.shape != u.shape or not np.allclose(proj, u, rtol=0.0, atol=1e-9):
        raise ConfigError("control is not admissible: projection moves it")


# ======================================================================
# Frozen-trajectory evaluation cache
# ======================================================================


class _FrozenPath:
    """Coefficient partials along a frozen (state, control) trajectory,
    cached per (name, slot, node); ``None`` marks a partial the model does
    not declare (identically zero)."""

    def __init__(self, model: ControlModel, u: np.ndarray, state: SolutionTriple, grid: TimeGrid):
        self.model = model
        self.u = u
        self.state = state
        self.grid = grid
        self.zero = np.broadcast_to(0.0, state.x.shape[1:])  # read-only
        self._views: dict = {}
        self._vals: dict = {}

    def views(self, k: int):
        got = self._views.get(k)
        if got is None:
            got = self._views[k] = _views(self.state, k, self.u)
        return got

    def partial(self, name: str, slot: str, k: int) -> Optional[np.ndarray]:
        key = (name, slot, k)
        got = self._vals.get(key, self._vals)  # the dict itself marks a miss
        if got is self._vals:
            fn = self.model.partials.get(name, {}).get(slot)
            if fn is None or (name == "driver" and self.model.driver is None):
                got = None
            else:
                own, law = self.views(k)
                val = np.asarray(fn(k * self.grid.dt, law, own), dtype=float)
                got = np.broadcast_to(val, own.x.shape)
            self._vals[key] = got
        return got

    def dense(self, name: str, slot: str, k: int) -> np.ndarray:
        """:meth:`partial` with the shared read-only zero for an undeclared one."""
        got = self.partial(name, slot, k)
        return self.zero if got is None else got

    def transposed(self, k: int, slot: str, terms) -> Union[float, np.ndarray]:
        """Adjoint coefficient in ``slot``: the left-to-right sum over
        ``terms`` = (sign, name, w) of sign * (E'[c_law w] + c w), with c the
        partial of coefficient ``name`` in ``slot``; undeclared ones skipped."""
        total = None
        for sign, name, w in terms:
            c_law, c = self.partial(name, "law_" + slot, k), self.partial(name, slot, k)
            if c_law is not None:
                total = _add(total, sign, float(np.mean(c_law * w)))
            if c is not None:
                total = _add(total, sign, c * w)
        return 0.0 if total is None else total

    def linearized(self, k: int, name: str, law: StateView, own: StateView, direction):
        """Linearization of coefficient ``name``: the left-to-right sum of
        c_law * law + c * own over the x, y, z slots plus c_v * direction;
        undeclared partials skipped."""
        total = None
        for slot, w in (
            ("law_x", law.x), ("x", own.x), ("law_y", law.y), ("y", own.y),
            ("law_z", law.z), ("z", own.z), ("v", direction),
        ):
            c = self.partial(name, slot, k)
            if c is not None:
                total = _add(total, 1, c * w)
        return 0.0 if total is None else total


def _add(total, sign: int, term):
    """``total + sign * term``, with ``None`` as the empty sum."""
    if total is None:
        return term if sign > 0 else -term
    return total + term if sign > 0 else total - term


def _pairing(grid: TimeGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Time-quadrature inner product E[ sum_k a_k b_k dt ] of [M, N] arrays."""
    return float(np.mean(np.sum(a * b, axis=0)) * grid.dt)


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(a))))


# ======================================================================
# State equation
# ======================================================================


def _solve_system(
    model: CoupledModel,
    coupled: bool,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule],
    basis: Optional[RegressionBasis],
    guard: float,
    warm: Optional[SolutionTriple],
    control: Optional[np.ndarray] = None,
    conditioning: Optional[np.ndarray] = None,
) -> SolutionTriple:
    """Solve one of the control problem's FBSDE systems; ``coupled``
    chooses only the solver.

    A decoupled system (drift and diffusion free of the y and z slots,
    which stay ``None`` in the forward pass) is solved exactly by one Euler
    pass for X and one backward pass for (Y, Z), regressed on
    ``conditioning`` when given and on X otherwise; ``warm`` is unused.

    A coupled system is solved by the continuation, which is what makes it
    converge from a cold start; from ``warm`` only its final polish is
    needed: the same Anderson-accelerated :func:`solve_picard` call
    (``inner_tol``, ``polish_max_iter``, ``accel_memory``), so both routes
    land on the same discrete fixed point.  If that pass fails with an
    error the continuation retries on, the continuation runs from its seed.
    With ``polish_max_iter == 0`` the cold route returns the unpolished
    homotopy solution, which a warm pass would not reproduce, so ``warm``
    is unused.
    """
    if not coupled:
        fwd = ForwardModel(drift=model.drift, diffusion=model.diffusion, initial=model.initial)
        x = simulate_forward(fwd, grid, noise, control=control, guard=guard)
        y, z = solve_mf_bsde(
            BackwardModel(driver=model.driver, terminal=model.terminal_map), grid, noise, x,
            basis=basis, control=control, carrier=conditioning,
        )
        return SolutionTriple(x=x, y=y, z=z)
    sched = schedule or ContinuationSchedule()
    if warm is not None and sched.polish_max_iter > 0:
        try:
            sol, _ = solve_picard(
                model, grid, noise, tol=sched.inner_tol, max_iter=sched.polish_max_iter,
                initial_guess=warm, accel_memory=sched.accel_memory, control=control,
                basis=basis, guard=guard, conditioning=conditioning,
            )
            return sol
        except _RETRYABLE:
            pass
    sol, _ = solve_continuation(
        model, grid, noise, schedule=schedule, basis=basis, control=control,
        guard=guard, conditioning=conditioning,
    )
    return sol


def solve_state(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
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
    basis : RegressionBasis, optional
        Conditional-expectation basis for backward passes.
    guard : float
        Divergence guard radius.
    warm : SolutionTriple, optional
        State solution at a nearby control on the same noise.  A coupled
        solve then runs only the continuation's polish from there (an
        Anderson-accelerated decoupling iteration to ``inner_tol``) and
        falls back to the full continuation if that fails to converge,
        diverges or hits a failed regression.  ``warm`` is unused for
        decoupled models, which the sequential pass solves exactly, and
        when ``schedule.polish_max_iter == 0``, where the cold route
        returns the unpolished homotopy solution.  Its arrays must be
        [M+1, N] (:class:`ConfigError` otherwise).

    Returns
    -------
    SolutionTriple
        Arrays [M+1, N] for (X, Y, Z).
    """
    u = as_control(u, grid, noise.particles)
    _require_admissible(model, u)
    system = CoupledModel(
        drift=model.drift,
        diffusion=model.diffusion,
        driver=model.driver,
        terminal_map=model.terminal_map,
        initial=model.initial,
    )
    return _solve_system(
        system, model.coupled, grid, noise, schedule, basis, guard, warm, control=u
    )


# ======================================================================
# Adjoint system
# ======================================================================


def _h6_probe(drift, diffusion, driver, grid, seed, n, trials=8, radius=1.0):
    """Empirical mirrored-monotonicity probe of an assembled adjoint system.

    Draws random ensemble perturbation pairs (sized to the trajectory
    ensemble so frozen coefficient arrays broadcast) at a few nodes and
    evaluates the pairing of the coefficient differences against the
    perturbation; the mirrored condition requires it to be nonnegative.
    Returns the most negative normalized pairing observed.
    """
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0xAD01))
    m = grid.steps
    nodes = sorted({0, m // 3, (2 * m) // 3, m - 1})
    worst = np.inf
    for k in nodes:
        t = k * grid.dt
        for _ in range(trials):
            a = radius * (2.0 * rng.random((3, n)) - 1.0)
            b = radius * (2.0 * rng.random((3, n)) - 1.0)
            v1 = StateView(x=a[0], y=a[1], z=a[2])
            v2 = StateView(x=b[0], y=b[1], z=b[2])
            d = a - b
            db = np.asarray(drift(t, view_means(v1), v1)) - np.asarray(
                drift(t, view_means(v2), v2)
            )
            ds = np.asarray(diffusion(t, view_means(v1), v1)) - np.asarray(
                diffusion(t, view_means(v2), v2)
            )
            df = np.asarray(driver(t, view_means(v1), v1)) - np.asarray(
                driver(t, view_means(v2), v2)
            )
            pairing = float(np.mean(-df * d[0] + db * d[1] + ds * d[2]))
            denom = float(np.mean(np.sum(d * d, axis=0)))
            worst = min(worst, pairing / denom)
    return worst


def solve_adjoint(
    model: ControlModel,
    u,
    state: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
    certify: bool = False,
    warm: Optional[AdjointTriple] = None,
) -> AdjointTriple:
    """Solve the adjoint system (p, q, Q) along a solved trajectory.

    The multiplier Q rides forward from ``Q_0 = -gamma_y(Y_0)`` and the
    pair (p, q) rides backward to ``p_T = g_x(X_T) - Phi_x(X_T) Q_T``.
    Every mean coupling of the state linearization appears here as its
    exact transpose: a term c(theta_i) * mean(delta) in the forward
    linearization contributes mean_j[c(theta_j) w_j] to the adjoint of
    the paired multiplier w.

    (Q, p, q) is written once, as one mean-field FBSDE of the mirrored
    monotone type, solved with its forward component negated (the triple
    (-Q, p, q) is forward-monotone) and mapped back; ``model.coupled``
    chooses only the solver, as in :func:`solve_state` (for a decoupled
    model Q's coefficients read only Q).  The backward passes regress on
    the state path, since the adjoint's data are functionals of it.

    With ``certify=True`` an empirical mirrored-monotonicity probe runs
    on the assembled coupled adjoint coefficients before solving; a
    violation does not raise but is attached to the result's ``warning``
    field.  Decoupled adjoints are solved sequentially and need no
    monotonicity, so the probe is skipped there.

    Parameters
    ----------
    model, u, grid, noise
        As in :func:`solve_state`; ``state`` must solve the state system
        for ``u`` on the same noise.
    schedule, basis, guard
        Solver knobs, as in :func:`solve_state`.
    certify : bool
        Run the monotonicity probe (off by default).
    warm : AdjointTriple, optional
        Adjoint at a nearby control (or along a nearby state) on the same
        noise.  As in :func:`solve_state`, a coupled solve then runs only
        the continuation's polish from it, with the continuation as the
        fallback; it is unused for decoupled models (solved exactly by the
        sequential pass) and when ``schedule.polish_max_iter == 0``.

    Returns
    -------
    AdjointTriple
    """
    u = as_control(u, grid, noise.particles)
    path = _FrozenPath(model, u, state, grid)
    x_last = state.x[grid.steps]
    terminal_cost_slope = np.asarray(model.terminal_cost_slope(x_last), dtype=float)
    terminal_slope = np.asarray(model.terminal_slope(x_last), dtype=float)
    q0 = -np.asarray(model.initial_cost_slope(state.y[0]), dtype=float)
    q0 = np.broadcast_to(q0, (noise.particles,)).copy()

    # the x slot carries Q, paired with the driver; p and q pair with the
    # drift and the diffusion, and the running cost enters with weight 1
    def forward_coef(slot):
        def coef(t, law, own):
            return path.transposed(grid.node_index(t), slot, (
                (1, "driver", own.x), (-1, "drift", own.y),
                (-1, "diffusion", own.z), (-1, "running_cost", 1.0),
            ))

        return coef

    adj_drift, adj_diffusion = forward_coef("y"), forward_coef("z")

    def adj_driver(t, law, own):
        return path.transposed(grid.node_index(t), "x", (
            (1, "drift", own.y), (1, "diffusion", own.z),
            (1, "running_cost", 1.0), (-1, "driver", own.x),
        ))

    def adj_terminal(q_last):
        return terminal_cost_slope - terminal_slope * q_last

    adj_model = CoupledModel(
        drift=adj_drift,
        diffusion=adj_diffusion,
        driver=adj_driver,
        terminal_map=adj_terminal,
        initial=q0,
    )
    warning = None
    if certify and model.coupled:
        worst = _h6_probe(adj_drift, adj_diffusion, adj_driver, grid, noise.seed, noise.particles)
        if worst < -1e-9:
            warning = f"adjoint monotonicity probe found pairing ratio {worst:.3e}"
    guess = None if warm is None else SolutionTriple(x=-warm.Q, y=warm.p, z=warm.q)
    sol = _solve_system(
        negate_forward_model(adj_model), model.coupled, grid, noise, schedule, basis,
        guard, guess, conditioning=state.x,
    )
    return AdjointTriple(p=sol.y, q=sol.z, Q=-sol.x, warning=warning)


# ======================================================================
# Hamiltonian
# ======================================================================


def hamiltonian(model: ControlModel, t, law, own, p, q, Q) -> np.ndarray:
    """Hamiltonian H = b p + sigma q - f Q + h at per-particle arguments.

    ``law``/``own`` are StateViews with the control in the u slots;
    (p, q, Q) are the multiplier values (arrays or scalars).
    """
    b, s, f = _coefficients(model, t, law, own, np.shape(own.x))
    h = np.asarray(model.running_cost(t, law, own), dtype=float)
    return b * p + s * q - f * Q + h


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
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
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
    continuation).  The backward passes regress on the state path.
    """
    u = as_control(u, grid, noise.particles)
    d = as_control(direction, grid, noise.particles)
    m_steps = grid.steps
    path = _FrozenPath(model, u, state, grid)
    slope = np.asarray(model.terminal_slope(state.x[m_steps]), dtype=float)

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
    sol = _solve_system(
        var_model, model.coupled, grid, noise, schedule, basis, guard, None,
        conditioning=state.x,
    )
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
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
) -> float:
    """Monte Carlo cost J(u): left-endpoint quadrature of the law-averaged
    running cost plus terminal and initial costs."""
    u = as_control(u, grid, noise.particles)
    if state is None:
        state = solve_state(model, u, grid, noise, schedule=schedule, basis=basis, guard=guard)
    path = _FrozenPath(model, u, state, grid)
    run = 0.0
    for k in range(grid.steps):
        own, law = path.views(k)
        run += float(np.mean(model.running_cost(k * grid.dt, law, own))) * grid.dt
    terminal = float(np.mean(model.terminal_cost(state.x[grid.steps])))
    start = float(np.mean(model.initial_cost(state.y[0])))
    return run + terminal + start


def smp_gradient(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
    adjoint: Optional[AdjointTriple] = None,
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Per-node cost gradient: the law-averaged Hamiltonian control slope.

    Solves the state and adjoint systems (unless supplied) and evaluates

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
    if state is None:
        state = solve_state(model, u, grid, noise, schedule=schedule, basis=basis, guard=guard)
    if adjoint is None:
        adjoint = solve_adjoint(
            model, u, state, grid, noise, schedule=schedule, basis=basis, guard=guard
        )
    path = _FrozenPath(model, u, state, grid)
    grad = np.empty((grid.steps, noise.particles))
    for k in range(grid.steps):
        grad[k] = (
            path.dense("drift", "v", k) * adjoint.p[k]
            + path.dense("diffusion", "v", k) * adjoint.q[k]
            - path.dense("driver", "v", k) * adjoint.Q[k]
            + path.dense("running_cost", "v", k)
        )
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
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
):
    """Projected gradient descent on the control cost with Armijo
    backtracking.

    Each iteration computes the gradient process, proposes
    ``Project(u - eta * grad)`` starting at ``eta0``, and shrinks the step
    until the common-noise cost satisfies the sufficient-decrease test
    ``J(candidate) <= J(u) - slope * <grad, u - candidate>``.  Because the
    noise is frozen, the cost is a deterministic function of the control,
    so the history is genuinely monotone.  Step-size underflow stops the
    run with a ``"stagnated"`` status entry instead of raising.  Coupled
    solves are warm-started: every Armijo trial's state from the current
    state, and each iteration's adjoint from the previous iteration's.

    Parameters
    ----------
    model, grid, noise
        Problem definition and frozen noise.
    u0
        Admissible starting control.
    steps : int
        Maximum iterations.
    eta0, shrink, slope : float
        Armijo parameters (initial step, backtrack factor, slope factor).
    grad_tol : float
        Stop when the projected-gradient residual
        ``rms(u - Project(u - eta0 * grad))`` falls to this level
        (0 disables the test).
    min_eta : float
        Step-size underflow threshold.

    The Armijo parameters must satisfy ``0 < shrink < 1``,
    ``0 < min_eta <= eta0`` with ``eta0`` finite, and ``0 <= slope < 1``
    (:class:`ConfigError` otherwise): any other choice can backtrack
    forever, try no step, or accept a cost increase.

    Returns
    -------
    (ndarray [M, N], list of dict)
        Final control and per-iteration history (iteration, cost,
        gradient norm, accepted step, backtracks, optional status).
    """
    u = as_control(u0, grid, noise.particles)
    _require_admissible(model, u)
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not (0.0 < shrink < 1.0):
        raise ConfigError(f"shrink must lie in (0, 1), got {shrink}")
    if not (np.isfinite(eta0) and 0.0 < min_eta <= eta0):
        raise ConfigError(f"need 0 < min_eta <= eta0 < inf, got min_eta={min_eta}, eta0={eta0}")
    if not (0.0 <= slope < 1.0):
        raise ConfigError(f"slope must lie in [0, 1), got {slope}")
    state = solve_state(model, u, grid, noise, schedule=schedule, basis=basis, guard=guard)
    value = cost(model, u, grid, noise, state=state)
    history: list = []
    adjoint = None
    for it in range(steps):
        adjoint = solve_adjoint(
            model, u, state, grid, noise, schedule=schedule, basis=basis, guard=guard,
            warm=adjoint,
        )
        grad = smp_gradient(
            model, u, grid, noise, state=state, adjoint=adjoint,
            schedule=schedule, basis=basis, guard=guard,
        )
        residual = _rms(u - np.asarray(model.project(u - eta0 * grad), dtype=float))
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
        eta = eta0
        backtracks = 0
        accepted = False
        while eta >= min_eta:
            candidate = np.asarray(model.project(u - eta * grad), dtype=float)
            decrease = slope * _pairing(grid, grad, u - candidate)
            cand_state = solve_state(
                model, candidate, grid, noise, schedule=schedule, basis=basis, guard=guard,
                warm=state,
            )
            cand_value = cost(model, candidate, grid, noise, state=cand_state)
            if cand_value <= value - decrease:
                accepted = True
                break
            eta *= shrink
            backtracks += 1
        record.update(step=eta if accepted else 0.0, backtracks=backtracks)
        if not accepted:
            record["status"] = "stagnated"
            history.append(record)
            break
        history.append(record)
        u, value, state = candidate, cand_value, cand_state
    return u, history


# ======================================================================
# Optimality diagnostics
# ======================================================================


def variational_inequality_residual(
    model: ControlModel,
    u,
    trials: Sequence,
    grid: TimeGrid,
    noise: BrownianPaths,
    state: Optional[SolutionTriple] = None,
    adjoint: Optional[AdjointTriple] = None,
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
) -> float:
    """Minimum over trial controls of the first-order pairing
    ``<grad, v - u>``; an optimum certifies with a residual that is
    nonnegative up to Monte Carlo tolerance."""
    u = as_control(u, grid, noise.particles)
    if not len(trials):
        raise ConfigError("need at least one trial control")
    grad = smp_gradient(
        model, u, grid, noise, state=state, adjoint=adjoint,
        schedule=schedule, basis=basis, guard=guard,
    )
    best = np.inf
    for trial in trials:
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
    adjoint: Optional[AdjointTriple] = None,
    variational: Optional[VariationalTriple] = None,
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
    signed: bool = False,
) -> float:
    """Defect of the discrete integration-by-parts identity linking the
    variational and adjoint systems.

    The identity equates the terminal/initial cost linearization
    E[g_x(X_T) k_T + gamma_y(Y_0) m_0] plus the running-cost state terms
    with the multiplier pairing E[int (b_v p + sigma_v q - f_v Q)
    (direction) dt].  Both sides are assembled from the solved triples
    and the absolute difference returned; it vanishes at first order in
    the step size.

    With ``signed=True`` the raw difference is returned instead of its
    magnitude.  At finite particle counts the defect carries a
    step-independent sampling offset on top of the O(dt) part, and
    isolating the latter (averaging replicate ensembles, differencing
    step-coarsened runs on shared increments) only works before the
    absolute value is taken.
    """
    u = as_control(u, grid, noise.particles)
    d = as_control(direction, grid, noise.particles)
    if state is None:
        state = solve_state(model, u, grid, noise, schedule=schedule, basis=basis, guard=guard)
    if adjoint is None:
        adjoint = solve_adjoint(
            model, u, state, grid, noise, schedule=schedule, basis=basis, guard=guard
        )
    if variational is None:
        variational = solve_variational(
            model, u, d, state, grid, noise, schedule=schedule, basis=basis, guard=guard
        )
    path = _FrozenPath(model, u, state, grid)
    m = grid.steps
    lhs = float(
        np.mean(
            np.asarray(model.terminal_cost_slope(state.x[m]), dtype=float) * variational.k[m]
        )
    ) + float(
        np.mean(
            np.asarray(model.initial_cost_slope(state.y[0]), dtype=float) * variational.m[0]
        )
    )
    run = 0.0
    for k in range(m):
        run += grid.dt * (
            float(np.mean(path.dense("running_cost", "law_x", k))) * float(variational.k[k].mean())
            + float(np.mean(path.dense("running_cost", "x", k) * variational.k[k]))
            + float(np.mean(path.dense("running_cost", "law_y", k))) * float(variational.m[k].mean())
            + float(np.mean(path.dense("running_cost", "y", k) * variational.m[k]))
            + float(np.mean(path.dense("running_cost", "law_z", k))) * float(variational.n[k].mean())
            + float(np.mean(path.dense("running_cost", "z", k) * variational.n[k]))
        )
    rhs = 0.0
    for k in range(m):
        rhs += grid.dt * float(
            np.mean(
                (
                    path.dense("drift", "v", k) * adjoint.p[k]
                    + path.dense("diffusion", "v", k) * adjoint.q[k]
                    - path.dense("driver", "v", k) * adjoint.Q[k]
                )
                * d[k]
            )
        )
    defect = lhs + run - rhs
    return defect if signed else abs(defect)


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
    schedule: Optional[ContinuationSchedule] = None,
    basis: Optional[RegressionBasis] = None,
    guard: float = DEFAULT_GUARD,
) -> SufficiencyReport:
    """First-order sufficiency check for a candidate control.

    Runs midpoint convexity tests on the terminal cost, initial cost, and
    terminal map, and on the Hamiltonian as a function of the full
    (law, own, control) tuple at multiplier values sampled along the
    trajectory; then verifies pointwise Hamiltonian minimality of the
    candidate against projected random trial controls, with ``slack``
    absorbing solver-tolerance suboptimality of the candidate.  It needs
    ``control_trials`` >= 1 and a finite ``radius`` > 0
    (:class:`ConfigError` otherwise).
    """
    if control_trials < 1:
        raise ConfigError(f"control_trials must be >= 1, got {control_trials}")
    sampler = UniformPairSampler(radius=radius)
    u = as_control(u, grid, noise.particles)
    if state is None:
        state = solve_state(model, u, grid, noise, schedule=schedule, basis=basis, guard=guard)
    if adjoint is None:
        adjoint = solve_adjoint(
            model, u, state, grid, noise, schedule=schedule, basis=basis, guard=guard
        )
    convexity = {
        "terminal_cost": check_convexity(
            lambda pts: np.asarray(model.terminal_cost(pts[:, 0]), dtype=float),
            dim=1, sampler=sampler, n_samples=n_samples, seed=seed,
        ),
        "initial_cost": check_convexity(
            lambda pts: np.asarray(model.initial_cost(pts[:, 0]), dtype=float),
            dim=1, sampler=sampler, n_samples=n_samples, seed=seed + 1,
        ),
        "terminal_map": check_convexity(
            lambda pts: _terminal_values(model.terminal_map, pts[:, 0]),
            dim=1, sampler=sampler, n_samples=n_samples, seed=seed + 2,
        ),
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

    path = _FrozenPath(model, u, state, grid)
    bases = []  # the candidate's Hamiltonian per node, shared by every trial
    for k in range(m):
        own, law = path.views(k)
        bases.append(hamiltonian(model, k * grid.dt, law, own, adjoint.p[k], adjoint.q[k], adjoint.Q[k]))
    violations = 0
    worst = None
    worst_gap = 0.0
    for _ in range(control_trials):
        v = np.asarray(
            model.project(radius * (2.0 * rng.random((m, n)) - 1.0)), dtype=float
        )
        for k in range(m):
            own, law = path.views(k)
            own_v = StateView(x=own.x, y=own.y, z=own.z, u=v[k])
            law_v = StateView(x=law.x, y=law.y, z=law.z, u=float(v[k].mean()))
            trial = hamiltonian(model, k * grid.dt, law_v, own_v, adjoint.p[k], adjoint.q[k], adjoint.Q[k])
            gap = bases[k] - trial
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
    """Per-particle cost contributions [N] (their mean is the cost).

    Statistics slots in the running cost are evaluated at the ensemble
    means, so the decomposition is exact for the mean; the paired
    standard errors computed from it treat those means as fixed, which
    is the standard plug-in approximation.
    """

    particles = state.x.shape[1]
    total = np.zeros(particles)
    for k in range(grid.steps):
        own, law = _views(state, k, u)
        total += grid.dt * np.broadcast_to(
            np.asarray(model.running_cost(float(grid.nodes[k]), law, own), dtype=float),
            (particles,),
        )
    total = total + np.asarray(model.terminal_cost(state.x[-1]), dtype=float)
    total = total + np.asarray(model.initial_cost(state.y[0]), dtype=float)
    return total


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
    """A certificate needs at least one sample at a positive finite radius."""
    if n < 1:
        raise ConfigError(f"need at least one sampled perturbation, got {n}")
    if not (np.isfinite(radius) and radius > 0.0):
        raise ConfigError(f"perturbation radius must be finite and > 0, got {radius}")


def _paired_deviations(
    model: ControlModel,
    u: np.ndarray,
    base_state: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
    rng: np.random.Generator,
    n: int,
    radius: float,
    schedule: Optional[ContinuationSchedule],
    basis: Optional[RegressionBasis],
    guard: float,
) -> list:
    """Paired cost changes of ``n`` random admissible profile deviations.

    Each deviation adds a :func:`_profile` drawn from ``rng`` to ``u``,
    projects it, re-solves the state warm-started from ``base_state`` (the
    state at ``u``) and differences the per-particle costs on the shared
    noise.  Returns one ``{"index", "cost_delta", "se", "margin"}`` record
    per deviation, with margin = cost_delta + 3*SE.
    """
    _check_sampling(n, radius)
    base_j = _per_particle_cost(model, u, base_state, grid)
    records = []
    for i in range(n):
        v = model.project(u + _profile(grid, rng, radius))
        state_v = solve_state(
            model, v, grid, noise, schedule, basis, guard, warm=base_state
        )
        diff = _per_particle_cost(model, v, state_v, grid) - base_j
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / np.sqrt(diff.size))
        records.append(
            {"index": i, "cost_delta": mean, "se": se, "margin": mean + 3.0 * se}
        )
    return records
