"""Coupled mean-field FBSDE solvers.

Target system (scalar state, scalar driver, law arguments as empirical
means):

    dX_t  =  b(t, law, X, Y, Z) dt + sigma(t, law, X, Y, Z) dW_t,   X_0 given
    -dY_t =  f(t, law, X, Y, Z) dt - Z_t dW_t,                      Y_T = Phi(X_T)

Three solver routes are provided:

* :func:`solve_linear_seed` — the canonical linear-monotone system (the
  alpha = 0 member of the homotopy family) with additive inhomogeneities,
  solved constructively: an auxiliary backward equation in variables
  (Y_aux, V) where V is the actual martingale integrand, an algebraic
  recovery of the auxiliary integrand, then a forward Euler pass and the
  recombination Y = Y_aux + X.
* :func:`solve_picard` — decoupling iteration (forward sweep with frozen
  backward paths, then a fresh backward sweep), with optional Anderson
  acceleration.  Contractive only for short horizons or weak coupling;
  serves as the baseline and as the final polish of the continuation.
* :func:`solve_continuation` — homotopy in the blend parameter alpha from
  the canonical pair to the target model (the method of continuation),
  with warm starts and an adaptive step (the full blend first, halved on
  failure, doubled after success).  Each blend level is one
  seed-preconditioned fixed point: every sweep freezes the weighted
  difference between the model and the canonical pair at the current
  iterate as additive sources and applies the linear seed, so the stiff
  canonical core is always handled constructively.

The blend family, which :func:`_blend_sources` turns into additive sources
on the canonical pair at a frozen iterate:

    b_a     = a b     + (1 - a)(-mean_y - y)
    sigma_a = a sigma + (1 - a)(-mean_z - z)
    f_a     = a f     + (1 - a)(+mean_x + x)
    Phi_a   = a Phi   + (1 - a) x
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    Coefficient,
    DivergenceError,
    NonConvergenceError,
    RegressionError,
    StateView,
    TerminalMap,
    TimeGrid,
    _AndersonMixer,
    _broadcast,
    _check_cap,
    _check_fraction,
    _check_noise,
    _check_paths,
    _check_shape,
    _check_tol,
    _value,
)
from mfcontrol.forward_mv import (
    DEFAULT_GUARD,
    Initial,
    _check_guard,
    _euler,
    _views,
    resolve_initial,
)
from mfcontrol.mf_bsde import BackwardModel, _terminal_values, solve_mf_bsde

__all__ = [
    "CoupledModel",
    "SolutionTriple",
    "LinearInhomogeneity",
    "ContinuationSchedule",
    "ResidualReport",
    "solve_linear_seed",
    "solve_picard",
    "solve_continuation",
    "residual",
]

#: solver failures a caller recovers from (a continuation rung halves its
#: step, a polish is rejected, a warm solve falls back to the continuation)
_RETRYABLE = (NonConvergenceError, DivergenceError, RegressionError)

#: rung tolerance of a continuation whose polish follows.  A rung's answer is
#: then only a warm start, and the polish's first change, the O(dt) gap
#: between the two discrete solutions, is 4e-3 to 6e-2 on the LQ2 fixtures.
#: Of 1e-3, 1e-4 and 1e-5 it is the loosest at which no polish is rejected
#: that converged from rungs run to 1e-8, and no polish takes more sweeps than
#: at 1e-5 (the tests, LQ2 benchmark seeds 0-9, verify_example(1) and (2)).
_HANDOVER_TOL = 1e-4


@dataclass(frozen=True)
class CoupledModel:
    """Coefficients of a coupled mean-field FBSDE.

    All coefficient callables are vectorized ``(t, law, own) -> array [N]``
    with (x, y, z) slots populated in both views (plus ``u`` when a control
    is threaded through by a caller); what they return is read by the
    output contract of :mod:`mfcontrol.core`.  ``driver=None`` means f = 0.
    """

    drift: Coefficient
    diffusion: Coefficient
    driver: Optional[Coefficient]
    terminal_map: TerminalMap
    initial: Initial = 0.0


@dataclass(frozen=True)
class SolutionTriple:
    """Node arrays [M+1, N] for the state, backward value, and integrand."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def particles(self) -> int:
        return self.x.shape[1]


def _triple_rms(a: SolutionTriple, b: SolutionTriple) -> float:
    num = (
        np.square(a.x - b.x).sum()
        + np.square(a.y - b.y).sum()
        + np.square(a.z - b.z).sum()
    )
    cnt = a.x.size + a.y.size + a.z.size
    return float(np.sqrt(num / cnt))


def _coefficients(model, t: float, law: StateView, own: StateView, shape):
    """(b, sigma, f) of ``model`` at one node, each a float or an array of
    ``shape`` (:func:`mfcontrol.core._value`); f = 0.0 when the model has no
    driver."""
    b = _value("drift", model.drift(t, law, own), shape)
    s = _value("diffusion", model.diffusion(t, law, own), shape)
    if model.driver is None:
        return b, s, 0.0
    return b, s, _value("driver", model.driver(t, law, own), shape)


# ======================================================================
# Inhomogeneities (additive sources in the Lemma-style placement)
# ======================================================================

Source = Union[None, float, np.ndarray, Callable[[float], float]]


@dataclass(frozen=True)
class LinearInhomogeneity:
    """Additive perturbations of the canonical linear-monotone system.

    Placement conventions (fixed throughout the package):

    * ``drift_source``     adds ``+gamma`` to the forward drift,
    * ``diffusion_source`` adds ``+varphi`` to the forward diffusion,
    * ``driver_source``    enters the backward integrand with a MINUS sign
      (integrand ``f - phi``),
    * ``terminal_shift``   adds ``+xi`` to the terminal value.

    Sources may be ``None`` (zero), floats, one-element arrays, callables
    of t, or step arrays [M, N]; the terminal shift may be ``None``, a
    float, a one-element array, or an array [N].  A one-element array is
    the float it holds.
    """

    drift_source: Source = None
    diffusion_source: Source = None
    driver_source: Source = None
    terminal_shift: Union[None, float, np.ndarray] = None


def _source_array(src: Source, grid: TimeGrid, n: int) -> np.ndarray:
    m = grid.steps
    if src is None:
        return np.zeros((m, n))  # its zero pages are not committed until written
    if callable(src):
        vals = np.asarray([src(k * grid.dt) for k in range(m)], dtype=float)
        return np.broadcast_to(vals[:, None], (m, n)).copy()
    return _broadcast("source", src, (m, n))


# ======================================================================
# Linear seed (constructive solution of the canonical pair)
# ======================================================================


def solve_linear_seed(
    inhom: LinearInhomogeneity,
    grid: TimeGrid,
    noise: BrownianPaths,
    x0: Initial = 0.0,
    conditioning: Optional[np.ndarray] = None,
    guard: float = DEFAULT_GUARD,
):
    """Solve the canonical linear-monotone pair with additive sources.

    The system is

        dX  = (-mean_Y - Y + gamma) dt + (-mean_Z - Z + varphi) dW
        -dY = ( mean_X + X - phi  ) dt - Z dW,    Y_T = X_T + xi

    solved constructively rather than by fixed-point iteration:

    1. an auxiliary backward equation is solved in variables (Y_aux, V),
       where V := mean_Z_aux + 2 Z_aux - varphi is the actual martingale
       integrand (the driver does not involve V, so the standard backward
       sweep applies unchanged):

           Y_aux,T = xi,
           driver  = -mean_Y_aux - Y_aux - phi + gamma;

    2. the auxiliary integrand is recovered algebraically per node:
       mean: Z_aux_bar = (V_bar + varphi_bar)/3, then
       Z_aux = (V + varphi - Z_aux_bar)/2;
    3. a forward Euler pass for X using (Y_aux, Z_aux);
    4. recombination Y = Y_aux + X, Z = Z_aux.

    Parameters
    ----------
    inhom : LinearInhomogeneity
    grid, noise : discretization and driver block
    x0 : initial state (float / array / sampler)
    conditioning : array [M+1, N], optional
        Regression state for the auxiliary sweep.  Defaults to the running
        Brownian path; continuation passes the current iterate's state path
        (whose fixed point carries the sources' information).
    guard : float
        Divergence guard on |X|, checked node by node in the forward pass
        (node 0 included); the first breach raises :class:`DivergenceError`
        with its step, particle and value.

    Returns
    -------
    (SolutionTriple, dict)
        The solution and a log carrying the auxiliary backward path
        (key ``"auxiliary_y"``).
    """
    dw = noise.increments
    m, n = _check_noise(grid, noise)

    gam = _source_array(inhom.drift_source, grid, n)
    vphi = _source_array(inhom.diffusion_source, grid, n)
    phi = _source_array(inhom.driver_source, grid, n)
    shift = inhom.terminal_shift
    xi = np.zeros(n) if shift is None else _broadcast("terminal shift", shift, (n,))
    cond = noise.cumulative() if conditioning is None else conditioning
    _check_shape("conditioning", cond, (m + 1, n))

    def aux_driver(t, law, own):
        k = grid.node_index(t)
        return -law.y - own.y - phi[k] + gam[k]

    y_aux, v = solve_mf_bsde(BackwardModel(driver=aux_driver, terminal=xi), grid, noise, cond)

    # node-aligned diffusion source (terminal node inherits the last step)
    vphi_nodes = np.vstack([vphi, vphi[-1:]])
    z_bar = (v.mean(axis=1, keepdims=True) + vphi_nodes.mean(axis=1, keepdims=True)) / 3.0
    z_aux = (v + vphi_nodes - z_bar) / 2.0

    dt = grid.dt
    x = np.empty((m + 1, n))
    x[0] = resolve_initial(x0, n, noise.seed)
    _check_guard(x[0], 0, guard)
    for k in range(m):
        drift = -x[k].mean() - x[k] - y_aux[k].mean() - y_aux[k] + gam[k]
        diff = -z_aux[k].mean() - z_aux[k] + vphi[k]
        x[k + 1] = x[k] + drift * dt + diff * dw[k]
        _check_guard(x[k + 1], k + 1, guard)

    sol = SolutionTriple(x=x, y=y_aux + x, z=z_aux)
    return sol, {"auxiliary_y": y_aux}


# ======================================================================
# Fixed-point iteration (optionally Anderson-accelerated)
# ======================================================================


def _fixed_point(sweep, start: SolutionTriple, slots, tol: float, max_iter: int,
                 memory: int, what: str):
    """Iterate ``sweep`` (a map of solution triples) from ``start`` until
    the triple-RMS change of a sweep is at most ``tol``.

    With ``memory`` > 0 the next iterate Anderson-mixes the ``slots`` of the
    iterate and of the sweep's output and takes the other slots from the
    output; without, it is the output.  Returns ``(SolutionTriple,
    history)``, the history being the change norms.  A non-finite change,
    or ``max_iter`` sweeps without reaching ``tol``, raises
    :class:`NonConvergenceError` carrying the history and the last output;
    ``what`` names the iteration in its message.

    A sweep's output is let go once its mixed slots are flattened for the
    mixer, so neither the mixer step nor the next sweep holds it twice; its
    other slots live on in the iterate.  The last sweep's output is not
    mixed, since no sweep reads the result.
    """
    mixer = _AndersonMixer(memory) if memory > 0 else None
    history: list = []
    cur = start
    flat = None  # the iterate's mixed slots, once a mixer step has made them
    for _ in range(max_iter):
        out = sweep(cur)
        change = _triple_rms(out, cur)
        history.append(change)
        if not np.isfinite(change):
            raise NonConvergenceError(
                f"{what} produced non-finite iterates", history=history, last=out
            )
        if change <= tol:
            return out, history
        if len(history) == max_iter:
            break
        if mixer is None:
            cur = out
            continue
        if flat is None:
            flat = np.concatenate([getattr(cur, slot).ravel() for slot in slots])
        g = np.concatenate([getattr(out, slot).ravel() for slot in slots])
        rest = replace(out, **dict.fromkeys(slots))  # the unmixed slots only
        shape, out = out.x.shape, None  # its mixed slots live on in ``g`` only
        flat, g = mixer.step(flat, g), None
        parts = np.split(flat, len(slots))
        cur = replace(rest, **{slot: part.reshape(shape) for slot, part in zip(slots, parts)})
    raise NonConvergenceError(
        f"{what} did not reach tol {tol:.1e} in {max_iter} sweeps "
        f"(last change {history[-1]:.3e})",
        history=history,
        last=out,
    )


def solve_picard(
    model: CoupledModel,
    grid: TimeGrid,
    noise: BrownianPaths,
    tol: float = 1e-6,
    max_iter: int = 50,
    initial_guess: Optional[SolutionTriple] = None,
    accel_memory: int = 0,
    control: Optional[np.ndarray] = None,
    guard: float = DEFAULT_GUARD,
    conditioning: Optional[np.ndarray] = None,
):
    """Decoupling (Picard) iteration for a coupled model.

    Each sweep simulates X forward with (Y, Z) frozen at the current
    iterate, then re-solves the backward pair on the new state path; the
    iteration stops when the triple-RMS change is at most ``tol``.  A
    decoupled model therefore converges in exactly two sweeps (the second
    only certifies the first), and an all-zero model in one.

    ``accel_memory`` > 0 switches on Anderson mixing of the backward pair
    (used by the continuation polish; the default 0 leaves the plain scheme
    untouched).  ``conditioning`` supplies an external regression carrier
    for the backward sweeps (default: the current forward path); systems
    whose data are exogenous functionals of another state path need this
    to avoid a carrier-feedback noise floor.

    Returns ``(SolutionTriple, history)`` where history is the list of
    change norms; raises :class:`NonConvergenceError` (carrying the history
    and last iterate) on budget exhaustion or at a sweep whose change is
    not finite, and :class:`DivergenceError` if a forward sweep leaves the
    guard region.  ``max_iter`` must be an integer >= 1 and ``tol`` finite
    and > 0 (:class:`ConfigError` otherwise).
    """
    _check_cap("max_iter", max_iter, 1)
    _check_tol("tol", tol)
    m, n = _check_noise(grid, noise)

    if initial_guess is None:
        cur = SolutionTriple(
            x=np.zeros((m + 1, n)), y=np.zeros((m + 1, n)), z=np.zeros((m + 1, n))
        )
    else:
        cur = initial_guess
        _check_paths("initial guess", (cur.x, cur.y, cur.z), (m + 1, n))
    backward = BackwardModel(driver=model.driver, terminal=model.terminal_map)

    def sweep(it: SolutionTriple) -> SolutionTriple:
        x = _euler(model, grid, noise, control, guard, y=it.y, z=it.z)
        y, z = solve_mf_bsde(backward, grid, noise, x, control=control, carrier=conditioning)
        return SolutionTriple(x=x, y=y, z=z)

    return _fixed_point(sweep, cur, ("y", "z"), tol, max_iter, accel_memory,
                        "decoupling iteration")


# ======================================================================
# Continuation in the blend parameter
# ======================================================================


@dataclass(frozen=True)
class ContinuationSchedule:
    """Homotopy schedule.

    ``step`` is the first blend increment; the default 1.0 tries the
    target model in one rung.  Each rung is one seed-preconditioned fixed
    point, run within ``picard_max_iter`` sweeps with ``accel_memory``
    Anderson history vectors.  ``picard_tol`` is the tolerance of the rung
    whose answer is returned: every rung without a polish, and the blend-1
    rung again after a rejected polish; a rung whose answer only warm-starts
    the next rung or the polish stops at ``max(picard_tol, 1e-4)`` (see
    :func:`solve_continuation`).  A failing rung is retried
    with its step halved; a rung accepted at the first try doubles the step
    for the next one (checkpoints hit 1 exactly).  ``max_halvings`` sets the
    minimum step ``step * 2**-max_halvings``: the run fails once a halving
    would go below it, so halving again after a growth spends nothing.
    ``inner_tol`` is the tolerance of the final plain decoupling polish at
    full blend and ``polish_max_iter`` caps its sweeps (0 disables it).
    Caps, halvings and memory are integers; tolerances are finite and
    positive.
    """

    step: float = 1.0
    inner_tol: float = 1e-6
    max_halvings: int = 8
    picard_tol: float = 1e-8
    picard_max_iter: int = 120
    accel_memory: int = 6
    polish_max_iter: int = 100

    def __post_init__(self):
        _check_fraction("continuation step", self.step)
        for name in ("inner_tol", "picard_tol"):
            _check_tol(name, getattr(self, name))
        for name, low in (("picard_max_iter", 1), ("max_halvings", 0),
                          ("accel_memory", 0), ("polish_max_iter", 0)):
            _check_cap(name, getattr(self, name), low)


def _blend_sources(model, tri, grid, weight, control) -> LinearInhomogeneity:
    """Weighted difference between the model and the canonical pair,
    evaluated on a frozen solution triple and packaged as additive sources.

    Because  a*coef + (1-a)*canonical = canonical + a*(coef - canonical),
    the a-blend of the model equals the canonical pair driven by these
    sources at weight a.
    """
    m = grid.steps
    n = tri.particles
    dt = grid.dt
    drift_src = np.empty((m, n))
    diff_src = np.empty((m, n))
    drv_src = np.empty((m, n))
    for k in range(m):
        own, law = _views(tri, k, control)
        b, s, f = _coefficients(model, k * dt, law, own, (n,))
        drift_src[k] = weight * (tri.y[k] + tri.y[k].mean() + b)
        diff_src[k] = weight * (tri.z[k] + tri.z[k].mean() + s)
        # enters the integrand as "- driver_source"
        drv_src[k] = -weight * (f - tri.x[k].mean() - tri.x[k])
    term_src = weight * (_terminal_values(model.terminal_map, tri.x[m]) - tri.x[m])
    return LinearInhomogeneity(
        drift_source=drift_src,
        diffusion_source=diff_src,
        driver_source=drv_src,
        terminal_shift=term_src,
    )


def _seed_iteration(
    model: CoupledModel,
    grid: TimeGrid,
    noise: BrownianPaths,
    weight: float,
    warm: SolutionTriple,
    tol: float,
    max_iter: int,
    memory: int,
    control: Optional[np.ndarray],
    guard: float,
    conditioning: Optional[np.ndarray] = None,
):
    """Solve the ``weight``-blend of the model by a seed-preconditioned
    fixed point, warm-started at ``warm``.

    Each sweep freezes the non-canonical bracket -- the weighted difference
    between the model coefficients and the canonical pair -- at the current
    iterate and solves the resulting sourced canonical system exactly with
    :func:`solve_linear_seed`.  Handling the stiff canonical core implicitly
    keeps the sweep map's spectrum small (it vanishes entirely at weight 0
    and for canonical-equal models); Anderson mixing covers blends whose
    bracket is not a plain contraction.  Every sweep's state path is
    checked against ``guard``.
    """

    def sweep(cur: SolutionTriple) -> SolutionTriple:
        inhom = _blend_sources(model, cur, grid, weight, control)
        if conditioning is not None:
            cond = conditioning
        else:
            cond = cur.x if float(np.ptp(cur.x)) > 0.0 else None
        out, _ = solve_linear_seed(
            inhom, grid, noise, x0=model.initial, conditioning=cond, guard=guard,
        )
        return out

    return _fixed_point(sweep, warm, ("x", "y", "z"), tol, max_iter, memory,
                        f"seed-preconditioned iteration at blend weight {weight:.3f}")


def solve_continuation(
    model: CoupledModel,
    grid: TimeGrid,
    noise: BrownianPaths,
    schedule: Optional[ContinuationSchedule] = None,
    control: Optional[np.ndarray] = None,
    guard: float = DEFAULT_GUARD,
    conditioning: Optional[np.ndarray] = None,
):
    """Homotopy continuation from the canonical pair to the target model.

    Starts from the constructive linear seed at blend 0, then climbs a
    ladder of rungs to blend 1, warm-starting each rung from the previous
    solution.  Each rung is solved directly by one seed-preconditioned fixed
    point at its blend weight (budget: ``picard_max_iter`` /
    ``accel_memory``).  Without a polish every rung runs to ``picard_tol``.
    With one, a rung's answer is only a warm start, for the next rung or
    for the polish, and the polish moves it by the O(dt) gap between the two
    discrete solutions; so every rung stops at the hand-over tolerance
    ``max(picard_tol, _HANDOVER_TOL)`` (1e-4), as inexact path following
    solves each step only as far as the next corrector needs.  The step
    starts at ``schedule.step`` (by default the whole way, so the target is
    solved in one fixed point).  If a rung does not converge, or a sweep
    leaves the guard region, it is retried with the step halved.  A rung
    accepted at the first try doubles the step for the next one, capped at
    the distance left; a rung accepted only after a halving keeps its step,
    so a model that needs short steps does not alternate between growing
    and failing.  Every route ends on
    the blend-1 fixed point (to solver tolerance), so the ladder sets the
    cost of a solve, not its answer (the step control and inexact steps of
    Allgower & Georg, *Introduction to Numerical Continuation Methods*,
    2003).  The step never goes below ``schedule.step * 2**-max_halvings``;
    a rung that fails at a step it cannot halve ends the run.

    ``guard`` bounds |X| on the seed solution, on every rung sweep and in
    the polish.  A seed outside it raises :class:`DivergenceError` (``blend``
    0.0) at once; a breach at a rung fails that rung, and once the step is
    at its minimum it is the ``__cause__`` of the final
    :class:`NonConvergenceError`, with ``blend`` the weight last attempted.
    A breach in the re-run after a rejected polish (below) carries ``blend``
    1.0.

    After full blend is reached, a decoupling polish (:func:`solve_picard`
    warm-started at the homotopy output with the schedule's Anderson
    memory, run to the schedule's ``inner_tol``) is attempted.  Where
    the — possibly accelerated — decoupling map converges, this lands the
    answer on the fixed point of the standard discrete scheme, so the two
    solver routes agree to solver tolerance there (the homotopy acting as
    a globalizer); without the acceleration the plain map's slow modes at
    longer horizons would stall the polish inside its budget and leave the
    O(dt)-different homotopy representation in place.  Where the map
    diverges outright the polish is rejected and the homotopy
    representation is returned: the blend-1 rung is run again, to
    ``picard_tol`` from the warm start it had (for a one-rung ladder this
    is the polish-off route's answer, bit for bit).  If that re-run fails,
    a :class:`NonConvergenceError` "failed at blend 1.000" carries the rung
    histories and the hand-over answer as ``last``, chained from the rung's
    error.  The attempt is recorded in the log either way.  The polish
    deliberately does not chase tolerances below ``inner_tol``: the
    decoupling map's regression noise modes carry a weak feedback
    instability, so it has a resolution-dependent change floor (around
    1e-7 at desk scales) below which sweeps no longer contract.

    ``conditioning`` supplies an external regression carrier for every
    backward sweep in the run (seed, levels, polish).  The default carrier
    is the evolving forward path itself, which is right for self-contained
    systems; equations driven by exogenous random data (frozen arrays from
    another trajectory) need the generating path here, since their own
    forward variable cannot explain those data and the carrier-feedback
    noise floor then sits far above the solver tolerances.

    Returns ``(SolutionTriple, log)``.  The log is a list of dicts:
    ``{"alpha": 0.0, "seed": True}``, then ``{"alpha", "changes"}`` per
    accepted rung (its sweep change norms), ``{"alpha", "halved_to"}`` per
    failed rung (``alpha`` where it started, ``halved_to`` the retry step),
    and ``{"alpha": 1.0, "polish"}`` holding the polish change norms or
    ``"rejected"`` when the polish runs.  After a rejected polish the
    blend-1 rung's record holds its re-run's norms as ``"changes"`` and its
    hand-over run's as ``"handover"``.
    """
    sched = schedule or ContinuationSchedule()
    polish = sched.polish_max_iter > 0
    handover = max(sched.picard_tol, _HANDOVER_TOL) if polish else sched.picard_tol

    def rung(weight, warm, tol):
        try:
            return _seed_iteration(
                model, grid, noise, weight=weight, warm=warm, tol=tol,
                max_iter=sched.picard_max_iter, memory=sched.accel_memory,
                control=control, guard=guard, conditioning=conditioning,
            )
        except DivergenceError as exc:
            exc.blend = weight
            raise

    def failed(reason):
        return NonConvergenceError(
            f"continuation failed at blend {alpha:.3f}: {reason}",
            history=[rec["changes"] for rec in log if "changes" in rec],
            last=cur,
        )

    try:
        cur, _ = solve_linear_seed(
            LinearInhomogeneity(), grid, noise, x0=model.initial,
            conditioning=conditioning, guard=guard,
        )
    except DivergenceError as exc:
        exc.blend = 0.0
        raise
    log: list = [{"alpha": 0.0, "seed": True}]
    alpha = 0.0
    delta = sched.step
    min_step = sched.step * 2.0 ** -sched.max_halvings
    retried = False
    while alpha < 1.0 - 1e-12:
        step = min(delta, 1.0 - alpha)
        start = cur  # the warm start of the last rung, kept for a re-run
        try:
            nxt, changes = rung(alpha + step, start, handover)
        except _RETRYABLE as exc:
            if step / 2.0 < min_step:
                raise failed(
                    f"the step cannot halve below {min_step:.4g} = step * "
                    f"2**-{sched.max_halvings} (last step {step:.4f}); raise "
                    f"max_halvings or picard_max_iter"
                ) from exc
            delta = step / 2.0
            retried = True
            log.append({"alpha": alpha, "halved_to": delta})
            continue
        alpha = alpha + step
        cur = nxt
        log.append({"alpha": alpha, "changes": changes})
        delta = step if retried else 2.0 * step
        retried = False
    if not polish:
        return cur, log
    try:
        polished, polish_hist = solve_picard(
            model,
            grid,
            noise,
            tol=sched.inner_tol,
            max_iter=sched.polish_max_iter,
            initial_guess=cur,
            accel_memory=sched.accel_memory,
            control=control,
            guard=guard,
            conditioning=conditioning,
        )
    except _RETRYABLE:
        pass  # a re-run starts only once this handler has let the polish's arrays go
    else:
        log.append({"alpha": 1.0, "polish": polish_hist})
        return polished, log
    if handover > sched.picard_tol:
        # the blend-1 rung is the answer now: run it again to picard_tol
        try:
            cur, changes = rung(alpha, start, sched.picard_tol)
        except _RETRYABLE as exc:
            raise failed(
                f"the polish was rejected and the blend-1 rung did not reach "
                f"picard_tol {sched.picard_tol:.1e} from its warm start"
            ) from exc
        log[-1]["handover"] = log[-1]["changes"]
        log[-1]["changes"] = changes
    log.append({"alpha": 1.0, "polish": "rejected"})
    return cur, log


# ======================================================================
# Discrete residuals
# ======================================================================


@dataclass(frozen=True)
class ResidualReport:
    """RMS of the pathwise discrete defects of a solution triple."""

    forward: float
    backward: float
    terminal: float

    def worst(self) -> float:
        return max(self.forward, self.backward, self.terminal)


def residual(
    model: CoupledModel,
    sol: SolutionTriple,
    grid: TimeGrid,
    noise: BrownianPaths,
) -> ResidualReport:
    """Pathwise defects of ``sol`` in the discrete equations.

    Per step k the forward defect is
    ``X[k+1] - X[k] - b dt - sigma dW`` and the backward defect is
    ``Y[k] - Y[k+1] - f dt + Z[k] dW`` (coefficients evaluated on the
    solution's own snapshot at k); the terminal defect is
    ``Y[M] - Phi(X[M])``.  Each is reported as an RMS over (step,
    particle).  Note the backward defect of a least-squares solution has an
    irreducible sampling floor whenever Y carries a genuine martingale
    part; it vanishes only for deterministic backward components.
    """
    dw = noise.increments
    m, n = dw.shape
    dt = grid.dt
    fwd = np.empty((m, n))
    bwd = np.empty((m, n))
    for k in range(m):
        own, law = _views(sol, k, None)
        b, s, f = _coefficients(model, k * dt, law, own, (n,))
        fwd[k] = sol.x[k + 1] - sol.x[k] - b * dt - s * dw[k]
        bwd[k] = sol.y[k] - sol.y[k + 1] - f * dt + sol.z[k] * dw[k]
    term = sol.y[m] - _terminal_values(model.terminal_map, sol.x[m])
    return ResidualReport(
        forward=float(np.sqrt(np.mean(np.square(fwd)))),
        backward=float(np.sqrt(np.mean(np.square(bwd)))),
        terminal=float(np.sqrt(np.mean(np.square(term)))),
    )
