"""Linear-quadratic control benchmarks with mean-field coupling.

Two fully worked linear-quadratic (LQ) problems exercise the control
machinery end to end:

* a *decoupled* problem (:func:`lq1_model`) whose forward equation does
  not read the backward pair, with cost
  ``J = E[ integral of v^2/2 + X_T^2/2 + Y_0^2/2 ]`` and terminal tie
  ``Y_T = X_T``;
* a *fully coupled* problem (:func:`lq2_model`) whose drift reads
  ``(E[Y], Y)``, whose diffusion reads ``(E[Z], Z)`` through the same
  antisymmetric cross pair that appears with the opposite sign in the
  drift's z-slots, and whose driver reuses the drift/diffusion x-slot
  coefficients in its y/z-slots.  That tied placement is the point of
  the example: it makes the forward monotonicity condition (H5) hold
  with constant ``C1 = min(driver_x, -drift_y, -diff_z)``, so the
  continuation solver is applicable for every admissible control.

Each problem is written once, as a term table (``LQ1Params._TERMS``,
``LQ2Params._TERMS``): per coefficient, its linear terms ``(sign, slot,
parameter)`` in the order the parameter docstring writes them.  The
coefficients, their partials, the (H6) multiplier encoding (one slot's
terms negated per coefficient) and the game of :func:`lq_game` are all
built from these tables.  Zero constants are dropped at construction: a
term whose signed parameter is the constant 0.0 enters neither its
coefficient nor its partials, and a driver with no term left is ``None``
(a zero driver), so the decoupled problem's backward sweeps evaluate no
driver and its adjoint and gradient multiply no zero partial.  A
parameter given as a time function stays in, even where it returns 0.

Both problems admit explicit candidate optimal controls obtained by
minimizing the control Hamiltonian pointwise in v.  Its slope is
``H_v = p*drift_control + q*diff_control - Q*driver_control + l*v``
with ``l`` the running-cost weight (1 for the decoupled problem), which
is affine in v, so its zero at frozen multipliers is the step
``u <- P(u - H_v / l)`` from any control u.  H_v is evaluated once, by
:func:`mfcontrol.smp_control.smp_gradient` from the model's declared
partials, for the candidate and for the stationarity check alike.

The candidate is implicit -- the multipliers are solved along the very
trajectory the candidate generates -- so :func:`lq1_candidate` and
:func:`lq2_candidate` solve the fixed point u = P(u - H_v(u) / l) by
Anderson mixing on the flattened control (memory 3, relaxation factor
``damping``, 0.5 by default).  The plain damped step is then a
preconditioned gradient step on the (strongly convex) cost; on these
fixtures the map is affine, where Anderson mixing acts like GMRES and
needs a few iterations where the damped step needs about twenty.  The
loop returns the control whose gap it measured, together with the state
and adjoint it solved there, and :func:`verify_example` certifies the
candidate on those solutions.

:func:`verify_example` bundles the whole optimality story into one
report: hypothesis certification (coupled problem), candidate
construction, stationarity of the control gradient, convexity-based
sufficiency, paired cost-deviation sampling, and (decoupled problem
only) independent recovery of the candidate by projected gradient
descent from zero.

The committed constant-coefficient instances are the package's standing
regression fixtures; their expected behaviors are pinned in the test
suite rather than in separate data files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    ConfigError,
    EnsembleConfig,
    NonConvergenceError,
    TimeGrid,
    _AndersonMixer,
    _check_cap,
    _check_fraction,
    _check_tol,
    make_time_grid,
    sample_brownian,
)
from mfcontrol.fbsde_solver import ContinuationSchedule, CoupledModel, SolutionTriple
from mfcontrol.games import GameModel
from mfcontrol.hypothesis_check import check_H4, check_H5, check_H6
from mfcontrol.smp_control import (
    _NUMERICAL_ZERO,
    _RESOLUTION_SES,
    _YZ_SLOTS,
    AdjointTriple,
    ControlModel,
    _check_sampling,
    _mean_se,
    _paired_deviations,
    _profile,
    _projected,
    _rms,
    _state_at,
    as_control,
    check_sufficiency,
    cost,
    identity_projection,
    projected_gradient_descent,
    smp_gradient,
    solve_adjoint,
    solve_state,
)

__all__ = [
    "LQ1Params",
    "LQ2Params",
    "DeviationReport",
    "VerifyConfig",
    "VerificationReport",
    "lq1_model",
    "lq1_candidate",
    "lq2_model",
    "lq2_fbsde",
    "lq2_adjoint_fbsde",
    "lq2_candidate",
    "deviation_check",
    "variational_margin",
    "verify_example",
    "lq_game",
]

ScalarFn = Union[float, Callable[[float], float]]


# ======================================================================
# Coefficient plumbing
# ======================================================================


def _as_fn(c: ScalarFn) -> Callable[[float], float]:
    if callable(c):
        return c
    val = float(c)
    return lambda t: val


def _coef_fns(params) -> dict:
    """Every time-dependent coefficient of ``params`` (its fields annotated
    ``ScalarFn``, in declaration order): its float value when it is
    constant, its time function otherwise."""
    coefs = {f.name: getattr(params, f.name) for f in fields(params) if f.type == "ScalarFn"}
    return {name: c if callable(c) else float(c) for name, c in coefs.items()}


def _signed(sign: float, c):
    """A term's signed parameter ``sign * c``, folded into a float once
    when ``c`` is constant, the time function ``t -> sign * c(t)``
    otherwise."""
    if type(c) is float:
        return sign * c
    return lambda t: sign * c(t)


def _live(terms, fns: dict) -> list:
    """``(signed parameter, slot)`` of each term of ``terms`` in table
    order, leaving out every term whose signed parameter is the constant
    float 0.0 (either sign); a time function stays in, even where it
    returns 0."""
    signed = ((_signed(sign, fns[name]), slot) for sign, slot, name in terms)
    return [(c, slot) for c, slot in signed if not (type(c) is float and c == 0.0)]


def _zeros(t, law, own, *controls):
    return np.zeros(np.shape(own.x))


def _linear(name: str, terms, fns: dict, control):
    """Coefficient ``name`` of a term table: the sum of ``sign * c(t) *
    slot`` over ``terms``, added left to right as written (a sign of +-1
    scales exactly, so the sum rounds as the written formula does).
    ``law_*`` slots read ``law``, the others ``own``, and ``v`` reads
    ``control(t, own, *controls)``; the trailing ``controls`` are a game's
    (v1, v2).

    Zero constants are dropped at construction (:func:`_live`).  With a
    finite slot value w, leaving out an addend ``c * w`` with ``c == +-0.0``
    can change a sum only where that sum is an exact zero, and then only
    that zero's sign; non-finite paths never get here (the Euler guard and
    the regression's condition check reject them).  A driver with no term
    left is ``None``, which every model reads as a zero driver, so the
    backward sweep evaluates none; a drift or diffusion with no term left
    returns zeros of the ensemble's shape."""

    reads = [(c, slot.startswith("law_"), slot.removeprefix("law_"))
             for c, slot in _live(terms, fns)]
    if not reads:
        return None if name == "driver" else _zeros

    def coefficient(t, law, own, *controls):
        v = control(t, own, *controls)
        total = None
        for c, on_law, var in reads:
            if type(c) is not float:
                c = c(t)
            term = c * (v if var == "v" else getattr(law if on_law else own, var))
            total = term if total is None else total + term
        return total

    return coefficient


def _slopes(terms, fns: dict) -> dict:
    """The partials of a term table's coefficient: each live term's
    signed parameter (:func:`_live`; a zero constant is dropped at
    construction, as an undeclared partial is zero), constant in the
    state, under its slot, returned as a float (which the output contract
    of :mod:`mfcontrol.core` accepts)."""

    def flat(c):
        if type(c) is float:
            return lambda t, law, own, *controls: c
        return lambda t, law, own, *controls: float(c(t))

    return {slot: flat(c) for c, slot in _live(terms, fns)}


def _negate(terms, var: Optional[str]) -> tuple:
    """``terms`` with the signs of the ``var`` and ``law_var`` slots flipped
    (none when ``var`` is ``None``)."""

    return tuple(
        (-sign if slot.removeprefix("law_") == var else sign, slot, name)
        for sign, slot, name in terms
    )


def _check_bounded(name: str, c: ScalarFn, horizon: float) -> np.ndarray:
    fn = _as_fn(c)
    ts = np.linspace(0.0, horizon, 65)
    vals = np.array([float(fn(t)) for t in ts])
    if not np.all(np.isfinite(vals)):
        raise ConfigError(
            f"coefficient '{name}' must be finite on [0, {horizon}]"
        )
    return vals


def _check_params(params) -> dict:
    """Both parameter sets' checks of the horizon, x0 and boundedness;
    returns each coefficient's samples on the horizon, by name."""
    if not (np.isfinite(params.horizon) and params.horizon > 0.0):
        raise ConfigError(f"horizon must be positive, got {params.horizon}")
    if not np.isfinite(params.x0):
        raise ConfigError(f"x0 must be finite, got {params.x0}")
    return {name: _check_bounded(name, c, params.horizon) for name, c in _coef_fns(params).items()}


def _check_sign(name: str, vals: np.ndarray, positive: bool) -> None:
    if positive and vals.min() <= 0.0:
        raise ConfigError(
            f"coefficient '{name}' must be > 0 on [0, T]; "
            f"sampled minimum {vals.min():g}"
        )
    if not positive and vals.max() >= 0.0:
        raise ConfigError(
            f"coefficient '{name}' must be < 0 on [0, T]; "
            f"sampled maximum {vals.max():g}"
        )


# ======================================================================
# Parameter sets (committed fixtures as defaults)
# ======================================================================


@dataclass(frozen=True)
class LQ1Params:
    """Coefficients of the decoupled LQ problem.

    Forward:  dX = (drift_mean_x*E[X] + drift_x*X + drift_control*v) dt
                 + (diff_mean_x*E[X] + diff_x*X + diff_control*v) dW
    Backward: -dY = (driver_mean_x*E[X] + driver_x*X
                     + driver_mean_y*E[Y] + driver_y*Y
                     + driver_mean_z*E[Z] + driver_z*Z
                     + driver_control*v) dt - Z dW,   Y_T = X_T.

    Cost: E[ integral of v^2/2 dt + X_T^2/2 + Y_0^2/2 ].

    All coefficients are floats or bounded deterministic functions of
    time.  The defaults are the committed constant-coefficient fixture.
    """

    drift_mean_x: ScalarFn = 0.1
    drift_x: ScalarFn = -0.3
    drift_control: ScalarFn = 1.0
    diff_mean_x: ScalarFn = 0.0
    diff_x: ScalarFn = 0.2
    diff_control: ScalarFn = 0.5
    driver_mean_x: ScalarFn = 0.0
    driver_x: ScalarFn = 0.0
    driver_mean_y: ScalarFn = 0.0
    driver_y: ScalarFn = 0.0
    driver_mean_z: ScalarFn = 0.0
    driver_z: ScalarFn = 0.0
    driver_control: ScalarFn = 0.0
    x0: float = 1.0
    horizon: float = 1.0

    # The formulas above, term by term: (sign, slot, parameter).  A slot
    # is a partial-derivative key: a mean "law_*", an own value, or "v".
    _TERMS = {
        "drift": ((1.0, "law_x", "drift_mean_x"), (1.0, "x", "drift_x"),
                  (1.0, "v", "drift_control")),
        "diffusion": ((1.0, "law_x", "diff_mean_x"), (1.0, "x", "diff_x"),
                      (1.0, "v", "diff_control")),
        "driver": ((1.0, "law_x", "driver_mean_x"), (1.0, "x", "driver_x"),
                   (1.0, "law_y", "driver_mean_y"), (1.0, "y", "driver_y"),
                   (1.0, "law_z", "driver_mean_z"), (1.0, "z", "driver_z"),
                   (1.0, "v", "driver_control")),
    }

    def validate(self) -> None:
        _check_params(self)


@dataclass(frozen=True)
class LQ2Params:
    """Coefficients of the fully coupled LQ problem.

    Forward drift:      drift_mean_x*E[X] + drift_x*X
                        + drift_mean_y*E[Y] + drift_y*Y
                        + cross_mean*E[Z] + cross*Z + drift_control*v
    Forward diffusion:  diff_mean_x*E[X] + diff_x*X
                        - cross_mean*E[Y] - cross*Y
                        + diff_mean_z*E[Z] + diff_z*Z + diff_control*v
    Backward driver:    driver_mean_x*E[X] + driver_x*X
                        + drift_mean_x*E[Y] + drift_x*Y
                        + diff_mean_x*E[Z] + diff_x*Z + driver_control*v
    Terminal tie:       Y_T = terminal_gain * X_T.

    Cost: E[ integral of control_weight*v^2/2 dt ]
          + E[ terminal_weight*X_T^2 + initial_weight*Y_0^2 ].

    Note three deliberate coefficient reuses: the ``cross`` pair enters
    the drift's z-slots with ``+`` and the diffusion's y-slots with
    ``-``; the drift x-coefficients double as the driver y-coefficients;
    the diffusion x-coefficients double as the driver z-coefficients.
    Together with the sign pattern (driver_x pair > 0; drift_y and
    diff_z pairs < 0) this makes the forward monotonicity condition (H5)
    hold with C1 = min over time of (driver_x, -drift_y, -diff_z) --
    every cross term cancels in the monotonicity pairing, either
    pointwise or under the ensemble mean.

    The defaults are the committed constant-coefficient fixture, for
    which C1 = 0.1 and the terminal constant is terminal_gain = 1.
    """

    driver_mean_x: ScalarFn = 0.2
    driver_x: ScalarFn = 0.2
    drift_mean_y: ScalarFn = -0.2
    drift_y: ScalarFn = -0.2
    diff_mean_z: ScalarFn = -0.1
    diff_z: ScalarFn = -0.1
    cross_mean: ScalarFn = 0.3
    cross: ScalarFn = 0.3
    drift_mean_x: ScalarFn = 0.1
    drift_x: ScalarFn = 0.1
    diff_mean_x: ScalarFn = 0.1
    diff_x: ScalarFn = 0.1
    drift_control: ScalarFn = 0.1
    diff_control: ScalarFn = 0.1
    driver_control: ScalarFn = 0.1
    terminal_gain: float = 1.0
    terminal_weight: float = 0.5
    initial_weight: float = 0.5
    control_weight: ScalarFn = 1.0
    x0: float = 1.0
    horizon: float = 1.0

    _POSITIVE = ("driver_mean_x", "driver_x")
    _NEGATIVE = ("drift_mean_y", "drift_y", "diff_mean_z", "diff_z")
    # The formulas above, term by term, as in LQ1Params._TERMS.
    _TERMS = {
        "drift": ((1.0, "law_x", "drift_mean_x"), (1.0, "x", "drift_x"),
                  (1.0, "law_y", "drift_mean_y"), (1.0, "y", "drift_y"),
                  (1.0, "law_z", "cross_mean"), (1.0, "z", "cross"),
                  (1.0, "v", "drift_control")),
        "diffusion": ((1.0, "law_x", "diff_mean_x"), (1.0, "x", "diff_x"),
                      (-1.0, "law_y", "cross_mean"), (-1.0, "y", "cross"),
                      (1.0, "law_z", "diff_mean_z"), (1.0, "z", "diff_z"),
                      (1.0, "v", "diff_control")),
        "driver": ((1.0, "law_x", "driver_mean_x"), (1.0, "x", "driver_x"),
                   (1.0, "law_y", "drift_mean_x"), (1.0, "y", "drift_x"),
                   (1.0, "law_z", "diff_mean_x"), (1.0, "z", "diff_x"),
                   (1.0, "v", "driver_control")),
    }

    def validate(self) -> None:
        samples = _check_params(self)
        for name in self._POSITIVE:
            _check_sign(name, samples[name], positive=True)
        for name in self._NEGATIVE:
            _check_sign(name, samples[name], positive=False)
        for name, val in (
            ("terminal_gain", self.terminal_gain),
            ("terminal_weight", self.terminal_weight),
            ("initial_weight", self.initial_weight),
        ):
            if not (np.isfinite(val) and val > 0.0):
                raise ConfigError(f"'{name}' must be > 0, got {val}")
        if samples["control_weight"].min() <= 1e-12:
            raise ConfigError(
                "'control_weight' must be bounded away from zero; sampled "
                f"minimum {samples['control_weight'].min():g}"
            )


# ======================================================================
# Model builders
# ======================================================================


def _own_control(t, own):
    return own.u


def _coupled(params, fns: dict) -> bool:
    """Whether the drift or the diffusion of ``params._TERMS`` keeps a term
    (:func:`_live`) in a y or z slot, so that the state system is coupled."""
    return any(slot in _YZ_SLOTS for name in ("drift", "diffusion")
               for _, slot in _live(params._TERMS[name], fns))


def _lq_model(params, gain: float, terminal_weight: float, initial_weight: float,
              control_weight: ScalarFn) -> ControlModel:
    """Control model of ``params._TERMS`` with terminal tie ``Y_T = gain*X_T``
    and the cost of the :class:`LQ2Params` docstring at these weights;
    coupled when the tables' drift or diffusion reads y or z
    (:func:`_coupled`)."""

    fns = _coef_fns(params)
    gain = float(gain)
    wt, wi = float(terminal_weight), float(initial_weight)
    weight = _as_fn(control_weight)
    tables = params._TERMS.items()
    coefs = {name: _linear(name, terms, fns, _own_control) for name, terms in tables}
    partials = {name: slopes for name, terms in tables if (slopes := _slopes(terms, fns))}
    partials["running_cost"] = {"v": lambda t, law, own: weight(t) * own.u}
    return ControlModel(
        **coefs,
        terminal_map=lambda x: gain * x,
        running_cost=lambda t, law, own: 0.5 * weight(t) * own.u**2,
        terminal_cost=lambda x: wt * x**2,
        initial_cost=lambda y: wi * y**2,
        partials=partials,
        terminal_slope=lambda x: gain,
        terminal_cost_slope=lambda x: 2.0 * wt * x,
        initial_cost_slope=lambda y: 2.0 * wi * y,
        project=identity_projection,
        initial=params.x0,
        coupled=_coupled(params, fns),
    )


def lq1_model(params: LQ1Params) -> ControlModel:
    """Control model of the decoupled LQ problem.

    The Hamiltonian's control slope is
    ``H_v = p*drift_control + q*diff_control - Q*driver_control + v``,
    whose zero is the candidate feedback of :func:`lq1_candidate`.  Gain 1
    and weights 1/2 round exactly as the written ``X_T`` and halved squares.
    Zero constants are dropped at construction (:func:`_linear`): at the
    defaults the driver is ``None`` and the diffusion has no ``law_x``
    term or partial.

    Raises
    ------
    ConfigError
        If any coefficient function is unbounded (non-finite) on the
        horizon.
    """

    params.validate()
    return _lq_model(params, 1.0, 0.5, 0.5, 1.0)


def lq2_model(params: LQ2Params) -> ControlModel:
    """Control model of the fully coupled LQ problem (sign-validated).

    The Hamiltonian's control slope is
    ``H_v = p*drift_control + q*diff_control - Q*driver_control
    + control_weight*v``, whose zero is the candidate feedback of
    :func:`lq2_candidate`.

    Raises
    ------
    ConfigError
        If a coefficient is unbounded, or the sign pattern that makes
        the forward monotonicity condition (H5) hold is violated; the
        message names the offending coefficient.
    """

    params.validate()
    return _lq_model(
        params, params.terminal_gain, params.terminal_weight, params.initial_weight,
        params.control_weight,
    )


def lq2_fbsde(params: LQ2Params, control: ScalarFn = 0.0) -> CoupledModel:
    """State system of the coupled problem at a frozen deterministic
    control, as a plain coupled model.

    Intended for the certification probes (check_H4 / check_H5) and for
    direct solver runs at a fixed control.  No sign validation happens
    here: the probes must be able to evaluate the encoding for parameter
    sets that *violate* the sign pattern -- detecting that is their job.
    """

    return _lq2_encoding(params, control, {}, 1.0, params.x0)


#: the slot negated in each coefficient of the (H6) multiplier encoding
_ADJOINT_NEGATED = {"drift": "y", "diffusion": "z", "driver": "x"}


def lq2_adjoint_fbsde(params: LQ2Params) -> CoupledModel:
    """Multiplier system of the coupled problem as a plain coupled model
    (forward slot = Q, backward pair = (p, q)).

    This is the encoding the mirrored monotonicity probe (check_H6)
    certifies: the state coefficients at zero control with one slot
    negated each (drift in y, diffusion in z, driver in x), whose pairing
    equals the negated state pairing, so the state-side constant C1
    transfers with its sign flipped.  The exogenous terminal shift
    ``2*terminal_weight*X_T`` affects only the location of the solution,
    not differences, so the terminal map here carries just the
    ``-terminal_gain`` slope that difference-based probes see.
    """

    return _lq2_encoding(params, 0.0, _ADJOINT_NEGATED, -1.0, 0.0)


def _lq2_encoding(params: LQ2Params, control: ScalarFn, negated: dict, sign: float,
                  initial: float) -> CoupledModel:
    """``params._TERMS`` as a plain coupled model at the deterministic
    ``control`` (checked finite on the horizon), each coefficient with its
    ``negated`` slot's sign flipped (:func:`_negate`; none when absent), the
    terminal map ``sign * terminal_gain * x`` and the initial value
    ``initial``.  The parameters are checked, but not their signs."""

    _check_params(params)
    ctrl = _as_fn(control)
    _check_bounded("control", ctrl, params.horizon)
    fns = _coef_fns(params)
    gain = sign * float(params.terminal_gain)
    return CoupledModel(
        **{name: _linear(name, _negate(terms, negated.get(name)), fns, lambda t, own: ctrl(t))
           for name, terms in params._TERMS.items()},
        terminal_map=lambda x: gain * x,
        initial=initial,
    )


# ======================================================================
# Candidate fixed points
# ======================================================================


#: Anderson memory of the candidate iteration
CANDIDATE_MEMORY = 3


class _CandidateHistory(list):
    """The candidate iteration's per-iteration records, carrying the state
    and adjoint solved at the returned control."""

    def __init__(self, records, state: SolutionTriple, adjoint: AdjointTriple):
        super().__init__(records)
        self.state = state
        self.adjoint = adjoint


def _candidate_fixed_point(
    model: ControlModel,
    weight: ScalarFn,
    grid: TimeGrid,
    noise: BrownianPaths,
    damping: float,
    tol: float,
    max_iter: int,
    schedule: Optional[ContinuationSchedule],
):
    """Anderson iteration on u = P(u - H_v(u) / weight) from u = 0.

    Each iteration solves the state and adjoint at the current control u,
    takes the Hamiltonian's control slope H_v from :func:`smp_gradient`,
    proposes ``project(u - H_v / w)``, with w the running cost's curvature
    ``weight`` in v at the node times ``k * dt``, and measures the gap
    |proposal - u| in ensemble RMS.  On the LQ problems H_v = b_v p +
    sigma_v q - f_v Q + w v is affine in v, so the proposal is the
    Hamiltonian's pointwise minimizer at the frozen multipliers.  When the
    gap is at most ``tol`` it returns u, whose state and adjoint are then
    already solved.  Else the next control is the projection of the Anderson step on the flattened
    control (memory ``CANDIDATE_MEMORY``) with relaxation factor
    ``damping`` (:class:`mfcontrol.core._AndersonMixer`): u_bar + damping *
    r_bar in the mixed iterate and residual.  The first step has no history
    to mix, so it is the damped step (1 - damping) u + damping * proposal.
    On the LQ fixtures the map is affine, where Anderson mixing acts like
    GMRES (Walker & Ni 2011; Toth & Kelley 2015).

    The first iteration solves the state and adjoint cold; each later one
    warm-starts both from the previous iteration's solutions.  A coupled
    model runs the continuation's polish either way, from the linear seed
    in the first iteration and from the previous solution after it (see
    :func:`mfcontrol.smp_control.solve_state`).  Returns ``(u, history)``;
    the history is a list of ``{"iteration", "target_gap"}`` records whose
    ``state`` and ``adjoint`` attributes hold the solutions at u.  It needs
    ``0 < damping <= 1``, a finite ``tol`` > 0 and an integer ``max_iter``
    >= 1 (:class:`ConfigError` otherwise); running out of iterations raises
    :class:`NonConvergenceError` with the history and, as ``last``, the
    next control the iteration would have tried.
    """

    _check_fraction("damping", damping)
    _check_tol("tol", tol)
    _check_cap("max_iter", max_iter, 1)
    w = np.array([[float(_as_fn(weight)(k * grid.dt))] for k in range(grid.steps)])
    u = np.zeros((grid.steps, noise.particles))
    mixer = _AndersonMixer(CANDIDATE_MEMORY, relax=damping)
    history: List[dict] = []
    gap = np.inf
    state = adj = None
    for it in range(max_iter):
        state = solve_state(model, u, grid, noise, schedule, warm=state)
        adj = solve_adjoint(model, u, state, grid, noise, schedule, warm=adj)
        grad = smp_gradient(model, u, grid, noise, state=state, adjoint=adj)
        proposal = _projected(model, u - grad / w)
        gap = _rms(proposal - u)
        history.append({"iteration": it, "target_gap": float(gap)})
        if gap <= tol:
            return u, _CandidateHistory(history, state, adj)
        u = _projected(model, mixer.step(u.ravel(), proposal.ravel()).reshape(u.shape))
    raise NonConvergenceError(
        f"candidate fixed point did not reach rms tolerance {tol:g} in "
        f"{max_iter} iterations (last gap {gap:.3e})",
        history=history,
        last=u,
    )


def lq1_candidate(
    params: LQ1Params,
    grid: TimeGrid,
    noise: BrownianPaths,
    damping: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 200,
    schedule: Optional[ContinuationSchedule] = None,
):
    """Candidate optimal control of the decoupled LQ problem.

    Evaluates the pointwise Hamiltonian minimizer
    ``u = -(p*drift_control + q*diff_control - Q*driver_control)`` along
    its own trajectory by Anderson iteration from u = 0, with ``damping``
    as the relaxation factor (see :func:`_candidate_fixed_point`).

    Returns
    -------
    (control, history)
        The control array [steps, particles], whose gap is at most
        ``tol``, and the per-iteration gap history.  The history's
        ``state`` and ``adjoint`` attributes are the solutions at the
        returned control.

    Raises
    ------
    NonConvergenceError
        If the gap does not reach ``tol`` within ``max_iter``; the error
        carries the history and last iterate.
    """

    return _candidate_fixed_point(
        lq1_model(params), 1.0, grid, noise, damping, tol, max_iter, schedule,
    )


def lq2_candidate(
    params: LQ2Params,
    grid: TimeGrid,
    noise: BrownianPaths,
    damping: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 200,
    schedule: Optional[ContinuationSchedule] = None,
):
    """Candidate optimal control of the fully coupled LQ problem.

    Evaluates ``u = -(p*drift_control + q*diff_control
    - Q*driver_control) / control_weight`` by the same Anderson
    iteration as :func:`lq1_candidate`, with the same returns; the first
    iteration solves the coupled state and multiplier systems cold, by the
    continuation's polish from the linear seed (the continuation itself
    runs only if that polish fails), the later ones warm-start the polish
    from the previous iteration's solutions.
    """

    return _candidate_fixed_point(
        lq2_model(params), params.control_weight, grid, noise, damping, tol, max_iter, schedule,
    )


# ======================================================================
# Paired deviation sampling and variational margins
# ======================================================================


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of paired cost-deviation sampling around a candidate."""

    passed: bool
    n_deviations: int
    worst_margin: float
    worst_index: int
    records: List[dict] = field(repr=False, default_factory=list)


def deviation_check(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    n_deviations: int = 100,
    radius: float = 0.5,
    seed: int = 0,
    schedule: Optional[ContinuationSchedule] = None,
    state: Optional[SolutionTriple] = None,
) -> DeviationReport:
    """Paired-sample test that no sampled admissible perturbation beats
    the candidate beyond Monte Carlo resolution.

    Each deviation adds a random deterministic time profile (constant
    plus one Fourier mode, amplitude up to ``radius``) to the candidate,
    projects back onto the admissible set, re-solves the state (warm-started
    from the candidate's state), and compares costs *particle by particle*
    on the shared noise.  The deviation passes when

        mean(cost_dev - cost_cand) + 3 * SE >= 0,

    i.e. the perturbed control may beat the candidate only within three
    paired standard errors.  The report records every margin; ``passed``
    requires all of them to clear.  ``state`` is the candidate's state
    solution when the caller has it, as [M+1, N] paths (solved cold
    otherwise).  Raises
    :class:`ConfigError` for ``n_deviations < 1`` or a ``radius`` that is
    not finite and positive.
    """

    _check_sampling(n_deviations, radius)
    u = as_control(u, grid, noise.particles)
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED_0DE))
    state = _state_at(model, u, grid, noise, state, schedule)
    records = _paired_deviations(
        model, u, state, grid, noise, rng, n_deviations, radius, schedule
    )
    worst = min(records, key=lambda rec: rec["margin"])
    return DeviationReport(
        passed=bool(worst["margin"] >= 0.0),
        n_deviations=n_deviations,
        worst_margin=float(worst["margin"]),
        worst_index=worst["index"],
        records=records,
    )


def variational_margin(
    model: ControlModel,
    u,
    grid: TimeGrid,
    noise: BrownianPaths,
    n_trials: int = 50,
    radius: float = 0.5,
    seed: int = 0,
    atol: float = _NUMERICAL_ZERO,
) -> dict:
    """Variational-inequality margin with Monte Carlo error bars.

    For random admissible trials v, the optimality condition requires
    the pairing <gradient, v - u> to be nonnegative.  Each pairing is an
    ensemble mean of per-particle values, so the test passes when

        pairing + 3 * SE >= -atol    for every trial.

    The absolute floor matters at interior optima: there the candidate
    carries a deterministic truncation residual of order the fixed-point
    tolerance, shared by every particle, so the paired standard error
    collapses with it and ``+ 3 * SE`` alone cannot absorb it.  ``atol``
    is the numerical zero separating that from a genuine descent
    direction.

    Returns a dict with the worst trial's ``residual``, its ``se``, the
    worst ``margin`` (residual + 3*SE), and ``passed``.  Raises
    :class:`ConfigError` for ``n_trials < 1`` or a ``radius`` that is not
    finite and positive.
    """

    _check_sampling(n_trials, radius)
    u = as_control(u, grid, noise.particles)
    gradient = smp_gradient(model, u, grid, noise)
    rng = np.random.Generator(np.random.Philox(key=seed ^ 0x5EED_01F))
    worst = {"margin": np.inf}
    for i in range(n_trials):
        v = _projected(model, u + _profile(grid, rng, radius))
        mean, se = _mean_se(grid.dt * np.sum(gradient * (v - u), axis=0))
        margin = mean + _RESOLUTION_SES * se
        if margin < worst["margin"]:
            worst = {"trial": i, "residual": mean, "se": se, "margin": margin}
    worst["passed"] = bool(worst["margin"] >= -atol)
    worst["n_trials"] = n_trials
    return worst


# ======================================================================
# End-to-end verification
# ======================================================================


#: stationarity bound: gradient RMS at most this times max(1, |cost|)
STATIONARITY_TOL = 5e-3
#: descent-recovery iterations, and its control-RMS and relative-cost bounds
DESCENT_STEPS = 30
DESCENT_RMS_TOL = 5e-2
DESCENT_COST_TOL = 1e-2


@dataclass(frozen=True)
class VerifyConfig:
    """Sample budgets, seed and solver schedule of :func:`verify_example`.

    The candidate and :func:`deviation_check` run at their own defaults;
    the stage bounds are the module constants ``STATIONARITY_TOL``,
    ``DESCENT_STEPS``, ``DESCENT_RMS_TOL`` and ``DESCENT_COST_TOL``.
    """

    particles: int = 2048
    seed: int = 0
    n_deviations: int = 100
    sufficiency_samples: int = 20_000
    control_trials: int = 32
    hypothesis_samples: int = 20_000
    schedule: Optional[ContinuationSchedule] = None


@dataclass
class VerificationReport:
    """Consolidated optimality verification for one LQ example."""

    example: int
    passed: bool
    failing_stage: Optional[str]
    stages: List[dict]
    candidate_cost: Optional[float] = None
    gradient_rms: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "passed": self.passed,
            "failing_stage": self.failing_stage,
            "candidate_cost": self.candidate_cost,
            "gradient_rms": self.gradient_rms,
            "stages": self.stages,
        }


def verify_example(
    which: int,
    params=None,
    grid: Optional[TimeGrid] = None,
    cfg: Optional[VerifyConfig] = None,
) -> VerificationReport:
    """Run the full optimality verification pipeline for one example.

    Stages, in order (a failing stage short-circuits the rest):

    1. ``hypothesis`` (coupled example only): sampling certification of
       the joint Lipschitz bound (H4) and forward monotonicity (H5) on
       the state encoding, and of the mirrored condition (H6) on the
       multiplier encoding.  Runs *before* any sign gate so that
       sign-violating parameter sets fail here, with the failed
       condition named, rather than at model construction.
    2. ``candidate``: Anderson fixed-point construction of the explicit
       Hamiltonian-minimizing control (:func:`lq1_candidate` or
       :func:`lq2_candidate` at their defaults).  The later stages use the
       state and adjoint that the iteration solved at the returned
       control; none of them solves those again.
    3. ``stationarity``: the control gradient along the candidate must
       have ensemble RMS at most ``STATIONARITY_TOL * scale`` with
       scale = max(1, |cost|).
    4. ``sufficiency``: convexity spot checks plus pointwise Hamiltonian
       minimality (:func:`mfcontrol.smp_control.check_sufficiency`).
    5. ``deviations``: paired cost-deviation sampling
       (:func:`deviation_check` at its default radius).
    6. ``descent_recovery`` (decoupled example only): ``DESCENT_STEPS``
       of projected gradient descent from zero must land within
       ``DESCENT_RMS_TOL`` of the candidate in control RMS and within
       ``DESCENT_COST_TOL`` in relative cost.

    Parameters default to the committed fixtures; ``grid`` defaults to
    64 steps on the example's horizon.

    Returns a :class:`VerificationReport` whose ``stages`` list is
    JSON-ready.
    """

    if which not in (1, 2):
        raise ConfigError(f"'which' must be 1 or 2, got {which}")
    cfg = cfg or VerifyConfig()
    if params is None:
        params = LQ1Params() if which == 1 else LQ2Params()
    if grid is None:
        grid = make_time_grid(params.horizon, 64)
    noise = sample_brownian(
        grid, EnsembleConfig(particles=cfg.particles, seed=cfg.seed)
    )
    stages: List[dict] = []
    report = VerificationReport(
        example=which, passed=False, failing_stage=None, stages=stages
    )

    def record(name: str, passed: bool, **data) -> bool:
        """Append the stage's record; a failed stage becomes the failing one."""
        stages.append({"name": name, "passed": bool(passed), **data})
        if not passed:
            report.failing_stage = name
        return bool(passed)

    if which == 2:
        state_enc = lq2_fbsde(params)
        adj_enc = lq2_adjoint_fbsde(params)
        n_clouds = max(cfg.hypothesis_samples // 10, 100)
        h4 = check_H4(state_enc, n_samples=cfg.hypothesis_samples, seed=cfg.seed)
        h5 = check_H5(state_enc, n_samples=n_clouds, seed=cfg.seed)
        h6 = check_H6(adj_enc, n_samples=n_clouds, seed=cfg.seed)
        failed = [r.check for r in (h4, h5, h6) if not r.passed]
        if not record(
            "hypothesis", not failed, failed_checks=failed, lipschitz=h4.lipschitz,
            monotonicity=h5.monotonicity, terminal_monotonicity=h5.terminal_monotonicity,
            adjoint_monotonicity=h6.monotonicity,
        ):
            return report

    build, candidate = (lq1_model, lq1_candidate) if which == 1 else (lq2_model, lq2_candidate)
    try:
        model = build(params)
        u, hist = candidate(params, grid, noise, schedule=cfg.schedule)
    except (ConfigError, NonConvergenceError) as exc:
        record("candidate", False, error=str(exc))
        return report
    record("candidate", True, iterations=len(hist), final_gap=hist[-1]["target_gap"])

    state, adj = hist.state, hist.adjoint
    grad = smp_gradient(model, u, grid, noise, state=state, adjoint=adj)
    j_cand = cost(model, u, grid, noise, state=state)
    grad_rms = _rms(grad)
    report.candidate_cost = j_cand
    report.gradient_rms = grad_rms
    tol = STATIONARITY_TOL * max(1.0, abs(j_cand))
    if not record("stationarity", grad_rms <= tol, gradient_rms=grad_rms, tolerance=tol):
        return report

    suff = check_sufficiency(
        model, u, grid, noise, state=state, adjoint=adj,
        n_samples=cfg.sufficiency_samples, control_trials=cfg.control_trials,
        seed=cfg.seed,
    )
    if not record("sufficiency", suff.passed,
                  convexity={name: bool(rep.passed) for name, rep in suff.convexity.items()},
                  minimality_violations=int(suff.minimality_violations)):
        return report

    dev = deviation_check(
        model, u, grid, noise, n_deviations=cfg.n_deviations, seed=cfg.seed,
        schedule=cfg.schedule, state=state,
    )
    if not record("deviations", dev.passed, worst_margin=dev.worst_margin,
                  worst_index=dev.worst_index):
        return report

    if which == 1:
        u_desc, _ = projected_gradient_descent(
            model, 0.0, grid, noise, steps=DESCENT_STEPS, grad_tol=1e-10,
            schedule=cfg.schedule,
        )
        j_desc = cost(model, u_desc, grid, noise)
        rms_gap = _rms(u_desc - u)
        cost_gap = abs(j_desc - j_cand) / max(1.0, abs(j_cand))
        ok = rms_gap <= DESCENT_RMS_TOL and cost_gap <= DESCENT_COST_TOL
        if not record("descent_recovery", ok, control_rms_gap=rms_gap, relative_cost_gap=cost_gap):
            return report

    report.passed = True
    return report


# ======================================================================
# Two-player game built on an LQ problem
# ======================================================================


def lq_game(
    params: Optional[Union[LQ1Params, LQ2Params]] = None,
    coupling: float = 0.0,
    target: ScalarFn = 0.3,
) -> GameModel:
    """Two-player game wrapped around an LQ problem (the decoupled one by
    default).

    Player 1 plays the LQ problem's control: the shared state follows the
    dynamics of ``params`` in player 1's control, and player 1 pays
    ``v1^2/2`` running, ``X_T^2/2`` terminal and ``Y_0^2/2`` initial cost.
    Player 2 tracks the deterministic profile ``target`` with running
    cost ``(v2 - target)^2 / 2``.

    With ``coupling = 0`` the two subproblems are fully independent (the
    independent-copies reference game): player 2's control never enters
    the dynamics, player 2's cost never reads the state, and the
    equilibrium is exactly (LQ optimum, target) -- one undamped best
    response from any admissible pair.  With ``coupling > 0`` player 2's
    control pushes the drift with weight ``coupling * drift_control``
    and player 2 additionally pays ``coupling * X_T^2``, so the players
    genuinely interact while the uncoupled equilibrium remains an
    O(coupling) starting guess.

    The game reads these fields of ``params``: the coefficients of its
    term tables (the control slopes included), ``x0``, ``horizon`` and,
    of :class:`LQ2Params`, ``terminal_gain`` (the tie Y_T = terminal_gain
    X_T; Y_T = X_T for :class:`LQ1Params`).  It does not read LQ2's cost
    weights, since the players' costs are the ones above.  The shared
    coefficients are the term tables with zero constants dropped at
    construction, as in :func:`lq1_model`: at the LQ1 defaults the game's
    driver is ``None``, and a zero slope, with player 2's drift slope when
    ``drift_control`` is a zero constant, is left out of the partials.
    The game is coupled when the tables' drift or diffusion reads y or z,
    as LQ2's does, and decoupled otherwise.
    """

    params = params or LQ1Params()
    params.validate()
    if not (np.isfinite(coupling) and coupling >= 0.0):
        raise ConfigError(f"coupling must be >= 0, got {coupling}")
    _check_bounded("target", target, params.horizon)
    fns = _coef_fns(params)
    tgt = _as_fn(target)
    kw = float(coupling)
    gain = float(getattr(params, "terminal_gain", 1.0))
    coefs, partials = {}, {}
    for name, terms in params._TERMS.items():
        if name == "drift":  # player 2 pushes the drift only
            control = lambda t, own, v1, v2: v1 + kw * v2  # noqa: E731
        else:
            control = lambda t, own, v1, v2: v1  # noqa: E731
        coefs[name] = _linear(name, terms, fns, control)
        block = {"v1" if slot == "v" else slot: fn for slot, fn in _slopes(terms, fns).items()}
        if block:
            partials[name] = block
    drift_v1 = partials.get("drift", {}).get("v1")
    if kw and drift_v1 is not None:
        partials["drift"]["v2"] = lambda t, law, own, v1, v2: kw * drift_v1(t, law, own)
    partials["running_cost_1"] = {"v1": lambda t, law, own, v1, v2: v1}
    partials["running_cost_2"] = {"v2": lambda t, law, own, v1, v2: v2 - tgt(t)}

    zero = lambda arr: 0.0  # noqa: E731
    return GameModel(
        **coefs,
        terminal_map=lambda x: gain * x,
        running_cost_1=lambda t, law, own, v1, v2: 0.5 * v1**2,
        running_cost_2=lambda t, law, own, v1, v2: 0.5 * (v2 - tgt(t)) ** 2,
        terminal_cost_1=lambda x: 0.5 * x**2,
        terminal_cost_2=(lambda x: kw * x**2) if kw else zero,
        initial_cost_1=lambda y: 0.5 * y**2,
        initial_cost_2=zero,
        partials=partials,
        terminal_slope=lambda x: gain,
        terminal_cost_slope_1=lambda x: x,
        terminal_cost_slope_2=(lambda x: 2.0 * kw * x) if kw else zero,
        initial_cost_slope_1=lambda y: y,
        initial_cost_slope_2=zero,
        initial=params.x0,
        coupled=_coupled(params, fns),
    )
