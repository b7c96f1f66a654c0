"""Mean-field BSDE solver via least-squares Monte Carlo.

Backward recursion on the particle ensemble for

    Y_t = xi + int_t^T fbar(s, law(Y,Z), Y_s, Z_s) ds - int_t^T Z_s dW_s,

where ``fbar`` may depend on the law (empirical means) of (X, Y, Z) and on a
frozen conditioning path X.  One step of the scheme:

    Ey[k] = Reg[ Y[k+1] | X[k] ]
    Z[k]  = Reg[ (Y[k+1] - Ey[k]) * dW[k] | X[k] ] / dt
    Y[k]  = Ey[k]  +  fbar(t_k, ...) * dt

with conditional expectations fitted by ridge-regularized polynomial
regression on the conditioning state, and the implicit (Y[k], Z[k]) inside
``fbar`` handled by a predictor (values at k+1) and one corrector pass.
Subtracting the fitted level Ey[k] from the integrand targets changes nothing
in the estimated conditional expectation (the shift is state-measurable, so
its true conditional product with the increment is zero) but removes the
level of Y from the target variance: the integrand estimate then degrades
with the conditional spread of Y[k+1], not with its magnitude, and a constant
terminal yields Z = 0 exactly.  The terminal Z node is not identified by the
scheme and is set to Z[M-1].

Each sweep builds its regression plan before the node loop: the features of
every node in one ``basis.features`` call on the carrier stack [M, N], the
Gram stack [M, B, B], and the ridge-escalated normal matrices of every node in
one batched pass (one batched condition-number evaluation, then re-evaluation
of only the nodes that still fail the limit).  The node loop hands each node's
matrix to :func:`regress_conditional_expectation` as ``normal=`` and does only
the Y solve, the Z solve and the driver.  The plan changes no arithmetic: the
sweep equals the per-node fits exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    ConfigError,
    RegressionError,
    StateView,
    TimeGrid,
    _mean,
)

__all__ = [
    "RegressionBasis",
    "default_polynomial_basis",
    "regress_conditional_expectation",
    "BackwardModel",
    "solve_mf_bsde",
]

#: ridge escalation: multiply by 10 at most this many times before giving up
MAX_RIDGE_ESCALATIONS = 8
#: normal-equation condition number beyond which a fit is rejected
COND_LIMIT = 1e12


def _check_ridge(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{what} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class RegressionBasis:
    """Feature map for conditional-expectation regressions.

    ``features(x)`` maps conditioning snapshots [..., N] to design matrices
    [..., N, B], treating each snapshot along the last axis on its own, so
    ``features(stack)[k]`` equals ``features(stack[k])``.  ``ridge_scale``
    (finite, >= 0) sets the ridge weight lambda = ridge_scale * N.
    """

    features: Callable[[np.ndarray], np.ndarray]
    size: int
    ridge_scale: float = 1e-8
    name: str = "basis"

    def __post_init__(self):
        if not self.size >= 1:
            raise ConfigError(f"basis size must be >= 1, got {self.size}")
        _check_ridge(self.ridge_scale, "ridge_scale")


def default_polynomial_basis(degree: int = 3, ridge_scale: float = 1e-8) -> RegressionBasis:
    """Constant plus polynomials up to ``degree`` in the standardized state.

    Each snapshot (the last axis of ``x``) is standardized by its own mean
    and spread; a constant snapshot is only centered.  Standardizing keeps
    the normal equations well-scaled without changing what the basis can
    represent.
    """
    if degree < 0:
        raise ConfigError(f"degree must be >= 0, got {degree}")

    def features(x: np.ndarray) -> np.ndarray:
        # x.std() and polyvander(z, degree), written out to skip their
        # temporaries on a whole carrier stack: the centered values and
        # their squares are built in the rows that later hold z and z**2;
        # the values are the same bits
        powers = np.empty((degree + 1,) + x.shape)
        powers[0] = 1.0
        if degree:
            centered = np.subtract(x, x.mean(axis=-1, keepdims=True), out=powers[1])
            squares = np.multiply(centered, centered, out=powers[2] if degree > 1 else None)
            spread = np.sqrt(np.add.reduce(squares, axis=-1, keepdims=True) / x.shape[-1])
            np.divide(centered, np.where(spread > 0.0, spread, 1.0), out=centered)
        for i in range(2, degree + 1):
            np.multiply(powers[i - 1], powers[1], out=powers[i])
        return np.moveaxis(powers, 0, -1)

    return RegressionBasis(
        features=features,
        size=degree + 1,
        ridge_scale=ridge_scale,
        name=f"poly{degree}",
    )


def _condition_numbers(stack: np.ndarray) -> np.ndarray:
    """2-norm condition numbers of a stack [S, B, B]; a system with a
    non-finite entry (a NaN or inf in its carrier) counts as inf instead of
    failing the SVD."""
    cond = np.full(len(stack), np.inf)
    finite = np.isfinite(stack).all(axis=(1, 2))
    if finite.any():
        cond[finite] = np.linalg.cond(stack[finite])
    return cond


def _ridge_escalated_normals(gram: np.ndarray, ridge: float) -> np.ndarray:
    """Normal matrices gram + lambda I for a Gram stack [..., B, B].

    Every system starts at lambda = ``ridge``; a system whose condition
    number is non-finite or above ``COND_LIMIT`` has its own lambda
    multiplied by 10, at most ``MAX_RIDGE_ESCALATIONS`` times, after which a
    :class:`RegressionError` carries the worst condition number left.
    """
    b = gram.shape[-1]
    stack = gram.reshape(-1, b, b)
    eye = np.eye(b)
    lam = np.full(len(stack), float(ridge))
    normal = stack + lam[:, None, None] * eye
    cond = _condition_numbers(normal)
    todo = np.flatnonzero(~(np.isfinite(cond) & (cond <= COND_LIMIT)))
    for _ in range(MAX_RIDGE_ESCALATIONS):
        if todo.size == 0:
            break
        lam[todo] = np.maximum(lam[todo], 1e-300) * 10.0
        normal[todo] = stack[todo] + lam[todo, None, None] * eye
        cond[todo] = _condition_numbers(normal[todo])
        todo = todo[~(np.isfinite(cond[todo]) & (cond[todo] <= COND_LIMIT))]
    if todo.size:
        worst = float(cond[todo].max())
        raise RegressionError(
            f"conditional-expectation regression ill-conditioned (cond ~ {worst:.3e}) "
            f"even after {MAX_RIDGE_ESCALATIONS} ridge escalations",
            condition_number=worst,
        )
    return normal.reshape(gram.shape)


def regress_conditional_expectation(
    features: np.ndarray,
    targets: np.ndarray,
    ridge: float,
    normal: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Ridge-regularized least squares, returning basis coefficients.

    Solves (F'F + lambda I) c = F' targets; on an ill-conditioned system the
    ridge weight is escalated by factors of 10 (at most
    ``MAX_RIDGE_ESCALATIONS`` times) before a :class:`RegressionError` is
    raised carrying the offending condition number.  ``ridge`` must be
    finite and >= 0.

    ``targets`` may be [N] or [N, R] for several regressions sharing one
    design matrix.  ``normal`` [B, B], if given, is the escalated matrix
    F'F + lambda I already built for these features (as a sweep's regression
    plan builds it); the fit then only forms F' targets and solves, with the
    same result as without it.
    """
    _check_ridge(ridge, "ridge")
    f = np.asarray(features, dtype=float)
    if f.ndim != 2:
        raise ConfigError(f"features must be 2-d, got shape {f.shape}")
    if normal is None:
        normal = _ridge_escalated_normals(f.T @ f, ridge)
    elif normal.shape != (f.shape[1], f.shape[1]):
        raise ConfigError(
            f"normal has shape {normal.shape}, expected {(f.shape[1], f.shape[1])}"
        )
    try:
        return np.linalg.solve(normal, f.T @ np.asarray(targets, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise RegressionError(
            f"conditional-expectation regression failed: {exc}",
            condition_number=np.inf,
        ) from exc


Terminal = Union[np.ndarray, float, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class BackwardModel:
    """Driver and terminal condition of a mean-field BSDE.

    ``driver(t, law, own)`` is vectorized over particles with slots
    (x, y, z, u) populated in both views; ``None`` means a zero driver.
    ``terminal`` is an array [N], a float, or a map of the terminal
    conditioning state.
    """

    driver: Optional[Callable[[float, StateView, StateView], np.ndarray]]
    terminal: Terminal


def _terminal_values(terminal: Terminal, x_last: np.ndarray) -> np.ndarray:
    """Terminal values at the states ``x_last``: a map applied to them, or
    a constant or array broadcast to their shape, which a map's output
    must match."""
    if callable(terminal):
        vals = np.asarray(terminal(x_last), dtype=float)
    else:
        vals = np.asarray(terminal, dtype=float)
        if vals.shape == x_last.shape or (vals.ndim <= 1 and vals.size == 1):
            vals = np.broadcast_to(vals, x_last.shape).astype(float)
    if vals.shape != x_last.shape:
        raise ConfigError(f"terminal values have shape {vals.shape}, expected {x_last.shape}")
    return vals


def solve_mf_bsde(
    model: BackwardModel,
    grid: TimeGrid,
    noise: BrownianPaths,
    conditioning: np.ndarray,
    basis: Optional[RegressionBasis] = None,
    control: Optional[np.ndarray] = None,
    carrier: Optional[np.ndarray] = None,
):
    """Backward least-squares Monte Carlo sweep.

    Parameters
    ----------
    model : BackwardModel
    grid : TimeGrid
    noise : BrownianPaths
        Same increment block that generated the conditioning path.
    conditioning : array [M+1, N]
        Adapted path threaded into the driver's ``own.x`` / ``law.x`` slots
        and the terminal map (and regressed on, unless ``carrier`` is given).
    basis : RegressionBasis, optional
        Defaults to the standardized cubic-polynomial basis.  Its
        ``features`` map receives the carrier nodes 0..M-1 as one stack
        [M, N].
    control : array [M, N], optional
        Threaded into the driver's ``own.u`` / ``law.u`` slots.
    carrier : array [M+1, N], optional
        Separate adapted path for the conditional-expectation regressions.
        Useful when the equation's own forward variable is a poor carrier of
        the filtration (e.g. multiplier equations whose data are exogenous
        functionals of another state path).

    Returns
    -------
    (Y, Z) : arrays [M+1, N]
    """
    if basis is None:
        basis = default_polynomial_basis()
    dw = noise.increments
    m, n = dw.shape
    if m != grid.steps:
        raise ConfigError(f"noise has {m} steps but grid has {grid.steps}")
    if conditioning.shape != (m + 1, n):
        raise ConfigError(
            f"conditioning has shape {conditioning.shape}, expected {(m + 1, n)}"
        )
    if control is not None and control.shape != (m, n):
        raise ConfigError(f"control has shape {control.shape}, expected {(m, n)}")
    if carrier is None:
        carrier = conditioning
    elif carrier.shape != (m + 1, n):
        raise ConfigError(f"carrier has shape {carrier.shape}, expected {(m + 1, n)}")

    dt = grid.dt
    lam = basis.ridge_scale * n
    y = np.empty((m + 1, n))
    z = np.empty((m + 1, n))
    y[m] = _terminal_values(model.terminal, conditioning[m])

    # regression plan: every node's features and escalated normal matrix
    feats = basis.features(carrier[:m])
    if feats.shape != (m, n, basis.size):
        raise ConfigError(
            f"basis {basis.name!r} gave features of shape {feats.shape} for a "
            f"carrier stack of shape {(m, n)}; expected {(m, n, basis.size)}"
        )
    normals = _ridge_escalated_normals(np.swapaxes(feats, -1, -2) @ feats, lam)
    x_means = conditioning[:m].mean(axis=1)
    u_means = None if control is None else control.mean(axis=1)

    for k in range(m - 1, -1, -1):
        f_k, normal = feats[k], normals[k]
        ey = f_k @ regress_conditional_expectation(f_k, y[k + 1], lam, normal=normal)
        # integrand fit on level-centered targets (control variate: the
        # in-span shift leaves the estimand unchanged, kills the Y-level
        # component of the target noise)
        zfit = regress_conditional_expectation(
            f_k, (y[k + 1] - ey) * dw[k], lam, normal=normal
        )
        z[k] = (f_k @ zfit) / dt

        if model.driver is None:
            y[k] = ey
            continue

        t = k * dt
        x_k = conditioning[k]
        u_k = None if control is None else control[k]
        x_mean = float(x_means[k])
        z_mean = _mean(z[k])
        u_mean = None if u_means is None else float(u_means[k])
        y_val = y[k + 1]  # predictor: implicit Y evaluated at the k+1 values
        for _ in range(2):  # the predictor, then one corrector
            law = StateView(x=x_mean, y=_mean(y_val), z=z_mean, u=u_mean)
            own = StateView(x=x_k, y=y_val, z=z[k], u=u_k)
            y_val = ey + model.driver(t, law, own) * dt
        y[k] = y_val

    z[m] = z[m - 1]  # terminal integrand is not identified by the scheme
    return y, z
