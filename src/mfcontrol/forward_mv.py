"""Mean-field forward SDE simulation (explicit Euler-Maruyama).

The forward state follows

    dX_t = b(t, law(X_t), X_t) dt + sigma(t, law(X_t), X_t) dW_t,

with the law argument realized as the snapshot empirical mean taken at the
beginning of each step.  Coefficients are vectorized callables
``(t, law, own) -> array [N]`` (scalars broadcast); the optional control slot
``own.u`` is filled when a control array is threaded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    ConfigError,
    DivergenceError,
    EnsembleConfig,
    StateView,
    TimeGrid,
    _mean,
    make_time_grid,
    sample_brownian,
)

__all__ = [
    "ForwardModel",
    "simulate_forward",
    "resolve_initial",
    "MomentScalingReport",
    "moment_scaling_check",
]

#: guard radius: a path beyond this magnitude counts as divergent
DEFAULT_GUARD = 1e12

Coefficient = Callable[[float, StateView, StateView], np.ndarray]
Initial = Union[float, np.ndarray, Callable[[np.random.Generator, int], np.ndarray]]


@dataclass(frozen=True)
class ForwardModel:
    """Forward SDE coefficients plus the initial condition.

    ``initial`` may be a float (deterministic start), an array [N], or a
    sampler ``(rng, n) -> array [n]``.
    """

    drift: Coefficient
    diffusion: Coefficient
    initial: Initial = 0.0


def resolve_initial(initial: Initial, n: int, seed: int) -> np.ndarray:
    """Materialize an initial condition (float / array / sampler) as [N]."""
    if callable(initial):
        rng = np.random.Generator(np.random.Philox(key=seed + 0x5EED))
        x0 = np.asarray(initial(rng, n), dtype=float)
    else:
        x0 = np.asarray(initial, dtype=float)
        if x0.shape == (n,) or (x0.ndim <= 1 and x0.size == 1):  # checked before broadcasting
            x0 = np.broadcast_to(x0, (n,)).copy()
    if x0.shape != (n,):
        raise ConfigError(f"initial condition has shape {x0.shape}, expected ({n},)")
    return x0


def _check_guard(row: np.ndarray, k: int, guard: float) -> None:
    """Raise :class:`DivergenceError` if node ``k`` of a state path leaves
    the guard region (non-finite values count as leaving it)."""
    if not (np.abs(row).max() <= guard):
        i = int(np.abs(row).argmax())
        raise DivergenceError(k, i, row[i], guard)


class _LawView:
    """``view_means(own)`` taken lazily: each slot's mean is computed on its
    first read, with the same arithmetic, and kept; a slot that is ``None``
    in ``own`` reads ``None``.  A coefficient pays only for the means it
    reads."""

    __slots__ = ("_own", "x", "y", "z", "u")

    def __init__(self, own: StateView):
        self._own = own

    def __getattr__(self, slot):
        # reached only while ``slot`` is unset
        if slot not in ("x", "y", "z", "u"):
            raise AttributeError(slot)
        v = getattr(self._own, slot)
        v = None if v is None else _mean(v)
        setattr(self, slot, v)
        return v


def _views(tri, k: int, control: Optional[np.ndarray]):
    """``(own, law)`` at node ``k`` of a path triple: ``own`` holds the
    slots of ``tri.x``, ``tri.y``, ``tri.z`` ([M+1, N] paths; y and z may be
    ``None``) and the control row (node M reads the last row), ``law``
    their means, each taken on its first read (:class:`_LawView`)."""
    u = None if control is None else control[min(k, len(control) - 1)]
    own = StateView(
        x=tri.x[k],
        y=None if tri.y is None else tri.y[k],
        z=None if tri.z is None else tri.z[k],
        u=u,
    )
    return own, _LawView(own)


def _euler(model, grid: TimeGrid, noise: BrownianPaths, control, guard: float,
           y: Optional[np.ndarray] = None, z: Optional[np.ndarray] = None) -> np.ndarray:
    """Euler-Maruyama pass for X with the backward paths ``y``, ``z`` frozen
    (``None`` leaves their slots empty); every node, the initial one
    included, is checked against ``guard``."""
    dw = noise.increments
    m, n = dw.shape
    dt = grid.dt
    x = np.empty((m + 1, n))
    x[0] = resolve_initial(model.initial, n, noise.seed)
    _check_guard(x[0], 0, guard)
    path = StateView(x=x, y=y, z=z)  # whole paths; x is filled node by node
    for k in range(m):
        own, law = _views(path, k, control)
        t = k * dt
        b = model.drift(t, law, own)
        s = model.diffusion(t, law, own)
        x[k + 1] = x[k] + b * dt + s * dw[k]
        _check_guard(x[k + 1], k + 1, guard)
    return x


def simulate_forward(
    model: ForwardModel,
    grid: TimeGrid,
    noise: BrownianPaths,
    control: Optional[np.ndarray] = None,
    guard: float = DEFAULT_GUARD,
) -> np.ndarray:
    """Euler-Maruyama particle simulation of a mean-field forward SDE.

    Parameters
    ----------
    model : ForwardModel
    grid : TimeGrid
    noise : BrownianPaths
        Scalar-driver increment block matching the grid.
    control : array [M, N], optional
        Threaded into the coefficients' ``own.u`` / ``law.u`` slots.
    guard : float
        Divergence guard; exceeding it raises :class:`DivergenceError`.

    Returns
    -------
    ndarray, shape [M+1, N]
    """
    dw = noise.increments
    m, n = dw.shape
    if m != grid.steps:
        raise ConfigError(f"noise has {m} steps but grid has {grid.steps}")
    if control is not None and control.shape != (m, n):
        raise ConfigError(f"control has shape {control.shape}, expected {(m, n)}")
    return _euler(model, grid, noise, control, guard)


# ----------------------------------------------------------------------
# Small-time moment scaling diagnostic
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MomentScalingReport:
    """Log-log slope of E[sup_{s<=delta} |X_s - X_0|^p] against delta."""

    exponent: float
    horizons: tuple
    moments: tuple
    slope: Optional[float]
    expected_slope: float
    degenerate: bool


def moment_scaling_check(
    model: ForwardModel,
    exponent: float,
    horizons: Sequence[float],
    cfg: EnsembleConfig,
) -> MomentScalingReport:
    """Estimate the small-time growth rate of the p-th running-sup moment.

    For each horizon delta the model is simulated on a fresh 32-step
    grid and E[sup |X - X_0|^p] recorded; the report carries the fitted
    log-log slope, which should sit near p/2 for a nondegenerate diffusion.
    A model with identically-zero increments is flagged degenerate instead of
    producing a fake slope.
    """
    if len(horizons) < 2:
        raise ConfigError("need at least two horizons to fit a slope")
    moments = []
    for delta in horizons:
        g = make_time_grid(float(delta), 32)
        w = sample_brownian(g, cfg)
        x = simulate_forward(model, g, w)
        dev = np.abs(x - x[0]).max(axis=0) ** exponent
        moments.append(float(dev.mean()))
    moments_arr = np.asarray(moments)
    degenerate = bool(np.any(moments_arr <= 0.0))
    slope = None if degenerate else float(
        np.polyfit(np.log(np.asarray(horizons, dtype=float)), np.log(moments_arr), 1)[0]
    )
    return MomentScalingReport(
        exponent=float(exponent),
        horizons=tuple(float(h) for h in horizons),
        moments=tuple(moments),
        slope=slope,
        expected_slope=exponent / 2.0,
        degenerate=degenerate,
    )
