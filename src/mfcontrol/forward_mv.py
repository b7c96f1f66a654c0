"""Mean-field forward SDE simulation (explicit Euler-Maruyama).

The forward state follows

    dX_t = b(t, law(X_t), X_t) dt + sigma(t, law(X_t), X_t) dW_t,

with the law argument realized as the snapshot empirical mean taken at the
beginning of each step.  Coefficients are vectorized callables
``(t, law, own) -> array [N]`` (or a float, by the output contract of
:mod:`mfcontrol.core`); the optional control slot
``own.u`` is filled when a control array is threaded in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from mfcontrol.core import (
    BrownianPaths,
    Coefficient,
    DivergenceError,
    StateView,
    TimeGrid,
    _broadcast,
    _check_noise,
    _check_shape,
    _mean,
    _value,
)

__all__ = [
    "ForwardModel",
    "simulate_forward",
    "resolve_initial",
]

#: guard radius: a path beyond this magnitude counts as divergent
DEFAULT_GUARD = 1e12

Initial = Union[float, np.ndarray, Callable[[np.random.Generator, int], np.ndarray]]


@dataclass(frozen=True)
class ForwardModel:
    """Forward SDE coefficients plus the initial condition.

    ``initial`` may be a float (deterministic start), an array [N], or a
    sampler ``(rng, n) -> array [n]``; the coefficients' values and the
    sampler's are read by the output contract of :mod:`mfcontrol.core`.
    """

    drift: Coefficient
    diffusion: Coefficient
    initial: Initial = 0.0


def resolve_initial(initial: Initial, n: int, seed: int) -> np.ndarray:
    """Materialize an initial condition (float / array / sampler) as [N].

    A float array [N], or a sampler's, is returned as it is; a float or a
    one-element array becomes a fresh constant array.  Any other shape
    raises :class:`ConfigError`."""
    if callable(initial):
        initial = initial(np.random.Generator(np.random.Philox(key=seed + 0x5EED)), n)
    return _broadcast("initial condition", initial, (n,))


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
        b = _value("drift", model.drift(t, law, own), (n,))
        s = _value("diffusion", model.diffusion(t, law, own), (n,))
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
    m, n = _check_noise(grid, noise)
    if control is not None:
        _check_shape("control", control, (m, n))
    return _euler(model, grid, noise, control, guard)
