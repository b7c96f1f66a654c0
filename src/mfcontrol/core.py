"""Shared infrastructure: typed errors, the input and output contract, time
grids, Brownian drivers, the state views through which coefficients read
the ensemble, and the Anderson mixer of the package's fixed-point
iterations.

Conventions used across the package
-----------------------------------
* Uniform time grid with ``M`` steps on ``[0, T]``; node ``k`` is ``k*dt``.
* A path process is a plain numpy array of shape ``[M+1, N]`` (node-major,
  one column per particle).  The Brownian driver is scalar; its increments
  have shape ``[M, N]``.
* Mean-field ("law") arguments are realized as snapshot statistics of the
  particle ensemble: coefficient callables receive ``(t, law, own)`` where
  ``law`` is a :class:`StateView` of empirical means and ``own`` is a
  :class:`StateView` of per-particle arrays.  The independent-copy average
  E'[phi] is the same-ensemble empirical mean (self term included; the
  O(1/N) bias this introduces is accepted at desk scale).

Input and output contract
-------------------------
Every array or number a caller passes, and every value a model's callable
returns, is checked by one rule here, and a failed check raises
:class:`ConfigError` naming the argument or the callable:

* a noise block must have the grid's step count (:func:`_check_noise`);
* an array must have its expected shape (:func:`_check_shape`), and a
  solution triple [M+1, N] paths (:func:`_check_paths`);
* a value -- a constant input (an initial condition, a terminal value, a
  source) or the output of a model's callable (a coefficient, a partial,
  a cost, a slope, a terminal map, a projection) -- is a float or an
  array of its expected shape ([N] per particle, [M, N] for a control),
  and a 0-d or one-element array counts as the float (:func:`_value`);
  a float is exact wherever a value enters arithmetic with an array, and
  a caller that needs an array fills it (:func:`_broadcast`);
* tolerances are finite and > 0 (:func:`_check_tol`), thresholds finite
  and >= 0 (:func:`_check_nonneg`), steps and relaxation factors in
  (0, 1] (:func:`_check_fraction`), counts integers (:func:`_check_cap`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "ConfigError",
    "DivergenceError",
    "NonConvergenceError",
    "RegressionError",
    "TimeGrid",
    "make_time_grid",
    "EnsembleConfig",
    "BrownianPaths",
    "sample_brownian",
    "StateView",
    "view_means",
]


# ======================================================================
# Errors
# ======================================================================


class ConfigError(ValueError):
    """Invalid configuration (bad grid, ensemble, schedule, sign constraint)."""


class DivergenceError(RuntimeError):
    """A simulated path left the numerical guard region.

    ``blend`` is the continuation weight being solved when it happened: 0.0
    for the seed, the rung's target weight on a rung, else ``None``.
    """

    def __init__(self, step: int, particle: int, value: float, guard: float,
                 blend: Optional[float] = None):
        self.step = int(step)
        self.particle = int(particle)
        self.value = float(value)
        self.guard = float(guard)
        self.blend = blend
        super().__init__(self.step, self.particle, self.value, self.guard)

    def __str__(self) -> str:
        at = "" if self.blend is None else f" at blend weight {self.blend:.3f}"
        return (
            f"path diverged{at} at step {self.step}, particle {self.particle}: "
            f"|{self.value:.3e}| > guard {self.guard:.1e}"
        )


class NonConvergenceError(RuntimeError):
    """An iterative solver stopped short of its tolerance; carries the change
    history, the last iterate and why it stopped: ``reason`` is
    ``"budget"`` (its iterations ran out), ``"stalled"`` (its change made no
    new best for a while), ``"diverging"`` (its change grew far past the
    best) or ``"non-finite"`` (a change was NaN or infinite); a
    continuation whose rung left the guard or failed a regression says
    ``"guard"`` or ``"regression"``."""

    def __init__(self, message: str, history=None, last=None, reason: str = "budget"):
        self.history = list(history) if history is not None else []
        self.last = last
        self.reason = reason
        super().__init__(message)


class RegressionError(RuntimeError):
    """Conditional-expectation regression failed even after ridge escalation."""

    def __init__(self, message: str, condition_number: float = float("nan")):
        self.condition_number = float(condition_number)
        super().__init__(message)


# ======================================================================
# Input and output contract
# ======================================================================


_F64 = np.dtype(np.float64)


def _check_tol(name: str, tol: float) -> None:
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"{name} must be finite and > 0, got {tol}")


def _check_nonneg(name: str, value: float) -> None:
    """A threshold must be finite and >= 0: a NaN or infinite one hides
    every violation, a negative one counts exact ties."""
    if not (np.isfinite(value) and value >= 0.0):
        raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def _check_fraction(name: str, value: float) -> None:
    if not (0.0 < value <= 1.0):
        raise ConfigError(f"{name} must lie in (0, 1], got {value}")


def _check_cap(name: str, cap: int, low: int) -> None:
    """A count must be an integer (``bool`` excluded) and at least ``low``."""
    if isinstance(cap, bool) or not isinstance(cap, numbers.Integral) or cap < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {cap!r}")


def _shape_error(subject: str, shape, expected) -> ConfigError:
    verb = "have" if subject.endswith("s") else "has"  # "terminal values have"
    return ConfigError(f"{subject} {verb} shape {shape}, expected {expected}")


def _value_error(subject: str, what: str, expected) -> ConfigError:
    verb = "are" if subject.endswith("s") else "is"  # "terminal values are None"
    return ConfigError(f"{subject} {verb} {what}, expected a float or shape {expected}")


def _check_shape(subject: str, arr, shape: Tuple[int, ...]) -> None:
    if np.shape(arr) != shape:
        raise _shape_error(subject, np.shape(arr), shape)


def _check_paths(subject: str, arrays: Sequence, shape: Tuple[int, ...]) -> None:
    """Every array of a solution triple must have the path shape ``shape``."""
    shapes = [np.shape(a) for a in arrays]
    if any(s != shape for s in shapes):
        raise ConfigError(f"{subject} has shapes {shapes}, expected {shape} each")


def _value(subject: str, value, shape: Tuple[int, ...]) -> Union[float, np.ndarray]:
    """``value`` read by the contract: an array of ``shape`` as a float array
    (itself when it is one), a float, a 0-d array or a one-element array
    [1] as a Python float; any other shape, ``None`` (which numpy reads as
    NaN) and anything that is not real numbers raise :class:`ConfigError`
    naming ``subject``.  Real numbers are floats, integers and booleans; a
    complex value (whose imaginary part a cast to float drops), a string, a
    function, or a list or object array (such as one holding ``None``) is
    not, even where numpy could cast it."""
    if type(value) is float:
        return value
    if type(value) is np.ndarray and value.dtype is _F64:
        arr = value
    else:
        arr = _real_array(subject, value, shape)
    if arr.shape == shape:
        return arr
    if arr.ndim <= 1 and arr.size == 1:  # checked before any broadcasting
        return arr.item()
    raise _shape_error(subject, arr.shape, shape)


def _real_array(subject: str, value, shape: Tuple[int, ...]) -> np.ndarray:
    """``value`` as a float array, if numpy reads it as an array of real
    numbers (boolean, integer or float dtype); else :class:`ConfigError`."""
    if value is None:
        raise _value_error(subject, "None", shape)
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError):  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        dtype = "" if arr is None else f" (dtype {arr.dtype})"
        what = f"of type {type(value).__name__}, not real numbers{dtype}"
        raise _value_error(subject, what, shape)
    return arr.astype(float, copy=False)


def _broadcast(subject: str, value, shape: Tuple[int, ...]) -> np.ndarray:
    """:func:`_value` as a float array of ``shape``: a float becomes a fresh
    constant array."""
    val = _value(subject, value, shape)
    return np.full(shape, val) if type(val) is float else val


# ======================================================================
# Time grid
# ======================================================================


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with ``steps`` Euler steps.

    Attributes
    ----------
    horizon : float
        Terminal time T > 0.
    steps : int
        Number of steps M >= 1; the grid has M+1 nodes.
    """

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigError(f"horizon must be a finite positive float, got {self.horizon}")
        _check_cap("steps", self.steps, 1)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def node_index(self, t: float) -> int:
        """Nearest node index for a node-valued time (guards float round-trip)."""
        k = int(round(t / self.dt))
        return min(max(k, 0), self.steps)


def make_time_grid(horizon: float, steps: int) -> TimeGrid:
    """Validated uniform time grid (raises :class:`ConfigError` on bad input;
    ``steps`` must be an integer, it is not rounded)."""
    return TimeGrid(float(horizon), steps)


# ======================================================================
# Ensembles and Brownian drivers
# ======================================================================


@dataclass(frozen=True)
class EnsembleConfig:
    """Particle-ensemble configuration.

    Attributes
    ----------
    particles : int
        Ensemble size N >= 2 (empirical means need at least two samples).
        Each particle is driven by one scalar Brownian motion.
    seed : int
        Counter-based RNG key, an integer >= 0; equal seeds give
        bit-identical increments.
    """

    particles: int
    seed: int = 0

    def __post_init__(self):
        for name, low in (("particles", 2), ("seed", 0)):
            _check_cap(name, getattr(self, name), low)


@dataclass(frozen=True)
class BrownianPaths:
    """Increment block for one ensemble: ``increments[k, i]`` is particle
    i's scalar driver increment over step k, an array [M, N]."""

    increments: np.ndarray
    seed: int

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def particles(self) -> int:
        return self.increments.shape[1]

    def cumulative(self) -> np.ndarray:
        """Brownian path W at the grid nodes, shape [M+1, N]."""
        w = np.empty((self.steps + 1, self.particles))
        w[0] = 0.0
        np.cumsum(self.increments, axis=0, out=w[1:])
        return w


def sample_brownian(grid: TimeGrid, cfg: EnsembleConfig) -> BrownianPaths:
    """Draw the full increment block for (grid, cfg) in one shot.

    Uses a counter-based Philox generator keyed by ``cfg.seed`` so the stream
    is reproducible bit-for-bit regardless of any later worker settings.
    """
    gen = np.random.Generator(np.random.Philox(key=cfg.seed))
    incr = gen.standard_normal((grid.steps, cfg.particles)) * np.sqrt(grid.dt)
    return BrownianPaths(increments=incr, seed=cfg.seed)


def _check_noise(grid: TimeGrid, noise: BrownianPaths) -> Tuple[int, int]:
    """(M, N) of a noise block, which must have the grid's step count."""
    m, n = noise.increments.shape
    if m != grid.steps:
        raise ConfigError(f"noise has {m} steps but grid has {grid.steps}")
    return m, n


# ======================================================================
# State views (law statistics / per-particle slots)
# ======================================================================


@dataclass(frozen=True)
class StateView:
    """Named slots for the state tuple (x, y, z) plus control u.

    The same container serves two roles: as ``law`` it carries empirical
    means (floats, or arrays broadcastable against the ensemble axis); as
    ``own`` it carries per-particle arrays.  Absent slots are ``None``.
    """

    x: Any = None
    y: Any = None
    z: Any = None
    u: Any = None


#: a coefficient ``(t, law, own) -> array [N]`` or a float (:func:`_value`)
Coefficient = Callable[[float, StateView, StateView], np.ndarray]
#: a terminal condition: a float, an array [N], or a map of the terminal state
TerminalMap = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


def _mean(v) -> float:
    """``float(np.mean(v))``, bit for bit, at half its call cost on a
    non-empty 1-D float64 array: ``np.add.reduce(v) / v.size`` is the
    arithmetic ``np.mean`` does there.  Anything else goes to ``np.mean``."""
    if type(v) is np.ndarray and v.ndim == 1 and v.size and v.dtype is _F64:
        return float(np.add.reduce(v) / v.size)
    return float(np.mean(v))


def view_means(own: StateView) -> StateView:
    """Empirical means of the populated slots of ``own``."""

    def m(v):
        return None if v is None else _mean(v)

    return StateView(x=m(own.x), y=m(own.y), z=m(own.z), u=m(own.u))


# ======================================================================
# Anderson mixing (shared by the coupled solvers and the SMP candidate)
# ======================================================================


class _AndersonMixer:
    """Type-II Anderson mixing on a flattened iterate of length L.

    Two fixed points use it: the coupled solvers' sweeps on the solution
    paths (``fbsde_solver._fixed_point``, ``relax`` 1) and the SMP
    candidate's feedback map on the control
    (``lq_examples._candidate_fixed_point``, ``relax`` its damping).

    Keeps the last ``memory`` differences of residuals r = g - u and of map
    outputs g, and takes gamma minimizing |r - dR' gamma|.  The next iterate
    is u_bar + relax * r_bar, with the mixed iterate u_bar = u - dU' gamma
    and mixed residual r_bar = r - dR' gamma (dU = dG - dR); ``relax`` 1
    gives g - dG' gamma, and the first step, before any difference exists,
    is the relaxed step u + relax * r.  On an affine fixed-point map this
    behaves like GMRES restarted at the memory length, which converges in
    regimes where plain Picard does not (Walker & Ni 2011, SIAM J. Numer.
    Anal. 49(4); Toth & Kelley 2015, SIAM J. Numer. Anal. 53(2)).

    The differences live in two ring buffers [memory, L], one contiguous
    row each, next to the Gram matrix dR dR' of the residual differences.
    A step writes one row of each buffer, updates one row and column of the
    Gram matrix (memory dot products) and forms dR r, so it costs
    O(memory * L) and copies no [L, memory] matrix; the ring's slot order
    does not matter, because least squares is invariant under a
    permutation of its columns.  The small system is solved by a min-norm
    ``lstsq`` of the Gram matrix, which cuts off singular values of dR
    below about sqrt(eps) times the largest, where a dense ``lstsq`` of dR
    would cut at eps * L.  A non-finite Gram system (one that overflows,
    |dR| beyond ~1e154), a ``LinAlgError`` or a non-finite gamma returns
    the unmixed relaxed step (g itself at ``relax`` 1).

    The mixer keeps no [L] array outside its rings.  Every step, once it
    has read its oldest difference row, parks -r and -g in the row the
    next step writes (row ``count % memory``), which no later window reads
    before that.  The next step forms its differences there in place, as
    r + (-r_prev) and g + (-g_prev), which are r - r_prev and g - g_prev
    bit for bit.
    """

    def __init__(self, memory: int, relax: float = 1.0):
        self.memory = int(memory)
        self.relax = float(relax)
        self.count = 0  # differences written so far
        self.d_r: Optional[np.ndarray] = None
        self.d_g: Optional[np.ndarray] = None
        self.gram = np.empty((self.memory, self.memory))

    def step(self, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        r = g - u
        if self.d_r is None:
            self.d_r = np.empty((self.memory, r.size))
            self.d_g = np.empty((self.memory, r.size))
            out = None
        else:
            out = self._mixed(r, g)
        slot = self.count % self.memory  # park -r and -g for the next step
        np.negative(r, out=self.d_r[slot])
        np.negative(g, out=self.d_g[slot])
        if out is None:
            return g if self.relax == 1.0 else u + self.relax * r
        return out

    def _mixed(self, r: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
        """Write this step's differences and return the mixed step, or
        ``None`` where the unmixed step is taken."""
        slot = self.count % self.memory
        self.count += 1
        k = min(self.count, self.memory)
        d_r, d_g = self.d_r[:k], self.d_g[:k]
        np.add(r, self.d_r[slot], out=self.d_r[slot])  # r - r_prev, bit for bit
        np.add(g, self.d_g[slot], out=self.d_g[slot])
        self.gram[slot, :k] = self.gram[:k, slot] = d_r @ self.d_r[slot]
        gram, rhs = self.gram[:k, :k], d_r @ r
        if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
            return None
        try:
            gamma, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(gamma)):
            return None
        out = gamma @ d_g
        np.subtract(g, out, out=out)  # in place: one fresh [L] array
        if self.relax != 1.0:  # u_bar + relax * r_bar = g_bar - (1 - relax) * r_bar
            r_bar = gamma @ d_r
            np.subtract(r, r_bar, out=r_bar)
            out -= (1.0 - self.relax) * r_bar
        return out
