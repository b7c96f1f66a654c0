"""Sampling-based certification of the package's standing conditions.

The solvers and optimality results in this package are organized around
three numbered standing conditions on a coupled model's coefficient map

    F(t, law, own) = (-f, b, sigma),   paired against  own = (x, y, z)
    via  <dF, du> = <-df, dx> + <db, dy> + <dsigma, dz>,

where ``law`` carries statistics (means) of an independent copy of the
state triple:

* (H4) — Lipschitz: |F(t, A) - F(t, B)| <= C |A - B| jointly in all six
  slot values (law and own treated as free coordinates), and likewise for
  the terminal map.
* (H5) — forward monotonicity: E<dF, du> <= -C1 E|du|^2 for coupled random
  triples (law slots tied to the distribution of the own slots), together
  with <dPhi(x), dx> >= mu1 |dx|^2, for positive constants C1, mu1.
* (H6) — the mirror image: E<dF, du> >= C1 E|du|^2 and
  <dPhi(x), dx> <= -mu1 |dx|^2 (satisfied by adjoint systems; models of
  this type are solved after a sign normalization).

The checkers are samplers, not provers: a reported violation is a true,
re-evaluable counterexample, while a "pass" is evidence at the sampled
radius.  Because the expectation in (H5)/(H6) ties the law slots to the
own-slot distribution, each monotonicity sample is a nested cloud: a pair
of coupled atom sets whose empirical means feed the law slots.  Cross
terms with the antisymmetric law placement then cancel in the cloud
average exactly as they do in expectation — testing the inequality with
free law slots instead would reject models whose monotonicity genuinely
lives under the expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from mfcontrol.core import StateView, _broadcast, _check_cap, _check_nonneg, _check_tol
from mfcontrol.fbsde_solver import CoupledModel, _coefficients
from mfcontrol.mf_bsde import _terminal_values

__all__ = [
    "UniformPairSampler",
    "MonotonicityReport",
    "check_H4",
    "check_H5",
    "check_H6",
    "check_convexity",
]

#: outer samples evaluated per vectorized block
_CHUNK = 8192

#: pairs closer than this are skipped in ratio estimates
_MIN_DISTANCE = 1e-9

#: relative growth of the Lipschitz estimate between half and full radius
#: that is flagged as a non-Lipschitz trend
_TREND_MARGIN = 1.15


@dataclass(frozen=True)
class UniformPairSampler:
    """Uniform coordinate-wise sampler on ``[-radius, radius]``.

    Any object with a ``radius`` attribute and a ``draw(rng, *shape)``
    method can stand in for it.
    """

    radius: float = 10.0

    def __post_init__(self):
        # a zero or NaN radius draws no effective sample, so every check passes
        _check_tol("sampler radius", self.radius)

    def draw(self, rng: np.random.Generator, *shape: int) -> np.ndarray:
        return self.radius * (2.0 * rng.random(shape) - 1.0)


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of a sampling certification run.

    ``lipschitz`` / ``lipschitz_terminal`` carry the estimated constant
    for (H4); ``monotonicity`` is the estimated pairing constant (C1-hat)
    and ``terminal_monotonicity`` the estimated terminal constant
    (mu1-hat) for (H5)/(H6).  ``worst_pair`` is the worst sampled witness
    (re-evaluable: it stores the raw sample values and the measured
    ratio).  ``trend_flag`` marks a Lipschitz estimate that grew
    materially from half to full radius.
    """

    check: str
    passed: bool
    lipschitz: Optional[float] = None
    lipschitz_terminal: Optional[float] = None
    monotonicity: Optional[float] = None
    terminal_monotonicity: Optional[float] = None
    violations: int = 0
    worst_pair: Optional[dict] = None
    n_samples: int = 0
    radius: float = 0.0
    nested: int = 0
    trend_flag: bool = False


# ======================================================================
# Shared evaluation helpers
# ======================================================================


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _view(cols: np.ndarray) -> StateView:
    """Slots x, y, z from the columns of a sample block [n, 3]."""
    return StateView(x=cols[:, 0], y=cols[:, 1], z=cols[:, 2])


def _pairs(sampler, rng: np.random.Generator, total: int, *shape: int):
    """``total`` sampled pairs (a, b), each [c, *shape], in chunks of at most
    ``_CHUNK``; every chunk draws ``a`` before ``b``."""
    done = 0
    while done < total:
        c = min(_CHUNK, total - done)
        yield sampler.draw(rng, c, *shape), sampler.draw(rng, c, *shape)
        done += c


def _atom_pairing(model, t: float, atoms1: np.ndarray, law1: StateView,
                  atoms2: np.ndarray, law2: StateView):
    """Per-atom (H5) pairing <dF, du> = <-df, dx> + <db, dy> + <dsigma, dz>
    and |du|^2 of two atom sets [n, 3] (columns x, y, z), each evaluated at
    time t with its law view."""
    n = atoms1.shape[0]
    b1, s1, f1 = _coefficients(model, t, law1, _view(atoms1), (n,))
    b2, s2, f2 = _coefficients(model, t, law2, _view(atoms2), (n,))
    dx, dy, dz = (atoms1 - atoms2).T
    return -(f1 - f2) * dx + (b1 - b2) * dy + (s1 - s2) * dz, dx * dx + dy * dy + dz * dz


# ======================================================================
# (H4): joint Lipschitz estimate
# ======================================================================


def _lipschitz_pass(kind, components, dim, sampler, n_samples, rng, scale):
    """Max ratio |dF|/|dTheta| over pairs of free points [c, dim], F's
    components (arrays [c] or floats) given by ``components(points)``: the
    coefficients (f, b, sigma) of six coordinates, or Phi of one, where both
    norms are |d| (sqrt(fl(d*d)) == |d| in binary64).  The witness carries
    ``kind`` as its label."""
    best = 0.0
    witness = None
    for a, b in _pairs(sampler, rng, n_samples, dim):
        th1, th2 = scale * a, scale * b
        num = np.sqrt(sum((g1 - g2) ** 2 for g1, g2 in zip(components(th1), components(th2))))
        den = np.sqrt(np.sum((th1 - th2) ** 2, axis=1))
        ok = den >= _MIN_DISTANCE
        ratios = np.where(ok, num / np.maximum(den, _MIN_DISTANCE), -np.inf)
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            witness = {"kind": kind, "point1": th1[i].copy(), "point2": th2[i].copy(), "ratio": best}
    return best, witness


def check_H4(
    model: CoupledModel,
    sampler: Optional[UniformPairSampler] = None,
    n_samples: int = 100_000,
    seed: int = 0,
) -> MonotonicityReport:
    """Estimate the joint Lipschitz constant of (f, b, sigma) and of the
    terminal map by a max ratio over sampled point pairs.

    All six slot values (law and own) are treated as free coordinates, so
    the estimate bounds the coefficient map's sensitivity to both its own
    state and the statistics it receives.  The pass is repeated at half
    the sampler radius; an estimate that grows materially with radius is
    flagged as a non-Lipschitz trend (quadratic growth, for example) and
    fails the report even though every individual ratio is finite.  The
    coefficients are sampled at t = 0 (checked models are typically
    autonomous).

    Parameters
    ----------
    model : CoupledModel
    sampler : UniformPairSampler, optional
        Defaults to uniform on ``[-10, 10]`` per coordinate.
    n_samples : int
        Pairs per radius family.
    seed : int
        Philox key; reports are deterministic given (seed, sampler, n).

    Returns
    -------
    MonotonicityReport
        With ``lipschitz``, ``lipschitz_terminal``, ``trend_flag`` and the
        worst (largest-ratio) pair as witness: the coefficients' pair
        (``"kind": "coefficients"``, six coordinates), or the terminal
        map's (``"kind": "terminal"``, one coordinate) when only the
        terminal estimate trends.
    """
    _check_cap("n_samples", n_samples, 1)
    sampler = sampler or UniformPairSampler()
    rng = _rng(seed)

    def coefficients(th):  # (f, b, sigma), in the order their squares add
        b, s, f = _coefficients(model, 0.0, _view(th[:, :3]), _view(th[:, 3:]), (len(th),))
        return f, b, s

    def terminal(x):
        return (_terminal_values(model.terminal_map, x[:, 0]),)

    (full, witness), (half, _), (t_full, t_witness), (t_half, _) = (
        _lipschitz_pass(kind, components, dim, sampler, n_samples, rng, scale)
        for kind, components, dim in (("coefficients", coefficients, 6), ("terminal", terminal, 1))
        for scale in (1.0, 0.5)
    )
    coefficient_trend = bool(full > _TREND_MARGIN * half + 1e-12)
    terminal_trend = bool(t_full > _TREND_MARGIN * t_half + 1e-12)
    trend = coefficient_trend or terminal_trend
    if terminal_trend and not coefficient_trend:
        witness = t_witness  # the pair that fails the report
    return MonotonicityReport(
        check="H4",
        passed=not trend,
        lipschitz=full,
        lipschitz_terminal=t_full,
        violations=0,
        worst_pair=witness,
        n_samples=n_samples,
        radius=sampler.radius,
        trend_flag=trend,
    )


# ======================================================================
# (H5)/(H6): monotonicity via nested clouds
# ======================================================================


def _monotonicity_scan(check, model, sampler, n_samples, nested, seed):
    """The (H5)/(H6) scan and its report, at t = 0.

    ``check="H5"`` tests E<dF, du> <= -C1 E|du|^2 with
    <dPhi, dx> >= mu1 |dx|^2 (the forward condition); ``check="H6"`` tests
    the mirrored inequalities.
    """
    _check_cap("n_samples", n_samples, 1)
    _check_cap("nested", nested, 1)
    sampler = sampler or UniformPairSampler()
    sign = 1 if check == "H5" else -1
    rng = _rng(seed)
    best_ratio = np.inf
    witness = None
    violations = 0

    for own1, own2 in _pairs(sampler, rng, n_samples, nested, 3):
        c = len(own1)
        law1, law2 = (np.repeat(own.mean(axis=1), nested, axis=0) for own in (own1, own2))
        atoms, sq = _atom_pairing(
            model, 0.0, own1.reshape(c * nested, 3), _view(law1),
            own2.reshape(c * nested, 3), _view(law2),
        )
        pairing = atoms.reshape(c, nested).mean(axis=1)
        denom = sq.reshape(c, nested).mean(axis=1)
        ok = denom >= _MIN_DISTANCE**2
        ratios = np.where(ok, sign * -pairing / np.maximum(denom, _MIN_DISTANCE**2), np.inf)
        bad = ~np.isfinite(ratios) & ok
        ratios = np.where(bad, -np.inf, ratios)
        violations += int(np.sum((ratios <= 0.0) & ok))
        i = int(np.argmin(ratios))
        if ratios[i] < best_ratio:
            best_ratio = float(ratios[i])
            witness = {
                "kind": "pairing",
                "cloud1": own1[i].copy(),
                "cloud2": own2[i].copy(),
                "ratio": best_ratio,
            }

    best_terminal = np.inf
    for x1, x2 in _pairs(sampler, rng, n_samples):
        dx = x1 - x2
        ok = np.abs(dx) >= _MIN_DISTANCE
        pair = (
            _terminal_values(model.terminal_map, x1) - _terminal_values(model.terminal_map, x2)
        ) * dx
        ratios = np.where(ok, sign * pair / np.maximum(dx * dx, _MIN_DISTANCE**2), np.inf)
        ratios = np.where(~np.isfinite(ratios) & ok, -np.inf, ratios)
        violations += int(np.sum((ratios <= 0.0) & ok))
        i = int(np.argmin(ratios))
        if ratios[i] < best_terminal:
            best_terminal = float(ratios[i])
            if best_terminal < best_ratio:
                witness = {
                    "kind": "terminal",
                    "x1": float(x1[i]),
                    "x2": float(x2[i]),
                    "ratio": best_terminal,
                }

    return MonotonicityReport(
        check=check,
        passed=violations == 0 and best_ratio > 0.0 and best_terminal > 0.0,
        monotonicity=best_ratio,
        terminal_monotonicity=best_terminal,
        violations=violations,
        worst_pair=witness,
        n_samples=n_samples,
        radius=sampler.radius,
        nested=nested,
    )


def check_H5(
    model: CoupledModel,
    sampler: Optional[UniformPairSampler] = None,
    n_samples: int = 100_000,
    nested: int = 32,
    seed: int = 0,
) -> MonotonicityReport:
    """Certify the forward monotonicity condition (H5) by nested-cloud
    sampling.

    Each outer sample is a pair of coupled clouds of ``nested`` atom
    triples; the cloud means feed the law slots, and the pairing
    E<dF, du> and the normalizer E|du|^2 are cloud averages.  The reported
    constant is

        C1-hat = min over outer samples of  -<dF, du> / |du|^2,

    and mu1-hat the analogous minimum of <dPhi, dx>/|dx|^2 over point
    pairs; the check passes iff both minima are positive and no sampled
    ratio violates the inequality.  Tying the law slots to the cloud (and
    not sampling them freely) matters: models whose monotonicity relies on
    cancellation of antisymmetric law terms satisfy the inequality only
    under the expectation the clouds realize.

    Returns a :class:`MonotonicityReport` with ``monotonicity`` (C1-hat),
    ``terminal_monotonicity`` (mu1-hat), the violation count, and the
    worst sampled pair as a re-evaluable witness.
    """
    return _monotonicity_scan("H5", model, sampler, n_samples, nested, seed)


def check_H6(
    model: CoupledModel,
    sampler: Optional[UniformPairSampler] = None,
    n_samples: int = 100_000,
    nested: int = 32,
    seed: int = 0,
) -> MonotonicityReport:
    """Certify the mirrored monotonicity condition (H6).

    Identical sampling scheme to :func:`check_H5` with both inequalities
    reversed: the pairing must be bounded below by +C1 E|du|^2 and the
    terminal pairing above by -mu1 |dx|^2.  Adjoint systems are the
    typical (H6) models; the solvers handle them by a sign normalization,
    and this check certifies the condition they rely on.
    """
    return _monotonicity_scan("H6", model, sampler, n_samples, nested, seed)


# ======================================================================
# Convexity (midpoint test)
# ======================================================================


def check_convexity(
    fn: Callable[[np.ndarray], np.ndarray],
    dim: int,
    sampler: Optional[UniformPairSampler] = None,
    n_samples: int = 100_000,
    seed: int = 0,
    slack: float = 1e-9,
) -> MonotonicityReport:
    """Midpoint convexity test for a scalar function of a state tuple.

    ``fn`` maps an array [n, dim] of points to values [n], read by the
    output contract of :mod:`mfcontrol.core` (a float fills [n]; any other
    shape raises :class:`ConfigError`).  A sampled pair
    (a, b) is a violation when fn((a+b)/2) > (fn(a)+fn(b))/2 + slack, with
    ``slack`` finite and >= 0 (:class:`ConfigError` otherwise).
    Used on terminal costs and on the Hamiltonian as a function of the
    state-and-control tuple at frozen multipliers, which is what the
    sufficiency results assume.
    """
    _check_nonneg("slack", slack)
    _check_cap("n_samples", n_samples, 1)
    _check_cap("dim", dim, 1)
    sampler = sampler or UniformPairSampler()
    rng = _rng(seed)
    violations = 0
    worst = None
    worst_gap = -np.inf
    for a, b in _pairs(sampler, rng, n_samples, dim):
        c = (len(a),)
        mid, fa, fb = (_broadcast("check_convexity's fn values", fn(pts), c)
                       for pts in (0.5 * (a + b), a, b))
        gap = mid - 0.5 * (fa + fb)
        violations += int(np.sum(gap > slack))
        i = int(np.argmax(gap))
        if gap[i] > worst_gap:
            worst_gap = float(gap[i])
            worst = {"kind": "midpoint", "point1": a[i].copy(), "point2": b[i].copy(), "gap": worst_gap}
    return MonotonicityReport(
        check="convexity",
        passed=violations == 0,
        violations=violations,
        worst_pair=worst,
        n_samples=n_samples,
        radius=sampler.radius,
    )
