"""Independent reference computations for the test suite.

Everything here is deliberately implemented with different numerics than the
package (dense RK4, shooting, augmented least squares, naive python loops),
so agreement between the two is meaningful evidence and not a tautology.
The one exception is ``per_node_mf_bsde``: the loop version of the package's
batched backward sweep, with the same arithmetic, against which the sweep is
required to agree exactly.  ``LstsqAndersonMixer`` is the dense version of
the package's Gram-updated Anderson mixer: it rebuilds the difference
matrices every step and solves the tall least-squares problem directly.
``PrevPairAndersonMixer`` is the package mixer's own step with the previous
residual and map output held as separate arrays, the reference, to the bit,
for the package mixer, which keeps them inside its rings.
``picard_loop`` and ``seed_iteration_loop`` are the decoupling iteration and
the seed-preconditioned level iteration written out as two separate loops,
each with its own forward pass, node views and Anderson bookkeeping; the
package runs both through one fixed-point loop and must match them to the
bit.
``cold_candidate_fixed_point`` is the candidate loop with every state and
adjoint solved cold, the reference for the warm-started package loop, and
``lq_feedback`` is the LQ candidate feedback written out from the raw
parameters, the reference for the package's step on the Hamiltonian's
control slope.
``sequential_adjoint`` and ``sequential_variational`` are the decoupled
adjoint and variational routes written out by hand (a forward loop, then a
backward sweep with its own driver), the references, to the bit, for the
package's single-written systems on their sequential solver.
``homotopy_coefficients`` writes the alpha-blend of a model with the
canonical linear-monotone pair as a model of its own, coefficient by
coefficient, the reference for the package's blend sources
(``_blend_sources``).
``per_player_cost`` prices a game player's cost straight from the game's
two-control coefficients, the reference for pricing it through the
single-player reduction; ``lq2_coefficients`` writes out the formulas of
the ``LQ2Params`` docstring, the reference for the package's encodings.
``array_slopes`` writes an LQ term table's partials in array form, each
constant partial as ``sign * c(t) * np.ones_like(own.x)``, the reference
for the package's float partials.  ``unpruned_linear`` and
``unpruned_slopes`` build an LQ term table's coefficient and partials with
every term in them, zero constants included, the reference for the
package's tables, which drop those terms at construction.
``lq1_riccati_cost`` is the exact optimal cost of the decoupled LQ problem
from its two scalar Riccati ODEs (RK4), no particles involved.
``linear_mf_fbsde`` solves any linear mean-field FBSDE with constant
coefficients and a deterministic start exactly (a matrix Riccati field for
the fluctuations, shooting on the means, a covariance ODE for the costs), in
the line of the four-step scheme of Ma, Protter & Yong 1994.  ``lq_exact``
builds its instances from the ``LQ1Params`` and ``LQ2Params`` docstrings and
the adjoint's transposes (not from the package's term tables):
``lq_state_y0`` (a state at a constant control), ``lq_optimum`` (the
optimality system) and ``lq_nash_costs`` (``lq_game``'s Nash system).
"""

import functools

import numpy as np

from mfcontrol.core import DivergenceError, NonConvergenceError, StateView, view_means
from mfcontrol.fbsde_solver import (
    CoupledModel,
    SolutionTriple,
    _AndersonMixer,
    _blend_sources,
    solve_linear_seed,
)
from mfcontrol.forward_mv import resolve_initial
from mfcontrol.lq_examples import LQ1Params, LQ2Params
from mfcontrol.mf_bsde import (
    BackwardModel,
    _terminal_values,
    regress_conditional_expectation,
    solve_mf_bsde,
)
from mfcontrol.smp_control import AdjointTriple, VariationalTriple, solve_adjoint, solve_state


# ----------------------------------------------------------------------
# ODE integration
# ----------------------------------------------------------------------


def rk4_nodes(deriv, y0, horizon, nodes, substeps=64):
    """Classic RK4 path on a uniform node grid, ``substeps`` stages per node
    interval.  Returns an array [nodes+1, dim]."""
    y = np.asarray(y0, dtype=float).copy()
    out = np.empty((nodes + 1, y.size))
    out[0] = y
    dt_node = horizon / nodes
    for k in range(nodes):
        t = k * dt_node
        h = dt_node / substeps
        for j in range(substeps):
            tj = t + j * h
            k1 = np.asarray(deriv(tj, y), dtype=float)
            k2 = np.asarray(deriv(tj + h / 2, y + h / 2 * k1), dtype=float)
            k3 = np.asarray(deriv(tj + h / 2, y + h / 2 * k2), dtype=float)
            k4 = np.asarray(deriv(tj + h, y + h * k3), dtype=float)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def linear_seed_mean_oracle(
    gamma, phi, xi_mean, x0, horizon, nodes, cb=1.0, cf=1.0, substeps=64
):
    """Mean paths (m_X, m_Y) of the canonical linear-monotone pair with
    constant scalar sources, via RK4 + shooting on the terminal matching
    condition m_Y(T) = m_X(T) + xi.

    The deterministic mean system is

        m_X' = -2 cb m_Y + gamma,   m_X(0) = x0
        m_Y' = -2 cf m_X + phi,     m_Y(T) = m_X(T) + xi

    (cb/cf scale the canonical coefficients for scaled variants).
    Returns an array [nodes+1, 2].
    """

    def deriv(_t, y):
        return np.array([-2.0 * cb * y[1] + gamma, -2.0 * cf * y[0] + phi])

    def shoot(s):
        path = rk4_nodes(deriv, [x0, s], horizon, nodes, substeps)
        return path, path[-1, 1] - path[-1, 0] - xi_mean

    path0, r0 = shoot(0.0)
    _, r1 = shoot(1.0)
    if abs(r1 - r0) < 1e-14:  # already matched by the zero shot
        return path0
    s_star = -r0 / (r1 - r0)  # residual is affine in the shot
    path, res = shoot(s_star)
    assert abs(res) < 1e-9, f"shooting failed to close: residual {res}"
    return path


# ----------------------------------------------------------------------
# Regression
# ----------------------------------------------------------------------


def ridge_lstsq_oracle(features, targets, lam):
    """Ridge solution via the augmented least-squares system (different
    factorization path than the package's normal equations)."""
    f = np.asarray(features, dtype=float)
    t = np.asarray(targets, dtype=float)
    b = f.shape[1]
    aug = np.vstack([f, np.sqrt(lam) * np.eye(b)])
    pad_shape = (b,) if t.ndim == 1 else (b, t.shape[1])
    rhs = np.concatenate([t, np.zeros(pad_shape)])
    coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    return coef


def per_node_mf_bsde(model, grid, noise, conditioning, basis, control=None, carrier=None):
    """The least-squares Monte Carlo backward sweep as a plain loop over
    nodes: each node builds its own features and each fit its own
    ridge-escalated normal matrix (no shared per-sweep plan).  Returns
    (Y, Z), arrays [M+1, N]."""
    dw = noise.increments
    m, n = dw.shape
    carrier = conditioning if carrier is None else carrier
    dt = grid.dt
    lam = basis.ridge_scale * n
    y = np.empty((m + 1, n))
    z = np.empty((m + 1, n))
    terminal = model.terminal
    if callable(terminal):
        y[m] = terminal(conditioning[m])
    else:
        y[m] = terminal
    for k in range(m - 1, -1, -1):
        feats = basis.features(carrier[k])
        ey = feats @ regress_conditional_expectation(feats, y[k + 1], lam)
        zfit = regress_conditional_expectation(feats, (y[k + 1] - ey) * dw[k], lam)
        z[k] = (feats @ zfit) / dt
        if model.driver is None:
            y[k] = ey
            continue
        x_k = conditioning[k]
        u_k = None if control is None else control[k]
        u_mean = None if u_k is None else float(u_k.mean())
        y_val = y[k + 1]
        for _ in range(2):
            law = StateView(x=float(x_k.mean()), y=float(y_val.mean()),
                            z=float(z[k].mean()), u=u_mean)
            own = StateView(x=x_k, y=y_val, z=z[k], u=u_k)
            y_val = ey + model.driver(k * dt, law, own) * dt
        y[k] = y_val
    z[m] = z[m - 1]
    return y, z


# ----------------------------------------------------------------------
# Anderson mixing
# ----------------------------------------------------------------------


class LstsqAndersonMixer:
    """Type-II Anderson mixing with the history kept as a list of
    (iterate, map output) pairs: every step rebuilds the [L, memory]
    difference matrices and solves the tall least-squares problem by
    ``np.linalg.lstsq``.  The next iterate is u_bar + relax * r_bar, the
    mixed iterate plus ``relax`` times the mixed residual (g - dG gamma at
    ``relax`` 1); the first step is u + relax * r.  Same contract as the
    package mixer: a singular solve or a non-finite gamma returns that
    unmixed step."""

    def __init__(self, memory, relax=1.0):
        self.memory = int(memory)
        self.relax = relax
        self.us = []
        self.gs = []

    def step(self, u, g):
        unmixed = g if self.relax == 1.0 else u + self.relax * (g - u)
        self.us.append(u)
        self.gs.append(g)
        if len(self.us) > self.memory + 1:
            self.us.pop(0)
            self.gs.pop(0)
        if len(self.us) < 2:
            return unmixed
        res = [gi - ui for ui, gi in zip(self.us, self.gs)]
        d_res = np.column_stack([res[j + 1] - res[j] for j in range(len(res) - 1)])
        d_g = np.column_stack(
            [self.gs[j + 1] - self.gs[j] for j in range(len(self.gs) - 1)]
        )
        try:
            gamma, *_ = np.linalg.lstsq(d_res, res[-1], rcond=None)
        except np.linalg.LinAlgError:
            return unmixed
        if not np.all(np.isfinite(gamma)):
            return unmixed
        if self.relax == 1.0:
            return g - d_g @ gamma
        d_u = np.column_stack(
            [self.us[j + 1] - self.us[j] for j in range(len(self.us) - 1)]
        )
        return (u - d_u @ gamma) + self.relax * (res[-1] - d_res @ gamma)


class PrevPairAndersonMixer:
    """The package mixer's Gram-updated ring step with the previous
    residual and map output kept as two [L] arrays of their own, and each
    difference formed as r - r_prev: the reference, to the bit, for the
    package mixer, which parks -r and -g in its rings instead."""

    def __init__(self, memory, relax=1.0):
        self.memory = int(memory)
        self.relax = float(relax)
        self.count = 0
        self.prev_r = None
        self.prev_g = None
        self.d_r = self.d_g = np.empty((0, 0))
        self.gram = np.empty((self.memory, self.memory))

    def _unmixed(self, u, r, g):
        return g if self.relax == 1.0 else u + self.relax * r

    def step(self, u, g):
        r = g - u
        if self.prev_r is None:
            self.d_r = np.empty((self.memory, r.size))
            self.d_g = np.empty((self.memory, r.size))
            self.prev_r, self.prev_g = r, g
            return self._unmixed(u, r, g)
        slot = self.count % self.memory
        self.count += 1
        k = min(self.count, self.memory)
        d_r, d_g = self.d_r[:k], self.d_g[:k]
        np.subtract(r, self.prev_r, out=self.d_r[slot])
        np.subtract(g, self.prev_g, out=self.d_g[slot])
        self.prev_r, self.prev_g = r, g
        self.gram[slot, :k] = self.gram[:k, slot] = d_r @ self.d_r[slot]
        gram, rhs = self.gram[:k, :k], d_r @ r
        if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
            return self._unmixed(u, r, g)
        try:
            gamma, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        except np.linalg.LinAlgError:
            return self._unmixed(u, r, g)
        if not np.all(np.isfinite(gamma)):
            return self._unmixed(u, r, g)
        out = gamma @ d_g
        np.subtract(g, out, out=out)
        if self.relax != 1.0:
            r_bar = gamma @ d_r
            np.subtract(r, r_bar, out=r_bar)
            out -= (1.0 - self.relax) * r_bar
        return out


# ----------------------------------------------------------------------
# The two coupled fixed-point loops, each written out on its own
# ----------------------------------------------------------------------


def _triple_rms(a, b):
    num = (
        np.square(a.x - b.x).sum()
        + np.square(a.y - b.y).sum()
        + np.square(a.z - b.z).sum()
    )
    cnt = a.x.size + a.y.size + a.z.size
    return float(np.sqrt(num / cnt))


def _check_guard(row, k, guard):
    if not (np.abs(row).max() <= guard):
        i = int(np.abs(row).argmax())
        raise DivergenceError(k, i, row[i], guard)


def _level_views(tri, k, control):
    u_k = None if control is None else (control[k] if k < control.shape[0] else control[-1])
    own = StateView(x=tri.x[k], y=tri.y[k], z=tri.z[k], u=u_k)
    law = StateView(
        x=float(tri.x[k].mean()),
        y=float(tri.y[k].mean()),
        z=float(tri.z[k].mean()),
        u=None if u_k is None else float(u_k.mean()),
    )
    return own, law


def _forward_sweep(model, grid, dw, y_cur, z_cur, control, guard, seed):
    dt = grid.dt
    m, n = dw.shape
    x = np.empty((m + 1, n))
    x[0] = resolve_initial(model.initial, n, seed)
    path = SolutionTriple(x=x, y=y_cur, z=z_cur)  # x filled in node by node
    for k in range(m):
        own, law = _level_views(path, k, control)
        t = k * dt
        b = model.drift(t, law, own)
        s = model.diffusion(t, law, own)
        x[k + 1] = x[k] + b * dt + s * dw[k]
        _check_guard(x[k + 1], k + 1, guard)
    return x


def picard_loop(model, grid, noise, initial_guess, tol=1e-6, max_iter=50, accel_memory=0,
                control=None, basis=None, guard=1e12, conditioning=None):
    """Decoupling iteration: forward sweep with (Y, Z) frozen, backward
    sweep on the new path, Anderson mixing of the backward pair only.
    Returns (SolutionTriple, history); raises NonConvergenceError on budget
    exhaustion."""
    dw = noise.increments
    cur = initial_guess
    backward = BackwardModel(driver=model.driver, terminal=model.terminal_map)
    mixer = _AndersonMixer(accel_memory) if accel_memory > 0 else None
    history = []
    out = cur
    for _ in range(max_iter):
        x_new = _forward_sweep(model, grid, dw, cur.y, cur.z, control, guard, noise.seed)
        y_new, z_new = solve_mf_bsde(
            backward, grid, noise, x_new, basis=basis, control=control, carrier=conditioning
        )
        out = SolutionTriple(x=x_new, y=y_new, z=z_new)
        change = _triple_rms(out, cur)
        history.append(change)
        if change <= tol:
            return out, history
        if mixer is not None:
            flat_u = np.concatenate([cur.y.ravel(), cur.z.ravel()])
            flat_g = np.concatenate([y_new.ravel(), z_new.ravel()])
            nxt = mixer.step(flat_u, flat_g)
            cur = SolutionTriple(
                x=x_new,
                y=nxt[: y_new.size].reshape(y_new.shape),
                z=nxt[y_new.size :].reshape(z_new.shape),
            )
        else:
            cur = out
    raise NonConvergenceError("decoupling iteration did not converge", history=history, last=out)


def seed_iteration_loop(model, grid, noise, weight, warm, tol, max_iter, memory, control=None,
                        guard=1e12, conditioning=None):
    """Seed-preconditioned fixed point at blend ``weight``: each sweep
    freezes the blend sources at the iterate and solves the sourced
    canonical pair with the linear seed; Anderson mixing of all three
    slots.  Returns (SolutionTriple, history)."""
    cur = warm
    mixer = _AndersonMixer(memory) if memory > 0 else None
    history = []
    out = cur
    for _ in range(max_iter):
        inhom = _blend_sources(model, cur, grid, weight, control)
        if conditioning is not None:
            cond = conditioning
        else:
            cond = cur.x if float(np.ptp(cur.x)) > 0.0 else None
        out, _ = solve_linear_seed(
            inhom, grid, noise, x0=model.initial, conditioning=cond, guard=guard,
        )
        change = _triple_rms(out, cur)
        history.append(change)
        if not np.isfinite(change):
            raise NonConvergenceError("non-finite iterates", history=history, last=out)
        if change <= tol:
            return out, history
        if mixer is not None:
            flat_u = np.concatenate([cur.x.ravel(), cur.y.ravel(), cur.z.ravel()])
            flat_g = np.concatenate([out.x.ravel(), out.y.ravel(), out.z.ravel()])
            nxt = mixer.step(flat_u, flat_g)
            sz = out.x.size
            cur = SolutionTriple(
                x=nxt[:sz].reshape(out.x.shape),
                y=nxt[sz : 2 * sz].reshape(out.y.shape),
                z=nxt[2 * sz :].reshape(out.z.shape),
            )
        else:
            cur = out
    raise NonConvergenceError("seed iteration did not converge", history=history, last=out)


# ----------------------------------------------------------------------
# Homotopy blend
# ----------------------------------------------------------------------


def homotopy_coefficients(model, alpha):
    """The ``alpha``-blend of ``model`` with the canonical pair:

        b_a = a b + (1 - a)(-mean_y - y),   sigma_a = a sigma + (1 - a)(-mean_z - z),
        f_a = a f + (1 - a)(mean_x + x),    Phi_a = a Phi + (1 - a) x.

    At ``alpha`` 1 it is the model, at 0 the pair the linear seed solves."""
    a = float(alpha)

    def drift(t, law, own):
        return a * model.drift(t, law, own) + (1.0 - a) * (-law.y - own.y)

    def diffusion(t, law, own):
        return a * model.diffusion(t, law, own) + (1.0 - a) * (-law.z - own.z)

    def driver(t, law, own):
        f = 0.0 if model.driver is None else model.driver(t, law, own)
        return a * f + (1.0 - a) * (law.x + own.x)

    def terminal(x_last):
        return a * _terminal_values(model.terminal_map, x_last) + (1.0 - a) * x_last

    return CoupledModel(drift=drift, diffusion=diffusion, driver=driver,
                        terminal_map=terminal, initial=model.initial)


# ----------------------------------------------------------------------
# Candidate fixed point
# ----------------------------------------------------------------------


def cold_candidate_fixed_point(model, formula, grid, noise, damping=0.5, tol=1e-6,
                               max_iter=200, schedule=None):
    """Damped iteration u <- (1-damping) u + damping * formula(adjoints(u))
    from u = 0, with the state and the adjoint of every iteration solved
    cold (a full continuation for coupled models).  Stops on the undamped
    gap |formula(u) - u| <= tol.  Returns (u, gaps); raises AssertionError
    when ``max_iter`` runs out."""
    u = np.zeros((grid.steps, noise.particles))
    gaps = []
    for _ in range(max_iter):
        state = solve_state(model, u, grid, noise, schedule=schedule)
        adj = solve_adjoint(model, u, state, grid, noise, schedule=schedule)
        proposal = np.stack(
            [formula(k, float(grid.nodes[k]), adj) for k in range(grid.steps)]
        )
        proposal = model.project(proposal)
        gaps.append(float(np.sqrt(np.mean(np.square(proposal - u)))))
        u = (1.0 - damping) * u + damping * proposal
        if gaps[-1] <= tol:
            return u, gaps
    raise AssertionError(f"cold candidate loop did not converge: last gap {gaps[-1]:.3e}")


# ----------------------------------------------------------------------
# Sequential adjoint and variational routes of a decoupled model
# ----------------------------------------------------------------------


def _zero_filled_partials(model, u, state, grid):
    """Partial lookup along (state, u) in which an undeclared partial is an
    array of zeros."""

    def partial(name, slot, k):
        own = StateView(x=state.x[k], y=state.y[k], z=state.z[k], u=u[min(k, grid.steps - 1)])
        fn = model.partials.get(name, {}).get(slot)
        if fn is None or (name == "driver" and model.driver is None):
            return np.zeros_like(own.x)
        val = np.asarray(fn(k * grid.dt, view_means(own), own), dtype=float)
        return np.broadcast_to(val, own.x.shape)

    return partial


def _tmean(coef, weight):
    return float(np.mean(coef * weight))


def sequential_adjoint(model, u, state, grid, noise, basis=None):
    """Adjoint (p, q, Q) of a decoupled model: Q integrated forward from
    -gamma_y(Y_0) with driver and running-cost partials in the (y, z)
    slots, then (p, q) by one backward sweep regressed on the state path."""
    partial = _zero_filled_partials(model, u, state, grid)
    dw = noise.increments
    m, n = dw.shape
    dt = grid.dt

    def p_coef(slot, k):
        return partial("drift", slot, k)

    def s_coef(slot, k):
        return partial("diffusion", slot, k)

    def f_coef(slot, k):
        return partial("driver", slot, k)

    def h_coef(slot, k):
        return partial("running_cost", slot, k)

    x_last = state.x[m]
    terminal_cost_slope = np.asarray(model.terminal_cost_slope(x_last), dtype=float)
    terminal_slope = np.asarray(model.terminal_slope(x_last), dtype=float)
    q0 = -np.asarray(model.initial_cost_slope(state.y[0]), dtype=float)
    q0 = np.broadcast_to(q0, (n,)).copy()

    big_q = np.empty((m + 1, n))
    big_q[0] = q0
    for k in range(m):
        drift = (
            _tmean(f_coef("law_y", k), big_q[k])
            + f_coef("y", k) * big_q[k]
            - float(np.mean(h_coef("law_y", k)))
            - h_coef("y", k)
        )
        diff = (
            _tmean(f_coef("law_z", k), big_q[k])
            + f_coef("z", k) * big_q[k]
            - float(np.mean(h_coef("law_z", k)))
            - h_coef("z", k)
        )
        big_q[k + 1] = big_q[k] + drift * dt + diff * dw[k]

    def p_driver(t, law, own):
        k = grid.node_index(t)
        return (
            _tmean(p_coef("law_x", k), own.y)
            + p_coef("x", k) * own.y
            + _tmean(s_coef("law_x", k), own.z)
            + s_coef("x", k) * own.z
            + float(np.mean(h_coef("law_x", k)))
            + h_coef("x", k)
            - _tmean(f_coef("law_x", k), big_q[k])
            - f_coef("x", k) * big_q[k]
        )

    def p_terminal(xm):
        return terminal_cost_slope - terminal_slope * big_q[m]

    p, q = solve_mf_bsde(
        BackwardModel(driver=p_driver, terminal=p_terminal), grid, noise, state.x, basis=basis
    )
    return AdjointTriple(p=p, q=q, Q=big_q, warning=None)


def sequential_variational(model, u, direction, state, grid, noise, basis=None):
    """Variational triple (k, m, n) of a decoupled model along the [M, N]
    ``direction``: k integrated forward from 0, then (m, n) by one backward
    sweep regressed on the state path."""
    partial = _zero_filled_partials(model, u, state, grid)
    d = direction
    dw = noise.increments
    m_steps, n = dw.shape
    dt = grid.dt
    slope = np.asarray(model.terminal_slope(state.x[m_steps]), dtype=float)

    kk = np.empty((m_steps + 1, n))
    kk[0] = 0.0
    for k in range(m_steps):
        mean_k = float(kk[k].mean())
        drift = (
            partial("drift", "law_x", k) * mean_k
            + partial("drift", "x", k) * kk[k]
            + partial("drift", "v", k) * d[k]
        )
        diff = (
            partial("diffusion", "law_x", k) * mean_k
            + partial("diffusion", "x", k) * kk[k]
            + partial("diffusion", "v", k) * d[k]
        )
        kk[k + 1] = kk[k] + drift * dt + diff * dw[k]

    def var_driver(t, law, own):
        k = grid.node_index(t)
        return (
            partial("driver", "law_x", k) * float(kk[k].mean())
            + partial("driver", "x", k) * kk[k]
            + partial("driver", "law_y", k) * law.y
            + partial("driver", "y", k) * own.y
            + partial("driver", "law_z", k) * law.z
            + partial("driver", "z", k) * own.z
            + partial("driver", "v", k) * d[k]
        )

    mv, nv = solve_mf_bsde(
        BackwardModel(driver=var_driver, terminal=lambda xm: slope * kk[m_steps]),
        grid, noise, state.x, basis=basis,
    )
    return VariationalTriple(k=kk, m=mv, n=nv)


# ----------------------------------------------------------------------
# Reference evaluations of model coefficients
# ----------------------------------------------------------------------


def per_player_cost(game, i, u1, u2, state, grid):
    """Per-particle cost contributions [N] of game player ``i`` at the pair
    (u1, u2), read off the game's own two-control running cost with the
    law slots at the ensemble means of (x, y, z)."""
    one = i == 1
    h = game.running_cost_1 if one else game.running_cost_2
    particles = state.x.shape[1]
    total = np.zeros(particles)
    for k in range(grid.steps):
        own = StateView(x=state.x[k], y=state.y[k], z=state.z[k])
        total += grid.dt * np.broadcast_to(
            np.asarray(
                h(float(grid.nodes[k]), view_means(own), own, u1[k], u2[k]),
                dtype=float,
            ),
            (particles,),
        )
    g = game.terminal_cost_1 if one else game.terminal_cost_2
    gam = game.initial_cost_1 if one else game.initial_cost_2
    total = total + np.asarray(g(state.x[-1]), dtype=float)
    total = total + np.asarray(gam(state.y[0]), dtype=float)
    return total


def lq2_coefficients(params, t, law, own, v):
    """The coupled LQ problem's coefficients at time ``t`` and control
    ``v``, as the ``LQ2Params`` docstring writes them, and the multiplier
    system of ``lq2_adjoint_fbsde`` (no control; drift y-slots, diffusion
    z-slots and driver x-slots negated).  Returns (state, adjoint), each a
    (drift, diffusion, driver) tuple."""

    def c(name):
        val = getattr(params, name)
        return float(val(t)) if callable(val) else float(val)

    mx, my, mz = law.x, law.y, law.z
    x, y, z = own.x, own.y, own.z
    state = (
        c("drift_mean_x") * mx + c("drift_x") * x
        + c("drift_mean_y") * my + c("drift_y") * y
        + c("cross_mean") * mz + c("cross") * z + c("drift_control") * v,
        c("diff_mean_x") * mx + c("diff_x") * x
        - c("cross_mean") * my - c("cross") * y
        + c("diff_mean_z") * mz + c("diff_z") * z + c("diff_control") * v,
        c("driver_mean_x") * mx + c("driver_x") * x
        + c("drift_mean_x") * my + c("drift_x") * y
        + c("diff_mean_x") * mz + c("diff_x") * z + c("driver_control") * v,
    )
    adjoint = (
        c("drift_mean_x") * mx + c("drift_x") * x
        - c("drift_mean_y") * my - c("drift_y") * y
        + c("cross_mean") * mz + c("cross") * z,
        c("diff_mean_x") * mx + c("diff_x") * x
        - c("cross_mean") * my - c("cross") * y
        - c("diff_mean_z") * mz - c("diff_z") * z,
        -c("driver_mean_x") * mx - c("driver_x") * x
        + c("drift_mean_x") * my + c("drift_x") * y
        + c("diff_mean_x") * mz + c("diff_x") * z,
    )
    return state, adjoint


def array_slopes(terms, params):
    """The partials of an LQ term table (``params._TERMS[name]``), each the
    signed parameter times an array of ones of the ensemble's shape; the
    package returns the signed parameter as a float instead."""

    def flat(sign, name):
        val = getattr(params, name)
        c = val if callable(val) else (lambda t: float(val))
        return lambda t, law, own, *controls: sign * c(t) * np.ones_like(own.x)

    return {slot: flat(sign, name) for sign, slot, name in terms}


def _signed_param(sign, params, name):
    """``t -> sign * c(t)`` of the parameter ``name``, a constant folded once."""
    val = getattr(params, name)
    if callable(val):
        return lambda t: sign * val(t)
    folded = sign * float(val)
    return lambda t: folded


def unpruned_linear(terms, params, control):
    """Coefficient of an LQ term table (``params._TERMS[name]``) with every
    term of it: ``sign * c(t) * slot`` added left to right, a zero constant
    included; ``v`` reads ``control(t, own, *controls)``."""

    reads = [(_signed_param(sign, params, name), slot) for sign, slot, name in terms]

    def coefficient(t, law, own, *controls):
        v = control(t, own, *controls)
        total = None
        for c, slot in reads:
            view = law if slot.startswith("law_") else own
            term = c(t) * (v if slot == "v" else getattr(view, slot.removeprefix("law_")))
            total = term if total is None else total + term
        return total

    return coefficient


def unpruned_slopes(terms, params):
    """Partials of an LQ term table with every term of it, each the signed
    parameter as a float, a zero constant included."""

    def flat(c):
        return lambda t, law, own, *controls: float(c(t))

    return {slot: flat(_signed_param(sign, params, name)) for sign, slot, name in terms}


def operator_norm(mat):
    """Largest singular value via dense SVD."""
    return float(np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)[0])


# ----------------------------------------------------------------------
# Naive particle simulation (python loops, no vectorization)
# ----------------------------------------------------------------------


def naive_forward(drift_fn, diff_fn, x0, dw, dt):
    """Per-particle loop Euler scheme.  ``drift_fn``/``diff_fn`` take
    ``(t, mean_x, x_i)`` scalars.  Returns [M+1, N]."""
    m, n = dw.shape
    x = np.empty((m + 1, n))
    x[0] = x0
    for k in range(m):
        mean_x = sum(x[k]) / n
        for i in range(n):
            b = drift_fn(k * dt, mean_x, x[k, i])
            s = diff_fn(k * dt, mean_x, x[k, i])
            x[k + 1, i] = x[k, i] + b * dt + s * dw[k, i]
    return x


# ----------------------------------------------------------------------
# Finite differences (common random numbers)
# ----------------------------------------------------------------------


def directional_fd(cost_fn, u, direction, theta):
    """Central difference of a scalar cost along a direction (same noise on
    both sides — the caller's cost_fn must hold the driver fixed)."""
    return (cost_fn(u + theta * direction) - cost_fn(u - theta * direction)) / (
        2.0 * theta
    )


# ----------------------------------------------------------------------
# LQ candidate feedback
# ----------------------------------------------------------------------


def lq_feedback(params, weight):
    """The candidate feedback of both LQ problems at node ``k``, written out
    from the raw parameters: the zero in v of the Hamiltonian slope
    ``H_v = p*drift_control + q*diff_control - Q*driver_control + weight*v``,
    where ``weight`` is the running cost's curvature in v (a float or a
    function of t, as are the parameters)."""

    def fn(c):
        return c if callable(c) else (lambda t, val=float(c): val)

    b_v, s_v, f_v, w = (
        fn(c) for c in (params.drift_control, params.diff_control, params.driver_control, weight)
    )

    def formula(k, t, adj):
        return -(adj.p[k] * b_v(t) + adj.q[k] * s_v(t) - adj.Q[k] * f_v(t)) / w(t)

    return formula


def lq1_riccati_cost(params, steps=1000):
    """Exact optimal cost of the decoupled LQ problem from its two scalar
    Riccati equations, read off the ``LQ1Params`` docstring's fields (not the
    package's term tables): with a = drift_x, abar = drift_mean_x,
    b = drift_control, c = diff_x, d = diff_control,

        P'  = -[(2a + c^2) P - ((b + c d) P)^2 / (1 + d^2 P)],           P(T) = 1,
        Pi' = -[2(a + abar) Pi + c^2 P - (b Pi + c d P)^2 / (1 + d^2 P)],  Pi(T) = 2,

    integrated backward by RK4 in ``steps`` steps; J* = Pi(0) x0^2 / 2.  P
    prices the fluctuation X - E[X] and Pi the mean, whose terminal weight
    carries the Y_0^2 / 2 = E[X_T]^2 / 2 term as well.  Needs constant
    coefficients, a zero ``diff_mean_x`` and a zero driver."""
    names = ("drift_x", "drift_mean_x", "drift_control", "diff_x", "diff_control")
    a, abar, b, c, d = (float(getattr(params, name)) for name in names)
    zero = ("diff_mean_x", "driver_mean_x", "driver_x", "driver_mean_y", "driver_y",
            "driver_mean_z", "driver_z", "driver_control")
    assert all(getattr(params, name) == 0.0 for name in zero), "outside the oracle's family"

    def reversed_time(s, y):  # d/ds of (P, Pi) at t = T - s
        p, pi = y
        return [(2 * a + c * c) * p - ((b + c * d) * p) ** 2 / (1 + d * d * p),
                2 * (a + abar) * pi + c * c * p - (b * pi + c * d * p) ** 2 / (1 + d * d * p)]

    _, pi0 = rk4_nodes(reversed_time, [1.0, 2.0], params.horizon, 1, substeps=steps)[-1]
    return float(pi0 * params.x0**2 / 2)


# ----------------------------------------------------------------------
# Exact solutions of linear mean-field FBSDEs (Riccati decoupling field)
# ----------------------------------------------------------------------


def linear_mf_fbsde(drift, diffusion, driver, terminal, initial, horizon, running=(),
                    steps=1000):
    """Exact first and second moments of a linear mean-field FBSDE with
    constant coefficients and a deterministic start, no particles involved.

    With v = (xi, eta, zeta), forward xi in R^n, backward eta and integrand
    zeta in R^m, and a scalar Brownian motion W, the system is

        dxi  = (b v + b_law E[v] + b0) dt + (s v + s_law E[v] + s0) dW,
        -deta = (f v + f_law E[v] + f0) dt - zeta dW,
        eta_T = Phi xi_T + phi0,   xi_0 = x0 + Psi E[eta_0],

    each of ``drift``, ``diffusion`` and ``driver`` a triple ``(own, law,
    const)`` of [rows, n+2m] matrices and a constant, ``terminal`` the pair
    ``(Phi, phi0)`` and ``initial`` the pair ``(x0, Psi)``.  Since xi_0 is
    deterministic, the fluctuations solve eta - E[eta] = P (xi - E[xi]) and
    zeta - E[zeta] = L (xi - E[xi]) with L = (I - P F)^-1 P (D + E P), where
    (A, B, C), (D, E, F) and (G, H, K) split ``b``, ``s`` and ``f`` over
    (xi, eta, zeta), and P solves the matrix Riccati equation

        -P' = P A + P B P + P C L + G + H P + K L,   P_T = Phi,

    integrated backward by RK4 in ``steps`` steps.  The means solve a linear
    ODE with E[zeta] = P E[diffusion] read algebraically; their two-point
    boundary problem is closed by shooting on E[eta_0] (one RK4 pass of the
    affine flow, step 2T/steps on P's nodes, and one small linear solve).  A
    last pass integrates the covariance Sigma of xi,

        Sigma' = M Sigma + Sigma M^T + N Sigma N^T + e e^T,   Sigma_0 = 0,

    with M = b Gamma, N = s Gamma, Gamma = (I; P; L) and e = E[diffusion],
    and each ``running`` quadratic form W over (v, 1), as the integral over
    [0, T] of E[(v, 1)^T W (v, 1)].  Returns ``(mean0, meanT, covT,
    running)``: the means of (xi, eta) at 0 and at T, Sigma_T and the
    integrals.  ``steps`` must be even."""
    (b, b_law, b0), (s, s_law, s0), (f, f_law, f0) = (
        tuple(np.asarray(a, dtype=float) for a in coef) for coef in (drift, diffusion, driver))
    phi, phi0 = (np.asarray(a, dtype=float) for a in terminal)
    x0, psi = (np.asarray(a, dtype=float) for a in initial)
    n, m = len(b), len(f)
    assert steps % 2 == 0, "the mean passes take two Riccati steps at a time"
    fwd, bwd, itg = slice(0, n), slice(n, n + m), slice(n + m, n + 2 * m)
    eye_m = np.eye(m)

    def decoupling(p):  # L of the fluctuations' integrand
        return np.linalg.solve(eye_m - p @ s[:, itg], p @ (s[:, fwd] + s[:, bwd] @ p))

    def riccati(_r, p):  # d/dr of P at t = T - r
        p = p.reshape(m, n)
        lo = decoupling(p)
        return (p @ b[:, fwd] + p @ b[:, bwd] @ p + p @ b[:, itg] @ lo
                + f[:, fwd] + f[:, bwd] @ p + f[:, itg] @ lo).ravel()

    # P, and per node, with z = (E xi, E eta, 1): E[v] = E_hat z, dz/dt =
    # A_hat z, and the fluctuations' v - E[v] = Gamma (xi - E xi)
    field = rk4_nodes(riccati, phi.ravel(), horizon, steps, substeps=1)[::-1].reshape(-1, m, n)
    size, count = n + m + 1, steps + 1
    mean_b, mean_s, mean_f = b + b_law, s + s_law, f + f_law
    e_hat = np.zeros((count, n + 2 * m, size))
    e_hat[:, : n + m, : n + m] = np.eye(n + m)
    e_hat[:, itg] = np.linalg.solve(eye_m - field @ mean_s[:, itg], field) @ np.hstack(
        [mean_s[:, : n + m], s0[:, None]])
    a_hat = np.zeros((count, size, size))
    a_hat[:, fwd] = mean_b @ e_hat
    a_hat[:, fwd, -1] += b0
    a_hat[:, bwd] = -(mean_f @ e_hat)
    a_hat[:, bwd, -1] -= f0
    gamma = np.concatenate([np.broadcast_to(np.eye(n), (count, n, n)), field,
                            decoupling(field)], axis=1)
    h = horizon / steps

    def at(t):
        j = int(round(t / h))
        return a_hat[j], e_hat[j], gamma[j]

    def flow(t, y):
        return (a_hat[int(round(t / h))] @ y.reshape(size, -1)).ravel()

    def integrate(deriv, y0):
        return rk4_nodes(deriv, y0, horizon, 1, substeps=steps // 2)[-1]

    # shooting: z_0 = base + shot @ E[eta_0], affine in the unknown
    transition = integrate(flow, np.eye(size).ravel()).reshape(size, size)
    base = np.concatenate([x0, np.zeros(m), [1.0]])
    shot = np.vstack([psi, eye_m, np.zeros((1, m))])
    match = np.hstack([-phi, eye_m, np.zeros((m, 1))]) @ transition
    eta0 = np.linalg.solve(match @ shot, phi0 - match @ base)
    z0 = base + shot @ eta0
    forms = [np.asarray(w, dtype=float) for w in running]

    def moments(t, y):
        a_j, e_j, gamma_j = at(t)
        z, sigma = y[:size], y[size: size + n * n].reshape(n, n)
        ev = e_j @ z
        mm, nn, e = b @ gamma_j, s @ gamma_j, mean_s @ ev + s0
        dsigma = mm @ sigma + sigma @ mm.T + nn @ sigma @ nn.T + np.outer(e, e)
        cov = gamma_j @ sigma @ gamma_j.T
        ext = np.append(ev, 1.0)
        dcost = [np.sum(w[:-1, :-1] * cov) + ext @ w @ ext for w in forms]
        return np.concatenate([a_j @ z, dsigma.ravel(), dcost])

    end = integrate(moments, np.concatenate([z0, np.zeros(n * n + len(forms))]))
    return (z0[: n + m], end[: n + m], end[size: size + n * n].reshape(n, n),
            tuple(end[size + n * n:]))


def _lq_rows(params):
    """(own, law, slope) of an LQ parameter set's state coefficients as the
    ``LQ1Params`` or ``LQ2Params`` docstring writes them (not the package's
    term tables): rows drift, diffusion, driver; ``own`` and ``law``
    columns x, y, z; ``slope`` each row's control coefficient.  Constant
    coefficients only."""

    def c(name):
        return float(getattr(params, name))

    if isinstance(params, LQ2Params):
        own = [[c("drift_x"), c("drift_y"), c("cross")],
               [c("diff_x"), -c("cross"), c("diff_z")],
               [c("driver_x"), c("drift_x"), c("diff_x")]]
        law = [[c("drift_mean_x"), c("drift_mean_y"), c("cross_mean")],
               [c("diff_mean_x"), -c("cross_mean"), c("diff_mean_z")],
               [c("driver_mean_x"), c("drift_mean_x"), c("diff_mean_x")]]
    else:
        own = [[c("drift_x"), 0.0, 0.0], [c("diff_x"), 0.0, 0.0],
               [c("driver_x"), c("driver_y"), c("driver_z")]]
        law = [[c("drift_mean_x"), 0.0, 0.0], [c("diff_mean_x"), 0.0, 0.0],
               [c("driver_mean_x"), c("driver_mean_y"), c("driver_mean_z")]]
    slope = [c("drift_control"), c("diff_control"), c("driver_control")]
    return np.array(own), np.array(law), np.array(slope)


def lq_exact(params, players=(), control=0.0, gain=1.0, steps=1000):
    """Exact solution (:func:`linear_mf_fbsde`) of an LQ state system with
    each player's adjoint and candidate feedback substituted.

    The state (X, Y, Z) has the coefficients of ``params``' docstring with
    the constant ``control`` on top of the players' controls, and Y_T =
    ``gain`` X_T.  A player ``(slope, weight, target, wt, wi)`` moves
    (drift, diffusion, driver) by ``slope`` times their control v and pays
    E[ integral of weight (v - target)^2 / 2 dt + wt X_T^2 + wi Y_0^2 ].
    Their adjoint (X~, p, q) = (-Q, p, q) is the state's transposed
    partials, as ``solve_adjoint`` writes it:

        dX~ = H_y dt + H_z dW,   X~_0 = 2 wi Y_0,
        -dp = H_x dt - q dW,     p_T = 2 wt X_T + gain X~_T,

    where H_s sums each coefficient's s-slope (its law slope on the
    multiplier's mean) over the multipliers p (drift), q (diffusion) and
    X~ (driver), and H_v = 0 gives the feedback v = target - (slope .
    (p, q, X~)) / weight.  Returns ``(E[Y_0], costs)``, one cost per
    player."""
    own, law, slope = _lq_rows(params)
    k = len(players)
    n = m = 1 + k
    width = n + 2 * m
    state = [0, n, n + m]  # the columns of X, Y and Z in v = (xi, eta, zeta)
    coefs = [[np.zeros((rows, width)), np.zeros((rows, width)), np.zeros(rows)]
             for rows in (n, n, m)]  # drift, diffusion, driver
    for r in range(3):
        coefs[r][0][0, state] = own[r]
        coefs[r][1][0, state] = law[r]
        coefs[r][2][0] = slope[r] * control
    phi, psi = np.zeros((m, n)), np.zeros((n, m))
    phi[0, 0] = gain
    forms = []
    for i, (moves, weight, target, wt, wi) in enumerate(players, 1):
        multipliers = [n + i, n + m + i, i]  # p_i, q_i, X~_i of drift, diffusion, driver
        feedback = np.zeros(width)  # v_i - target = feedback @ v
        feedback[multipliers] = -np.asarray(moves, dtype=float) / weight
        for r in range(3):
            coefs[r][0][0] += moves[r] * feedback
            coefs[r][2][0] += moves[r] * target
        for r, s in ((0, 1), (1, 2), (2, 0)):  # X~_i's drift H_y, diffusion H_z; p_i's H_x
            coefs[r][0][i, multipliers] = own[:, s]
            coefs[r][1][i, multipliers] = law[:, s]
        phi[i, 0], phi[i, i], psi[i, 0] = 2.0 * wt, gain, 2.0 * wi
        forms.append(0.5 * weight * np.outer(np.append(feedback, 0.0), np.append(feedback, 0.0)))
    x0 = np.zeros(n)
    x0[0] = params.x0
    mean0, mean_t, cov_t, running = linear_mf_fbsde(
        *coefs, (phi, np.zeros(m)), (x0, psi), params.horizon, forms, steps)
    y0, second_xt = mean0[n], cov_t[0, 0] + mean_t[0] ** 2
    costs = tuple(float(run + wt * second_xt + wi * y0**2)
                  for run, (_, _, _, wt, wi) in zip(running, players))
    return float(y0), costs


def _cost_weights(params):
    """(control weight, terminal weight, initial weight, terminal gain) of an
    LQ problem's cost and tie; LQ1's are 1, 1/2, 1/2 and 1."""
    if isinstance(params, LQ2Params):
        return (float(params.control_weight), params.terminal_weight, params.initial_weight,
                params.terminal_gain)
    return 1.0, 0.5, 0.5, 1.0


@functools.lru_cache(maxsize=None)
def lq_state_y0(params, control, steps=1000):
    """Exact E[Y_0] of an LQ state system at a constant control."""
    gain = _cost_weights(params)[3]
    return lq_exact(params, control=control, gain=gain, steps=steps)[0]


@functools.lru_cache(maxsize=None)
def lq_optimum(params, steps=1000):
    """Exact optimal cost J* and E[Y_0] at the optimum of an LQ problem."""
    weight, wt, wi, gain = _cost_weights(params)
    player = (_lq_rows(params)[2], weight, 0.0, wt, wi)
    y0, (cost,) = lq_exact(params, (player,), gain=gain, steps=steps)
    return cost, y0


@functools.lru_cache(maxsize=None)
def lq_nash_costs(params=None, coupling=0.2, target=0.3, steps=1000):
    """Exact equilibrium costs (J1, J2) of ``lq_game(params, coupling,
    target)`` at a constant target, from the game's docstring: player 1
    moves the LQ coefficients' control slots and pays v1^2/2, X_T^2/2 and
    Y_0^2/2; player 2 moves the drift by ``coupling * drift_control`` and
    pays (v2 - target)^2/2 and ``coupling`` X_T^2; Y_T = terminal_gain X_T
    (1 for LQ1)."""
    params = params or LQ1Params()
    one = (_lq_rows(params)[2], 1.0, 0.0, 0.5, 0.5)
    two = ((coupling * float(params.drift_control), 0.0, 0.0), 1.0, target, coupling, 0.0)
    return lq_exact(params, (one, two), gain=_cost_weights(params)[3], steps=steps)[1]
