"""The benchmark's three workloads: fixtures, the timed call, and its gate.

Each workload is one closed-loop caller in one process: it issues one
end-to-end call and waits for it.  Fixtures and noise come only from the
workload seed (``nash_game`` keeps its noise fixed, see
``NASH_NOISE_SEED``).  The timed call goes through the module attribute
(``lq_examples.verify_example``, not a local alias) so that an installed
:class:`tracer.Tracer` sees it.

Why these three (numbers are seed-0 traced measurements on a 2-core Xeon):

* ``lq2_verify`` -- the coupled pipeline at the tier-1 test scale: 41 cold
  continuation solves, ~4.4k seed sweeps, ~4.7k backward sweeps and ~75k
  regression fits.  At N=512 per-call interpreter overhead dominates, and
  the candidate fixed point is ~90% of the run.
* ``lq2_solve_wide`` -- one coupled state solve at N=16384: each Anderson
  history vector holds 3*9*16384 doubles (3.5 MB), more than the per-core
  L2, so O(N) array work dominates instead of per-call overhead.
* ``nash_game`` -- the decoupled game path: no ``fbsde_solver`` call at all,
  so it is the bypass workload for every coupled-solver change, and the
  only one that exercises ``games``: 331 state solves, 80 adjoints, 411
  sweeps and ~53k fits; ``mf_bsde`` self time is ~70% of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Tuple

import numpy as np

from mfcontrol import fbsde_solver, games, lq_examples, smp_control
from mfcontrol.core import EnsembleConfig, make_time_grid, sample_brownian


@dataclass
class Prepared:
    """Fixtures of one workload: ``call()`` runs it, ``check(out)`` gates it,
    ``fingerprint(out)`` gives the values two runs must reproduce exactly."""

    call: Callable[[], Any]
    check: Callable[[Any], Tuple[bool, Dict[str, Any]]]
    fingerprint: Callable[[Any], Dict[str, Any]]


def _within(value, ref, rel_tol):
    return bool(np.isfinite(value) and abs(value - ref) <= rel_tol * abs(ref))


# ----------------------------------------------------------------------
# lq2_verify
# ----------------------------------------------------------------------

#: ``candidate_cost`` recorded at the benchmark's seed commit, per seed
VERIFY_COST = {
    0: 0.9410224199881398,
    1: 0.915855637020931,
    2: 0.9391839626349199,
    3: 0.926201987795009,
    4: 0.9220172109104772,
    5: 0.9314617700204197,
    6: 0.9255360478133496,
    7: 0.9103326298754184,
    8: 0.9396981151073818,
    9: 0.9557266388046646,
}
#: relative tolerance against a recorded per-seed cost: room for solver-
#: tolerance changes in the numerics, far below the seed-to-seed spread
VERIFY_COST_TOL = 2e-3
#: (centre, relative half-width) for a seed without a record: the mean of the
#: recorded costs, and about six standard deviations of their spread (1.3%)
VERIFY_COST_BAND = (0.9307, 0.08)


def lq2_verify(seed: int, particles: int = 512, steps: int = 8, horizon: float = 0.25,
               samples: int = 2000, n_deviations: int = 8, control_trials: int = 8,
               step: float = 0.5) -> Prepared:
    params = replace(lq_examples.LQ2Params(), horizon=horizon)
    grid = make_time_grid(horizon, steps)
    cfg = lq_examples.VerifyConfig(
        particles=particles, seed=seed, n_deviations=n_deviations,
        sufficiency_samples=samples, hypothesis_samples=samples,
        control_trials=control_trials,
        schedule=fbsde_solver.ContinuationSchedule(step=step),
    )

    def call():
        return lq_examples.verify_example(2, params=params, grid=grid, cfg=cfg)

    def check(report):
        cost = report.candidate_cost
        if seed in VERIFY_COST:
            ref, tol = VERIFY_COST[seed], VERIFY_COST_TOL
        else:
            ref, tol = VERIFY_COST_BAND
        ok = (
            report.passed
            and all(stage["passed"] for stage in report.stages)
            and cost is not None
            and _within(cost, ref, tol)
        )
        return ok, {"passed": report.passed, "failing_stage": report.failing_stage,
                    "candidate_cost": cost, "cost_ref": ref, "cost_rel_tol": tol}

    def fingerprint(report):
        return report.to_dict()

    return Prepared(call, check, fingerprint)


# ----------------------------------------------------------------------
# lq2_solve_wide
# ----------------------------------------------------------------------

#: mean Y_0 recorded at the benchmark's seed commit, per seed
SOLVE_Y0 = {
    0: 1.0486525095918375,
    1: 1.0459264573355225,
    2: 1.046938320419701,
    3: 1.049772819448716,
    4: 1.0467006555543743,
    5: 1.047525630533058,
    6: 1.0456270923573179,
    7: 1.046752010169953,
    8: 1.0465229687114874,
    9: 1.0464520832086013,
}
SOLVE_Y0_TOL = 1e-3
#: as VERIFY_COST_BAND: recorded mean, about nine standard deviations (0.11%)
SOLVE_Y0_BAND = (1.0471, 0.01)
#: limit on ``residual(...).worst()``: 1.34e-3 to 1.75e-3 over seeds 0-9
SOLVE_RESIDUAL_LIMIT = 3e-3


def lq2_solve_wide(seed: int, particles: int = 16384, steps: int = 8,
                   horizon: float = 0.25, control: float = 0.3) -> Prepared:
    params = replace(lq_examples.LQ2Params(), horizon=horizon)
    model = lq_examples.lq2_model(params)
    grid = make_time_grid(horizon, steps)
    noise = sample_brownian(grid, EnsembleConfig(particles=particles, seed=seed))

    def call():
        return smp_control.solve_state(model, control, grid, noise)

    def check(sol):
        finite = all(np.all(np.isfinite(a)) for a in (sol.x, sol.y, sol.z))
        # the state system with the control baked in, encoded separately
        frozen = lq_examples.lq2_fbsde(params, control=control)
        worst = fbsde_solver.residual(frozen, sol, grid, noise).worst()
        y0 = float(sol.y[0].mean())
        if seed in SOLVE_Y0:
            ref, tol = SOLVE_Y0[seed], SOLVE_Y0_TOL
        else:
            ref, tol = SOLVE_Y0_BAND
        ok = bool(finite and worst <= SOLVE_RESIDUAL_LIMIT and _within(y0, ref, tol))
        return ok, {"finite": bool(finite), "residual_worst": worst,
                    "residual_limit": SOLVE_RESIDUAL_LIMIT, "mean_y0": y0,
                    "y0_ref": ref, "y0_rel_tol": tol}

    def fingerprint(sol):
        return {"x": sol.x, "y": sol.y, "z": sol.z}

    return Prepared(call, check, fingerprint)


# ----------------------------------------------------------------------
# nash_game
# ----------------------------------------------------------------------

#: The Brownian noise of ``nash_game`` is fixed; the workload seed drives the
#: certificate sampling (residual trials and deviation profiles).  Over noise
#: seeds 0-5 the same call made 331 to 1091 state solves: player
#: 1's best response descends to the cost's noise floor, where each Armijo
#: search backtracks 20-39 times before it accepts a negligible step or
#: stagnates, and how many such iterations come first is a matter of the draw.
#: Seed 0 is the draw the workload was specified on (331 state solves, 224 of
#: 294 Armijo trials rejected); the waste shows in
#: ``smp_control.descent.armijo_accept_ratio``.
NASH_NOISE_SEED = 0
#: Radius of the residual trials and deviation profiles (``nash_iterate``
#: defaults to 0.5).  At 0.5, player 1's residual at its descent floor
#: (-0.003 to -0.005) straddles its tolerance (0.0039), so whether a round
#: certifies was a coin flip of the trial draw: 3 or 5 rounds over seeds
#: 10-14.  At 0.25 seeds 10-17 all certify in round 3.
NASH_TRIAL_RADIUS = 0.25


def nash_game(seed: int, particles: int = 2048, steps: int = 64, horizon: float = 1.0,
              coupling: float = 0.2, rounds: int = 8, br_steps: int = 20,
              n_trials: int = 12, n_deviations: int = 12) -> Prepared:
    game = lq_examples.lq_game(coupling=coupling)
    grid = make_time_grid(horizon, steps)
    noise = sample_brownian(grid, EnsembleConfig(particles=particles, seed=NASH_NOISE_SEED))

    def call():
        return games.nash_iterate(
            game, (0.0, 0.0), grid, noise, rounds=rounds, damping=1.0,
            br_steps=br_steps, n_trials=n_trials, trial_radius=NASH_TRIAL_RADIUS,
            n_deviations=n_deviations, seed=seed,
        )

    def check(res):
        ok = res.status == "converged" and not res.inconsistent
        return bool(ok), {"status": res.status, "inconsistent": res.inconsistent,
                          "rounds": res.rounds}

    def fingerprint(res):
        return {"u1": res.u1, "u2": res.u2, "summary": res.to_dict()}

    return Prepared(call, check, fingerprint)


WORKLOADS = {
    "lq2_verify": lq2_verify,
    "lq2_solve_wide": lq2_solve_wide,
    "nash_game": nash_game,
}
