"""Run the ``nash_game`` benchmark workload over workload and noise seeds.

Run from the repository root:

    python3 tools/nash_sweep.py --seeds 0-9 --noise-seeds 0

For each (noise seed, workload seed) pair this builds the ``nash_game``
workload of ``perfbench/workloads.py`` with ``workloads.NASH_NOISE_SEED``
set to the noise seed, makes one call under the outside-in tracer, and
prints one JSON line: the gate verdict, rounds, state solves, the descent
counts (with the most backtracks of any one search), the wall time of the
traced call, and both players' costs at the final pair next to the exact
equilibrium of ``lq_game(coupling=0.2)`` (J1 = 0.294203, J2 = 0.027445,
from its Riccati decoupling field).  A last JSON line sums the sweep up:
runs, gate failures, a histogram of rounds, state solves (min, mean, max)
and the ranges of both relative errors.  The exit status is 1 when any run
fails its gate.  BLAS and OpenMP are pinned to one thread before numpy is
imported.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from mfcontrol import games, lq_examples, smp_control  # noqa: E402
from mfcontrol.core import EnsembleConfig, make_time_grid, sample_brownian  # noqa: E402

#: exact equilibrium costs of lq_game(coupling=0.2) at T=1
EXACT_J = (0.294203, 0.027445)


def _seeds(text: str):
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]


def run(seed: int, noise_seed: int) -> dict:
    workloads.NASH_NOISE_SEED = noise_seed
    prepared = workloads.nash_game(seed)
    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        res = prepared.call()
        wall = time.perf_counter() - t0
    ok, _ = prepared.check(res)
    # the workload's fixtures at its defaults, rebuilt to price the final pair
    game = lq_examples.lq_game(coupling=0.2)
    grid = make_time_grid(1.0, 64)
    noise = sample_brownian(grid, EnsembleConfig(particles=2048, seed=noise_seed))
    costs = (
        smp_control.cost(games.induced_model(game, 1, res.u2, grid), res.u1, grid, noise),
        smp_control.cost(games.induced_model(game, 2, res.u1, grid), res.u2, grid, noise),
    )
    counts = tr.counts
    searches = [
        rec["backtracks"]
        for row in res.history
        for key in ("response_1", "response_2")
        for rec in row.get(key) or ()
    ]
    return {
        "seed": seed,
        "noise_seed": noise_seed,
        "passed": ok,
        "rounds": res.rounds,
        "state_solves": tr.layer_times()["smp_control.state"]["calls"],
        "armijo_trials": counts["smp_control.descent.armijo_trials"],
        "backtracks": counts["smp_control.descent.backtracks"],
        "max_backtracks": max(searches, default=0),
        "traced_wall_s": round(wall, 3),
        "J1": costs[0],
        "J2": costs[1],
        "J1_rel_err": costs[0] / EXACT_J[0] - 1.0,
        "J2_rel_err": costs[1] / EXACT_J[1] - 1.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=[0], help="workload seeds, N or LO-HI")
    ap.add_argument("--noise-seeds", type=_seeds, default=[0], help="noise seeds, N or LO-HI")
    args = ap.parse_args(argv)
    rows = []
    for noise_seed in args.noise_seeds:
        for seed in args.seeds:
            rows.append(run(seed, noise_seed))
            print(json.dumps(rows[-1]), flush=True)
    print(json.dumps(summary(rows)), flush=True)
    return 0 if all(row["passed"] for row in rows) else 1


def summary(rows) -> dict:
    solves = [row["state_solves"] for row in rows]
    rounds = sorted({row["rounds"] for row in rows})

    def span(key):
        values = [row[key] for row in rows]
        return [min(values), max(values)]

    return {
        "runs": len(rows),
        "failures": sum(not row["passed"] for row in rows),
        "rounds": {str(r): sum(row["rounds"] == r for row in rows) for r in rounds},
        "state_solves": [min(solves), round(sum(solves) / len(solves), 1), max(solves)],
        "J1_rel_err": span("J1_rel_err"),
        "J2_rel_err": span("J2_rel_err"),
    }


if __name__ == "__main__":
    sys.exit(main())
