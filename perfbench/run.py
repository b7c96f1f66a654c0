"""Benchmark of the mfcontrol solver stack.

Run from the repository root:

    python3 perfbench/run.py --workload lq2_verify --seed 0 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``.  One run repeats the workload's
end-to-end call, one call at a time, while the next call is expected to end
within ``--seconds`` (always at least one call), and checks every call's
output against the workload's correctness gate.

``--trace 0`` reports the end-to-end metrics of untraced calls:

* ``wall_s``       median wall time of one call;
* ``setup_s``      median over this process and six fresh ones of import,
                   fixture construction and noise sampling;
* ``peak_rss_mb``  peak resident memory of this process.

``--trace 1`` makes the same untraced calls, then one more under the
outside-in tracer (``tracer.py``), and reports the per-layer metrics plus
the tracing overhead (traced minus median untraced wall time).  The spans
are written to ``.bench_out/``.

BLAS and OpenMP are pinned to one thread before numpy is imported.  The
last stdout line is the JSON result; the line before it records the
environment and the per-call details.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # this process and six fresh ones
# the keys of workloads.WORKLOADS, which is imported only inside the timed set-up
NAMES = ("lq2_verify", "lq2_solve_wide", "nash_game")


def _setup(workload, seed):
    """Import the package, build the fixtures, sample the noise; timed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    prepared = workloads.WORKLOADS[workload](seed)
    return prepared, time.perf_counter() - t0


def _setup_probes(workload, seed, count):
    """Set-up times of ``count`` fresh processes, run one at a time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _environment():
    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    env["cpu"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env["git_sha"] = None
    if (ROOT / ".git").exists():
        try:
            env["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "mfcontrol").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def _timed_call(prepared):
    """One gated call; returns (wall seconds, passed, gate details)."""
    t0 = time.perf_counter()
    try:
        out = prepared.call()
    except Exception as exc:  # a raising call is a failed operation
        return time.perf_counter() - t0, False, {"error": repr(exc)}
    wall = time.perf_counter() - t0
    try:
        ok, info = prepared.check(out)
    except Exception as exc:
        return wall, False, {"error": f"gate raised {exc!r}"}
    return wall, ok, info


def _ratio(num, den):
    """A ratio whose base is 0 is reported as 0 (the base is reported too)."""
    return num / den if den else 0.0


def layer_metrics(tr):
    """Per-layer metrics of one traced call, ``module.function.stat`` names."""
    t = tr.layer_times()
    c = tr.counts

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def secs(name, stat):
        return t.get(name, {}).get(stat, 0.0)

    levels = c["fbsde_solver.continuation.levels"]
    level_attempts = levels + c["fbsde_solver.continuation.halvings"]
    m = {
        "mf_bsde.regress.calls": (calls("mf_bsde.regress"), "count"),
        "mf_bsde.regress.self_s": (secs("mf_bsde.regress", "self_s"), "s"),
        "mf_bsde.sweep.calls": (calls("mf_bsde.sweep"), "count"),
        "mf_bsde.sweep.self_s": (secs("mf_bsde.sweep", "self_s"), "s"),
        "forward_mv.simulate.calls": (calls("forward_mv.simulate"), "count"),
        "forward_mv.simulate.self_s": (secs("forward_mv.simulate", "self_s"), "s"),
        "fbsde_solver.linear_seed.calls": (calls("fbsde_solver.linear_seed"), "count"),
        "fbsde_solver.linear_seed.self_s": (secs("fbsde_solver.linear_seed", "self_s"), "s"),
        "fbsde_solver.picard.calls": (calls("fbsde_solver.picard"), "count"),
        "fbsde_solver.picard.iterations": (c["fbsde_solver.picard.iterations"], "count"),
        "fbsde_solver.picard.self_s": (secs("fbsde_solver.picard", "self_s"), "s"),
        "fbsde_solver.continuation.calls": (calls("fbsde_solver.continuation"), "count"),
        "fbsde_solver.continuation.self_s": (secs("fbsde_solver.continuation", "self_s"), "s"),
        "fbsde_solver.continuation.levels": (levels, "count"),
        "fbsde_solver.continuation.halvings": (c["fbsde_solver.continuation.halvings"], "count"),
        "fbsde_solver.continuation.level_attempts": (level_attempts, "count"),
        "fbsde_solver.continuation.level_accept_ratio": (_ratio(levels, level_attempts), "ratio"),
        "fbsde_solver.continuation.polish_attempts": (
            c["fbsde_solver.continuation.polish_attempts"], "count"),
        "fbsde_solver.continuation.polish_accept_ratio": (
            _ratio(c["fbsde_solver.continuation.polish_accepts"],
                   c["fbsde_solver.continuation.polish_attempts"]), "ratio"),
        "fbsde_solver.seed_sweeps_per_solve": (
            _ratio(calls("fbsde_solver.linear_seed"), calls("fbsde_solver.continuation")),
            "ratio"),
        "smp_control.state.calls": (calls("smp_control.state"), "count"),
        "smp_control.state.total_s": (secs("smp_control.state", "total_s"), "s"),
        "smp_control.adjoint.calls": (calls("smp_control.adjoint"), "count"),
        "smp_control.adjoint.total_s": (secs("smp_control.adjoint", "total_s"), "s"),
        "smp_control.variational.calls": (calls("smp_control.variational"), "count"),
        "smp_control.variational.total_s": (secs("smp_control.variational", "total_s"), "s"),
        "smp_control.gradient.calls": (calls("smp_control.gradient"), "count"),
        "smp_control.gradient.self_s": (secs("smp_control.gradient", "self_s"), "s"),
        "smp_control.descent.iterations": (c["smp_control.descent.iterations"], "count"),
        "smp_control.descent.backtracks": (c["smp_control.descent.backtracks"], "count"),
        "smp_control.descent.armijo_trials": (c["smp_control.descent.armijo_trials"], "count"),
        "smp_control.descent.armijo_accept_ratio": (
            _ratio(c["smp_control.descent.armijo_accepts"],
                   c["smp_control.descent.armijo_trials"]), "ratio"),
        "smp_control.sufficiency.total_s": (secs("smp_control.sufficiency", "total_s"), "s"),
        "hypothesis_check.total_s": (
            sum(secs(f"hypothesis_check.{h}", "total_s") for h in ("H4", "H5", "H6")), "s"),
        "lq_examples.candidate.iterations": (c["lq_examples.candidate.iterations"], "count"),
        "lq_examples.candidate.total_s": (secs("lq_examples.candidate", "total_s"), "s"),
        "lq_examples.deviation_check.total_s": (
            secs("lq_examples.deviation_check", "total_s"), "s"),
        "games.best_response.calls": (calls("games.best_response"), "count"),
        "games.best_response.total_s": (secs("games.best_response", "total_s"), "s"),
        "games.deviation_test.total_s": (secs("games.deviation_test", "total_s"), "s"),
        "games.nash.rounds": (c["games.nash.rounds"], "count"),
        "trace.spans": (len(tr.spans), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "mfcontrol" / "__init__.py").is_file():
        print(f"error: no mfcontrol sources under {SRC}", file=sys.stderr)
        return 2

    prepared, own_setup = _setup(args.workload, args.seed)
    import mfcontrol

    if Path(mfcontrol.__file__).resolve().parent != (SRC / "mfcontrol").resolve():
        print(f"error: imported mfcontrol from {mfcontrol.__file__}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(own_setup)
        return 0

    # half the probes before the timed calls and half after, so that the
    # median spans the slow and fast phases of a shared machine
    setup = [own_setup]
    if not args.trace:
        setup += _setup_probes(args.workload, args.seed, SETUP_SAMPLES // 2)

    walls, details = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        wall, ok, info = _timed_call(prepared)
        walls.append(wall)
        details.append(info)
        attempted += 1
        failed += not ok
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    wall_s = statistics.median(walls)

    if args.trace:
        import tracer

        with tracer.Tracer() as tr:
            traced_wall, ok, info = _timed_call(prepared)
        attempted += 1
        failed += not ok
        details.append(info)
        metrics = layer_metrics(tr)
        metrics["trace.traced_wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall_s, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        tr.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.json")
    else:
        setup += _setup_probes(args.workload, args.seed, SETUP_SAMPLES - len(setup))
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": _environment(), "walls_s": walls,
                      "setup_samples_s": setup, "gates": details}, default=float))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
