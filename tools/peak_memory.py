"""Print the peak traced memory of one call of each benchmark workload.

Run from the repository root:

    python3 tools/peak_memory.py lq2_solve_wide:0 nash_game:0
    python3 tools/peak_memory.py --where lq2_solve_wide:0

For each ``WORKLOAD:SEED`` pair this builds the workload of
``perfbench/workloads.py`` untraced, then makes one call under
``tracemalloc`` and prints the pair and the call's peak of traced memory
(numpy registers its array buffers with ``tracemalloc``, so the peak counts
them).  The peak is the call's own: the fixtures are built before tracing
starts.

With ``--where`` the call runs twice more under a profile hook that reads
the traced memory at every Python and C call and return.  The first run
finds the event at which it is highest; the second stops at that event and
prints the Python stack there (innermost frame last) and the twelve source
lines whose live allocations are largest.  A peak inside one C call (a
temporary of a numpy expression) is seen at the event that follows it, so
the located level can lie below the peak.  BLAS and OpenMP are pinned to one
thread before numpy is imported, as in ``perfbench/run.py``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

MB = 1024.0 * 1024.0
#: allocation lines printed by ``--where``
TOP_LINES = 12


def _pair(text: str):
    name, sep, seed = text.partition(":")
    if not sep or name not in workloads.WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:SEED with WORKLOAD in {sorted(workloads.WORKLOADS)}, got {text!r}"
        )
    return name, int(seed)


def _shown(filename: str):
    where = Path(filename)
    return where.relative_to(ROOT) if where.is_relative_to(ROOT) else where.name


def traced_peak(call) -> int:
    """Peak traced bytes of one ``call()``, counted from its start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _profiled(call, hook) -> None:
    tracemalloc.start()
    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
        tracemalloc.stop()


def locate_peak(call, top: int):
    """Run ``call()`` twice under a profile hook: find the event with the
    most traced memory, then return that level, the stack and the ``top``
    live allocation lines there."""
    best = {"level": -1, "event": -1}
    events = [0]

    def find(frame, event, arg):
        events[0] += 1
        level = tracemalloc.get_traced_memory()[0]
        if level > best["level"]:
            best.update(level=level, event=events[0])

    _profiled(call, find)
    found = {}
    events[0] = 0

    def stop(frame, event, arg):
        events[0] += 1
        if events[0] == best["event"]:
            found["level"] = tracemalloc.get_traced_memory()[0]
            found["snapshot"] = tracemalloc.take_snapshot()
            found["stack"] = [
                fs for fs in traceback.extract_stack(frame) if Path(fs.filename) != HERE
            ]

    _profiled(call, stop)
    lines = found["snapshot"].statistics("lineno")[:top]
    return found["level"], found["stack"], lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", type=_pair, metavar="WORKLOAD:SEED")
    ap.add_argument("--where", action="store_true",
                    help="also print the stack and the live allocation lines at the peak")
    args = ap.parse_args(argv)
    for name, seed in args.pairs:
        prepared = workloads.WORKLOADS[name](seed)
        peak = traced_peak(prepared.call)
        print(f"{name}:{seed} traced peak {peak / MB:.1f} MB", flush=True)
        if not args.where:
            continue
        level, stack, lines = locate_peak(prepared.call, TOP_LINES)
        print(f"  located at {level / MB:.1f} MB; stack, innermost last:")
        for frame in stack:
            print(f"    {_shown(frame.filename)}:{frame.lineno} {frame.name}")
        print("  live allocations by line:")
        for stat in lines:
            origin = stat.traceback[0]
            print(f"    {stat.size / MB:8.2f} MB {stat.count:7d} blocks  "
                  f"{_shown(origin.filename)}:{origin.lineno}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
