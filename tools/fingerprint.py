"""Print the gate verdict and a digest of each benchmark workload's output.

Run from the repository root:

    python3 tools/fingerprint.py lq2_verify:0 lq2_solve_wide:0 nash_game:0 verify:2

For each ``WORKLOAD:SEED`` pair this builds the workload of
``perfbench/workloads.py``, makes one call, and prints one line: the pair,
the gate verdict (``pass`` or ``FAIL``) and the sha256 of the call's
``fingerprint()``.  ``verify:1`` and ``verify:2`` instead run
``lq_examples.verify_example(1)`` or ``(2)`` at the committed defaults
(M=64, N=2048, T=1; about 2 s and 30 s): the verdict is the report's
``passed`` and the digest is taken from its ``to_dict()``.  Two trees that print the same digest for a pair produce
bit-identical output for it.  The digest walks dicts by sorted key and
lists and tuples in order, hashes an array by its dtype, shape and bytes,
and every other value by its ``repr``.  BLAS and OpenMP are pinned to one
thread before numpy is imported, as in ``perfbench/run.py``.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from mfcontrol import lq_examples  # noqa: E402


def _update(digest, value) -> None:
    if isinstance(value, dict):
        digest.update(b"{")
        for key in sorted(value):
            digest.update(repr(key).encode())
            _update(digest, value[key])
        digest.update(b"}")
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _update(digest, item)
        digest.update(b"]")
    elif isinstance(value, np.ndarray):
        digest.update(f"array {value.dtype.str} {value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(repr(value).encode())


def fingerprint_digest(value) -> str:
    """sha256 of a fingerprint value (nested dicts, lists, arrays, scalars)."""
    digest = hashlib.sha256()
    _update(digest, value)
    return digest.hexdigest()


def _pair(text: str):
    name, sep, seed = text.partition(":")
    if name == "verify" and seed in ("1", "2"):
        return name, int(seed)
    if not sep or name not in workloads.WORKLOADS or not seed.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD:SEED with WORKLOAD in {sorted(workloads.WORKLOADS)}, "
            f"or verify:1 or verify:2, got {text!r}"
        )
    return name, int(seed)


def _run(name: str, seed: int):
    """(gate passed, fingerprint value) of one pair."""
    if name == "verify":
        report = lq_examples.verify_example(seed)
        return report.passed, report.to_dict()
    prepared = workloads.WORKLOADS[name](seed)
    out = prepared.call()
    return prepared.check(out)[0], prepared.fingerprint(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pairs", nargs="+", type=_pair, metavar="WORKLOAD:SEED")
    args = ap.parse_args(argv)
    for name, seed in args.pairs:
        ok, value = _run(name, seed)
        verdict = "pass" if ok else "FAIL"
        print(f"{name}:{seed} {verdict} {fingerprint_digest(value)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
