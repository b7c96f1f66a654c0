"""Outside-in layer tracer for the ``mfcontrol`` solver stack.

The package is measured without editing it: each traced public function is
replaced by a timing wrapper in *every* ``mfcontrol.*`` module namespace that
holds it.  Modules call each other through names bound by
``from x import f``, so wrapping only the defining module would miss most
calls; :meth:`Tracer.install` therefore rebinds every alias and then asserts
that none of the originals is still reachable from a module namespace.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory until
:meth:`Tracer.write_spans`.  Exact work counts are read from the public
return values (continuation logs, Picard histories, descent and candidate
histories, ``NashResult``), never from timing.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "mfcontrol"


# ----------------------------------------------------------------------
# Count extraction from public return values
# ----------------------------------------------------------------------


def _continuation_counts(out, counts):
    _, log = out
    levels = sum(1 for rec in log if "changes" in rec)
    halvings = sum(1 for rec in log if "halved_to" in rec)
    polish = [rec["polish"] for rec in log if "polish" in rec]
    counts["fbsde_solver.continuation.levels"] += levels
    counts["fbsde_solver.continuation.halvings"] += halvings
    counts["fbsde_solver.continuation.polish_attempts"] += len(polish)
    counts["fbsde_solver.continuation.polish_accepts"] += sum(
        1 for p in polish if p != "rejected"
    )


def _picard_counts(out, counts):
    counts["fbsde_solver.picard.iterations"] += len(out[1])


def _picard_error_counts(exc, counts):
    # a rejected polish or warm start still ran its sweeps
    counts["fbsde_solver.picard.iterations"] += len(getattr(exc, "history", None) or [])


def _descent_counts(out, counts):
    history = out[1]
    counts["smp_control.descent.iterations"] += len(history)
    for rec in history:
        backtracks = int(rec.get("backtracks", 0))
        accepted = rec.get("status") is None  # "converged" / "stagnated" accept nothing
        counts["smp_control.descent.backtracks"] += backtracks
        counts["smp_control.descent.armijo_trials"] += backtracks + int(accepted)
        counts["smp_control.descent.armijo_accepts"] += int(accepted)


def _candidate_counts(out, counts):
    counts["lq_examples.candidate.iterations"] += len(out[1])


def _nash_counts(out, counts):
    counts["games.nash.rounds"] += int(out.rounds)


#: (module, function, span name) of every traced public function
TRACED = (
    ("mf_bsde", "regress_conditional_expectation", "mf_bsde.regress"),
    ("mf_bsde", "solve_mf_bsde", "mf_bsde.sweep"),
    ("forward_mv", "simulate_forward", "forward_mv.simulate"),
    ("fbsde_solver", "solve_linear_seed", "fbsde_solver.linear_seed"),
    ("fbsde_solver", "solve_picard", "fbsde_solver.picard"),
    ("fbsde_solver", "solve_continuation", "fbsde_solver.continuation"),
    ("smp_control", "solve_state", "smp_control.state"),
    ("smp_control", "solve_adjoint", "smp_control.adjoint"),
    ("smp_control", "solve_variational", "smp_control.variational"),
    ("smp_control", "smp_gradient", "smp_control.gradient"),
    ("smp_control", "projected_gradient_descent", "smp_control.descent"),
    ("smp_control", "check_sufficiency", "smp_control.sufficiency"),
    ("hypothesis_check", "check_H4", "hypothesis_check.H4"),
    ("hypothesis_check", "check_H5", "hypothesis_check.H5"),
    ("hypothesis_check", "check_H6", "hypothesis_check.H6"),
    ("lq_examples", "lq1_candidate", "lq_examples.candidate"),
    ("lq_examples", "lq2_candidate", "lq_examples.candidate"),
    ("lq_examples", "deviation_check", "lq_examples.deviation_check"),
    ("lq_examples", "verify_example", "lq_examples.verify"),
    ("games", "best_response", "games.best_response"),
    ("games", "deviation_test", "games.deviation_test"),
    ("games", "nash_iterate", "games.nash"),
)

#: span name -> count hook on the return value
ON_RETURN = {
    "fbsde_solver.picard": _picard_counts,
    "fbsde_solver.continuation": _continuation_counts,
    "smp_control.descent": _descent_counts,
    "lq_examples.candidate": _candidate_counts,
    "games.nash": _nash_counts,
}
#: span name -> count hook on a raised exception
ON_ERROR = {"fbsde_solver.picard": _picard_error_counts}


def package_modules():
    """Import and return every ``mfcontrol`` module, the package included."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the traced functions, records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._rebound: list = []  # (module, attribute, original)

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        modules = package_modules()
        originals = {}
        for mod_name, fn_name, span in TRACED:
            orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            originals[id(orig)] = (orig, self._wrap(orig, span))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, val))
        left = [
            f"{mod.__name__}.{attr}"
            for mod in modules
            for attr, val in vars(mod).items()
            if id(val) in originals and originals[id(val)][0] is val
        ]
        if left:
            self.uninstall()
            raise RuntimeError(f"unwrapped aliases remain: {left}")
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        on_return, on_error = ON_RETURN.get(name), ON_ERROR.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc, counts)
                raise
            span[2] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(out, counts)
            return out

        return traced

    # -- reduction ------------------------------------------------------

    def layer_times(self):
        """Per span name: calls, total (outermost spans only) and self time."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            rec = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = end - start
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:  # not nested inside a span of the same name
                rec["total_s"] += dur
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
