"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root (they are not part of the tier-1 suite):

    python3 -m pytest -q perfbench
"""

import os

# one BLAS thread, as in the benchmark, so repeated runs reduce in one order
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mfcontrol import lq_examples, smp_control  # noqa: E402
from mfcontrol.core import EnsembleConfig, make_time_grid, sample_brownian  # noqa: E402

TINY = {
    "lq2_verify": dict(particles=64, steps=2, samples=200, n_deviations=2,
                       control_trials=2, step=1.0),
    "lq2_solve_wide": dict(particles=256, steps=4),
    "nash_game": dict(particles=128, steps=8, rounds=2, br_steps=3, n_trials=3,
                      n_deviations=2),
}


def _traced(name, seed=0):
    prepared = workloads.WORKLOADS[name](seed, **TINY[name])
    with tracer.Tracer() as tr:
        out = prepared.call()
    return prepared.fingerprint(out), tr


def _assert_identical(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_identical(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_identical(u, v)
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b)
    elif isinstance(a, float) and np.isnan(a):
        assert np.isnan(b)
    else:
        assert a == b


def test_decoupled_state_solve_is_one_sweep_of_eight_fits():
    grid = make_time_grid(1.0, 4)
    noise = sample_brownian(grid, EnsembleConfig(particles=64, seed=0))
    model = lq_examples.lq1_model(lq_examples.LQ1Params())
    with tracer.Tracer() as tr:
        smp_control.solve_state(model, 0.0, grid, noise)
    times = tr.layer_times()
    assert times["smp_control.state"]["calls"] == 1
    assert times["forward_mv.simulate"]["calls"] == 1
    assert times["mf_bsde.sweep"]["calls"] == 1
    assert times["mf_bsde.regress"]["calls"] == 8  # Y- and Z-fit at each of 4 nodes
    assert "fbsde_solver.continuation" not in times


def test_install_rebinds_every_alias_and_uninstall_restores_them():
    modules = tracer.package_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    originals = {
        id(getattr(sys.modules[f"mfcontrol.{mod}"], fn)) for mod, fn, _ in tracer.TRACED
    }
    with tracer.Tracer():
        for m in modules:
            for k, v in vars(m).items():
                assert id(v) not in originals, f"{m.__name__}.{k} left unwrapped"
        # solve_state is reached through aliases in games and lq_examples
        assert sys.modules["mfcontrol.games"].solve_state is not before[
            ("mfcontrol.smp_control", "solve_state")]
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is val for key, val in before.items())


def test_self_time_subtracts_children_and_total_skips_nested_same_name():
    tr = tracer.Tracer()
    tr.spans.extend([
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 5.0, 7.0, 0],
    ])
    times = tr.layer_times()
    assert times["a"] == {"calls": 2, "total_s": 10.0, "self_s": 7.0}
    assert times["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_outputs_are_bit_identical_to_untraced(name):
    prepared = workloads.WORKLOADS[name](0, **TINY[name])
    plain = prepared.fingerprint(prepared.call())
    traced, tr = _traced(name)
    assert tr.spans
    _assert_identical(plain, traced)


@pytest.mark.parametrize("name", sorted(TINY))
def test_two_traced_runs_of_one_seed_give_identical_counts(name):
    _, first = _traced(name)
    _, second = _traced(name)
    calls = lambda tr: {k: v["calls"] for k, v in tr.layer_times().items()}  # noqa: E731
    assert calls(first) == calls(second)
    assert first.counts == second.counts
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]
    if name == "nash_game":  # the decoupled path never reaches the coupled solvers
        assert not any(s[0].startswith("fbsde_solver.") for s in first.spans)
    else:
        assert first.counts["fbsde_solver.continuation.levels"] > 0


def test_layer_metrics_report_ratios_with_base_zero_as_zero():
    _, tr = _traced("nash_game")
    metrics = run.layer_metrics(tr)
    assert metrics["fbsde_solver.continuation.calls"]["value"] == 0
    assert metrics["fbsde_solver.seed_sweeps_per_solve"]["value"] == 0.0
    assert metrics["games.nash.rounds"]["value"] >= 1
    assert metrics["smp_control.descent.armijo_trials"]["value"] >= 1


def test_cli_offers_exactly_the_defined_workloads():
    assert set(run.NAMES) == set(workloads.WORKLOADS) == set(TINY)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "nash_game",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
