import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mfcontrol.core import (
    ConfigError,
    DivergenceError,
    EnsembleConfig,
    NonConvergenceError,
    RegressionError,
    StateView,
    make_time_grid,
    sample_brownian,
    view_means,
)
from mfcontrol import fbsde_solver
from mfcontrol.fbsde_solver import (
    _GROWTH,
    _HANDOVER_TOL,
    _PATIENCE,
    _POLISH_TOL,
    ContinuationSchedule,
    CoupledModel,
    LinearInhomogeneity,
    SolutionTriple,
    _AndersonMixer,
    _blend_sources,
    _fixed_point,
    _seed_iteration,
    _triple_rms,
    residual,
    solve_continuation,
    solve_linear_seed,
    solve_picard,
)
from mfcontrol.forward_mv import ForwardModel, simulate_forward
from mfcontrol.lq_examples import LQ2Params, lq2_fbsde
from mfcontrol.mf_bsde import BackwardModel, default_polynomial_basis, solve_mf_bsde

from oracles import (
    LstsqAndersonMixer,
    PrevPairAndersonMixer,
    first_polish_fails,
    homotopy_coefficients,
    linear_seed_mean_oracle,
    picard_loop,
    seed_iteration_loop,
)


def _ladder_only_after_a_polish(monkeypatch):
    """Make the polish before the ladder of every continuation call fail, so
    that the ladder climbs and the polish after it runs."""
    fails = NonConvergenceError("no contraction", history=[1.0])
    monkeypatch.setattr(fbsde_solver, "solve_picard", first_polish_fails(fails, []))


def _grid_noise(m=32, n=512, seed=2, horizon=1.0):
    g = make_time_grid(horizon, m)
    return g, sample_brownian(g, EnsembleConfig(particles=n, seed=seed))


def _canonical_model(x0=0.3):
    return CoupledModel(
        drift=lambda t, law, own: -law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda xT: xT,
        initial=x0,
    )


def _scaled_model(x0=0.3):
    # monotone but not canonical: both loop gains doubled
    return CoupledModel(
        drift=lambda t, law, own: -2.0 * (law.y + own.y),
        diffusion=lambda t, law, own: -(law.z + own.z),
        driver=lambda t, law, own: 2.0 * (law.x + own.x),
        terminal_map=lambda xT: xT,
        initial=x0,
    )


def _mild_model(x0=0.3):
    # monotone with half-strength couplings: the decoupling map contracts
    # on short horizons, so both solver routes are usable
    return CoupledModel(
        drift=lambda t, law, own: -0.5 * (law.y + own.y),
        diffusion=lambda t, law, own: -0.5 * (law.z + own.z),
        driver=lambda t, law, own: 0.5 * (law.x + own.x),
        terminal_map=lambda xT: xT,
        initial=x0,
    )


# ----------------------------------------------------------------------
# linear seed
# ----------------------------------------------------------------------


def test_seed_constant_sources_match_shooting_oracle():
    g, w = _grid_noise(64)
    sol, _ = solve_linear_seed(
        LinearInhomogeneity(drift_source=0.7, driver_source=0.7), g, w, x0=0.0
    )
    ref = linear_seed_mean_oracle(0.7, 0.7, 0.0, 0.0, 1.0, 64)
    assert np.abs(sol.x.mean(axis=1) - ref[:, 0]).max() <= 5e-3
    assert np.abs(sol.y.mean(axis=1) - ref[:, 1]).max() <= 5e-3


def test_seed_error_shrinks_with_refinement():
    errs = []
    for m in (32, 64, 128):
        g, w = _grid_noise(m)
        sol, _ = solve_linear_seed(
            LinearInhomogeneity(drift_source=0.7, driver_source=0.7), g, w, x0=0.0
        )
        ref = linear_seed_mean_oracle(0.7, 0.7, 0.0, 0.0, 1.0, m)
        errs.append(np.abs(sol.x.mean(axis=1) - ref[:, 0]).max())
    assert errs[2] < errs[1] < errs[0]


def test_seed_recombination_identity():
    g, w = _grid_noise(32)
    sol, log = solve_linear_seed(
        LinearInhomogeneity(drift_source=0.5, terminal_shift=0.2), g, w, x0=0.1
    )
    assert np.abs((sol.y - sol.x) - log["auxiliary_y"]).max() <= 1e-12


def test_seed_random_terminal_shift_mean_oracle():
    # per-particle terminal shift: means still follow the deterministic
    # system with the sample-average shift (the system is linear)
    g, w = _grid_noise(64, n=4096)
    xi = 0.5 * w.cumulative()[-1]
    sol, _ = solve_linear_seed(LinearInhomogeneity(terminal_shift=xi), g, w, x0=0.4)
    ref = linear_seed_mean_oracle(0.0, 0.0, float(xi.mean()), 0.4, 1.0, 64)
    assert np.abs(sol.x.mean(axis=1) - ref[:, 0]).max() <= 2e-2
    assert np.abs(sol.y.mean(axis=1) - ref[:, 1]).max() <= 2e-2


def test_seed_time_dependent_step_array_sources():
    # a time-dependent source is a step array [M, N]; a callable of t is not
    # a source form, and is refused naming its field
    g, w = _grid_noise(32)
    steps = np.sin(g.nodes[:-1])[:, None] * np.ones((1, w.particles))
    sol, _ = solve_linear_seed(LinearInhomogeneity(drift_source=steps), g, w, x0=0.0)
    assert np.all(np.isfinite(sol.x))
    with pytest.raises(ConfigError, match="^drift_source is of type function, not real numbers"):
        solve_linear_seed(LinearInhomogeneity(drift_source=lambda t: np.sin(t)), g, w, x0=0.0)


def test_seed_rejects_bad_source_shape():
    g, w = _grid_noise(8, n=16)
    with pytest.raises(ConfigError):
        solve_linear_seed(
            LinearInhomogeneity(drift_source=np.zeros((3, 3))), g, w
        )


@pytest.mark.parametrize("source", [1e14, 1e307], ids=["finite", "overflowing"])
def test_seed_guard_stops_a_runaway_forward_pass(source):
    # a drift source of 1e14 pushes X past the default guard (1e12) in the
    # first step; one of 1e307 overflows the auxiliary backward sweep, and
    # without the guard the seed returned that NaN path
    g, w = _grid_noise(8, n=64)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        solve_linear_seed(LinearInhomogeneity(drift_source=source), g, w)
    assert err.value.step == 1
    assert 0 <= err.value.particle < 64
    assert not (abs(err.value.value) <= err.value.guard)


# ----------------------------------------------------------------------
# homotopy blends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("weight", [0.0, 0.4, 1.0])
def test_blend_sources_match_homotopy_oracle(weight):
    # the canonical pair plus the sources at weight a is the oracle's
    # a-blend at every node, for each coefficient and the terminal map
    # (weight 0 leaves the canonical pair, weight 1 the model itself)
    model = CoupledModel(
        drift=lambda t, law, own: -2.0 * (law.y + own.y) + np.sin(own.x) + t,
        diffusion=lambda t, law, own: 0.3 * own.z - law.x * own.y,
        driver=lambda t, law, own: np.cos(own.x) * law.z + own.y,
        terminal_map=lambda xT: np.tanh(xT) + 0.5,
    )
    g = make_time_grid(1.0, 6)
    tri = SolutionTriple(*np.random.default_rng(4).normal(size=(3, 7, 32)))
    src = _blend_sources(model, tri, g, weight, None)
    blend = homotopy_coefficients(model, weight)
    close = dict(rtol=1e-12, atol=1e-12)
    for k in range(g.steps):
        own = StateView(x=tri.x[k], y=tri.y[k], z=tri.z[k])
        law, t = view_means(own), k * g.dt
        np.testing.assert_allclose(
            -law.y - own.y + src.drift_source[k], blend.drift(t, law, own), **close
        )
        np.testing.assert_allclose(
            -law.z - own.z + src.diffusion_source[k], blend.diffusion(t, law, own), **close
        )
        # the driver source enters the integrand with a minus sign
        np.testing.assert_allclose(
            law.x + own.x - src.driver_source[k], blend.driver(t, law, own), **close
        )
    x_last = tri.x[g.steps]
    np.testing.assert_allclose(x_last + src.terminal_shift, blend.terminal_map(x_last), **close)


# ----------------------------------------------------------------------
# picard
# ----------------------------------------------------------------------


def _decoupled_model():
    return CoupledModel(
        drift=lambda t, law, own: 0.4 * law.x - 0.2 * own.x,
        diffusion=lambda t, law, own: 0.3 + 0.0 * own.x,
        driver=lambda t, law, own: 0.5 * own.x + 0.1 * law.x,
        terminal_map=lambda xT: np.sin(xT),
        initial=0.8,
    )


def test_picard_decoupled_converges_in_two_sweeps():
    g, w = _grid_noise(16, n=256)
    sol, history = solve_picard(_decoupled_model(), g, w)
    assert len(history) == 2
    assert history[-1] <= 1e-12


def test_picard_zero_model_converges_in_one_sweep():
    g, w = _grid_noise(8, n=64)
    zero = CoupledModel(
        drift=lambda t, law, own: np.zeros_like(own.x),
        diffusion=lambda t, law, own: np.zeros_like(own.x),
        driver=None,
        terminal_map=0.0,
        initial=0.0,
    )
    sol, history = solve_picard(zero, g, w)
    assert len(history) == 1
    assert np.all(sol.x == 0.0) and np.all(sol.y == 0.0)


def test_picard_decoupled_equals_sequential_composition():
    g, w = _grid_noise(16, n=256)
    model = _decoupled_model()
    sol, _ = solve_picard(model, g, w)
    x = simulate_forward(
        ForwardModel(drift=model.drift, diffusion=model.diffusion, initial=0.8), g, w
    )
    y, z = solve_mf_bsde(
        BackwardModel(driver=model.driver, terminal=model.terminal_map), g, w, x
    )
    assert np.allclose(sol.x, x, atol=1e-12)
    assert np.allclose(sol.y, y, atol=1e-12)
    assert np.allclose(sol.z, z, atol=1e-12)


def test_picard_coupled_short_horizon_converges():
    # tolerance sits above the decoupling map's regression-noise change
    # floor (~1e-7 at this resolution); the macro modes contract at ~0.27
    g, w = _grid_noise(16, n=256, horizon=0.25)
    sol, history = solve_picard(_mild_model(), g, w, tol=1e-6, max_iter=80)
    assert history[-1] <= 1e-6
    rep = residual(_mild_model(), sol, g, w)
    assert rep.terminal <= 1e-8


def test_picard_monotone_violating_toy_fails():
    g, w = _grid_noise(32, n=64)
    bad = CoupledModel(
        drift=lambda t, law, own: -law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: -(law.x + own.x),  # wrong sign: monotonicity broken
        terminal_map=lambda xT: xT,
        initial=0.5,
    )
    with pytest.raises((NonConvergenceError, DivergenceError)):
        solve_picard(bad, g, w, max_iter=40)


def test_picard_reports_history_on_budget_exhaustion():
    g, w = _grid_noise(16, n=64)
    with pytest.raises(NonConvergenceError) as err:
        solve_picard(_scaled_model(), g, w, max_iter=3)
    assert len(err.value.history) == 3 and err.value.reason == "budget"
    assert err.value.last is not None


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"max_iter": 0}, "max_iter"),
        ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"),
        ({"max_iter": True}, "max_iter"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": -1e-6}, "tol"),
    ],
    ids=["max_iter=0", "max_iter=-1", "max_iter=2.5", "max_iter=True",
         "tol=nan", "tol=inf", "tol=0", "tol=-1e-6"],
)
def test_picard_rejects_budgets_that_cannot_work(kwargs, match):
    # max_iter <= 0 used to fail on an empty history with IndexError, and
    # tol=nan ran the whole budget before reporting "did not reach tol nan"
    g, w = _grid_noise(4, n=64)
    with pytest.raises(ConfigError, match=match):
        solve_picard(_canonical_model(), g, w, **kwargs)


@pytest.mark.parametrize("shape", [(5, 65), (4, 64), (5, 1)])
def test_picard_rejects_misshaped_initial_guess(shape):
    # [M+1, N+1] and [M, N] used to fail inside numpy's broadcasting, and
    # [M+1, 1] broadcast silently into a wrong first sweep
    g, w = _grid_noise(4, n=64)
    guess = SolutionTriple(x=np.zeros(shape), y=np.zeros(shape), z=np.zeros(shape))
    with pytest.raises(ConfigError, match=r"\(5, 64\)"):
        solve_picard(_canonical_model(), g, w, initial_guess=guess)


@pytest.mark.parametrize("memory", [0, 3])
def test_picard_matches_separate_loop(memory):
    # the shared fixed-point loop, Euler pass and node views reproduce the
    # decoupling iteration written out on its own, to the bit; the drift
    # reads the control so the u slots are exercised too
    g, w = _grid_noise(16, n=256, horizon=0.25)
    model = replace(
        _mild_model(),
        drift=lambda t, law, own: -0.5 * (law.y + own.y) + 0.2 * own.u - 0.1 * law.u,
    )
    control = np.repeat(0.3 * np.cos(np.arange(16.0))[:, None], 256, axis=1)
    guess, _ = solve_linear_seed(LinearInhomogeneity(drift_source=0.5), g, w, x0=0.3)
    kwargs = dict(tol=1e-6, max_iter=80, accel_memory=memory, control=control)
    sol, history = solve_picard(model, g, w, initial_guess=guess, **kwargs)
    ref, ref_history = picard_loop(model, g, w, guess, **kwargs)
    assert len(history) > 2 and history == ref_history
    for got, want in ((sol.x, ref.x), (sol.y, ref.y), (sol.z, ref.z)):
        assert np.array_equal(got, want)


def test_seed_iteration_matches_separate_loop():
    # a continuation level at blend 0.5, warm-started at the seed solution
    params = LQ2Params(horizon=0.25)
    model = lq2_fbsde(params, control=0.3)
    g, w = _grid_noise(8, n=512, horizon=0.25)
    warm, _ = solve_linear_seed(LinearInhomogeneity(), g, w, x0=model.initial)
    sol, history = _seed_iteration(
        model, g, w, weight=0.5, warm=warm, tol=1e-8, max_iter=120, memory=6,
        control=None, guard=1e12,
    )
    ref, ref_history = seed_iteration_loop(model, g, w, 0.5, warm, 1e-8, 120, 6)
    assert len(history) > 2 and history == ref_history
    for got, want in ((sol.x, ref.x), (sol.y, ref.y), (sol.z, ref.z)):
        assert np.array_equal(got, want)


def test_picard_stops_at_a_non_finite_sweep():
    # a NaN terminal keeps X finite (the drift reads only x), so no guard
    # trips; the first sweep's change is NaN and ends the iteration there
    g, w = _grid_noise(8, n=64)
    model = replace(_decoupled_model(), terminal_map=lambda xT: np.full_like(xT, np.nan))
    with pytest.raises(NonConvergenceError, match="non-finite") as err:
        solve_picard(model, g, w, max_iter=10)
    assert len(err.value.history) == 1 and err.value.reason == "non-finite"


# ----------------------------------------------------------------------
# Anderson mixer
# ----------------------------------------------------------------------


def _slow_affine_map(size=300, rate=0.97, seed=5):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(size, size))
    a *= rate / np.linalg.norm(a, 2)
    b = rng.normal(size=size)
    return lambda u: a @ u + b


@pytest.mark.parametrize("memory", [1, 4])
def test_anderson_mixer_matches_lstsq_oracle(memory):
    # 15 steps through a ring of `memory` slots: the ring wraps, and every
    # iterate must match the dense tall-lstsq mixer
    fmap = _slow_affine_map()
    mixer, oracle = _AndersonMixer(memory), LstsqAndersonMixer(memory)
    u = v = np.zeros(300)
    for _ in range(15):
        u, v = mixer.step(u, fmap(u)), oracle.step(v, fmap(v))
        assert np.linalg.norm(u - v) <= 1e-10 * np.linalg.norm(v)
    assert np.linalg.norm(fmap(u) - u) < 1e-3 * np.linalg.norm(fmap(np.zeros(300)))


def test_anderson_mixer_relaxation_matches_lstsq_oracle():
    # relax 0.7: the first step is u + 0.7 r, every later one the mixed
    # iterate plus 0.7 times the mixed residual, as the oracle writes it
    fmap = _slow_affine_map(seed=4)
    mixer, oracle = _AndersonMixer(3, relax=0.7), LstsqAndersonMixer(3, relax=0.7)
    u = v = np.zeros(300)
    for i in range(15):
        u, v = mixer.step(u, fmap(u)), oracle.step(v, fmap(v))
        if i == 0:
            assert np.array_equal(u, 0.7 * fmap(np.zeros(300)))
        assert np.linalg.norm(u - v) <= 1e-10 * np.linalg.norm(v)
    assert np.linalg.norm(fmap(u) - u) < 1e-3 * np.linalg.norm(fmap(np.zeros(300)))


def test_anderson_mixer_repeated_iterate_stays_finite():
    # a repeated iterate writes a zero difference row: the Gram matrix is
    # singular, and the min-norm solve must still give finite iterates
    # that keep matching the oracle
    fmap = _slow_affine_map(seed=6)
    mixer, oracle = _AndersonMixer(3), LstsqAndersonMixer(3)
    u = v = np.zeros(300)
    for i in range(8):
        if i == 2:  # the next step sees this iterate a second time
            mixer.step(u, fmap(u))
            oracle.step(v, fmap(v))
        u, v = mixer.step(u, fmap(u)), oracle.step(v, fmap(v))
        assert np.all(np.isfinite(u))
        assert np.linalg.norm(u - v) <= 1e-10 * np.linalg.norm(v)


def test_anderson_mixer_returns_map_output_on_nonfinite_gamma(monkeypatch):
    rng = np.random.default_rng(7)
    u0, g0, u1, g1 = rng.normal(size=(4, 50))

    mixer = _AndersonMixer(3)
    mixer.step(u0, g0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = mixer.step(u1 * 1e200, g1 * 1e200)  # the Gram system overflows
    assert np.array_equal(out, g1 * 1e200)

    def nan_lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), None, 0, None

    monkeypatch.setattr(np.linalg, "lstsq", nan_lstsq)
    mixer = _AndersonMixer(3)
    mixer.step(u0, g0)
    assert mixer.step(u1, g1) is g1


@pytest.mark.parametrize("memory", [1, 4, 6])
@pytest.mark.parametrize("relax", [1.0, 0.7])
@pytest.mark.parametrize("repeat_at", [None, 3])
def test_anderson_mixer_matches_separate_previous_pair_bit_for_bit(memory, relax, repeat_at):
    # 15 steps wrap every ring; parking -r and -g in the next slot and
    # adding there gives r - r_prev and g - g_prev to the bit.  Both mixers
    # see the same (iterate, map output) pairs; at ``repeat_at`` a step
    # sees its iterate a second time
    fmap = _slow_affine_map(seed=8)
    mixer = _AndersonMixer(memory, relax=relax)
    reference = PrevPairAndersonMixer(memory, relax=relax)
    u = np.zeros(300)
    for i in range(15):
        for _ in range(2 if i == repeat_at else 1):
            g = fmap(u)
            got, want = mixer.step(u, g), reference.step(u, g)
            assert np.array_equal(got, want)
        u = got


@pytest.mark.parametrize("fault", ["overflow", "nan_gamma", "linalg_error"])
def test_anderson_mixer_unmixed_exits_park_the_same_history(monkeypatch, fault):
    # an unmixed step in the middle of a run still leaves the history the
    # next steps read: every later step matches the reference to the bit
    rng = np.random.default_rng(9)
    inputs = [tuple(rng.normal(size=(2, 50))) for _ in range(9)]
    if fault == "overflow":
        inputs[4] = (inputs[4][0] * 1e200, inputs[4][1] * 1e200)
    lstsq, calls = np.linalg.lstsq, []

    def faulty_lstsq(a, b, rcond=None):
        calls.append(1)
        if len(calls) in (3, 4):  # one step of each mixer
            if fault == "nan_gamma":
                return np.full(a.shape[1], np.nan), None, 0, None
            if fault == "linalg_error":
                raise np.linalg.LinAlgError("stub")
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", faulty_lstsq)
    for relax in (1.0, 0.7):
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            mixer, reference = _AndersonMixer(3, relax=relax), PrevPairAndersonMixer(3, relax=relax)
            for u, g in inputs:
                got, want = mixer.step(u, g), reference.step(u, g)
                assert np.array_equal(got, want, equal_nan=True)


def test_anderson_mixer_holds_no_iterate_sized_array_outside_its_rings():
    fmap = _slow_affine_map(seed=3)
    mixer = _AndersonMixer(4)
    u = np.zeros(300)
    for _ in range(9):
        u = mixer.step(u, fmap(u))
        held = {
            name: value.shape for name, value in vars(mixer).items()
            if isinstance(value, np.ndarray) and value.size >= 300
        }
        assert held == {"d_r": (4, 300), "d_g": (4, 300)}


@pytest.mark.parametrize("slots", [("x", "y", "z"), ("y", "z")])
def test_fixed_point_drops_the_previous_output_before_each_sweep(monkeypatch, slots):
    # nothing holds a sweep's output once its slots are flattened: neither
    # the mixer step nor the next sweep sees it alive
    rng = np.random.default_rng(4)
    shift = SolutionTriple(*rng.normal(size=(3, 5, 40)))
    outputs, alive = [], []

    class SpyMixer(_AndersonMixer):
        def step(self, u, g):
            alive.append([ref() is not None for ref in outputs])
            return super().step(u, g)

    monkeypatch.setattr(fbsde_solver, "_AndersonMixer", SpyMixer)

    def sweep(cur):
        alive.append([ref() is not None for ref in outputs])
        out = SolutionTriple(*(0.5 * getattr(cur, s) + getattr(shift, s) for s in "xyz"))
        outputs.append(weakref.ref(out))
        return out

    start = SolutionTriple(*np.zeros((3, 5, 40)))
    sol, history = _fixed_point(sweep, start, slots, 1e-8, 60, 3, "test")
    assert sol is outputs[-1]() and len(alive) == 2 * len(history) - 1 > 4
    assert not any(any(seen) for seen in alive)
    outputs.clear(), alive.clear()
    with pytest.raises(NonConvergenceError) as err:
        _fixed_point(sweep, start, slots, 1e-12, 2, 3, "test")
    assert err.value.last is outputs[-1]() and len(err.value.history) == 2
    assert not any(any(seen) for seen in alive)


def _scripted(changes):
    """A sweep whose k-th change is ``changes[k]``: it adds that constant to
    every slot (exact in floating point for the values used here)."""
    steps = iter(changes)

    def sweep(cur):
        d = next(steps)
        return SolutionTriple(cur.x + d, cur.y + d, cur.z + d)

    return sweep


_ZEROS = SolutionTriple(*np.zeros((3, 2, 4)))


def test_fixed_point_stops_when_its_change_stalls():
    # the first change is the best; the run stops once _PATIENCE sweeps in a
    # row have not beaten it, long before its budget
    with pytest.raises(NonConvergenceError, match="stalled") as err:
        _fixed_point(_scripted([0.5] + [1.0, 2.0] * _PATIENCE), _ZEROS, ("x",), 1e-9,
                     2 * _PATIENCE, 0, "test")
    assert err.value.reason == "stalled"
    assert err.value.history == [0.5] + [1.0, 2.0] * (_PATIENCE // 2) + [1.0] * (_PATIENCE % 2)
    assert np.all(err.value.last.x == sum(err.value.history))  # the last output


def test_fixed_point_stops_when_its_change_grows_past_the_best():
    # a change beyond _GROWTH times the best ends the run from sweep 3 on;
    # the second sweep may still jump (an Anderson step's first mix can)
    changes = [1.0, 2.0 * _GROWTH, 1.5, _GROWTH - 1.0, _GROWTH + 1.0, 0.0]
    with pytest.raises(NonConvergenceError, match="diverging") as err:
        _fixed_point(_scripted(changes), _ZEROS, ("x",), 1e-9, 100, 0, "test")
    assert err.value.reason == "diverging" and err.value.history == changes[:5]


def test_fixed_point_that_beats_its_best_in_time_is_not_cut():
    # a new best every _PATIENCE sweeps keeps the run alive, and so does a
    # plain contraction too slow to reach tol in a few dozen sweeps
    changes = [1.0] + [2.0] * (_PATIENCE - 1) + [0.5] + [2.0] * (_PATIENCE - 1) + [0.0]
    _, history = _fixed_point(_scripted(changes), _ZEROS, ("x",), 1e-9, len(changes), 0, "test")
    assert history == changes

    shift = SolutionTriple(*np.full((3, 2, 4), 1.0))

    def slow(cur):  # rate 0.97: the change falls 3% a sweep
        return SolutionTriple(*(0.97 * getattr(cur, s) + getattr(shift, s) for s in "xyz"))

    _, history = _fixed_point(slow, _ZEROS, ("x", "y", "z"), 1e-8, 1000, 0, "test")
    assert len(history) > 6 * _PATIENCE


# ----------------------------------------------------------------------
# continuation
# ----------------------------------------------------------------------


def test_continuation_on_canonical_model_returns_seed_solution(monkeypatch):
    # agreement at the inner tolerance: the level iterations are exact here,
    # and the final polish only moves the answer by ridge-shrinkage bias
    _ladder_only_after_a_polish(monkeypatch)
    g, w = _grid_noise(32)
    model = _canonical_model()
    sol, log = solve_continuation(model, g, w)
    seed_sol, _ = solve_linear_seed(LinearInhomogeneity(), g, w, x0=0.3)
    assert np.abs(sol.x - seed_sol.x).max() <= 1e-6
    assert np.abs(sol.y - seed_sol.y).max() <= 1e-6
    assert log[-1]["alpha"] == pytest.approx(1.0)


def test_continuation_scaled_model_matches_mean_oracle():
    g, w = _grid_noise(64)
    sol, _ = solve_continuation(_scaled_model(), g, w)
    ref = linear_seed_mean_oracle(0.0, 0.0, 0.0, 0.3, 1.0, 64, cb=2.0, cf=2.0)
    scale = np.abs(ref[:, 0]).max()
    assert np.abs(sol.x.mean(axis=1) - ref[:, 0]).max() <= 0.02 * max(scale, 1.0)


def test_continuation_agrees_with_picard_on_short_horizon(monkeypatch):
    # where the decoupling map contracts, the polish lands the ladder's
    # answer on the same discrete fixed point as solve_picard: agreement at
    # solver tolerance, far below any Monte Carlo scale
    g, w = _grid_noise(16, n=256, horizon=0.25)
    model = _mild_model()
    sol_p, _ = solve_picard(model, g, w, tol=1e-6, max_iter=80)
    _ladder_only_after_a_polish(monkeypatch)
    sol_c, log = solve_continuation(model, g, w)
    rms = np.sqrt(
        np.mean(
            np.concatenate(
                [
                    (sol_c.x - sol_p.x).ravel(),
                    (sol_c.y - sol_p.y).ravel(),
                    (sol_c.z - sol_p.z).ravel(),
                ]
            )
            ** 2
        )
    )
    assert rms <= 5e-6
    assert isinstance(log[-1]["polish"], list)  # polish engaged, not rejected


def test_continuation_checkpoints_hit_one_exactly(monkeypatch):
    _ladder_only_after_a_polish(monkeypatch)
    g, w = _grid_noise(8, n=64)
    sol, log = solve_continuation(
        _canonical_model(), g, w, schedule=ContinuationSchedule(step=0.3)
    )
    alphas = [rec["alpha"] for rec in log]
    assert alphas[-1] == pytest.approx(1.0)
    assert max(alphas) <= 1.0 + 1e-12


def _nonmonotone_model():
    # the canonical pair with its driver and terminal map of the wrong sign:
    # not monotone, and no ladder reaches blend 1 at picard_tol
    return CoupledModel(
        drift=lambda t, law, own: -law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: -3.0 * (law.x + own.x),
        terminal_map=lambda xT: -xT,
        initial=0.5,
    )


def test_continuation_fails_cleanly_on_nonmonotone_model():
    g, w = _grid_noise(8, n=32)
    bad = _nonmonotone_model()
    sched = ContinuationSchedule(
        step=0.5, picard_max_iter=8, max_halvings=2
    )
    with pytest.raises((NonConvergenceError, DivergenceError)):
        solve_continuation(bad, g, w, schedule=sched)


def test_continuation_recovers_by_halving():
    # a direct jump to full blend exhausts the sweep budget; the ladder
    # halves twice and the unpolished level fixed point solves the target
    g = make_time_grid(1.0, 16)
    w = sample_brownian(g, EnsembleConfig(particles=256, seed=2))
    model = _scaled_model()
    sched = ContinuationSchedule(step=1.0, picard_max_iter=8, polish_max_iter=0)
    sol, log = solve_continuation(model, g, w, schedule=sched)
    alphas = [rec["alpha"] for rec in log]
    assert any("halved_to" in rec for rec in log)
    assert alphas[-1] == pytest.approx(1.0)
    assert max(alphas) <= 1.0 + 1e-12
    rep = residual(model, sol, g, w)
    assert rep.forward <= 1e-8
    assert rep.terminal <= 1e-8


def _stiff_drift_model():
    # monotone (drift gain 16, driver gain 1), and its solution stays inside
    # |X| <= 0.3; but a sweep of a long rung overshoots to |X| ~ 0.37-0.45,
    # so under a guard of 0.34 only rungs of 1/4 or less are accepted early on
    return CoupledModel(
        drift=lambda t, law, own: -16.0 * (law.y + own.y),
        diffusion=lambda t, law, own: -(law.z + own.z),
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda xT: xT,
        initial=0.3,
    )


def _rungs(log):
    """(kind, length) per ladder record: ("accept", rung) or ("halve", new step)."""
    out, alpha = [], 0.0
    for rec in log:
        if "changes" in rec:
            out.append(("accept", rec["alpha"] - alpha))
            alpha = rec["alpha"]
        elif "halved_to" in rec:
            out.append(("halve", rec["halved_to"]))
    return out


def test_continuation_step_grows_back_after_halving():
    g = make_time_grid(1.0, 8)
    w = sample_brownian(g, EnsembleConfig(particles=256, seed=2))
    model = _stiff_drift_model()
    sched = ContinuationSchedule(polish_max_iter=0)
    sol, log = solve_continuation(model, g, w, schedule=sched, guard=0.34)
    assert log[-1]["alpha"] == 1.0
    rungs = _rungs(log)
    # 1, 1/2 and 1/4 breach the guard; 1/8 is accepted as a retry and kept,
    # then each rung accepted at the first try doubles the next one
    assert rungs[:3] == [("halve", 0.5), ("halve", 0.25), ("halve", 0.125)]
    first = next(i for i, (kind, _) in enumerate(rungs) if kind == "accept")
    halved = rungs[first - 1][1]
    assert max(length for kind, length in rungs[first:] if kind == "accept") > halved
    # a failed growth re-halves once; the ladder does not alternate
    assert sum(kind == "halve" for kind, _ in rungs) <= 4
    assert np.abs(sol.x).max() <= 0.34
    rep = residual(model, sol, g, w)
    assert rep.forward <= 1e-6
    assert rep.terminal <= 1e-8


def test_continuation_max_halvings_sets_the_minimum_step():
    # the ladder above needs a step of 1/8 = 2**-3: with max_halvings=3 it
    # succeeds although it halves four times (halving again after a growth
    # spends nothing); with 2 the rung of 1/4 fails at the minimum step
    g = make_time_grid(1.0, 8)
    w = sample_brownian(g, EnsembleConfig(particles=256, seed=2))
    model = _stiff_drift_model()
    sched = ContinuationSchedule(polish_max_iter=0, max_halvings=3)
    _, log = solve_continuation(model, g, w, schedule=sched, guard=0.34)
    assert log[-1]["alpha"] == 1.0
    assert sum("halved_to" in rec for rec in log) > sched.max_halvings
    assert min(rec["halved_to"] for rec in log if "halved_to" in rec) == 0.125
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(model, g, w, schedule=replace(sched, max_halvings=2), guard=0.34)
    assert "blend 0.000" in str(err.value) and "last step 0.2500" in str(err.value)
    assert err.value.__cause__.blend == 0.25


def test_continuation_route_does_not_change_the_answer(monkeypatch):
    # the full first step and a ladder started at 0.1 (grown to 0.2 and 0.4,
    # then capped at the 0.3 left) reach the same polished fixed point; the
    # polish before the ladder is made to fail, so that both ladders run
    g, w = _grid_noise(8, n=256, horizon=0.25)
    model = lq2_fbsde(LQ2Params(horizon=0.25), control=0.3)
    _ladder_only_after_a_polish(monkeypatch)
    full, log_full = solve_continuation(model, g, w)
    short, log_short = solve_continuation(model, g, w, schedule=ContinuationSchedule(step=0.1))
    assert [length for _, length in _rungs(log_full)] == [1.0]
    assert [length for _, length in _rungs(log_short)] == pytest.approx([0.1, 0.2, 0.4, 0.3])
    for log in (log_full, log_short):
        assert log[1] == {"alpha": 1.0, "polish": "rejected"}
        assert isinstance(log[-1]["polish"], list)
    for name in ("x", "y", "z"):
        a, b = getattr(full, name), getattr(short, name)
        assert np.sqrt(np.mean((a - b) ** 2)) <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("horizon, m, n", [(0.25, 8, 512), (1.0, 16, 256)])
def test_handover_route_agrees_with_a_polish_after_the_tight_route(
        monkeypatch, horizon, m, n, seed):
    # with a polish to follow, the rung stops at the hand-over tolerance;
    # the polish lands where it lands from the rung run to picard_tol, in
    # as many sweeps (measured: at most 1.2e-9 triple RMS apart).  The
    # polish before the ladder is made to fail, so that the ladder runs.
    g, w = _grid_noise(m, n=n, seed=seed, horizon=horizon)
    model = lq2_fbsde(LQ2Params(horizon=horizon), control=0.3)
    sched = ContinuationSchedule()
    _ladder_only_after_a_polish(monkeypatch)
    sol, log = solve_continuation(model, g, w, schedule=sched)
    tight, tight_log = solve_continuation(model, g, w, schedule=replace(sched, polish_max_iter=0))
    ref, polish = solve_picard(model, g, w, tol=_POLISH_TOL, max_iter=sched.polish_max_iter,
                               initial_guess=tight, accel_memory=sched.accel_memory)
    assert log[1] == {"alpha": 1.0, "polish": "rejected"}
    assert sched.picard_tol < log[2]["changes"][-1] <= _HANDOVER_TOL
    assert len(log[2]["changes"]) < len(tight_log[1]["changes"])
    assert len(log[-1]["polish"]) == len(polish)
    assert _triple_rms(sol, ref) <= 5e-9


def test_rejected_polish_reruns_the_blend_one_rung_to_picard_tol():
    # the model of test_rejected_polish_returns_the_unpolished_solution on a
    # two-rung ladder: both rungs stop at the hand-over tolerance, the polish
    # diverges and is rejected, and the blend-1 rung is run again to
    # picard_tol from its warm start; the log keeps every sweep
    params = replace(LQ2Params(horizon=8.0), drift_y=-0.6, drift_mean_y=-0.6,
                     cross=0.9, cross_mean=0.9)
    model = lq2_fbsde(params, control=0.3)
    g, w = _grid_noise(16, n=256, seed=0, horizon=8.0)
    sched = ContinuationSchedule(step=0.5)
    sol, log = solve_continuation(model, g, w, schedule=sched)
    assert [rec["alpha"] for rec in log] == [0.0, 1.0, 0.5, 1.0, 1.0]
    # the polish from the seed and the one after the ladder are rejected
    assert log[1] == log[-1] == {"alpha": 1.0, "polish": "rejected"}
    half, full = log[2], log[3]
    assert sched.picard_tol < half["changes"][-1] <= _HANDOVER_TOL
    assert sched.picard_tol < full["handover"][-1] <= _HANDOVER_TOL
    assert full["changes"][-1] <= sched.picard_tol
    tight, _ = solve_continuation(model, g, w, schedule=replace(sched, polish_max_iter=0))
    assert _triple_rms(sol, tight) <= 1e-8  # measured 7.4e-11
    assert residual(model, sol, g, w).forward <= 1e-7


def test_failed_rerun_after_a_rejected_polish_is_a_typed_continuation_error():
    # the non-monotone model of test_continuation_fails_cleanly_on_nonmonotone_model
    # at the default schedule: the loose rung reaches blend 1, the polish is
    # rejected, and the re-run to picard_tol fails; the error names blend 1
    # and chains the rung's own error
    g, w = _grid_noise(8, n=32)
    bad = _nonmonotone_model()
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(bad, g, w)
    assert "continuation failed at blend 1.000" in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, NonConvergenceError)
    assert "at blend weight 1.000" in str(cause)
    assert cause.history[-1] > ContinuationSchedule().picard_tol
    [rung] = err.value.history  # the loose blend-1 rung
    assert rung[-1] <= _HANDOVER_TOL
    assert isinstance(err.value.last, SolutionTriple)


def test_continuation_failures_carry_the_failed_rung_reason(monkeypatch):
    # the final error says why the rung that ended the run stopped, as its
    # __cause__ does, and each halving record says why its rung failed
    g, w = _grid_noise(8, n=32)
    for sched, reason in ((ContinuationSchedule(), "stalled"),
                          (ContinuationSchedule(step=0.5, picard_max_iter=8, max_halvings=2),
                           "budget")):
        with pytest.raises(NonConvergenceError) as err:
            solve_continuation(_nonmonotone_model(), g, w, schedule=sched)
        assert err.value.reason == err.value.__cause__.reason == reason
    g, w = _grid_noise(8, n=256)
    sched = ContinuationSchedule(polish_max_iter=0)
    _, log = solve_continuation(_stiff_drift_model(), g, w, schedule=sched, guard=0.34)
    assert [rec["reason"] for rec in log if "halved_to" in rec] == ["guard"] * 4
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(_stiff_drift_model(), g, w, schedule=replace(sched, max_halvings=2),
                           guard=0.34)
    assert err.value.reason == "guard" and isinstance(err.value.__cause__, DivergenceError)
    g, w = _grid_noise(16, n=256)
    budget = ContinuationSchedule(picard_max_iter=8, polish_max_iter=0)
    _, log = solve_continuation(_scaled_model(), g, w, schedule=budget)
    assert [rec["reason"] for rec in log if "halved_to" in rec] == ["budget"] * 2

    def failed_regression(*args, **kwargs):
        raise RegressionError("ill-conditioned", condition_number=np.inf)

    monkeypatch.setattr(fbsde_solver, "_seed_iteration", failed_regression)
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(_scaled_model(), g, w, schedule=replace(budget, max_halvings=0))
    assert err.value.reason == "regression"


def test_first_polish_is_logged_and_hands_a_failure_to_the_ladder():
    # accepted from the seed, the polish is the whole solve; from a warm
    # start, no seed is solved either.  A warm start whose polish leaves the
    # guard at once is rejected, and the ladder climbs from the seed.
    g, w = _grid_noise(8, n=256, horizon=0.25)
    model = lq2_fbsde(LQ2Params(horizon=0.25), control=0.3)
    sched = ContinuationSchedule()
    sol, log = solve_continuation(model, g, w, schedule=sched)
    assert log[0] == {"alpha": 0.0, "seed": True}
    [polish] = log[1:]
    assert polish["alpha"] == 1.0 and polish["polish"][-1] <= _POLISH_TOL
    again, log = solve_continuation(model, g, w, schedule=sched, warm=sol)
    [polish] = log
    assert polish["alpha"] == 1.0 and polish["polish"][-1] <= _POLISH_TOL
    far = replace(sol, y=sol.y + 1e14)
    _, log = solve_continuation(model, g, w, schedule=sched, warm=far)
    assert log[:2] == [{"alpha": 1.0, "polish": "rejected"}, {"alpha": 0.0, "seed": True}]
    assert [rec["alpha"] for rec in log[2:]] == [1.0, 1.0]
    assert "changes" in log[2] and isinstance(log[3]["polish"], list)
    # without a polish the warm start is unused: the polish-off route, bit for bit
    off = replace(sched, polish_max_iter=0)
    cold, cold_log = solve_continuation(model, g, w, schedule=off)
    warm, warm_log = solve_continuation(model, g, w, schedule=off, warm=far)
    assert warm_log == cold_log and _triple_rms(warm, cold) == 0.0


def test_polished_continuation_solves_a_model_whose_rung_stalls_at_picard_tol(monkeypatch):
    # the canonical pair pushed by a drift of 4: a rung run to picard_tol
    # stalls at its regression-noise floor (1.4e-8 to 1.7e-8 against 1e-8)
    # and the ladder fails; stopped at the hand-over tolerance, the rung
    # hands its answer to the polish, which converges
    _ladder_only_after_a_polish(monkeypatch)
    pushed = CoupledModel(
        drift=lambda t, law, own: 4.0 - law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda xT: xT,
        initial=0.3,
    )
    g, w = _grid_noise(16, n=64)
    sol, log = solve_continuation(pushed, g, w)
    assert isinstance(log[-1]["polish"], list)
    assert "changes" in log[-2]
    assert not any("halved_to" in rec for rec in log)
    rep = residual(pushed, sol, g, w)
    assert rep.forward <= 1e-6 and rep.terminal <= 1e-12


def test_continuation_guard_checks_seed():
    g, w = _grid_noise(32)
    sched = ContinuationSchedule(polish_max_iter=0, max_halvings=0)
    with pytest.raises(DivergenceError) as err:
        solve_continuation(_canonical_model(), g, w, guard=1e-3, schedule=sched)
    assert err.value.step == 0  # |X_0| = 0.3 already breaches the guard


def test_continuation_guard_breach_at_level_fails_the_ladder():
    # the seed stays inside the guard (|X| <= 0.3); the pushed drift
    # carries the full-blend solution out of it (|X| up to ~0.53)
    pushed = CoupledModel(
        drift=lambda t, law, own: 2.0 - law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda xT: xT,
        initial=0.3,
    )
    g, w = _grid_noise(16, n=64)
    sched = ContinuationSchedule(step=0.5, max_halvings=1)
    sol, _ = solve_continuation(pushed, g, w, schedule=sched)
    assert np.abs(sol.x).max() > 0.5
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(pushed, g, w, guard=0.4, schedule=sched)
    assert isinstance(err.value.__cause__, DivergenceError)


def test_continuation_divergence_reports_blend_weight():
    # same set-up as the guard-breach test: the rung to 0.5 is accepted,
    # the full step to 1.0 breaches, and so does the halved step to 0.75,
    # which exhausts the single halving
    pushed = CoupledModel(
        drift=lambda t, law, own: 2.0 - law.y - own.y,
        diffusion=lambda t, law, own: -law.z - own.z,
        driver=lambda t, law, own: law.x + own.x,
        terminal_map=lambda xT: xT,
        initial=0.3,
    )
    g, w = _grid_noise(16, n=64)
    sched = ContinuationSchedule(step=0.5, max_halvings=1)
    with pytest.raises(NonConvergenceError) as err:
        solve_continuation(pushed, g, w, guard=0.4, schedule=sched)
    assert "blend 0.500" in str(err.value) and "last step 0.2500" in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, DivergenceError)
    assert cause.blend == 0.75
    assert "at blend weight 0.750" in str(cause)


def test_divergence_blend_is_zero_at_seed_and_none_outside_continuation():
    g, w = _grid_noise(8, n=64)
    sched = ContinuationSchedule(polish_max_iter=0, max_halvings=0)
    with pytest.raises(DivergenceError) as err:
        solve_continuation(_canonical_model(), g, w, guard=1e-3, schedule=sched)
    assert err.value.blend == 0.0
    assert "at blend weight 0.000" in str(err.value)
    with pytest.raises(DivergenceError) as err:
        solve_linear_seed(LinearInhomogeneity(), g, w, x0=0.3, guard=1e-3)
    assert err.value.blend is None
    assert "blend" not in str(err.value)
    # the positional constructor is unchanged, and the error survives a
    # pickle round trip (as between worker processes) with its blend
    exc = DivergenceError(3, 1, -2.5, 1.0)
    assert (exc.step, exc.particle, exc.value, exc.guard, exc.blend) == (3, 1, -2.5, 1.0, None)
    exc.blend = 0.25
    back = pickle.loads(pickle.dumps(exc))
    assert (back.step, back.blend, str(back)) == (3, 0.25, str(exc))


def test_schedule_validation():
    with pytest.raises(ConfigError):
        ContinuationSchedule(step=0.0)
    with pytest.raises(ConfigError):
        ContinuationSchedule(step=1.5)
    # caps, halvings and memory are integers; the tolerance finite and positive
    for bad in (
        dict(accel_memory=-3), dict(accel_memory=2.7), dict(picard_max_iter=2.5),
        dict(picard_max_iter=0), dict(max_halvings=-1), dict(max_halvings=1.5),
        dict(polish_max_iter=-1), dict(polish_max_iter=3.0), dict(picard_tol=np.inf),
        dict(picard_tol=-1e-8),
    ):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ContinuationSchedule(**bad)


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------


def test_residual_vanishes_for_deterministic_backward_decoupled():
    # constant terminal and state-free driver make the backward component
    # deterministic; with zero ridge the regressions reproduce constants
    # exactly, so all three defining recursions are satisfied to rounding
    model = CoupledModel(
        drift=lambda t, law, own: 0.2 * own.x,
        diffusion=lambda t, law, own: 0.3 + 0.0 * own.x,
        driver=lambda t, law, own: 0.5 + 0.0 * own.y,
        terminal_map=2.0,
        initial=lambda rng, n: 1.0 + 0.2 * rng.standard_normal(n),
    )
    # the model is decoupled, so one forward and one backward pass solve it
    g, w = _grid_noise(16, n=256)
    fwd = ForwardModel(drift=model.drift, diffusion=model.diffusion, initial=model.initial)
    x = simulate_forward(fwd, g, w)
    y, z = solve_mf_bsde(
        BackwardModel(driver=model.driver, terminal=model.terminal_map), g, w, x,
        basis=default_polynomial_basis(ridge_scale=0.0),
    )
    rep = residual(model, SolutionTriple(x=x, y=y, z=z), g, w)
    assert rep.forward <= 1e-12
    assert rep.backward <= 1e-12
    assert rep.terminal <= 1e-12


def test_residual_detects_perturbations():
    model = _decoupled_model()
    g, w = _grid_noise(16, n=256)
    sol, _ = solve_picard(model, g, w)
    base = residual(model, sol, g, w)

    bumped_x = SolutionTriple(x=sol.x + 0.05, y=sol.y, z=sol.z)
    assert residual(model, bumped_x, g, w).forward > base.forward + 1e-4

    bumped_y = SolutionTriple(x=sol.x, y=sol.y + 0.05, z=sol.z)
    assert residual(model, bumped_y, g, w).terminal > base.terminal + 1e-4


@pytest.mark.parametrize(
    "case, match",
    [
        ("linear_seed_grid", "steps but grid"),
        ("picard_grid", "steps but grid"),
        ("terminal_shift", "terminal shift has shape"),
    ],
)
def test_coupled_solvers_reject_malformed_inputs(case, match):
    g, w = _grid_noise(m=8, n=16)
    coarse = make_time_grid(1.0, 4)
    calls = {
        "linear_seed_grid": lambda: solve_linear_seed(LinearInhomogeneity(), coarse, w),
        "picard_grid": lambda: solve_picard(_canonical_model(), coarse, w),
        "terminal_shift": lambda: solve_linear_seed(
            LinearInhomogeneity(terminal_shift=np.zeros(3)), g, w
        ),
    }
    with pytest.raises(ConfigError, match=match):
        calls[case]()


def test_one_element_sources_and_shift_are_the_floats_they_hold():
    # every constant input takes a one-element array as its float: the
    # sources and the terminal shift now, as the initial condition did
    g, w = _grid_noise(8, n=64)
    floats = dict(drift_source=0.3, diffusion_source=-0.2, driver_source=0.1, terminal_shift=0.5)
    ref, _ = solve_linear_seed(LinearInhomogeneity(**floats), g, w, x0=0.4)
    arrays = {name: np.array([value]) for name, value in floats.items()}
    got, _ = solve_linear_seed(LinearInhomogeneity(**arrays), g, w, x0=np.array([0.4]))
    for a, b in ((got.x, ref.x), (got.y, ref.y), (got.z, ref.z)):
        assert np.array_equal(a, b)
