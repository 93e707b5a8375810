"""Release criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. Every tolerance is pinned here.
"""

import time

import numpy as np
import pytest

from radial import backtest as bt
from radial import core, estimators, synthlab as sl, theorylab as tl
from radial.cli import main
from radial.localfit import RadialPoly, fit_logistic

from test_backtest import RecordingHistory, period2_history


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS {detail}")


def test_criterion_1_synthetic_benchmark_reproduction():
    t0 = time.time()
    rows = sl.run_benchmark(sl.SyntheticConfig(reps=50, rng_seed=2))
    elapsed = time.time() - t0
    vals = {(r.method, r.criterion): r.mean for r in rows}

    assert 0.89 <= vals[("lrlr_w1", "bayes")] <= 0.93
    assert 0.70 <= vals[("lrlr_w1", "labels")] <= 0.73
    assert 0.87 <= vals[("knn_k30", "bayes")] <= 0.91
    assert 0.71 <= vals[("logistic", "bayes")] <= 0.76
    assert 0.48 <= vals[("random", "bayes")] <= 0.52
    assert 0.48 <= vals[("random", "labels")] <= 0.52

    challengers = ["knn_k10", "knn_k20", "knn_k30", "knn_k40", "knn_k50",
                   "lpor_h0.4", "lpolr_h0.4"]
    for name in challengers:
        assert vals[("lrlr_w1", "bayes")] > vals[(name, "bayes")], name

    assert elapsed < 600.0
    _report(1, f"benchmark bands and ordering hold (reps=50, seed=2, {elapsed:.0f}s); "
               f"lrlr_w1 vs bayes = {vals[('lrlr_w1', 'bayes')]:.4f}")


def test_criterion_2_closed_form_oracle_equivalence():
    rng = np.random.default_rng(2024)
    held = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        omega = int(rng.integers(1, 3))
        n = int(rng.integers(5, 201))
        x = rng.uniform(-1, 1, size=(4 * n, d))
        radii = np.sort(np.linalg.norm(x, axis=1))[:n]
        labels = rng.integers(0, 2, n)
        config = tl.TheoryConfig(beta=2 * omega + 1, d=d, r_tilde=10.0, phi=0.97, omega=omega)
        state = tl.design_state(radii, config)
        fitted = tl.theory_lrr(radii, config, labels)
        oracle = tl.lrr_closed_form(state, labels)
        assert abs(fitted - oracle) <= 1e-8
        if state.event_holds:
            held += 1
            assert abs(state.rho.sum() - 1.0) <= 1e-9
            assert abs(state.rho @ state.rho - 1.0 / (n - state.zeta)) <= 1e-9
            b = rng.normal(size=omega)
            assert abs(state.rho @ (state.r_matrix @ b)) <= 1e-9 * max(1.0, np.abs(b).max())
    assert held > 800  # the guard event must actually be exercised
    _report(2, f"1000 instances agree to 1e-8; weight identities hold on {held} events")


def test_criterion_3_convergence_rate():
    t0 = time.time()
    report = tl.rate_experiment(
        beta=2, d=1,
        sample_sizes=[200, 400, 800, 1600, 3200, 6400, 12800],
        reps=200, rng_seed=0,
    )
    elapsed = time.time() - t0
    assert report.theoretical_slope == -0.8
    assert abs(report.fitted_slope - (-0.8)) <= 0.15
    assert elapsed < 300.0
    _report(3, f"fitted slope {report.fitted_slope:.3f} within 0.15 of -0.8 ({elapsed:.1f}s)")


def test_criterion_4_concentration_and_moments():
    rows = tl.zeta_concentration(2, 1.0, [2000], reps=200, rng_seed=0)
    assert abs(rows[0].ratio_mean - 8.0 / 9.0) <= 0.05
    d2 = rows[0].ratio_mean
    rows = tl.zeta_concentration(1, 1.0, [2000], reps=200, rng_seed=0)
    assert abs(rows[0].ratio_mean - 0.75) <= 0.05
    d1 = rows[0].ratio_mean

    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        r = tl.sample_ball_radii(rng, 100_000, d, 0.9)
        se = r.std(ddof=1) / np.sqrt(r.shape[0])
        assert abs(r.mean() - tl.ball_moment(d, 1, 0.9)) <= 3 * se
    _report(4, f"zeta/N = {d2:.4f} (d=2, limit 8/9), {d1:.4f} (d=1, limit 3/4); "
               f"first moments match to 3 SE")


def test_criterion_5_warping_distance_properties():
    rng = np.random.default_rng(5)

    def draw():
        return rng.normal(scale=3.0, size=rng.integers(1, 10))

    for _ in range(10_000):
        a, b = draw(), draw()
        d_ab = core.dtw(a, b)
        assert d_ab >= 0.0
        assert abs(d_ab - core.dtw(b, a)) <= 1e-12 * max(1.0, d_ab)

    for _ in range(10_000):
        a = draw()
        assert core.dtw(a, a) == 0.0

    for _ in range(10_000):
        n = int(rng.integers(1, 10))
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert core.dtw(a, b) <= core.euclidean(a, b) + 1e-12

    for _ in range(10_000):
        a = rng.uniform(0.2, 3.0, size=rng.integers(1, 10))
        b = rng.uniform(0.2, 3.0, size=rng.integers(1, 10))
        c, cp = rng.uniform(0.01, 100.0, size=2)
        base = core.idtw(a, b)
        assert abs(core.idtw(c * a, cp * b) - base) <= 1e-9 * max(1.0, base)

    assert core.dtw([1, 3], [1, 2, 3]) == 1.0
    assert core.idtw([2, 4], [1, 2]) == 0.0
    _report(5, "4 x 10^4 randomized alignment properties, zero violations; golden values exact")


def test_criterion_6_estimator_identities():
    rng = np.random.default_rng(6)

    # degree-0 local polynomial == boxcar kernel smoother
    for _ in range(50):
        X = rng.uniform(-1, 1, size=(40, 2))
        y = rng.integers(0, 2, 40)
        data = core.Dataset.from_arrays(X, y)
        q = rng.uniform(-0.5, 0.5, size=2)
        prof = core.profile(data, core.euclidean, q)
        h = float(rng.uniform(0.4, 1.2))
        assert estimators.lpor(data, prof, q, h, 0).value == pytest.approx(
            estimators.kernel_smoother(prof, h).value, abs=1e-12
        )

    # k nearest == kernel smoother at the k-th radius (strict gap)
    matched = 0
    for _ in range(300):
        radii = np.sort(rng.uniform(0, 2, 30))
        labels = rng.integers(0, 2, 30)
        prof = core.NeighborProfile(radii, labels, np.arange(30))
        k = int(rng.integers(1, 30))
        if prof.radii[k - 1] < prof.radii[k]:
            assert estimators.knn(prof, k).value == estimators.kernel_smoother(
                prof, prof.radii[k - 1]
            ).value
            matched += 1
    assert matched > 200

    # label complement maps estimates v -> 1 - v
    for _ in range(50):
        radii = np.sort(rng.uniform(0.05, 2, 30))
        labels = rng.integers(0, 2, 30)
        prof = core.NeighborProfile(radii, labels, np.arange(30))
        flip = core.NeighborProfile(radii, 1 - labels, np.arange(30))
        for q in (0, 1, 2):
            a = estimators.lrr(prof, estimators.ConstantOne(), q, "squared").value
            b = estimators.lrr(flip, estimators.ConstantOne(), q, "squared").value
            assert abs(a + b - 1.0) <= 1e-9
        a = estimators.lrr(prof, estimators.ConstantOne(), 2, "logistic").value
        b = estimators.lrr(flip, estimators.ConstantOne(), 2, "logistic").value
        assert abs(a + b - 1.0) <= 1e-6

    # analytic likelihood gradient against central differences
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(6, 40))
        feats = RadialPoly(2).expand(rng.uniform(0, 2, n))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.uniform(0.3, 2.0, n)
        theta = fit_logistic(feats, y, w)[0]

        def loglik(th):
            f = feats @ th
            return np.sum(w * (y * f - np.logaddexp(0.0, f)))

        from scipy.special import expit

        grad = feats.T @ (w * (y - expit(feats @ theta)))
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (loglik(theta + e) - loglik(theta - e)) / (2 * h)
            worst = max(worst, abs(grad[j] - fd))
    assert worst <= 1e-5
    _report(6, f"identity suite holds; worst gradient gap {worst:.2e}")


def test_criterion_7_backtest_pipeline():
    # (a) no future information during tuning or prediction
    base = period2_history(208)
    history = RecordingHistory(base)
    hook = lambda stage, t: setattr(history, "phase", (stage, t))
    start, end = base[192].block.month_id, base[201].block.month_id
    ledger = bt.walk_forward_predict(history, start, end, "knn", phase_hook=hook)
    future_reads = [
        rec for rec in history.trace
        if rec[0] is not None and rec[0][0] in ("tune", "predict") and rec[1] >= rec[0][1]
    ]
    assert future_reads == []

    # (b) constant-buy cumulative return telescopes to last/first close
    buy = bt.walk_forward_predict(base, start, end, "buy")
    expected = base[201].next_close / base[192].block.month_end_close
    assert abs(buy.cumulative[-1] - expected) <= 1e-12

    # (c) the period-2 pattern is predicted perfectly by 1-NN end to end
    assert bt.accuracy_report(ledger) == 1.0
    assert set(ledger.chosen_params) == {1}

    # (d) arithmetic neighbor ladder
    assert bt.msknn_kvec(5, 120, 5) == (5, 33, 62, 91, 120)

    _report(7, "leakage-free walk-forward; telescoping exact; periodic fixture "
               "classified perfectly; ladder (5,33,62,91,120)")


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    def run_twice(args_fn):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args_fn(out_a)) == 0
        assert main(args_fn(out_b)) == 0
        capsys.readouterr()
        return out_a.read_bytes() == out_b.read_bytes()

    assert run_twice(lambda p: [
        "bench-synthetic", "--reps", "2", "--seed", "11", "--out", str(p)
    ])
    assert run_twice(lambda p: [
        "rate", "--beta", "2", "--d", "1", "--sizes", "200,400,800",
        "--reps", "20", "--seed", "11", "--out", str(p)
    ])
    assert run_twice(lambda p: [
        "backtest", "--input", "builtin", "--method", "knn",
        "--test-start", "2007-01", "--test-end", "2007-03",
        "--seed", "11", "--out", str(p)
    ])
    _report(8, "bench-synthetic, rate, and backtest outputs byte-identical across reruns")
