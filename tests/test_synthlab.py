import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from radial import core, estimators, synthlab as sl
from radial.errors import DimensionMismatch


class TestGroundTruth:
    def test_peak_value_against_scipy(self):
        oracle = 15 * norm.pdf(0.0) ** 3 + 15 * norm.pdf(2.0) ** 3
        assert_allclose(sl.eta_true([0.5, 0.5, 0.5]), oracle, rtol=1e-12)
        assert_allclose(oracle, 0.95477, atol=1e-5)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(500, 3))
        assert_allclose(sl.eta_true(x), sl.eta_true(-x), rtol=1e-12)

    def test_far_field_vanishes(self):
        assert sl.eta_true([10.0, 10.0, 10.0]) < 1e-10

    def test_bounded_on_sampling_cube(self):
        grid = np.arange(-1.0, 1.0 + 1e-9, 0.05)
        xs = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
        vals = sl.eta_true(xs)
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0

    def test_requires_three_coordinates(self):
        with pytest.raises(DimensionMismatch):
            sl.eta_true([0.5, 0.5])


@pytest.mark.parametrize("z, expected", [(1.2, 1.0), (-0.1, 0.0), (0.4, 0.4)])
def test_clip01(z, expected):
    assert sl.clip01(z) == expected


class TestBayesClassify:
    def test_peak_is_positive(self):
        assert sl.bayes_classify(sl.eta_true([0.5, 0.5, 0.5])) == 1

    def test_threshold(self):
        assert sl.bayes_classify(0.3) == 0
        assert sl.bayes_classify(0.5) == 1


class TestConcordance:
    def test_examples(self):
        assert_allclose(sl.concordance([1, 0, 1], [1, 1, 1]), 2.0 / 3.0)
        assert sl.concordance([1, 0], [1, 0]) == 1.0
        assert sl.concordance([1, 0], [0, 1]) == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 2, 100)
        ref = rng.integers(0, 2, 100)
        assert_allclose(sl.concordance(pred, ref) + sl.concordance(1 - pred, ref), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sl.concordance([1, 0], [1])


class TestGenerateTrial:
    def test_bitwise_determinism(self):
        cfg = sl.SyntheticConfig(n_train=50, n_test=20, reps=1, rng_seed=0)
        train_a, test_a, eta_a = sl.generate_trial(cfg, np.random.default_rng(42))
        train_b, test_b, eta_b = sl.generate_trial(cfg, np.random.default_rng(42))
        assert all(np.array_equal(p.x, q.x) and p.y == q.y for p, q in zip(train_a, train_b))
        assert all(np.array_equal(p.x, q.x) and p.y == q.y for p, q in zip(test_a, test_b))
        assert np.array_equal(eta_a, eta_b)

    def test_label_law_at_fixed_point(self):
        # collapse the training range to a point so every label is a draw
        # from Bernoulli(clip01(eta(x0) + eps)); compare with quadrature
        x0 = 0.5
        width = 1e-9
        cfg = sl.SyntheticConfig(
            n_train=100_000, n_test=1, noise_sd=0.05,
            train_range=(x0, x0 + width), reps=1, rng_seed=0,
        )
        arrays = sl._draw_trial(cfg, np.random.default_rng(7))
        eta0 = sl.eta_true([x0, x0, x0])
        expected, _ = quad(
            lambda e: sl.clip01(eta0 + e) * norm.pdf(e, scale=0.05), -0.5, 0.5
        )
        se = np.sqrt(expected * (1 - expected) / cfg.n_train)
        assert abs(arrays.train_y.mean() - expected) <= 3 * se

    def test_train_label_share_in_sanity_band(self):
        cfg = sl.SyntheticConfig(n_train=2000, n_test=1, reps=1, rng_seed=0)
        arrays = sl._draw_trial(cfg, np.random.default_rng(3))
        assert 0.05 <= arrays.train_y.mean() <= 0.5

    def test_test_labels_are_noise_free_bernoulli(self):
        # at points where eta is essentially 0 every test label must be 0
        cfg = sl.SyntheticConfig(n_train=10, n_test=5000, test_range=(9.0, 11.0), reps=1)
        arrays = sl._draw_trial(cfg, np.random.default_rng(4))
        assert arrays.test_y.sum() == 0


class TestBenchmark:
    def test_default_suite_has_twelve_methods(self):
        suite = sl.default_method_suite()
        assert len(suite) == 12
        assert len({m.name for m in suite}) == 12

    def test_single_rep_reproducible(self):
        cfg = sl.SyntheticConfig(n_train=80, n_test=40, reps=1, rng_seed=5)
        a = sl.run_benchmark(cfg)
        b = sl.run_benchmark(cfg)
        assert a == b

    def test_rows_cover_both_criteria(self):
        cfg = sl.SyntheticConfig(n_train=300, n_test=30, reps=2, rng_seed=1)
        rows = sl.run_benchmark(cfg)
        assert len(rows) == 24
        for row in rows:
            assert 0.0 <= row.mean <= 1.0
            assert row.reps == 2

    def test_empty_window_skips_only_that_method(self):
        # 8 points rarely reach a 0.4-ball: the local-poly method skips its
        # trial while the others still report
        cfg = sl.SyntheticConfig(n_train=8, n_test=10, reps=2, rng_seed=0)
        methods = [
            sl.BenchMethod("lpor", "lpor", {"h": 0.4, "q": 2}),
            sl.BenchMethod("knn_k3", "knn", {"k": 3}),
            sl.BenchMethod("lrlr_w1", "lrlr", {"weight": "constant_one", "q": 2}),
        ]
        with pytest.warns(UserWarning):
            rows = sl.run_benchmark(cfg, methods)
        by_method = {(r.method, r.criterion): r for r in rows}
        assert by_method[("lpor", "bayes")].reps < 2
        assert by_method[("knn_k3", "bayes")].reps == 2
        assert by_method[("lrlr_w1", "bayes")].reps == 2

    def test_csv_roundtrip(self, tmp_path):
        cfg = sl.SyntheticConfig(n_train=300, n_test=30, reps=1, rng_seed=1)
        rows = sl.run_benchmark(cfg)
        out = tmp_path / "bench.csv"
        sl.write_benchmark_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,criterion,mean,se,reps,seed"
        assert len(lines) == 25


class TestBatchedMatchesPerQuery:
    """Each registry method's batched kernel, run over all test queries as
    the benchmark runs it, must agree with the same registry method applied
    to one query at a time. Equality is bitwise for ks, knn and msknn, whose
    sums come in the same order; the other methods keep their tolerances."""

    EXTRA = (
        sl.BenchMethod("ks_h0.4", "ks", {"h": 0.4}),
        sl.BenchMethod("msknn_poly", "msknn-poly", {"k_vec": (10, 20, 30, 40, 50), "q": 2}),
        sl.BenchMethod("lrr_winv", "lrr", {"weight": "inverse_r", "q": 2}),
    )

    def setup_method(self):
        cfg = sl.SyntheticConfig(n_train=70, n_test=15, reps=1, rng_seed=11)
        rng = np.random.default_rng(23)
        suite = sl.default_method_suite() + self.EXTRA
        self.arrays, self.estimates = sl.trial_estimates(cfg, rng, suite)
        self.methods = {m.name: m for m in suite}
        self.data = core.Dataset.from_arrays(self.arrays.train_x, self.arrays.train_y)
        self.profiles = [
            core.profile(self.data, core.euclidean, q) for q in self.arrays.test_x
        ]

    def check(self, name, atol=0.0):
        method = self.methods[name]
        spec = estimators.EstimatorSpec(method.kind, method.params)
        batched = self.estimates[name]
        for i, prof in enumerate(self.profiles):
            single = spec.apply(self.data, prof, self.arrays.test_x[i]).value
            if atol:
                assert_allclose(batched[i], single, atol=atol)
            else:
                assert batched[i] == single

    def test_ks(self):
        self.check("ks_h0.4")

    def test_knn(self):
        for k in (10, 30, 50):
            self.check(f"knn_k{k}")

    def test_msknn_poly(self):
        self.check("msknn_poly")

    def test_msknn_logistic(self):
        self.check("msknn_logi")

    def test_local_poly(self):
        for name in ("lpor_h0.4", "lpolr_h0.4"):
            self.check(name, atol=1e-5)

    def test_lrr(self):
        self.check("lrr_winv", atol=1e-5)

    def test_lrlr(self):
        for name in ("lrlr_w1", "lrlr_winv"):
            self.check(name, atol=1e-5)

    def test_padded_rows(self):
        # Profiles over growing prefixes of the training set have different
        # lengths, so the stacked batch pads every row but the longest.
        sizes = (52, 60, 70, 55)
        queries = self.arrays.test_x[: len(sizes)]
        subsets = [
            core.Dataset.from_arrays(self.arrays.train_x[:n], self.arrays.train_y[:n]) for n in sizes
        ]
        profiles = [core.profile(d, core.euclidean, q) for d, q in zip(subsets, queries)]
        batch = estimators.ProfileBatch.stack(profiles, self.arrays.train_x, queries)
        assert batch.valid is not None and not batch.valid.all()
        for name, atol in (("ks_h0.4", 0.0), ("knn_k50", 0.0), ("msknn_poly", 0.0),
                           ("msknn_logi", 0.0), ("lpor_h0.4", 1e-5), ("lpolr_h0.4", 1e-5),
                           ("lrr_winv", 1e-5), ("lrlr_w1", 1e-5)):
            method = self.methods[name]
            entry = estimators.METHODS[method.kind]
            params = entry.resolve(method.params)
            batched = entry.batch(batch, **params).values
            for i, (data, prof) in enumerate(zip(subsets, profiles)):
                single = entry.single(data, prof, queries[i], **params).value
                if atol:
                    assert_allclose(batched[i], single, atol=atol, err_msg=name)
                else:
                    assert batched[i] == single, name
