import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from radial import core, estimators, localfit, theorylab
from radial.errors import DimensionMismatch, DomainError, EmptyWindowError, ParameterError
from radial.estimators import (
    Boxcar,
    ConstantOne,
    InverseRadius,
    NearestCount,
    classify,
    kernel_smoother,
    knn,
    lpolr,
    lpor,
    lrr,
    msknn,
)
from test_core import run_fresh


class TestBatchEstimate:
    @pytest.mark.parametrize("diagnostics", [
        (),
        (7, False, True),
        (np.asarray(7), np.bool_(True), np.bool_(False)),
        (np.array([3, 4, 5]), np.array([True, False, True]), np.array([False, True, False])),
        (np.array([3, 4, 5]), True, np.array([True, False, False])),
    ])
    def test_row_is_the_broadcast_diagnostics(self, diagnostics):
        values = np.array([0.25, 0.5, 1.0])
        batch = estimators.BatchEstimate(values, *(diagnostics or (9,)))
        fields = (batch.used_points, batch.converged, batch.fallback_applied)
        for i in (0, 1, 2, -1):
            used, converged, fallback = (np.broadcast_to(a, values.shape)[i] for a in fields)
            want = estimators.Estimate(float(values[i]),
                                       estimators.Diagnostics(int(used), bool(converged), bool(fallback)))
            got = batch[i]
            assert got == want
            assert type(got.diagnostics.used_points) is int and type(got.diagnostics.converged) is bool


class TestByDistance:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_distance_that_is_not_finite_is_a_domain_error(self, bad):
        D = np.array([[0.5, 1.0, 2.0], [1.0, bad, 0.0]])
        with pytest.raises(DomainError, match="not a finite number"):
            estimators.ProfileBatch.by_distance(D, [0, 1, 1])


def make_profile(radii, labels):
    radii = np.asarray(radii, dtype=float)
    order = np.argsort(radii, kind="stable")
    return core.NeighborProfile(radii[order], np.asarray(labels)[order], order)


def random_profile(rng, n=40):
    return make_profile(rng.uniform(0, 2, n), rng.integers(0, 2, n))


class TestKernelSmoother:
    def test_two_point_mean(self):
        prof = make_profile([0.5, 0.8], [1, 0])
        assert kernel_smoother(prof, 1.0).value == 0.5

    def test_constant_labels(self):
        prof = make_profile([0.1, 0.2, 0.9], [1, 1, 1])
        assert kernel_smoother(prof, 1.0).value == 1.0

    def test_window_selects_prefix(self):
        prof = make_profile([1, 2, 3], [1, 1, 0])
        est = kernel_smoother(prof, 2.0)
        assert est.value == 1.0
        assert est.diagnostics.used_points == 2

    def test_empty_window(self):
        prof = make_profile([1, 2], [0, 1])
        with pytest.raises(EmptyWindowError):
            kernel_smoother(prof, 0.5)


class TestKnn:
    def test_direct_mean(self):
        prof = make_profile([1, 2, 3, 4], [1, 0, 1, 1])
        assert_allclose(knn(prof, 3).value, 2.0 / 3.0)

    def test_nearest_label(self):
        prof = make_profile([1, 2], [0, 1])
        assert knn(prof, 1).value == 0.0

    def test_matches_kernel_smoother_at_kth_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            prof = random_profile(rng)
            k = int(rng.integers(1, len(prof)))
            if prof.radii[k - 1] < prof.radii[k]:
                assert knn(prof, k).value == kernel_smoother(prof, prof.radii[k - 1]).value

    def test_k_out_of_range(self):
        prof = make_profile([1, 2], [0, 1])
        with pytest.raises(ParameterError):
            knn(prof, 3)


def euclid_fixture(rng, n=60, d=2):
    X = rng.uniform(-1, 1, size=(n, d))
    y = rng.integers(0, 2, n)
    data = core.Dataset.from_arrays(X, y)
    query = rng.uniform(-0.3, 0.3, size=d)
    return data, core.profile(data, core.euclidean, query), query


class TestLocalPoly:
    def test_degree_zero_is_kernel_smoother(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            data, prof, query = euclid_fixture(rng)
            h = rng.uniform(0.3, 1.0)
            assert_allclose(
                lpor(data, prof, query, h, 0).value,
                kernel_smoother(prof, h).value,
                atol=1e-12,
            )

    def test_exact_line_in_one_dimension(self):
        data = core.Dataset.from_arrays([[-1.0], [1.0]], [0, 1])
        prof = core.profile(data, core.euclidean, [0.0])
        assert_allclose(lpor(data, prof, [0.0], 2.0, 1).value, 0.5, atol=1e-12)

    def test_constant_labels_any_degree(self):
        data = core.Dataset.from_arrays(np.random.default_rng(2).uniform(-1, 1, (30, 2)), np.ones(30))
        prof = core.profile(data, core.euclidean, [0.0, 0.0])
        for q in (0, 1, 2):
            assert_allclose(lpor(data, prof, [0.0, 0.0], 2.0, q).value, 1.0, atol=1e-9)

    def test_degree_fallback_flag(self):
        data = core.Dataset.from_arrays([[-1.0], [1.0], [0.5]], [0, 1, 1])
        prof = core.profile(data, core.euclidean, [0.0])
        # 1-d quadratic needs 3 basis functions: exactly solvable, no fallback
        est = lpor(data, prof, [0.0], 2.0, 2)
        assert est.diagnostics.used_points == 3
        assert not est.diagnostics.fallback_applied
        # degree 5 needs 6 > 3 points: reduced until it fits
        est = lpor(data, prof, [0.0], 2.0, 5)
        assert est.diagnostics.fallback_applied


@pytest.mark.parametrize("data, query", [
    (core.Dataset.from_sequences([[1.0, 2.0], [1.0, 2.0, 3.0], [2.0, 1.0]], [0, 1, 1]), [1.0, 2.0]),
    (core.Dataset.from_arrays([[1.0, 2.0, 3.0], [2.0, 1.0, 3.0], [1.0, 1.0, 1.0]], [0, 1, 1]), [1.0, 2.0]),
], ids=["ragged", "query-of-another-length"])
def test_local_poly_needs_fixed_dimension_covariates(data, query):
    prof = core.profile(data, core.dtw, query)
    for fit in (
        lambda: lpor(data, prof, query, 10.0, 1),
        lambda: lpolr(data, prof, query, 10.0, 1),
        lambda: estimators.EstimatorSpec("lpor", {"h": 10.0}).apply(data, prof, query),
    ):
        with pytest.raises(DimensionMismatch, match="fixed-dimension"):
            fit()


class TestLocalPolyLogistic:
    def test_symmetric_window(self):
        data = core.Dataset.from_arrays([[-1.0], [1.0]], [0, 1])
        prof = core.profile(data, core.euclidean, [0.0])
        assert_allclose(lpolr(data, prof, [0.0], 2.0, 1).value, 0.5, atol=1e-9)

    def test_all_ones_saturates_high(self):
        rng = np.random.default_rng(3)
        data = core.Dataset.from_arrays(rng.uniform(-1, 1, (25, 2)), np.ones(25))
        prof = core.profile(data, core.euclidean, [0.0, 0.0])
        assert lpolr(data, prof, [0.0, 0.0], 2.0, 1).value > 0.99

    def test_all_zeros_saturates_low(self):
        rng = np.random.default_rng(4)
        data = core.Dataset.from_arrays(rng.uniform(-1, 1, (25, 2)), np.zeros(25))
        prof = core.profile(data, core.euclidean, [0.0, 0.0])
        assert lpolr(data, prof, [0.0, 0.0], 2.0, 1).value < 0.01

    def test_non_convergence_is_reported_with_finite_value(self):
        rng = np.random.default_rng(5)
        data = core.Dataset.from_arrays(rng.uniform(-1, 1, (30, 2)), rng.integers(0, 2, 30))
        prof = core.profile(data, core.euclidean, [0.0, 0.0])
        with mock.patch.multiple(localfit, MAX_ITER=1, TOL=1e-16):
            est = lpolr(data, prof, [0.0, 0.0], 2.0, 1)
        assert not est.diagnostics.converged
        assert np.isfinite(est.value)


class TestMsknn:
    def test_linear_extrapolation(self):
        # k-NN estimates 0.4, 0.5, 0.6 at radii 1, 2, 3: labels built so the
        # running means hit those values exactly at k = 5, 10, 15
        labels = np.zeros(15, dtype=int)
        labels[:2] = 1          # mean over 5 = 0.4
        labels[5:8] = 1         # mean over 10 = 0.5
        labels[10:14] = 1       # mean over 15 = 0.6
        radii = np.concatenate([np.full(4, 0.5), [1.0], np.full(4, 1.5), [2.0], np.full(4, 2.5), [3.0]])
        prof = core.NeighborProfile(radii, labels, np.arange(15))
        est = msknn(prof, [5, 10, 15], 1, "poly", "squared")
        assert_allclose(est.value, 0.3, atol=1e-10)

    def test_constant_estimates_any_loss(self):
        # label share identical at every scale: one positive per four points
        for pattern, c in (([1, 0], 0.5), ([1, 0, 0, 0], 0.25)):
            labels = np.tile(pattern, 20 // len(pattern))
            prof = core.NeighborProfile(np.linspace(0.1, 2, 20), labels, np.arange(20))
            ks = [len(pattern) * m for m in (1, 2, 3, 5)]
            for regression, loss in [("poly", "squared"), ("logi", "logistic"), ("logi", "logit_squared")]:
                est = msknn(prof, ks, 1, regression, loss)
                assert_allclose(est.value, c, atol=1e-6)

    def test_degree_zero_squared_is_mean(self):
        rng = np.random.default_rng(5)
        prof = random_profile(rng, 50)
        ks = [5, 10, 20, 40]
        csum = np.cumsum(prof.labels)
        expected = np.mean([csum[k - 1] / k for k in ks])
        assert_allclose(msknn(prof, ks, 0, "poly", "squared").value, expected, atol=1e-10)

    def test_two_point_extrapolation_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            prof = random_profile(rng, 30)
            k1, k2 = 5, 20
            csum = np.cumsum(prof.labels)
            e1, e2 = csum[k1 - 1] / k1, csum[k2 - 1] / k2
            r1, r2 = prof.radii[k1 - 1], prof.radii[k2 - 1]
            expected = e1 - r1 * (e2 - e1) / (r2 - r1)
            assert_allclose(msknn(prof, [k1, k2], 1, "poly", "squared").value, expected, atol=1e-8)

    def test_identifiability(self):
        prof = make_profile([1, 2, 3, 4], [1, 0, 1, 0])
        with pytest.raises(ParameterError):
            msknn(prof, [2, 4], 2, "poly", "squared")

    def test_invalid_combination(self):
        prof = make_profile([1, 2, 3, 4], [1, 0, 1, 0])
        with pytest.raises(ParameterError):
            msknn(prof, [1, 2, 3], 1, "poly", "logistic")


class TestLogit:
    """The logit of ``loss="logit_squared"`` against scipy's."""

    @staticmethod
    def ulps(got, want):
        return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))

    def test_clipped_knn_fractions_within_four_ulps_of_scipy(self):
        from scipy.special import logit

        for k in range(1, 201):
            lo = 1.0 / (2.0 * k)
            p = np.clip(np.arange(k + 1) / k, lo, 1.0 - lo)
            got = estimators._logit(p)
            assert self.ulps(got, logit(p)).max() <= 4
            assert np.array_equal(got[p == 0.5], np.zeros(np.count_nonzero(p == 0.5)))

    def test_uniform_draws_within_four_ulps_of_scipy(self):
        from scipy.special import logit

        rng = np.random.default_rng(9)
        p = np.concatenate((rng.uniform(size=200_000), 0.5 + rng.normal(0.0, 1e-6, 20_000),
                            [0.3, 0.65, np.nextafter(0.3, 0.0), np.nextafter(0.65, 1.0)]))
        assert self.ulps(estimators._logit(p), logit(p)).max() <= 4

    @pytest.mark.parametrize("label", [0, 1])
    def test_all_equal_labels_raise_no_warning(self, label):
        # Every k-NN fraction is 0 or 1 and is clipped to 1/(2k) or 1 - 1/(2k).
        prof = make_profile(np.linspace(0.1, 2.0, 40), np.full(40, label))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = msknn(prof, [5, 10, 20, 40], 2, "logi", "logit_squared").value
        assert classify(value) == label


class TestLrr:
    def test_degree_zero_global_mean(self):
        rng = np.random.default_rng(7)
        prof = random_profile(rng, 30)
        est = lrr(prof, ConstantOne(), 0, "squared")
        assert_allclose(est.value, prof.labels.mean(), atol=1e-12)

    def test_hand_solved_line(self):
        # normal equations on (1,1), (2,1), (3,0): slope = -1/2, intercept 5/3
        prof = make_profile([1, 2, 3], [1, 1, 0])
        r = prof.radii
        y = prof.labels.astype(float)
        slope = np.sum((r - r.mean()) * (y - y.mean())) / np.sum((r - r.mean()) ** 2)
        intercept = y.mean() - slope * r.mean()
        assert_allclose(intercept, 5.0 / 3.0)
        est = lrr(prof, ConstantOne(), 1, "squared")
        assert_allclose(est.value, intercept, atol=1e-12)

    def test_duplicate_query_inverse_weight(self):
        prof = make_profile([0.0, 0.4, 0.9, 1.3], [1, 0, 0, 0])
        est = lrr(prof, InverseRadius(), 0, "squared")
        assert np.isfinite(est.value)
        assert_allclose(est.value, 1.0, atol=1e-9)

    def test_windows(self):
        prof = make_profile([1, 2, 3, 4], [1, 1, 0, 0])
        within = lrr(prof, Boxcar(2.5), 0, "squared")
        assert_allclose(within.value, 1.0)
        nearest = lrr(prof, NearestCount(3), 0, "squared")
        assert_allclose(nearest.value, 2.0 / 3.0)

    def test_boxcar_weight_equals_fit_inside_the_ball(self):
        rng = np.random.default_rng(8)
        prof = random_profile(rng)
        a = lrr(prof, Boxcar(1.0), 1, "squared")
        ball = prof.radii <= 1.0
        inside = core.NeighborProfile(prof.radii[ball], prof.labels[ball], prof.source_indices[ball])
        b = lrr(inside, ConstantOne(), 1, "squared")
        assert_allclose(a.value, b.value, atol=1e-9)

    def test_nearest_count_checks_k(self):
        prof = make_profile([1, 2, 3], [1, 0, 1])
        for k in (0, 4):
            with pytest.raises(ParameterError):
                lrr(prof, NearestCount(k), 0)

    def test_degree_fallback(self):
        prof = make_profile([1, 2], [1, 0])
        est = lrr(prof, ConstantOne(), 3, "squared")
        assert est.diagnostics.fallback_applied

    def test_even_basis_matches_theory_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(6, 60))
            radii = np.sort(rng.uniform(0.05, 1.0, n))
            labels = rng.integers(0, 2, n)
            prof = core.NeighborProfile(radii, labels, np.arange(n))
            omega = int(rng.integers(1, 3))
            r_tilde = float(rng.uniform(0.5, 1.0))
            config = theorylab.TheoryConfig(beta=2 * omega + 1, d=2, r_tilde=r_tilde, phi=0.99)
            state = theorylab.design_state(prof.radii, config)
            if not state.event_holds:
                continue
            est = lrr(prof, Boxcar(r_tilde), omega, "squared", even=True)
            oracle = theorylab.lrr_closed_form(state, prof.labels[prof.radii <= r_tilde])
            assert_allclose(est.value, oracle, atol=1e-8)


# lrr and lrlr, both weights, on 20 queries against 12,000 to 19,600 points:
# every value as its exact hex.
BLAS_THREAD_SCRIPT = """
import numpy as np
from radial import core, estimators
rng = np.random.default_rng(3)
X = rng.uniform(-1.0, 1.0, (19600, 2))
y = (rng.uniform(size=19600) < 0.5 + 0.4 * X[:, 0]).astype(int)
out = []
for i, query in enumerate(rng.uniform(-0.5, 0.5, (20, 2))):
    data = core.Dataset.from_arrays(X[: 12000 + 400 * i], y[: 12000 + 400 * i])
    prof = core.profile(data, core.euclidean, query)
    for kind in ("lrr", "lrlr"):
        method = estimators.METHODS[kind]
        for weight in ("constant_one", "inverse_r"):
            params = method.resolve({"weight": weight})
            out.append(method.estimate(data, prof, query, **params).value.hex())
print(" ".join(out))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread on one CPU")
def test_radial_fits_do_not_depend_on_blas_thread_count():
    # OpenBLAS splits a dot product longer than 10,000 across its threads,
    # so a power sum taken as one would round differently with their number.
    runs = [run_fresh(BLAS_THREAD_SCRIPT, OPENBLAS_NUM_THREADS=str(t)) for t in (1, 2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    one, two = (proc.stdout.split() for proc in runs)
    assert len(one) == 80
    assert one == two


def test_points_beyond_every_window_change_no_estimate():
    """A fit's window is where its weights are positive: points appended
    past every window leave each windowed estimate unchanged to the bit."""
    rng = np.random.default_rng(14)
    for _ in range(20):
        data, prof, query = euclid_fixture(rng, n=40)
        far = query + rng.choice([-1.0, 1.0], size=(15, 2)) * rng.uniform(5.0, 9.0, size=(15, 2))
        wide = core.Dataset.from_arrays(
            np.vstack([data.covariates, far]), np.concatenate([data.labels, rng.integers(0, 2, 15)])
        )
        wide_prof = core.profile(wide, core.euclidean, query)
        h, q = float(rng.uniform(0.5, 1.0)), int(rng.integers(0, 3))
        assert lpor(data, prof, query, h, q) == lpor(wide, wide_prof, query, h, q)
        assert lpolr(data, prof, query, h, q) == lpolr(wide, wide_prof, query, h, q)
        for weight in (Boxcar(h), NearestCount(int(rng.integers(5, 41)))):
            for loss in ("squared", "logistic"):
                assert lrr(prof, weight, q, loss) == lrr(wide_prof, weight, q, loss)
        config = theorylab.TheoryConfig(beta=3, d=2, r_tilde=h, phi=0.99)
        assert theorylab.theory_lrr(prof.radii, config, prof.labels) == theorylab.theory_lrr(
            wide_prof.radii, config, wide_prof.labels
        )


class TestClassify:
    @pytest.mark.parametrize("value, expected", [(0.5, 1), (0.49, 0), (1.2, 1), (-0.3, 0)])
    def test_threshold(self, value, expected):
        assert classify(value) == expected

    def test_invariant_under_monotone_transform_fixing_half(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(-0.5, 1.5, 200)
        transform = lambda v: 0.5 + np.tanh(3.0 * (v - 0.5))  # increasing, fixes 1/2
        for v in values:
            assert classify(float(v)) == classify(float(transform(v)))


class TestRangesAndSymmetry:
    def test_mean_estimators_stay_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            prof = random_profile(rng)
            assert 0.0 <= knn(prof, int(rng.integers(1, 40))).value <= 1.0
            assert 0.0 <= kernel_smoother(prof, 1.5).value <= 1.0

    def test_logistic_estimators_stay_in_open_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prof = random_profile(rng)
            v = lrr(prof, ConstantOne(), 2, "logistic").value
            assert 0.0 < v < 1.0
            v = msknn(prof, [5, 10, 20, 30], 2, "logi", "logit_squared").value
            assert 0.0 < v < 1.0

    def test_label_flip_antisymmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            radii = np.sort(rng.uniform(0.05, 2, 30))
            labels = rng.integers(0, 2, 30)
            prof = core.NeighborProfile(radii, labels, np.arange(30))
            flipped = core.NeighborProfile(radii, 1 - labels, np.arange(30))

            for q in (0, 1, 2):
                a = lrr(prof, ConstantOne(), q, "squared").value
                b = lrr(flipped, ConstantOne(), q, "squared").value
                assert_allclose(a + b, 1.0, atol=1e-9)

            a = lrr(prof, ConstantOne(), 2, "logistic").value
            b = lrr(flipped, ConstantOne(), 2, "logistic").value
            assert_allclose(a + b, 1.0, atol=1e-6)

            ks = [4, 8, 16, 24]
            a = msknn(prof, ks, 1, "poly", "squared").value
            b = msknn(flipped, ks, 1, "poly", "squared").value
            assert_allclose(a + b, 1.0, atol=1e-9)

            a = msknn(prof, ks, 1, "logi", "logistic").value
            b = msknn(flipped, ks, 1, "logi", "logistic").value
            assert_allclose(a + b, 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# Tuned kernels with one parameter per row
# ---------------------------------------------------------------------------


@st.composite
def tied_batches(draw):
    """A sorted batch whose radii come from four values, so most tie, and
    whose labels are runs of 0/1."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(6, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = np.sort(rng.choice([0.0, 0.5, 1.0, 2.5], size=(m, n)), axis=1)
    labels = np.repeat(rng.integers(0, 2, size=(m, n // 2 + 1)), 2, axis=1)[:, :n].astype(np.float64)
    return estimators.ProfileBatch(radii, labels), rng


_FIELDS = ("values", "used_points", "converged")


def _fields(estimate):
    """The values and the diagnostics broadcast against them."""
    return [np.broadcast_to(getattr(estimate, name), estimate.values.shape) for name in _FIELDS]


def _columns(one_by_one):
    """The fields of one-parameter estimates, as the columns of a grid's."""
    return [np.stack(column, axis=-1) for column in zip(*map(_fields, one_by_one))]


def _same(got, want):
    """Each field of ``got`` equals the array in ``want`` bit for bit."""
    for name, field, array in zip(_FIELDS, _fields(got), want):
        assert field.shape == array.shape, name
        assert field.tobytes() == array.astype(field.dtype).tobytes(), name


class TestPerRowParameters:
    """A kernel given a grid of C parameters: column c of its (m, C)
    result is the call with parameter c."""

    @settings(max_examples=60, deadline=None)
    @given(tied_batches(), st.integers(1, 5))
    def test_knn_per_row_equals_one_call_per_k(self, drawn, count):
        batch, rng = drawn
        ks = rng.integers(1, batch.radii.shape[1] + 1, size=count)
        _same(estimators._knn(batch, ks), _columns([estimators._knn(batch, int(k)) for k in ks]))

    @settings(max_examples=60, deadline=None)
    @given(tied_batches(), st.integers(1, 4), st.integers(0, 2),
           st.sampled_from([("poly", "squared"), ("logi", "logistic"), ("logi", "logit_squared")]))
    def test_msknn_per_row_equals_one_call_per_ladder(self, drawn, count, q, combination):
        batch, rng = drawn
        n = batch.radii.shape[1]
        J = int(rng.integers(q + 1, min(n, 6) + 1))
        ladders = np.sort([rng.choice(np.arange(1, n + 1), size=J, replace=False) for _ in range(count)], axis=1)
        _same(estimators._msknn(batch, ladders, q, *combination),
              _columns([estimators._msknn(batch, ladder.tolist(), q, *combination) for ladder in ladders]))

    @settings(max_examples=100, deadline=None)
    @given(tied_batches(), st.floats(0.25, 3.0))
    def test_ks_equals_knn_at_the_window_count(self, drawn, h):
        batch, _ = drawn
        inside = batch.radii <= h
        used = inside.sum(axis=1)
        assume(np.all(used > 0))
        got = estimators._ks(batch, h)
        # Row i under the grid's k = used[i].
        _same(got, [field.diagonal() for field in _fields(estimators._knn(batch, used))])
        # The plain boxcar mean: the labels within h, summed, over their count.
        assert got.values.tobytes() == (np.where(inside, batch.labels, 0.0).sum(axis=1) / used).tobytes()

    def test_bad_per_row_k_is_named(self):
        batch = estimators.ProfileBatch(np.arange(8.0).reshape(2, 4), np.ones((2, 4)))
        for k, needle in (([2, 5], "k must be in [1, 4], got 5"), ([0, 1], "got 0")):
            with pytest.raises(ParameterError) as err:
                estimators._knn(batch, np.array(k))
            assert needle in str(err.value) and "\n" not in str(err.value)

    def test_bad_per_row_ladder_is_named(self):
        batch = estimators.ProfileBatch(np.arange(12.0).reshape(2, 6), np.ones((2, 6)))
        for ladders, needle in (([[1, 2, 3], [1, 3, 3]], "strictly increasing and nonempty, got [1, 3, 3]"),
                                ([[1, 2, 7], [1, 2, 3]], "within [1, 6], got [1, 2, 7]"),
                                ([[0, 2, 3], [1, 2, 3]], "got [0, 2, 3]"),
                                ([[1, 2, 3], [1, 2, 4], [2, 2, 3]], "got [2, 2, 3]")):
            with pytest.raises(ParameterError) as err:
                estimators._msknn(batch, np.array(ladders), 2, "poly", "squared")
            assert needle in str(err.value) and "\n" not in str(err.value)

    def test_scalar_messages_are_unchanged(self):
        batch = estimators.ProfileBatch(np.arange(8.0).reshape(2, 4), np.ones((2, 4)))
        for call, message in (
            (lambda: estimators._knn(batch, 5), "k must be in [1, 4], got 5"),
            (lambda: estimators._knn(batch, 10**30), f"k must be in [1, 4], got {10**30}"),
            (lambda: estimators._msknn(batch, [1, 1, 2], 2, "poly", "squared"),
             "k_vec must be strictly increasing and nonempty"),
            (lambda: estimators._msknn(batch, [], 0, "poly", "squared"),
             "k_vec must be strictly increasing and nonempty"),
            (lambda: estimators._msknn(batch, [1, 2, 10**30], 2, "poly", "squared"), "k_vec must lie within [1, 4]"),
            (lambda: estimators._msknn(batch, [1, 2], 2, "poly", "squared"), "need at least q+1 = 3 scales, got 2"),
        ):
            with pytest.raises(ParameterError) as err:
                call()
            assert str(err.value) == message
