import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from radial import core
from radial._dtw import warp_sqcost
from radial.errors import DimensionMismatch, DomainError

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
series = st.lists(finite_floats, min_size=1, max_size=12)


class TestEuclidean:
    def test_identity(self):
        assert core.euclidean([0, 0], [0, 0]) == 0.0

    def test_hand_value(self):
        assert_allclose(core.euclidean([0, 0, 0], [1, 2, 2]), 3.0)

    def test_one_dimensional(self):
        assert core.euclidean([1], [4]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            core.euclidean([1, 2], [1, 2, 3])


class TestDtw:
    def test_self_alignment(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=rng.integers(1, 10))
            assert core.dtw(x, x) == 0.0

    def test_golden_value(self):
        assert_allclose(core.dtw([1, 3], [1, 2, 3]), 1.0)

    def test_all_zero(self):
        assert core.dtw([0, 0], [0, 0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            core.dtw([], [1.0])

    @settings(max_examples=200, deadline=None)
    @given(series, series)
    def test_symmetry_and_nonnegative(self, a, b):
        d_ab = core.dtw(a, b)
        assert d_ab >= 0.0
        assert_allclose(d_ab, core.dtw(b, a), rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=12))
    def test_equal_length_bounded_by_euclidean(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        assert core.dtw(a, b) <= core.euclidean(a, b) + 1e-9


class TestIdtw:
    def test_rescale_to_same(self):
        assert core.idtw([2, 4], [1, 2]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(0.5, 2.0, size=rng.integers(1, 8))
            y = rng.uniform(0.5, 2.0, size=rng.integers(1, 8))
            c, cp = rng.uniform(0.1, 10.0, size=2)
            assert_allclose(core.idtw(c * x, cp * y), core.idtw(x, y), atol=1e-9)

    def test_golden_value(self):
        assert_allclose(core.idtw([1, 3], [2, 4, 6]), 1.0)

    def test_zero_first_element(self):
        with pytest.raises(DomainError):
            core.idtw([0, 1], [1, 2])


class TestProfile:
    def test_sorts_one_dimensional(self):
        data = core.Dataset.from_arrays([[3.0], [1.0], [2.0]], [1, 0, 1])
        prof = core.profile(data, core.euclidean, [0.0])
        assert_allclose(prof.radii, [1, 2, 3])
        assert list(prof.source_indices) == [1, 2, 0]
        assert list(prof.labels) == [0, 1, 1]

    def test_stable_tie_break(self):
        data = core.Dataset.from_arrays([[1.0], [-1.0]], [1, 0])
        prof = core.profile(data, core.euclidean, [0.0])
        assert_allclose(prof.radii, [1, 1])
        assert list(prof.source_indices) == [0, 1]

    def test_variable_length_idtw(self):
        data = core.Dataset.from_sequences([[1, 2], [1, 3]], [1, 0])
        prof = core.profile(data, core.idtw, [2, 4])
        assert prof.radii[0] == 0.0
        assert_allclose(prof.radii[1], core.dtw([1, 2], [1, 3]))
        assert list(prof.source_indices) == [0, 1]

    def test_radii_are_permutation_of_distances(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        data = core.Dataset.from_arrays(X, y)
        q = rng.normal(size=4)
        prof = core.profile(data, core.euclidean, q)
        raw = np.array([core.euclidean(q, row) for row in X])
        assert_allclose(np.sort(raw), prof.radii)
        assert np.all(np.diff(prof.radii) >= 0)
        # labels stay attached to their points through the sort
        assert list(prof.labels) == [y[i] for i in prof.source_indices]

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 2))
        data = core.Dataset.from_arrays(X, rng.integers(0, 2, 20))
        a = core.profile(data, core.euclidean, [0.0, 0.0])
        b = core.profile(data, core.euclidean, [0.0, 0.0])
        assert np.array_equal(a.source_indices, b.source_indices)
        assert np.array_equal(a.radii, b.radii)


class TestDomainTypes:
    def test_labels_restricted(self):
        with pytest.raises(DomainError):
            core.LabeledPoint([1.0], 2)

    def test_fractional_labels_rejected(self):
        with pytest.raises(DomainError):
            core.Dataset.from_arrays([[0.0], [1.0]], [0.7, 1.9])
        with pytest.raises(DomainError):
            core.Dataset.from_sequences([[0.0], [1.0, 2.0]], [0.0, 0.5])
        data = core.Dataset.from_arrays([[0.0], [1.0]], np.array([0.0, 1.0]))
        assert data.labels.tolist() == [0, 1]

    def test_covariates_must_be_finite(self):
        with pytest.raises(DomainError):
            core.as_covariate([1.0, np.inf])

    def test_dataset_nonempty(self):
        with pytest.raises(DomainError):
            core.Dataset([])

    def test_ragged_dataset_has_no_dim(self):
        data = core.Dataset.from_sequences([[1, 2], [1, 2, 3]], [0, 1])
        assert data.dim is None

    def test_profile_invariants_enforced(self):
        with pytest.raises(DomainError):
            core.NeighborProfile([2.0, 1.0], [0, 1], [0, 1])


@pytest.mark.parametrize(
    "value, expected",
    [(3, 2), (3.4, 3), (1, 0), (0.9, 0), (2, 1), (7.0, 6)],
)
def test_strict_floor(value, expected):
    assert core.strict_floor(value) == expected


def test_strict_floor_domain():
    with pytest.raises(DomainError):
        core.strict_floor(0)
    with pytest.raises(DomainError):
        core.strict_floor(-1.5)


def test_get_metric():
    assert core.get_metric("dtw") is core.dtw
    with pytest.raises(DomainError):
        core.get_metric("cosine")


def test_dtw_fallback_without_numba():
    # radial needs no numba: with it blocked, the package imports and the
    # distances keep their values.
    import subprocess
    import sys

    script = (
        "import sys; sys.modules['numba'] = None\n"
        "from radial import core\n"
        "assert core.dtw([1, 3], [1, 2, 3]) == 1.0\n"
        "assert core.idtw([2, 4], [1, 2]) == 0.0\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def scalar_warp_sqcost(a: np.ndarray, b: np.ndarray) -> float:
    """Reference: the three-way recurrence one cell at a time."""
    n = a.shape[0]
    m = b.shape[0]
    prev = np.empty(m + 1)
    cur = np.empty(m + 1)
    prev[0] = 0.0
    for j in range(1, m + 1):
        prev[j] = np.inf
    for i in range(1, n + 1):
        cur[0] = np.inf
        ai = a[i - 1]
        for j in range(1, m + 1):
            d = ai - b[j - 1]
            best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            if prev[j - 1] < best:
                best = prev[j - 1]
            cur[j] = d * d + best
        prev, cur = cur, prev
    return prev[m]


long_series = st.lists(finite_floats, min_size=1, max_size=30).map(np.array)


class TestWarpKernel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(long_series, long_series), min_size=1, max_size=8))
    @example([(np.array([1.0]), np.arange(30.0)), (np.arange(30.0), np.array([-2.0])),
              (np.array([3.0]), np.array([4.0])), (np.arange(7.0), np.arange(12.0)[::-1])])
    def test_batch_matches_scalar_recurrence_bitwise(self, pairs):
        A, B = [a for a, _ in pairs], [b for _, b in pairs]
        expected = np.array([scalar_warp_sqcost(a, b) for a, b in pairs])
        assert warp_sqcost(A, B).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lengths", [(15, 24), (20, 20)], ids=["ragged", "equal-length"])
    @pytest.mark.parametrize("metric", [core.dtw, core.idtw], ids=["dtw", "idtw"])
    def test_profile_matches_per_row_distances(self, metric, lengths):
        rng = np.random.default_rng(11)
        xs = [100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, int(rng.integers(*lengths, endpoint=True)))))
              for _ in range(40)]
        data = core.Dataset.from_sequences(xs, rng.integers(0, 2, 40))
        q = xs[3] * 1.01
        per_row = np.array([metric(q, x) for x in xs])
        order = np.argsort(per_row, kind="stable")
        prof = core.profile(data, metric, q)
        assert prof.radii.tobytes() == per_row[order].tobytes()
        assert np.array_equal(prof.source_indices, order)
