import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from radial import core
from radial._dtw import pad, warp_sqcost
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

    def test_empty_covariates_are_at_distance_zero(self):
        assert core.euclidean([], []) == 0.0


# Coordinates of either sign with magnitudes over 1e-5..1e5, and zeros.
coords = st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]),
                   st.floats(1e-5, 1e5) | st.just(0.0))


@st.composite
def point_sets(draw, dims=st.integers(1, 12), elements=coords):
    """Queries Q (m, d) and rows X (n, d); X ends with a copy of Q's first
    row (a tie at distance 0 among ties) and a zero row."""
    d = draw(dims)
    Q = draw(hnp.arrays(np.float64, (draw(st.integers(1, 4)), d), elements=elements))
    X = draw(hnp.arrays(np.float64, (draw(st.integers(1, 12)), d), elements=elements))
    return Q, np.vstack([X, Q[:1], Q[:1], np.zeros((1, d))])


def norm_route(Q, X):
    """Euclidean distances as ``np.linalg.norm`` of each offset row."""
    return np.stack([np.linalg.norm(X - q, axis=1) for q in Q])


class TestEuclideanDistances:
    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_equals_cdist_bitwise(self, sets):
        from scipy.spatial.distance import cdist

        Q, X = sets
        assert np.array_equal(core.euclidean_distances(Q, X), cdist(Q, X))

    @settings(max_examples=200, deadline=None)
    @given(point_sets(dims=st.integers(1, 7)))
    def test_equals_the_norm_of_offsets_bitwise_up_to_seven_dimensions(self, sets):
        Q, X = sets
        assert np.array_equal(core.euclidean_distances(Q, X), norm_route(Q, X))

    @settings(max_examples=100, deadline=None)
    @given(point_sets(dims=st.integers(8, 12)))
    def test_within_d_ulps_of_the_norm_of_offsets_past_seven(self, sets):
        # numpy's pairwise sum adds eight or more squares in another order.
        Q, X = sets
        got, want = core.euclidean_distances(Q, X), norm_route(Q, X)
        assert np.all(np.abs(got - want) <= Q.shape[1] * np.spacing(want))

    @settings(max_examples=200, deadline=None)
    @given(point_sets(dims=st.integers(1, 7), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_overflow_gives_the_same_inf_and_no_new_warning(self, sets):
        Q, X = sets
        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            got = core.euclidean_distances(Q, X)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            want = norm_route(Q, X)
        assert np.array_equal(got, want)
        assert {str(w.message) for w in ours} <= {str(w.message) for w in theirs}

    def test_profile_radii_are_the_kernel_row_sorted(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(500, 3))
        q = rng.normal(size=3)
        prof = core.profile(core.Dataset.from_arrays(X, rng.integers(0, 2, 500)), core.euclidean, q)
        assert np.array_equal(prof.radii, np.sort(np.linalg.norm(X - q, axis=1)))
        assert np.array_equal(prof.radii, [core.euclidean(q, X[i]) for i in prof.source_indices])


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

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(0.5, 50), min_size=1, max_size=8), min_size=1, max_size=6),
           st.lists(st.floats(0.5, 50), min_size=1, max_size=8))
    def test_profile_radii_equal_pair_calls(self, rows, query):
        data = core.Dataset.from_sequences(rows, [0] * len(rows))
        prof = core.profile(data, core.idtw, query)
        pairs = np.array([core.idtw(query, row) for row in rows])
        assert prof.radii.tobytes() == pairs[prof.source_indices].tobytes()


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

    @pytest.mark.parametrize("kind", ["euclidean", "dtw", "per-row metric"])
    def test_a_distance_that_is_not_finite_is_a_domain_error(self, kind):
        # The true distances overflow a double (or are NaN, from a metric).
        if kind == "dtw":
            data = core.Dataset.from_sequences([[0.0, 1.0], [1.0]], [0, 1])
            metric, query = core.dtw, [1e200]
        elif kind == "euclidean":
            data = core.Dataset.from_arrays([[0.0, 0.0], [1.0, 1.0]], [0, 1])
            metric, query = core.euclidean, [1e200, 1e200]
        else:
            data = core.Dataset.from_arrays([[0.0], [1.0]], [0, 1])
            metric, query = (lambda a, b: np.nan), [0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="to point 0 is (inf|nan), not a finite number"):
                core.profile(data, metric, query)

    @pytest.mark.parametrize("kind", ["euclidean", "idtw", "per-row metric"])
    def test_arrays_are_read_only_and_equal_a_validated_profile(self, kind):
        # profile freezes the arrays it builds instead of passing them
        # through NeighborProfile's copies and order check; they must be
        # what that constructor gives, and share no memory with the dataset.
        rng = np.random.default_rng(9)
        if kind == "idtw":
            rows = [rng.uniform(1.0, 2.0, int(m)) for m in rng.integers(3, 9, 30)]
            data, metric, query = core.Dataset.from_sequences(rows, rng.integers(0, 2, 30)), core.idtw, rows[4]
        else:
            # Integer coordinates, so distances tie.
            rows = rng.integers(-2, 3, size=(30, 2)).astype(np.float64)
            metric = core.euclidean if kind == "euclidean" else (lambda a, b: float(np.abs(a - b).sum()))
            data, query = core.Dataset.from_arrays(rows, rng.integers(0, 2, 30)), [0.0, 1.0]
        prof = core.profile(data, metric, query)
        dists = np.array([metric(query, row) for row in rows])
        order = np.argsort(dists, kind="stable")
        want = core.NeighborProfile(dists[order], data.labels[order], order)
        for name in ("radii", "labels", "source_indices"):
            got, ref = getattr(prof, name), getattr(want, name)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = got[1]
            for held in (data.labels, *(data.covariates if kind == "idtw" else [data.covariates])):
                assert not np.shares_memory(got, held)


# Few distinct values, so most arrays are full of ties, with every value
# that orders specially: NaN (of either sign), both zeros and both infinities.
tie_values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, -np.nan])
tie_arrays = st.one_of(
    hnp.arrays(np.float64, st.integers(0, 40), elements=tie_values),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 12)), elements=tie_values),
    hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 12)),
               elements=st.floats(allow_nan=True, allow_infinity=True)),
)


class TestStableArgsort:
    @settings(max_examples=500, deadline=None)
    @given(tie_arrays)
    @example(np.zeros((3, 0)))
    @example(np.array([[np.nan], [0.0], [-0.0]]))
    @example(np.array([0.0, -0.0, 0.0, np.nan, -np.nan, np.nan]))
    def test_is_numpys_stable_argsort(self, values):
        got = core.stable_argsort(values)
        want = np.argsort(values, axis=-1, kind="stable")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_large_rows(self):
        rng = np.random.default_rng(3)
        for values in (rng.integers(0, 4, size=(50, 400)) * 0.5, rng.random((7, 3000)),
                       rng.integers(0, 50, size=20_000).astype(np.float64)):
            assert np.array_equal(core.stable_argsort(values),
                                  np.argsort(values, axis=-1, kind="stable"))

    def test_profile_order_on_ties(self):
        # Points on an integer grid: most distances from a grid point repeat.
        rng = np.random.default_rng(4)
        X = rng.integers(-3, 4, size=(500, 2)).astype(np.float64)
        data = core.Dataset.from_arrays(X, rng.integers(0, 2, 500))
        for q in ([0.0, 0.0], [1.0, -2.0], [0.5, 0.5]):
            prof = core.profile(data, core.euclidean, q)
            dists = np.linalg.norm(X - np.array(q), axis=1)
            assert len(np.unique(dists)) < 30
            assert np.array_equal(prof.source_indices, np.argsort(dists, kind="stable"))


class TestDomainTypes:
    def test_labels_restricted(self):
        with pytest.raises(DomainError):
            core.Dataset.from_arrays([[1.0]], [2])

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
            core.Dataset.from_sequences([], [])
        with pytest.raises(DomainError):
            core.Dataset([])

    def test_ragged_dataset_has_no_dim(self):
        data = core.Dataset.from_sequences([[1, 2], [1, 2, 3]], [0, 1])
        assert data.dim is None

    def test_profile_invariants_enforced(self):
        with pytest.raises(DomainError):
            core.NeighborProfile([2.0, 1.0], [0, 1], [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_profile_radii_must_be_finite(self, bad):
        # NaN passes the order check, so finiteness is checked on its own.
        with pytest.raises(DomainError, match="radii must be finite"):
            core.NeighborProfile([0.0, bad, 1.0], [0, 1, 0], [0, 1, 2])


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


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=5), st.integers(-(2**70), 2**70))
    @example([0.0, -0.0, 5e-324, -1e-310, -2.2250738585072014e-308, 1e308, -np.inf], 0)
    def test_doubles_round_trip_and_numpy_floats_write_alike(self, tmp_path_factory, values, n):
        folder = tmp_path_factory.mktemp("csv")
        plain, numpy = folder / "plain.csv", folder / "numpy.csv"
        core.write_csv(plain, ["n", "v"], [(n, v) for v in values] + [("", None)])
        core.write_csv(numpy, ["n", "v"], [(n, np.float64(v)) for v in values] + [("", None)])
        assert plain.read_bytes() == numpy.read_bytes()
        records = core.read_csv(plain, "table")
        assert records[0] == (1, ["n", "v"])
        assert records[-1] == (len(values) + 2, ["", ""])
        for (_, (text_n, text_v)), v in zip(records[1:], values):
            assert int(text_n) == n
            got = float(text_v)
            assert np.isnan(got) if np.isnan(v) else struct.pack("<d", got) == struct.pack("<d", v)

    def test_blank_records_are_skipped_and_lines_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n\n   \n1, 2\n")
        assert core.read_csv(path, "table") == [(1, ["a", "b"]), (4, ["1", " 2"])]


def test_get_metric():
    assert core.get_metric("dtw") is core.dtw
    with pytest.raises(DomainError):
        core.get_metric("cosine")


def run_fresh(script: str, **env: str):
    """Run ``script`` in a fresh interpreter that imports radial from the
    same src directory as this test, with ``env`` added to its environment."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(core.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_dtw_fallback_without_numba():
    # radial needs no numba: with it blocked, the package imports and the
    # distances keep their values.
    proc = run_fresh(
        "import sys; sys.modules['numba'] = None\n"
        "from radial import core\n"
        "assert core.dtw([1, 3], [1, 2, 3]) == 1.0\n"
        "assert core.idtw([2, 4], [1, 2]) == 0.0\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    # The program needs only numpy; scipy is a test oracle, and importing
    # it would triple the start-up time of every command.
    proc = run_fresh(
        "import sys\n"
        "import radial, radial.cli, radial.backtest, radial.synthlab, radial.theorylab\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
        # Each pair's first series against the second series of every pair.
        B, lengths = pad([b for _, b in pairs])
        for a, _ in pairs:
            expected = np.array([scalar_warp_sqcost(a, b) for _, b in pairs])
            assert warp_sqcost(a, B, lengths).tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(long_series, st.lists(long_series, min_size=1, max_size=8), finite_floats, st.integers(0, 3))
    def test_one_against_ragged_series_bitwise(self, a, series, fill, extra):
        # Entries past a column's length, and rows past the longest column,
        # hold any value: the kernel must not read them.
        B, lengths = pad(series)
        B = np.vstack([B, np.zeros((extra, B.shape[1]))])
        B[np.arange(B.shape[0])[:, None] >= lengths] = fill
        expected = np.array([scalar_warp_sqcost(a, b) for b in series])
        assert warp_sqcost(a, B, lengths).tobytes() == expected.tobytes()

    def test_long_series_need_memory_linear_in_length(self):
        # Two 3,000-point series: the full table would be 72 MB; the kernel
        # keeps three diagonals and the last row, about 100 kB.
        a, b = np.zeros(3000), np.ones(3000)
        tracemalloc.start()
        try:
            value = core.dtw(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == np.sqrt(3000.0)  # every alignment step costs 1
        assert peak < 2**20

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
