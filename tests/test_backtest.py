import dataclasses
import datetime as dt
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import generators
from radial import backtest as bt
from radial import core, estimators, localfit
from radial.errors import ConfigurationError, DomainError, ParameterError, ParseError


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def month_ids(start_year, start_month, n):
    year, month = start_year, start_month
    out = []
    for _ in range(n):
        out.append((year, month))
        year, month = (year + 1, 1) if month == 12 else (year, month + 1)
    return out


def period2_history(n_months=220):
    """Rising months (100 -> 110) alternate with falling ones (110 -> 100).

    Labels are perfectly periodic with period 2 and the two month shapes
    have distinct rescaled-warping signatures, so the nearest month always
    shares the query's label.
    """
    blocks = []
    for i, mid in enumerate(month_ids(1980, 1, n_months)):
        closes = np.linspace(100.0, 110.0, 21) if i % 2 == 0 else np.linspace(110.0, 100.0, 21)
        blocks.append(bt.MonthBlock(mid, closes))
    return bt.label_months(blocks)


class RecordingHistory:
    """Sequence wrapper logging every month access with the current phase."""

    def __init__(self, months):
        self._months = list(months)
        self.phase = None
        self.trace = []

    def __len__(self):
        return len(self._months)

    def __getitem__(self, index):
        assert isinstance(index, int)
        self.trace.append((self.phase, index))
        return self._months[index]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


class TestIngest:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2020-01-02,100.0\n2020-01-03,101.5\n")
        series = bt.ingest_csv(path)
        assert len(series) == 2
        assert series.dates[0] == dt.date(2020, 1, 2)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2020-01-02,100.0\n")
        assert len(bt.ingest_csv(path)) == 1

    def test_unsorted_rows_sorted_with_warning(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2020-01-03,101.5\n2020-01-02,100.0\n")
        with pytest.warns(UserWarning):
            series = bt.ingest_csv(path)
        assert series.dates[0] < series.dates[1]

    def test_nonpositive_price_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2020-01-02,0\n")
        with pytest.raises(ParseError):
            bt.ingest_csv(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2020-01-02,100\n2020-01-02,101\n")
        with pytest.raises(ParseError):
            bt.ingest_csv(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("2020-01-02,100\n2020-01-03,abc\n")
        with pytest.raises(ParseError) as err:
            bt.ingest_csv(path)
        assert err.value.line == 2

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"\xef\xbb\xbf2020-01-01,1\n2020-01-02,2\n")
        assert len(bt.ingest_csv(path)) == 2

    @pytest.mark.parametrize("prefix", [b"\n", b"\xef\xbb\xbf\n"], ids=["blank-line", "bom-blank-line"])
    def test_header_after_blank_line_skipped(self, tmp_path, prefix):
        # The first nonblank record is the optional header, wherever it is.
        with open(bt.bundled_fixture_path(), "rb") as fh:
            lines = fh.readlines()
        plain, led = tmp_path / "plain.csv", tmp_path / "led.csv"
        plain.write_bytes(b"".join(lines[:401]))
        led.write_bytes(prefix + b"".join(lines[:401]))
        want, got = bt.ingest_csv(plain), bt.ingest_csv(led)
        assert len(want) == 400
        assert got.dates == want.dates
        assert got.closes.tobytes() == want.closes.tobytes()

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"2020-01-01,1\n2020-01-02,\xff2\n")
        with pytest.raises(ParseError):
            bt.ingest_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.sampled_from(["2020-01-02", "2020-01-03", "date", "100.5", "-1", "nan",
                                  ",", "\n", "\r\n", '"', "\ufeff", "\x00", "\xe9", " "]),
                 max_size=30).map(lambda parts: "".join(parts).encode("utf-8")),
    ))
    def test_arbitrary_bytes_parse_or_raise_parse_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.csv")
            with open(path, "wb") as fh:
                fh.write(content)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    series = bt.ingest_csv(path)
                except ParseError:
                    return
        assert len(series) >= 1


class TestSegmentation:
    def test_two_months(self):
        dates = [dt.date(2020, 1, 30), dt.date(2020, 1, 31), dt.date(2020, 2, 3)]
        series = bt.PriceSeries(tuple(dates), np.array([1.0, 2.0, 3.0]))
        blocks = bt.segment_months(series)
        assert [b.month_id for b in blocks] == [(2020, 1), (2020, 2)]
        assert blocks[0].n_days == 2
        assert blocks[0].month_end_close == 2.0

    def test_single_day_month(self):
        series = bt.PriceSeries((dt.date(2021, 3, 15),), np.array([5.0]))
        blocks = bt.segment_months(series)
        assert blocks[0].n_days == 1

    def test_bundled_fixture_shape(self):
        series = bt.ingest_csv(bt.bundled_fixture_path())
        blocks = bt.segment_months(series)
        assert len(blocks) == 420
        days = np.array([b.n_days for b in blocks])
        assert 19 <= days.min() and days.max() <= 23


class TestLabels:
    def test_rise(self):
        blocks = [
            bt.MonthBlock((2020, 1), np.array([90.0, 100.0])),
            bt.MonthBlock((2020, 2), np.array([105.0, 110.0])),
        ]
        assert bt.label_months(blocks)[0].label == 1

    def test_equal_close_is_zero(self):
        blocks = [
            bt.MonthBlock((2020, 1), np.array([100.0])),
            bt.MonthBlock((2020, 2), np.array([100.0])),
        ]
        assert bt.label_months(blocks)[0].label == 0

    def test_fall(self):
        blocks = [
            bt.MonthBlock((2020, 1), np.array([100.0])),
            bt.MonthBlock((2020, 2), np.array([90.0])),
        ]
        assert bt.label_months(blocks)[0].label == 0


class TestKvec:
    def test_values(self):
        assert bt.msknn_kvec(5, 120, 5) == (5, 33, 62, 91, 120)
        assert bt.msknn_kvec(5, 20, 5) == (5, 8, 12, 16, 20)

    def test_always_ends_at_kmax(self):
        for kmax in (20, 30, 50, 80, 120):
            vec = bt.msknn_kvec(5, kmax, 5)
            assert vec[0] == 5 and vec[-1] == kmax
            assert all(b > a for a, b in zip(vec, vec[1:]))

    def test_validation(self):
        with pytest.raises(ParameterError):
            bt.msknn_kvec(5, 5, 5)


class TestReturns:
    def test_buy_and_sell(self):
        assert_allclose(bt.monthly_return(1, 100.0, 110.0), 1.1)
        assert_allclose(bt.monthly_return(0, 100.0, 110.0), 0.9)
        assert_allclose(bt.monthly_return(1, 100.0, 90.0), 0.9)

    def test_buy_plus_sell_is_two(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            e0, e1 = rng.uniform(10, 200, 2)
            assert_allclose(bt.monthly_return(1, e0, e1) + bt.monthly_return(0, e0, e1), 2.0)

    def test_cumulative(self):
        assert_allclose(bt.cumulative_return([1.1, 0.9]), [1.1, 0.99])
        assert bt.cumulative_return([]) == []


# ---------------------------------------------------------------------------
# Walk-forward
# ---------------------------------------------------------------------------


class TestWalkForward:
    def test_periodic_pattern_is_learned_exactly(self):
        labeled = period2_history()
        start = labeled[192].block.month_id
        end = labeled[205].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, end, "knn")
        assert bt.accuracy_report(ledger) == 1.0
        # ties in validation accuracy resolve to the smallest candidate
        assert set(ledger.chosen_params) == {1}

    def test_lrlr_has_no_tuned_parameter(self):
        labeled = period2_history(200)
        start = labeled[192].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, start, "lrlr-w1")
        assert ledger.chosen_params == (None,)

    def test_constant_buy_telescopes(self):
        labeled = period2_history(200)
        start, end = labeled[192].block.month_id, labeled[198].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, end, "buy")
        # always-long tracks the index's own month-end trajectory
        base = labeled[192].block.month_end_close
        for i, cum in enumerate(ledger.cumulative):
            assert abs(cum - labeled[192 + i].next_close / base) < 1e-12

    def test_flip_consistency(self):
        labeled = period2_history(202)
        start, end = labeled[192].block.month_id, labeled[200].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, end, "knn")
        acc = bt.accuracy_report(ledger)
        flipped = bt.BacktestLedger(
            months=ledger.months,
            predictions=tuple(1 - p for p in ledger.predictions),
            labels=ledger.labels,
            chosen_params=ledger.chosen_params,
            returns=tuple(
                bt.monthly_return(1 - p, m.block.month_end_close, m.next_close)
                for p, m in zip(ledger.predictions, (labeled[192 + i] for i in range(9)))
            ),
            cumulative=(),
            method="knn",
        )
        assert_allclose(bt.accuracy_report(flipped), 1.0 - acc)
        assert_allclose(
            np.asarray(flipped.returns) + np.asarray(ledger.returns), 2.0
        )

    def test_walk_profiles_match_core_profile(self):
        # Every even month has the same shape, so most radii tie; the walk's
        # row sort must break ties by month index like core.profile does.
        rng = np.random.default_rng(3)
        blocks = [m.block for m in period2_history(90)]
        blocks[1::7] = [bt.MonthBlock(b.month_id, b.closes * np.exp(rng.normal(0, 0.01, b.n_days)))
                        for b in blocks[1::7]]
        labeled = bt.label_months(blocks)
        walk = bt._WalkDistances(labeled)
        for queries, pool in ((range(60, 72), range(0, 60)), (range(72, 73), range(10, 72))):
            batch = walk.batch(queries, pool)
            block = walk.dist[queries.start:queries.stop, pool.start:pool.stop]
            assert np.array_equal(batch.index, np.argsort(block, axis=1, kind="stable"))
            data = core.Dataset.from_sequences([labeled[j].block.closes for j in pool],
                                               [labeled[j].label for j in pool])
            for row, s in enumerate(queries):
                prof = core.profile(data, core.idtw, labeled[s].block.closes)
                assert batch.radii[row].tobytes() == prof.radii.tobytes()
                assert np.array_equal(batch.index[row], prof.source_indices)
                assert np.array_equal(batch.labels[row], prof.labels)

    def test_deterministic(self):
        labeled = period2_history(200)
        start, end = labeled[192].block.month_id, labeled[196].block.month_id
        a = bt.walk_forward_predict(labeled, start, end, "msknn-poly")
        b = bt.walk_forward_predict(labeled, start, end, "msknn-poly")
        assert a == b

    def test_insufficient_history(self):
        labeled = period2_history(100)
        start = labeled[50].block.month_id
        with pytest.raises(ConfigurationError):
            bt.walk_forward_predict(labeled, start, start, "knn")

    def test_argmax_prefers_higher_validation_accuracy(self):
        # a pool where only parity matters: every k with a same-parity
        # majority scores 1.0; k = 2 mixes both shapes at zero distance?
        # no: both zero-distance groups share parity, so all k <= pool/2
        # score 1.0 and the tie rule picks k = 1
        labeled = period2_history(220)
        start = labeled[200].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, start, "knn")
        assert ledger.chosen_params == (1,)

    def test_unknown_method(self):
        labeled = period2_history(200)
        start = labeled[192].block.month_id
        with pytest.raises(ParameterError):
            bt.walk_forward_predict(labeled, start, start, "oracle")

    def test_validation_window_below_one_rejected(self):
        for window in (0, -1):
            with pytest.raises(ParameterError):
                bt.WalkForwardConfig(validation_window=window)

    def test_tuning_window_must_hold_the_largest_candidate(self):
        labeled = period2_history(200)
        start = labeled[192].block.month_id
        # The largest knn candidate is k = 30; msknn's is the largest k_max.
        fits = bt.WalkForwardConfig(n_train=31, validation_window=1)
        assert bt.walk_forward_predict(labeled, start, start, "knn", fits).months == (start,)
        stages = []
        for method, config in (("knn", bt.WalkForwardConfig(n_train=31, validation_window=2)),
                               ("msknn-logi", bt.WalkForwardConfig(n_train=130, validation_window=11))):
            with pytest.raises(ConfigurationError, match="tuning months"):
                bt.walk_forward_predict(labeled, start, start, method, config,
                                        phase_hook=lambda stage, t: stages.append(stage))
        assert stages == []

    def test_test_month_after_history_rejected(self):
        labeled = period2_history(200)
        with pytest.raises(ConfigurationError):
            bt.walk_forward_predict(labeled, (2030, 1), labeled[-1].block.month_id, "knn")


class TestLeakage:
    def test_tuning_and_prediction_read_only_past_months(self):
        base = period2_history(208)
        history = RecordingHistory(base)
        start = base[192].block.month_id
        end = base[203].block.month_id
        hook = lambda stage, t: setattr(history, "phase", (stage, t))
        for method in ("knn", "lrlr-w1"):
            history.trace.clear()
            history.phase = None
            bt.walk_forward_predict(history, start, end, method, phase_hook=hook)
            # phase None covers only the initial month-id scan that maps the
            # requested test window to indices; market data is read in phases
            phased = [rec for rec in history.trace if rec[0] is not None]
            assert phased, "instrumentation saw no accesses"
            for (stage, t), index in phased:
                if stage in ("tune", "predict"):
                    assert index <= t - 1, f"{stage} read month {index} for test month {t}"
                elif stage == "query":
                    assert index == t
                else:
                    assert stage == "score" and index == t

    def test_future_labels_never_read_before_scoring(self):
        base = period2_history(200)
        history = RecordingHistory(base)
        start = base[192].block.month_id
        hook = lambda stage, t: setattr(history, "phase", (stage, t))
        bt.walk_forward_predict(history, start, start, "msknn-logi", phase_hook=hook)
        future = [
            rec for rec in history.trace if rec[0] is not None and rec[1] > rec[0][1]
        ]
        assert future == []


# ---------------------------------------------------------------------------
# The tuning grid in one kernel call, against one call per candidate
# ---------------------------------------------------------------------------


SMALL = bt.WalkForwardConfig(n_train=40, validation_window=8, msknn_kmax_grid=(10, 20, 30))


def reference_walk(labeled, start, end, method, config, rng_seed=0):
    """The walk-forward ledger with the tuning grid scored one candidate at
    a time (strict improvement wins, so ties go to the smallest), every
    profile built by ``core.profile`` under ``idtw``, and the cumulative
    return as a running product."""
    ids = [m.block.month_id for m in labeled]
    T, V = config.n_train, config.validation_window
    rng = np.random.default_rng(rng_seed)
    entry, candidates = None, [(None, {})]
    if method in bt.LOCAL_METHODS:
        kind, fixed = bt.LOCAL_METHODS[method]
        entry = estimators.get_method(kind)
        grid = [(None, {})]
        if kind == "knn":
            grid = [(k, {"k": k}) for k in bt.KNN_GRID]
        elif kind.startswith("msknn"):
            grid = [(kmax, {"k_vec": bt.msknn_kvec(5, kmax, 5)}) for kmax in config.msknn_kmax_grid]
        candidates = [(value, entry.resolve({**fixed, **tuned})) for value, tuned in grid]

    def profiles(queries, pool):
        data = core.Dataset.from_sequences([labeled[j].block.closes for j in pool],
                                           [labeled[j].label for j in pool])
        rows = [core.profile(data, core.idtw, labeled[i].block.closes) for i in queries]
        return estimators.ProfileBatch(np.stack([p.radii for p in rows]),
                                       np.stack([p.labels for p in rows]).astype(np.float64))

    months, preds, labels, chosen_out, returns, cumulative = [], [], [], [], [], []
    for t in range(ids.index(start), ids.index(end) + 1):
        chosen, params = candidates[0]
        if chosen is not None:
            batch = profiles(range(t - V, t), range(t - T, t - V))
            v_labels = np.array([labeled[i].label for i in range(t - V, t)])
            best = -1
            for value, candidate in candidates:
                hits = int(np.count_nonzero(estimators.classify(entry.batch(batch, **candidate).values) == v_labels))
                if hits > best:
                    best, chosen, params = hits, value, candidate
        if entry is None:
            pred = 1 if method == "buy" else int(rng.integers(0, 2))
        else:
            pred = int(estimators.classify(entry.batch(profiles([t], range(t - T, t)), **params).values)[0])
        month = labeled[t]
        months.append(month.block.month_id)
        preds.append(pred)
        labels.append(month.label)
        chosen_out.append(chosen)
        returns.append(bt.monthly_return(pred, month.block.month_end_close, month.next_close))
        cumulative.append(returns[-1] * (cumulative[-1] if cumulative else 1.0))
    return bt.BacktestLedger(tuple(months), tuple(preds), tuple(labels), tuple(chosen_out),
                             tuple(returns), tuple(cumulative), method)


def noisy_period2_history(n_months=64):
    """``period2_history`` with every third month's closes perturbed, so
    that some distances tie and others do not."""
    rng = np.random.default_rng(8)
    blocks = [m.block for m in period2_history(n_months)]
    blocks[::3] = [bt.MonthBlock(b.month_id, b.closes * np.exp(rng.normal(0, 0.02, b.n_days)))
                   for b in blocks[::3]]
    return bt.label_months(blocks)


class TestGridTuning:
    @pytest.mark.parametrize("history", ["noisy-period2", "bundled"])
    @pytest.mark.parametrize("method", bt.METHODS)
    def test_ledger_equals_one_call_per_candidate(self, history, method):
        if history == "bundled":
            labeled = bt.label_months(bt.segment_months(bt.ingest_csv(bt.bundled_fixture_path())))
            first, last = 150, 159
        else:
            labeled = noisy_period2_history()
            first, last = 40, 55
        start, end = labeled[first].block.month_id, labeled[last].block.month_id
        ledger = bt.walk_forward_predict(labeled, start, end, method, SMALL, rng_seed=5)
        assert ledger == reference_walk(labeled, start, end, method, SMALL, rng_seed=5)

    def test_zero_first_close_raises_without_warning(self):
        blocks = [m.block for m in period2_history(48)]
        for i in (20, 40):
            blocks[i] = bt.MonthBlock(blocks[i].month_id, np.concatenate([[0.0], blocks[i].closes[1:]]))
        labeled = bt.label_months(blocks)
        start = labeled[40].block.month_id
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("knn", "msknn-logi", "lrlr-w1"):
                with pytest.raises(DomainError, match="^idtw is undefined when a first element is zero$"):
                    bt.walk_forward_predict(labeled, start, start, method, SMALL)
            # A baseline reads no closes, so a zero first close does not stop it.
            assert bt.walk_forward_predict(labeled, start, start, "buy", SMALL).predictions == (1,)

    def test_one_solve_to_tune_and_one_to_predict_each_month(self, monkeypatch):
        calls = []
        solve_wls = localfit.solve_wls
        monkeypatch.setattr(localfit, "solve_wls", lambda *args: calls.append(1) or solve_wls(*args))
        labeled = period2_history(60)
        config = bt.WalkForwardConfig(n_train=40, validation_window=8, msknn_kmax_grid=(10, 12, 15, 20, 25))
        start, end = labeled[40].block.month_id, labeled[42].block.month_id
        assert len(bt.walk_forward_predict(labeled, start, end, "msknn-logi", config).months) == 3
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("method", ["msknn-logi", "knn"])
    def test_each_tune_scores_the_whole_grid_on_the_untiled_validation_rows(self, monkeypatch, method):
        kind, _ = bt.LOCAL_METHODS[method]
        entry, name = estimators.METHODS[kind], "k" if kind == "knn" else "k_vec"
        grid_size = len(bt.KNN_GRID) if kind == "knn" else len(SMALL.msknn_kmax_grid)
        calls, phase = [], {}

        def spy(batch, **params):
            out = entry.batch(batch, **params)
            calls.append((phase["stage"], batch.radii.shape, np.shape(params[name]), out.values.shape))
            return out

        # The backtest looks the kernel up in the registry on each walk.
        monkeypatch.setitem(estimators.METHODS, kind, dataclasses.replace(entry, batch=spy))
        labeled = bt.label_months(bt.segment_months(bt.ingest_csv(bt.bundled_fixture_path())))
        first, last = 150, 153
        T, V = SMALL.n_train, SMALL.validation_window
        bt.walk_forward_predict(labeled, labeled[first].block.month_id, labeled[last].block.month_id,
                                method, SMALL, phase_hook=lambda stage, t: phase.update(stage=stage))
        # One call a month on the V validation rows and every candidate,
        # then one on the test month with the chosen one.
        ladder = () if kind == "knn" else (5,)
        tune = ("tune", (V, T - V), (grid_size, *ladder), (V, grid_size))
        assert calls == [tune, ("predict", (1, T), ladder, (1,))] * (last + 1 - first)

    @pytest.mark.parametrize("method", ["msknn-logi", "lrlr-w1"])
    def test_one_kernel_call_per_row_and_none_to_tune_after_the_first_month(self, monkeypatch, method):
        labeled = bt.label_months(bt.segment_months(bt.ingest_csv(bt.bundled_fixture_path())))
        # Each month's rescaled closes name the row a kernel call fills.
        row_of = {core.rescale(m.block.closes).tobytes(): i for i, m in enumerate(labeled)}
        assert len(row_of) == len(labeled)
        calls, phase = [], {}
        dtw_columns = bt.dtw_columns

        def counting(a, B, lengths):
            calls.append((phase["stage"], phase["t"], row_of[a.tobytes()], B.shape[1]))
            return dtw_columns(a, B, lengths)

        monkeypatch.setattr(bt, "dtw_columns", counting)
        first, last = 150, 159
        T, V = SMALL.n_train, SMALL.validation_window
        bt.walk_forward_predict(labeled, labeled[first].block.month_id, labeled[last].block.month_id,
                                method, SMALL, phase_hook=lambda stage, t: phase.update(stage=stage, t=t))
        tune = [(t, row, width) for stage, t, row, width in calls if stage == "tune"]
        predict = [(t, row, width) for stage, t, row, width in calls if stage == "predict"]
        assert len(tune) + len(predict) == len(calls)
        # The first tune fills each validation month's row back to its pool;
        # every later tune reads rows that are already filled.
        if method == "msknn-logi":
            assert tune == [(first, v, v - (first - T)) for v in range(first - V, first)]
        else:
            assert tune == []
        assert predict == [(t, t, T) for t in range(first, last + 1)]


# ---------------------------------------------------------------------------
# Fixture generation and output
# ---------------------------------------------------------------------------


class TestSyntheticSeries:
    def test_deterministic(self):
        a = generators.synthetic_price_series(n_months=24, seed=1)
        b = generators.synthetic_price_series(n_months=24, seed=1)
        assert a.dates == b.dates
        assert np.array_equal(a.closes, b.closes)

    def test_weekdays_only(self):
        series = generators.synthetic_price_series(n_months=6, seed=2)
        assert all(d.weekday() < 5 for d in series.dates)

    def test_positive_prices(self):
        series = generators.synthetic_price_series(n_months=60, seed=3)
        assert series.closes.min() > 0

    def test_regenerates_the_bundled_fixture(self, tmp_path):
        path = tmp_path / "series.csv"
        generators.write_series_csv(generators.synthetic_price_series(), path)
        with open(bt.bundled_fixture_path(), "rb") as fh:
            assert path.read_bytes() == fh.read()


def test_ledger_csv(tmp_path):
    labeled = period2_history(200)
    start, end = labeled[192].block.month_id, labeled[195].block.month_id
    ledger = bt.walk_forward_predict(labeled, start, end, "buy")
    out = tmp_path / "ledger.csv"
    bt.write_ledger_csv(ledger, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "month,prediction,label,chosen_param,return,cumulative"
    assert len(lines) == 5
    assert lines[1].startswith("1996-01,1,")


def test_price_series_validation():
    with pytest.raises(DomainError):
        bt.PriceSeries((dt.date(2020, 1, 2), dt.date(2020, 1, 1)), np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        bt.PriceSeries((dt.date(2020, 1, 2),), np.array([-1.0]))
