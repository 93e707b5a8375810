import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radial import backtest as bt
from radial import estimators
from radial.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_price_csv(tmp_path, n_months=200, seed=5):
    path = tmp_path / "prices.csv"
    bt.write_series_csv(bt.synthetic_price_series(n_months=n_months, seed=seed), path)
    return path


class TestBenchCommand:
    def test_single_rep_twice_is_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _, _ = run_cli(capsys, "bench-synthetic", "--reps", "1", "--seed", "7", "--out", str(out_a))
        assert code == 0
        code, _, _ = run_cli(capsys, "bench-synthetic", "--reps", "1", "--seed", "7", "--out", str(out_b))
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_all_method_configurations_present(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench-synthetic", "--reps", "1", "--seed", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        methods = {line.split(",")[0] for line in lines[1:]}
        assert len(methods) == 12

    def test_zero_reps_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench-synthetic", "--reps", "0"])
        assert err.value.code == 2


class TestRateCommand:
    def test_prints_theoretical_slope(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        code, stdout, _ = run_cli(
            capsys, "rate", "--beta", "2", "--d", "1",
            "--sizes", "100,200,400", "--reps", "10", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        assert "-0.8000" in stdout
        assert out.exists()

    def test_two_sizes_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["rate", "--sizes", "100,200"])
        assert err.value.code == 2

    def test_fixed_seed_identical_csv(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["rate", "--sizes", "100,200,400", "--reps", "5", "--seed", "9"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


class TestZetaCommand:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "zeta.csv"
        code, stdout, _ = run_cli(
            capsys, "zeta", "--d", "2", "--sizes", "10,50", "--reps", "20", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,zeta_over_N_mean,zeta_over_N_sd"
        assert len(lines) == 3
        assert "0.88889" in stdout  # the d=2 limit


class TestBacktestCommand:
    def test_constant_buy_telescopes(self, tmp_path, capsys):
        path = small_price_csv(tmp_path)
        out = tmp_path / "ledger.csv"
        code, stdout, _ = run_cli(
            capsys, "backtest", "--input", str(path), "--method", "buy",
            "--test-start", "2006-03", "--test-end", "2006-07", "--out", str(out),
        )
        assert code == 0
        labeled = bt.label_months(bt.segment_months(bt.ingest_csv(path)))
        ids = [m.block.month_id for m in labeled]
        first, last = ids.index((2006, 3)), ids.index((2006, 7))
        expected = labeled[last].next_close / labeled[first].block.month_end_close
        assert f"cumulative_return={expected:.6f}" in stdout

    def test_lrlr_deterministic_summary(self, tmp_path, capsys):
        path = small_price_csv(tmp_path)
        args = ["backtest", "--input", str(path), "--method", "lrlr-w1",
                "--test-start", "2006-03", "--test-end", "2006-06"]
        code, out_a, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        assert "accuracy=" in out_a

    def test_missing_input_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["backtest", "--method", "knn"])
        assert err.value.code == 2

    def test_unreadable_input_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "backtest", "--input", str(tmp_path / "missing.csv"), "--method", "buy"
        )
        assert code == 1
        assert "error" in err

    def test_builtin_fixture(self, tmp_path, capsys):
        out = tmp_path / "ledger.csv"
        code, stdout, _ = run_cli(
            capsys, "backtest", "--input", "builtin", "--method", "buy",
            "--test-start", "2008-01", "--test-end", "2008-06", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("month,prediction,label,chosen_param,return,cumulative")

    def test_default_window_clamps_to_feasible_start(self, capsys):
        # the bundled fixture starts in 1990, so the canonical 2005-01 start
        # lacks a full training history and the first feasible month is used
        code, stdout, _ = run_cli(capsys, "backtest", "--input", "builtin", "--method", "buy")
        assert code == 0
        assert "months=" in stdout

    def test_too_short_history_is_runtime_error(self, tmp_path, capsys):
        path = small_price_csv(tmp_path, n_months=60)
        code, _, err = run_cli(capsys, "backtest", "--input", str(path), "--method", "buy")
        assert code == 1
        assert "labeled months" in err


class TestEstimateCommand:
    def test_knn_three_points(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("0.0,0.1,1\n0.1,0.0,0\n0.0,0.0,1\n")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "0,0",
            "--method", "knn", "--params", "k=3",
        )
        assert code == 0
        assert "estimate=0.6667" in stdout
        assert "class=1" in stdout

    def test_lrlr_all_positive(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("0.0,1\n0.5,1\n1.0,1\n1.5,1\n")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "0.2", "--method", "lrlr"
        )
        assert code == 0
        assert "class=1" in stdout

    def test_fallback_is_reported(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("0.0,0.0,1\n0.2,0.1,0\n0.1,0.3,1\n")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "0,0",
            "--method", "lpor", "--params", "h=1.0,q=3",
        )
        assert code == 0
        assert "degree reduced" in stdout

    def test_idtw_metric_with_ragged_series(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("1.0,2.0,1\n1.0,3.0,4.0,0\n2.0,4.0,1\n")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "3,6",
            "--method", "knn", "--metric", "idtw", "--params", "k=1",
        )
        assert code == 0
        assert "class=1" in stdout

    def test_parse_error_reports_line(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        train.write_text("1.0,2.0,1\noops,3.0,0\n")
        code, _, err = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "1,2",
            "--method", "knn", "--params", "k=1",
        )
        assert code == 1
        assert "line 2" in err

    def test_kernel_smoother_and_msknn(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        train = tmp_path / "train.csv"
        rows = [
            f"{x1:.3f},{x2:.3f},{y}"
            for x1, x2, y in zip(rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40), rng.integers(0, 2, 40))
        ]
        train.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "0,0",
            "--method", "ks", "--params", "h=1.0",
        )
        assert code == 0 and "estimate=" in stdout
        code, stdout, _ = run_cli(
            capsys, "estimate", "--train", str(train), "--query", "0,0",
            "--method", "msknn-logi", "--params", "k_vec=5:10:20:30,q=2",
        )
        assert code == 0 and "class=" in stdout


class TestParallelInvariance:
    def test_results_independent_of_worker_count(self, tmp_path, monkeypatch, capsys):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("RADIAL_THREADS", "1")
        assert main(["bench-synthetic", "--reps", "2", "--seed", "4", "--out", str(out_a)]) == 0
        monkeypatch.setenv("RADIAL_THREADS", "4")
        assert main(["bench-synthetic", "--reps", "2", "--seed", "4", "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


def test_predictions_dump(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    preds = tmp_path / "preds.csv"
    code, _, _ = run_cli(
        capsys, "bench-synthetic", "--reps", "1", "--seed", "2",
        "--out", str(out), "--predictions-out", str(preds),
    )
    assert code == 0
    header = preds.read_text().splitlines()[0].split(",")
    assert header[0] == "eta_true"
    assert "lrlr_w1" in header
    assert len(preds.read_text().strip().splitlines()) == 501


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "train.csv"
    path.write_text("0.0,0.1,1\n0.1,0.0,0\n0.0,0.0,1\n0.3,0.2,0\n")
    return str(path)


def exit_status(argv):
    """(exit code, stderr) of main(argv); argparse exits by SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


ESTIMATE = ["estimate", "--query", "0,0", "--train"]


@pytest.mark.parametrize("argv, code, needle", [
    (["--method", "ks"], 2, "requires parameter h"),
    (["--method", "knn", "--params", "k=abc"], 2, "must be an integer"),
    (["--method", "msknn-poly", "--params", "k_vec=1:x"], 2, "integers separated by ':'"),
    (["--method", "lrr", "--params", "weight=boxcar"], 2, "constant_one, inverse_r"),
    (["backtest", "--input", "builtin", "--method", "buy", "--test-start", "2007"], 2, "YYYY-MM"),
    (["zeta", "--d", "0", "--reps", "2"], 1, "dimension must be >= 1"),
], ids=["ks-without-h", "k-not-int", "k_vec-not-int", "unknown-weight", "bad-month", "zeta-d0"])
def test_bad_input_exits_with_one_line(train_csv, argv, code, needle):
    if argv[0] == "--method":
        argv = ESTIMATE + [train_csv] + argv
    got, err = exit_status(argv)
    assert got == code
    assert len(err.splitlines()) == 1 and "error: " in err and needle in err


def test_bad_file_contents_exit_with_one_line(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_bytes(b"2020-01-01,1\n2020-01-02,\xff2\n")
    train = tmp_path / "train.csv"
    train.write_text("0.0,0.1,1\n0.1,0.0,0.5\n")
    for argv, needle in (
        (["backtest", "--input", str(prices), "--method", "buy"], "not UTF-8"),
        (ESTIMATE + [str(train), "--method", "knn", "--params", "k=1"], "labels must be 0 or 1"),
    ):
        code, err = exit_status(argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and "error: " in err and needle in err


_PARAM_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(
        st.tuples(st.sampled_from(["h", "k", "q", "k_vec", "weight", "loss", "x", ""]),
                  st.text(alphabet="0123456789:.-+eEinfa_xr ", max_size=12)),
        max_size=4,
    ).map(lambda pairs: ",".join(f"{k}={v}" for k, v in pairs)),
)


@settings(max_examples=300, deadline=None)
@given(method=st.sampled_from(list(estimators.METHODS)), params=_PARAM_TEXT, month=st.text(max_size=12))
def test_parse_time_inputs_never_escape_main(train_csv, method, params, month):
    # Only SystemExit or a return code may come out of main(); the backtest
    # input is missing, so a month that parses ends in a one-line error.
    for argv in (ESTIMATE + [train_csv, "--method", method, f"--params={params}"],
                 ["backtest", "--input", train_csv + ".missing", "--method", "buy",
                  f"--test-start={month}", f"--test-end={month}"]):
        code, err = exit_status(argv)
        assert code in (0, 1, 2)
        assert code == 0 or len(err.splitlines()) == 1
