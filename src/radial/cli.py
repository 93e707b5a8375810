"""Command-line entry point: benchmark, theory experiments, backtest, and
single-query estimation, all emitting tidy CSV.

Exit codes: 0 success, 1 runtime error, 2 usage error. Every command is
deterministic given --seed; RADIAL_THREADS caps worker parallelism.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys

import numpy as np

from . import backtest, core, estimators, synthlab, theorylab
from .errors import ConfigurationError, ParameterError, ParseError, RadialError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error on one line and exit 2."""
        self.exit(2, f"radial: error: {message}\n")


def _month(text: str) -> tuple[int, int]:
    """A YYYY-MM month, for argparse's ``type=``."""
    match = re.fullmatch(r"([0-9]{4})-([0-9]{2})", text)
    if match is None or not 1 <= int(match[2]) <= 12:
        raise argparse.ArgumentTypeError(f"expected a month as YYYY-MM, got {text!r}")
    return int(match[1]), int(match[2])


def _seed(text: str) -> int:
    """A nonnegative integer seed, for argparse's ``type=``."""
    with contextlib.suppress(ValueError):
        if int(text) >= 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer seed, got {text!r}")


def _numbers(text: str) -> list[float]:
    """Comma-separated numbers, for argparse's ``type=``."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radial",
        description="Local radial regression classifiers: benchmarks, theory checks, backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench-synthetic", help="synthetic concordance benchmark")
    bench.add_argument("--reps", type=int, default=200)
    bench.add_argument("--seed", type=_seed, default=0)
    bench.add_argument("--out", default=None, help="benchmark CSV path")
    bench.add_argument("--predictions-out", default=None,
                       help="per-query estimate columns for one extra trial")

    rate = sub.add_parser("rate", help="Monte-Carlo convergence-rate experiment")
    rate.add_argument("--beta", type=float, default=2.0)
    rate.add_argument("--d", type=int, default=1)
    rate.add_argument("--sizes", default="200,400,800,1600,3200,6400,12800",
                      help="comma-separated sample sizes (at least 3)")
    rate.add_argument("--reps", type=int, default=200)
    rate.add_argument("--seed", type=_seed, default=0)
    rate.add_argument("--out", default=None, help="risk-curve CSV path")

    zeta = sub.add_parser("zeta", help="guard-statistic concentration experiment")
    zeta.add_argument("--d", type=int, default=2)
    zeta.add_argument("--sizes", default="10,100,2000", help="comma-separated window sizes")
    zeta.add_argument("--reps", type=int, default=200)
    zeta.add_argument("--seed", type=_seed, default=0)
    zeta.add_argument("--out", default=None, help="concentration CSV path")

    back = sub.add_parser("backtest", help="walk-forward month-end direction backtest")
    back.add_argument("--input", required=True,
                      help="price CSV (date,close); 'builtin' uses the bundled fixture")
    back.add_argument("--method", required=True, choices=backtest.METHODS)
    back.add_argument("--test-start", type=_month, default=None, help="YYYY-MM")
    back.add_argument("--test-end", type=_month, default=None, help="YYYY-MM")
    back.add_argument("--train-months", type=int, default=192)
    back.add_argument("--validation-months", type=int, default=24)
    back.add_argument("--seed", type=_seed, default=0)
    back.add_argument("--out", default=None, help="ledger CSV path")

    est = sub.add_parser("estimate", help="estimate one query's label probability")
    est.add_argument("--train", required=True,
                     help="CSV of rows x_1,...,x_d,y (ragged lengths allowed for dtw/idtw)")
    est.add_argument("--query", type=_numbers, required=True, help="comma-separated query values")
    est.add_argument("--method", required=True, choices=list(estimators.METHODS))
    est.add_argument("--metric", default="euclidean", choices=sorted(core.METRICS))
    est.add_argument("--params", default="", help="comma-separated key=value pairs; " + "; ".join(
        f"{kind}: {method.usage()}" for kind, method in estimators.METHODS.items()))
    return parser


def _parse_sizes(parser, text: str, minimum: int):
    try:
        sizes = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {text!r}")
    if len(sizes) < minimum:
        parser.error(f"--sizes needs at least {minimum} values")
    return sizes


def _cmd_bench(parser, args) -> int:
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    config = synthlab.SyntheticConfig(reps=args.reps, rng_seed=args.seed)
    rows = synthlab.run_benchmark(config)
    if args.out:
        synthlab.write_benchmark_csv(rows, args.out)
    for row in rows:
        print(f"{row.method:<12} vs {row.criterion:<6} {row.mean:.4f} +/- {row.se:.4f}")
    if args.predictions_out:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(config.reps + 1)[-1])
        arrays, estimates = synthlab.trial_estimates(config, rng)
        synthlab.write_estimates_csv(arrays.test_eta, estimates, args.predictions_out)
    return 0


def _cmd_rate(parser, args) -> int:
    sizes = _parse_sizes(parser, args.sizes, minimum=3)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    report = theorylab.rate_experiment(
        beta=args.beta, d=args.d, sample_sizes=sizes, reps=args.reps, rng_seed=args.seed
    )
    if args.out:
        theorylab.write_rate_csv(report, args.out)
    for n, risk, se in zip(report.sample_sizes, report.risks, report.risk_ses):
        print(f"n={n:<8} risk={risk:.6g} se={se:.3g}")
    print(f"fitted slope {report.fitted_slope:.4f} (theoretical {report.theoretical_slope:.4f})")
    if report.excluded_sizes:
        print(f"warning: excluded sizes with no usable fits: {report.excluded_sizes}")
    return 0


def _cmd_zeta(parser, args) -> int:
    sizes = _parse_sizes(parser, args.sizes, minimum=1)
    if args.reps < 2:
        parser.error("--reps must be >= 2")
    # Computed first: it rejects a dimension below 1 before the sampler uses it.
    constants = theorylab.uniform_ball_constants(args.d)
    # The statistic is scale-free, so the radii are drawn from the unit ball.
    rows = theorylab.zeta_concentration(args.d, 1.0, sizes, args.reps, args.seed)
    if args.out:
        theorylab.write_zeta_csv(rows, args.out)
    for row in rows:
        print(f"N={row.n_points:<8} zeta/N = {row.ratio_mean:.5f} +/- {row.ratio_sd:.5f}")
    print(f"limit {constants.rho_star:.5f}, guard threshold {constants.phi:.5f}")
    return 0


def _cmd_backtest(parser, args) -> int:
    path = backtest.bundled_fixture_path() if args.input == "builtin" else args.input
    series = backtest.ingest_csv(path)
    labeled = backtest.label_months(backtest.segment_months(series))
    config = backtest.WalkForwardConfig(
        n_train=args.train_months, validation_window=args.validation_months
    )

    ids = [m.block.month_id for m in labeled]
    if len(ids) <= config.n_train:
        raise ConfigurationError(
            f"need more than {config.n_train} labeled months, have {len(ids)}"
        )
    default_start, default_end = (2005, 1), (2021, 10)
    if args.test_start:
        start = args.test_start
    elif default_start in ids and ids.index(default_start) >= config.n_train:
        start = default_start
    else:
        start = ids[config.n_train]
    if args.test_end:
        end = args.test_end
    elif default_end in ids and default_end >= start:
        end = default_end
    else:
        end = ids[-1]

    ledger = backtest.walk_forward_predict(
        labeled, start, end, args.method, config, rng_seed=args.seed
    )
    if args.out:
        backtest.write_ledger_csv(ledger, args.out)
    accuracy = backtest.accuracy_report(ledger)
    final = ledger.cumulative[-1]
    print(f"method={args.method} months={len(ledger.months)} "
          f"accuracy={accuracy:.4f} cumulative_return={final:.6f}")
    return 0


def _parse_params(parser, method: estimators.Method, text: str) -> dict:
    """``--params`` text checked against the method's declared parameters."""
    params: dict = {}
    for token in filter(None, (t.strip() for t in text.split(","))):
        if "=" not in token:
            parser.error(f"bad --params token {token!r}; expected key=value")
        key, value = token.split("=", 1)
        params[key.strip()] = value.strip()
    try:
        return method.resolve(params)
    except ParameterError as exc:
        parser.error(str(exc))


def _cmd_estimate(parser, args) -> int:
    method = estimators.METHODS[args.method]
    params = _parse_params(parser, method, args.params)
    rows: list[list[float]] = []
    for lineno, record in core.read_csv(args.train, "training file"):
        try:
            rows.append([float(v) for v in record])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if not rows:
        raise RadialError("empty training file")
    xs = [row[:-1] for row in rows]
    ys = [row[-1] for row in rows]
    data = core.Dataset.from_sequences(xs, ys)
    prof = core.profile(data, core.get_metric(args.metric), args.query)
    est = method.estimate(data, prof, args.query, **params)
    label = estimators.classify(est)
    note = " (degree reduced)" if est.diagnostics.fallback_applied else ""
    print(f"estimate={est.value:.4f} class={label} used_points={est.diagnostics.used_points}{note}")
    return 0


_COMMANDS = {
    "bench-synthetic": _cmd_bench,
    "rate": _cmd_rate,
    "zeta": _cmd_zeta,
    "backtest": _cmd_backtest,
    "estimate": _cmd_estimate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (RadialError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
