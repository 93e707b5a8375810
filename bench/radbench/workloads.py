"""The three workloads, their seeded inputs, and the checks on their outputs.

Each workload calls the public functions a user of the CLI or the library
calls, on inputs drawn from the workload seed; the program sees only those
inputs. Work is cut into units (one ``run_unit`` call) made of items (the
thing a throughput counts). Unit ``k`` depends only on the seed and ``k``, so
a unit re-run at another thread count must give identical outputs.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from radial import backtest, core, estimators, synthlab, theorylab

from . import envinfo, layers
from .checks import Checks, close

# Seed of the inputs whose outputs were recorded as references.
REFERENCE_SEED = 20211227
# Unit numbers from here on are warm-up units, which no timed unit uses.
WARM_UP_UNIT = 1_000_000


def unit_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a unit path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Unit:
    items: int
    output: Any
    # Seconds per item; None means "read them from the indexed_map spans".
    item_times: list[float] | None = None
    extra: dict = field(default_factory=dict)
    # Wall time of the run_unit call, set by the harness.
    seconds: float = 0.0
    # Per item, 0 if it ran at the default thread count and 1 if at one
    # thread; None when the whole unit ran at the harness's setting.
    item_phases: list[int] | None = None


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class Workload:
    name = ""
    modules: tuple[str, ...] = ()
    # indexed_map fan-out: items are timed from its spans.
    uses_threads = False
    # No worker threads at all: one run_unit call alternates the thread
    # setting between items and feeds both phases.
    alternates_items = False
    # Items the default-thread phase must reach, so that a p90 has ten
    # samples beyond it.
    min_items = 1
    trace_units = 1

    def __init__(self, seed: int, refs: dict, outdir: Path, tiny: bool = False):
        self.seed = seed
        self.refs = refs
        self.outdir = outdir
        self.tiny = tiny

    def prepare(self) -> None:
        """Input preparation; timed as part of set-up."""

    def run_unit(self, k: int) -> Unit:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the timed units, so that first calls (lazy
        imports, first use of the thread pool) are not timed."""
        self.run_unit(WARM_UP_UNIT)

    def trace_unit(self, k: int) -> Unit:
        """A unit of the traced run's fixed work."""
        return self.run_unit(k)

    def check_unit(self, unit: Unit, checks: Checks) -> None:
        raise NotImplementedError

    def reference_outputs(self) -> dict:
        """Outputs at the reference seed, by group, as stored in references.json."""
        raise NotImplementedError

    def check_reference(self, checks: Checks) -> None:
        for group, fresh in self.reference_outputs().items():
            ref = self.refs[group]
            for key, records in ref["records"].items():
                got = fresh.get(key)
                for i, want in enumerate(records):
                    ok = got is not None and i < len(got) and close(got[i], want, **ref["tolerance"])
                    checks.check(ok, f"{group} reference {key}[{i}] differs")
                checks.check(got is not None and len(got) == len(records),
                             f"{group} reference {key} has {len(got or [])} records, want {len(records)}")

    def extras(self, units: list[Unit]) -> dict:
        """Layer values measured outside the wrappers, for the traced run."""
        return {}

    def probe(self, tracer) -> dict:
        """Extra traced measurements after the fixed work (synthetic only)."""
        return {}


# ---------------------------------------------------------------------------
# synthetic: the concordance benchmark, one trial per item
# ---------------------------------------------------------------------------


# The theory experiments: the CLI's ``rate`` defaults (beta=2, d=1) and the
# ``zeta`` window sizes. Their thousands of sub-millisecond cells, fanned out
# to worker threads, time the scheduler more than the program, so they are
# not a workload of their own: the traced synthetic run times them once per
# thread count, and every synthetic run checks their outputs.
RATE_SIZES = (200, 400, 800, 1600, 3200, 6400, 12800)
ZETA_SIZES = (10, 100, 2000)


def theory_outputs(sizes, reps: int, zeta_sizes, zeta_reps: int, rng_seed: int) -> dict:
    """``rate_experiment`` then ``zeta_concentration``, as lists."""
    report = theorylab.rate_experiment(2.0, 1, sizes, reps=reps, rng_seed=rng_seed)
    rows = theorylab.zeta_concentration(2, 1.0, zeta_sizes, reps=zeta_reps, rng_seed=rng_seed)
    return {
        "rate": [[n, r, s] for n, r, s in zip(report.sample_sizes, report.risks, report.risk_ses)],
        "slope": [[report.fitted_slope]],
        "zeta": [[r.n_points, r.ratio_mean, r.ratio_sd] for r in rows],
    }


class Synthetic(Workload):
    name = "synthetic"
    modules = ("radial.synthlab",)
    uses_threads = True

    def __init__(self, seed, refs, outdir, tiny=False):
        super().__init__(seed, refs, outdir, tiny)
        self.reps = 2
        self.sizes = {"n_train": 300, "n_test": 30} if tiny else {}
        self.probe_trials = 1 if tiny else 2
        self.trace_units = 1 if tiny else 2
        self.theory = ((50, 100, 200), 20, (10, 100), 20) if tiny else (RATE_SIZES, 300, ZETA_SIZES, 200)

    def config(self, reps: int, rng_seed: int) -> "synthlab.SyntheticConfig":
        return synthlab.SyntheticConfig(reps=reps, rng_seed=rng_seed, **self.sizes)

    def run_unit(self, k):
        rows = synthlab.run_benchmark(self.config(self.reps, unit_seed(self.seed, k)))
        path = self.outdir / f"synthetic-{k}.csv"
        synthlab.write_benchmark_csv(rows, path)
        out = [[r.method, r.criterion, r.mean, r.se, r.reps, r.seed] for r in rows]
        return Unit(items=self.reps, output=out, extra={"csv": path})

    def check_unit(self, unit, checks):
        rows = unit.output
        names = [m.name for m in synthlab.default_method_suite()]
        expected = [[n, c] for n in names for c in ("labels", "bayes")]
        checks.check([r[:2] for r in rows] == expected, "synthetic rows do not cover the suite")
        checks.check(all(r[4] == self.reps for r in rows), "synthetic method skipped in a trial")
        checks.check(all(0.0 <= r[2] <= 1.0 and 0.0 <= r[3] < 1.0 for r in rows),
                     "synthetic concordance outside [0, 1]")
        written = _read_csv(unit.extra["csv"])[1:]
        parsed = [[m, c, float(mean), float(se), int(reps), int(seed)]
                  for m, c, mean, se, reps, seed in written]
        checks.check(parsed == rows, "synthetic CSV does not round-trip the rows")

    def reference_outputs(self):
        rows = synthlab.run_benchmark(synthlab.SyntheticConfig(reps=2, rng_seed=REFERENCE_SEED))
        return {
            "synthetic": {"rows": [[r.method, r.criterion, r.mean, r.se, r.reps] for r in rows]},
            "theory": theory_outputs(RATE_SIZES, 100, ZETA_SIZES, 200, REFERENCE_SEED),
        }

    def check_reference(self, checks):
        super().check_reference(checks)
        sizes, _reps, zeta_sizes, zeta_reps = self.theory
        outs = []
        for threads in (envinfo.nproc(), 1):
            os.environ["RADIAL_THREADS"] = str(threads)
            outs.append(theory_outputs(sizes, 50, zeta_sizes, zeta_reps, unit_seed(self.seed, 2_000_000)))
        checks.check(outs[0] == outs[1], "theory outputs differ between thread counts")

    def probe(self, tracer) -> dict:
        """One ``trial_estimates(..., methods=[m])`` per method, per trial,
        then one run of the theory experiments.

        ``draw_sort_ms`` times the same call with a 1-NN method, which is the
        draw, the distance matrix and the sort with no fit after them.
        Reports per-method medians over trials and each method's Newton
        iteration histogram; the theorylab metrics come from the tracer.
        """
        suite = {m.name: m for m in synthlab.default_method_suite()}
        probes = [("draw_sort", synthlab.BenchMethod("knn_k1", "knn", {"k": 1}))]
        probes += [(name, suite[name]) for name in layers.PROBED_METHODS]
        config = self.config(1, 0)
        times: dict[str, list[float]] = {key: [] for key, _ in probes}
        iterations: dict[str, list[np.ndarray]] = {key: [] for key, _ in probes}
        for trial in range(self.probe_trials):
            for key, method in probes:
                rng = np.random.default_rng(unit_seed(self.seed, 1_000_000, trial))
                before = len(tracer.get("localfit.fit_logistic").samples.get("iterations", []))
                t0 = time.perf_counter()
                synthlab.trial_estimates(config, rng, [method])
                times[key].append(time.perf_counter() - t0)
                parts = tracer.get("localfit.fit_logistic").samples.get("iterations", [])
                iterations[key].extend(parts[before:])
        sizes, reps, zeta_sizes, zeta_reps = self.theory
        theory = theory_outputs(sizes, reps, zeta_sizes, zeta_reps, unit_seed(self.seed, 3_000_000))
        return {
            "theory": theory,
            "draw_sort_ms": float(np.median(times.pop("draw_sort"))) * 1e3,
            "method_ms": {k: float(np.median(v)) * 1e3 for k, v in times.items()},
            "newton_iterations": {
                k: layers.iteration_histogram(np.concatenate(v)) for k, v in iterations.items() if v
            },
        }

    def extras(self, units):
        skipped = sum(self.reps - r[4] for u in units for r in u.output if r[1] == "labels")
        return {"skipped_methods": skipped}


# ---------------------------------------------------------------------------
# backtest: walk-forward DTW backtest, one test month per item
# ---------------------------------------------------------------------------


class Backtest(Workload):
    name = "backtest"
    modules = ("radial.backtest",)
    method = "msknn-logi"
    alternates_items = True

    def __init__(self, seed, refs, outdir, tiny=False):
        super().__init__(seed, refs, outdir, tiny)
        # Test months a round of two walks covers: all of them, or the
        # first few at the tiny size.
        self.months = 8 if tiny else None
        self.trace_window = 2 if tiny else 24
        self.min_items = 2 if tiny else 100
        # The references hold the default configuration's ledger; the tiny
        # one only exists to keep the benchmark's own tests fast.
        self.sizes = ({"n_train": 36, "validation_window": 12, "msknn_kmax_grid": (10, 20)}
                      if tiny else {})

    def prepare(self):
        series = backtest.ingest_csv(backtest.bundled_fixture_path())
        self.labeled = backtest.label_months(backtest.segment_months(series))
        self.config = backtest.WalkForwardConfig(**self.sizes)
        self.ids = [m.block.month_id for m in self.labeled]

    def window_bounds(self, k: int, length: int) -> tuple[int, int]:
        """A seeded window of ``length`` test months."""
        first, last = self.config.n_train, len(self.labeled) - 1
        rng = np.random.default_rng(unit_seed(self.seed, k))
        start = int(rng.integers(first, last - length + 2))
        return start, start + length - 1

    def phase(self, t: int) -> int:
        """0 (default thread count) for even test months, 1 for odd ones."""
        return (t - self.config.n_train) % 2

    def round_bounds(self, k: int) -> tuple[int, int]:
        """Walk ``k``: the two walks of a round split the test months at a
        seeded cut, so every round predicts each month once and does the
        same work whatever the seed. The cut is an odd month, so that each
        phase gets one first month (which fills the distance cache)."""
        first, last = self.config.n_train, len(self.labeled) - 1
        if self.months:
            last = first + self.months - 1
        quarter = (last - first + 1) // 4
        rng = np.random.default_rng(unit_seed(self.seed, k // 2))
        cut = first + 2 * int(rng.integers(quarter // 2, (last - first + 1 - quarter) // 2)) + 1
        return (first, cut - 1) if k % 2 == 0 else (cut, last)

    def run_unit(self, k, length=None, alternate=True):
        """One walk: walk ``k`` of a round, or a seeded window of ``length``
        months. With ``alternate``, each month runs at its phase's thread
        setting, so each phase gets the same months in every run."""
        start, end = self.window_bounds(k, length) if length else self.round_bounds(k)
        stamps: list[tuple[str, int, float]] = []
        threads = (str(envinfo.nproc()), "1")

        def hook(stage, t):
            if alternate and stage == "tune":
                os.environ["RADIAL_THREADS"] = threads[self.phase(t)]
            stamps.append((stage, t, time.perf_counter()))

        ledger = backtest.walk_forward_predict(
            self.labeled, self.ids[start], self.ids[end], self.method, self.config,
            rng_seed=self.seed, phase_hook=hook,
        )
        done = time.perf_counter()
        path = self.outdir / f"backtest-{k}.csv"
        backtest.write_ledger_csv(ledger, path)

        # An item runs from the first stage of its month to the first stage
        # of the next one (or the end of the walk).
        firsts = {}
        for stage, t, ts in stamps:
            firsts.setdefault(t, ts)
        bounds = list(firsts.values()) + [done]
        at = {(stage, t): ts for stage, t, ts in stamps}
        tune_s = sum(at[("query", t)] - at[("tune", t)] for t in firsts if ("tune", t) in at)
        predict_s = sum(at[("score", t)] - at[("predict", t)] for t in firsts)
        per_month = self.config.validation_window * (self.config.n_train - self.config.validation_window)
        per_month += self.config.n_train
        out = [list(ledger.months), list(ledger.predictions), list(ledger.labels),
               list(ledger.chosen_params), list(ledger.returns), list(ledger.cumulative)]
        return Unit(
            items=len(ledger.months),
            output=out,
            item_times=list(np.diff(bounds)),
            item_phases=[self.phase(t) for t in firsts] if alternate else None,
            extra={"csv": path, "span": (start, end), "tune_s": tune_s, "predict_s": predict_s,
                   "pairs_requested": per_month * len(ledger.months)},
        )

    def trace_unit(self, k):
        return self.run_unit(k, self.trace_window, alternate=False)

    def warm_up(self):
        self.run_unit(WARM_UP_UNIT, 2, alternate=False)

    def check_unit(self, unit, checks):
        months, preds, labels, chosen, returns, cumulative = unit.output
        start, end = unit.extra["span"]
        checks.check([tuple(m) for m in months] == self.ids[start:end + 1],
                     "backtest ledger months differ from the window")
        tol = self.refs["backtest"]["tolerance"]
        ref = self.refs["backtest"]["records"]["months"]
        for month, pred, label, param, ret in zip(months, preds, labels, chosen, returns):
            key = f"{month[0]:04d}-{month[1]:02d}"
            want = ref.get(key)
            checks.check(self.tiny or (want is not None and close([pred, label, param, ret], want, **tol)),
                         f"backtest month {key} differs from its reference")
        checks.check(close(list(np.cumprod(returns)), cumulative, **tol),
                     "backtest cumulative return is not the product of the returns")
        written = _read_csv(unit.extra["csv"])[1:]
        parsed = [[int(p), int(y), None if c == "" else int(c), float(r), float(cum)]
                  for _m, p, y, c, r, cum in written]
        checks.check(parsed == [list(t) for t in zip(preds, labels, chosen, returns, cumulative)],
                     "backtest ledger CSV does not round-trip")

    def check_reference(self, checks):
        # Predictions for a month do not depend on where the walk started,
        # so check_unit compares every month against the stored ledger.
        pass

    def reference_outputs(self):
        self.prepare()
        first, last = self.config.n_train, len(self.labeled) - 1
        ledger = backtest.walk_forward_predict(
            self.labeled, self.ids[first], self.ids[last], self.method, self.config
        )
        return {"backtest": {"months": {
            f"{m[0]:04d}-{m[1]:02d}": [p, y, c, r]
            for m, p, y, c, r in zip(ledger.months, ledger.predictions, ledger.labels,
                                     ledger.chosen_params, ledger.returns)
        }}}

    def extras(self, units):
        return {key: sum(u.extra[key] for u in units)
                for key in ("tune_s", "predict_s", "pairs_requested")}


# ---------------------------------------------------------------------------
# query: one profile and every estimator kind per query
# ---------------------------------------------------------------------------

SPECS = (
    ("ks", {"h": 0.4}),
    ("knn", {"k": 50}),
    ("lpor", {"h": 0.4, "q": 2}),
    ("lpolr", {"h": 0.4, "q": 2}),
    ("msknn-poly", {"k_vec": (10, 20, 30, 40, 50), "q": 2}),
    ("msknn-logi", {"k_vec": (10, 20, 30, 40, 50), "q": 2}),
    ("lrr", {"q": 2}),
    ("lrlr", {"q": 2, "weight": "inverse_r"}),
)
# Variable-length series have no coordinates, so the local polynomial
# kinds (lpor, lpolr) do not apply to them.
RAGGED_SPECS = (
    ("ks", {"h": 0.25}),
    ("knn", {"k": 15}),
    ("msknn-poly", {"k_vec": (5, 10, 15, 20, 25), "q": 2}),
    ("msknn-logi", {"k_vec": (5, 10, 15, 20, 25), "q": 2}),
    ("lrr", {"q": 2}),
    ("lrlr", {"q": 2, "weight": "inverse_r"}),
)


class Query(Workload):
    name = "query"
    modules = ("radial",)
    # Every ragged_every-th query is a variable-length series under idtw.
    ragged_every = 10

    def __init__(self, seed, refs, outdir, tiny=False):
        super().__init__(seed, refs, outdir, tiny)
        self.n = 2_000 if tiny else 20_000
        self.n_series = 40 if tiny else 120
        self.min_items = 10 if tiny else 100
        self.trace_units = 10 if tiny else 40

    def _series(self, rng, count: int):
        lengths = rng.integers(15, 24, size=count)
        return [100.0 * np.exp(np.cumsum(rng.normal(2e-4, 1e-2, size=int(m)))) for m in lengths]

    def prepare(self):
        rng = np.random.default_rng(unit_seed(self.seed, 0))
        X = rng.uniform(-1.0, 1.0, size=(self.n, 3))
        y = (rng.random(self.n) < synthlab.eta_true(X)).astype(np.int64)
        self.X, self.y = X, y
        self.data = core.Dataset.from_arrays(X, y)
        series = self._series(rng, self.n_series)
        labels = np.array([int(s[-1] > s[0]) for s in series])
        self.ragged = core.Dataset.from_sequences(series, labels)
        self.specs = [estimators.EstimatorSpec(k, p) for k, p in SPECS]
        self.ragged_specs = [estimators.EstimatorSpec(k, p) for k, p in RAGGED_SPECS]

    def warm_up(self):
        for k in range(WARM_UP_UNIT, WARM_UP_UNIT + self.ragged_every):
            self.run_unit(k)

    def run_unit(self, k):
        rng = np.random.default_rng(unit_seed(self.seed, 1, k))
        ragged = k % self.ragged_every == self.ragged_every - 1
        if ragged:
            query = self._series(rng, 1)[0]
            data, metric, specs = self.ragged, core.get_metric("idtw"), self.ragged_specs
        else:
            query = rng.uniform(-0.7, 0.7, size=3)
            data, metric, specs = self.data, core.euclidean, self.specs
        t0 = time.perf_counter()
        prof = core.profile(data, metric, query)
        values = [spec.apply(data, prof, query).value for spec in specs]
        classes = [estimators.classify(v) for v in values]
        elapsed = time.perf_counter() - t0
        return Unit(items=1, output=[values, classes], item_times=[elapsed],
                    extra={"query": query, "ragged": ragged})

    def check_unit(self, unit, checks):
        values, classes = unit.output
        checks.check(all(np.isfinite(values)), "query estimate not finite")
        checks.check(classes == [int(v >= 0.5) for v in values], "query class is not the 1/2 threshold")
        if unit.extra["ragged"]:
            return
        # k-NN and the kernel smoother against a brute-force oracle.
        dist = np.linalg.norm(self.X - unit.extra["query"][None, :], axis=1)
        order = np.argsort(dist, kind="stable")
        knn = float(self.y[order[:SPECS[1][1]["k"]]].mean())
        ks = float(self.y[dist <= SPECS[0][1]["h"]].mean())
        checks.check(values[1] == knn and values[0] == ks, "query k-NN or smoother disagrees with oracle")

    def reference_outputs(self):
        ref = Query(REFERENCE_SEED, self.refs, self.outdir)
        ref.prepare()
        return {"query": {"queries": [ref.run_unit(k).output for k in range(20)]}}


WORKLOADS = {w.name: w for w in (Synthetic, Backtest, Query)}
