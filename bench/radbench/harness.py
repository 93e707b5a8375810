"""Run one workload: set-up, timed phases, checks, and the result.

An untraced run (``trace=False``) measures the end-to-end metrics: set-up
time, throughput at the default thread count and at ``RADIAL_THREADS=1``
(alternating, ``seconds`` in all, after an untimed warm-up), item latency
at the default thread count, and peak memory. A traced run does a fixed
amount of work per thread count, once plain and once with every layer
binding wrapped, so that its counts repeat exactly; it reports the
per-layer metrics and the tracing overhead.

Both runs check every unit's outputs, check that each unit gives identical
outputs at both thread counts, and compare a reference input's outputs with
the ones recorded in ``references.json``.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import envinfo, layers
from .checks import Checks
from .tracer import Tracer
from .workloads import Unit, Workload

END_TO_END_UNITS = {
    "throughput": "items/s",
    "throughput_1t": "items/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 7
# A run stops after this many seconds of work even if it has fewer items
# than it wants, so that it always ends within its time limit.
RUN_CAP_S = 100.0


@dataclass
class Phase:
    """Items measured at one thread count."""

    items: int = 0
    busy_s: float = 0.0
    item_times: list[float] = field(default_factory=list)
    unit_items: list[int] = field(default_factory=list)
    unit_seconds: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def add(self, item_times: list[float], seconds: float) -> None:
        self.items += len(item_times)
        self.busy_s += seconds
        self.item_times += item_times
        self.unit_items.append(len(item_times))
        self.unit_seconds.append(seconds)


def set_threads(n: int) -> None:
    os.environ["RADIAL_THREADS"] = str(n)


def import_seconds(modules: tuple[str, ...], src: Path) -> float:
    """Time to import ``modules`` in a fresh interpreter, as a CLI user pays it."""
    code = ("import time; t = time.perf_counter(); "
            + "; ".join(f"import {m}" for m in modules)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(wl: Workload, src: Path, repeats: int) -> list[float]:
    """Seconds of import plus input preparation, once per repeat."""
    times = []
    for _ in range(repeats):
        imported = import_seconds(wl.modules, src)
        t0 = time.perf_counter()
        wl.prepare()
        times.append(imported + time.perf_counter() - t0)
    return times


def run_phases(wl: Workload, checks: Checks, seconds: float) -> tuple[Phase, Phase]:
    """Work alternately at the default thread count and at one thread.

    Units 0, 1, ... run once at each thread count, alternating; a workload
    that uses no worker threads (``wl.alternates_items``) instead alternates
    the thread setting item by item inside each unit. Either way both phases
    spread over the whole run, so a drift in machine speed moves them alike.
    The run ends after a whole round of two units, so that both phases get
    the same work: on the backtest each of the two walks starts in another
    phase, and a walk's first month, which fills the distance cache, costs
    about twenty ordinary months. It ends after the first round after which
    another round would take it past ``seconds`` of unit time, once the
    default phase has ``wl.min_items`` items. Checks run between units,
    untimed.
    """
    phases = (Phase(), Phase())
    threads = (envinfo.nproc(), 1)
    set_threads(threads[0])
    wl.warm_up()
    with Tracer() as tracer:
        if wl.uses_threads:
            layers.wrap_parallel(tracer)
        seen = 0
        busy = 0.0
        for step in itertools.count(1):
            p, k = (0, step - 1) if wl.alternates_items else ((step - 1) % 2, (step - 1) // 2)
            set_threads(threads[p])
            t0 = time.perf_counter()
            unit = wl.run_unit(k)
            unit.seconds = time.perf_counter() - t0
            busy += unit.seconds
            if unit.item_times is None:
                durations = tracer.get("parallel.item").durations
                unit.item_times, seen = durations[seen:], len(durations)
            wl.check_unit(unit, checks)
            if unit.item_phases is None:
                phases[p].add(unit.item_times, unit.seconds)
                phases[p].outputs.append(unit.output)
            else:
                for q, phase in enumerate(phases):
                    times = [t for t, ph in zip(unit.item_times, unit.item_phases) if ph == q]
                    phase.add(times, sum(times))
            if busy > RUN_CAP_S:
                break
            done = step % 2 == 0 and phases[0].items >= wl.min_items
            if done and busy + 2 * busy / step > seconds:
                break
    return phases


def check_same(wl: Workload, checks: Checks, a: list, b: list, what: str) -> None:
    for k, (oa, ob) in enumerate(zip(a, b)):
        checks.check(oa == ob, f"{wl.name} unit {k}: {what}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl: Workload, seconds: float, src: Path, checks: Checks, setup_repeats: int):
    setup = measure_setup(wl, src, setup_repeats)
    default, single = run_phases(wl, checks, seconds)
    check_same(wl, checks, default.outputs, single.outputs, "outputs differ between thread counts")
    wl.check_reference(checks)

    item_ms = np.asarray(default.item_times) * 1e3
    metrics = {
        "throughput": default.items / default.busy_s,
        "throughput_1t": single.items / single.busy_s,
        "item_ms_p50": float(np.percentile(item_ms, 50)),
        "item_ms_p90": float(np.percentile(item_ms, 90)),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    report = {
        "setup_s": setup,
        "phases": {
            name: {"items": p.items, "busy_s": p.busy_s,
                   "unit_items": p.unit_items, "unit_seconds": p.unit_seconds}
            for name, p in (("default", default), ("single", single))
        },
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, report


def _fixed_pass(wl: Workload, checks: Checks) -> tuple[float, list[Unit]]:
    """Prepare and run the traced run's fixed units; seconds exclude checks."""
    t0 = time.perf_counter()
    wl.prepare()
    busy = time.perf_counter() - t0
    units = []
    for k in range(wl.trace_units):
        t0 = time.perf_counter()
        units.append(wl.trace_unit(k))
        busy += time.perf_counter() - t0
        wl.check_unit(units[-1], checks)
    return busy, units


def run_traced(wl: Workload, checks: Checks):
    """Per thread count: plain, traced, plain, traced passes of fixed work.

    Layer metrics come from the last traced pass; the tracing overhead
    compares the faster of the two traced passes with the faster plain one,
    which keeps a one-off stall from posing as overhead.
    """
    metrics: dict[str, tuple[float, str]] = {}
    report: dict = {}
    outputs: dict[str, list[Unit]] = {}
    for threads, prefix in ((envinfo.nproc(), ""), (1, layers.SINGLE_THREAD_PREFIX)):
        set_threads(threads)
        plain_s, traced_s = [], []
        for _ in range(2):
            seconds, plain = _fixed_pass(wl, checks)
            plain_s.append(seconds)
            with Tracer() as tracer:
                layers.wrap_all(tracer)
                cpu0, t0 = time.process_time(), time.perf_counter()
                seconds, traced = _fixed_pass(wl, checks)
                cpu_util = (time.process_time() - cpu0) / ((time.perf_counter() - t0) * envinfo.nproc())
                traced_s.append(seconds)
            check_same(wl, checks, [u.output for u in plain], [u.output for u in traced],
                       "tracing changed the outputs")
        with Tracer() as probe_tracer:
            layers.wrap_all(probe_tracer)
            probe = wl.probe(probe_tracer)
        outputs[prefix] = traced

        extras = wl.extras(traced)
        extras.update(probe=probe, cpu_util=cpu_util, overhead_frac=min(traced_s) / min(plain_s) - 1.0)
        for name, value in layers.layer_metrics(tracer, extras, probe_tracer).items():
            metrics[prefix + name] = (value, layers.METRIC_UNITS[name])
        report[f"threads={threads}"] = {
            "plain_s": plain_s,
            "traced_s": traced_s,
            "extras": {k: v for k, v in extras.items() if k != "probe"},
            "probe": probe,
            "absent": tracer.absent,
            "unreadable": tracer.unreadable,
            "spans": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
                       "self_s_by_thread": s.self_by_thread, "counters": s.counters}
                for name, s in sorted(tracer.stats.items())
            },
            "fit_logistic_iterations": layers.iteration_histogram(
                tracer.get("localfit.fit_logistic").sample("iterations")),
        }
    check_same(wl, checks, [u.output for u in outputs[""]],
               [u.output for u in outputs[layers.SINGLE_THREAD_PREFIX]],
               "outputs differ between thread counts")
    wl.check_reference(checks)
    return metrics, report


def run(wl: Workload, seconds: float, trace: bool, src: Path, setup_repeats: int = SETUP_REPEATS):
    """Returns (result line, full report)."""
    checks = Checks()
    saved = os.environ.get("RADIAL_THREADS")
    try:
        if trace:
            metrics, report = run_traced(wl, checks)
        else:
            metrics, report = run_untraced(wl, seconds, src, checks, setup_repeats)
    finally:
        if saved is None:
            os.environ.pop("RADIAL_THREADS", None)
        else:
            os.environ["RADIAL_THREADS"] = saved
    report.update(
        workload=wl.name,
        seed=wl.seed,
        trace=trace,
        env=envinfo.record(),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        checks={"attempted": checks.attempted, "failed": checks.failed,
                "error_rate": checks.error_rate, "failures": checks.failures[:20]},
    )
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": report["metrics"],
    }
    return result, report
