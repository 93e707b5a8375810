"""Which program bindings the traced run wraps, and the per-layer metrics
computed from what it recorded.

Every binding is named by the module (or class, or dict) its callers read it
from, because that is the name the call actually goes through: synthlab
calls its own imported ``fit_logistic``, the backtest its imported ``idtw``,
the CLI resolves ``idtw`` from ``core.METRICS``.
"""

from __future__ import annotations

import importlib

import numpy as np

from .tracer import Tracer

ESTIMATOR_KINDS = ("ks", "knn", "lpor", "lpolr", "msknn-poly", "msknn-logi", "lrr", "lrlr")
ESTIMATOR_FUNCTIONS = ("kernel_smoother", "knn", "lpor", "lpolr", "msknn", "lrr")
PROBED_METHODS = (
    "lrlr_winv", "lrlr_w1", "lpolr_h0.4", "lpor_h0.4", "msknn_logi", "logistic", "knn_k10",
)


def _observe_logistic(result, args, kwargs):
    _theta, converged, iterations = result
    features = args[0] if args else kwargs["features"]
    iterations = np.asarray(iterations).ravel()
    return {
        "problems": iterations.size,
        "rows": iterations.size * np.shape(features)[-2],
        "unconverged": int(np.count_nonzero(~np.asarray(converged, dtype=bool))),
        "iterations": iterations.copy(),
    }


def _observe_wls(result, args, kwargs):
    _theta, flag = result
    return {"problems": np.size(flag), "rank_deficient": int(np.count_nonzero(flag))}


def _observe_design(result, args, kwargs):
    return {"event_holds": int(bool(result.event_holds))}


def _observe_estimate(result, args, kwargs):
    diag = result.diagnostics
    return {"fallbacks": int(bool(diag.fallback_applied)), "unconverged": int(not diag.converged)}


def _spec_span(args) -> str:
    return f"estimators.{args[0].kind}"


# (owner, attribute, span name, observer); the owner is a dotted path of
# modules followed by attributes.
BINDINGS = [
    ("radial.localfit", "fit_logistic", "localfit.fit_logistic", _observe_logistic),
    ("radial.synthlab", "fit_logistic", "localfit.fit_logistic", _observe_logistic),
    ("radial.localfit", "solve_wls", "localfit.solve_wls", _observe_wls),
    ("radial.synthlab", "solve_wls", "localfit.solve_wls", _observe_wls),
    ("radial.theorylab", "solve_wls", "localfit.solve_wls", _observe_wls),
    ("radial.core", "profile", "core.profile", None),
    ("radial.core.Dataset", "from_arrays", "core.dataset_build", None),
    ("radial.core.Dataset", "from_sequences", "core.dataset_build", None),
    ("radial.backtest", "idtw", "core.idtw", None),
    ("radial.core.METRICS", "idtw", "core.idtw", None),
    ("radial.estimators.EstimatorSpec", "apply", _spec_span, None),
    *[("radial.estimators", fn, f"estimators.fn.{fn}", _observe_estimate)
      for fn in ESTIMATOR_FUNCTIONS],
    ("radial.theorylab", "design_state", "theorylab.design_state", _observe_design),
    ("radial.theorylab", "rate_experiment", "theorylab.rate_experiment", None),
    ("radial.theorylab", "zeta_concentration", "theorylab.zeta_concentration", None),
    ("radial.backtest", "ingest_csv", "backtest.ingest_csv", None),
    ("radial.backtest", "walk_forward_predict", "backtest.walk_forward_predict", None),
]

# Worker-thread fan-out; each mapped item becomes a "parallel.item" span.
PARALLEL_BINDINGS = [
    ("radial.synthlab", "indexed_map"),
    ("radial.theorylab", "indexed_map"),
]


def resolve(path: str):
    """The object at a dotted path such as ``radial.core.METRICS``, or None."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = obj.get(attr) if isinstance(obj, dict) else getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def wrap_parallel(tracer: Tracer) -> None:
    for path, attr in PARALLEL_BINDINGS:
        tracer.wrap(resolve(path), attr, "parallel.indexed_map",
                    item_name="parallel.item", where=f"{path}.{attr}")


def wrap_all(tracer: Tracer) -> None:
    wrap_parallel(tracer)
    for path, attr, span, observe in BINDINGS:
        tracer.wrap(resolve(path), attr, span, observe, where=f"{path}.{attr}")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

METRIC_UNITS = {
    "core.idtw.calls": "count",
    "core.idtw.us_per_call": "us",
    "backtest.dtw_s": "s",
    "backtest.dtw_share": "frac",
    "backtest.dtw_cache_hit_ratio": "frac",
    "localfit.fit_logistic.calls": "count",
    "localfit.fit_logistic.rows": "count",
    "localfit.fit_logistic.self_s": "s",
    "localfit.fit_logistic.iters_mean": "count",
    "localfit.fit_logistic.iters_p90": "count",
    "localfit.fit_logistic.iters_max": "count",
    "localfit.fit_logistic.unconverged": "count",
    "localfit.solve_wls.calls": "count",
    "localfit.solve_wls.self_s": "s",
    "localfit.solve_wls.rank_deficient": "count",
    "synthlab.draw_sort_ms": "ms",
    **{f"synthlab.method_ms.{m}": "ms" for m in PROBED_METHODS},
    "synthlab.skipped_methods": "count",
    "core.profile.calls": "count",
    "core.profile.ms_per_call": "ms",
    "core.dataset_build_s": "s",
    **{f"estimators.{k}.ms_per_call": "ms" for k in ESTIMATOR_KINDS},
    "estimators.fallbacks": "count",
    "estimators.unconverged": "count",
    "backtest.ingest_s": "s",
    "backtest.stage.tune_s": "s",
    "backtest.stage.predict_s": "s",
    "backtest.estimator_calls": "count",
    "backtest.estimator_s": "s",
    "theorylab.design_state.calls": "count",
    "theorylab.design_state.us_per_call": "us",
    "theorylab.guard_event_rate": "frac",
    "theorylab.rate_experiment_s": "s",
    "theorylab.zeta_s": "s",
    "parallel.items": "count",
    "parallel.workers": "count",
    "parallel.busy_s": "s",
    "parallel.utilization": "frac",
    "parallel.item_ms_p50": "ms",
    "parallel.item_ms_p90": "ms",
    "proc.cpu_util": "frac",
    "trace.overhead_frac": "frac",
}

SINGLE_THREAD_PREFIX = "t1."


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced run prints, in order."""
    names = list(METRIC_UNITS)
    return names + [SINGLE_THREAD_PREFIX + n for n in names]


def _per_call(total: float, calls: int, scale: float) -> float:
    return total / calls * scale if calls else 0.0


def layer_metrics(tracer: Tracer, extras: dict, probe_tracer: Tracer | None = None) -> dict[str, float]:
    """Per-layer values from one traced pass and the probe after it.

    ``extras`` carries what the workload measured outside the wrappers
    (backtest stage times and pairs requested, the synthlab method probe,
    process CPU time, tracing overhead). The theorylab layer is read from
    ``probe_tracer``, since only the synthetic probe runs it. A layer
    the workload does not exercise reports 0.
    """
    m: dict[str, float] = {}
    get = tracer.get

    idtw = get("core.idtw")
    walk = get("backtest.walk_forward_predict")
    m["core.idtw.calls"] = idtw.calls
    m["core.idtw.us_per_call"] = _per_call(idtw.total_s, idtw.calls, 1e6)
    m["backtest.dtw_s"] = idtw.total_s if walk.calls else 0.0
    m["backtest.dtw_share"] = idtw.total_s / walk.total_s if walk.total_s else 0.0
    requested = extras.get("pairs_requested", 0)
    m["backtest.dtw_cache_hit_ratio"] = 1.0 - idtw.calls / requested if requested else 0.0

    logi = get("localfit.fit_logistic")
    iters = logi.sample("iterations")
    m["localfit.fit_logistic.calls"] = logi.calls
    m["localfit.fit_logistic.rows"] = logi.counters.get("rows", 0)
    m["localfit.fit_logistic.self_s"] = logi.self_s
    m["localfit.fit_logistic.iters_mean"] = float(iters.mean()) if iters.size else 0.0
    m["localfit.fit_logistic.iters_p90"] = float(np.percentile(iters, 90)) if iters.size else 0.0
    m["localfit.fit_logistic.iters_max"] = float(iters.max()) if iters.size else 0.0
    m["localfit.fit_logistic.unconverged"] = logi.counters.get("unconverged", 0)
    wls = get("localfit.solve_wls")
    m["localfit.solve_wls.calls"] = wls.calls
    m["localfit.solve_wls.self_s"] = wls.self_s
    m["localfit.solve_wls.rank_deficient"] = wls.counters.get("rank_deficient", 0)

    probe = extras.get("probe", {})
    m["synthlab.draw_sort_ms"] = probe.get("draw_sort_ms", 0.0)
    for name in PROBED_METHODS:
        m[f"synthlab.method_ms.{name}"] = probe.get("method_ms", {}).get(name, 0.0)
    m["synthlab.skipped_methods"] = extras.get("skipped_methods", 0)

    prof = get("core.profile")
    m["core.profile.calls"] = prof.calls
    m["core.profile.ms_per_call"] = _per_call(prof.total_s, prof.calls, 1e3)
    m["core.dataset_build_s"] = get("core.dataset_build").total_s
    for kind in ESTIMATOR_KINDS:
        spec = get(f"estimators.{kind}")
        m[f"estimators.{kind}.ms_per_call"] = _per_call(spec.total_s, spec.calls, 1e3)
    fns = tracer.matching("estimators.fn.").values()
    m["estimators.fallbacks"] = sum(s.counters.get("fallbacks", 0) for s in fns)
    m["estimators.unconverged"] = sum(s.counters.get("unconverged", 0) for s in fns)

    m["backtest.ingest_s"] = get("backtest.ingest_csv").total_s
    m["backtest.stage.tune_s"] = extras.get("tune_s", 0.0)
    m["backtest.stage.predict_s"] = extras.get("predict_s", 0.0)
    m["backtest.estimator_calls"] = sum(s.calls for s in fns) if walk.calls else 0
    m["backtest.estimator_s"] = sum(s.total_s for s in fns) if walk.calls else 0.0

    theory = (probe_tracer or tracer).get
    design = theory("theorylab.design_state")
    m["theorylab.design_state.calls"] = design.calls
    m["theorylab.design_state.us_per_call"] = _per_call(design.total_s, design.calls, 1e6)
    m["theorylab.guard_event_rate"] = (
        design.counters.get("event_holds", 0) / design.calls if design.calls else 0.0
    )
    m["theorylab.rate_experiment_s"] = theory("theorylab.rate_experiment").total_s
    m["theorylab.zeta_s"] = theory("theorylab.zeta_concentration").total_s

    fan = get("parallel.indexed_map")
    item = get("parallel.item")
    workers = int(fan.sample("workers").max(initial=0))
    m["parallel.items"] = item.calls
    m["parallel.workers"] = workers
    m["parallel.busy_s"] = item.total_s
    m["parallel.utilization"] = item.total_s / (fan.total_s * workers) if fan.total_s else 0.0
    durations = np.asarray(item.durations)
    m["parallel.item_ms_p50"] = float(np.percentile(durations, 50)) * 1e3 if durations.size else 0.0
    m["parallel.item_ms_p90"] = float(np.percentile(durations, 90)) * 1e3 if durations.size else 0.0

    m["proc.cpu_util"] = extras.get("cpu_util", 0.0)
    m["trace.overhead_frac"] = extras.get("overhead_frac", 0.0)
    return {k: float(v) for k, v in m.items()}


def iteration_histogram(iterations: np.ndarray) -> dict[str, int]:
    values, counts = np.unique(np.asarray(iterations, dtype=np.int64), return_counts=True)
    return {str(int(v)): int(c) for v, c in zip(values, counts)}
