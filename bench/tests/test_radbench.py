"""Tests of the benchmark itself: workloads at tiny sizes, the tracer's
bindings and thread safety, the reference checks, and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

from radbench import harness, layers  # noqa: E402
from radbench.checks import Checks  # noqa: E402
from radbench.tracer import Tracer, _read  # noqa: E402
from radbench.workloads import WORKLOADS  # noqa: E402

REFS = json.loads((BENCH / "references.json").read_text())


def make(name, tmp_path, refs=None, seed=3):
    return WORKLOADS[name](seed, refs or REFS, tmp_path, tiny=True)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(name, trace, tmp_path, monkeypatch):
    monkeypatch.delenv("RADIAL_THREADS", raising=False)
    result, report = harness.run(make(name, tmp_path), 0.2, trace, SRC, setup_repeats=1)
    assert result["correct"], report["checks"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = layers.per_layer_names() if trace else list(harness.END_TO_END_UNITS)
    assert list(result["metrics"]) == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    assert "RADIAL_THREADS" not in __import__("os").environ
    assert report["env"]["nproc"] >= 1
    if not trace:
        # Runs end after whole rounds: both phases got the same units.
        phases = report["phases"]
        assert len(phases["default"]["unit_items"]) == len(phases["single"]["unit_items"])


def _bindings():
    out = [(layers.resolve(p), a) for p, a in layers.PARALLEL_BINDINGS]
    return out + [(layers.resolve(p), a) for p, a, _s, _o in layers.BINDINGS]


def test_tracer_restores_every_binding():
    before = [_read(owner, attr) for owner, attr in _bindings()]
    with Tracer() as tracer:
        layers.wrap_all(tracer)
        assert tracer.absent == []
        during = [_read(owner, attr) for owner, attr in _bindings()]
        assert all(d is not b for d, b in zip(during, before))
    after = [_read(owner, attr) for owner, attr in _bindings()]
    assert all(a is b for a, b in zip(after, before))


def test_tracer_restores_after_an_exception():
    import radial.core as core

    original = vars(core.Dataset)["from_arrays"]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.wrap_all(tracer)
            raise RuntimeError("boom")
    assert vars(core.Dataset)["from_arrays"] is original


def test_missing_binding_is_reported_absent():
    tracer = Tracer()
    owner = types.SimpleNamespace()
    assert not tracer.wrap(owner, "removed", "gone", where="ns.removed")
    assert not tracer.wrap(None, "anything", "gone", where="missing.module.anything")
    assert tracer.absent == ["ns.removed", "missing.module.anything"]
    metrics = layers.layer_metrics(tracer, {})
    assert list(metrics) == list(layers.METRIC_UNITS)
    assert all(v == 0.0 for v in metrics.values())


def test_unreadable_result_is_reported_not_raised():
    owner = types.SimpleNamespace(fit=lambda: "not a tuple")
    with Tracer() as tracer:
        tracer.wrap(owner, "fit", "fit", layers._observe_logistic)
        assert owner.fit() == "not a tuple"
    assert "fit" in tracer.unreadable
    assert tracer.get("fit").calls == 1


def test_tracer_is_thread_safe_and_self_time_is_per_thread():
    def inner():
        return sum(range(50))

    owner = types.SimpleNamespace(inner=inner)
    owner.outer = lambda: owner.inner() + owner.inner()
    threads, calls = 6, 400
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer() as tracer:
            tracer.wrap(owner, "inner", "inner")
            tracer.wrap(owner, "outer", "outer")
            workers = [threading.Thread(target=lambda: [owner.outer() for _ in range(calls)])
                       for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
    outer, inner_stats = tracer.get("outer"), tracer.get("inner")
    assert outer.calls == threads * calls
    assert inner_stats.calls == 2 * threads * calls
    assert len(outer.self_by_thread) == threads
    assert 0 <= outer.self_s <= outer.total_s
    assert outer.self_s == pytest.approx(outer.total_s - inner_stats.total_s, abs=1e-6)


@pytest.mark.parametrize("group", ["theory", "synthetic"])
def test_perturbed_reference_drives_error_rate_above_zero(group, tmp_path):
    clean = Checks()
    make("synthetic", tmp_path).check_reference(clean)
    assert clean.attempted > 0 and clean.error_rate == 0.0

    refs = json.loads(json.dumps(REFS))
    first = next(iter(refs[group]["records"].values()))[0]
    first[-2] = first[-2] * (1 + 1e-6) + 1e-6
    perturbed = Checks()
    make("synthetic", tmp_path, refs).check_reference(perturbed)
    assert perturbed.error_rate > 0.0


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
