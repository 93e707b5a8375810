"""Benchmark harness for radial: workloads, tracer, per-layer metrics."""
