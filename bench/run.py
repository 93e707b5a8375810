"""Benchmark for radial: three workloads, end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload synthetic --seed 0 --seconds 26 --trace 0

Workloads (see radbench/workloads.py):
  synthetic  run_benchmark + write_benchmark_csv on the 12-method suite; item = trial
             (its traced run also times rate_experiment and zeta_concentration)
  backtest   ingest, walk_forward_predict (msknn-logi, idtw) + ledger CSV; item = month
  query      Dataset.from_arrays, then profile + all 8 estimator kinds; item = query
  all        each of the above in its own process, one after the other

The program is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count output checks, ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics at both thread counts
(``--trace 1``). ``--report PATH`` writes the full report, with the
environment record, as JSON.
"""

import os
import sys

# Fixed before numpy loads its BLAS: one BLAS thread per worker thread keeps
# worker threads x BLAS threads <= nproc at every RADIAL_THREADS setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("synthetic", "backtest", "query")


def import_program() -> None:
    """Import radial from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import radial
    except ImportError as exc:
        sys.exit(f"error: cannot import radial from {SRC}: {exc}")
    if Path(radial.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: radial was imported from {radial.__file__}, not from {SRC}")


def print_result(result: dict, report: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    checks = report["checks"]
    print(f"error_rate = {checks['error_rate']:.6g} ({checks['failed']} of {checks['attempted']} checks)")
    for failure in checks["failures"]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(report["env"]))
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    """Each workload in a child process; metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(f"# {name}\n{done.stdout}")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="write the full JSON report here")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    if args.workload == "all":
        return run_all(args)

    from radbench import harness
    from radbench.workloads import WORKLOADS

    refs = json.loads((HERE / "references.json").read_text())
    outdir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, refs, outdir)
        result, report = harness.run(workload, args.seconds, bool(args.trace), SRC)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:  # another run still writes there
            pass
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1) + "\n")
    print_result(result, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
