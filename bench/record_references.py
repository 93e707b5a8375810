"""Record the reference outputs that the benchmark's checks compare against.

    python3 bench/record_references.py

Run it only on a commit whose outputs are known to be right; it overwrites
bench/references.json. Each workload's outputs at the reference seed are
stored with the tolerance its checks allow; the synthetic workload
also checks the theory experiments' outputs.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

# The same BLAS setting as run.py, so the outputs are the ones it checks.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from radbench.workloads import WORKLOADS  # noqa: E402

# Floats may move by this much, e.g. when a refactor reorders a sum; every
# other value (labels, classes, chosen parameters, counts) must be equal.
TOLERANCE = {
    "synthetic": {"rel": 0.0, "abs": 1e-9},
    "backtest": {"rel": 1e-12, "abs": 0.0},
    "theory": {"rel": 1e-9, "abs": 0.0},
    "query": {"rel": 0.0, "abs": 1e-9},
}


def main() -> None:
    refs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in WORKLOADS.items():
            for group, records in cls(0, {}, Path(tmp)).reference_outputs().items():
                refs[group] = {"tolerance": TOLERANCE[group], "records": records}
                print(f"{group}: {sum(len(v) for v in records.values())} records", flush=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
