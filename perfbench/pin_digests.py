"""Capture the pinned output digests the benchmark checks at the default seed.

Run from the repository root, only when the simulated system is meant to
change (the same rule as tools/golden_fingerprints.py)::

    python3 perfbench/pin_digests.py

Every cell of every workload, at both sizes, is computed inline and the
digest of its serialized summary is written to perfbench/pins.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from repro.experiments.runner import run_experiment  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CellOutput  # noqa: E402


def main() -> int:
    pins: dict = {}
    scratch = BENCH_DIR.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pins-", dir=scratch))
    try:
        for cls in WORKLOADS.values():
            group = pins.setdefault(cls.pin_group, {})
            for size in ("full", "small"):
                work_dir = tmp / f"{cls.name}-{size}"
                work_dir.mkdir()
                workload = cls(DEFAULT_SEED, size, work_dir)
                for cell in workload.cells:
                    if cell.key not in group:
                        group[cell.key] = CellOutput.of(run_experiment(cell.config)).digest
                        print(f"{cls.pin_group} {cell.key} {group[cell.key][:12]}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = BENCH_DIR / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(g) for g in pins.values())} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
