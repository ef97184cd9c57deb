"""Self-test of the benchmark at reduced sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, emits exactly the metric
names and units BENCHMARK.json declares with every output check passing;
that a corrupted pinned digest shows up as a failed operation; and that
the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench_tmp" / "selftest"


def run_bench(*args: str, cwd: Path = ROOT, pins: Path = None) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "0", *args]
    if pins is not None:
        command += ["--pins", str(pins)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_declared_metrics(spec: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload in spec["workloads"]:
            name = workload["name"]
            result = result_of(
                run_bench("--workload", name, "--trace", str(trace), "--size", "small")
            )
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            got = {metric: value["unit"] for metric, value in result["metrics"].items()}
            assert got == declared, f"{name} trace={trace}: {got} != {declared}"
            assert result["correct"] and result["failed"] == 0, f"{name}: {result}"
            assert result["attempted"] >= 1
            print(f"ok  {name} --trace {trace}: {len(got)} metrics, {result['attempted']} checked")


def check_corrupted_pin() -> None:
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    key = "c5-v30-FC"
    digest = pins["paper-grid"][key]
    pins["paper-grid"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupted = SCRATCH / "pins-corrupted.json"
    corrupted.write_text(json.dumps(pins))
    result = result_of(
        run_bench("--workload", "paper-grid", "--trace", "0", "--size", "small", pins=corrupted)
    )
    assert not result["correct"] and result["failed"] >= 1, result
    print(f"ok  corrupted pin: {result['failed']} of {result['attempted']} operations failed")


def check_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench("--workload", "paper-grid", "--trace", "0", cwd=bare)
    assert done.returncode != 0, done.stdout
    assert not done.stdout.strip(), done.stdout
    print(f"ok  without sources: exit {done.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_declared_metrics(spec)
        check_corrupted_pin()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
