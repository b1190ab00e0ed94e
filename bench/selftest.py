"""Fast self-test of the benchmark harness at tiny job sizes.

    python3 bench/selftest.py

For every workload it runs ``run.py --tiny`` once untraced and twice traced
at the same seed, and checks that

* each run exits 0 and ends with the result object, every job passing;
* the metrics printed are exactly those ``BENCHMARK.json`` names for the
  mode (end-to-end untraced, per-layer traced), each with its unit;
* every count (and every value derived only from counts and outputs)
  repeats exactly between the two traced runs.

It also checks that the benchmark exits non-zero, without a result, from a
copy holding only ``BENCHMARK.json`` and the benchmark directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7
TIMEOUT_S = 300
# per-layer values that are measured times, so they may differ between runs
TIMED_UNITS = ("s", "1/s")
TIMED_NAMES = ("trace.overhead_frac",)


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    return proc


def result_of(proc, label: str, failures: list):
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        failures.append(f"{label}: last line is not a JSON object ({err})")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: result keys {sorted(result)}")
        return None
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n{proc.stdout}")
    return result


def check_metrics(result, declared: list, label: str, failures: list) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed) if expected[n] != printed[n])
        failures.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r} is not a finite number")


def check_bare_copy(failures: list) -> None:
    """Only BENCHMARK.json and the benchmark's paths: no program to run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        workload = spec["workloads"][0]["name"]
        cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=TIMEOUT_S)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures: list = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = result_of(run(ROOT, workload, 0), f"{workload} trace 0", failures)
        if plain is not None:
            check_metrics(plain, spec["end_to_end"], f"{workload} trace 0", failures)
        traced = []
        for attempt in (1, 2):
            label = f"{workload} trace 1 run {attempt}"
            result = result_of(run(ROOT, workload, 1), label, failures)
            if result is not None:
                check_metrics(result, spec["per_layer"], label, failures)
                traced.append(result["metrics"])
        if len(traced) == 2:
            for name, unit in units.items():
                if unit in TIMED_UNITS or name in TIMED_NAMES:
                    continue
                first, second = traced[0][name]["value"], traced[1][name]["value"]
                if first != second:
                    failures.append(f"{workload}: {name} differs between runs ({first} vs {second})")
        print(f"{workload}: checked", flush=True)
    check_bare_copy(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest failed: {len(failures)} problem(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
