#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny trial counts.

    python3 auditbench/smoke.py

Runs every workload untraced and traced, in one process, with one pass over
a pool of audits of two trials (ten for study 3). Checks that the metrics
are exactly those named in ``BENCHMARK.json``, each printed by name with its
unit, that ``failed_frac`` is printed, and that the runs are correct. Then
corrupts one ``records.csv`` and checks that the run
reports it as failed. Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.1", "--processes", "1"]
# study 3 fits a regression per audit, which needs ten trials
CHUNK = {"generate-scm": "10"}


def bench(workload: str, *args: str) -> tuple[list[str], dict, str]:
    tiny = [*TINY, "--chunk", CHUNK.get(workload, "2")]
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           *args, *tiny],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1]), proc.stderr


def check_run(workload: str, trace: int) -> list[str]:
    lines, result, stderr = bench(workload, "--seed", "5", "--trace", str(trace))
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"not correct: {result} {stderr}")
    if not any(line.startswith("failed_frac = ") and line.split()[3] == "frac" for line in lines):
        problems.append("failed_frac not printed with its unit")
    specs = SPEC["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {spec["name"] for spec in specs}:
        problems.append(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        printed = [line.split() for line in lines if line.startswith(f"{name} = ")]
        if not printed or printed[0][3] != unit:
            problems.append(f"{name} not printed with unit {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{name} missing from the JSON result or its unit is wrong")
    return problems


def check_corrupted() -> list[str]:
    _, result, stderr = bench("shuffle-scm-2w", "--seed", "5", "--trace", "0", "--corrupt")
    if result["correct"] or result["failed"] < 1 or "records.csv differs" not in stderr:
        return [f"corrupted records.csv passed the checks: {result}"]
    return []


def main() -> int:
    failures = 0
    cases = [(f"{w['name']} trace={t}", check_run, (w["name"], t))
             for w in SPEC["workloads"] for t in (0, 1)]
    cases.append(("corrupted records.csv", check_corrupted, ()))
    for label, check, args in cases:
        problems = check(*args)
        print(f"{'FAIL' if problems else 'PASS'} {label}")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
