#!/usr/bin/env python3
"""Audit-trial benchmark for peeraudit.

Runs the user path ``peeraudit --seed S --threads W --out D audit --study X
--trials N`` in-process through ``cli.main``: closed loop, one audit at a
time, trials back to back. A workload is a fixed pool of K audits, audit k
run with ``--seed kN``, so peeraudit draws the classrooms of trial seeds
0 .. KN-1 itself. Passes over the pool, each in an order drawn from
``--seed``, repeat until the time is up. An audit takes 0.7 to 1.5 s
(N is 10 to 160 trials), so that what an audit costs beyond its trials
stays a small share of it; a real audit runs 1000 trials, and
``cli.per_audit_frac`` in a traced run shows that share.

    python3 auditbench/run.py --workload shuffle-becd --seed 1 --seconds 25 --trace 0

The host is shared, and its neighbours slow the CPU by up to twofold for
seconds to minutes at a time. Three choices keep the figures steady:

- each audit's time is divided by the slowdown measured around it with a
  fixed calibration mix (``worker.calibrate``), so times are at the speed
  of an unloaded core;
- an untraced run splits ``--seconds`` over ``PROCESSES`` fresh workload
  processes, because speed also differs between processes, and an audit
  counts as the lower quartile of its repeats in all of them; each process
  is also one set-up sample, scaled to reference speed by the calibration
  just after it, and ``setup_s`` is their median;
- the pool is fixed, because generated classrooms differ in cost by more
  than tenfold: a few hundred drawn afresh per run would make the spread a
  property of the draw. ``--seed`` orders the passes and seeds the inputs
  of the kernel micro-timings.

The run also prints the pool's time as measured next to the figure at
reference speed.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` one
process runs every audit twice at one worker, untraced and traced, and
prints the per-layer metrics from the traced half. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
(audit runs) and ``metrics``. Failures go to standard error with their
seed and traceback, and the run goes on.

Every run checks that repeats of an audit and its traced twin write the
same ``records.csv`` bytes (the twin at one worker, against the workload's
worker count), that every process writes the same records, that each file
holds one row per trial, and that the pooled records fall within the
acceptance bands of the study (see ``checks.py``). ``--chunk``,
``--processes`` and ``--corrupt`` exist for ``smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".auditbench_out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# a run must end within this many seconds
DEADLINE_S = 170.0
# untraced runs split --seconds over this many fresh processes, each also a
# set-up sample; the figures are medians over them
PROCESSES = 3

# name -> (study, worker threads, trials per audit, audits in the pool)
WORKLOADS = {
    "shuffle-becd": ("4b", 1, 10, 5),
    "generate-becd": ("4c", 1, 10, 5),
    "generate-scm": ("3", 1, 25, 4),
    "shuffle-scm-2w": ("2", NPROC, 160, 2),
}
END_TO_END_UNITS = {"trials_per_s": "1/s", "cpu_ms_per_trial": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


class BenchError(Exception):
    """The benchmark could not measure at all (no program, no result)."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_PINS})
    return env


def _run_process(cfg: dict, deadline: float) -> tuple[int, float]:
    """Run one workload process to its end, killing it at ``deadline``;
    returns its exit code and its set-up time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=_worker_env(), text=True,
    )
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if not ready:
        raise BenchError(f"workload process did not become ready (exit code {proc.returncode})")
    return proc.returncode, setup


def measure(args, out: pathlib.Path) -> tuple[list[dict], list[float], dict]:
    """Run the workload processes one after another; returns their results,
    their set-up times and the configuration they ran with."""
    study, threads, chunk, pool = WORKLOADS[args.workload]
    deadline = time.perf_counter() + DEADLINE_S
    n_procs = args.processes or (PROCESSES if args.trace == 0 else 1)
    cfg = {"root": str(ROOT), "study": study, "threads": threads,
           "chunk": args.chunk or chunk, "pool": pool, "seed": args.seed,
           "seconds": args.seconds / n_procs, "trace": args.trace, "corrupt": args.corrupt}
    results, setups = [], []
    for i in range(n_procs):
        proc_out = out / f"process_{i}"
        code, setup = _run_process({**cfg, "out": str(proc_out), "twin": i == 0}, deadline)
        setups.append(setup)
        result_file = proc_out / "result.json"
        if code != 0 or not result_file.exists():
            raise BenchError(f"workload process failed (exit code {code})")
        results.append(json.loads(result_file.read_text()))
        # set-up time at reference speed, like the audits
        setups[-1] /= results[-1]["setup_slowdown"]
    return results, setups, cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chunk", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--processes", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still stops its workload process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "peeraudit").is_dir():
        print(f"error: no peeraudit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    out = OUT_ROOT / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        results, setups, cfg = measure(args, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT_ROOT.exists() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()

    first = results[0]
    print(f"workload {args.workload}: study {cfg['study']}, {cfg['threads']} worker(s), "
          f"closed loop, pool of {cfg['pool']} audits of {cfg['chunk']} trials, "
          f"seed {args.seed}, {len(results)} process(es)")
    print("provenance " + json.dumps({**first["provenance"], "loadavg_at_start": load}))
    # per audit, the lower quartile of its repeats over every process
    samples: dict[str, list[list[float]]] = {}
    for r in results:
        for audit_seed, repeats in r["samples"].items():
            if repeats:
                samples.setdefault(audit_seed, []).extend(repeats)
    wall, cpu, raw_wall = (
        sum(_lower_quartile([x[i] for x in repeats]) for repeats in samples.values())
        for i in range(3))
    trials = cfg["chunk"] * len(samples)
    print(f"pool of {trials} trials: {wall:.4g} s at reference speed, {raw_wall:.4g} s as "
          f"measured (lower quartiles of {sum(map(len, samples.values()))} audit repeats)")
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    if len({r["records_sha256"] for r in results}) > 1:
        attempted += 1
        failures.append({"id": "-", "seed": "-", "trials": cfg["chunk"], "threads": "-",
                         "traced": False, "problems": ["records differ between processes"]})
    for failure in failures:
        print(f"FAILED audit {failure['id']} (workload {args.workload}, seed {failure['seed']}, "
              f"{failure['trials']} trials, {failure['threads']} worker(s), "
              f"traced={failure['traced']}):", file=sys.stderr)
        for problem in failure["problems"]:
            print("  " + problem.replace("\n", "\n  "), file=sys.stderr)
    failed = len(failures)
    if args.trace == 0:
        metrics = {
            "trials_per_s": trials / wall if wall else 0.0,
            "cpu_ms_per_trial": cpu * 1e3 / trials if trials else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in first.get("per_layer", {}).items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted} audit runs)")
    print(f"records_sha256 = {first['records_sha256']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
