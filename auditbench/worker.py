"""One workload process: set up, then run audits through ``cli.main``.

Started by ``run.py`` with one JSON argument (see ``run.py`` for its
fields) and the BLAS/OpenMP thread counts already pinned in its
environment. It prints ``ready`` once ``peeraudit`` is imported, the
fixture is loaded and one warm-up trial has run, then measures and writes
``result.json`` to its output directory.

Each audit's wall time is divided by the slowdown of the host around it:
the wall time of a fixed calibration mix just before and just after the
audit, over its time on an unloaded core. Its CPU time is divided likewise
by the slowdown of the mix in CPU time, so that time the host takes away
from the process (which wall time shows and CPU time does not) does not
lower the CPU figure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import spans
from run import THREAD_PINS


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


# Fixed inputs for the calibration mix, shaped like the program's own: a
# 26-child backbone, a 40-child peer network and the dyad rows of 26x61.
_CAL_RNG = np.random.default_rng(0)
_CAL_W = np.triu((_CAL_RNG.random((26, 26)) < 0.15).astype(np.float64), 1)
_CAL_W = _CAL_W + _CAL_W.T
_CAL_LABELS = _CAL_RNG.integers(0, 6, size=26)
_CAL_NET = (_CAL_RNG.random((40, 40)) < 0.3).astype(np.int64)
_CAL_ROWS = _CAL_RNG.random((325, 62))
# seconds the mix takes on an unloaded 2.1 GHz Xeon core
REFERENCE_CALIBRATION_S = 0.00325
CALIBRATION_SAMPLES = 27
# study 3 fits a regression, which needs ten trials; its trials without the
# regression are those of study 4c run through the fifty-percent rule
WARM_UP_STUDY = {"3": ["--study", "4c", "--method", "scm-fifty"]}


def _mix() -> None:
    """A fixed mix of the kinds of work audits do; frozen here, so that
    changes to ``peeraudit`` never change it."""
    # tiny NumPy calls in an interpreter loop, as in Louvain's local moves
    k = _CAL_W.sum(axis=1)
    tot = np.bincount(_CAL_LABELS, weights=k, minlength=26)
    for _ in range(3):
        for v in range(26):
            links = np.bincount(_CAL_LABELS, weights=_CAL_W[v], minlength=26)
            int(np.argmax(links - k[v] * tot / 40.0))
    # block sums through fancy indexing, as in the modularity score
    for c in range(6):
        members = _CAL_LABELS == c
        _CAL_W[np.ix_(members, members)].sum()
    # row scans and keyed sorts, as in the fifty-percent rule
    order = sorted(range(40), key=lambda i: (-int(_CAL_NET[i].sum()), i))
    for i in order:
        np.flatnonzero(_CAL_NET[:, i] + _CAL_NET[i] >= 1)
    # set operations, as in curveball trades
    seen = set()
    for i in range(3000):
        seen.add((i * 7919) % 1013)
    # vectorised slice updates over a few hundred rows, as in the dyad kernel
    rows = _CAL_ROWS.copy()
    for j in range(1, 40):
        rows[:, j:] = rows[:, j:] * 0.9 + rows[:, :-j] * 0.1


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds ``_mix`` takes now: the medians of
    ``CALIBRATION_SAMPLES`` runs, so that a brief stall does not count."""
    walls, cpus = [], []
    for _ in range(CALIBRATION_SAMPLES):
        t0, c0 = time.perf_counter(), time.process_time()
        _mix()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


class Audits:
    """Runs audits of one study and keeps what each produced."""

    def __init__(self, cfg: dict, cli, layers) -> None:
        self.cfg = cfg
        self.cli = cli
        self.layers = layers
        self.out = pathlib.Path(cfg["out"])
        self.runs: list[dict] = []
        self.tracer = spans.Tracer()
        self.n_resampled_traced = 0
        # set once the process is set up; audits before that are not timed
        self.calibration = None

    def run(self, seed: int, trials: int, threads: int, traced: bool = False,
            study=None) -> dict:
        """One ``peeraudit audit``; a raise or non-zero exit marks it failed.
        ``study`` replaces ``--study X`` by other arguments."""
        run = {"id": len(self.runs), "seed": seed, "trials": trials, "threads": threads,
               "traced": traced, "problems": []}
        self.runs.append(run)
        out = self.out / f"audit_{run['id']:05d}"
        argv = ["--seed", str(seed), "--threads", str(threads), "--out", str(out),
                "audit", *(study or ["--study", self.cfg["study"]]), "--trials", str(trials)]
        main = self.cli.main
        if traced:
            self.layers.attach(self.tracer)
            main = self.tracer.wrap("cli.main", main)
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                cpu0, t0 = _cpu_seconds(), time.perf_counter()
                code = main(argv)
                run["wall"] = time.perf_counter() - t0
                run["cpu"] = _cpu_seconds() - cpu0
        except Exception:
            run["problems"].append(traceback.format_exc())
            return run
        finally:
            self.tracer.restore()
            if self.calibration is not None:
                before, self.calibration = self.calibration, calibrate()
                # how much slower than the reference the host ran around this
                # audit, in wall time and in CPU time
                run["slowdown"], run["cpu_slowdown"] = (
                    (a + b) / 2 / REFERENCE_CALIBRATION_S
                    for a, b in zip(before, self.calibration))
        if code != 0:
            run["problems"].append(f"exit code {code}: {stderr.getvalue().strip()}")
            return run
        try:
            run["records"] = (out / "records.csv").read_bytes()
            if self.cfg.get("corrupt") and seed == 0 and not traced:
                # a deliberately corrupted file, to show that the checks catch it
                last = run["records"][-2:-1]
                run["records"] = run["records"][:-2] + (b"1" if last != b"1" else b"2") + b"\n"
            summary = json.loads((out / "summary.json").read_text())
            run["rows"] = checks.parse_records(run["records"])
            run["problems"] += checks.check_rows(run["rows"], trials)
        except (OSError, ValueError, KeyError) as exc:
            run["problems"].append(f"unreadable audit output: {exc!r}")
            return run
        if traced:
            self.n_resampled_traced += summary.get("n_resampled", 0)
        return run

    def compare(self, reference: dict, other: dict, label: str) -> None:
        if "records" in reference and "records" in other:
            other["problems"] += checks.compare_records(reference["records"], other["records"], label)

    def ok(self, runs) -> list[dict]:
        return [r for r in runs if not r["problems"]]


def _provenance(peeraudit) -> dict:
    import scipy

    return {
        "backend": peeraudit.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def _visits(pool: list[int], seed: int, seconds: float):
    """Audit seeds in passes over ``pool``, each pass in a seeded order,
    until ``seconds`` have passed and every audit has run at least once."""
    rng = random.Random(seed)
    start = time.perf_counter()
    first_pass = True
    while True:
        order = pool[:]
        rng.shuffle(order)
        for audit_seed in order:
            yield audit_seed
            if not first_pass and time.perf_counter() - start >= seconds:
                return
        first_pass = False
        if time.perf_counter() - start >= seconds:
            return


def measure(cfg: dict, audits: Audits) -> dict:
    chunk, threads = cfg["chunk"], cfg["threads"]
    pool = [k * chunk for k in range(cfg["pool"])]
    plain: dict[int, list[dict]] = {s: [] for s in pool}
    traced: dict[int, list[dict]] = {s: [] for s in pool}
    for audit_seed in _visits(pool, cfg["seed"], cfg["seconds"]):
        run = audits.run(audit_seed, chunk, 1 if cfg["trace"] else threads)
        if plain[audit_seed]:
            audits.compare(plain[audit_seed][0], run, f"repeat of audit seed {audit_seed}")
        plain[audit_seed].append(run)
        if cfg["trace"]:
            twin = audits.run(audit_seed, chunk, 1, traced=True)
            audits.compare(run, twin, f"traced vs untraced, audit seed {audit_seed}")
            traced[audit_seed].append(twin)
    result = {"peak_rss_mb": _peak_rss_mb()}
    # the traced twin at 1 worker, and for a parallel workload the parallel run
    if cfg["trace"] and threads > 1:
        parallel = audits.run(pool[0], chunk, threads)
        audits.compare(traced[pool[0]][0], parallel, f"{threads} workers vs 1, audit seed {pool[0]}")
    elif not cfg["trace"] and cfg["twin"]:
        twin = audits.run(pool[0], chunk, 1, traced=True)
        label = "traced 1 worker vs untraced" + (f" {threads} workers" if threads > 1 else "")
        audits.compare(plain[pool[0]][0], twin, f"{label}, audit seed {pool[0]}")

    firsts = [plain[s][0] for s in pool]
    pooled = [row for r in firsts for row in r.get("rows", [])]
    if pooled:
        try:
            band_problems = checks.check_bands(cfg["study"], pooled)
        except (ValueError, KeyError) as exc:
            band_problems = [f"unreadable pooled records: {exc!r}"]
        for r in firsts:
            r["problems"] += band_problems
    digest = hashlib.sha256()
    for r in firsts:
        digest.update(r.get("records", b""))
    result["records_sha256"] = digest.hexdigest()

    # per audit, every good repeat: wall and CPU seconds at reference speed,
    # and wall seconds as measured
    result["samples"] = {
        str(s): [[r["wall"] / r["slowdown"], r["cpu"] / r["cpu_slowdown"], r["wall"]]
                 for r in audits.ok(plain[s])]
        for s in pool
    }
    if cfg["trace"]:
        walls = [
            (statistics.median(r["wall"] / r["slowdown"] for r in plain[s]),
             statistics.median(r["wall"] / r["slowdown"] for r in traced[s]))
            for s in pool if not any(r["problems"] for r in plain[s] + traced[s])
        ]
        if walls:
            overhead = 1.0 - sum(a for a, _ in walls) / sum(b for _, b in walls)
            layer = audits.layers.metrics(audits.tracer, audits.n_resampled_traced)
            layer["trace.overhead_frac"] = (overhead, "frac")
            layer.update(audits.layers.kernel_timings(cfg["seed"]))
            result["per_layer"] = layer
    return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = pathlib.Path(cfg["root"], "src").resolve()
    sys.path.insert(0, str(src))
    import peeraudit
    from peeraudit import cli, datasets

    if src not in pathlib.Path(peeraudit.__file__).resolve().parents:
        raise SystemExit(f"peeraudit was imported from {peeraudit.__file__}, not from {src}")
    import layers

    datasets.load_benchmark()
    audits = Audits(cfg, cli, layers)
    warm = audits.run(cfg["seed"], 1, cfg["threads"], study=WARM_UP_STUDY.get(cfg["study"]))
    if warm["problems"]:
        raise SystemExit("warm-up audit failed:\n" + "\n".join(warm["problems"]))
    print("ready", flush=True)
    audits.runs.clear()
    audits.calibration = calibrate()
    # how much slower than the reference the host ran just after set-up
    setup_slowdown = audits.calibration[0] / REFERENCE_CALIBRATION_S
    result = measure(cfg, audits)
    result["setup_slowdown"] = setup_slowdown
    result["provenance"] = _provenance(peeraudit)
    result["attempted"] = len(audits.runs)
    result["failures"] = [
        {k: r[k] for k in ("id", "seed", "trials", "threads", "traced", "problems")}
        for r in audits.runs if r["problems"]
    ]
    (pathlib.Path(cfg["out"]) / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
