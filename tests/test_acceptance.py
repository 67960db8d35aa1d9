"""The nine acceptance criteria, each with pinned tolerances.

Every test prints a one-line PASS/FAIL verdict (visible with ``pytest -v
-s`` or in captured output on failure) and asserts the same condition.
Seeds are fixed so the Monte Carlo criteria are deterministic.
"""

import threading
import time

import numpy as np
import pytest

from peeraudit import communities, datasets, experiments, nullmodels
from peeraudit.backbone import fit_bicm, poisson_binomial_upper_tail
from peeraudit.cli import main
from peeraudit.communities import maximize_modularity, modularity
from peeraudit.recall import RecallMatrix, margins
from peeraudit.scm import membership_statistic


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# --- 1: true positives on the planted benchmark ---------------------------


def test_criterion_1_benchmark_true_positive():
    t0 = time.perf_counter()
    rm = datasets.load_benchmark()
    assignment, p_stat = experiments.run_pipeline(rm, "scm-fifty")
    blocks, allowed = datasets.load_benchmark_blocks()
    agreement = experiments.block_agreement(assignment, blocks, allowed)
    elapsed = time.perf_counter() - t0
    ok = p_stat == 1.0 and agreement >= 0.95 and elapsed < 1.0
    _verdict(1, ok, f"P={p_stat:.3f} agreement={agreement:.3f} t={elapsed:.2f}s")


# --- 2: SCM false positives on fixed-margin shuffles ----------------------


def test_criterion_2_scm_shuffle_false_positives():
    t0 = time.perf_counter()
    rm = datasets.load_benchmark()
    _, summary = experiments.run_shuffle_audit(rm, "scm-fifty", 1000, seed=42)
    elapsed = time.perf_counter() - t0
    ok = (
        summary.frac_positive >= 0.99
        and 0.45 <= summary.mean_p <= 0.85
        and elapsed < 300
    )
    _verdict(
        2,
        ok,
        f"frac={summary.frac_positive:.3f} mean={summary.mean_p:.3f} "
        f"sd={summary.sd_p:.3f} t={elapsed:.0f}s",
    )


# --- 3: SCM false positives across settings + regression signs ------------


def test_criterion_3_scm_settings_and_signs():
    t0 = time.perf_counter()
    records, summary, _ = experiments.run_profile_audit("scm-fifty", 1000, seed=7)
    reg = experiments.ols_regression(records)
    elapsed = time.perf_counter() - t0
    signs = tuple(np.sign(reg.b))
    expected = (1.0, -1.0, 1.0, 1.0, 1.0)
    ok = (
        0.6 <= summary.frac_positive <= 0.95
        and signs == expected
        and elapsed < 600
    )
    _verdict(
        3,
        ok,
        f"frac={summary.frac_positive:.3f} "
        f"b=({', '.join(f'{b:+.4f}' for b in reg.b)}) t={elapsed:.0f}s",
    )


# --- 4: BE-CD low false positives on both ensembles -----------------------


def test_criterion_4_becd_low_false_positives():
    t0 = time.perf_counter()
    rm = datasets.load_benchmark()
    _, shuffle_summary = experiments.run_shuffle_audit(rm, "becd", 1000, seed=7)
    _, profile_summary, _ = experiments.run_profile_audit("becd", 1000, seed=7)
    elapsed = time.perf_counter() - t0
    ok = (
        shuffle_summary.frac_positive <= 0.05
        and profile_summary.frac_positive <= 0.05
        and shuffle_summary.max_p <= 0.25
        and profile_summary.max_p <= 0.25
        and elapsed < 1200
    )
    _verdict(
        4,
        ok,
        f"shuffle frac={shuffle_summary.frac_positive:.3f} "
        f"maxP={shuffle_summary.max_p:.3f}; "
        f"profile frac={profile_summary.frac_positive:.3f} "
        f"maxP={profile_summary.max_p:.3f} t={elapsed:.0f}s",
    )


# --- 5: Poisson-binomial exactness ----------------------------------------


def test_criterion_5_poisson_binomial_exactness():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 13))
        probs = rng.uniform(0, 1, size=m)
        observed = int(rng.integers(0, m + 1))
        bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
        weights = np.prod(np.where(bits == 1, probs, 1 - probs), axis=1)
        brute = weights[bits.sum(axis=1) >= observed].sum()
        got = poisson_binomial_upper_tail(probs, observed)
        worst = max(worst, abs(got - brute))
    ok = worst <= 1e-12
    _verdict(5, ok, f"max |dp - brute| = {worst:.2e} over 200 vectors")


# --- 6: BiCM margin fidelity ----------------------------------------------


def test_criterion_6_bicm_margin_fidelity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(2, 201))
        r = (rng.random((n, m)) < rng.uniform(0.05, 0.6)).astype(float)
        if r.sum() == 0:
            r[rng.integers(n), rng.integers(m)] = 1.0
        p = fit_bicm(r)
        err = max(
            np.abs(p.sum(axis=1) - r.sum(axis=1)).max(),
            np.abs(p.sum(axis=0) - r.sum(axis=0)).max(),
        )
        worst = max(worst, err)
    ok = worst < 1e-6
    _verdict(6, ok, f"max margin residual = {worst:.2e} over 100 matrices")


# --- 7: curveball margin invariance + 2x2 ensemble balance ----------------


def test_criterion_7_curveball_invariance():
    rng = np.random.default_rng(102)
    for seed in range(1000):
        n = int(rng.integers(2, 20))
        m = int(rng.integers(2, 30))
        entries = (rng.random((n, m)) < rng.uniform(0.15, 0.7)).astype(np.int8)
        empty = entries.sum(axis=0) == 0
        entries[rng.integers(0, n, size=int(empty.sum())), np.flatnonzero(empty)] = 1
        rm = RecallMatrix(tuple(f"v{i}" for i in range(n)), entries)
        out = nullmodels.curveball_randomize(rm, seed=seed)
        rows_in, cols_in = margins(rm)
        rows_out, cols_out = margins(out)
        assert (rows_in == rows_out).all() and (cols_in == cols_out).all()
    rm2 = RecallMatrix(("a", "b"), np.eye(2, dtype=np.int8))
    hits = sum(
        int(nullmodels.curveball_randomize(rm2, seed=s).entries[0, 0] == 1)
        for s in range(10_000)
    )
    freq = hits / 10_000
    ok = abs(freq - 0.5) < 0.05
    _verdict(7, ok, f"margins exact on 1000 matrices; 2x2 state freq = {freq:.3f}")


# --- 8: modularity optimizer oracle ---------------------------------------

def _partition_labels(n: int) -> np.ndarray:
    """All set partitions of range(n) as restricted-growth label matrices."""
    labels = np.zeros((1, 1), dtype=np.int8)
    for _ in range(n - 1):
        tops = labels.max(axis=1)
        counts = tops.astype(np.int64) + 2
        total = counts.sum()
        repeated = np.repeat(labels, counts, axis=0)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        new_col = (np.arange(total) - starts).astype(np.int8)
        labels = np.column_stack([repeated, new_col])
    return labels


def _exhaustive_best_qs(nets: list[np.ndarray]) -> np.ndarray:
    """Best modularity over every set partition, for networks of one size.

    Each partition's same-community pairs are built once and scored
    against all the networks at once, as a pairs x networks matrix.
    """
    n = nets[0].shape[0]
    iu, ju = np.triu_indices(n, 1)
    b_pairs = np.zeros((len(iu), len(nets)))
    diag_const = np.zeros(len(nets))
    for col, net in enumerate(nets):
        net = np.asarray(net, dtype=float)
        two_m = net.sum()
        if two_m == 0:
            continue  # every partition scores 0
        k = net.sum(axis=1)
        b = (net - np.outer(k, k) / two_m) / two_m
        diag_const[col] = np.trace(b)
        b_pairs[:, col] = 2.0 * b[iu, ju]
    labels = _partition_labels(n)
    best = np.full(len(nets), -np.inf)
    for lo in range(0, labels.shape[0], 200_000):
        chunk = labels[lo : lo + 200_000]
        same = chunk[:, iu] == chunk[:, ju]
        best = np.maximum(best, (same @ b_pairs).max(axis=0))
    return best + diag_const


def test_criterion_8_modularity_oracle():
    rng = np.random.default_rng(103)
    total = 500
    nets = []
    for _ in range(total):
        n = int(rng.integers(2, 13))
        net = (rng.random((n, n)) < rng.uniform(0.15, 0.7)).astype(np.int64)
        net = np.triu(net, 1)
        nets.append(net + net.T)
    best = np.empty(total)
    for n in {net.shape[0] for net in nets}:
        same_size = [i for i, net in enumerate(nets) if net.shape[0] == n]
        best[same_size] = _exhaustive_best_qs([nets[i] for i in same_size])
    exact_mismatches = 0
    heuristic_hits = 0
    for net, best_q in zip(nets, best):
        _, q_exact = maximize_modularity(net, seed=0)
        if abs(q_exact - best_q) > 1e-12:
            exact_mismatches += 1
        _, q_heur = communities._louvain_best(net, 10, 0)
        if q_heur >= best_q - 1e-9:
            heuristic_hits += 1
    heuristic_rate = heuristic_hits / total
    ok = exact_mismatches == 0 and heuristic_rate >= 0.95
    _verdict(
        8,
        ok,
        f"exact mismatches={exact_mismatches}/500, "
        f"heuristic optimal rate={heuristic_rate:.3f}",
    )


# --- 9: byte-identical records at --threads 1 and 8 ----------------------


def test_criterion_9_thread_count_reproducibility(tmp_path, monkeypatch):
    def no_worker_thread(self):
        raise AssertionError("an audit started a worker thread")

    identical = True
    for method, study, trials in (
        ("scm-fifty", "2", 60),
        ("becd", "2", 40),
        ("scm-fifty", "4c", 40),
        ("becd", "4c", 30),
    ):
        records = []
        for threads in (1, 8):
            out = tmp_path / f"{method}-{study}-{threads}"
            argv = ["--seed", "7", "--threads", str(threads), "--out", str(out),
                    "audit", "--study", study, "--method", method, "--trials", str(trials)]
            with monkeypatch.context() as m:
                if threads > 1:
                    m.setattr(threading.Thread, "start", no_worker_thread)
                assert main(argv) == 0
            records.append((out / "records.csv").read_bytes())
        identical &= records[0] == records[1]
    _verdict(9, identical, "records.csv byte-identical at --threads 1 vs 8")
