"""SDSM backbone extraction: BiCM fit, Poisson-binomial tails, edges."""

import numpy as np
import pytest
from scipy import stats

from peeraudit import backbone
from peeraudit.backbone import (
    MARGIN_TOL,
    ConvergenceError,
    extract_backbone,
    fit_bicm,
    holm_adjust,
    poisson_binomial_upper_tail,
)
from peeraudit._kernels import dyad_pvalues
from peeraudit.nullmodels import draw_classroom
from peeraudit.recall import RecallMatrix
from peeraudit.scm import cooccurrence


def _rm(entries):
    entries = np.asarray(entries, dtype=np.int8)
    return RecallMatrix(tuple(f"v{i}" for i in range(entries.shape[0])), entries)


# --- fit_bicm -------------------------------------------------------------


def test_fit_all_ones_saturated():
    p = fit_bicm(np.ones((3, 4)))
    assert np.allclose(p, 1.0)


def test_fit_exchangeable_uniform():
    # every row sum 2 on 4 exchangeable columns -> p = 1/2 everywhere
    r = np.array(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], dtype=float
    )
    p = fit_bicm(r)
    assert np.allclose(p, 0.5, atol=1e-6)


def test_fit_margin_fidelity_on_random_matrices():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(5, 80))
        r = (rng.random((n, m)) < rng.uniform(0.1, 0.5)).astype(float)
        if r.sum() == 0:
            continue
        p = fit_bicm(r)
        assert np.abs(p.sum(axis=1) - r.sum(axis=1)).max() < 1e-6
        assert np.abs(p.sum(axis=0) - r.sum(axis=0)).max() < 1e-6


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_bicm(np.array([[0.5]]))
    with pytest.raises(ValueError):
        fit_bicm(np.zeros((2, 2)))


def _fallback_classroom():
    # a generated classroom whose fixed-point iteration stalls above MARGIN_TOL
    return draw_classroom(np.random.default_rng(852))[1].entries


def test_fit_newton_fallback_reaches_the_margins(monkeypatch):
    calls = []
    newton = backbone._newton_multipliers

    def spy(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(backbone, "_newton_multipliers", spy)
    r = _fallback_classroom()
    p = fit_bicm(r)
    assert len(calls) == 1
    assert np.abs(p.sum(axis=1) - r.sum(axis=1)).max() < MARGIN_TOL
    assert np.abs(p.sum(axis=0) - r.sum(axis=0)).max() < MARGIN_TOL


def test_fit_singular_newton_step_is_a_convergence_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ConvergenceError, match="margin residual"):
        fit_bicm(_fallback_classroom())


# --- Poisson binomial -----------------------------------------------------


def test_tail_observed_zero():
    assert poisson_binomial_upper_tail([0.3, 0.7], 0) == 1.0


def test_tail_degenerate_ones():
    assert poisson_binomial_upper_tail([1.0, 1.0], 2) == 1.0


def test_tail_matches_binomial():
    m, p = 30, 0.3
    probs = np.full(m, p)
    for k in (0, 5, 10, 30):
        expected = stats.binom.sf(k - 1, m, p)
        assert poisson_binomial_upper_tail(probs, k) == pytest.approx(
            expected, abs=1e-12
        )


def test_tail_non_increasing_in_observed():
    rng = np.random.default_rng(11)
    probs = rng.uniform(0, 1, size=15)
    tails = [poisson_binomial_upper_tail(probs, k) for k in range(16)]
    assert all(a >= b - 1e-15 for a, b in zip(tails, tails[1:]))


def _brute_tail(probs, k):
    """P(X >= k) by summing over all 2^m outcomes."""
    m = len(probs)
    bits = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    weights = np.prod(np.where(bits == 1, probs, 1 - probs), axis=1)
    return weights[bits.sum(axis=1) >= k].sum()


def test_tail_brute_force_small():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = int(rng.integers(1, 9))
        probs = rng.uniform(0, 1, size=m)
        k = int(rng.integers(0, m + 1))
        assert poisson_binomial_upper_tail(probs, k) == pytest.approx(
            _brute_tail(probs, k), abs=1e-12
        )


def test_dyad_pvalues_brute_force():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(1, 13))
        cell_p = rng.uniform(0, 1, size=(n, m))
        # BiCM peeling leaves cells of exactly 0 and 1
        cell_p[rng.random((n, m)) < 0.15] = 0.0
        cell_p[rng.random((n, m)) < 0.15] = 1.0
        cooc = np.triu(rng.integers(0, m + 3, size=(n, n)), 1)
        cooc[0, 1], cooc[0, 2], cooc[1, 2] = 0, m, m + 1
        cooc = cooc + cooc.T
        np.fill_diagonal(cooc, m)
        p = dyad_pvalues(cell_p, cooc)
        assert (p == p.T).all()
        assert (np.diag(p) == 1.0).all()
        for i, j in zip(*np.triu_indices(n, 1)):
            k = cooc[i, j]
            assert abs(p[i, j] - _brute_tail(cell_p[i] * cell_p[j], k)) <= 1e-12
            if k == 0:
                assert p[i, j] == 1.0
            if k > m:
                assert p[i, j] == 0.0


def test_tail_input_validation():
    with pytest.raises(ValueError):
        poisson_binomial_upper_tail([0.5], 2)
    with pytest.raises(ValueError):
        poisson_binomial_upper_tail([1.5], 1)


# --- holm -----------------------------------------------------------------


def test_holm_adjust_known_case():
    adj = holm_adjust(np.array([0.01, 0.04, 0.03, 0.005]))
    assert np.allclose(adj, [0.03, 0.06, 0.06, 0.02])


def _holm_reference(pvals):
    """Holm step-down, one dyad at a time in ascending p order."""
    k = pvals.size
    adjusted = np.empty(k)
    running = 0.0
    for rank, idx in enumerate(np.argsort(pvals, kind="stable")):
        running = max(running, (k - rank) * pvals[idx])
        adjusted[idx] = min(running, 1.0)
    return adjusted


def test_holm_adjust_matches_reference_bitwise():
    rng = np.random.default_rng(15)
    for k in [0, 1, 2, 7, 300, 5000]:
        pvals = rng.random(k) ** 3
        # ties, exact zeros and ones, as dyads that never co-occur give
        pvals[rng.random(k) < 0.3] = 1.0
        pvals[rng.random(k) < 0.05] = 0.0
        pvals[rng.random(k) < 0.2] = pvals[0] if k else 0.0
        assert holm_adjust(pvals).tobytes() == _holm_reference(pvals).tobytes()


# --- extract_backbone -----------------------------------------------------


def _planted_two_block(n_blocks=4, block_size=5, n_reports=80):
    rng = np.random.default_rng(14)
    n = n_blocks * block_size
    entries = np.zeros((n, n_reports), dtype=np.int8)
    for j in range(n_reports):
        start = (j % n_blocks) * block_size
        members = rng.choice(
            np.arange(start, start + block_size), size=3, replace=False
        )
        entries[members, j] = 1
    return _rm(entries)


def test_backbone_planted_blocks():
    rm = _planted_two_block()
    net = extract_backbone(rm, alpha=0.05).network
    blocks = np.arange(rm.n_children) // 5
    cross = net[blocks[:, None] != blocks[None, :]]
    assert cross.sum() == 0
    within = net[:5, :5][np.triu_indices(5, 1)]
    assert within.mean() > 0.8


def test_backbone_pvalue_matrix_properties():
    rm = _planted_two_block()
    result = extract_backbone(rm)
    p = result.pvalues
    assert (p == p.T).all()
    assert (np.diag(p) == 1.0).all()
    assert ((p >= 0) & (p <= 1)).all()
    assert (np.diag(result.network) == 0).all()
    assert (result.network == result.network.T).all()


def test_backbone_alpha_validation():
    rm = _planted_two_block()
    with pytest.raises(ValueError):
        extract_backbone(rm, alpha=0.0)
    with pytest.raises(ValueError):
        extract_backbone(rm, correction="bogus")


def test_backbone_alpha_one_keeps_cooccurring_dyads():
    rm = _planted_two_block()
    result = extract_backbone(rm, alpha=1.0)
    cooc = cooccurrence(rm)
    np.fill_diagonal(cooc, 0)
    assert (result.network == (cooc >= 1).astype(np.int8)).all()


def test_backbone_holm_is_more_conservative():
    rm = _planted_two_block()
    plain = extract_backbone(rm, alpha=0.05, correction="none")
    holm = extract_backbone(rm, alpha=0.05, correction="holm")
    assert holm.network.sum() <= plain.network.sum()
    assert (holm.network <= plain.network).all()


def test_backbone_invariant_under_relabeling():
    rm = _planted_two_block()
    base = extract_backbone(rm, alpha=0.05)
    rng = np.random.default_rng(15)
    perm = rng.permutation(rm.n_children)
    rm2 = RecallMatrix(
        tuple(rm.children[i] for i in perm), rm.entries[perm]
    )
    net2 = extract_backbone(rm2, alpha=0.05).network
    assert (net2 == base.network[np.ix_(perm, perm)]).all()


def test_backbone_single_report_no_edges():
    entries = np.zeros((4, 1), dtype=np.int8)
    entries[:3, 0] = 1
    rm = _rm(entries)
    result = extract_backbone(rm, alpha=0.05)
    assert result.network.sum() == 0
