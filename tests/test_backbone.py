"""SDSM backbone extraction: BiCM fit, Poisson-binomial tails, edges."""

import importlib.util
import itertools
import math
import pathlib
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from peeraudit import _kernels, backbone
from peeraudit.backbone import (
    MARGIN_TOL,
    ConvergenceError,
    extract_backbone,
    fit_bicm,
    holm_adjust,
    poisson_binomial_upper_tail,
)
from peeraudit._kernels import (
    _binomial_survival,
    _two_product_error,
    block_order,
    class_pair_tails,
    dyad_pvalues,
    survival_table,
)
from peeraudit.datasets import load_benchmark
from peeraudit.nullmodels import (
    MAX_NOMINATION_SKEW,
    MAX_REPORTS,
    PROFILE_BOUNDS,
    ClassroomProfile,
    draw_classroom,
    curveball_randomize,
    generate_classroom,
)
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


def _stalled_classroom():
    # a generated classroom on which a fixed-point iteration of the
    # multipliers stalls above MARGIN_TOL
    return draw_classroom(np.random.default_rng(852))[1].entries


def test_fit_reaches_the_margins_where_the_fixed_point_stalls():
    r = _stalled_classroom()
    p = fit_bicm(r)
    assert np.abs(p.sum(axis=1) - r.sum(axis=1)).max() < MARGIN_TOL
    assert np.abs(p.sum(axis=0) - r.sum(axis=0)).max() < MARGIN_TOL


def _extreme_profiles():
    """The corners of PROFILE_BOUNDS, and those corners again with the
    nomination skew at either end of its allowed range."""
    bounds = dict(PROFILE_BOUNDS)
    corners = list(itertools.product(*bounds.values()))
    bounds["nomination_skew"] = (-MAX_NOMINATION_SKEW, MAX_NOMINATION_SKEW)
    corners += itertools.product(*bounds.values())
    return [ClassroomProfile(**dict(zip(bounds, c))) for c in corners]


def test_fit_converges_at_the_generators_extremes():
    profiles = _extreme_profiles()
    assert len(profiles) == 64
    for i, profile in enumerate(profiles):
        for seed in range(5):
            r = generate_classroom(profile, seed=100 * i + seed).entries
            p = fit_bicm(r)  # raises ConvergenceError on a fit that misses
            assert np.abs(p.sum(axis=1) - r.sum(axis=1)).max() < MARGIN_TOL
            assert np.abs(p.sum(axis=0) - r.sum(axis=0)).max() < MARGIN_TOL


def _newton_reference(rt, ct):
    """Cell probabilities by Newton's method on one log-multiplier per row
    and per column, from x_i = rt_i / sqrt(total), y_j = ct_j / sqrt(total).
    The scale gauge (x -> cx, y -> y/c) is fixed by freezing the first
    column multiplier and dropping its equation; steps are halved until
    the residual falls, for at most 100 steps."""
    n, m = rt.size, ct.size
    x0, y0 = rt / np.sqrt(rt.sum()), ct / np.sqrt(rt.sum())

    def fun_jac(theta):
        x = np.exp(theta[:n])
        y = np.empty(m)
        y[0] = y0[0]
        y[1:] = np.exp(theta[n:])
        probs = np.outer(x, y)
        probs /= 1.0 + probs
        f = np.concatenate([probs.sum(axis=1) - rt, probs.sum(axis=0)[1:] - ct[1:]])
        w = probs * (1.0 - probs)
        jac = np.zeros((n + m - 1, n + m - 1))
        jac[:n, :n] = np.diag(w.sum(axis=1))
        jac[:n, n:] = w[:, 1:]
        jac[n:, :n] = w[:, 1:].T
        jac[n:, n:] = np.diag(w[:, 1:].sum(axis=0))
        return f, jac, probs

    theta = np.concatenate([np.log(x0), np.log(y0[1:])])
    f, jac, probs = fun_jac(theta)
    for _ in range(100):
        resid = np.abs(f).max()
        if resid < MARGIN_TOL / 1000:
            break
        step = np.linalg.solve(jac, f)
        for scale in 0.5 ** np.arange(50):
            trial = fun_jac(theta - scale * step)
            if np.abs(trial[0]).max() < resid:
                break
        else:
            break
        theta, (f, jac, probs) = theta - scale * step, trial
    return probs


def _fit_bicm_reference(r):
    """The BiCM fit with one multiplier per child and per report: the same
    peel, start and stopping rule as ``fit_bicm``, solved by Newton's
    method on the full active submatrix."""
    r = np.asarray(r, dtype=np.float64)
    n, m = r.shape
    p = np.zeros((n, m))
    row_t = r.sum(axis=1).copy()
    col_t = r.sum(axis=0).copy()
    rows_active = np.ones(n, dtype=bool)
    cols_active = np.ones(m, dtype=bool)
    while True:
        na, ma = rows_active.sum(), cols_active.sum()
        if na == 0 or ma == 0:
            break
        zero_rows = rows_active & (row_t <= 0)
        full_rows = rows_active & (row_t >= ma)
        zero_cols = cols_active & (col_t <= 0)
        full_cols = cols_active & (col_t >= na)
        if not (zero_rows.any() or full_rows.any() or zero_cols.any() or full_cols.any()):
            break
        if full_rows.any():
            p[np.ix_(full_rows, cols_active)] = 1.0
            col_t[cols_active] -= full_rows.sum()
            rows_active &= ~full_rows
        if zero_rows.any():
            rows_active &= ~zero_rows
        na = rows_active.sum()
        if full_cols.any():
            full_cols &= col_t >= na
        if full_cols.any():
            p[np.ix_(rows_active, full_cols)] = 1.0
            row_t[rows_active] -= full_cols.sum()
            cols_active &= ~full_cols
        if zero_cols.any():
            cols_active &= ~zero_cols
    ri = np.flatnonzero(rows_active)
    ci = np.flatnonzero(cols_active)
    if ri.size and ci.size:
        p[np.ix_(ri, ci)] = _newton_reference(row_t[ri], col_t[ci])
    return p


def _peeled_matrices():
    rng = np.random.default_rng(16)
    full_row = (rng.random((12, 20)) < 0.3).astype(float)
    full_row[0] = 1.0
    full_col = (rng.random((15, 30)) < 0.25).astype(float)
    full_col[:, 4] = 1.0
    both = (rng.random((10, 25)) < 0.3).astype(float)
    both[3] = 1.0
    both[:, 7] = 1.0
    both[5] = 0.0
    # peeled in four levels before the 10 x 20 core: the zero row 10 and
    # the full row 11; column 20, full once row 10 is gone; row 12, whose
    # only 1 is in column 20; column 21, full once row 12 is gone
    cascade = np.zeros((13, 22))
    i = np.arange(10)
    core = cascade[:10, :20]
    core[:] = rng.random((10, 20)) < 0.35
    core[i, i] = core[i, i + 10] = 1.0  # no core line of zeros
    core[i, (i - 1) % 10] = core[i, 10 + (i - 1) % 10] = 0.0  # nor of ones
    ones = [*range(10), 11]
    cascade[11] = 1.0
    cascade[ones + [12], 20] = 1.0
    cascade[ones, 21] = 1.0
    return [full_row, full_col, both, cascade]


def _assert_matches_reference(r, atol=0.0):
    # the class-reduced Newton iterates are the full-matrix ones, and on
    # seeds 100-139 the cells differ by at most 4.2e-13 relative
    p, ref = fit_bicm(r), _fit_bicm_reference(r)
    np.testing.assert_allclose(p, ref, rtol=1e-12, atol=atol)
    rm = _rm(r)
    cooc = cooccurrence(rm).astype(np.int64)
    pvals, ref_pvals = dyad_pvalues(p, cooc), dyad_pvalues(ref, cooc)
    np.testing.assert_allclose(pvals, ref_pvals, rtol=1e-13, atol=0)
    assert np.array_equal(pvals <= 0.05, ref_pvals <= 0.05)


def test_fit_matches_full_matrix_reference():
    matrices = [load_benchmark().entries] + _peeled_matrices()
    # seeds 100-139 lie outside the benchmark's classroom pool
    matrices += [draw_classroom(np.random.default_rng(s))[1].entries for s in range(100, 140)]
    for r in matrices:
        _assert_matches_reference(r)


def _fit_bicm_unique_reference(r):
    """``fit_bicm`` with its classes from ``np.unique``, the peel's first
    check on a copy of ``r``, and every fit scattered into a 0/1 copy of
    ``r``, as it was before the classes came from ``np.bincount``."""
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0 or not ((r == 0) | (r == 1)).all():
        raise ValueError("input must be a nonempty binary matrix")
    if r.sum() == 0:
        raise ValueError("degenerate all-zero matrix")
    p = (r == 1).astype(np.float64)
    ri, ci = np.arange(r.shape[0]), np.arange(r.shape[1])
    while True:
        core = r[np.ix_(ri, ci)]
        rt, ct = core.sum(axis=1), core.sum(axis=0)
        free_rows, free_cols = (rt > 0) & (rt < ci.size), (ct > 0) & (ct < ri.size)
        if free_rows.all() and free_cols.all():
            break
        ri, ci = ri[free_rows], ci[free_cols]
    if ri.size:
        total = rt.sum()
        row_sums, row_class, row_count = np.unique(rt, return_inverse=True, return_counts=True)
        col_sums, col_class, col_count = np.unique(ct, return_inverse=True, return_counts=True)
        k = row_sums.size
        y0 = col_sums[0] / np.sqrt(total)

        def fun_jac(theta):
            y = np.empty(col_sums.size)
            y[0] = y0
            y[1:] = np.exp(theta[k:])
            probs = np.outer(np.exp(theta[:k]), y)
            probs /= 1.0 + probs
            f = np.concatenate([probs @ col_count - row_sums, (row_count @ probs - col_sums)[1:]])
            w = probs * (1.0 - probs)
            wr, wc = w * col_count, (row_count[:, None] * w)[:, 1:]
            jac = np.diag(np.concatenate([wr.sum(axis=1), wc.sum(axis=0)]))
            jac[:k, k:] = wr[:, 1:]
            jac[k:, :k] = wc.T
            return f, jac, probs

        theta = np.log(np.concatenate([row_sums, col_sums[1:]]) / np.sqrt(total))
        f, jac, probs = fun_jac(theta)
        for _ in range(100):
            resid = np.abs(f).max()
            if resid < MARGIN_TOL / 1000:
                break
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            for scale in 0.5 ** np.arange(50):
                trial = fun_jac(theta - scale * step)
                if np.abs(trial[0]).max() < resid:
                    break
            else:
                break
            theta, (f, jac, probs) = theta - scale * step, trial
        p[np.ix_(ri, ci)] = probs[np.ix_(row_class, col_class)]
    return p


def test_fit_matches_unique_reference_bitwise():
    matrices = [load_benchmark().entries] + _peeled_matrices()
    # seeds 100-139 lie outside the benchmark's classroom pool
    matrices += [draw_classroom(np.random.default_rng(s))[1].entries for s in range(100, 140)]
    peeled = 0
    for r in matrices:
        p = fit_bicm(r)
        assert p.tobytes() == _fit_bicm_unique_reference(r).tobytes()
        rt, ct = r.sum(axis=1), r.sum(axis=0)
        peeled += bool(((rt == 0) | (rt == r.shape[1])).any() or ((ct == 0) | (ct == r.shape[0])).any())
    # the four _peeled_matrices and some draws are peeled, the other draws not
    assert 4 < peeled < len(matrices) - 1


def _nested_matrix(rng):
    """Row i holds ones in its first k_i columns, k non-increasing, and
    rows and columns are then permuted (a Ferrers matrix)."""
    n, m = rng.integers(1, 30, size=2)
    k = np.sort(rng.integers(0, m + 1, size=n))[::-1]
    r = (np.arange(m) < k[:, None]).astype(float)
    return r[rng.permutation(n)][:, rng.permutation(m)]


def test_fit_of_a_nested_matrix_is_the_matrix():
    # a nested matrix is the only binary matrix with its margins; these
    # peel to an empty core in up to 20 levels
    rng = np.random.default_rng(19)
    for _ in range(500):
        r = _nested_matrix(rng)
        if r.any():
            assert fit_bicm(r).tobytes() == r.tobytes()


def _wrapped_core(rng):
    """A random core inside lines added one at a time, each a row of ones,
    a row of zeros or a column of ones across the matrix it is added to
    (a report names somebody), then permuted: the peel drops the lines in
    up to as many levels as there are lines."""
    n, m = rng.integers(4, 12, size=2)
    r = (rng.random((n, m)) < 0.4).astype(float)
    r[rng.integers(n, size=m), np.arange(m)] = 1.0
    for _ in range(rng.integers(1, 12)):
        line = rng.integers(3)
        if line < 2:
            r = np.vstack([r, np.full((1, r.shape[1]), float(line))])
        else:
            r = np.hstack([r, np.ones((r.shape[0], 1))])
    return r[rng.permutation(r.shape[0])][:, rng.permutation(r.shape[1])]


def test_fit_is_the_same_on_every_shuffle():
    # extract_backbone reuses one fit for every matrix with the same
    # margins, which holds only if the fit is bitwise a function of them
    rng = np.random.default_rng(20)
    matrices = [load_benchmark().entries]
    matrices += [draw_classroom(np.random.default_rng(s))[1].entries for s in (100, 101, 102)]
    matrices += [_wrapped_core(rng) for _ in range(8)]
    for r in matrices:
        rm = _rm(r)
        fit = fit_bicm(r).tobytes()
        shuffles = [curveball_randomize(rm, seed=s).entries for s in range(200)]
        assert any(not np.array_equal(x, rm.entries) for x in shuffles)
        for x in shuffles:
            assert fit_bicm(x).tobytes() == fit


def test_fit_newton_fallback_matches_full_matrix_reference():
    # the classroom on which a fixed-point iteration stalls and Newton's
    # method is what reaches the margins; the Jacobian is near singular
    # along its cells below about 1e-9, which the margins barely fix: they
    # differ by up to 2e-6 relative but 8e-16 absolute
    _assert_matches_reference(_stalled_classroom(), atol=1e-14)


def test_fit_singular_newton_step_is_a_convergence_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(ConvergenceError, match="margin residual"):
        fit_bicm(load_benchmark().entries)


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


def _dyad_pvalues_by_loop(cell_p, cooc):
    """dyad_pvalues one dyad at a time, by the public upper tail."""
    n = cell_p.shape[0]
    out = np.ones((n, n))
    for i, j in zip(*np.triu_indices(n, 1)):
        out[i, j] = out[j, i] = poisson_binomial_upper_tail(cell_p[i] * cell_p[j], int(cooc[i, j]))
    return out


def _fitted(rm):
    return fit_bicm(rm.entries), cooccurrence(rm).astype(np.int64)


# draw_classroom seeds, outside the benchmark's pool, whose reports have
# one size, two sizes, and 19 and 16 sizes
ONE_SIZE_SEEDS, TWO_SIZE_SEEDS, MANY_SIZE_SEEDS = (150, 156), (157, 195), (258, 263)


def test_dyad_pvalues_return_at_once_when_no_dyad_co_occurs(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the kernel ran with no co-occurring dyad")

    monkeypatch.setattr(_kernels, "_row_classes", must_not_run)
    monkeypatch.setattr(_kernels, "survival_table", must_not_run)
    cell_p = fit_bicm(draw_classroom(np.random.default_rng(3))[1].entries)
    n = cell_p.shape[0]
    for cooc in (np.zeros((n, n), dtype=np.int64), np.diag(np.arange(1, n + 1))):
        pvals = dyad_pvalues(cell_p, cooc)
        assert pvals.shape == (n, n)
        assert (pvals == 1.0).all()


def test_dyad_pvalues_match_per_dyad_loop_bitwise():
    rng = np.random.default_rng(17)
    cases = [_fitted(load_benchmark())]
    # seeds 100-119 lie outside the benchmark's classroom pool
    seeds = [*range(100, 120), *ONE_SIZE_SEEDS, *TWO_SIZE_SEEDS, *MANY_SIZE_SEEDS]
    cases += [_fitted(draw_classroom(np.random.default_rng(s))[1]) for s in seeds]
    # every row distinct, as in the benchmark's kernel timings
    for n, m in [(26, 61), (40, 200)]:
        cell_p = rng.uniform(0.02, 0.5, size=(n, m))
        entries = (rng.random((n, m)) < cell_p).astype(np.int64)
        cases.append((cell_p, entries @ entries.T))
    # two rows of one degree class whose cells differ in the last bit only:
    # the nudged cell splits its report-size class, so a dyad of two other
    # rows sees one more equal trial than the block of columns holds
    cell_p, cooc = _fitted(draw_classroom(np.random.default_rng(100))[1])
    cell_p[1] = cell_p[0]
    cell_p[1, -1] = np.nextafter(cell_p[1, -1], 1.0)
    cases.append((cell_p, cooc))
    for k, (cell_p, cooc) in enumerate(cases):
        pvals = dyad_pvalues(cell_p, cooc)
        expected = _dyad_pvalues_by_loop(cell_p, cooc)
        if k < len(cases) - 1:
            assert pvals.tobytes() == expected.tobytes()
        else:
            assert (np.abs(pvals - expected) <= 1e-13 * expected).all()
        counts = cooc.copy()
        np.fill_diagonal(counts, 0)
        pair, table = class_pair_tails(cell_p, counts.max() + 5)
        assert table[counts, pair].tobytes() == pvals.tobytes()


def test_dyad_pvalues_with_distinct_columns_are_the_plain_recursion():
    # no two reports alike: no block, so the recursion of every trial in
    # order, from S = 1[t = 0], as before blocks
    rng = np.random.default_rng(18)
    cell_p = rng.uniform(0.02, 0.5, size=(12, 40))
    entries = (rng.random(cell_p.shape) < cell_p).astype(np.int64)
    cooc = entries @ entries.T
    expected = np.ones((12, 12))
    for i, j in zip(*np.triu_indices(12, 1)):
        surv = np.zeros(cooc[i, j] + 1)
        surv[0] = 1.0
        for p in cell_p[i] * cell_p[j]:
            surv[1:] = surv[1:] * (1.0 - p) + surv[:-1] * p
        expected[i, j] = expected[j, i] = min(surv[-1], 1.0)
    assert dyad_pvalues(cell_p, cooc).tobytes() == expected.tobytes()


def _binomial_survival_reference(q, c):
    """``_kernels._binomial_survival`` as it was before it built down only
    below the rows where it is 1 and normalised only the rows kept: all
    c + 1 rows."""
    inner = (q > 0.0) & (q < 1.0)
    p = np.where(inner, q, 0.5)
    h = 1.0 - p
    low = (1.0 - h) - p
    rho = p / h
    err = -((rho * h - p) + _two_product_error(rho, h)) / p - low / h
    j = np.arange(c + 1.0)
    with np.errstate(divide="ignore"):
        up = np.multiply.outer((c + 1 - j) / j, rho)
        down = np.divide.outer((j + 1) / (c - j), rho)
    np.minimum(up, 1.0, out=up)
    np.minimum(down, 1.0, out=down)
    np.cumprod(up, axis=0, out=up)
    np.cumprod(down[::-1], axis=0, out=down[::-1])
    up *= down
    np.multiply.outer(j, err, out=down)
    down += 1.0
    up *= down
    surv = np.cumsum(up[::-1], axis=0, out=down[::-1])[::-1]
    surv /= surv[0]
    surv[:, ~inner] = j[:, None] <= np.where(q[~inner] == 1.0, c, 0)
    return surv


def test_binomial_survival_matches_reference_bitwise():
    rng = np.random.default_rng(24)
    edges = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5, 0.999]
    qs = np.array(edges + rng.random(6).tolist() + (1e-3 * rng.random(4)).tolist())
    for c in (2, 3, 4, 5, 8, 13, 60, 200, 1000, 10_000):
        # every width for all q at once; one q at a time (d = 1, as
        # poisson_binomial_upper_tail passes), every width up to c = 200
        cases = [(qs, range(1, c + 2) if c <= 1000 else [*range(1, c, 97), c, c + 1])]
        widths = range(1, c + 2) if c <= 200 else [1, 2, 3, c // 3, c // 2, c, c + 1]
        cases += [(np.array([q]), widths) for q in qs]
        for q, widths in cases:
            expected = _binomial_survival_reference(q, c)
            for width in widths:
                got = _binomial_survival(q, c, width)
                assert got.tobytes() == expected[:width].tobytes(), (c, width)


def _exact_tails(probs):
    """P(X >= t) for t = 0..m, X a sum of independent Bernoulli(probs)
    trials, as Fractions: the pmf convolved one trial at a time in exact
    arithmetic over the float probabilities."""
    pmf = [Fraction(1)]
    for p in map(Fraction, probs):
        pmf = [a * (1 - p) + b * p for a, b in zip(pmf + [0], [0] + pmf)]
    return list(itertools.accumulate(reversed(pmf)))[::-1]


def _exact_binomial_tail(q, c, t):
    """P(Binomial(c, q) >= t) for a float q in (0, 1), exact and rounded
    once to a float: the sum of the terms C(c, j) q^j (1 - q)^(c - j),
    j >= t, in integers, by binary splitting of the ratio of consecutive
    terms, (c - j) q / ((j + 1) (1 - q))."""
    a, d = float(q).as_integer_ratio()
    b = d - a

    def split(lo, hi):
        # (P, Q, T): the sum over lo <= k < hi of the ratios' product from
        # lo to k is T / Q, and P is the product of all their numerators
        if hi - lo == 1:
            return (c - lo) * a, (lo + 1) * b, (lo + 1) * b
        mid = (lo + hi) // 2
        p1, q1, t1 = split(lo, mid)
        p2, q2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2

    _, den, num = split(t, c + 1)
    # int / int is correctly rounded however large its operands
    return math.comb(c, t) * a**t * b ** (c - t) * num / (d**c * den)


def _tail_table(probs, width):
    order, block = block_order(probs[:, None])
    return survival_table(probs[order, None], width, block)[:, 0]


# a probability whose complement 1 - q is not a float
ODD = 0.25 + 2.0**-54


def test_tail_matches_exact_binomial_sums():
    rng = np.random.default_rng(19)
    cases = [
        np.array([0.0] * 6 + [0.3, 0.7, 0.3]),  # the block is q = 0
        np.array([1.0] * 5 + [0.2, 0.9]),  # the block is q = 1
        np.array([0.9, 0.0, 1.0, 0.4, 1e-9]),  # every class one trial
        np.array([ODD] * 12 + [0.05] * 7 + [ODD] * 3),  # two classes
        rng.choice([0.3, 1e-3, 0.97, ODD, 0.5, 0.0], size=60),  # many classes
        np.full(40, 0.1),  # one class
    ]
    for probs in cases:
        m = probs.size
        # the table reaches beyond the block's c + 1 rows and above m
        table = _tail_table(probs, m + 4)
        for t, exact in enumerate(_exact_tails(probs)):
            if exact >= 1e-300:
                assert abs(table[t] - exact) <= 1e-13 * exact
            assert poisson_binomial_upper_tail(probs, t) == min(table[t], 1.0)
        assert (table[m + 1 :] == 0.0).all()


def test_tail_of_max_reports_equal_trials_matches_exact_sum():
    # at the mode, 100 above it, and a tail near 1e-300; without the
    # correction for rounding q / (1 - q), q = 0.3 is 2e-13 off there
    for q, ts in [(0.3, (3000, 3100, 4767)), (ODD, (2500, 4150))]:
        table = _tail_table(np.full(MAX_REPORTS, q), MAX_REPORTS + 1)
        for t in ts:
            exact = _exact_binomial_tail(q, MAX_REPORTS, t)
            assert exact >= 1e-300
            assert abs(table[t] - exact) <= 1e-13 * exact


def test_tail_input_validation():
    with pytest.raises(ValueError):
        poisson_binomial_upper_tail([0.5], 2)
    with pytest.raises(ValueError):
        poisson_binomial_upper_tail([1.5], 1)
    for probs in ([np.nan, 0.5], [0.5, -0.1]):
        with pytest.raises(ValueError, match="probabilities"):
            poisson_binomial_upper_tail(probs, 1)
    # P(X >= 1.5) is 0.25 here, not the 0.75 of P(X >= 1)
    for observed in (1.5, np.float64(0.5), np.nan, np.inf, True, np.True_):
        with pytest.raises(ValueError, match="observed"):
            poisson_binomial_upper_tail([0.5, 0.5], observed)
    for observed in (1, 1.0, np.int64(1), np.float32(1)):
        assert poisson_binomial_upper_tail([0.5, 0.5], observed) == 0.75


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


# --- the fit memo ---------------------------------------------------------


def _shuffles_by_widest_count(rm, n):
    """n curveball shuffles of ``rm``, by their largest off-diagonal count."""
    def widest(x):
        counts = cooccurrence(x)
        np.fill_diagonal(counts, 0)
        return counts.max()

    return sorted((curveball_randomize(rm, seed=s) for s in range(n)), key=widest)


def _one_cell_moved(rm):
    """``rm`` with one child's 1 moved to another report: the same shape
    and row sums, other column sums."""
    r = rm.entries.copy()
    c = int(np.flatnonzero(r.sum(axis=0) > 1)[0])
    i = int(np.flatnonzero(r[:, c])[0])
    d = int(np.flatnonzero(r[i] == 0)[0])
    r[i, c], r[i, d] = 0, 1
    return RecallMatrix(rm.children, r)


def _cold_pvalues(rm):
    return dyad_pvalues(fit_bicm(rm.entries), cooccurrence(rm))


def test_backbone_memo_matches_a_cold_fit(monkeypatch):
    shuffles = _shuffles_by_widest_count(load_benchmark(), 40)
    a1, a2, a3, wide = shuffles[0], shuffles[1], shuffles[2], shuffles[-1]
    b = _one_cell_moved(a1)
    fits, tables = [], []

    def counted(calls, fn):
        return lambda *args: calls.append(None) or fn(*args)

    monkeypatch.setattr(backbone._memo, "entry", None)
    monkeypatch.setattr(backbone, "fit_bicm", counted(fits, backbone.fit_bicm))
    monkeypatch.setattr(backbone, "class_pair_tails", counted(tables, backbone.class_pair_tails))
    # miss, first hit, a hit that needs a wider table, a hit that does
    # not, a miss on other column sums, a miss back on the first margins
    steps = [(a1, 0.05, "none", 1, 0), (a2, 0.01, "holm", 1, 1), (wide, 1.0, "none", 1, 2),
             (a3, 0.05, "holm", 1, 2), (b, 0.05, "none", 2, 2), (a1, 0.2, "holm", 3, 2)]
    for rm, alpha, correction, n_fits, n_tables in steps:
        result = extract_backbone(rm, alpha=alpha, correction=correction)
        cooc = cooccurrence(rm)
        expected = _cold_pvalues(rm)
        assert result.pvalues.tobytes() == expected.tobytes()
        effective = expected
        if correction == "holm":
            iu, ju = np.triu_indices(rm.n_children, 1)
            effective = expected.copy()
            effective[iu, ju] = effective[ju, iu] = holm_adjust(expected[iu, ju])
        network = ((effective <= alpha) & (cooc >= 1)).astype(np.int8)
        np.fill_diagonal(network, 0)
        assert np.array_equal(result.network, network)
        assert (len(fits), len(tables)) == (n_fits, n_tables)
        # a caller's writes to its result reach no later call
        result.pvalues[:] = 0.0
        result.network[:] = 1


def test_backbone_memo_under_threads(monkeypatch):
    # threads alternating between two margins replace the one entry under
    # each other; every call must still see a consistent entry
    classrooms = _shuffles_by_widest_count(load_benchmark(), 6)
    classrooms += _shuffles_by_widest_count(_one_cell_moved(load_benchmark()), 6)
    expected = [_cold_pvalues(rm).tobytes() for rm in classrooms]
    monkeypatch.setattr(backbone._memo, "entry", None)
    wrong = []

    def work(offset):
        for k in range(40):
            i = (offset + k * 5) % len(classrooms)
            if extract_backbone(classrooms[i]).pvalues.tobytes() != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# --- the network-only backbone --------------------------------------------

ALPHAS = (1e-4, 0.01, 0.05, 0.2, 1.0)


def _assert_network_only_matches(rm, alphas, monkeypatch):
    """For each alpha: every dyad that Cantelli's or the Berry-Esseen bound
    rules out has an exact p-value above alpha, and a cold network-only
    call returns the default call's network bit for bit. Returns the dyads
    ruled out by Cantelli's bound and those ruled out by Berry-Esseen
    alone, as an array of two counts."""
    cooc = cooccurrence(rm)
    cell_p = fit_bicm(rm.entries)
    exact = dyad_pvalues(cell_p, cooc)
    ruled = np.zeros(2, dtype=np.int64)
    for alpha in alphas:
        out = backbone._out_of_reach(cell_p, cooc, alpha) & (cooc >= 1)
        np.fill_diagonal(out, False)
        assert (exact[out] > alpha).all(), alpha
        with monkeypatch.context() as m:  # an infinite constant idles Berry-Esseen
            m.setattr(backbone, "BERRY_ESSEEN_C0", math.inf)
            cantelli = backbone._out_of_reach(cell_p, cooc, alpha) & (cooc >= 1)
        np.fill_diagonal(cantelli, False)
        assert (cantelli <= out).all()
        ruled += [int(cantelli.sum()) // 2, int((out & ~cantelli).sum()) // 2]
    expected = [extract_backbone(rm, alpha=alpha).network for alpha in alphas]
    for alpha, network in zip(alphas, expected):
        monkeypatch.setattr(backbone._memo, "entry", None)
        result = extract_backbone(rm, alpha=alpha, pvalues=False)
        assert result.pvalues is None
        assert result.network.tobytes() == network.tobytes(), alpha
    return ruled


def test_network_only_backbone_matches_on_generated_classrooms(monkeypatch):
    cantelli, berry_esseen = sum(
        _assert_network_only_matches(draw_classroom(np.random.default_rng(s))[1], ALPHAS,
                                     monkeypatch)
        for s in range(300))
    # neither bound is idle
    assert cantelli > 10_000
    assert berry_esseen > 10_000


def test_network_only_backbone_matches_where_the_null_variance_is_zero(monkeypatch):
    # peeled cells are 0 or 1, so a dyad of two peeled rows has no variance
    rng = np.random.default_rng(28)
    matrices = _peeled_matrices() + [_wrapped_core(rng) for _ in range(60)]
    certain = 0
    for r in matrices:
        cell_p = fit_bicm(r)
        trials = cell_p[:, None, :] * cell_p[None, :, :]
        variance = (trials * (1.0 - trials)).sum(axis=2)
        certain += int(np.triu((variance == 0.0) & (cooccurrence(_rm(r)) >= 1), 1).sum())
        _assert_network_only_matches(_rm(r), ALPHAS, monkeypatch)
    assert certain > 100


def test_network_only_backbone_matches_on_benchmark_shuffles(monkeypatch):
    rm = load_benchmark()
    for x in [rm] + [curveball_randomize(rm, seed=s) for s in range(50)]:
        _assert_network_only_matches(x, ALPHAS, monkeypatch)


def _graded_classroom(n_children, n_reports):
    """The classroom of scripts/backbone_scale.py, loaded from the script
    itself: child i is named in each report with probability
    0.02 + 0.38 i / (n - 1), so most children have a degree of their own
    and the dyad kernel sees about n^2 / 2 class pairs."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "backbone_scale.py"
    spec = importlib.util.spec_from_file_location("backbone_scale", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.graded_classroom(n_children, n_reports)


def test_network_only_backbone_matches_on_a_graded_classroom(monkeypatch):
    rm = _graded_classroom(100, 500)
    assert np.unique(rm.entries.sum(axis=1)).size > 75
    cantelli, berry_esseen = _assert_network_only_matches(rm, ALPHAS, monkeypatch)
    assert cantelli > 0 and berry_esseen > 0


def test_network_only_backbone_memory_on_a_graded_classroom(monkeypatch):
    # measured before this test was written: a 3.5 MB traced peak, where
    # the default call peaks at 28.9 MB and Cantelli's bound alone at 14.9 MB
    rm = _graded_classroom(100, 500)
    monkeypatch.setattr(backbone._memo, "entry", None)
    tracemalloc.start()
    try:
        extract_backbone(rm, pvalues=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def _kernel_counts(rm, alpha, monkeypatch, correction="none"):
    """The counts that a cold network-only call hands the dyad kernel."""
    calls = []

    def kernel(cell_p, counts):
        calls.append(np.array(counts))
        return dyad_pvalues(cell_p, counts)

    monkeypatch.setattr(backbone._memo, "entry", None)
    monkeypatch.setattr(backbone, "_dyad_pvalues", kernel)
    extract_backbone(rm, alpha=alpha, correction=correction, pvalues=False)
    assert len(calls) == 1
    counts = calls[0]
    np.fill_diagonal(counts, 0)
    return counts


def test_network_only_backbone_when_every_dyad_is_ruled_out(monkeypatch):
    # every report names everybody: each count is its mean, with no variance
    rm = _rm(np.ones((5, 4)))
    assert not _kernel_counts(rm, 0.05, monkeypatch).any()
    assert not extract_backbone(rm, alpha=0.05, pvalues=False).network.any()
    _assert_network_only_matches(rm, ALPHAS, monkeypatch)


def test_network_only_backbone_when_no_dyad_is_ruled_out(monkeypatch):
    rm = _planted_two_block()
    cooc = cooccurrence(rm)
    np.fill_diagonal(cooc, 0)
    for alpha in (0.2, 1.0):
        assert np.array_equal(_kernel_counts(rm, alpha, monkeypatch), cooc)
    _assert_network_only_matches(rm, (0.2, 1.0), monkeypatch)


def test_network_only_backbone_skips_nothing_on_the_memo_or_with_holm(monkeypatch):
    # a memo hit reads its table, and Holm needs every p-value
    rm = _planted_two_block()
    monkeypatch.setattr(backbone._memo, "entry", None)
    for correction in ("none", "holm"):
        expected = extract_backbone(rm, correction=correction)
        result = extract_backbone(rm, correction=correction, pvalues=False)
        assert result.pvalues is None
        assert np.array_equal(result.network, expected.network)
    cooc = cooccurrence(rm)
    np.fill_diagonal(cooc, 0)
    assert np.array_equal(_kernel_counts(rm, 0.05, monkeypatch, "holm"), cooc)
