"""Statistically significant peer networks from recall matrices.

Null cell probabilities come from the maximum-entropy bipartite
configuration model (row/column sums reproduced in expectation); each
dyad's observed co-occurrence count is then tested against an exact
Poisson-binomial upper tail, and significant dyads form the backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ._kernels import _upper_tails
from ._kernels import dyad_pvalues as _dyad_pvalues
from .recall import RecallMatrix
from .scm import cooccurrence

MARGIN_TOL = 1e-6
MAX_FIT_ITER = 10_000


class ConvergenceError(RuntimeError):
    """Maximum-entropy fit failed to reproduce the margins."""


@dataclass(frozen=True)
class BackboneResult:
    pvalues: np.ndarray  # symmetric, upper-tail, diagonal 1
    network: np.ndarray  # binary adjacency, zero diagonal
    alpha: float
    correction: str


def fit_bicm(r: np.ndarray) -> np.ndarray:
    """Cell probabilities p_ij = x_i y_j / (1 + x_i y_j) matching both margins.

    Saturated rows/columns (all ones or all zeros relative to the active
    submatrix) are peeled off as fixed cells; the rest is solved by
    alternating fixed-point iteration on the multipliers, for at most
    ``MAX_FIT_ITER`` steps, until every margin is within ``MARGIN_TOL``.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0 or not np.isin(r, (0.0, 1.0)).all():
        raise ValueError("input must be a nonempty binary matrix")
    n, m = r.shape
    if r.sum() == 0:
        raise ValueError("degenerate all-zero matrix")
    p = np.zeros((n, m))
    row_t = r.sum(axis=1).copy()
    col_t = r.sum(axis=0).copy()
    rows_active = np.ones(n, dtype=bool)
    cols_active = np.ones(m, dtype=bool)
    # peel rows/columns whose cells are forced to 0 or 1
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
            full_cols &= col_t >= na  # recheck after row peeling
        if full_cols.any():
            p[np.ix_(rows_active, full_cols)] = 1.0
            row_t[rows_active] -= full_cols.sum()
            cols_active &= ~full_cols
        if zero_cols.any():
            cols_active &= ~zero_cols
    ri = np.flatnonzero(rows_active)
    ci = np.flatnonzero(cols_active)
    if ri.size and ci.size:
        rt = row_t[ri]
        ct = col_t[ci]
        total = rt.sum()
        x = rt / np.sqrt(total)
        y = ct / np.sqrt(total)
        err = np.inf
        checkpoint = np.inf
        for it in range(MAX_FIT_ITER):
            denom = 1.0 + np.outer(x, y)
            x = rt / (y / denom).sum(axis=1)
            denom = 1.0 + np.outer(x, y)
            y = ct / (x[:, None] / denom).sum(axis=0)
            probs = np.outer(x, y)
            probs /= 1.0 + probs
            err = max(
                np.abs(probs.sum(axis=1) - rt).max(),
                np.abs(probs.sum(axis=0) - ct).max(),
            )
            if err < MARGIN_TOL:
                break
            if it % 100 == 99:  # stalled iteration: switch to Newton
                if err > 0.5 * checkpoint:
                    break
                checkpoint = err
        if err >= MARGIN_TOL:
            x, y = _newton_multipliers(rt, ct, x, y)
            probs = np.outer(x, y)
            probs /= 1.0 + probs
            err = max(
                np.abs(probs.sum(axis=1) - rt).max(),
                np.abs(probs.sum(axis=0) - ct).max(),
            )
            if err >= MARGIN_TOL:
                raise ConvergenceError(f"margin residual {err:.3e}")
        p[np.ix_(ri, ci)] = probs
    resid = max(
        np.abs(p.sum(axis=1) - r.sum(axis=1)).max(),
        np.abs(p.sum(axis=0) - r.sum(axis=0)).max(),
    )
    if resid > 10 * MARGIN_TOL:
        raise ConvergenceError(f"margin residual {resid:.3e} after peeling")
    return p


def _newton_multipliers(rt, ct, x0, y0):
    """Solve the margin equations by Newton's method on log-multipliers.

    Robust fallback for margins where the fixed point crawls. The scale
    gauge (x -> cx, y -> y/c) is fixed by freezing the first column
    multiplier and dropping its (redundant) equation.
    """
    n, m = x0.size, y0.size
    ly0 = np.log(y0[0])

    def unpack(theta):
        x = np.exp(theta[:n])
        y = np.empty(m)
        y[0] = np.exp(ly0)
        y[1:] = np.exp(theta[n:])
        return x, y

    def fun_jac(theta):
        x, y = unpack(theta)
        probs = np.outer(x, y)
        probs /= 1.0 + probs
        f = np.concatenate(
            [probs.sum(axis=1) - rt, probs.sum(axis=0)[1:] - ct[1:]]
        )
        w = probs * (1.0 - probs)  # d p / d log-multiplier
        jac = np.zeros((n + m - 1, n + m - 1))
        jac[:n, :n] = np.diag(w.sum(axis=1))
        jac[:n, n:] = w[:, 1:]
        jac[n:, :n] = w[:, 1:].T
        jac[n:, n:] = np.diag(w[:, 1:].sum(axis=0))
        return f, jac

    theta0 = np.concatenate([np.log(x0), np.log(y0[1:])])
    sol = optimize.root(fun_jac, theta0, jac=True, method="hybr")
    return unpack(sol.x)


def poisson_binomial_upper_tail(probs, observed: int) -> float:
    """P(X >= observed) for X a sum of independent Bernoulli(probs) trials,
    exact by the O(m * observed) survival recursion."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or ((probs < 0) | (probs > 1)).any():
        raise ValueError("probs must be a vector of probabilities")
    if not 0 <= observed <= probs.size:
        raise ValueError(f"observed must be in [0, {probs.size}]")
    return float(_upper_tails(probs[:, None], np.array([int(observed)]))[0])


def holm_adjust(pvals: np.ndarray) -> np.ndarray:
    """Holm step-down adjusted p-values."""
    pvals = np.asarray(pvals, dtype=np.float64)
    k = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted = np.empty(k)
    running = 0.0
    for rank, idx in enumerate(order):
        running = max(running, (k - rank) * pvals[idx])
        adjusted[idx] = min(running, 1.0)
    return adjusted


def extract_backbone(
    rm: RecallMatrix, alpha: float = 0.05, correction: str = "none"
) -> BackboneResult:
    """Retain dyads whose co-occurrence count is significantly high under
    the degree-conditioned null (one-tailed, inclusive at alpha).

    A dyad that never co-occurs can never be significant, whatever alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if correction not in ("none", "holm"):
        raise ValueError(f"unknown correction {correction!r}")
    cooc = cooccurrence(rm)
    cell_p = fit_bicm(rm.entries)
    pvals = np.asarray(_dyad_pvalues(cell_p, cooc.astype(np.int64)))
    n = rm.n_children
    if correction == "holm" and n > 1:
        iu, ju = np.triu_indices(n, 1)
        adj = holm_adjust(pvals[iu, ju])
        effective = np.ones((n, n))
        effective[iu, ju] = adj
        effective[ju, iu] = adj
    else:
        effective = pvals
    network = ((effective <= alpha) & (cooc >= 1)).astype(np.int8)
    np.fill_diagonal(network, 0)
    return BackboneResult(pvalues=pvals, network=network, alpha=alpha, correction=correction)
