"""Statistically significant peer networks from recall matrices.

Null cell probabilities come from the maximum-entropy bipartite
configuration model (row/column sums reproduced in expectation); each
dyad's observed co-occurrence count is then tested against an exact
Poisson-binomial upper tail, and significant dyads form the backbone.

Both steps work on classes (Saracco et al., New J. Phys. 19, 053022,
2017). A cell's probability depends only on its row sum and its column
sum, so the fit solves one multiplier per distinct sum; and a dyad's
null count depends only on its two rows of cells, so the test runs one
tail per pair of distinct rows (see ``_kernels.dyad_pvalues``). Columns
of one sum are equal too (bar peeled cells), so every dyad has equal
trials from the reports of one size, and each tail starts from the
largest such class as one binomial block, not one trial at a time.

A curveball shuffle keeps every row and column sum, so all the trials of
a shuffle audit share one fit. ``extract_backbone`` keeps the last fit in
a process-wide memo of one entry, keyed by the input's shape and margins.
A call with new margins does the work above and stores the fit; the
first call that repeats them tabulates the tail of every pair of classes
(``_kernels.class_pair_tails``), and each later call reads its dyads
from that table, which is rebuilt wider only when a count outgrows it.
Both give the same p-values bit for bit.

A caller that needs only the network (an audit trial) can skip most
tails on a cold fit: a tail that Cantelli's inequality or the
Berry-Esseen bound (constant 0.56, Shevtsova 2010) already puts above
alpha cannot bring its dyad into the backbone, so it is never computed
(``_out_of_reach``). The kernel then runs only the dyads near alpha and
those that enter the backbone. The network is the same bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._kernels import block_order, class_pair_tails, survival_table
from ._kernels import dyad_pvalues as _dyad_pvalues
from .recall import RecallMatrix, margins
from .scm import cooccurrence

MARGIN_TOL = 1e-6
# relative slack on the null variance before Cantelli's bound rules a dyad
# out, and on the tail and alpha before the Berry-Esseen bound does
CANTELLI_SLACK = 1e-6
# the Berry-Esseen constant for sums of non-identical independent summands
# (Shevtsova, Doklady Math. 82, 2010)
BERRY_ESSEEN_C0 = 0.5600

# extract_backbone's memo: entry is (key, cell probabilities, tails), with
# tails None or class_pair_tails' (pair, table). It is replaced whole, never
# updated in place, so a call that reads it sees one consistent entry.
_memo = SimpleNamespace(entry=None)


class ConvergenceError(RuntimeError):
    """Maximum-entropy fit failed to reproduce the margins."""


@dataclass(frozen=True)
class BackboneResult:
    pvalues: np.ndarray | None  # symmetric, upper-tail, diagonal 1; None if not asked for
    network: np.ndarray  # binary adjacency, zero diagonal
    alpha: float
    correction: str


def fit_bicm(r: np.ndarray) -> np.ndarray:
    """Cell probabilities p_ij = x_i y_j / (1 + x_i y_j) matching both margins.

    Rows and columns whose active cells are all 0 or all 1 are forced, and
    are peeled off until none is left; a peeled cell keeps the input's
    value. The core is solved by Newton's method on log-multipliers, from
    x_i = r_i / sqrt(total) and y_j = c_j / sqrt(total) on its margins.
    Rows with equal sums have equal multipliers there and at every iterate,
    and so do columns; so the unknowns are one per distinct core row sum
    and per distinct column sum, each term of a margin weighted by the
    number of rows or columns that share its sum, and the iterates are the
    full core's up to rounding. The sums are integers, so the classes come
    from one ``np.bincount`` of each margin (``_sum_classes``). The scale
    gauge (x -> cx, y -> y/c) fixes the first column class's multiplier
    and drops its redundant equation. When nothing is peeled, the fit is
    the classes' cells spread over the matrix, with no copy of the input.
    Steps are halved until the largest margin residual falls; the solve
    stops below ``MARGIN_TOL`` / 1000, after 100 steps or at a singular
    Jacobian, and a fit that misses a margin of ``r`` by ``MARGIN_TOL``
    raises ``ConvergenceError``.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.size == 0 or not ((r == 0) | (r == 1)).all():
        raise ValueError("input must be a nonempty binary matrix")
    if r.sum() == 0:
        raise ValueError("degenerate all-zero matrix")
    ri, ci = np.arange(r.shape[0]), np.arange(r.shape[1])
    # peeling a forced line leaves every other forced line forced, so
    # dropping all of them at once ends in the same core as any order
    core = r
    while True:
        rt, ct = core.sum(axis=1), core.sum(axis=0)
        free_rows, free_cols = (rt > 0) & (rt < ci.size), (ct > 0) & (ct < ri.size)
        if free_rows.all() and free_cols.all():
            break
        ri, ci = ri[free_rows], ci[free_cols]
        core = r[np.ix_(ri, ci)]
    if ri.size:  # an empty core has no columns either
        total = rt.sum()
        # one log-multiplier per distinct margin (see the docstring)
        row_sums, row_class, row_count = _sum_classes(rt)
        col_sums, col_class, col_count = _sum_classes(ct)
        k = row_sums.size
        y0 = col_sums[0] / np.sqrt(total)  # the gauge: x -> cx, y -> y/c

        def fun_jac(theta):
            y = np.empty(col_sums.size)
            y[0] = y0
            y[1:] = np.exp(theta[k:])
            probs = np.outer(np.exp(theta[:k]), y)
            probs /= 1.0 + probs
            f = np.concatenate([probs @ col_count - row_sums, (row_count @ probs - col_sums)[1:]])
            w = probs * (1.0 - probs)  # d p / d log-multiplier
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
        cells = probs[row_class][:, col_class]
    if core is r:  # nothing peeled: the core's cells are all of p
        p = cells
    else:
        p = (r == 1).astype(np.float64)  # the input's cells, -0.0 read as 0.0
        if ri.size:
            p[np.ix_(ri, ci)] = cells
    err = _margin_error(p, r.sum(axis=1), r.sum(axis=0))
    if err >= MARGIN_TOL:
        raise ConvergenceError(f"margin residual {err:.3e}")
    return p


def _sum_classes(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(sums, return_inverse=True, return_counts=True)`` for
    sums of 0/1 cells, which are integral, from one ``np.bincount``."""
    sums = sums.astype(np.intp)
    counts = np.bincount(sums)
    present = counts > 0
    values = np.flatnonzero(present)
    return values.astype(np.float64), (np.cumsum(present) - 1)[sums], counts[values]


def _margin_error(probs, row_sums, col_sums) -> float:
    return max(
        np.abs(probs.sum(axis=1) - row_sums).max(),
        np.abs(probs.sum(axis=0) - col_sums).max(),
    )


def poisson_binomial_upper_tail(probs, observed: int) -> float:
    """P(X >= observed) for X a sum of independent Bernoulli(probs) trials,
    exact by the survival recursion: the most frequent probability, c
    trials of it (``_kernels.block_order``), is one binomial block of
    O(c) work, and each other trial one step of O(observed), so
    O(c + (m - c) * observed) in all."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or not ((probs >= 0) & (probs <= 1)).all():  # NaN fails too
        raise ValueError("probs must be a vector of probabilities")
    if not 0 <= observed <= probs.size:
        raise ValueError(f"observed must be in [0, {probs.size}]")
    if isinstance(observed, (bool, np.bool_)) or observed != int(observed):
        raise ValueError(f"observed must be an integer count, got {observed!r}")
    observed = int(observed)
    order, block = block_order(probs[:, None])
    return min(float(survival_table(probs[order, None], observed + 1, block)[observed, 0]), 1.0)


def holm_adjust(pvals: np.ndarray) -> np.ndarray:
    """Holm step-down adjusted p-values."""
    pvals = np.asarray(pvals, dtype=np.float64)
    k = pvals.size
    order = np.argsort(pvals, kind="stable")
    adjusted = np.empty(k)
    adjusted[order] = np.minimum(np.maximum.accumulate((k - np.arange(k)) * pvals[order]), 1.0)
    return adjusted


def _out_of_reach(cell_p: np.ndarray, cooc: np.ndarray, alpha: float) -> np.ndarray:
    """The dyads whose p-value Cantelli's inequality or the Berry-Esseen
    bound puts above ``alpha``.

    Dyad (i, j)'s null count X has mean mu = sum_k q_k and variance
    sigma^2 = sum_k q_k (1 - q_k), with q_k = p_ik p_jk, both from one
    matrix product each. For a count t with a = mu - t + 1 > 0, Cantelli's
    one-sided inequality gives P(X <= t - 1) <= sigma^2 / (sigma^2 + a^2),
    so P(X >= t) >= a^2 / (sigma^2 + a^2), which exceeds alpha when
    a^2 (1 - alpha) > alpha sigma^2.

    For the dyads that Cantelli leaves, a trial's third absolute central
    moment q (1 - q) (q^2 + (1 - q)^2) is at most q (1 - q), so the
    Berry-Esseen inequality for non-identical summands puts P(X <= x)
    within C0 / sigma of Phi((x - mu) / sigma), with
    C0 = ``BERRY_ESSEEN_C0``. Hence
    P(X >= t) >= Phibar((t - 1 - mu) / sigma) - C0 / sigma, and the dyad
    is ruled out when that exceeds alpha. Phibar is computed with
    ``math.erfc``, and only for the dyads with t - 1 >= mu whose
    C0 / sigma leaves room below 1/2 - alpha.

    Each of the two sums of m products is within (m + 2) eps mu of the
    sum over the kernel's rounded trials, and every input is taken on the
    side that lowers the bound: mu that much lower in both tests, sigma^2
    twice that much higher for Cantelli and lower for Berry-Esseen (a dyad
    whose lowered sigma^2 is not positive is kept), the numerator
    t - 1 - mu clipped at 0 (where Phibar is 1/2, its value at most
    there), Phibar shrunk and alpha grown by ``CANTELLI_SLACK``: rounding
    cannot rule out a dyad that the exact tail would keep. At alpha = 1
    nothing is ruled out.
    """
    mean = cell_p @ cell_p.T
    squares = cell_p * cell_p
    err = (cell_p.shape[1] + 2) * np.finfo(np.float64).eps * mean
    low_mean = mean - err
    a = low_mean - cooc + 1.0
    var = mean - squares @ squares.T
    below = a > 0.0  # t - 1 < mu: Cantelli applies, and Phibar's numerator clips to 0
    out = below & (a * a * (1.0 - alpha) > alpha * (1.0 + CANTELLI_SLACK) * (var + 2.0 * err))
    reach = 0.5 * (1.0 - CANTELLI_SLACK) - alpha * (1.0 + CANTELLI_SLACK)
    if reach <= 0.0:
        return out
    var -= 2.0 * err
    # Phibar is at most 1/2, so only a dyad with C0 / sigma < reach can
    # pass, and where the numerator clips to 0 that is the whole test
    wide = var > (BERRY_ESSEEN_C0 / reach) ** 2
    out |= wide & below
    i, j = np.nonzero(wide & ~below & (cooc >= 1))
    upper = i < j
    i, j = i[upper], j[upper]
    if i.size:
        sigma = np.sqrt(var[i, j])
        z = np.maximum(cooc[i, j] - 1.0 - low_mean[i, j], 0.0) / sigma
        phibar = np.array([math.erfc(x) for x in (z * math.sqrt(0.5)).tolist()]) * 0.5
        hit = phibar * (1.0 - CANTELLI_SLACK) > alpha * (1.0 + CANTELLI_SLACK) + BERRY_ESSEEN_C0 / sigma
        i, j = i[hit], j[hit]
        out[i, j] = out[j, i] = True
    return out


def extract_backbone(
    rm: RecallMatrix, alpha: float = 0.05, correction: str = "none", *, pvalues: bool = True
) -> BackboneResult:
    """Retain dyads whose co-occurrence count is significantly high under
    the degree-conditioned null (one-tailed, inclusive at alpha).

    A dyad that never co-occurs can never be significant, whatever alpha.
    The fit of ``rm``'s margins and its class-pair tails are reused from
    the previous call when its margins were the same (see the module
    docstring).

    With ``pvalues=False`` the result's ``pvalues`` is None and only its
    network is computed. On a new fit with ``correction="none"``, the
    exact tail is then skipped for every dyad that Cantelli's or the
    Berry-Esseen bound shows is above ``alpha`` (``_out_of_reach``); the
    network is the one the default call returns, bit for bit.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if correction not in ("none", "holm"):
        raise ValueError(f"unknown correction {correction!r}")
    cooc = cooccurrence(rm)
    key = (rm.entries.shape, *(sums.tobytes() for sums in margins(rm)))
    entry = _memo.entry
    if entry is None or entry[0] != key:
        cell_p = fit_bicm(rm.entries)
        counts = cooc
        if not pvalues and correction == "none":
            # a ruled-out dyad reads p = 1 > alpha, as its exact tail would
            counts = np.where(_out_of_reach(cell_p, cooc, alpha), 0, cooc)
        pvals = _dyad_pvalues(cell_p, counts)
        _memo.entry = (key, cell_p, None)
    else:
        _, cell_p, tails = entry
        counts = cooc.copy()
        np.fill_diagonal(counts, 0)
        width = int(counts.max()) + 1
        if tails is None or tails[1].shape[0] < width:
            tails = class_pair_tails(cell_p, width)
            _memo.entry = (key, cell_p, tails)
        pair, table = tails
        pvals = table[counts, pair]
    effective = pvals
    if correction == "holm":
        iu, ju = np.triu_indices(rm.n_children, 1)
        effective = pvals.copy()  # its diagonal is 1 already
        effective[iu, ju] = effective[ju, iu] = holm_adjust(pvals[iu, ju])
    network = ((effective <= alpha) & (cooc >= 1)).astype(np.int8)
    np.fill_diagonal(network, 0)
    return BackboneResult(pvalues=pvals if pvalues else None, network=network, alpha=alpha,
                          correction=correction)
