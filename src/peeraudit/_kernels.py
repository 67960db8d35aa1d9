"""The numerical kernels: Poisson-binomial upper tails and the exact
modularity DP.

The dyad p-values and ``backbone.poisson_binomial_upper_tail`` run one
survival recursion, ``_upper_tails`` (Hong, CSDA 2013, for background):
with S_k(t) = P(X_k >= t) for X_k the sum of the first k Bernoulli
trials,

    S_k(t) = p_k S_{k-1}(t-1) + (1 - p_k) S_{k-1}(t),  S_k(0) = 1.

Every term is a nonnegative sum, so nothing cancels and small tails keep
their relative precision.
"""

from __future__ import annotations

import numpy as np

# the only backend, kept as a name that provenance records can report
BACKEND = "python"


def _upper_tails(probs: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """P(X_d >= observed[d]) for every column d of ``probs`` (m, d), where
    X_d is a sum of independent Bernoulli(probs[:, d]) trials.

    All columns run in lockstep, one vectorized step per trial. Only
    S(0..max(observed)) is kept, and step k touches only the S(t) with
    t <= k + 1 that can be nonzero. An observed count above m is read from
    S(m + 1), which no step touches and so stays 0.
    """
    m, d = probs.shape
    observed = np.clip(observed, 0, m + 1)
    width = int(observed.max(initial=0)) + 1
    surv = np.zeros((width, d))
    surv[0] = 1.0
    shifted = np.empty((width, d))
    complement = 1.0 - probs
    for k in range(m):
        hi = min(k + 1, width - 1)
        np.multiply(surv[:hi], probs[k], out=shifted[:hi])
        surv[1 : hi + 1] *= complement[k]
        surv[1 : hi + 1] += shifted[:hi]
    return np.minimum(surv[observed, np.arange(d)], 1.0)


def dyad_pvalues(cell_probs: np.ndarray, cooc: np.ndarray) -> np.ndarray:
    """Upper-tail Poisson-binomial p-values for every dyad.

    For dyad (i, j) the null co-occurrence count over reports is a sum of
    independent Bernoulli(cell_probs[i, k] * cell_probs[j, k]) trials; the
    p-value is P(X >= cooc[i, j]). A dyad that never co-occurs has p = 1
    exactly and is not computed. Symmetric, diagonal 1.
    """
    cell_probs = np.asarray(cell_probs, dtype=np.float64)
    cooc = np.asarray(cooc)
    n = cell_probs.shape[0]
    out = np.ones((n, n))
    iu, ju = np.triu_indices(n, 1)
    observed = cooc[iu, ju]
    keep = observed > 0
    iu, ju, observed = iu[keep], ju[keep], observed[keep]
    probs = np.ascontiguousarray((cell_probs[iu] * cell_probs[ju]).T)  # (m, n_dyads)
    vals = _upper_tails(probs, observed)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


def exact_partition_dp(
    adj: np.ndarray, two_m: float | None = None
) -> tuple[np.ndarray, float]:
    """Globally optimal modularity partition by subset dynamic programming.

    O(3^n) time and several arrays of 2^n floats; intended for n <= ~14.
    ``two_m`` is the total degree that Q is normalised by. It defaults to
    ``adj``'s own; pass the whole network's when ``adj`` is one of its
    connected components, so that the component's Q terms add up to the
    whole network's Q. Returns (labels, Q).
    """
    adj = np.asarray(adj)
    n = adj.shape[0]
    deg = adj.sum(axis=1).astype(np.float64)
    if two_m is None:
        two_m = float(deg.sum())
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), 0.0
    full = 1 << n
    # internal edge count (times 2) and degree sum for every subset,
    # built incrementally from the subset minus its lowest bit
    in2 = np.zeros(full)
    dsum = np.zeros(full)
    adj_rows = [int(sum(1 << j for j in np.flatnonzero(adj[i]))) for i in range(n)]
    for s in range(1, full):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        links = bin(adj_rows[v] & rest).count("1")
        in2[s] = in2[rest] + 2.0 * links
        dsum[s] = dsum[rest] + deg[v]
    score = in2 / two_m - (dsum / two_m) ** 2
    best = np.full(full, -np.inf)
    best[0] = 0.0
    choice = np.zeros(full, dtype=np.int64)
    for s in range(1, full):
        v_bit = s & -s
        rest = s ^ v_bit
        # enumerate subsets t of s that contain the lowest bit
        sub = rest
        b = -np.inf
        c = 0
        while True:
            t = sub | v_bit
            val = score[t] + best[s ^ t]
            if val > b:
                b = val
                c = t
            if sub == 0:
                break
            sub = (sub - 1) & rest
        best[s] = b
        choice[s] = c
    labels = np.empty(n, dtype=np.int64)
    s = full - 1
    label = 0
    while s:
        t = int(choice[s])
        for v in range(n):
            if t >> v & 1:
                labels[v] = label
        label += 1
        s ^= t
    # canonical labels: renumber by first appearance
    remap: dict[int, int] = {}
    for v in range(n):
        remap.setdefault(int(labels[v]), len(remap))
    labels = np.array([remap[int(x)] for x in labels], dtype=np.int64)
    return labels, float(best[full - 1])
