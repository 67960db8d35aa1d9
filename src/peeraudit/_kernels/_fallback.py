"""Pure-numpy implementations of the hot kernels.

Used when the compiled extension is unavailable (or disabled via the
PEERAUDIT_NO_EXT environment variable). Results agree with the compiled
versions to floating-point rounding.
"""

from __future__ import annotations

import numpy as np


def pb_upper_tail(probs: np.ndarray, observed: int) -> float:
    """P(X >= observed) for X a sum of independent Bernoulli(probs) trials.

    Exact O(m^2) convolution of the probability generating function.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.shape[0]
    if observed <= 0:
        return 1.0
    if observed > m:
        return 0.0
    pmf = np.zeros(m + 1)
    pmf[0] = 1.0
    for k, p in enumerate(probs):
        pmf[1 : k + 2] = pmf[1 : k + 2] * (1.0 - p) + pmf[: k + 1] * p
        pmf[0] *= 1.0 - p
    return float(pmf[observed:].sum())


def dyad_pvalues(cell_probs: np.ndarray, cooc: np.ndarray) -> np.ndarray:
    """Upper-tail Poisson-binomial p-values for every dyad.

    For dyad (i, j) the null co-occurrence count over reports is a sum of
    independent Bernoulli(cell_probs[i, k] * cell_probs[j, k]) trials; the
    p-value is P(X >= cooc[i, j]). All dyad convolutions run in lockstep,
    one vectorized step per report. Diagonal is set to 1.
    """
    cell_probs = np.asarray(cell_probs, dtype=np.float64)
    cooc = np.asarray(cooc)
    n, m = cell_probs.shape
    out = np.ones((n, n))
    if n < 2:
        return out
    iu, ju = np.triu_indices(n, 1)
    probs = cell_probs[iu] * cell_probs[ju]  # (n_dyads, m)
    pmf = np.zeros((len(iu), m + 1))
    pmf[:, 0] = 1.0
    for k in range(m):
        p = probs[:, k : k + 1]
        pmf[:, 1 : k + 2] = pmf[:, 1 : k + 2] * (1.0 - p) + pmf[:, : k + 1] * p
        pmf[:, 0] *= 1.0 - p[:, 0]
    # survival at the observed count: sum pmf[obs:] via reverse cumsum
    rev = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    obs = np.clip(cooc[iu, ju], 0, m).astype(np.int64)
    vals = np.take_along_axis(rev, obs[:, None], axis=1)[:, 0]
    vals = np.minimum(vals, 1.0)
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
    low_links = np.zeros(full)  # links from lowest bit of S to the rest of S
    adj_rows = [int(sum(1 << j for j in np.flatnonzero(adj[i]))) for i in range(n)]
    for s in range(1, full):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        links = bin(adj_rows[v] & rest).count("1")
        low_links[s] = links
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
