# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled versions of the hot kernels (see _fallback.py for reference)."""

import numpy as np

cimport numpy as cnp

cnp.import_array()


def pb_upper_tail(probs, int observed):
    """P(X >= observed) for X a sum of independent Bernoulli trials."""
    cdef cnp.ndarray[cnp.float64_t, ndim=1] p = np.ascontiguousarray(probs, dtype=np.float64)
    cdef Py_ssize_t m = p.shape[0]
    if observed <= 0:
        return 1.0
    if observed > m:
        return 0.0
    cdef cnp.ndarray[cnp.float64_t, ndim=1] pmf = np.zeros(m + 1)
    pmf[0] = 1.0
    cdef Py_ssize_t k, j
    cdef double pk, last, tmp
    for k in range(m):
        pk = p[k]
        pmf[k + 1] = pk * pmf[k]
        last = pmf[0]
        pmf[0] = (1.0 - pk) * last
        for j in range(1, k + 1):
            tmp = pmf[j]
            pmf[j] = pk * last + (1.0 - pk) * tmp
            last = tmp
    cdef double tail = 0.0
    for j in range(m, observed - 1, -1):
        tail += pmf[j]
    return tail


def dyad_pvalues(cell_probs, cooc):
    """Upper-tail Poisson-binomial p-value for every dyad (diagonal = 1)."""
    cdef cnp.ndarray[cnp.float64_t, ndim=2] P = np.ascontiguousarray(cell_probs, dtype=np.float64)
    cdef cnp.ndarray[cnp.int64_t, ndim=2] C = np.ascontiguousarray(cooc, dtype=np.int64)
    cdef Py_ssize_t n = P.shape[0]
    cdef Py_ssize_t m = P.shape[1]
    cdef cnp.ndarray[cnp.float64_t, ndim=2] out = np.ones((n, n))
    cdef cnp.ndarray[cnp.float64_t, ndim=1] pmf = np.empty(m + 1)
    cdef Py_ssize_t i, j, k, t
    cdef long obs
    cdef double pk, last, tmp, tail
    for i in range(n):
        for j in range(i + 1, n):
            obs = C[i, j]
            if obs <= 0:
                continue
            if obs > m:
                out[i, j] = 0.0
                out[j, i] = 0.0
                continue
            pmf[0] = 1.0
            for k in range(m):
                pk = P[i, k] * P[j, k]
                pmf[k + 1] = pk * pmf[k]
                last = pmf[0]
                pmf[0] = (1.0 - pk) * last
                for t in range(1, k + 1):
                    tmp = pmf[t]
                    pmf[t] = pk * last + (1.0 - pk) * tmp
                    last = tmp
            tail = 0.0
            for t in range(m, obs - 1, -1):
                tail += pmf[t]
            if tail > 1.0:
                tail = 1.0
            out[i, j] = tail
            out[j, i] = tail
    return out


def exact_partition_dp(adj, two_m=None):
    """Globally optimal modularity partition by O(3^n) subset DP.

    ``two_m`` as in the NumPy fallback: the total degree Q is normalised
    by, defaulting to ``adj``'s own.
    """
    cdef cnp.ndarray[cnp.int64_t, ndim=2] A = np.ascontiguousarray(adj, dtype=np.int64)
    cdef Py_ssize_t n = A.shape[0]
    cdef cnp.ndarray[cnp.float64_t, ndim=1] deg = A.sum(axis=1).astype(np.float64)
    cdef double tm = deg.sum() if two_m is None else two_m
    if tm == 0.0:
        return np.arange(n, dtype=np.int64), 0.0
    cdef Py_ssize_t full = 1 << n
    cdef cnp.ndarray[cnp.float64_t, ndim=1] score = np.zeros(full)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] in2 = np.zeros(full)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] dsum = np.zeros(full)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] rows = np.zeros(n, dtype=np.int64)
    cdef Py_ssize_t i, j
    for i in range(n):
        for j in range(n):
            if A[i, j]:
                rows[i] |= <long>1 << j
    cdef Py_ssize_t s, v, rest
    cdef long masked
    cdef int links
    for s in range(1, full):
        v = 0
        while not (s >> v) & 1:
            v += 1
        rest = s & (s - 1)
        masked = rows[v] & rest
        links = 0
        while masked:
            masked &= masked - 1
            links += 1
        in2[s] = in2[rest] + 2.0 * links
        dsum[s] = dsum[rest] + deg[v]
        score[s] = in2[s] / tm - (dsum[s] / tm) * (dsum[s] / tm)
    cdef cnp.ndarray[cnp.float64_t, ndim=1] best = np.full(full, -np.inf)
    cdef cnp.ndarray[cnp.int64_t, ndim=1] choice = np.zeros(full, dtype=np.int64)
    best[0] = 0.0
    cdef Py_ssize_t v_bit, sub, t
    cdef double b, val
    cdef Py_ssize_t c
    for s in range(1, full):
        v_bit = s & (-s)
        rest = s ^ v_bit
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
    cdef cnp.ndarray[cnp.int64_t, ndim=1] labels = np.empty(n, dtype=np.int64)
    s = full - 1
    cdef long label = 0
    while s:
        t = choice[s]
        for v in range(n):
            if (t >> v) & 1:
                labels[v] = label
        label += 1
        s ^= t
    remap = {}
    for v in range(n):
        if labels[v] not in remap:
            remap[labels[v]] = len(remap)
    out_labels = np.array([remap[int(labels[v])] for v in range(n)], dtype=np.int64)
    return out_labels, float(best[full - 1])
