"""The numerical kernels: Poisson-binomial upper tails, the exact
modularity DP and row bitsets.

The dyad p-values and ``backbone.poisson_binomial_upper_tail`` run one
survival recursion, ``survival_table`` (Hong, CSDA 2013, for background):
with S_k(t) = P(X_k >= t) for X_k the sum of the first k Bernoulli
trials,

    S_k(t) = p_k S_{k-1}(t-1) + (1 - p_k) S_{k-1}(t),  S_k(0) = 1.

Every term is a nonnegative sum, so nothing cancels and small tails keep
their relative precision. The recursion runs once per distinct column of
trials: ``dyad_pvalues`` groups dyads whose trials are bitwise equal,
and ``class_pair_tails`` tabulates every pair of classes at once.

It does not start from S_0(t) = 1[t = 0], but from the largest class of
equal trials (``block_order``): c trials of one probability q are one
Binomial(c, q) block, whose survival is its pmf summed from the top, and
only the other trials step. For the dyads the classes are the bitwise
equal columns of the cell probabilities, in a BiCM fit the reports of
one size, which give every dyad equal trials; a generated classroom
often gives most of its reports one size.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# the only backend, kept as a name that provenance records can report
BACKEND = "python"


def bitset_words(matrix) -> np.ndarray:
    """Row i as n_words little-endian uint64 words, a (rows, n_words)
    array: bit c % 64 of word c // 64 is set when matrix[i, c] != 0.
    There is at least one word, so a matrix of no columns gives zeros."""
    packed = np.packbits(np.asarray(matrix) != 0, axis=1, bitorder="little")
    rows, width = packed.shape
    words = np.zeros((rows, 8 * max(1, -(-width // 8))), dtype=np.uint8)
    words[:, :width] = packed
    return words.view("<u8")


def word_ints(words: np.ndarray) -> list[int]:
    """Each row of a (rows, n_words) array of uint64 words as one Python
    int, word 0 lowest: one ``tolist`` for one word, else one
    ``int.from_bytes`` a row."""
    if words.shape[1] == 1:
        return words.ravel().tolist()
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.ascontiguousarray(words, dtype="<u8")]


def bitset_rows(matrix) -> list[int]:
    """Row i as a Python int whose bit c is set when matrix[i, c] != 0."""
    return word_ints(bitset_words(matrix))


def survival_table(probs: np.ndarray, width: int, block: int) -> np.ndarray:
    """S_c(t) = P(X_c >= t) for t < ``width``, as a (width, d) table, where
    ``probs`` is (m, d) and X_c is a sum of independent Bernoulli trials:
    ``block`` trials of probability probs[0, c], then one of probs[k, c] for
    each later row k.

    A block of two or more trials starts the table as its Binomial
    survival (``_binomial_survival``); otherwise the table starts from
    S = 1[t = 0]. Each other trial then takes one vectorized step of the
    recursion, in order, and step k touches only the S(t) with
    t <= b + k + 1 that can be nonzero (b the block's size), so rows above
    the number of trials stay 0. Every operation is elementwise: a column's
    S(t) depends neither on how far the table reaches above t nor on the
    other columns, and many reads of one column cost one column of the
    recursion.
    """
    d = probs.shape[1]
    if block >= 2:
        start = _binomial_survival(probs[0], block, width)
        probs = probs[1:]
    else:
        start, block = np.ones((1, d)), 0
    surv = np.zeros((width, d))
    surv[: block + 1] = start
    del start  # free the block's work before the steps' arrays are made
    shifted = np.empty((width, d))
    complement = 1.0 - probs
    for k in range(probs.shape[0]):
        hi = min(block + k + 1, width - 1)
        np.multiply(surv[:hi], probs[k], out=shifted[:hi])
        surv[1 : hi + 1] *= complement[k]
        surv[1 : hi + 1] += shifted[:hi]
    return surv


def block_order(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """(order, c) for the trials that are the rows of ``keys`` (m, k).

    Rows that are bitwise equal form a class; c is the size of the largest
    (of classes of equal size, the one whose first row comes first), and
    ``order`` lists that class's first row, then every row outside the
    class, in order: the arguments ``survival_table`` takes, as
    ``probs[order]`` and ``block=c``.
    """
    rows = [row.tobytes() for row in np.ascontiguousarray(keys)]
    if not rows:
        return np.empty(0, dtype=np.intp), 0
    # most_common keeps first-seen order among equal counts
    best, c = Counter(rows).most_common(1)[0]
    order = [rows.index(best)] + [i for i, row in enumerate(rows) if row != best]
    return np.array(order, dtype=np.intp), c


def _two_product_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b - fl(a * b), exactly (Dekker's product, without an FMA)."""
    hi_a, hi_b = 134217729.0 * a, 134217729.0 * b  # 2^27 + 1
    hi_a, hi_b = hi_a - (hi_a - a), hi_b - (hi_b - b)
    lo_a, lo_b = a - hi_a, b - hi_b
    return ((hi_a * hi_b - a * b) + hi_a * lo_b + lo_a * hi_b) + lo_a * lo_b


def _binomial_survival(q: np.ndarray, c: int, width: int) -> np.ndarray:
    """P(Binomial(c, q) >= t) for t < min(``width``, c + 1), as a table of
    that many rows and one column per entry of ``q``.

    The pmf is built outward from its mode by the ratios
    f(j) = pmf(j) / pmf(j - 1) = (c + 1 - j) rho / j, rho = q / (1 - q):
    up is the running product of min(f(j), 1), down that of
    min(1 / f(j + 1), 1) from the top, so each is 1 on its side of the mode
    and their product is pmf / pmf(mode). The pmf is then summed from the
    top and divided by its total: every term is nonnegative, so small tails
    keep their relative precision. rho is rounded once, and that error
    would grow with the distance from the mode (to 2e-13 at 10,000 trials).
    So the exact remainders of 1 - q and of q / (1 - q) give rho's relative
    error e, and as pmf(j) is proportional to C(c, j) rho^j, term j is
    corrected by (1 + e)^j ~ 1 + j e; the total absorbs the constant factor.
    q = 0 and q = 1 are exact.

    1 / f(j + 1) is (j + 1) / (c - j) divided by rho. The dividend grows
    with j and rounded division is monotone in each operand, so from the
    first row r1 at which it reaches 1 for the largest rho, down's factor is
    exactly 1 in every column and down itself is 1: it is built only on the
    rows below r1. The pmf's whole sum is the total, but only the rows
    that the table keeps are normalised. Two (c + 1, d) arrays hold all the
    work.
    """
    inner = (q > 0.0) & (q < 1.0)
    p = np.where(inner, q, 0.5)
    h = 1.0 - p
    low = (1.0 - h) - p  # 1 - p = h + low exactly
    rho = p / h
    err = -((rho * h - p) + _two_product_error(rho, h)) / p - low / h
    j = np.arange(c + 1.0)
    with np.errstate(divide="ignore"):  # the ratios into j = 0 and out of j = c are inf
        up = np.multiply.outer((c + 1 - j) / j, rho)
        into = (j + 1) / (c - j)
        # the ratio out of j = c is inf, so some row reaches 1
        r1 = int(np.argmax(into / rho.max(initial=0.0) >= 1.0))
    np.minimum(up, 1.0, out=up)
    np.cumprod(up, axis=0, out=up)
    work = np.empty_like(up)
    down = np.divide.outer(into[:r1], rho, out=work[:r1])
    np.minimum(down, 1.0, out=down)
    np.cumprod(down[::-1], axis=0, out=down[::-1])
    up[:r1] *= down
    np.multiply.outer(j, err, out=work)
    work += 1.0
    up *= work
    surv = np.cumsum(up[::-1], axis=0, out=work[::-1])[::-1]
    surv = surv[:width]
    surv /= surv[0]
    surv[:, ~inner] = j[: surv.shape[0], None] <= np.where(q[~inner] == 1.0, c, 0)
    return surv


def _row_classes(cell_probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, row_class): rows that are bitwise equal share a class, and
    first[c] is the first row of class c."""
    n, m = cell_probs.shape
    # a row's key is its bytes; with no columns, every row is equal
    keys = cell_probs.view(np.dtype((np.void, 8 * m))).reshape(n) if m else np.zeros(n)
    _, first, row_class = np.unique(keys, return_index=True, return_inverse=True)
    return first, row_class


def _pair_trials(
    cell_probs: np.ndarray, rep_a: np.ndarray, rep_b: np.ndarray
) -> tuple[np.ndarray, int]:
    """``survival_table``'s (probs, block) for the trials of the row pairs
    (rep_a[i], rep_b[i]): column k of ``cell_probs`` gives each pair the
    trial cell_probs[rep_a, k] * cell_probs[rep_b, k], and bitwise-equal
    columns give every pair equal trials, so the largest class of columns
    is the block."""
    order, block = block_order(cell_probs.T)
    cells = cell_probs[:, order]
    probs = cells[rep_a]
    probs *= cells[rep_b]
    return np.ascontiguousarray(probs.T), block  # (trials, pairs)


def dyad_pvalues(cell_probs: np.ndarray, cooc: np.ndarray) -> np.ndarray:
    """Upper-tail Poisson-binomial p-values for every dyad.

    For dyad (i, j) the null co-occurrence count over reports is a sum of
    independent Bernoulli(cell_probs[i, k] * cell_probs[j, k]) trials; the
    p-value is P(X >= cooc[i, j]). A dyad that never co-occurs has p = 1
    exactly and is not computed; with none co-occurring, the call returns
    at once. Symmetric, diagonal 1.

    Rows of ``cell_probs`` that are bitwise equal form a class (in a BiCM
    fit, the children of one degree), and the trials of a dyad depend only
    on its pair of classes. So the recursion runs one column per unordered
    class pair that has a co-occurring dyad, and each dyad reads
    S(cooc[i, j]) from its pair's column. Columns of ``cell_probs`` that are
    bitwise equal (in a BiCM fit, the reports of one size) give every dyad
    equal trials, and the largest class of them is one binomial block
    (``survival_table``). That is bit for bit the per-dyad result wherever
    the dyad's own largest class of equal trials is that block: equal rows
    give equal products, and a product does not depend on the order of its
    factors. A count above m is read from S(m + 1), which is 0.
    """
    cell_probs = np.ascontiguousarray(cell_probs, dtype=np.float64)
    cooc = np.asarray(cooc)
    n, m = cell_probs.shape
    out = np.ones((n, n))
    iu, ju = np.nonzero(np.triu(cooc, 1) > 0)  # row-major, as np.triu_indices
    if not iu.size:
        return out
    observed = np.minimum(cooc[iu, ju], m + 1)
    first, row_class = _row_classes(cell_probs)
    a, b = row_class[iu], row_class[ju]
    pairs, pair = np.unique(
        np.minimum(a, b) * n + np.maximum(a, b), return_inverse=True
    )
    probs, block = _pair_trials(cell_probs, first[pairs // n], first[pairs % n])
    surv = survival_table(probs, int(observed.max(initial=0)) + 1, block)
    vals = np.minimum(surv[observed, pair], 1.0)
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


def class_pair_tails(cell_probs: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``dyad_pvalues(cell_probs, cooc)`` for every ``cooc`` whose
    off-diagonal counts lie in [0, width), as one lookup table.

    Returns (pair, table): pair[i, j] is the column of the class pair of
    rows i and j, and table[t, c] = min(S_c(t), 1). The recursion runs
    every unordered class pair, co-occurring or not, from the same block
    and trial order as ``dyad_pvalues``, so with the diagonal of ``cooc``
    set to 0, ``table[cooc, pair]`` is ``dyad_pvalues``'s matrix bit for
    bit: a column depends neither on the others nor on the table's width,
    and table[0] is 1.
    """
    cell_probs = np.ascontiguousarray(cell_probs, dtype=np.float64)
    first, row_class = _row_classes(cell_probs)
    a, b = np.triu_indices(first.size)
    pair_of = np.empty((first.size, first.size), dtype=np.intp)
    pair_of[a, b] = pair_of[b, a] = np.arange(a.size)
    probs, block = _pair_trials(cell_probs, first[a], first[b])
    table = np.minimum(survival_table(probs, width, block), 1.0)
    return pair_of[np.ix_(row_class, row_class)], table


def exact_partition_dp(
    adj: np.ndarray, two_m: float | None = None
) -> tuple[np.ndarray, float]:
    """Globally optimal modularity partition by subset dynamic programming.

    O(3^n) time and several lists of 2^n floats; intended for n <= ~14.
    ``two_m`` is the total degree that Q is normalised by. It defaults to
    ``adj``'s own; pass the whole network's when ``adj`` is one of its
    connected components, so that the component's Q terms add up to the
    whole network's Q. Returns (labels, Q).
    """
    adj = np.asarray(adj)
    n = adj.shape[0]
    deg = adj.sum(axis=1).astype(np.float64)
    two_m = float(deg.sum() if two_m is None else two_m)
    if two_m == 0.0:
        return np.arange(n, dtype=np.int64), 0.0
    full = 1 << n
    # internal edge count (times 2) and degree sum for every subset,
    # built incrementally from the subset minus its lowest bit, and the
    # subset's modularity term; Python lists, which the 3^n loop below
    # indexes faster than NumPy arrays
    in2 = [0.0] * full
    dsum = [0.0] * full
    score = [0.0] * full
    adj_rows = bitset_rows(adj)
    deg = deg.tolist()
    for s in range(1, full):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        in2[s] = i = in2[rest] + 2.0 * (adj_rows[v] & rest).bit_count()
        dsum[s] = d = dsum[rest] + deg[v]
        d /= two_m
        score[s] = i / two_m - d * d
    best = [0.0] * full
    choice = [0] * full
    for s in range(1, full):
        v_bit = s & -s
        rest = s ^ v_bit
        # enumerate subsets t of s that contain the lowest bit
        sub = rest
        b = -math.inf
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
    # choice[s] holds the lowest vertex of s, so blocks are numbered in
    # order of their first vertex: the labels are canonical
    labels = np.empty(n, dtype=np.int64)
    s = full - 1
    label = 0
    while s:
        t = choice[s]
        for v in range(n):
            if t >> v & 1:
                labels[v] = label
        label += 1
        s ^= t
    return labels, best[full - 1]
