"""Random recall matrices with no planted group structure.

Two null models: fixed-margin curveball shuffles of an observed matrix,
and a five-parameter synthetic classroom generator (size, report count,
nomination probability, and skews of child salience and report size).
``null_draws`` maps a trial's seed to its classroom under either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._kernels import bitset_rows
from .recall import MAX_CHILDREN, MAX_REPORTS, DataError, RecallMatrix

# Ranges of the profiles that sample_profile draws uniformly. The largest
# mean report size they allow, 0.45 * 40 = 18, is below the generator's
# limit of min(MAX_REPORT_SIZE, n) + 0.5 for every n, so each is feasible.
PROFILE_BOUNDS = {
    "n_children": (15, 40),
    "n_reports": (15, 200),
    "nomination_probability": (0.10, 0.45),
    "nomination_skew": (-1.77, 1.99),
    "group_size_skew": (-0.52, 2.37),
}

MAX_REPORT_SIZE = 20
# largest |nomination_skew|. At +10 the salience Beta's first shape is
# 0.024, and a weight underflows to 0 with probability about 2e-8; at +30
# (0.0027) a two-child class draws only zeros on 49 of 3000 seeds, and its
# odds are NaN. Below -10, weights pile up at 1.0 in the same way.
MAX_NOMINATION_SKEW = 10.0
# uniforms drawn per batch by the report sampler; bounds its memory
_UNIFORM_BATCH = 8192
_CONCENTRATION_RANGE = (0.05, 1e4)
# concentration of the Beta that child salience weights are drawn from
_SALIENCE_CONCENTRATION = 5.0


class InfeasibleProfileError(DataError):
    """Raised when a classroom profile cannot be realized."""


@dataclass(frozen=True)
class ClassroomProfile:
    """Generator parameters for one synthetic classroom."""

    n_children: int
    n_reports: int
    nomination_probability: float
    nomination_skew: float
    group_size_skew: float

    def __post_init__(self):
        for name in ("n_children", "n_reports"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("nomination_probability", "nomination_skew", "group_size_skew"):
            value = getattr(self, name)
            # compared, not passed to math.isfinite, which overflows on a huge int
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not -np.inf < value < np.inf):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 2 <= self.n_children <= MAX_CHILDREN:
            raise ValueError(f"n_children must be in [2, {MAX_CHILDREN}], got {self.n_children}")
        if not 1 <= self.n_reports <= MAX_REPORTS:
            raise ValueError(f"n_reports must be in [1, {MAX_REPORTS}], got {self.n_reports}")
        if not 0.0 < self.nomination_probability < 1.0:
            raise ValueError("nomination_probability must be in (0, 1)")
        if not -MAX_NOMINATION_SKEW <= self.nomination_skew <= MAX_NOMINATION_SKEW:
            raise ValueError(
                f"nomination_skew must be in [{-MAX_NOMINATION_SKEW:g}, {MAX_NOMINATION_SKEW:g}],"
                f" got {self.nomination_skew}"
            )


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def skewness(x) -> float:
    """Adjusted Fisher-Pearson sample skewness (bias-corrected g1).

    The moments and the correction are evaluated as ``scipy.stats.skew(x,
    bias=False)`` evaluates them, without importing ``scipy.stats``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError("skewness needs at least 3 values")
    if x.max() - x.min() == 0:
        raise ValueError("skewness undefined for a constant vector")
    n = x.size
    # the arithmetic of .mean() and np.ptp, without their wrappers
    d = x - np.add.reduce(x, axis=None) / n
    d2 = d * d
    m2 = np.add.reduce(d2, axis=None) / n
    m3 = np.add.reduce(d2 * d, axis=None) / n
    return float(((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5)


def curveball_randomize(
    rm: RecallMatrix, n_trades: int | None = None, seed=None
) -> RecallMatrix:
    """Fixed-margin shuffle by curveball trades (Strona et al. 2014).

    Each trade picks two rows and exchanges a random subset of the column
    indices held by exactly one of them, keeping both row sums (and all
    column sums) intact. Default trade count is 5x the number of rows.

    Rows are Python-int bitsets (bit c: column c). Each trade draws rows
    i and j as ``rng.choice(n, size=2, replace=False)`` draws them, and
    from the same 32-bit words of the bit generator, read through its
    ``ctypes`` interface. That draw is Floyd's algorithm: i uniform on
    [0, n - 2] (no word when n == 2), j uniform on [0, n - 1], replaced
    by n - 1 when it equals i, then one word whose top bit, when 0,
    swaps them. Each bounded draw is Lemire's: x = word * span, redrawn
    while its low 32 bits fall below 2**32 % span, gives x >> 32. Then,
    only when each row holds a column the other lacks, the trade calls
    ``rng.shuffle`` on the pool: the bits of the columns held by exactly
    one of them, lowest column first. Rows are padded to whole 64-bit
    words, and the pool is listed a word at a time, lowest word first:
    one list display of its eight bytes' entries in per-byte tables
    (``_pool_tables``), which list a byte's bits lowest first. So the
    pool is in the ascending order that a loop over its bits gives.
    ``shuffle`` draws the same for a list as for an array of the same
    length, so this is the shuffle of the sorted column indices. The
    first ``popcount(a & ~b)`` shuffled bits go to row i and the rest to
    row j, so a seed gives one matrix and leaves the generator in one
    state, that of the ``rng.choice`` and ``rng.shuffle`` calls.

    The ``ctypes`` calls do not take the generator's lock: no other
    thread may use the generator during the call.
    """
    rng = as_rng(seed)
    n, m = rm.entries.shape
    if n_trades is None:
        n_trades = 5 * n
    if n_trades < 0:
        raise ValueError("n_trades must be >= 0")
    if n < 2 or n_trades == 0:
        return RecallMatrix._unchecked(rm.children, rm.entries.copy())
    n_bytes = (m + 63) // 64 * 8
    # the byte tables of each word, lowest byte first
    words = list(zip(*[iter(_pool_tables(n_bytes))] * 8))
    rows = bitset_rows(rm.entries)
    shuffle = rng.shuffle
    bits = rng.bit_generator.ctypes
    next32, state = bits.next_uint32, bits.state
    last = n - 1
    # Lemire's rejection floors for the spans of i (n - 1) and j (n)
    floor_i, floor_j = (1 << 32) % last, (1 << 32) % n
    for _ in range(n_trades):
        i = 0
        if n > 2:
            x = next32(state) * last
            while x & 0xFFFFFFFF < floor_i:
                x = next32(state) * last
            i = x >> 32
        x = next32(state) * n
        while x & 0xFFFFFFFF < floor_j:
            x = next32(state) * n
        j = x >> 32
        if j == i:
            j = last
        if not next32(state) >> 31:
            i, j = j, i
        a, b = rows[i], rows[j]
        shared = a & b
        if shared == a or shared == b:
            continue
        either = a ^ b
        data = iter(either.to_bytes(n_bytes, "little"))
        pool = []
        for t0, t1, t2, t3, t4, t5, t6, t7 in words:
            pool += [*t0[next(data)], *t1[next(data)], *t2[next(data)], *t3[next(data)],
                     *t4[next(data)], *t5[next(data)], *t6[next(data)], *t7[next(data)]]
        shuffle(pool)
        new_a_only = sum(pool[: (a ^ shared).bit_count()])
        rows[i] = shared | new_a_only
        rows[j] = shared | (either ^ new_a_only)
    packed = np.frombuffer(
        b"".join(r.to_bytes(n_bytes, "little") for r in rows), dtype=np.uint8
    ).reshape(n, n_bytes)
    entries = np.unpackbits(packed, axis=1, count=m, bitorder="little")
    return RecallMatrix._unchecked(rm.children, entries.view(np.int8))


@cache
def _pool_tables(n_bytes: int) -> tuple:
    """Per-byte tables of column bits that cover rows of ``n_bytes`` bytes.

    Entry k, v lists the bits 1 << (8k + c) of the columns c set in byte
    value v at byte k, lowest first, each bit one int object shared by
    that byte's 256 entries. The tables are cached per byte offset, so
    each is built once per process and every width shares it; threads that
    ask at once for a table not yet cached may each build an equal copy.
    """
    return tuple(map(_byte_table, range(n_bytes)))


@cache
def _byte_table(k: int) -> tuple:
    # for v < 2**c, entry v + 2**c is entry v with bit c, its highest, appended
    table = [()]
    for c in range(8):
        bit = 1 << (8 * k + c)
        table += [bits + (bit,) for bits in table]
    return tuple(table)


def _solve_concentration(mean: float, target_skew: float) -> float:
    """Concentration c of a Beta with the given mean whose skewness is as
    close as possible to the target (clamped to a stable range). The
    skewness is a w / (w**2 + 1) with a = 2 (1 - 2 mean) / sqrt(mean (1 - mean))
    and w = sqrt(c + 1); its size falls from |a| / 2 as c grows from 0, so
    w is the larger root of t w**2 - w + t = 0, t = |target / a|.
    """
    lo, hi = _CONCENTRATION_RANGE
    if not target_skew * (1.0 - 2.0 * mean) > 0.0:
        return hi  # skew -> 0 as concentration grows; closest we can get
    t = abs(target_skew * math.sqrt(mean * (1.0 - mean)) / (2.0 * (1.0 - 2.0 * mean)))
    # for t >= 1/2 (beyond the skew of any c) this gives w <= 1, so c = lo
    w = (1.0 + math.sqrt(max(1.0 - 4.0 * t * t, 0.0))) / (2.0 * t)
    return min(max(w * w - 1.0, lo), hi)


def _solve_mean_for_skew(target_skew: float) -> float:
    """Mean of a Beta with concentration c = ``_SALIENCE_CONCENTRATION`` and
    the target skewness, 2 sqrt(c + 1) / (c + 2) times (1 - 2 mean) /
    sqrt(mean (1 - mean)); that factor falls from +inf to -inf over (0, 1),
    so any target is reachable, and equals the k below at the mean returned."""
    c = _SALIENCE_CONCENTRATION
    k = target_skew * (c + 2.0) / (2.0 * math.sqrt(c + 1.0))
    return 0.5 - 0.5 * k / math.sqrt(4.0 + k * k)


def _subset_weight_table(odds: np.ndarray, max_size: int) -> np.ndarray:
    """Weighted counts of k-subsets of items i..n-1 (conditional Poisson DP).

    table[k, i] = sum over k-subsets S of {i..n-1} of prod(odds[S]).
    Shared by every report of a classroom; scale-invariant in the odds.
    Row k is the reversed cumulative sum of odds[i] * table[k - 1, i + 1].
    ``np.cumsum`` adds in order, so each cell is the sum that the recursion
    table[k, i] = odds[i] table[k - 1, i + 1] + table[k, i + 1] forms.
    """
    n = odds.size
    table = np.zeros((max_size + 1, n + 1))
    table[0, :] = 1.0
    for k in range(1, max_size + 1):
        np.cumsum((odds * table[k - 1, 1:])[::-1], out=table[k, -2::-1])
    return table


def _draw_reports(rng: np.random.Generator, odds: np.ndarray, sizes: list[int]) -> list[int]:
    """The members of every report, report by report, each in child order.

    Report j is a fixed-size subset of ``sizes[j]`` >= 1 children drawn by the
    conditional Poisson design (Chen, Dempster & Liu 1994): P(S) is
    proportional to prod(odds[S]) over subsets of that size, so fixed-size
    reports stay compatible with a multiplicative (maximum-entropy)
    cell-probability null. A report walks the children in order, takes
    all that are left once as many are left as it still needs, and
    otherwise takes child i when a uniform falls below its inclusion
    probability given the number still needed. The walk reads the row of
    inclusion probabilities of the number still needed, up to the child at
    which that many are left, and moves to the next row at each child taken.

    The uniforms are drawn in batches of at most ``_UNIFORM_BATCH``, and a
    batch is refilled only between reports, once fewer than n of its
    uniforms are left. The reports read a batch through one iterator over
    a memoryview of it, so a uniform becomes a Python float only when a
    walk reads it, and a report that has read k uniforms has moved the
    iterator k places. Before each batch the generator state is saved;
    once the reports have used k of its uniforms, the state is restored
    and ``rng.random(k)`` is drawn. So on any bit generator the reports,
    and the generator's next draw, are those of one ``rng.random()`` call
    per uniform used.
    """
    n = odds.size
    table = _subset_weight_table(odds, max(sizes))
    denom = table[1:, :-1]
    # p_inc[need][i]: inclusion probability of child i with need members to go
    p_inc = np.ones((denom.shape[0] + 1, n))
    np.divide(odds * table[:-1, 1:], denom, out=p_inc[1:], where=denom > 0)
    p_inc = p_inc.tolist()
    # a report uses fewer than n uniforms, so one that starts with n or
    # more left in its batch never runs past the end
    batch = max(_UNIFORM_BATCH, n)
    drawn = used = 0
    state = None
    members: list[int] = []
    for j, need in enumerate(sizes):
        if drawn - used < n:
            if state is not None:
                rng.bit_generator.state = state
                rng.random(used)
            state = rng.bit_generator.state
            drawn = min(batch, n * (len(sizes) - j))
            uniforms = iter(memoryview(rng.random(drawn)))
            used = 0
        # child i reads the next uniform; from child stop on, all are needed
        row, stop = p_inc[need], n - need
        i = 0
        if stop:
            for u in uniforms:
                if u < row[i]:
                    members.append(i)
                    i += 1
                    need -= 1
                    if not need:
                        break
                    row = p_inc[need]
                    stop += 1
                else:
                    i += 1
                    if i == stop:
                        members.extend(range(i, n))
                        break
        else:
            members.extend(range(n))
        used += i
    rng.bit_generator.state = state
    rng.random(used)
    return members


def check_feasible(profile: ClassroomProfile) -> tuple[float, int]:
    """(mean report size, largest report size) of the profile; a mean above
    the largest + 0.5 cannot be realized and raises ``InfeasibleProfileError``."""
    size_max = min(MAX_REPORT_SIZE, profile.n_children)
    mean_size = profile.nomination_probability * profile.n_children
    if mean_size > size_max + 0.5:
        raise InfeasibleProfileError(
            f"mean report size {mean_size:.2f} (nomination_probability x n_children)"
            f" exceeds the support maximum {size_max}"
        )
    return mean_size, size_max


def generate_classroom(profile: ClassroomProfile, seed=None) -> RecallMatrix:
    """Random classroom with the profile's margins-in-expectation.

    Report sizes come from a Beta moment-matched to the target mean
    (nomination probability x class size, clamped to [1, 20]) and size
    skew; per-child salience weights come from a Beta matched to the
    nomination skew; each report samples members without replacement with
    probability proportional to salience weight. Realized skews should be
    measured from the output, not assumed equal to the targets.
    """
    mean_size, size_max = check_feasible(profile)
    rng = as_rng(seed)
    n, m = profile.n_children, profile.n_reports
    mean01 = min(max((mean_size - 1.0) / (size_max - 1.0), 0.02), 0.98)
    conc = _solve_concentration(mean01, profile.group_size_skew)
    draws = rng.beta(mean01 * conc, (1.0 - mean01) * conc, size=m)
    sizes = np.rint(1.0 + draws * (size_max - 1.0)).astype(np.int64)
    sizes = np.minimum(np.maximum(sizes, 1), size_max)
    w_mean = _solve_mean_for_skew(profile.nomination_skew)
    weights = rng.beta(
        w_mean * _SALIENCE_CONCENTRATION, (1.0 - w_mean) * _SALIENCE_CONCENTRATION, size=n
    )
    # np.add.reduce(weights) / n is the arithmetic of weights.mean()
    odds = np.minimum(np.maximum(weights / (np.add.reduce(weights) / n), 1e-8), 1e8)
    members = _draw_reports(rng, odds, sizes.tolist())
    entries = np.zeros((n, m), dtype=np.int8)
    entries[members, np.repeat(np.arange(m), sizes)] = 1
    return RecallMatrix._unchecked(_child_names(n), entries)


@cache  # at most MAX_CHILDREN - 1 class sizes
def _child_names(n: int) -> tuple[str, ...]:
    return tuple(f"c{i + 1:02d}" for i in range(n))


def draw_classroom(
    rng: np.random.Generator, profile: ClassroomProfile | None = None
) -> tuple[ClassroomProfile, RecallMatrix]:
    """One synthetic classroom; returns (profile, matrix).

    Without ``profile``, one is drawn by ``sample_profile``; every profile
    within ``PROFILE_BOUNDS`` is feasible. A fixed ``profile`` that is
    infeasible raises ``InfeasibleProfileError``.
    """
    if profile is None:
        profile = sample_profile(seed=rng)
    return profile, generate_classroom(profile, seed=rng)


def null_draws(null, rm: RecallMatrix | None = None, profile: ClassroomProfile | None = None):
    """The classrooms of one null model, as a map from a trial's seed to
    (classroom, generator profile or None): ``"shuffle"`` maps it to
    ``curveball_randomize(rm, seed=seed)``, ``"generate"`` to
    ``draw_classroom(default_rng(seed), profile)`` (a profile drawn per
    seed when ``profile`` is None), and ``None`` to ``rm`` itself.
    ``"shuffle"`` and ``None`` without an ``rm`` raise ``ValueError``."""
    if null in ("shuffle", None) and rm is None:
        raise ValueError(f"null model {null!r} needs a recall matrix rm")
    if null == "shuffle":
        return lambda seed: (curveball_randomize(rm, seed=seed), None)
    if null == "generate":
        return lambda seed: draw_classroom(np.random.default_rng(seed), profile)[::-1]
    if null is None:
        return lambda seed: (rm, None)
    raise ValueError(f"unknown null model {null!r}; expected 'shuffle', 'generate' or None")


def sample_profile(seed=None) -> ClassroomProfile:
    """Uniform draw of a profile within ``PROFILE_BOUNDS``."""
    rng = as_rng(seed)
    b = PROFILE_BOUNDS
    lo, hi = b["n_children"]
    n_children = int(rng.integers(lo, hi + 1))
    lo, hi = b["n_reports"]
    n_reports = int(rng.integers(lo, hi + 1))
    return ClassroomProfile(
        n_children=n_children,
        n_reports=n_reports,
        nomination_probability=float(rng.uniform(*b["nomination_probability"])),
        nomination_skew=float(rng.uniform(*b["nomination_skew"])),
        group_size_skew=float(rng.uniform(*b["group_size_skew"])),
    )
