"""Fixed-margin shuffles and the synthetic classroom generator."""

import itertools
import sys
import threading
import warnings
from operator import is_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from peeraudit import nullmodels
from peeraudit.datasets import load_benchmark
from peeraudit.nullmodels import (
    MAX_NOMINATION_SKEW,
    MAX_REPORT_SIZE,
    PROFILE_BOUNDS,
    ClassroomProfile,
    InfeasibleProfileError,
    as_rng,
    curveball_randomize,
    draw_classroom,
    generate_classroom,
    sample_profile,
    skewness,
)
from peeraudit.recall import DataError, RecallMatrix, margins, parse_reports


def _random_rm(rng, n, m, density=0.35):
    entries = (rng.random((n, m)) < density).astype(np.int8)
    empty = entries.sum(axis=0) == 0
    entries[rng.integers(0, n, size=int(empty.sum())), np.flatnonzero(empty)] = 1
    return RecallMatrix(tuple(f"v{i}" for i in range(n)), entries)


# --- skewness -------------------------------------------------------------


def test_skewness_symmetric_vector():
    assert skewness([1, 2, 3]) == pytest.approx(0.0)


def test_skewness_positive_and_formula():
    x = np.array([1, 1, 1, 10], dtype=float)
    n = x.size
    m2 = ((x - x.mean()) ** 2).mean()
    m3 = ((x - x.mean()) ** 3).mean()
    g1 = m3 / m2**1.5
    expected = g1 * np.sqrt(n * (n - 1)) / (n - 2)
    got = skewness(x)
    assert got > 0
    assert got == pytest.approx(expected, abs=1e-12)


def test_skewness_reflection_antisymmetry():
    assert skewness([10, 10, 10, 1]) == pytest.approx(-skewness([1, 1, 1, 10]))


def test_skewness_errors():
    with pytest.raises(ValueError):
        skewness([1, 2])
    with pytest.raises(ValueError):
        skewness([3, 3, 3])


def test_skewness_matches_scipy_on_classroom_margins():
    bench = load_benchmark()
    rms = [draw_classroom(np.random.default_rng(seed))[1] for seed in range(300)]
    rms += [curveball_randomize(bench, seed=seed) for seed in range(50)]
    checked = 0
    for rm in rms:
        for margin in (rm.entries.sum(axis=1), rm.entries.sum(axis=0)):
            if np.ptp(margin) == 0:
                continue
            expected = float(stats.skew(margin.astype(np.float64), bias=False))
            got = skewness(margin)
            assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
            assert f"{got:.10g}" == f"{expected:.10g}"
            checked += 1
    assert checked > 600


def _skewness_reference(x) -> float:
    """``skewness`` through ``.mean()`` and ``np.ptp``."""
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError("skewness needs at least 3 values")
    if np.ptp(x) == 0:
        raise ValueError("skewness undefined for a constant vector")
    n = x.size
    d = x - x.mean()
    d2 = d * d
    m2 = d2.mean()
    m3 = (d2 * d).mean()
    return float(((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5)


def test_skewness_equals_the_reference_bit_for_bit():
    margins_ = [[3, 3, 3], [0.1, 0.1, 0.1, 0.1], [1, 2], [2, 0, 5, 1]]
    for seed in range(300):
        rm = draw_classroom(np.random.default_rng(seed))[1]
        margins_ += [rm.entries.sum(axis=1), rm.entries.sum(axis=0)]
    raised = 0
    for margin in margins_:
        try:
            expected = _skewness_reference(margin)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                skewness(margin)
            raised += 1
            continue
        assert np.float64(skewness(margin)).tobytes() == np.float64(expected).tobytes()
    assert raised >= 3


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=20),
    st.floats(0.01, 100),
)
def test_skewness_scale_invariant(xs, c):
    x = np.asarray(xs)
    if np.ptp(x) == 0 or np.isclose(x.std(), 0):
        return
    assert skewness(c * x) == pytest.approx(skewness(x), abs=1e-6, rel=1e-6)


# --- curveball ------------------------------------------------------------


def test_curveball_preserves_margins():
    rng = np.random.default_rng(5)
    for seed in range(20):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(2, 25))
        rm = _random_rm(rng, n, m)
        out = curveball_randomize(rm, seed=seed)
        assert (margins(out)[0] == margins(rm)[0]).all()
        assert (margins(out)[1] == margins(rm)[1]).all()


def test_curveball_zero_trades_identity():
    rm = parse_reports("A,B\nB,C\nC,A\n")
    out = curveball_randomize(rm, n_trades=0, seed=1)
    assert (out.entries == rm.entries).all()


def test_curveball_all_ones_unique_fill():
    rm = RecallMatrix(("a", "b"), np.ones((2, 3), dtype=np.int8))
    out = curveball_randomize(rm, seed=9)
    assert (out.entries == rm.entries).all()


def test_curveball_2x2_ensemble_balance():
    rm = RecallMatrix(("a", "b"), np.eye(2, dtype=np.int8))
    hits = 0
    trials = 2000
    for seed in range(trials):
        out = curveball_randomize(rm, seed=seed)
        hits += int(out.entries[0, 0] == 1)
    assert abs(hits / trials - 0.5) < 0.05


def _curveball_reference(rm, n_trades=None, seed=None):
    """Curveball trades on Python sets of column indices."""
    rng = as_rng(seed)
    n, m = rm.entries.shape
    if n_trades is None:
        n_trades = 5 * n
    if n_trades < 0:
        raise ValueError("n_trades must be >= 0")
    if n < 2 or n_trades == 0:
        return RecallMatrix(rm.children, rm.entries.copy())
    rows = [set(np.flatnonzero(rm.entries[i]).tolist()) for i in range(n)]
    for _ in range(n_trades):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = rows[i], rows[j]
        a_only = a - b
        b_only = b - a
        if not a_only or not b_only:
            continue
        pool = np.array(sorted(a_only | b_only))
        rng.shuffle(pool)
        new_a_only = set(pool[: len(a_only)].tolist())
        shared = a & b
        rows[i] = shared | new_a_only
        rows[j] = shared | (set(pool.tolist()) - new_a_only)
    entries = np.zeros((n, m), dtype=np.int8)
    for i, cols in enumerate(rows):
        entries[i, sorted(cols)] = 1
    return RecallMatrix(rm.children, entries)


def _assert_curveball_matches_reference(rm, n_trades, seed, bit_generator=np.random.PCG64):
    rng = np.random.Generator(bit_generator(seed))
    ref_rng = np.random.Generator(bit_generator(seed))
    if seed % 2:
        # start with half of a 64-bit output pending
        assert rng.integers(2**32, dtype=np.uint32) == ref_rng.integers(2**32, dtype=np.uint32)
    _assert_same_shuffle(rm, n_trades, rng, ref_rng)


def _assert_same_shuffle(rm, n_trades, rng, ref_rng):
    got = curveball_randomize(rm, n_trades=n_trades, seed=rng).entries
    expected = _curveball_reference(rm, n_trades=n_trades, seed=ref_rng).entries
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    # the same generator calls were made: the next draw agrees
    assert rng.random() == ref_rng.random()


def test_curveball_matches_reference_on_classrooms():
    bench = load_benchmark()
    for seed in range(100):
        _assert_curveball_matches_reference(bench, None, seed)
    for seed in range(40):
        rm = draw_classroom(np.random.default_rng(seed))[1]
        for trial in range(2):
            _assert_curveball_matches_reference(rm, None, 1000 * seed + trial)


def test_curveball_matches_reference_on_random_matrices():
    rng = np.random.default_rng(21)
    for case in range(200):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(65, 131)) if case % 4 == 0 else int(rng.integers(2, 61))
        entries = (rng.random((n, m)) < rng.uniform(0.05, 0.95)).astype(np.int8)
        if case % 3 == 0:
            entries[0] = 1  # a child named in every report
        if case % 5 == 0:
            entries[n - 1] = 0  # a child never named
        # every report names somebody
        entries[0, entries.sum(axis=0) == 0] = 1
        rm = RecallMatrix(tuple(f"v{i}" for i in range(n)), entries)
        for n_trades in (None, 0, 1):
            _assert_curveball_matches_reference(rm, n_trades, case)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_curveball_matches_reference_on_other_bit_generators(bit_generator):
    bench = load_benchmark()
    for seed in range(20):
        _assert_curveball_matches_reference(bench, None, seed, bit_generator)
    rng = np.random.default_rng(22)
    for case, n in enumerate([2, 2, 3, 3, 5, 1000]):
        entries = (rng.random((n, 40)) < 0.5).astype(np.int8)
        entries[0, entries.sum(axis=0) == 0] = 1  # every report names somebody
        rm = RecallMatrix(tuple(f"v{i}" for i in range(n)), entries)
        _assert_curveball_matches_reference(rm, 50, case, bit_generator)


def test_curveball_matches_reference_when_a_row_draw_is_rejected():
    # 1 720 318 words into seed 2024, the first word of the next trade
    # falls in Lemire's rejection zone for i's span of 999
    n = 1000
    rng, ref_rng = np.random.default_rng(2024), np.random.default_rng(2024)
    for g in (rng, ref_rng):
        g.integers(2**32, size=1_720_318, dtype=np.uint32)
    probe = np.random.default_rng()
    probe.bit_generator.state = rng.bit_generator.state
    first, second = probe.integers(2**32, size=2, dtype=np.uint32).astype(np.int64)
    assert first * (n - 1) % 2**32 < 2**32 % (n - 1) <= second * (n - 1) % 2**32
    entries = (np.random.default_rng(7).random((n, 30)) < 0.5).astype(np.int8)
    rm = RecallMatrix(tuple(f"v{i}" for i in range(n)), entries)
    _assert_same_shuffle(rm, 1, rng, ref_rng)


def test_shuffle_draws_the_same_for_a_list_as_for_an_array():
    # curveball_randomize shuffles a list of column bits where the
    # reference shuffles an array of column indices
    for n in range(100):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        items = list(range(n))
        ref_items = np.arange(n, dtype=np.int64)
        rng.shuffle(items)
        ref_rng.shuffle(ref_items)
        assert items == ref_items.tolist()
        assert rng.random() == ref_rng.random()


def _bits_by_loop(row):
    """The set bits of a row int, one per loop iteration, lowest first."""
    bits = []
    while row:
        low = row & -row
        bits.append(low)
        row ^= low
    return bits


@pytest.mark.parametrize("n_bytes", [1, 2, 8, 9, 25])
def test_pool_tables_list_bits_as_the_bit_loop_does(n_bytes):
    tables = nullmodels._pool_tables(n_bytes)
    for k in range(n_bytes):
        for v in range(256):
            assert list(tables[k][v]) == _bits_by_loop(v << 8 * k)


@pytest.mark.parametrize("m", [1, 8, 61, 63, 64, 65, 128, 129, 200])
def test_pools_listed_a_word_at_a_time_as_the_bit_loop_does(m):
    # the listing of curveball_randomize's trades: rows padded to whole
    # 64-bit words, each word's bits from its eight byte tables
    n_bytes = (m + 63) // 64 * 8
    words = list(zip(*[iter(nullmodels._pool_tables(n_bytes))] * 8))
    rng = np.random.default_rng(m)
    for case in range(200):
        row = int.from_bytes(rng.bytes(n_bytes), "little") >> 8 * n_bytes - m
        if case % 2:  # sparse: most bytes are zero
            for _ in range(3):
                row &= int.from_bytes(rng.bytes(n_bytes), "little")
        data = iter(row.to_bytes(n_bytes, "little"))
        pool = []
        for t0, t1, t2, t3, t4, t5, t6, t7 in words:
            pool += [*t0[next(data)], *t1[next(data)], *t2[next(data)], *t3[next(data)],
                     *t4[next(data)], *t5[next(data)], *t6[next(data)], *t7[next(data)]]
        assert pool == _bits_by_loop(row)


def test_curveball_matches_reference_across_row_widths():
    # shuffles of rows of 61, 200, 3, 500 and 1001 columns, interleaved in
    # one process (the last two are sparse, so most of their bytes are
    # zero), and of 64, 65, 128 and 129: one or two words filled exactly,
    # or a byte spilled into the next word
    rng = np.random.default_rng(23)
    classroom = generate_classroom(ClassroomProfile(40, 200, 0.25, 0.5, 0.5), seed=23)
    matrices = [load_benchmark(), classroom, _random_rm(rng, 5, 3),
                _random_rm(rng, 30, 500, density=0.02), _random_rm(rng, 30, 1001, density=0.02),
                _random_rm(rng, 20, 64), _random_rm(rng, 20, 65), _random_rm(rng, 20, 128),
                _random_rm(rng, 20, 129)]
    for seed in range(6):
        for rm in matrices:
            _assert_curveball_matches_reference(rm, None, seed)
    # every width reads the same table for a byte offset
    widest = nullmodels._pool_tables(126)
    assert nullmodels._pool_tables(1)[0] is widest[0]
    narrow = nullmodels._pool_tables(8)
    assert len(narrow) == 8 and all(map(is_, narrow, widest))


def test_pool_tables_first_built_by_threads_at_once():
    # four threads start on empty caches, each with another width first,
    # so tables are built and cached while other threads read them
    rng = np.random.default_rng(25)
    matrices = [_random_rm(rng, 5, 3), load_benchmark(),
                generate_classroom(ClassroomProfile(40, 200, 0.25, 0.5, 0.5), seed=25),
                _random_rm(rng, 30, 1001, density=0.02)]
    assert [(rm.n_reports + 7) // 8 for rm in matrices] == [1, 8, 25, 126]
    expected = {(t, i): curveball_randomize(rm, seed=10 * t + i).entries.tobytes()
                for t in range(4) for i, rm in enumerate(matrices)}

    def work(t):
        start.wait()
        for i in [(t + k) % 4 for k in range(4)]:
            got[t, i] = curveball_randomize(matrices[i], seed=10 * t + i).entries.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            nullmodels._pool_tables.cache_clear()
            nullmodels._byte_table.cache_clear()
            got = {}
            start = threading.Barrier(4, timeout=60)
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == expected
    finally:
        sys.setswitchinterval(interval)
        # threads that race to a table may each cache a copy; later tests
        # start from tables built by one thread
        nullmodels._pool_tables.cache_clear()
        nullmodels._byte_table.cache_clear()


def _all_matrices(row_sums, col_sums):
    """Every 0/1 matrix with the given margins, in a fixed order."""
    m = len(col_sums)
    choices = [itertools.combinations(range(m), r) for r in row_sums]
    out = []
    for rows in itertools.product(*choices):
        entries = np.zeros((len(row_sums), m), dtype=np.int8)
        for i, cols in enumerate(rows):
            entries[i, list(cols)] = 1
        if (entries.sum(axis=0) == col_sums).all():
            out.append(entries)
    return out


@pytest.mark.parametrize("row_sums, col_sums, n_matrices", [
    ((2, 2, 1, 1), (2, 2, 1, 1), 34),
    ((2, 1, 1), (1, 1, 1, 1), 12),
    ((2, 2, 2), (2, 1, 1, 1, 1), 36),
    ((3, 2, 1, 0), (2, 2, 1, 1), 8),  # trades with the empty row change nothing
])
def test_curveball_uniform_over_margin_class(row_sums, col_sums, n_matrices):
    # Every matrix with these margins is equally likely after the default
    # 5n trades from one fixed start: 200 shuffles per matrix, one seed
    # each, and a chi-square test of the visit counts.
    matrices = _all_matrices(row_sums, col_sums)
    assert len(matrices) == n_matrices
    index = {e.tobytes(): k for k, e in enumerate(matrices)}
    start = RecallMatrix(tuple(f"c{i}" for i in range(len(row_sums))), matrices[0])
    counts = np.zeros(n_matrices, dtype=np.int64)
    for seed in range(200 * n_matrices):
        counts[index[curveball_randomize(start, seed=seed).entries.tobytes()]] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


def test_curveball_deterministic_per_seed():
    rng = np.random.default_rng(6)
    rm = _random_rm(rng, 10, 20)
    a = curveball_randomize(rm, seed=123)
    b = curveball_randomize(rm, seed=123)
    assert (a.entries == b.entries).all()


# --- generator ------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        ClassroomProfile(1, 10, 0.3, 0.0, 0.0)
    with pytest.raises(ValueError):
        ClassroomProfile(10, 0, 0.3, 0.0, 0.0)
    with pytest.raises(ValueError):
        ClassroomProfile(10, 10, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="n_children"):
        ClassroomProfile(1001, 10, 0.01, 0.0, 0.0)
    with pytest.raises(ValueError, match="n_reports"):
        ClassroomProfile(10, 10_001, 0.3, 0.0, 0.0)
    ClassroomProfile(1000, 10_000, 0.01, 0.0, 0.0)
    for skew in (np.nextafter(MAX_NOMINATION_SKEW, np.inf), -20.0, float("nan")):
        with pytest.raises(ValueError, match="nomination_skew"):
            ClassroomProfile(10, 10, 0.3, skew, 0.0)
    ClassroomProfile(10, 10, 0.3, -MAX_NOMINATION_SKEW, 0.0)
    lo, hi = PROFILE_BOUNDS["nomination_skew"]
    assert -MAX_NOMINATION_SKEW <= lo < hi <= MAX_NOMINATION_SKEW
    # types are checked before ranges: unchecked, a NaN or infinite
    # group_size_skew gives a classroom, and a bool or float count a
    # TypeError from NumPy
    valid = {"n_children": 26, "n_reports": 61, "nomination_probability": 0.3,
             "nomination_skew": 0.0, "group_size_skew": 0.0}
    bad_values = {
        "n_children": (True, np.True_, 26.0, "26"),
        "n_reports": (True, 61.0, None),
        "nomination_probability": (True, float("nan"), "0.3"),
        "nomination_skew": (np.True_, float("inf"), -float("inf"), float("nan")),
        "group_size_skew": (True, float("nan"), float("inf"), -float("inf"), np.float64("nan"), None),
    }
    for name, values in bad_values.items():
        kind = "an integer" if name.startswith("n_") else "a finite number"
        for value in values:
            with pytest.raises(ValueError, match=f"^{name} must be {kind}, got "):
                ClassroomProfile(**{**valid, name: value})
    ClassroomProfile(np.int64(26), 61, np.float32(0.3), 0, np.float64(0.5))
    # a huge integral real is out of range, not an overflow
    with pytest.raises(ValueError, match="nomination_skew must be in"):
        ClassroomProfile(26, 61, 0.3, 10**400, 0.0)


def test_generate_shape_contract():
    profile = ClassroomProfile(26, 61, 0.3, 0.5, 0.5)
    rm = generate_classroom(profile, seed=0)
    assert rm.entries.shape == (26, 61)


def test_generate_infeasible_profile():
    # mean report size 0.9 * 40 = 36 > support max 20
    profile = ClassroomProfile(40, 10, 0.9, 0.0, 0.0)
    with pytest.raises(InfeasibleProfileError):
        generate_classroom(profile, seed=0)


def test_every_profile_within_bounds_is_feasible():
    # generate_classroom rejects a mean report size p * n above
    # min(MAX_REPORT_SIZE, n) + 0.5; draw_classroom does not resample, so
    # widening PROFILE_BOUNDS past this would make audit trials fail
    lo_n, hi_n = PROFILE_BOUNDS["n_children"]
    hi_p = PROFILE_BOUNDS["nomination_probability"][1]
    for n in range(lo_n, hi_n + 1):
        assert hi_p * n <= min(MAX_REPORT_SIZE, n) + 0.5, n


def test_draw_classroom_fixed_profile():
    profile = ClassroomProfile(26, 61, 0.3, 0.5, 0.5)
    drawn, rm = draw_classroom(np.random.default_rng(4), profile=profile)
    assert drawn is profile
    assert np.array_equal(rm.entries, generate_classroom(profile, seed=4).entries)
    with pytest.raises(InfeasibleProfileError):
        draw_classroom(np.random.default_rng(4), profile=ClassroomProfile(40, 10, 0.9, 0.0, 0.0))


def test_null_draws_map_a_seed_to_its_classroom():
    rm = load_benchmark()
    shuffled, profile = nullmodels.null_draws("shuffle", rm)(9)
    assert profile is None
    assert np.array_equal(shuffled.entries, curveball_randomize(rm, seed=9).entries)
    drawn, generated = draw_classroom(np.random.default_rng(9))
    classroom, profile = nullmodels.null_draws("generate")(9)
    assert profile == drawn and np.array_equal(classroom.entries, generated.entries)
    classroom, profile = nullmodels.null_draws(None, rm)(9)
    assert classroom is rm and profile is None
    with pytest.raises(ValueError, match="unknown null model"):
        nullmodels.null_draws("bicm", rm)


def _beta_skew(mean, conc):
    a, b = mean * conc, (1.0 - mean) * conc
    return 2.0 * (b - a) * np.sqrt(a + b + 1.0) / ((a + b + 2.0) * np.sqrt(a * b))


# the root-finds that the closed forms replace; their xtol is tighter than
# the generator's old one, so their own error is far below the tolerance
def _concentration_by_brentq(mean, target_skew):
    lo, hi = nullmodels._CONCENTRATION_RANGE
    sign = np.sign(1.0 - 2.0 * mean)
    if target_skew == 0.0 or sign == 0 or np.sign(target_skew) != sign:
        return hi
    f = lambda conc: abs(_beta_skew(mean, conc)) - abs(target_skew)
    if f(lo) <= 0.0:
        return lo
    if f(hi) >= 0.0:
        return hi
    return optimize.brentq(f, lo, hi, xtol=1e-14)


def _mean_by_brentq(target_skew):
    f = lambda mean: _beta_skew(mean, nullmodels._SALIENCE_CONCENTRATION) - target_skew
    return optimize.brentq(f, 1e-4, 1.0 - 1e-4, xtol=1e-15)


def test_concentration_closed_form_matches_root_find():
    lo, hi = nullmodels._CONCENTRATION_RANGE
    targets = np.concatenate([np.linspace(-4, 4, 81), [-50, -1e-6, 1e-6, 50]])
    clamped = {lo: 0, hi: 0}
    for mean in np.linspace(0.02, 0.98, 49):
        for target in targets:
            expected = _concentration_by_brentq(mean, target)
            got = nullmodels._solve_concentration(mean, target)
            if expected in clamped:
                assert got == expected, (mean, target)
                clamped[expected] += 1
            else:
                assert got == pytest.approx(expected, rel=1e-9, abs=0), (mean, target)
                assert abs(_beta_skew(mean, got)) == pytest.approx(abs(target), rel=1e-9)
    assert min(clamped.values()) > 100


def test_mean_closed_form_matches_root_find():
    bracketed = 0
    for target in np.linspace(-80, 80, 321):
        got = nullmodels._solve_mean_for_skew(target)
        try:
            expected = _mean_by_brentq(target)
        except ValueError:  # outside the old bracket [1e-4, 1 - 1e-4]
            assert (got < 1e-4) if target > 0 else (got > 1.0 - 1e-4), target
            continue
        bracketed += 1
        assert got == pytest.approx(expected, rel=1e-9, abs=0), target
    assert bracketed > 250
    assert nullmodels._solve_mean_for_skew(0.0) == 0.5


def test_generate_extreme_nomination_skew():
    # the root-find this replaced had no root in its bracket here and
    # raised "f(a) and f(b) must have different signs"
    profile = ClassroomProfile(26, 61, 0.3, MAX_NOMINATION_SKEW, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rm = generate_classroom(profile, seed=0)
    assert rm.entries.shape == (26, 61)
    assert rm.entries.sum(axis=0).max() <= MAX_REPORT_SIZE
    # one child holds nearly all the salience weight: every report names it
    assert rm.entries.sum(axis=1).max() == profile.n_reports


def test_largest_nomination_skew_draws_finite_odds(monkeypatch):
    # beyond the bound, small classes draw all-zero salience weights:
    # their odds are NaN and every report names the first children
    draw = nullmodels._draw_reports
    odds_seen = []

    def spy(rng, odds, sizes):
        odds_seen.append(odds)
        return draw(rng, odds, sizes)

    monkeypatch.setattr(nullmodels, "_draw_reports", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (2, 15, 40):
            profile = ClassroomProfile(n, 15, 0.3, MAX_NOMINATION_SKEW, 0.5)
            for seed in range(1000):
                generate_classroom(profile, seed=seed)
    assert len(odds_seen) == 3000
    assert all(np.isfinite(odds).all() for odds in odds_seen)


def _fixed_size_weighted_sample(
    rng: np.random.Generator, odds: np.ndarray, table: np.ndarray, size: int
) -> list[int]:
    """Draw a fixed-size subset with selection odds proportional to ``odds``.

    Conditional Poisson design: P(S) is proportional to prod(odds[S]) over
    subsets of the requested size, so fixed-size reports stay compatible
    with a multiplicative (maximum-entropy) cell-probability null.
    """
    n = odds.size
    chosen: list[int] = []
    need = size
    for i in range(n):
        if need == 0:
            break
        if n - i == need:  # must take everything that is left
            chosen.extend(range(i, n))
            break
        denom = table[need, i]
        p_inc = odds[i] * table[need - 1, i + 1] / denom if denom > 0 else 1.0
        if rng.random() < p_inc:
            chosen.append(i)
            need -= 1
    return chosen


def _generate_reference(profile, seed=None):
    """``generate_classroom`` with one ``rng.random()`` call per uniform."""
    rng = as_rng(seed)
    n, m = profile.n_children, profile.n_reports
    size_max = min(MAX_REPORT_SIZE, n)
    mean_size = profile.nomination_probability * n
    if mean_size > size_max + 0.5:
        raise InfeasibleProfileError("infeasible")
    mean01 = np.clip((mean_size - 1.0) / (size_max - 1.0), 0.02, 0.98)
    conc = nullmodels._solve_concentration(mean01, profile.group_size_skew)
    draws = rng.beta(mean01 * conc, (1.0 - mean01) * conc, size=m)
    sizes = np.rint(1.0 + draws * (size_max - 1.0)).astype(np.int64)
    sizes = np.clip(sizes, 1, size_max)
    w_mean = nullmodels._solve_mean_for_skew(profile.nomination_skew)
    weights = rng.beta(w_mean * 5.0, (1.0 - w_mean) * 5.0, size=n)
    odds = np.clip(weights / weights.mean(), 1e-8, 1e8)
    table = nullmodels._subset_weight_table(odds, int(sizes.max()))
    entries = np.zeros((n, m), dtype=np.int8)
    names = [f"c{i + 1:02d}" for i in range(n)]
    for j in range(m):
        members = _fixed_size_weighted_sample(rng, odds, table, int(sizes[j]))
        entries[members, j] = 1
    return RecallMatrix(tuple(names), entries)


def _assert_generate_matches_reference(profile, rng, ref_rng):
    got = generate_classroom(profile, seed=rng).entries
    expected = _generate_reference(profile, seed=ref_rng).entries
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)
    # the generator was left where one random() call per uniform leaves it
    assert rng.random() == ref_rng.random()
    return expected


def _draw_classroom_reference(rng):
    """``draw_classroom(rng)`` through the reference generator."""
    while True:
        profile = sample_profile(seed=rng)
        try:
            return profile, _generate_reference(profile, seed=rng)
        except InfeasibleProfileError:
            pass


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_generate_matches_reference_on_drawn_classrooms(bit_generator):
    n_seeds = 300 if bit_generator is np.random.PCG64 else 20
    for seed in range(n_seeds):
        rng = np.random.Generator(bit_generator(seed))
        ref_rng = np.random.Generator(bit_generator(seed))
        profile, rm = draw_classroom(rng)
        ref_profile, ref_rm = _draw_classroom_reference(ref_rng)
        assert profile == ref_profile
        assert rm.entries.dtype == ref_rm.entries.dtype
        assert np.array_equal(rm.entries, ref_rm.entries)
        assert rng.random() == ref_rng.random()


EDGE_PROFILES = [
    ClassroomProfile(2, 60, 0.5, 0.0, 0.0),  # sizes 1 and 2 of 2
    ClassroomProfile(2, 60, 0.9, 1.9, -0.5),
    ClassroomProfile(20, 80, 0.99, 0.0, -0.5),  # many reports name all 20
    ClassroomProfile(40, 100, 0.5125, 1.9, 0.0),  # mean size 20.5
    ClassroomProfile(41, 100, 0.5, -1.7, 2.3),  # mean size 20.5
    ClassroomProfile(15, 200, 0.9, 1.99, -0.52),  # most reports take the rest
]


@pytest.mark.parametrize("profile", EDGE_PROFILES)
def test_generate_matches_reference_on_edge_profiles(profile):
    for seed in range(5):
        entries = _assert_generate_matches_reference(
            profile, np.random.default_rng(seed), np.random.default_rng(seed))
    if profile.n_children == 20:
        assert (entries.sum(axis=0) == 20).sum() > 10


def test_generate_matches_reference_across_uniform_batches():
    # more uniforms than one batch holds, so batches are refilled and rewound
    profile = ClassroomProfile(40, 600, 0.3, 1.0, 1.0)
    assert profile.n_children * profile.n_reports > 2 * nullmodels._UNIFORM_BATCH
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # a pending half of a 64-bit output survives the rewind
        assert rng.integers(2**32, dtype=np.uint32) == ref_rng.integers(2**32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        entries = _assert_generate_matches_reference(profile, rng, ref_rng)
        assert entries.sum() > 2 * nullmodels._UNIFORM_BATCH / profile.n_children
        assert rng.integers(2**32, dtype=np.uint32) == ref_rng.integers(2**32, dtype=np.uint32)


@pytest.mark.parametrize("batch", [lambda n: 1, lambda n: n + 1, lambda n: 3 * n],
                         ids=["1", "n+1", "3n"])
@pytest.mark.parametrize("profile", EDGE_PROFILES)
def test_generate_matches_reference_at_small_uniform_batches(monkeypatch, profile, batch):
    # a batch holds max(_UNIFORM_BATCH, n) uniforms: at 1 every report
    # starts a batch, at n + 1 and 3n most reports share one and some end it
    monkeypatch.setattr(nullmodels, "_UNIFORM_BATCH", batch(profile.n_children))
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        # a pending half of a 64-bit output survives every rewind
        assert rng.integers(2**32, dtype=np.uint32) == ref_rng.integers(2**32, dtype=np.uint32)
        got = generate_classroom(profile, seed=rng).entries
        expected = _generate_reference(profile, seed=ref_rng).entries
        assert np.array_equal(got, expected)
        assert rng.integers(2**32, dtype=np.uint32) == ref_rng.integers(2**32, dtype=np.uint32)
        assert rng.random() == ref_rng.random()


def _subset_weight_table_reference(odds, max_size):
    """The table one child at a time, from the last: column i is
    odds[i] * table[:-1, i + 1] + table[1:, i + 1] below row 0."""
    n = odds.size
    table = np.zeros((max_size + 1, n + 1))
    table[0, :] = 1.0
    for i in range(n - 1, -1, -1):
        table[1:, i] = odds[i] * table[:-1, i + 1] + table[1:, i + 1]
    return table


def test_subset_weight_table_matches_reference_bitwise():
    rng = np.random.default_rng(24)
    clipped = set()
    for case in range(400):
        n = int(rng.integers(1, 60))
        max_size = case % MAX_REPORT_SIZE + 1
        if case % 2:  # as generate_classroom makes them
            weights = rng.beta(0.3, 0.3, size=n)
            odds = np.clip(weights / weights.mean(), 1e-8, 1e8)
        else:  # spread over 20 decades, many at either clip
            odds = np.clip(10.0 ** rng.uniform(-10, 10, size=n), 1e-8, 1e8)
        clipped.update(odds[(odds == 1e-8) | (odds == 1e8)].tolist())
        table = nullmodels._subset_weight_table(odds, max_size)
        assert table.tobytes() == _subset_weight_table_reference(odds, max_size).tobytes()
    assert clipped == {1e-8, 1e8}


def test_null_draws_pass_the_public_checks():
    # both draws build their matrix without RecallMatrix's checks
    rng = np.random.default_rng(24)
    bench = load_benchmark()
    outputs = []
    for seed in range(200):
        rm = _random_rm(rng, int(rng.integers(2, 12)), int(rng.integers(1, 80)))
        outputs += [curveball_randomize(bench, seed=seed), curveball_randomize(rm, seed=seed),
                    draw_classroom(np.random.default_rng(seed))[1]]
    outputs += [curveball_randomize(bench, n_trades=0), curveball_randomize(_random_rm(rng, 1, 5))]
    for rm in outputs:
        # checked first: the public check makes an int8 input read-only itself
        assert rm.entries.dtype == np.int8 and rm.entries.flags.c_contiguous
        assert not rm.entries.flags.writeable
        checked = RecallMatrix(rm.children, rm.entries)
        assert checked.children == rm.children
        assert checked.entries.tobytes() == rm.entries.tobytes()


def test_public_constructor_still_checks():
    with pytest.raises(DataError, match="0 or 1"):
        RecallMatrix(("a", "b"), np.array([[1, 2], [0, 1]]))
    with pytest.raises(DataError, match="name nobody"):
        RecallMatrix(("a", "b"), np.array([[1, 0], [1, 0]]))
    with pytest.raises(DataError, match="duplicate"):
        RecallMatrix(("a", "a"), np.eye(2))


def test_report_sampler_draws_conditional_poisson_subsets():
    # P(S) of a fixed-size report is proportional to prod(odds[S]): 4000
    # reports of 3 of 6 children against the 20 subsets' expected counts
    odds = np.array([0.5, 0.7, 1.0, 1.4, 2.0, 3.0])
    subsets = list(itertools.combinations(range(6), 3))
    weights = np.array([np.prod(odds[list(s)]) for s in subsets])
    n_reports = 4000
    members = nullmodels._draw_reports(np.random.default_rng(11), odds, [3] * n_reports)
    index = {s: k for k, s in enumerate(subsets)}
    counts = np.zeros(len(subsets), dtype=np.int64)
    for j in range(n_reports):
        counts[index[tuple(members[3 * j: 3 * j + 3])]] += 1
    expected = n_reports * weights / weights.sum()
    assert expected.min() > 25
    assert stats.chisquare(counts, expected).pvalue > 1e-3


def test_generate_zero_skew_targets_zero():
    profile = ClassroomProfile(30, 100, 0.25, 0.0, 0.0)
    skews = []
    for seed in range(100):
        rm = generate_classroom(profile, seed=seed)
        skews.append(skewness(rm.entries.sum(axis=1)))
    assert abs(np.mean(skews)) < 0.5


def test_generate_positive_size_skew():
    profile = ClassroomProfile(30, 80, 0.25, 0.0, 2.0)
    positive = 0
    for seed in range(100):
        rm = generate_classroom(profile, seed=seed)
        positive += int(skewness(rm.entries.sum(axis=0)) > 0)
    assert positive >= 95


def test_generate_valid_over_random_profiles():
    rng = np.random.default_rng(7)
    for _ in range(200):
        profile = sample_profile(seed=rng)
        rm = generate_classroom(profile, seed=rng)
        # RecallMatrix invariants (non-empty columns etc.) enforced on
        # construction; also check report sizes respect the cap
        assert rm.entries.sum(axis=0).max() <= 20
        assert rm.entries.shape == (profile.n_children, profile.n_reports)


def test_generate_weighted_sampling_tracks_salience():
    # one child with a much larger weight should be named far more often
    profile = ClassroomProfile(20, 400, 0.2, 1.9, 0.0)
    rm = generate_classroom(profile, seed=3)
    rows = rm.entries.sum(axis=1)
    assert skewness(rows) > 0.5


def test_sample_profile_within_bounds():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = sample_profile(seed=rng)
        lo, hi = PROFILE_BOUNDS["n_children"]
        assert lo <= p.n_children <= hi
        lo, hi = PROFILE_BOUNDS["n_reports"]
        assert lo <= p.n_reports <= hi
        lo, hi = PROFILE_BOUNDS["nomination_probability"]
        assert lo <= p.nomination_probability <= hi
