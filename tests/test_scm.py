"""The five-step classic pipeline."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from peeraudit import scm
from peeraudit._kernels import bitset_rows, bitset_words
from peeraudit.datasets import load_benchmark
from peeraudit.nullmodels import curveball_randomize, draw_classroom
from peeraudit.recall import RecallMatrix, parse_reports
from peeraudit.scm import (
    GroupAssignment,
    _finish,
    component_members,
    cooccurrence,
    identify_groups_components,
    identify_groups_fifty_percent,
    membership_statistic,
    scm_groups,
    similarity,
    threshold_network,
)


def _names(n):
    return tuple(f"v{i}" for i in range(n))


# --- cooccurrence ---------------------------------------------------------


def test_cooccurrence_single_report():
    rm = parse_reports("A,B,C\n")
    assert (cooccurrence(rm) == np.ones((3, 3))).all()


def test_cooccurrence_disjoint_reports():
    rm = parse_reports("A,B\nC,D\n")
    c = cooccurrence(rm)
    expected = np.zeros((4, 4), dtype=np.int64)
    expected[:2, :2] = 1
    expected[2:, 2:] = 1
    assert (c == expected).all()


def test_cooccurrence_hand_example():
    rm = RecallMatrix(("a", "b"), np.array([[1, 1], [1, 0]], dtype=np.int8))
    assert cooccurrence(rm).tolist() == [[2, 1], [1, 1]]


def test_cooccurrence_matches_pairwise_counting():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, m = rng.integers(2, 11, size=2)
        entries = (rng.random((n, m)) < 0.4).astype(np.int8)
        entries[:, entries.sum(axis=0) == 0] = 1  # keep columns non-empty
        rm = RecallMatrix(_names(n), entries)
        c = cooccurrence(rm)
        for i in range(n):
            for j in range(n):
                count = sum(
                    int(entries[i, k] and entries[j, k]) for k in range(m)
                )
                assert c[i, j] == count


@pytest.mark.parametrize("n, m, density", [(26, 61, 0.3), (40, 200, 0.5), (30, 10_000, 0.9)])
def test_cooccurrence_equals_the_int64_product(n, m, density):
    rng = np.random.default_rng(n + m)
    entries = (rng.random((n, m)) < density).astype(np.int8)
    entries[0] = 1  # a child named in every report
    rm = RecallMatrix(_names(n), entries)
    r = entries.astype(np.int64)
    c = cooccurrence(rm)
    assert c.dtype == np.int64
    assert np.array_equal(c, r @ r.T)
    assert c[0, 0] == m


# --- similarity -----------------------------------------------------------


def test_similarity_identical_columns():
    c = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 1]], dtype=float)
    s = similarity(c)
    assert s[0, 1] == pytest.approx(1.0)


def test_similarity_zero_variance_column_policy():
    c = np.array([[3, 1, 0], [1, 2, 0], [0, 0, 0]], dtype=float)
    s = similarity(c)
    assert (s[2] == 0).all() and (s[:, 2] == 0).all()


def test_similarity_2x2_degenerate():
    s = similarity(np.array([[2, 1], [1, 1]], dtype=float))
    # column 2 is (1, 1): zero variance -> 0 by policy
    assert s[0, 1] == 0.0


def test_similarity_matches_corrcoef_oracle():
    rng = np.random.default_rng(1)
    c = rng.integers(0, 6, size=(6, 6)).astype(float)
    c = c + c.T  # symmetric, generically non-constant columns
    s = similarity(c)
    for i in range(6):
        for j in range(6):
            expected = np.corrcoef(c[:, i], c[:, j])[0, 1]
            assert s[i, j] == pytest.approx(expected, abs=1e-12)


def test_similarity_invariant_under_report_permutation():
    rng = np.random.default_rng(2)
    entries = (rng.random((8, 15)) < 0.4).astype(np.int8)
    entries[:, entries.sum(axis=0) == 0] = 1
    rm = RecallMatrix(_names(8), entries)
    perm = rng.permutation(15)
    rm_p = RecallMatrix(_names(8), entries[:, perm])
    assert np.allclose(similarity(cooccurrence(rm)), similarity(cooccurrence(rm_p)))


def _pipeline_classrooms(n_drawn, n_shuffled):
    """The benchmark, ``draw_classroom`` seeds 0.. and curveball seeds 0.."""
    bench = load_benchmark()
    return (
        [bench]
        + [draw_classroom(np.random.default_rng(seed))[1] for seed in range(n_drawn)]
        + [curveball_randomize(bench, seed=seed) for seed in range(n_shuffled)]
    )


def test_similarity_exactly_symmetric():
    for rm in _pipeline_classrooms(50, 50):
        s = similarity(cooccurrence(rm))
        assert (s == s.T).all()


def _similarity_reference(cooc):
    """``similarity`` through ``np.corrcoef``."""
    c = np.asarray(cooc, dtype=np.float64)
    n = c.shape[0]
    sd = c.std(axis=0)
    ok = sd > 0
    s = np.zeros((n, n))
    if ok.any():
        sub = np.corrcoef(c[:, ok], rowvar=False)
        sub = np.atleast_2d(sub)
        idx = np.flatnonzero(ok)
        s[np.ix_(idx, idx)] = sub
    np.fill_diagonal(s, np.where(ok, 1.0, 0.0))
    # corrcoef's triangles can differ in the last bit; thresholds need s == s.T
    return np.where(np.tri(n, k=-1, dtype=bool), s.T, s)


def test_similarity_equals_corrcoef_bit_for_bit():
    coocs = [cooccurrence(rm) for rm in _pipeline_classrooms(300, 100)]
    coocs += [
        np.array([[3, 1, 0], [1, 2, 0], [0, 0, 0]]),  # a zero-variance column
        np.full((4, 4), 2),  # every column constant
        np.array([[1, 0, 5], [1, 2, 5], [1, 0, 5]]),  # one varying column
        np.array([[7]]),
    ]
    for c in coocs:
        s = similarity(c)
        assert s.dtype == np.float64
        assert s.tobytes() == _similarity_reference(c).tobytes()


# --- thresholding ---------------------------------------------------------


def test_threshold_inclusive_at_boundary():
    s = np.array([[1.0, 0.4], [0.4, 1.0]])
    assert threshold_network(s, 0.4)[0, 1] == 1


def test_threshold_empty_network():
    s = np.zeros((3, 3))
    np.fill_diagonal(s, 1.0)
    assert threshold_network(s, 0.4).sum() == 0


def test_threshold_zero_keeps_nonnegative():
    s = np.array([[1.0, -0.1, 0.0], [-0.1, 1.0, 0.2], [0.0, 0.2, 1.0]])
    net = threshold_network(s, 0.0)
    assert net[0, 1] == 0 and net[0, 2] == 1 and net[1, 2] == 1


def test_threshold_out_of_range():
    with pytest.raises(ValueError):
        threshold_network(np.eye(2), 1.5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1), st.floats(0, 1))
def test_threshold_monotone(seed, t1, t2):
    t1, t2 = min(t1, t2), max(t1, t2)
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1, 1, size=(6, 6))
    s = (s + s.T) / 2
    high = threshold_network(s, t2)
    low = threshold_network(s, t1)
    assert (high <= low).all()


# --- group identification -------------------------------------------------


def _triangle_pair():
    net = np.zeros((6, 6), dtype=np.int8)
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        net[a, b] = net[b, a] = 1
    return net


def test_fifty_two_triangles():
    assignment = identify_groups_fifty_percent(_triangle_pair(), _names(6))
    groups = {frozenset(g) for g in assignment.groups}
    assert groups == {
        frozenset({"v0", "v1", "v2"}),
        frozenset({"v3", "v4", "v5"}),
    }


def test_fifty_empty_network():
    assignment = identify_groups_fifty_percent(np.zeros((4, 4), dtype=np.int8), _names(4))
    assert assignment.groups == ()


def test_fifty_clique_plus_pendant():
    net = np.zeros((5, 5), dtype=np.int8)
    for a, b in itertools.combinations(range(4), 2):
        net[a, b] = net[b, a] = 1
    net[3, 4] = net[4, 3] = 1  # pendant on one clique member
    assignment = identify_groups_fifty_percent(net, _names(5))
    assert frozenset({"v0", "v1", "v2", "v3"}) in set(assignment.groups)
    assert all("v4" not in g or len(g) == 2 for g in assignment.groups)
    big = max(assignment.groups, key=len)
    assert "v4" not in big


def test_fifty_rule_invariant_holds_post_hoc():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        net = (rng.random((n, n)) < 0.4).astype(np.int8)
        net = np.triu(net, 1)
        net = net + net.T
        assignment = identify_groups_fifty_percent(net, _names(n))
        idx = {c: i for i, c in enumerate(_names(n))}
        for g in assignment.groups:
            members = [idx[c] for c in g]
            for m in members:
                within = sum(net[m, o] for o in members if o != m)
                assert 2 * within >= len(members) - 1


def _fifty_reference(net, children):
    """The fifty-percent rule as a NumPy loop that grows every seed."""
    net = np.asarray(net, dtype=np.int64)
    n = net.shape[0]
    deg = net.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-deg[i], i))
    groups: dict[frozenset[int], None] = {}  # duplicates merged, first-seen order
    for u in order:
        for v in sorted(np.flatnonzero(net[u]), key=lambda i: (-deg[i], i)):
            v = int(v)
            member = np.zeros(n, dtype=bool)
            member[[u, v]] = True
            links = net[:, u] + net[:, v]  # ties into the current group
            size = 2
            grown = True
            while grown:
                grown = False
                for cand in order:
                    if not member[cand] and 2 * links[cand] >= size:
                        member[cand] = True
                        links = links + net[:, cand]
                        size += 1
                        grown = True
            # prune members no longer tied to half the rest of the group
            while size >= 2:
                members = np.flatnonzero(member)
                violators = [m for m in members if 2 * links[m] < size - 1]
                if not violators:
                    break
                worst = min(violators, key=lambda m: (links[m], m))
                member[worst] = False
                links = links - net[:, worst]
                size -= 1
            if size >= 2:
                groups.setdefault(frozenset(np.flatnonzero(member).tolist()), None)
    return _finish(children, list(groups))


def _random_network(rng, n, density):
    net = np.triu((rng.random((n, n)) < density).astype(np.int8), 1)
    return net + net.T


def _class_network(rm):
    return threshold_network(similarity(cooccurrence(rm)))


def test_fifty_matches_reference_on_random_networks():
    rng = np.random.default_rng(11)
    nets = [np.zeros((9, 9), dtype=np.int8), 1 - np.eye(9, dtype=np.int8)]
    for _ in range(200):
        nets.append(_random_network(rng, int(rng.integers(2, 46)), rng.uniform(0.05, 0.9)))
    # dense networks, where most seeds start a pass from a set an earlier
    # seed started from and so take their group from the memo
    for _ in range(15):
        nets.append(_random_network(rng, int(rng.integers(25, 46)), rng.uniform(0.6, 0.95)))
    for net in nets:
        names = _names(net.shape[0])
        assert identify_groups_fifty_percent(net, names) == _fifty_reference(net, names)


def test_fifty_matches_reference_on_classroom_networks():
    rms = [load_benchmark()]
    # seeds 100-199 lie outside the benchmark's classroom pool
    rms += [draw_classroom(np.random.default_rng(seed))[1] for seed in range(200)]
    for rm in rms:
        net = _class_network(rm)
        assert identify_groups_fifty_percent(net, rm.children) == _fifty_reference(
            net, rm.children
        )


def _visit_order(net):
    """The network in visit order, its number of tied vertices and edges."""
    deg = net.sum(axis=1)
    order = sorted(range(len(deg)), key=lambda i: (-deg[i], i))
    return net[np.ix_(order, order)] != 0, int(np.count_nonzero(deg)), int(deg.sum()) // 2


def _switch_networks():
    """Edge cases and random networks on both sides of the lockstep switch."""
    one_edge = np.zeros((5, 5), dtype=np.int8)
    one_edge[1, 3] = one_edge[3, 1] = 1
    # a K_7 and a K_4 among 15 children, with four untied children between
    # them in roster order: 27 edges on 11 tied vertices
    fewer_tied = np.zeros((15, 15), dtype=np.int8)
    for clique in ([1, 3, 5, 7, 9, 11, 13], [0, 2, 4, 6]):
        fewer_tied[np.ix_(clique, clique)] = 1
    np.fill_diagonal(fewer_tied, 0)
    nets = [np.zeros((1, 1), dtype=np.int8), np.zeros((4, 4), dtype=np.int8), one_edge,
            np.array([[0, 1], [1, 0]], dtype=np.int8), fewer_tied]
    nets += [1 - np.eye(n, dtype=np.int8) for n in range(1, 13)]  # K_n
    rng = np.random.default_rng(23)
    nets += [_random_network(rng, int(rng.integers(2, 31)), rng.uniform(0.05, 0.9))
             for _ in range(80)]
    return nets


def test_fifty_matches_reference_on_both_sides_of_the_lockstep_switch(monkeypatch):
    calls = {"lockstep": 0, "pairs": 0}

    def counted(name, passes):
        def wrapper(*args):
            calls[name] += 1
            return passes(*args)
        return wrapper

    monkeypatch.setattr(scm, "_first_passes_lockstep",
                        counted("lockstep", scm._first_passes_lockstep))
    monkeypatch.setattr(scm, "_first_passes", counted("pairs", scm._first_passes))
    nets = _switch_networks()
    nets += [_class_network(draw_classroom(np.random.default_rng(seed))[1])
             for seed in range(30)]
    lockstep = 0
    for net in nets:
        _, tied, edges = _visit_order(net)
        lockstep += edges > 2 * tied
        names = _names(net.shape[0])
        assert identify_groups_fifty_percent(net, names) == _fifty_reference(net, names)
    assert calls == {"lockstep": lockstep, "pairs": len(nets) - lockstep}
    assert lockstep >= 20 and len(nets) - lockstep >= 20


def _distinct_first_passes(a):
    """``_first_passes`` from each pair of ``a``, each member set only at
    its first seed; and the number of seeds."""
    passes = list(scm._first_passes(bitset_rows(a)))
    distinct = {}
    for members, reach, size in passes:
        distinct.setdefault(members, (members, reach, size))
    return list(distinct.values()), len(passes)


def test_lockstep_first_passes_equal_the_passes_from_each_pair(monkeypatch):
    repeated = 0
    for net in _switch_networks():
        a, tied, edges = _visit_order(net)
        if edges:
            expected, seeds = _distinct_first_passes(a)
            assert seeds == edges
            # one block, and blocks of one and two seeds: a set is yielded
            # once even when its seeds fall in different blocks
            for cells in (scm.LOCKSTEP_CELLS, tied, 2 * tied):
                monkeypatch.setattr(scm, "LOCKSTEP_CELLS", cells)
                assert list(scm._first_passes_lockstep(a[:tied, :tied])) == expected
            monkeypatch.undo()
            repeated += len(expected) < edges
    assert repeated >= 20


def _wide_networks():
    """Networks of 63, 64, 65, 127, 128 and 129 tied vertices, either side
    of 64 and 128, where a set takes one more 64-bit word: a clique, a
    block classroom (blocks of 8 at density 0.8, 0.01 between blocks,
    every vertex tied) and a random network at density 0.3, each taking
    the lockstep first pass."""
    rng = np.random.default_rng(26)
    nets = []
    for n in (63, 64, 65, 127, 128, 129):
        block = np.arange(n) // 8
        blocks = np.triu(rng.random((n, n)) < np.where(block[:, None] == block, 0.8, 0.01), 1)
        blocks = (blocks | blocks.T).astype(np.int8)
        nets += [1 - np.eye(n, dtype=np.int8), blocks, _random_network(rng, n, 0.3)]
    return nets


def test_lockstep_first_passes_on_sets_of_several_words():
    for net in _wide_networks():
        a, tied, edges = _visit_order(net)
        assert tied == len(net) and edges > 2 * tied
        lockstep = list(scm._first_passes_lockstep(a))
        expected, seeds = _distinct_first_passes(a)
        assert seeds == edges
        assert lockstep == expected


def test_fifty_matches_reference_on_wide_networks():
    nets = _wide_networks()
    for clique, blocks, random in zip(nets[::3], nets[1::3], nets[2::3]):
        names = _names(len(clique))
        # growing every seed of a clique takes the reference seconds
        assert identify_groups_fifty_percent(clique, names).groups == (frozenset(names),)
        for net in (blocks, random):
            assert identify_groups_fifty_percent(net, names) == _fifty_reference(net, names)


def test_lockstep_blocks_give_the_same_groups(monkeypatch):
    # the lockstep networks of up to 16 children: a block of one seed costs
    # a NumPy step per tied vertex
    nets = [net for net in _switch_networks() if len(net) <= 16]
    checked = 0
    for net in nets:
        _, tied, edges = _visit_order(net)
        if edges <= 2 * tied:
            continue
        checked += 1
        names = _names(net.shape[0])
        expected = _fifty_reference(net, names)
        # one seed per block, two, and all but the last seed in the first
        for rows in (1, 2, edges - 1):
            monkeypatch.setattr(scm, "LOCKSTEP_CELLS", rows * tied)
            assert identify_groups_fifty_percent(net, names) == expected
        # fewer cells than one seed's row still runs one seed per block
        monkeypatch.setattr(scm, "LOCKSTEP_CELLS", tied - 1)
        assert identify_groups_fifty_percent(net, names) == expected
    assert checked >= 20


def test_lockstep_blocks_of_several_words_give_the_same_groups(monkeypatch):
    # the block classroom of 65 vertices, two words a set
    net = _wide_networks()[7]
    _, tied, edges = _visit_order(net)
    assert tied == 65
    names = _names(tied)
    expected = _fifty_reference(net, names)
    for cells in (tied, 2 * tied, (edges - 1) * tied, tied - 1):
        monkeypatch.setattr(scm, "LOCKSTEP_CELLS", cells)
        assert identify_groups_fifty_percent(net, names) == expected


@pytest.mark.parametrize("net, message", [
    (np.zeros((3, 4), dtype=np.int8), "square"),
    (np.zeros((4, 4), dtype=np.int8), "rows"),
    (np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]]), "0 or 1"),
    (np.array([[0, 1, 0], [0, 0, 1], [0, 1, 0]]), "symmetric"),
    (np.array([[1, 1, 0], [1, 0, 1], [0, 1, 0]]), "diagonal"),
    (np.array([[0, 2, 0], [0, 0, 0], [0, 0, 7]]), "0 or 1"),
    (np.zeros((2, 2), dtype=np.int8), "rows"),
])
def test_fifty_rejects_non_simple_networks(net, message):
    # the components rule takes the same networks and checks them the same way
    for rule in (identify_groups_fifty_percent, identify_groups_components):
        with pytest.raises(ValueError, match=message):
            rule(net, _names(3))


def test_components_rule():
    assert len(identify_groups_components(_triangle_pair(), _names(6)).groups) == 2
    assert identify_groups_components(np.zeros((3, 3), dtype=np.int8), _names(3)).groups == ()
    path = np.zeros((5, 5), dtype=np.int8)
    for i in range(4):
        path[i, i + 1] = path[i + 1, i] = 1
    assignment = identify_groups_components(path, _names(5))
    assert assignment.groups == (frozenset(_names(5)),)


def _components_reference(net, children):
    """Components by breadth-first search from the smallest unseen vertex."""
    n = net.shape[0]
    unseen = set(range(n))
    groups = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in np.flatnonzero(net[v]):
                w = int(w)
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        unseen -= comp
        if len(comp) >= 2:
            groups.append(comp)
    return _finish(children, groups)


def test_components_match_search_on_random_networks():
    rng = np.random.default_rng(12)
    for _ in range(300):
        net = _random_network(rng, int(rng.integers(1, 30)), rng.uniform(0.0, 0.3))
        names = _names(net.shape[0])
        assert identify_groups_components(net, names) == _components_reference(net, names)


def test_bitset_rows_set_the_nonzero_columns():
    rng = np.random.default_rng(3)
    for n, m in [(1, 1), (3, 0), (0, 5), (4, 7), (5, 8), (6, 9), (3, 64), (3, 65), (2, 130)]:
        matrix = (rng.random((n, m)) < 0.4) * rng.integers(1, 4, size=(n, m))
        expected = [sum(1 << int(c) for c in np.flatnonzero(row)) for row in matrix]
        assert bitset_rows(matrix) == expected
        words = bitset_words(matrix)
        assert words.dtype == np.dtype("<u8") and words.shape == (n, max(1, -(-m // 64)))
        assert [sum(int(x) << 64 * w for w, x in enumerate(row)) for row in words] == expected
        assert bitset_rows(matrix.astype(float)) == expected


def test_component_members_match_scipy():
    rng = np.random.default_rng(13)
    nets = [np.zeros((1, 1), dtype=np.int8), np.zeros((5, 5), dtype=np.int8)]
    nets += [_random_network(rng, int(rng.integers(1, 70)), rng.uniform(0.0, 0.15))
             for _ in range(400)]
    perm = rng.permutation(300)  # a path visited in shuffled vertex order
    path = np.zeros((300, 300), dtype=np.int8)
    path[perm[:-1], perm[1:]] = path[perm[1:], perm[:-1]] = 1
    nets.append(path)
    n_isolated = 0
    for net in nets:
        n_comp, labels = connected_components(net, directed=False)
        expected = [np.flatnonzero(labels == c).tolist() for c in range(n_comp)]
        assert component_members(net) == expected
        n_isolated += sum(len(c) == 1 for c in expected)
    assert n_isolated > 1000


# --- P statistic ----------------------------------------------------------


def test_p_statistic_size_three_floor():
    a = GroupAssignment(_names(4), (frozenset({"v0", "v1"}),))
    assert membership_statistic(a, 4) == 0.0


def test_p_statistic_arithmetic():
    a = GroupAssignment(
        _names(10),
        (frozenset({"v0", "v1", "v2"}), frozenset({"v3", "v4", "v5"})),
    )
    assert membership_statistic(a, 10) == pytest.approx(0.6)


def test_p_statistic_invariant_under_duplication():
    groups = (frozenset({"v0", "v1", "v2"}),)
    a = GroupAssignment(_names(5), groups)
    b = GroupAssignment(_names(5), groups + groups)
    assert membership_statistic(a, 5) == membership_statistic(b, 5)


def test_membership_mapping():
    a = GroupAssignment(
        _names(3), (frozenset({"v0", "v1"}), frozenset({"v1", "v2"}))
    )
    assert a.membership == {"v0": [0], "v1": [0, 1], "v2": [1]}


def test_group_must_be_subset_of_roster():
    with pytest.raises(ValueError):
        GroupAssignment(("a",), (frozenset({"zz"}),))


# --- end-to-end -----------------------------------------------------------


def test_scm_groups_single_report_classroom():
    # a single report makes every C column constant, so the zero-variance
    # policy yields an empty similarity matrix and no groups
    rm = parse_reports("A,B,C\n")
    net, assignment = scm_groups(rm)
    assert net.sum() == 0 and assignment.groups == ()


def test_scm_groups_recovers_repeated_clique():
    rm = parse_reports("A,B,C\nA,B,C\nD,E\nD,E\nA,D\n")
    _, assignment = scm_groups(rm)
    assert frozenset({"A", "B", "C"}) in set(assignment.groups)


def test_scm_groups_unknown_rule():
    rm = parse_reports("A,B\n")
    with pytest.raises(ValueError):
        scm_groups(rm, rule="nope")
