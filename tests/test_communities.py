"""Modularity, its optimizers, and the composed BE-CD pipeline."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from peeraudit import backbone, communities
from peeraudit._kernels import exact_partition_dp
from peeraudit.communities import (
    DEFAULT_RESTARTS,
    EXACT_MAX_N,
    _louvain_best,
    becd_groups,
    canonical_labels,
    maximize_modularity,
    modularity,
    partition_to_groups,
)
from peeraudit.recall import RecallMatrix
from peeraudit.scm import membership_statistic


def _triangle_pair():
    net = np.zeros((6, 6), dtype=np.int64)
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        net[a, b] = net[b, a] = 1
    return net


def _all_partitions(n):
    """Every set partition of range(n) as restricted-growth label vectors."""
    parts = [[0]]
    for _ in range(n - 1):
        nxt = []
        for p in parts:
            top = max(p)
            for label in range(top + 2):
                nxt.append(p + [label])
        parts = nxt
    return [np.array(p) for p in parts]


def _brute_force_q(net, labels):
    net = np.asarray(net, dtype=float)
    n = net.shape[0]
    two_m = net.sum()
    if two_m == 0:
        return 0.0
    k = net.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += net[i, j] - k[i] * k[j] / two_m
    return q / two_m


def _component_scores(net, members, two_m):
    """Score (Q terms against the whole network's 2m) of every partition
    of one component, highest first."""
    sub = np.asarray(net, dtype=float)[np.ix_(members, members)]
    deg = sub.sum(axis=1)
    scores = []
    for p in _all_partitions(len(members)):
        scores.append(
            sum(
                sub[np.ix_(p == c, p == c)].sum() / two_m
                - (deg[p == c].sum() / two_m) ** 2
                for c in np.unique(p)
            )
        )
    return sorted(scores, reverse=True)


def _components(net):
    _, comp = connected_components(np.asarray(net) != 0, directed=False)
    return [np.flatnonzero(comp == c) for c in np.unique(comp)]


def _disjoint_union(*blocks):
    n = sum(b.shape[0] for b in blocks)
    net = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        k = b.shape[0]
        net[at : at + k, at : at + k] = b
        at += k
    return net


_TRIANGLE = np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64)


def _path(k):
    net = np.zeros((k, k), dtype=np.int64)
    for i in range(k - 1):
        net[i, i + 1] = net[i + 1, i] = 1
    return net


def _groups(labels, names=None):
    names = range(len(labels)) if names is None else names
    out = {}
    for v, c in zip(names, labels):
        out.setdefault(int(c), set()).add(int(v))
    return {frozenset(g) for g in out.values()}


def test_modularity_all_in_one_is_zero():
    net = _triangle_pair()
    assert modularity(net, np.zeros(6, dtype=int)) == pytest.approx(0.0)


def test_modularity_two_triangles_split():
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert modularity(_triangle_pair(), labels) == pytest.approx(0.5)


def test_modularity_edgeless_zero():
    assert modularity(np.zeros((4, 4)), np.arange(4)) == 0.0


def test_modularity_matches_double_loop():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        net = (rng.random((n, n)) < 0.5).astype(np.int64)
        net = np.triu(net, 1)
        net = net + net.T
        labels = rng.integers(0, 3, size=n)
        assert modularity(net, labels) == pytest.approx(
            _brute_force_q(net, labels), abs=1e-12
        )


def test_maximize_two_triangles_exact():
    labels, q = maximize_modularity(_triangle_pair(), seed=0)
    assert q == pytest.approx(0.5)
    assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_maximize_complete_graph_single_community():
    net = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    labels, q = maximize_modularity(net, seed=0)
    assert len(set(labels.tolist())) == 1
    assert q == pytest.approx(0.0)


def test_maximize_edgeless_singletons():
    labels, q = maximize_modularity(np.zeros((4, 4), dtype=np.int64), seed=0)
    assert len(set(labels.tolist())) == 4
    assert q == 0.0


def test_maximize_edgeless_skips_the_community_search(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("searched an edgeless network")

    monkeypatch.setattr(communities, "component_members", must_not_run)
    monkeypatch.setattr(communities, "_louvain_best", must_not_run)
    for n in (1, EXACT_MAX_N + 16):
        labels, q = maximize_modularity(np.zeros((n, n), dtype=np.int8), seed=0)
        assert labels.dtype == np.int64 and labels.tolist() == list(range(n))
        assert q == 0.0 and isinstance(q, float)
    with pytest.raises(ValueError, match="square"):
        maximize_modularity(np.zeros((2, 3), dtype=np.int8), seed=0)


@pytest.mark.parametrize("net, message", [
    # weights: the DP counted each as one edge, Q -0.181 against -0.014
    ([[0, 2, 0, 0], [2, 0, 1, 0], [0, 1, 0, 3], [0, 0, 3, 0]], "0 or 1"),
    # a self-loop: the DP counted none, Q 0.061 against 0.204
    ([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]], "diagonal"),
    # the directed path 0 -> 1 -> 2: Q 1.0 against 0.0
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], "symmetric"),
    ([[0, 1, 0], [1, 0, 1]], "square"),
])
def test_maximize_rejects_networks_that_are_not_simple_graphs(net, message):
    with pytest.raises(ValueError, match=message):
        maximize_modularity(np.array(net), seed=0)


def test_maximize_q_is_the_modularity_of_its_labels():
    rng = np.random.default_rng(26)
    for n in (1, 5, 9, EXACT_MAX_N + 3):
        upper = np.triu(rng.random((n, n)) < 0.3, 1)
        for net in (upper | upper.T, (upper | upper.T).astype(np.int8)):
            labels, q = maximize_modularity(net, seed=0)
            assert q == pytest.approx(modularity(net, labels), abs=1e-12)


def test_exact_path_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        net = (rng.random((n, n)) < 0.45).astype(np.int64)
        net = np.triu(net, 1)
        net = net + net.T
        best = max(modularity(net, p) for p in _all_partitions(n))
        _, q = maximize_modularity(net, seed=0)
        assert q == pytest.approx(best, abs=1e-12)


def _louvain_must_not_run(*args, **kwargs):
    raise AssertionError("Louvain ran on a network the DP should solve")


def test_components_solved_exactly_without_louvain(monkeypatch):
    monkeypatch.setattr(communities, "_louvain", _louvain_must_not_run)
    isolates = np.zeros((3, 3), dtype=np.int64)
    net = _disjoint_union(
        _TRIANGLE, _TRIANGLE, _path(5), _TRIANGLE, isolates, _TRIANGLE
    )
    assert net.shape[0] == 20 > communities.EXACT_MAX_N
    two_m = net.sum()
    best = sum(_component_scores(net, c, two_m)[0] for c in _components(net))
    labels, q = maximize_modularity(net, seed=0)
    assert q == pytest.approx(best, abs=1e-12)
    assert modularity(net, labels) == pytest.approx(q, abs=1e-12)
    assert (labels == canonical_labels(labels)).all()
    # the isolated vertices 14, 15, 16 are singletons
    assert {frozenset({14}), frozenset({15}), frozenset({16})} <= _groups(labels)


def test_component_above_exact_max_n_sends_whole_network_to_louvain(monkeypatch):
    seen = []
    louvain = communities._louvain

    def spy(net, rng):
        seen.append(net.shape[0])
        return louvain(net, rng)

    monkeypatch.setattr(communities, "_louvain", spy)
    net = _disjoint_union(_path(EXACT_MAX_N + 1), _TRIANGLE)
    labels, q = maximize_modularity(net, seed=0)
    assert seen == [EXACT_MAX_N + 4] * DEFAULT_RESTARTS
    assert modularity(net, labels) == pytest.approx(q, abs=1e-12)
    seen.clear()
    maximize_modularity(_disjoint_union(_path(EXACT_MAX_N), _TRIANGLE), seed=0)
    assert seen == []


def test_exact_partition_dp_default_two_m_is_own_degree_sum():
    rng = np.random.default_rng(26)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        adj = np.triu((rng.random((n, n)) < 0.4).astype(np.int64), 1)
        adj = adj + adj.T
        labels, q = exact_partition_dp(adj)
        labels_m, q_m = exact_partition_dp(adj, two_m=adj.sum())
        assert labels_m.tolist() == labels.tolist()
        assert q_m == q
        # the decode numbers blocks by first appearance
        assert (labels == canonical_labels(labels)).all()


def _cycle(n):
    net = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        net[i, (i + 1) % n] = net[(i + 1) % n, i] = 1
    return net


def _bowtie():
    # two triangles that share vertex 2
    net = np.zeros((5, 5), dtype=np.int64)
    for a, b in [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]:
        net[a, b] = net[b, a] = 1
    return net


@pytest.mark.parametrize("net, two_m, labels, q", [
    # Q 0 for one block and for both pairings of neighbours
    (_cycle(4), None, [0, 0, 0, 0], 0.0),
    (_cycle(4), 7, [0, 1, 1, 0], -0.08163265306122447),
    # three pairs of neighbours, two ways round the ring
    (_cycle(6), None, [0, 1, 1, 2, 2, 0], 0.16666666666666666),
    (_cycle(6), 14.0, [0, 1, 1, 1, 0, 0], 0.20408163265306123),
    # the shared vertex joins either triangle
    (_bowtie(), None, [0, 0, 0, 1, 1], 0.11111111111111113),
    (_bowtie(), 14.0, [0, 0, 0, 1, 1], 0.163265306122449),
    (_bowtie(), 10.0, [0, 0, 0, 1, 1], -1.6653345369377348e-16),
])
def test_exact_partition_dp_tie_break(net, two_m, labels, q):
    # several partitions reach the optimum; the DP returns the first one
    # its subset order meets, and Q from its own order of additions
    got_labels, got_q = exact_partition_dp(net, two_m=two_m)
    assert got_labels.tolist() == labels
    assert got_q == q


@st.composite
def _decomposable_network(draw):
    """Block-diagonal random network of 3-6 blocks of 1-5 vertices, and a
    vertex permutation."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=3, max_size=6))
    blocks = []
    for k in sizes:
        upper = draw(st.lists(st.booleans(), min_size=k * (k - 1) // 2,
                              max_size=k * (k - 1) // 2))
        b = np.zeros((k, k), dtype=np.int64)
        b[np.triu_indices(k, 1)] = upper
        blocks.append(b + b.T)
    net = _disjoint_union(*blocks)
    perm = draw(st.permutations(range(net.shape[0])))
    return net, np.array(perm)


@settings(max_examples=60, deadline=None)
@given(_decomposable_network())
def test_component_path_invariant_under_vertex_permutation(case):
    net, perm = case
    two_m = net.sum()
    # compare partitions only where the optimum is unique: a tie may be
    # broken differently once vertices are renumbered
    for c in _components(net):
        if len(c) > 1:
            scores = _component_scores(net, c, two_m)
            assume(scores[0] > scores[1] + 1e-9)
    labels, q = maximize_modularity(net, seed=0)
    labels_p, q_p = maximize_modularity(net[np.ix_(perm, perm)], seed=0)
    assert q_p == pytest.approx(q, abs=1e-12)
    # vertex i of the permuted network is vertex perm[i] of the original
    assert _groups(labels_p, perm) == _groups(labels)


def test_heuristic_beats_trivial_partitions():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(13, 25))
        net = (rng.random((n, n)) < 0.2).astype(np.int64)
        net = np.triu(net, 1)
        net = net + net.T
        labels, q = _louvain_best(net, 10, 5)
        assert q >= modularity(net, np.zeros(n, dtype=int)) - 1e-12
        assert q >= modularity(net, np.arange(n)) - 1e-12


def test_maximize_deterministic_and_thread_safe_seeding():
    net = (np.random.default_rng(23).random((18, 18)) < 0.25).astype(np.int64)
    net = np.triu(net, 1)
    net = net + net.T
    a = _louvain_best(net, 8, 42)
    b = _louvain_best(net, 8, 42)
    assert (a[0] == b[0]).all() and a[1] == b[1]


def test_canonical_labels():
    assert canonical_labels(np.array([2, 2, 0, 1])).tolist() == [0, 0, 1, 2]


def test_partition_to_groups_keeps_singletons():
    ga = partition_to_groups(np.array([0, 0, 1]), ("a", "b", "c"))
    assert set(ga.groups) == {frozenset({"a", "b"}), frozenset({"c"})}


def test_becd_planted_three_blocks():
    rng = np.random.default_rng(24)
    entries = np.zeros((15, 90), dtype=np.int8)
    for j in range(90):
        start = (j % 3) * 5
        members = rng.choice(np.arange(start, start + 5), size=3, replace=False)
        entries[members, j] = 1
    rm = RecallMatrix(tuple(f"v{i}" for i in range(15)), entries)
    _, labels, assignment = becd_groups(rm, seed=0)
    assert membership_statistic(assignment, 15) == 1.0
    expected = np.repeat(np.arange(3), 5)
    assert (canonical_labels(labels) == expected).all()


def test_becd_single_report_no_structure():
    entries = np.zeros((4, 1), dtype=np.int8)
    entries[:3, 0] = 1
    rm = RecallMatrix(("a", "b", "c", "d"), entries)
    _, _, assignment = becd_groups(rm, seed=0)
    assert membership_statistic(assignment, 4) == 0.0


def test_becd_network_only_has_the_same_groups(monkeypatch):
    rng = np.random.default_rng(27)
    entries = (rng.random((20, 50)) < 0.25).astype(np.int8)
    entries[:, entries.sum(axis=0) == 0] = 1
    rm = RecallMatrix(tuple(f"v{i}" for i in range(20)), entries)
    full = becd_groups(rm, seed=9)
    monkeypatch.setattr(backbone._memo, "entry", None)  # a cold fit, where tails are skipped
    only = becd_groups(rm, seed=9, pvalues=False)
    assert full[0].pvalues is not None and only[0].pvalues is None
    assert np.array_equal(full[0].network, only[0].network)
    assert (full[1] == only[1]).all()
    assert full[2] == only[2]


def test_becd_deterministic():
    rng = np.random.default_rng(25)
    entries = (rng.random((20, 50)) < 0.25).astype(np.int8)
    entries[:, entries.sum(axis=0) == 0] = 1
    rm = RecallMatrix(tuple(f"v{i}" for i in range(20)), entries)
    a = becd_groups(rm, seed=9)
    b = becd_groups(rm, seed=9)
    assert (a[1] == b[1]).all()
    assert a[2] == b[2]
