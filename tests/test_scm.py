"""The five-step classic pipeline."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peeraudit.datasets import load_benchmark
from peeraudit.nullmodels import curveball_randomize, draw_classroom
from peeraudit.recall import RecallMatrix, parse_reports
from peeraudit.scm import (
    GroupAssignment,
    _finish,
    cooccurrence,
    identify_groups_components,
    identify_groups_fifty_percent,
    identify_groups_profile,
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
    for net in nets:
        names = _names(net.shape[0])
        assert identify_groups_fifty_percent(net, names) == _fifty_reference(net, names)


def test_fifty_matches_reference_on_classroom_networks():
    rms = [load_benchmark()]
    rms += [draw_classroom(np.random.default_rng(seed))[1] for seed in range(100)]
    for rm in rms:
        net = _class_network(rm)
        assert identify_groups_fifty_percent(net, rm.children) == _fifty_reference(
            net, rm.children
        )


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


def test_profile_single_pair():
    s = np.zeros((3, 3))
    np.fill_diagonal(s, 1.0)
    s[0, 1] = s[1, 0] = 0.9
    assignment = identify_groups_profile(s, 0.4, _names(3), np.ones(3))
    assert set(assignment.groups) == {frozenset({"v0", "v1"})}


def test_profile_everyone_connected():
    s = np.full((4, 4), 0.5)
    assignment = identify_groups_profile(s, 0.4, _names(4), np.ones(4))
    assert set(assignment.groups) == {frozenset(_names(4))}


def test_profile_chain_closure():
    s = np.zeros((3, 3))
    np.fill_diagonal(s, 1.0)
    s[0, 1] = s[1, 0] = 0.5
    s[1, 2] = s[2, 1] = 0.5
    assignment = identify_groups_profile(s, 0.4, _names(3), np.ones(3))
    assert set(assignment.groups) == {frozenset({"v0", "v1", "v2"})}


@pytest.mark.parametrize("sim, n_children, threshold, message", [
    (np.zeros((3, 4)), 3, 0.4, "square"),
    (np.eye(3), 2, 0.4, "rows"),
    (np.eye(3), 3, 1.5, "threshold"),
])
def test_profile_rejects_bad_input(sim, n_children, threshold, message):
    with pytest.raises(ValueError, match=message):
        identify_groups_profile(sim, threshold, _names(n_children), np.ones(n_children))


@pytest.mark.parametrize("salience, message", [
    ([1, 2, 3, 4], "one per child"),
    ([1], "one per child"),
    ([1, float("nan"), 2], "finite"),
    ([[1, 2, 3]], "one per child"),
    (["a", "b", "c"], "real"),
    ([1, 2j, 3], "real"),
    ([True, False, True], "real"),
])
def test_profile_rejects_bad_salience(salience, message):
    with pytest.raises(ValueError, match=message):
        identify_groups_profile(np.full((3, 3), 0.5), 0.4, _names(3), salience=salience)


def test_profile_orders_unsigned_salience_as_numbers():
    sim = np.kron(np.eye(2), np.ones((2, 2)))  # two pairs: {v0, v1} and {v2, v3}
    for dtype in (np.uint8, np.int64, np.float64):
        groups = identify_groups_profile(
            sim, 0.4, _names(4), salience=np.array([0, 0, 5, 5], dtype=dtype)
        ).groups
        assert groups == (frozenset({"v2", "v3"}), frozenset({"v0", "v1"}))


def _profile_reference(sim, threshold, children, salience):
    """The profile rule as a closure loop that grows each founder's group."""
    sim = np.asarray(sim)
    n = sim.shape[0]
    salience = np.asarray(salience)
    order = sorted(range(n), key=lambda i: (-salience[i], i))
    processed: set[int] = set()
    groups: list[set[int]] = []
    for founder in order:
        if founder in processed:
            continue
        group = {founder}
        grown = True
        while grown:
            grown = False
            for cand in order:
                if cand in group:
                    continue
                if any(sim[cand, member] >= threshold for member in group):
                    group.add(cand)
                    grown = True
        processed |= group
        if len(group) >= 2:
            groups.append(group)
    return _finish(children, groups)


def test_profile_matches_reference_on_random_similarities():
    rng = np.random.default_rng(13)
    for case in range(300):
        n = int(rng.integers(1, 41))
        sim = rng.uniform(-1, 1, size=(n, n))
        sim = (sim + sim.T) / 2
        if rng.random() < 0.5:
            sim = np.round(sim * 1.25, 1).clip(-1, 1)  # values on the threshold grid
        np.fill_diagonal(sim, 1.0)
        threshold = [0.0, 1.0, float(rng.integers(0, 11)) / 10, rng.uniform()][case % 4]
        if case % 3:
            salience = rng.integers(0, 4, size=n)
        else:  # thresholded degree
            salience = (sim >= threshold).sum(axis=1)
        names = _names(n)
        assert identify_groups_profile(sim, threshold, names, salience) == _profile_reference(
            sim, threshold, names, salience
        )


def test_profile_matches_reference_on_classroom_similarities():
    for rm in _pipeline_classrooms(100, 50):
        cooc = cooccurrence(rm)
        sim = similarity(cooc)
        for threshold in (0.2, 0.4, 0.6):
            assert identify_groups_profile(
                sim, threshold, rm.children, salience=np.diagonal(cooc)
            ) == _profile_reference(sim, threshold, rm.children, salience=np.diagonal(cooc))


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
