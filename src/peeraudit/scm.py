"""The classic five-step peer-group pipeline (SCM).

Steps: co-occurrence projection of the recall matrix, a single pass of
column correlations, thresholding into a binary peer network, group
identification, and the membership proportion statistic P.

Two group-identification rules are implemented: the published "connected
to at least half the group" rule, and connected components, which are
also the groups of the published incremental correlation-profile rule.
The original software's own extraction step is undocumented, so these
rules can only approximate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import bitset_rows, bitset_words, word_ints
from .recall import RecallMatrix

DEFAULT_THRESHOLD = 0.4
# P counts a child only in a group of at least this many members
MIN_GROUP_SIZE = 3


@dataclass(frozen=True)
class GroupAssignment:
    """Peer groups over a fixed child roster; membership may overlap."""

    children: tuple[str, ...]
    groups: tuple[frozenset[str], ...]

    def __post_init__(self):
        roster = set(self.children)
        for g in self.groups:
            if not g <= roster:
                raise ValueError(f"group {sorted(g)} contains unknown children")

    @property
    def membership(self) -> dict[str, list[int]]:
        """child -> indices of the groups it belongs to (possibly empty)."""
        out: dict[str, list[int]] = {c: [] for c in self.children}
        for gi, g in enumerate(self.groups):
            for c in g:
                out[c].append(gi)
        return out


def cooccurrence(rm: RecallMatrix) -> np.ndarray:
    """C = R R^T: shared-report counts per dyad; diagonal = total appearances.

    The product runs in float64, where BLAS does it, and is exact: every
    partial sum is a whole number of reports, far below 2**53.
    """
    r = rm.entries.astype(np.float64)
    return (r @ r.T).astype(np.int64)


def similarity(cooc: np.ndarray) -> np.ndarray:
    """Pearson correlation between columns of the co-occurrence matrix.

    Applied once (not iterated to convergence as CONCOR would). Columns
    with zero variance get similarity 0 against everything, so a child
    with a constant profile can never acquire edges. Whole columns are
    correlated, diagonal included.

    The correlations are ``np.corrcoef(c[:, ok], rowvar=False)``'s own
    arithmetic, bit for bit, without its wrappers: centre each varying
    column, take the symmetric product that BLAS gives ``np.cov``, scale
    by 1 / (n - 1), and divide by the standard deviations from its
    diagonal, rows first, then columns.
    """
    c = np.asarray(cooc, dtype=np.float64)
    n = c.shape[0]
    # a column varies iff an entry differs from its first: exact for counts
    ok = (c != c[:1]).any(axis=0)
    if not ok.any():
        return np.zeros((n, n))
    x = c[:, ok].T.copy()
    x -= x.mean(axis=1)[:, None]
    cc = np.dot(x, x.T)  # x.T a view: BLAS takes np.cov's symmetric product
    cc *= np.true_divide(1, n - 1)
    sd = np.sqrt(np.diag(cc))
    cc /= sd[:, None]
    cc /= sd[None, :]
    np.clip(cc, -1, 1, out=cc)
    if ok.all():
        s = cc
    else:
        s = np.zeros((n, n))
        idx = np.flatnonzero(ok)
        s[np.ix_(idx, idx)] = cc
    np.fill_diagonal(s, ok)
    # corrcoef's triangles can differ in the last bit; thresholds need s == s.T
    return np.where(np.tri(n, k=-1, dtype=bool), s.T, s)


def threshold_network(sim: np.ndarray, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Binary peer network: edge iff similarity >= threshold (inclusive)."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    net = (np.asarray(sim) >= threshold).astype(np.int8)
    np.fill_diagonal(net, 0)
    return net


def _finish(children: tuple[str, ...], groups: list[set[int]]) -> GroupAssignment:
    named = tuple(frozenset(children[i] for i in g) for g in groups)
    return GroupAssignment(children, named)


def _check_peer_network(net, children: tuple[str, ...] | None = None) -> np.ndarray:
    """The network as an array, if it is a simple undirected 0/1 graph over
    the roster (any size when ``children`` is None); anything else raises
    ``ValueError``."""
    net = np.asarray(net)
    if net.ndim != 2 or net.shape[0] != net.shape[1]:
        raise ValueError(f"network must be a square matrix, got shape {net.shape}")
    if children is not None and net.shape[0] != len(children):
        raise ValueError(
            f"network has {net.shape[0]} rows for {len(children)} children"
        )
    if not ((net == 0) | (net == 1)).all():
        raise ValueError("network cells must be 0 or 1")
    if not (net == net.T).all():
        raise ValueError("network must be symmetric")
    if np.diagonal(net).any():
        raise ValueError("network diagonal must be zero")
    return net


# the lockstep first pass runs at most this many (seed, vertex) cells at once
LOCKSTEP_CELLS = 1 << 18


def _grow_pass(nb: list[int], members: int, reach: int, size: int) -> tuple[int, int, int]:
    """One growth pass over the outsiders in visit order; those that join
    count for the rest of the pass. Returns the new (members, reach, size)."""
    pos = 0
    while pending := reach >> pos << pos:
        cand = (pending & -pending).bit_length() - 1
        pos = cand + 1
        if 2 * (nb[cand] & members).bit_count() >= size:
            members |= 1 << cand
            reach = (reach | nb[cand]) & ~members
            size += 1
    return members, reach, size


def _first_passes(nb: list[int]):
    """(members, reach, size) after the first pass of each seed (u, v),
    u < v, in the order of u, then v; each seed grows from its pair."""
    for u in range(len(nb)):
        later = nb[u] >> (u + 1) << (u + 1)
        while later:
            v = (later & -later).bit_length() - 1
            later ^= 1 << v
            pair = 1 << u | 1 << v
            # reach: the outsiders tied to the group; no other vertex can join
            yield _grow_pass(nb, pair, (nb[u] | nb[v]) & ~pair, 2)


def _first_passes_lockstep(a: np.ndarray):
    """What ``_first_passes`` yields, with the seeds' passes run together,
    and each distinct member set only once, in the order of its first seed.

    ``a`` is the network among the tied vertices, in visit order; its
    seeds, in the order of u, then v, are ``np.nonzero(np.triu(a, 1))``.
    Each seed's members and reach (the vertices tied to a member) are
    bitsets of 64-bit words, one vector entry per seed, so one step per
    vertex, in visit order, takes a popcount of each seed's ties to the
    vertex and lets every seed whose group it can join take it in. Seeds
    run in blocks of at most ``LOCKSTEP_CELLS`` (seed, vertex) cells.

    A pass's reach and size are functions of its members, so a repeated
    set is a repeated triple.
    """
    tied = a.shape[0]
    us, vs = np.nonzero(np.triu(a, 1))
    nb = bitset_words(a)
    bit = bitset_words(np.eye(tied, dtype=bool))  # row c: vertex c alone
    passes = _one_word_passes if nb.shape[1] == 1 else _word_passes
    rows = max(1, LOCKSTEP_CELLS // tied)
    seen: set[int] = set()  # the member sets yielded by earlier blocks
    for lo in range(0, len(us), rows):
        members, reach, size = passes(nb, bit, us[lo:lo + rows], vs[lo:lo + rows])
        _, first = (np.unique(members[:, 0], return_index=True) if nb.shape[1] == 1
                    else np.unique(members, axis=0, return_index=True))
        first.sort()
        members, reach = members[first], reach[first]
        for out in zip(word_ints(members), word_ints(reach & ~members), size[first].tolist()):
            if out[0] not in seen:
                seen.add(out[0])
                yield out


def _one_word_passes(nb, bit, u, v):
    """(members, reach, size) after the first pass of the seeds (u, v),
    for sets of one word; ``nb`` and ``bit`` are (tied, 1) words, the
    neighbours of each vertex and the vertex itself. Each seed's members
    and reach are the two rows of one (2, seeds) array, so a vertex's
    step lets every seed that it joins take it in, and its neighbours,
    with one masked ``bitwise_or``. Members and reach come back as
    (seeds, 1) words."""
    # adds[c]: vertex c's bit over its neighbours, a (2, 1) column
    adds = np.stack([bit, nb], axis=1)
    nb = nb[:, 0]
    sets = np.stack([bit[u, 0] | bit[v, 0], nb[u] | nb[v]])
    members = sets[0]
    size = np.bitwise_count(members)
    shared, twice, join = np.empty_like(members), np.empty_like(size), np.empty(len(u), bool)
    for nbc, add in zip(nb, adds):
        np.bitwise_and(members, nbc, out=shared)
        np.bitwise_count(shared, out=twice)
        np.add(twice, twice, out=twice)
        np.greater_equal(twice, size, out=join)
        np.bitwise_or(sets, add, out=sets, where=join)
        # a pair member that "joins" again sets no new bit
        np.bitwise_count(members, out=size)
    return members[:, None], sets[1][:, None], size


def _word_passes(nb, bit, u, v):
    """``_one_word_passes`` for sets of several words. Word w of every
    seed's set is one contiguous row, and a vertex's ties are summed word
    by word over the words that hold its neighbours."""
    tied = len(nb)
    members = (bit[u] | bit[v]).T.copy()
    reach = (nb[u] | nb[v]).T.copy()
    size = np.full(len(u), 2, dtype=np.int32)
    # the seeds whose pair holds c, whose size must not count c again: a
    # run of the sorted u, and a run of v's argsort
    u_runs = np.searchsorted(u, np.arange(tied + 1)).tolist()
    by_v = np.argsort(v, kind="stable")
    v_runs = np.searchsorted(v[by_v], np.arange(tied + 1)).tolist()
    shared, count = np.empty(len(u), np.uint64), np.empty(len(u), np.uint8)
    twice, join = np.empty(len(u), np.int32), np.empty(len(u), bool)
    for c, nbc in enumerate(nb):
        words = np.flatnonzero(nbc).tolist()
        twice.fill(0)
        for w in words:
            np.bitwise_and(members[w], nbc[w], out=shared)
            np.bitwise_count(shared, out=count)
            np.add(twice, count, out=twice)
        np.add(twice, twice, out=twice)
        np.greater_equal(twice, size, out=join)
        join[u_runs[c]:u_runs[c + 1]] = False
        join[by_v[v_runs[c]:v_runs[c + 1]]] = False
        w = c >> 6
        np.bitwise_or(members[w], bit[c, w], out=members[w], where=join)
        for w in words:
            np.bitwise_or(reach[w], nbc[w], out=reach[w], where=join)
        np.add(size, join, out=size)
    return members.T, reach.T, size


def identify_groups_fifty_percent(
    net: np.ndarray, children: tuple[str, ...]
) -> GroupAssignment:
    """Groups in which every member is tied to at least half the other members.

    Deterministic greedy construction: every edge seeds a candidate
    group (seeds visited in descending-degree order, ties by roster
    order); candidates join whenever they are connected to at least 50%
    of the current members; finally members that fall below the 50% rule
    are pruned (lowest within-group degree first, ties by roster order).
    Groups of fewer than 2 children are dropped, duplicates merged.

    The groups, and so P, depend on the roster order: a seed's growth
    depends on the visit order, whose degree ties roster position breaks,
    so relabelling the children can change the groups found. The
    components rule does not depend on it.

    ``net`` must be a symmetric 0/1 matrix with a zero diagonal and one
    row per child, as ``threshold_network`` gives; anything else raises
    ``ValueError``.

    Vertices are numbered by their place in the visit order, and each
    vertex's neighbours and the growing group are Python-int bitsets, so
    a vertex's ties into the group are one popcount. Seed ``(v, u)``
    starts from the same members, ties and size as ``(u, v)`` and so
    grows into the same group; only the copy seeded from the earlier of
    the two in the visit order is grown, because that copy comes first
    and the later one would be merged into it. The rule, the visit order
    and the groups returned are those of growing every seed.

    When the seeds number more than twice the tied vertices, every
    seed's first pass runs at once (``_first_passes_lockstep``): each
    seed's members and reach are bitsets of 64-bit words, one NumPy
    vector entry per seed, and each tied vertex, in visit order, takes
    one step of a few whole-vector calls, a popcount of every seed's
    ties to it among them. Seeds run in blocks of at most
    ``LOCKSTEP_CELLS`` (seed, vertex) cells, so memory stays bounded at
    any class size. On sparser networks the NumPy calls per vertex cost
    more than the popcounts they save, and each seed's first pass starts
    from its pair. Either way each seed then goes on, in seed order, from
    its members after the first pass; the lockstep yields each distinct
    set once, for the first seed that reached it. A later seed with the
    same set would grow into the same group, which is already held.

    Growth is memoized on the member set at the start of each pass. At
    that point the outsiders tied to the group are exactly the
    neighbours of the members, so the rest of the seed's growth and its
    prune depend on the members alone: a seed whose pass starts from a
    set that an earlier seed's pass started from ends in that seed's
    group (or is dropped with it), and stops growing there. Each stored
    key is a distinct pass start, from the second pass on, of a seed
    that found no stored set, so the memo holds at most one n-bit entry
    per pass already run: its size is bounded by the time spent. The
    first pass never reads the memo, so running it ahead of the rest
    changes nothing.
    """
    net = _check_peer_network(net, children) != 0
    n = net.shape[0]
    deg = net.sum(axis=1)
    order = np.argsort(-deg, kind="stable").tolist()
    # row r, column s: the vertices r-th and s-th in the visit order are tied
    a = net[np.ix_(order, order)]
    nb = bitset_rows(a)
    # the tied vertices come first in the visit order
    tied = int(np.count_nonzero(deg))
    if int(deg.sum()) // 2 > 2 * tied:
        first = _first_passes_lockstep(a[:tied, :tied])
    else:
        first = _first_passes(nb)
    grown_groups: dict[int, None] = {}  # bitsets in first-seen order
    # pass-start members -> the seed's final group, or 0 if it was dropped
    memo: dict[int, int] = {}
    for members, reach, size in first:
        starts = []  # this seed's pass starts, from the second pass on
        group = None
        before = 2  # the size at the start of the last pass
        while size > before:
            group = memo.get(members)
            if group is not None:
                break
            starts.append(members)
            before = size
            members, reach, size = _grow_pass(nb, members, reach, size)
        if group is None:
            # prune members no longer tied to half the rest of the group
            while size >= 2:
                violators = []
                rest = members
                while rest:
                    m = (rest & -rest).bit_length() - 1
                    rest ^= 1 << m
                    links = (nb[m] & members).bit_count()
                    if 2 * links < size - 1:
                        violators.append((links, order[m], m))
                if not violators:
                    break
                members ^= 1 << min(violators)[2]
                size -= 1
            group = members if size >= 2 else 0
            for start in starts:
                memo[start] = group
        if group:
            grown_groups.setdefault(group, None)
    groups = [{order[m] for m in range(n) if g >> m & 1} for g in grown_groups]
    return _finish(children, groups)


def component_members(net) -> list[list[int]]:
    """Each connected component's vertices, ascending, components in the
    order of their smallest vertex; ``net`` must be symmetric."""
    nb = bitset_rows(net)
    unseen = (1 << len(nb)) - 1
    components = []
    while unseen:
        members = [(unseen & -unseen).bit_length() - 1]
        comp = 1 << members[0]
        for v in members:  # the list grows as the search reaches new vertices
            new = nb[v] & ~comp
            comp |= new
            while new:
                members.append((new & -new).bit_length() - 1)
                new &= new - 1
        unseen ^= comp
        components.append(sorted(members))
    return components


def identify_groups_components(
    net: np.ndarray, children: tuple[str, ...]
) -> GroupAssignment:
    """Connected components of size >= 2, in the order of their smallest
    member; ``net`` is checked as the fifty rule's is.

    This is also the published correlation-profile rule: a founder's group,
    grown to closure by adding anyone with ``sim >= T`` to some member, is
    its connected component in ``threshold_network(sim, T)``.
    """
    net = _check_peer_network(net, children)
    return _finish(children, [c for c in component_members(net) if len(c) >= 2])


def membership_statistic(assignment: GroupAssignment, n_children: int) -> float:
    """P: proportion of children belonging to at least one group of
    ``MIN_GROUP_SIZE`` or more members."""
    if n_children < 1:
        raise ValueError("n_children must be >= 1")
    counted = set()
    for g in assignment.groups:
        if len(g) >= MIN_GROUP_SIZE:
            counted |= g
    return len(counted) / n_children


def scm_groups(
    rm: RecallMatrix,
    threshold: float = DEFAULT_THRESHOLD,
    rule: str = "fifty",
) -> tuple[np.ndarray, GroupAssignment]:
    """Run the full pipeline; returns (peer network, group assignment)."""
    net = threshold_network(similarity(cooccurrence(rm)), threshold)
    if rule == "fifty":
        assignment = identify_groups_fifty_percent(net, rm.children)
    elif rule == "components":
        assignment = identify_groups_components(net, rm.children)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return net, assignment
