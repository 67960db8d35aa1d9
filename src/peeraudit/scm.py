"""The classic five-step peer-group pipeline (SCM).

Steps: co-occurrence projection of the recall matrix, a single pass of
column correlations, thresholding into a binary peer network, group
identification, and the membership proportion statistic P.

Two published group-identification rules are implemented (a "connected to
at least half the group" rule and an incremental correlation-profile
rule), plus a connected-components baseline. The original software's own
extraction step is undocumented, so these rules can only approximate it.
The profile rule's groups are the connected components of the thresholded
network, ordered by salience, so its P equals the components rule's on
every classroom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

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
    """C = R R^T: shared-report counts per dyad; diagonal = total appearances."""
    r = rm.entries.astype(np.int64)
    return r @ r.T


def similarity(cooc: np.ndarray) -> np.ndarray:
    """Pearson correlation between columns of the co-occurrence matrix.

    Applied once (not iterated to convergence as CONCOR would). Columns
    with zero variance get similarity 0 against everything, so a child
    with a constant profile can never acquire edges. Whole columns are
    correlated, diagonal included.
    """
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


def _check_peer_network(net, children: tuple[str, ...]) -> np.ndarray:
    """The network as an array, if it is a simple undirected 0/1 graph over
    the roster; anything else raises ``ValueError``."""
    net = np.asarray(net)
    if net.ndim != 2 or net.shape[0] != net.shape[1]:
        raise ValueError(f"network must be a square matrix, got shape {net.shape}")
    if net.shape[0] != len(children):
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
    so relabelling the children can change the groups found. The profile
    and components rules do not depend on it.

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
    """
    net = _check_peer_network(net, children) != 0
    n = net.shape[0]
    deg = net.sum(axis=1)
    order = sorted(range(n), key=lambda i: (-deg[i], i))
    # row r, bit s: the vertices r-th and s-th in the visit order are tied
    packed = np.packbits(net[np.ix_(order, order)], axis=1, bitorder="little")
    nb = [int.from_bytes(row.tobytes(), "little") for row in packed]
    grown_groups: dict[int, None] = {}  # bitsets in first-seen order
    for u in range(n):
        later = nb[u] >> (u + 1) << (u + 1)
        while later:
            v = (later & -later).bit_length() - 1
            later ^= 1 << v
            members = 1 << u | 1 << v
            # outsiders tied to the group; no other vertex can ever join
            reach = (nb[u] | nb[v]) & ~members
            size = 2
            grown = True
            while grown:
                # one pass over the outsiders in visit order; those that join
                # count for the rest of the pass
                grown = False
                pos = 0
                while pending := reach >> pos << pos:
                    cand = (pending & -pending).bit_length() - 1
                    pos = cand + 1
                    if 2 * (nb[cand] & members).bit_count() >= size:
                        members |= 1 << cand
                        reach = (reach | nb[cand]) & ~members
                        size += 1
                        grown = True
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
            if size >= 2:
                grown_groups.setdefault(members, None)
    groups = [{order[m] for m in range(n) if g >> m & 1} for g in grown_groups]
    return _finish(children, groups)


def _components_in_order(net, children: tuple[str, ...], order) -> GroupAssignment:
    """Connected components of 2 or more children of a checked peer
    network, each placed where its first vertex comes in ``order``."""
    _, labels = connected_components(net, directed=False)
    groups: dict[int, set[int]] = {}
    for v in order:
        groups.setdefault(labels[v], set()).add(v)
    return _finish(children, [g for g in groups.values() if len(g) >= 2])


def identify_groups_profile(
    sim: np.ndarray,
    threshold: float,
    children: tuple[str, ...],
    salience: np.ndarray,
) -> GroupAssignment:
    """Incremental rule: grow a group by adding anyone whose similarity with
    some current member reaches the threshold.

    Founders are taken in descending-salience order (ties by roster
    order) among children not yet part of any finished group. Grown to
    closure, each group is a connected component of
    ``threshold_network(sim, threshold)``, so groups are disjoint and come
    in the order of their first member in the founder order. The pipeline
    passes each child's report count as its salience. ``sim`` must be
    symmetric with one row per child, ``threshold`` in [0, 1] and
    ``salience`` one finite real number per child; anything else raises
    ``ValueError``.
    """
    net = _check_peer_network(threshold_network(sim, threshold), children)
    salience = np.asarray(salience)
    if salience.shape != (len(children),) or salience.dtype.kind not in "iuf":
        raise ValueError(
            f"salience must be {len(children)} real numbers, one per child, "
            f"got shape {salience.shape} of dtype {salience.dtype}"
        )
    salience = salience.astype(np.float64)  # unsigned integers do not negate
    if not np.isfinite(salience).all():
        raise ValueError("salience must be finite")
    order = sorted(range(len(children)), key=lambda i: (-salience[i], i))
    return _components_in_order(net, children, order)


def identify_groups_components(
    net: np.ndarray, children: tuple[str, ...]
) -> GroupAssignment:
    """Baseline rule: connected components of size >= 2, in the order of
    their smallest member; ``net`` is checked as the fifty rule's is."""
    net = _check_peer_network(net, children)
    return _components_in_order(net, children, range(len(children)))


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
    cooc = cooccurrence(rm)
    sim = similarity(cooc)
    net = threshold_network(sim, threshold)
    if rule == "fifty":
        assignment = identify_groups_fifty_percent(net, rm.children)
    elif rule == "profile":
        assignment = identify_groups_profile(
            sim, threshold, rm.children, salience=np.diagonal(cooc)
        )
    elif rule == "components":
        assignment = identify_groups_components(net, rm.children)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return net, assignment
