"""Peer groups from a binary peer network via modularity maximization.

A modularity-optimal partition never splits a community across connected
components (Brandes et al., *On Modularity Clustering*, IEEE TKDE 2008).
So each connected component is solved to its exact optimum on its own,
by a subset dynamic program scored against the whole network's 2m, and
isolated vertices are singletons. Only when some component has more than
``EXACT_MAX_N`` vertices (the DP's O(3^n) time about triples with each
vertex) does the whole network go to ``DEFAULT_RESTARTS`` seeded runs of
greedy agglomeration (Louvain), each with a final single-vertex
refinement sweep. Also composes the full backbone-then-communities
pipeline.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components

from ._kernels import exact_partition_dp
from .backbone import BackboneResult, extract_backbone
from .nullmodels import as_rng
from .recall import RecallMatrix
from .scm import GroupAssignment

DEFAULT_RESTARTS = 50
EXACT_MAX_N = 12


def modularity(net: np.ndarray, labels: np.ndarray) -> float:
    """Newman-Girvan Q for a binary undirected network; 0 if edgeless."""
    net = np.asarray(net, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape[0] != net.shape[0]:
        raise ValueError("partition must cover every vertex")
    deg = net.sum(axis=1)
    two_m = deg.sum()
    if two_m == 0.0:
        return 0.0
    q = 0.0
    for c in np.unique(labels):
        members = labels == c
        q += net[np.ix_(members, members)].sum() / two_m
        q -= (deg[members].sum() / two_m) ** 2
    return float(q)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber communities by first appearance (vertex order)."""
    remap: dict[int, int] = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, c in enumerate(labels):
        if int(c) not in remap:
            remap[int(c)] = len(remap)
        out[i] = remap[int(c)]
    return out


def _local_moves(w: np.ndarray, labels: np.ndarray, order) -> bool:
    """Single-vertex moves to the best neighbouring community until stable."""
    k = w.sum(axis=1)
    two_m = k.sum()
    if two_m == 0.0:
        return False
    # one slot per vertex so an empty community is always available to
    # move into (labels are mutated in place)
    n_slots = w.shape[0]
    tot = np.bincount(labels, weights=k, minlength=n_slots)
    moved_any = False
    improved = True
    while improved:
        improved = False
        for v in order:
            cur = labels[v]
            links = np.bincount(labels, weights=w[v], minlength=n_slots)
            tot[cur] -= k[v]
            links[cur] -= w[v, v]
            # gain of joining community c (relative to staying isolated)
            gains = links - k[v] * tot / two_m
            best = int(np.argmax(gains))
            if gains[best] > gains[cur] + 1e-12:
                labels[v] = best
                tot[best] += k[v]
                improved = True
                moved_any = True
            else:
                tot[cur] += k[v]
    return moved_any


def _louvain(net: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    w = np.asarray(net, dtype=np.float64)
    n = w.shape[0]
    labels = np.arange(n)
    node_map = labels.copy()  # original vertex -> current aggregate node
    while True:
        order = rng.permutation(w.shape[0])
        moved = _local_moves(w, labels, order)
        labels = canonical_labels(labels)
        flat = labels[node_map]
        n_comm = labels.max() + 1
        if not moved or n_comm == w.shape[0]:
            break
        # aggregate: one node per community, weights summed
        onehot = np.zeros((w.shape[0], n_comm))
        onehot[np.arange(w.shape[0]), labels] = 1.0
        w = onehot.T @ w @ onehot
        node_map = flat
        labels = np.arange(n_comm)
    return flat


def _exact_by_component(net: np.ndarray):
    """Exact optimum as the union of per-component optima, scored against
    the whole network's 2m; None if a component exceeds ``EXACT_MAX_N``."""
    n_comp, comp = connected_components(net != 0, directed=False)
    sizes = np.bincount(comp, minlength=n_comp)
    if sizes.max(initial=0) > EXACT_MAX_N:
        return None
    two_m = float(net.sum())
    labels = np.arange(net.shape[0])  # isolated vertices stay singletons
    q = 0.0
    for c in np.flatnonzero(sizes >= 2):
        members = np.flatnonzero(comp == c)
        sub_labels, sub_q = exact_partition_dp(
            net[np.ix_(members, members)], two_m=two_m
        )
        # community k of a component is named after its vertex members[k]
        # (k <= the position of its first member), so no names collide
        labels[members] = members[sub_labels]
        q += sub_q
    return canonical_labels(labels), q


def _louvain_best(net: np.ndarray, restarts: int, seed) -> tuple[np.ndarray, float]:
    """Best of ``restarts`` refined Louvain runs on the whole network.

    Ties between equal-Q runs resolve to the lexicographically smallest
    canonical labelling, so results are reproducible for a seed.
    """
    n = net.shape[0]
    master = as_rng(seed)
    base = master.integers(0, 2**63 - 1)
    best_labels = None
    best_q = -np.inf
    for restart in range(restarts):
        rng = np.random.default_rng([base, restart])
        labels = _louvain(net, rng)
        _local_moves(np.asarray(net, dtype=np.float64), labels, range(n))
        labels = canonical_labels(labels)
        q = modularity(net, labels)
        if q > best_q + 1e-12 or (
            abs(q - best_q) <= 1e-12
            and best_labels is not None
            and tuple(labels) < tuple(best_labels)
        ):
            best_q = q
            best_labels = labels
    return best_labels, float(best_q)


def maximize_modularity(net: np.ndarray, seed=None) -> tuple[np.ndarray, float]:
    """Best-Q partition of a binary undirected network; returns (labels, Q).

    When every connected component has at most ``EXACT_MAX_N`` vertices,
    the result is the exact optimum, found component by component, and
    ``seed`` is unused; the DP's fixed subset order breaks ties between
    equal-Q partitions. Otherwise the whole network goes through
    ``DEFAULT_RESTARTS`` seeded Louvain runs. Labels are canonical
    (numbered by first appearance).
    """
    net = np.asarray(net)
    exact = _exact_by_component(net)
    if exact is not None:
        return exact
    return _louvain_best(net, DEFAULT_RESTARTS, seed)


def partition_to_groups(
    labels: np.ndarray, children: tuple[str, ...]
) -> GroupAssignment:
    """Communities as a (non-overlapping) group assignment; isolated
    vertices become singleton groups."""
    groups: dict[int, set[str]] = {}
    for child, c in zip(children, labels):
        groups.setdefault(int(c), set()).add(child)
    ordered = [frozenset(groups[c]) for c in sorted(groups)]
    return GroupAssignment(children, tuple(ordered))


def becd_groups(
    rm: RecallMatrix,
    alpha: float = 0.05,
    seed=None,
    correction: str = "none",
) -> tuple[BackboneResult, np.ndarray, GroupAssignment]:
    """Backbone extraction followed by modularity maximization."""
    result = extract_backbone(rm, alpha=alpha, correction=correction)
    labels, _ = maximize_modularity(result.network, seed=seed)
    return result, labels, partition_to_groups(labels, rm.children)
