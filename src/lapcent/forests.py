"""Connected bi-partitions and rooted spanning-forest counts.

A connected bi-partition splits the node set into two blocks that both induce
connected subgraphs; it models a multi-edge failure that cuts the network in
two. Counting spanning trees inside the blocks yields the rooted-forest
census, which reproduces the diagonal of the Laplacian pseudo-inverse by pure
integer combinatorics:

    l+_ii = (rooted_i - forests_two_trees / n) / (n * tree_count)

with rooted_i the number of two-tree spanning forests rooted at i. That makes
this module the brute-force oracle for the spectral module on small
unweighted graphs. Counts use exact big-integer arithmetic (fraction-free
Bareiss elimination for the determinants). The bi-partition list and the
census both come from one pass over the node masks that holds node 0,
which builds each block's reduced Laplacian from neighbour bitmasks; the
census keeps only the counts.

The tree routines root a tree at node 0 with the graph's cached
breadth-first search, the one that also found it connected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, GraphError, _shifted_laplacian, is_connected

MAX_ENUM_NODES = 14  # bi-partition enumeration is exponential in n
CENTER_RTOL = 1e-9  # geodesic totals this close to the minimum tie for tree_center


class SizeLimitError(GraphError):
    """Input too large for exhaustive enumeration."""


class NotATreeError(GraphError):
    """Operation is defined for trees only."""


def _check_enum_size(g: Graph, what: str):
    if g.n > MAX_ENUM_NODES:
        raise SizeLimitError(
            f"{what} enumerates bi-partitions and is capped at n <= {MAX_ENUM_NODES}; got n = {g.n}"
        )


def _check_unweighted(g: Graph, what: str):
    if not g.unweighted:
        raise GraphError(f"{what} is defined for unweighted graphs")


# -- exact determinants and spanning-tree counts -----------------------


def det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(map(int, r)) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _mask_tree_count(nodes, mask: int, nbr: list) -> int:
    """Spanning trees of the connected induced subgraph on `nodes` (the set
    bits of `mask`; nbr holds each node's neighbours as a bitmask).

    Matrix-Tree: the determinant of the induced Laplacian with the first
    node removed. One or two connected nodes have exactly one tree.
    """
    if len(nodes) <= 2:
        return 1
    rest = nodes[1:]
    return det_int([[(nbr[a] & mask).bit_count() if a == b else -((nbr[a] >> b) & 1)
                     for b in rest] for a in rest])


def count_spanning_trees(g: Graph):
    """|T(G)| via the Matrix-Tree theorem.

    Exact integer for unweighted graphs; for weighted graphs the weighted
    tree sum as a float. Disconnected graphs have no spanning tree: 0.
    """
    if not is_connected(g):
        return 0
    if g.unweighted:
        return _mask_tree_count(list(range(g.n)), (1 << g.n) - 1, _neighbor_masks(g))
    return float(np.linalg.det(_shifted_laplacian(g)[1:, 1:]))


# -- bi-partitions ------------------------------------------------------


@dataclass(frozen=True)
class BiPartition:
    """Two-block split with connected blocks; block S contains node 0."""

    s_nodes: tuple
    sprime_nodes: tuple
    cut: tuple
    trees_s: int
    trees_sprime: int


def _neighbor_masks(g: Graph):
    masks = [0] * g.n
    for u, v in zip(*(a.tolist() for a in g.edge_arrays[:2])):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _mask_connected(mask: int, nbr: list) -> bool:
    if mask == 0:
        return False
    start = (mask & -mask).bit_length() - 1
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        m = frontier
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            nxt |= nbr[u] & mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen == mask


def _bits(mask: int):
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _splits(g: Graph, what: str):
    """Each connected bi-partition as (smask, s_nodes, c_nodes, trees_s,
    trees_c): block S holds node 0, the masks and node lists are ascending,
    and the tree counts are exact integers.

    Requires a connected unweighted graph with n <= MAX_ENUM_NODES.
    """
    _check_enum_size(g, what)
    if not is_connected(g):
        raise GraphError("bi-partitions are defined for connected graphs")
    _check_unweighted(g, what)
    nbr = _neighbor_masks(g)
    full = (1 << g.n) - 1
    for smask in range(1, full, 2):  # odd masks: node 0 always in S
        cmask = full ^ smask
        if not _mask_connected(smask, nbr) or not _mask_connected(cmask, nbr):
            continue
        s_nodes, c_nodes = _bits(smask), _bits(cmask)
        yield (smask, s_nodes, c_nodes, _mask_tree_count(s_nodes, smask, nbr),
               _mask_tree_count(c_nodes, cmask, nbr))


def enumerate_bipartitions(g: Graph):
    """All connected bi-partitions, canonically oriented (node 0 in S).

    Requires a connected graph and n <= MAX_ENUM_NODES.
    """
    out = []
    pairs = list(zip(*(a.tolist() for a in g.edge_arrays[:2])))
    for smask, s_nodes, c_nodes, trees_s, trees_c in _splits(g, "enumerate_bipartitions"):
        cut = tuple((u, v) for u, v in pairs if ((smask >> u) & 1) != ((smask >> v) & 1))
        out.append(BiPartition(s_nodes=tuple(s_nodes), sprime_nodes=tuple(c_nodes), cut=cut,
                               trees_s=trees_s, trees_sprime=trees_c))
    return out


# -- rooted-forest census ------------------------------------------------


@dataclass(frozen=True)
class ForestCensus:
    """Counts of spanning rooted forests with n-1 and n-2 edges.

    eps_n1: forests with n-1 edges (= n * spanning trees).
    eps_n2: two-tree forests with one root marked in each tree.
    eps_rooted[i]: two-tree forests where i's tree is rooted at i.
    All exact integers.
    """

    eps_n1: int
    eps_n2: int
    eps_rooted: tuple


def forest_census(g: Graph) -> ForestCensus:
    """Aggregate the bi-partition enumeration into rooted-forest counts.

    Per partition P = (S, S') a two-tree forest is a spanning tree of each
    block; rooting at i in S leaves |S'| root choices on the other side.
    """
    n = g.n
    eps_rooted = [0] * n
    eps_n2 = 0
    for _, s_nodes, c_nodes, trees_s, trees_c in _splits(g, "forest_census"):
        pair = trees_s * trees_c
        size_s, size_c = len(s_nodes), len(c_nodes)
        eps_n2 += pair * size_s * size_c
        for i in s_nodes:
            eps_rooted[i] += pair * size_c
        for i in c_nodes:
            eps_rooted[i] += pair * size_s
    eps_n1 = n * count_spanning_trees(g)
    return ForestCensus(eps_n1=eps_n1, eps_n2=eps_n2, eps_rooted=tuple(eps_rooted))


def lplus_diag_fractions(g: Graph):
    """diag(L+) by pure forest counting, as exact Fractions (the
    combinatorial oracle): l+_ii = (n rooted_i - eps_n2) / (n eps_n1)."""
    census = forest_census(g)
    n = g.n
    return [Fraction(n * rooted - census.eps_n2, n * census.eps_n1)
            for rooted in census.eps_rooted]


# -- trees ---------------------------------------------------------------


def _require_tree(g: Graph, what: str):
    if g.m != g.n - 1 or not is_connected(g):
        raise NotATreeError(f"{what} needs a tree (connected, n-1 edges)")


def _rooted_at_zero(t: Graph):
    """(order, parent, size) of the tree hung from node 0: the graph's cached
    breadth-first order, each node's parent (-1 at the root) and the node
    count of its subtree."""
    order, parent, _ = t._search
    size = np.ones(t.n, np.int64)
    for v in order[:0:-1].tolist():
        size[parent[v]] += size[v]
    return order, parent, size


def tree_centrality(t: Graph) -> np.ndarray:
    """diag(L+) of an unweighted tree from edge-deletion component sizes.

    Deleting an edge splits the tree in two; node i collects the squared
    size of the component it is NOT in, summed over all n-1 edges, divided
    by n^2. Node i lies in the subtree under v exactly when v is on the
    root-to-i path, so one prefix pass over the BFS order covers all edges.
    """
    _require_tree(t, "tree_centrality")
    _check_unweighted(t, "tree_centrality")
    n = t.n
    order, parent, size = _rooted_at_zero(t)
    # edge owned by non-root v: inside nodes score (n-s)^2, outside s^2
    total_sq = sum(int(size[v]) ** 2 for v in range(1, n))
    acc = np.zeros(n, np.int64)
    for idx in range(1, n):
        v = order[idx]
        s = int(size[v])
        acc[v] = acc[parent[v]] + (n - s) ** 2 - s * s
    return (acc + total_sq) / float(n * n)


def tree_center(t: Graph):
    """Nodes minimizing total geodesic distance, as a sorted tuple; totals
    within a relative CENTER_RTOL of the minimum tie.

    The total S(i) = sum_j SPD(i,j) follows in O(n) from subtree sizes: an
    edge of length 1/w above subtree v is crossed by size(v) paths from the
    root, and moving from parent(v) to v brings size(v) nodes 1/w closer
    and the other n - size(v) nodes 1/w farther, so
    S(v) = S(parent(v)) + (n - 2 size(v)) / w.

    On a tree l+_ii = (S(i) - Tr(L+)) / n, so this set is also the argmax
    of C* (verify's tree-partition checks that).
    """
    _require_tree(t, "tree_center")
    n = t.n
    order, parent, size = _rooted_at_zero(t)
    u, v, w = t.edge_arrays
    length = np.zeros(n)
    length[np.where(parent[v] == u, v, u)] = 1.0 / w  # indexed by the edge's child end
    totals = np.empty(n)
    totals[0] = float(size @ length)
    for x in order[1:].tolist():
        totals[x] = totals[parent[x]] + (n - 2 * int(size[x])) * length[x]
    centers = np.flatnonzero(totals <= totals.min() * (1.0 + CENTER_RTOL))
    return tuple(int(x) for x in centers)
