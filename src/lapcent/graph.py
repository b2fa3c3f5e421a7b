"""Weighted undirected simple graphs with dense 0-based node ids.

Edge weights are affinities: larger weight means the endpoints are closer.
Geodesic computations therefore use 1/w as the length of an edge; unweighted
graphs (all weights 1.0) fall back to plain hop counts.

`Graph` is the one place that applies the edge rules. It stores its edges
once, as read-only arrays, and owns the views derived from them (degrees,
volume, the CSR's neighbours and the walks' running sums, search, geodesic
distances): each is computed on first use, cached and returned read-only.
The one search serves the components and the rooting of a tree
(`lapcent.forests`). The distances are the only n x n view kept; every
other dense matrix is built by `_edge_matrix` in the routine that reads it.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, pairwise

import numpy as np


class GraphError(Exception):
    """Invalid graph construction or operation. `edge` is the input position
    of the edge at fault when Graph rejects a single edge."""

    def __init__(self, message="", edge=None):
        super().__init__(message)
        self.edge = edge


class EdgeListError(GraphError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedError(GraphError):
    """Operation requires a connected graph."""


def _frozen(a):
    a.setflags(write=False)
    return a


class Graph:
    """Immutable simple graph: no self-loops, no parallel edges, finite weights > 0.

    Node ids are the dense range 0..n-1 and are the only node names: reports
    print the id wherever they have a label field. The stored record is
    `edge_arrays`, (u, v, w) with u < v, sorted by (u, v): int64 ends and
    float64 weights. `edges` builds the same (u, v, w) tuples on each read.
    """

    def __init__(self, n, edges):
        if n < 1:
            raise GraphError("graph needs at least one node")
        kept = {}  # min(u, v) * n + max(u, v) -> w, for each accepted edge
        for idx, e in enumerate(edges):
            u0, v0, w = (*e, 1.0) if len(e) == 2 else e
            u, v, w = int(u0), int(v0), float(w)
            if u != u0 or v != v0:
                raise GraphError(f"non-integer node id in edge ({u0},{v0})", edge=idx)
            if u == v:
                raise GraphError(f"self-loop at node {u}", edge=idx)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) references a node outside 0..{n-1}",
                                 edge=idx)
            if not math.isfinite(w) or w <= 0:
                raise GraphError(f"weight {w} on edge ({u},{v}) must be positive and finite",
                                 edge=idx)
            key = u * n + v if u < v else v * n + u
            if key in kept:
                raise GraphError(f"duplicate edge ({u},{v})", edge=idx)
            kept[key] = w
        keys = sorted(kept)
        u, v = np.divmod(np.array(keys, np.int64), n)
        self.n = n
        self.edge_arrays = tuple(_frozen(a) for a in (u, v, np.array([kept[k] for k in keys])))

    @property
    def edges(self):
        """The edges as (u, v, w) tuples in edge order, built from the arrays on each read."""
        return tuple(zip(*(a.tolist() for a in self.edge_arrays)))

    # -- derived views -------------------------------------------------

    @property
    def m(self):
        return len(self.edge_arrays[2])

    @cached_property
    def degrees(self):
        """Generalized degrees d(i) = sum_j a_ij, summed in edge order."""
        u, v, w = self.edge_arrays
        ends = np.column_stack([u, v]).ravel()  # u0 v0 u1 v1 ...
        return _frozen(np.bincount(ends, weights=np.repeat(w, 2), minlength=self.n))

    @cached_property
    def volume(self):
        """Vol(G) = sum of degrees = twice the total edge weight (inf past float64)."""
        with np.errstate(over="ignore"):
            return float(self.degrees.sum())

    @cached_property
    def unweighted(self):
        return bool(np.all(self.edge_arrays[2] == 1.0))

    def csr(self):
        """(indptr, neighbors, cumweights) with neighbors sorted per node.

        cumweights, summed on the first call (only the walks read it), holds
        each node's running sum of incident edge weights, ending at d(i).
        """
        return (*self._neighbors, self._cumw)

    def _slots(self):
        # the doubled entries are listed under v, then u; a stable sort keeps edge order per node
        return np.argsort(np.concatenate(self.edge_arrays[1::-1]), kind="stable")

    @cached_property
    def _neighbors(self):  # (indptr, neighbors): the CSR that the search reads
        ends = np.concatenate(self.edge_arrays[:2])
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=self.n))])
        return _frozen(indptr), _frozen(ends[self._slots()])

    @cached_property
    def _cumw(self):
        ws = np.tile(self.edge_arrays[2], 2)[self._slots()].tolist()
        return _frozen(np.array([c for a, b in pairwise(self._neighbors[0].tolist())
                                 for c in accumulate(ws[a:b])]))

    @cached_property
    def _search(self):
        return _breadth_first(self)

    @cached_property
    def _spd(self):
        return _frozen(_floyd_warshall(self))

    def has_edge(self, u, v):
        a, b = (u, v) if u < v else (v, u)
        lo, hi = self.edge_arrays[0].searchsorted([a, a + 1])
        return bool(b in self.edge_arrays[1][lo:hi])

    def __repr__(self):
        kind = "unweighted" if self.unweighted else "weighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def _edge_matrix(g: Graph, fill, edge, diag):
    """A new n x n array holding `fill`, with edge k's `edge[k]` at (u_k, v_k)
    and (v_k, u_k) and `diag` on the diagonal."""
    u, v, _ = g.edge_arrays
    out = np.full((g.n, g.n), fill)
    out[u, v] = edge
    out[v, u] = edge
    np.fill_diagonal(out, diag)
    return out


def _adjacency(g: Graph):
    """A, with +0.0 off the edges: -L holds -0.0 there, and LAPACK's eigh reads the sign."""
    return _edge_matrix(g, 0.0, g.edge_arrays[2], 0.0)


def _shifted_laplacian(g: Graph, scale=1.0, shift=0.0):
    """L / scale + shift, entrywise from the edge arrays and the degrees: the
    bits of dividing and shifting L = D - A (the defaults) without L."""
    return _edge_matrix(g, shift, (-g.edge_arrays[2]) / scale + shift, g.degrees / scale + shift)


# -- construction ------------------------------------------------------


def _ascii_number(kind, token):  # int() and float() also read `_` and non-ASCII digits
    return kind(token if token.isascii() and "_" not in token else "")


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v [w]" lines into a Graph.

    Lines end only at LF, CRLF or a lone CR; "#" starts a comment; blank lines
    are skipped. Fields split only at ASCII whitespace, and numerals are
    ASCII; ids are the dense range 0..n-1. A bad line, or an edge that Graph
    rejects (self-loop, weight not positive and finite, duplicate), rejects
    the whole input with its line number.
    """
    edges, lines = [], []
    for ln, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
        line = raw.split("#", 1)[0]
        if not line.isascii() and any(c.isspace() and not c.isascii() for c in line):
            raise EdgeListError(f"non-ASCII whitespace in {line!r}", ln)  # str.split() splits there
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"expected 'u v [w]', got {raw.strip()!r}", ln)
        try:
            u, v = _ascii_number(int, parts[0]), _ascii_number(int, parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer node id in {raw.strip()!r}", ln) from None
        if u < 0 or v < 0:
            raise EdgeListError("negative node id", ln)
        try:
            w = _ascii_number(float, parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise EdgeListError(f"bad weight {parts[2]!r}", ln) from None
        edges.append((u, v, w))
        lines.append(ln)
    if not edges:
        raise GraphError("edge list is empty")
    ids = {x for u, v, _ in edges for x in (u, v)}
    n = max(ids) + 1
    if len(ids) < n:
        missing = next(i for i, x in enumerate(sorted(ids)) if i != x)
        raise GraphError(f"node ids must be dense 0..{n - 1}; id {missing} is missing")
    try:
        return Graph(n, edges)
    except GraphError as exc:
        raise EdgeListError(str(exc), lines[exc.edge]) from None


def format_edge_list(g: Graph) -> str:
    """Canonical text form; parse(format(g)) round-trips exactly.

    An edge list cannot express a node without edges, so a graph with an
    isolated node raises instead of formatting to a file that parses to a
    different graph or not at all.
    """
    isolated = np.flatnonzero(g.degrees == 0)
    if isolated.size:
        raise GraphError(f"node {isolated[0]} has no edges; an edge list cannot express it")
    lines = []
    weighted = not g.unweighted
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}" if weighted else f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    """Parse the file at `path`; a leading UTF-8 byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_edge_list(fh.read())


# -- connectivity and geodesics ---------------------------------------


def _breadth_first(g: Graph):
    """Breadth-first search over the CSR from each node not yet reached, in
    id order: (order, parent, bounds). order lists the nodes as visited,
    parent[v] is the node v was reached from (-1 at a search root), and the
    k-th component is order[bounds[k]:bounds[k + 1]]."""
    indptr, nbrs = (a.tolist() for a in g._neighbors)
    order, parent, bounds, head = [], [-2] * g.n, [], 0
    for s in range(g.n):
        if parent[s] != -2:
            continue
        bounds.append(head)
        parent[s] = -1
        order.append(s)
        while head < len(order):
            u = order[head]
            head += 1
            for v in nbrs[indptr[u]:indptr[u + 1]]:
                if parent[v] == -2:
                    parent[v] = u
                    order.append(v)
    bounds.append(g.n)
    return _frozen(np.array(order, np.int64)), _frozen(np.array(parent, np.int64)), tuple(bounds)


def components(g: Graph):
    """Connected components as sorted node lists, ordered by smallest member:
    fresh lists cut from the graph's one cached search."""
    order, _, bounds = g._search
    return [sorted(order[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


def is_connected(g: Graph) -> bool:
    return len(g._search[2]) == 2


def require_connected(g: Graph, what="operation"):
    if not is_connected(g):
        raise DisconnectedError(
            f"{what} requires a connected graph; second component: {components(g)[1]}"
        )


def require_nodes(g: Graph, *ids):
    """Raise unless every id names a node, 0..n-1 (no negative indexing)."""
    for x in ids:
        if not 0 <= x < g.n:
            raise GraphError(f"node {x} outside 0..{g.n - 1}")


def shortest_path_distances(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances, read-only; computed once per graph.

    Hop counts for unweighted graphs; weighted edges contribute length 1/w
    (weights are affinities). Raises on disconnected input, and on input
    whose distances, or a node's sum of them, pass the float64 range.
    """
    return g._spd


def _floyd_warshall(g: Graph) -> np.ndarray:
    """Floyd-Warshall, O(n^3): one whole-matrix numpy pass per pivot k."""
    require_connected(g, "shortest_path_distances")
    with np.errstate(over="ignore"):
        dist = _edge_matrix(g, np.inf, 1.0 / g.edge_arrays[2], 0.0)
        for k in range(g.n):
            np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
        far = np.sum(dist, axis=1).max()  # lengths are >= 0: a sum is never NaN
    if far == np.inf:
        w = g.edge_arrays[2]
        raise GraphError(f"geodesic distances overflow float64: a node's distances sum to "
                         f"inf (edge weights span {w.min():.3g} to {w.max():.3g})")
    return dist


# -- rewiring ----------------------------------------------------------


def rewire(g: Graph, remove, add, check_connected=True) -> Graph:
    """New graph with `remove` edges deleted and `add` edges inserted.

    Removal entries are (u, v); additions are (u, v) with weight 1 or
    (u, v, w). Removing a missing edge or adding an existing edge is an
    error, and the result must pass Graph's edge rules. Set
    check_connected=False to allow results that fall apart (e.g. failure
    analysis).
    """
    current = {(u, v): w for u, v, w in g.edges}
    for e in remove:
        u, v = int(e[0]), int(e[1])
        key = (min(u, v), max(u, v))
        if key not in current:
            raise GraphError(f"cannot remove missing edge ({u},{v})")
        del current[key]
    for e in add:
        u, v = int(e[0]), int(e[1])
        key = (min(u, v), max(u, v))
        if key in current:
            raise GraphError(f"cannot add existing edge ({u},{v})")
        current[key] = e[2] if len(e) == 3 else 1.0
    out = Graph(g.n, [(u, v, w) for (u, v), w in current.items()])
    if check_connected:
        require_connected(out, "rewire result")
    return out


def degree_sequence(g: Graph):
    """Degrees sorted descending (the usual scaling-sequence view)."""
    return tuple(sorted(g.degrees.tolist(), reverse=True))
