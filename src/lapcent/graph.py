"""Weighted undirected simple graphs with dense 0-based node ids.

Edge weights are affinities: larger weight means the endpoints are closer.
Geodesic computations therefore use 1/w as the length of an edge; unweighted
graphs (all weights 1.0) fall back to plain hop counts.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


class GraphError(Exception):
    """Invalid graph construction or operation."""


class EdgeListError(GraphError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedError(GraphError):
    """Operation requires a connected graph."""


class Graph:
    """Immutable simple graph: no self-loops, no parallel edges, finite weights > 0.

    Node ids are the dense range 0..n-1. Optional labels give external names
    for reports; internally everything is id-based.
    """

    def __init__(self, n, edges, labels=None):
        if n < 1:
            raise GraphError("graph needs at least one node")
        seen = set()
        canon = []
        for e in edges:
            if len(e) == 2:
                u, v = e
                w = 1.0
            else:
                u, v, w = e
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) references a node outside 0..{n-1}")
            if not math.isfinite(w) or w <= 0:
                raise GraphError(f"weight {w} on edge ({u},{v}) must be positive and finite")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canon.append((u, v, w))
        canon.sort()
        self.n = n
        self.edges = tuple(canon)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise GraphError(f"expected {n} labels, got {len(labels)}")
        self.labels = labels
        self._adjacency = None
        self._degrees = None
        self._csr = None
        self._label_index = None

    # -- derived views -------------------------------------------------

    @property
    def m(self):
        return len(self.edges)

    @property
    def adjacency(self):
        """Dense symmetric affinity matrix with zero diagonal."""
        if self._adjacency is None:
            a = np.zeros((self.n, self.n))
            for u, v, w in self.edges:
                a[u, v] = w
                a[v, u] = w
            a.setflags(write=False)
            self._adjacency = a
        return self._adjacency

    @property
    def degrees(self):
        """Generalized degrees d(i) = sum_j a_ij."""
        if self._degrees is None:
            d = np.zeros(self.n)
            for u, v, w in self.edges:
                d[u] += w
                d[v] += w
            d.setflags(write=False)
            self._degrees = d
        return self._degrees

    @property
    def volume(self):
        """Vol(G) = sum of degrees = twice the total edge weight."""
        return float(self.degrees.sum())

    @property
    def unweighted(self):
        return all(w == 1.0 for _, _, w in self.edges)

    def csr(self):
        """(indptr, neighbors, cumweights) with neighbors sorted per node.

        cumweights holds, within each node's slice, the running sum of
        incident edge weights; the last entry of a slice equals d(i).
        """
        if self._csr is None:
            adj = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            indptr = np.zeros(self.n + 1, np.int64)
            nbrs = np.empty(2 * self.m, np.int64)
            cumw = np.empty(2 * self.m, np.float64)
            pos = 0
            for u in range(self.n):
                adj[u].sort()
                acc = 0.0
                for v, w in adj[u]:
                    acc += w
                    nbrs[pos] = v
                    cumw[pos] = acc
                    pos += 1
                indptr[u + 1] = pos
            for arr in (indptr, nbrs, cumw):
                arr.setflags(write=False)
            self._csr = (indptr, nbrs, cumw)
        return self._csr

    def has_edge(self, u, v):
        if u > v:
            u, v = v, u
        return any(a == u and b == v for a, b, _ in self.edges)

    def label_of(self, i):
        return self.labels[i] if self.labels is not None else str(i)

    def index_of(self, label):
        """Resolve an external label to a node id."""
        if self._label_index is None:
            if self.labels is None:
                self._label_index = {}
            else:
                self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if label in self._label_index:
            return self._label_index[label]
        raise GraphError(f"unknown node label {label!r}")

    def __repr__(self):
        kind = "unweighted" if self.unweighted else "weighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


# -- construction ------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v [w]" lines into a Graph.

    Lines may carry "#" comments; blank lines are skipped; LF and CRLF both
    work. Any malformed line, self-loop, nonpositive weight, or duplicate
    edge rejects the whole input with its line number.
    """
    edges = []
    seen = set()
    max_id = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListError(f"expected 'u v [w]', got {raw.strip()!r}", ln)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer node id in {raw.strip()!r}", ln) from None
        if u < 0 or v < 0:
            raise EdgeListError("negative node id", ln)
        if u == v:
            raise EdgeListError(f"self-loop at node {u}", ln)
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise EdgeListError(f"bad weight {parts[2]!r}", ln) from None
            if not np.isfinite(w) or w <= 0:
                raise EdgeListError(f"nonpositive weight {w}", ln)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListError(f"duplicate edge ({u},{v})", ln)
        seen.add(key)
        max_id = max(max_id, u, v)
        edges.append((u, v, w))
    if not edges:
        raise GraphError("edge list is empty")
    return Graph(max_id + 1, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical text form; parse(format(g)) round-trips exactly."""
    lines = []
    weighted = not g.unweighted
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w!r}" if weighted else f"{u} {v}")
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# -- connectivity and geodesics ---------------------------------------


def components(g: Graph):
    """Connected components as sorted node lists, ordered by smallest member."""
    indptr, nbrs, _ = g.csr()
    seen = np.zeros(g.n, bool)
    out = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in range(indptr[u], indptr[u + 1]):
                v = int(nbrs[e])
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


def require_connected(g: Graph, what="operation"):
    comps = components(g)
    if len(comps) > 1:
        raise DisconnectedError(
            f"{what} requires a connected graph; second component: {comps[1]}"
        )


def require_nodes(g: Graph, *ids):
    """Raise unless every id names a node, 0..n-1 (no negative indexing)."""
    for x in ids:
        if not 0 <= x < g.n:
            raise GraphError(f"node {x} outside 0..{g.n - 1}")


def shortest_path_distances(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances by Floyd-Warshall, O(n^3).

    Hop counts for unweighted graphs; weighted edges contribute length 1/w
    (weights are affinities). Each of the n relaxations through a pivot k
    is one whole-matrix numpy pass. Raises on disconnected input.
    """
    require_connected(g, "shortest_path_distances")
    a = g.adjacency
    with np.errstate(divide="ignore"):
        dist = np.where(a > 0, 1.0 / a, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(g.n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def diameter(g: Graph) -> float:
    return float(shortest_path_distances(g).max())


# -- rewiring ----------------------------------------------------------


def rewire(g: Graph, remove, add, check_connected=True) -> Graph:
    """New graph with `remove` edges deleted and `add` edges inserted.

    Removal entries are (u, v); additions are (u, v) with weight 1 or
    (u, v, w). Removing a missing edge, adding an existing edge, or adding
    a self-loop is an error. Set check_connected=False to allow results
    that fall apart (e.g. failure analysis).
    """
    current = {(u, v): w for u, v, w in g.edges}
    for e in remove:
        u, v = int(e[0]), int(e[1])
        key = (min(u, v), max(u, v))
        if key not in current:
            raise GraphError(f"cannot remove missing edge ({u},{v})")
        del current[key]
    for e in add:
        if len(e) == 2:
            u, v = e
            w = 1.0
        else:
            u, v, w = e
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"cannot add self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in current:
            raise GraphError(f"cannot add existing edge ({u},{v})")
        current[key] = float(w)
    out = Graph(g.n, [(u, v, w) for (u, v), w in current.items()], labels=g.labels)
    if check_connected:
        require_connected(out, "rewire result")
    return out


def degree_sequence(g: Graph):
    """Degrees sorted descending (the usual scaling-sequence view)."""
    return tuple(sorted(g.degrees.tolist(), reverse=True))
