"""Shared test fixtures: small named graphs, the seeded instance generators
(the same ones `lapcent verify` draws from), and brute-force oracles that are
deliberately independent of the package's own computation routes."""

from itertools import combinations

import numpy as np

from lapcent import Graph
from lapcent.verify import (complete_graph, path_graph, random_connected,
                            random_tree, tree_from_pruefer)


def star_graph(n):
    """Hub is node 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def rel_gap(got, want):
    """Largest entrywise gap relative to the largest |want| entry, so that
    entries at or near 0 do not blow the ratio up."""
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


# -- brute-force oracles ------------------------------------------------


def fundamental_visits(g, i, j):
    """Expected visits to each node of the absorbed walk i -> j, from the
    fundamental matrix N = (I - Q)^-1 of the chain with j removed. The
    start position counts; arrival at j does not."""
    n = g.n
    P = g.adjacency / g.degrees[:, None]
    keep = [k for k in range(n) if k != j]
    N = np.linalg.inv(np.eye(n - 1) - P[np.ix_(keep, keep)])
    out = np.zeros(n)
    row = keep.index(i)
    for col, k in enumerate(keep):
        out[k] = N[row, col]
    return out


def hitting_by_fundamental(g, i, j):
    """Expected steps i -> j = total expected visits before absorption."""
    return float(fundamental_visits(g, i, j).sum())


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def brute_two_tree_forests(g):
    """Enumerate every spanning two-tree forest (n-2 acyclic edges).

    Yields frozensets of the two component node sets. Independent of the
    package's bipartition/Matrix-Tree machinery.
    """
    n = g.n
    for sub in combinations(range(g.m), n - 2):
        uf = _UnionFind(n)
        ok = True
        for ei in sub:
            u, v, _ = g.edges[ei]
            if not uf.union(u, v):
                ok = False
                break
        if not ok:
            continue
        comp = {}
        for node in range(n):
            comp.setdefault(uf.find(node), []).append(node)
        parts = list(comp.values())
        assert len(parts) == 2
        yield frozenset(parts[0]), frozenset(parts[1])


def brute_forest_census(g):
    """(eps_rooted list, eps_n2) by raw forest enumeration with root markings."""
    n = g.n
    eps_rooted = [0] * n
    eps_n2 = 0
    for a, b in brute_two_tree_forests(g):
        eps_n2 += len(a) * len(b)
        for i in a:
            eps_rooted[i] += len(b)
        for i in b:
            eps_rooted[i] += len(a)
    return eps_rooted, eps_n2


def brute_spanning_tree_count(g):
    """Count spanning trees by enumerating (n-1)-edge subsets."""
    n = g.n
    count = 0
    for sub in combinations(range(g.m), n - 1):
        uf = _UnionFind(n)
        if all(uf.union(*g.edges[ei][:2]) for ei in sub):
            count += 1
    return count
