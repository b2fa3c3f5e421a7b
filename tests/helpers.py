"""Shared test fixtures: small named graphs, the seeded instance generators
(the same ones `lapcent verify` draws from), and brute-force oracles that are
deliberately independent of the package's own computation routes."""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from lapcent import Graph, build_spectral, hitting_times_exact
from lapcent.verify import (Gap, Routes, bound, complete_graph, cycle_graph, path_graph,
                            random_connected, random_tree, tree_from_pruefer)


def star_graph(n):
    """Hub is node 0."""
    return Graph(n, [(0, i) for i in range(1, n)])


def wide_weight_cycle(n=60):
    """An n-cycle with weights 10^U(-6, 0), and its resistance matrix in
    closed form: the two arcs between i and j are resistors in parallel."""
    w = 10.0 ** np.random.default_rng(0).uniform(-6, 0, n)
    g = Graph(n, [(i, (i + 1) % n, float(w[i])) for i in range(n)])
    r = 1.0 / w
    pos = np.concatenate([[0.0], np.cumsum(r[:-1])])
    arc = np.abs(pos[:, None] - pos[None, :])
    return g, arc * (r.sum() - arc) / r.sum()


def ring_chords(rng, n, weights):
    """Ring plus 2n random chords (m = 3n), weights drawn by `weights`."""
    pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(pairs) < 3 * n:
        u, v = sorted(rng.choice(n, 2, replace=False).tolist())
        pairs.add((u, v))
    pairs = sorted(pairs)
    return Graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights(rng, len(pairs)))])


@st.composite
def wide_weight_graphs(draw):
    """Edge-list text of connected graphs (a random tree plus extra edges)
    with weights 10^U(-20, 3)."""
    n = draw(st.integers(2, 9))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=n)))
    exps = draw(st.lists(st.floats(-20.0, 3.0), min_size=len(pairs), max_size=len(pairs)))
    return "".join(f"{u} {v} {10.0 ** e!r}\n" for (u, v), e in zip(sorted(pairs), exps))


def routes(g):
    """g as an instance of verify's shared pools."""
    return Routes(g, hitting_times_exact(g), build_spectral(g))


def within_bounds(value, n):
    """Whether each Gap that a verify check returns for an n-node instance
    stays within 1e-9 and within its own bound."""
    gaps = (value,) if isinstance(value, Gap) else value
    return all(gap.residual <= min(1e-9, bound(n, gap.scale, gap.kappa)) for gap in gaps)


def rel_gap(got, want):
    """Largest entrywise gap relative to the largest |want| entry, so that
    entries at or near 0 do not blow the ratio up."""
    return np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))


# -- brute-force oracles ------------------------------------------------


def edge_loop(g):
    """(A, degrees) by a loop over g.edges, independent of the package's
    matrix builders; each degree sums its weights in edge order."""
    a, d = np.zeros((g.n, g.n)), np.zeros(g.n)
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = w
        d[u] += w
        d[v] += w
    return a, d


def fundamental_visits(g, i, j):
    """Expected visits to each node of the absorbed walk i -> j, from the
    fundamental matrix N = (I - Q)^-1 of the chain with j removed. The
    start position counts; arrival at j does not."""
    n = g.n
    a, d = edge_loop(g)
    P = a / d[:, None]
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
    n, edges = g.n, g.edges  # g.edges builds its tuples on each read
    for sub in combinations(range(g.m), n - 2):
        uf = _UnionFind(n)
        ok = True
        for ei in sub:
            u, v, _ = edges[ei]
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
    n, edges = g.n, g.edges
    count = 0
    for sub in combinations(range(g.m), n - 1):
        uf = _UnionFind(n)
        if all(uf.union(*edges[ei][:2]) for ei in sub):
            count += 1
    return count
