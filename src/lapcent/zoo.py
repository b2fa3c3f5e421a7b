"""Comparison centrality indices: degree, geodesic closeness and betweenness,
subgraph centrality, current-flow (random-walk) betweenness, and the Randic
connectivity index.

Conventions held fixed across the toolkit:
  - geodesic closeness GC(i) = (n-1) / sum_j SPD(i,j), so complete graphs
    score exactly 1;
  - geodesic betweenness is the unnormalized Freeman pair-fraction sum;
  - random-walk betweenness averages, over the unordered pairs (s, t) not
    containing v, half the sum of absolute currents on v's incident edges
    under unit (s, t) injection;
  - weighted graphs use 1/w geodesic lengths and the weighted adjacency.

Algorithms: SPD is Floyd-Warshall (graph.shortest_path_distances, O(n^3));
betweenness is Brandes' (2001) dependency accumulation by hop layers of the
shortest-path DAGs of a block of sources at once; current flow sums sorted
edge potentials (Brandes & Fleischer 2005), O(m n log n) once L+ is known.
A block holds at most BLOCK_CELLS array cells, so memory stays O(n^2).

A CentralityReport computes each index on its first read, so a caller pays
only for what it reads: `export-dot` computes the one metric it prints.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .graph import Graph, GraphError, _adjacency, require_connected, shortest_path_distances
from .spectral import (SpectralBundle, build_spectral, kirchhoff_index,
                       topological_centrality)

GEO_TIE_ULPS = 4  # tie slack per summed length, in units of eps * spd
BLOCK_CELLS = 2**20  # array cells per block of sources (gb) or of edges (rb)
LOG_DBL_MAX = math.log(np.finfo(np.float64).max)  # 709.78: exp overflows above it


def geodesic_closeness(g: Graph) -> np.ndarray:
    """(n-1) / sum_j SPD(i,j)."""
    return (g.n - 1) / shortest_path_distances(g).sum(axis=1)


def geodesic_betweenness(g: Graph) -> np.ndarray:
    """Freeman betweenness: sum over pairs s < t of sigma_st(v)/sigma_st.

    Brandes' dependency accumulation for a block of sources at once.
    Directed edge u->v lies on a shortest path from s when
    spd[s,u] + 1/w = spd[s,v] within GEO_TIE_ULPS * n * eps * spd[s,v], the
    rounding a sum of up to n lengths can carry; the test fills two block
    arrays in place, which are freed before the path counts start. Path counts
    sigma grow one hop layer of every source's shortest-path DAG per pass;
    the backward passes push 1/sigma the other way, so that sigma times
    their sum is the dependency of s on each node.
    """
    spd = shortest_path_distances(g)
    n = g.n
    eu, ev, ew = g.edge_arrays
    tails, heads = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    slack = GEO_TIE_ULPS * n * np.finfo(np.float64).eps
    gb = np.zeros(n)
    block = max(1, BLOCK_CELLS // max(1, tails.size))
    with np.errstate(over="ignore"):  # a length or sum past float64 is on no shortest path
        lengths = 1.0 / np.concatenate([ew, ew])
        for lo in range(0, n, block):
            d = spd[lo : lo + block]
            src = np.arange(lo, lo + len(d))
            gap, near = d[:, tails], d[:, heads]
            gap += lengths
            gap -= near
            np.abs(gap, out=gap)
            near *= slack
            rows, e = np.nonzero(gap <= near)
            del gap, near
            # flat (source, node) indices of each DAG edge's ends
            tail, head = rows * n + tails[e], rows * n + heads[e]
            cells = src.size * n
            sigma = np.zeros(cells)
            sigma[np.arange(src.size) * n + src] = 1.0
            layer, z = sigma.copy(), np.zeros(cells)
            # a shortest path has at most n - 1 hops
            for _ in range(n - 1):
                layer = np.bincount(head, weights=layer[tail], minlength=cells)
                if not layer.any():
                    break
                sigma += layer
            layer = 1.0 / sigma
            for _ in range(n - 1):
                layer = np.bincount(tail, weights=layer[head], minlength=cells)
                if not layer.any():
                    break
                z += layer
            delta = (sigma * z).reshape(src.size, n)
            delta[np.arange(src.size), src] = 0.0
            gb += delta.sum(axis=0)
    return gb / 2.0


def subgraph_centrality(g: Graph) -> np.ndarray:
    """Closed-walk centrality SC(i) = sum_k (A^k)_ii / k! = sum_j u_ji^2 e^mu_j.

    sum_i SC(i) = Tr exp(A) <= n e^lambda_max(A), so every SC(i) and their
    sum (hence the mean) are finite while lambda_max(A) <= log(DBL_MAX / n);
    a larger lambda_max(A) is refused with a GraphError.
    """
    mu, vecs = np.linalg.eigh(_adjacency(g))
    limit = LOG_DBL_MAX - math.log(g.n)
    if mu[-1] > limit:
        raise GraphError(f"subgraph centrality overflows float64: lambda_max(A) = "
                         f"{mu[-1]:.6g} exceeds log(DBL_MAX / n) = {limit:.6g}")
    return (vecs**2) @ np.exp(mu)


def randomwalk_betweenness(b: SpectralBundle) -> np.ndarray:
    """Current-flow betweenness from pseudo-inverse voltages.

    A unit s->t injection drives x[s] - x[t] through edge (u, v), where
    x = w (L+[u] - L+[v]) (Brandes & Fleischer 2005). A row sort turns each
    edge's sum over all pairs into one dot product; each endpoint then drops
    the pairs it terminates. A degree-1 node that is not a terminal carries
    no current, so its value is exactly 0.
    """
    g, n = b.graph, b.n
    if n < 3:
        return np.zeros(n)
    eu, ev, ew = g.edge_arrays
    rank_coef = 2.0 * np.arange(n) - n + 1  # sum_{s<t} |x_s - x_t| = sort(x) @ rank_coef
    through = np.zeros(n)
    block = max(1, BLOCK_CELLS // n)
    for lo in range(0, g.m, block):
        u, v, w = eu[lo : lo + block], ev[lo : lo + block], ew[lo : lo + block]
        x = w[:, None] * (b.lplus[u] - b.lplus[v])
        total = np.sort(x, axis=1) @ rank_coef
        rows = np.arange(u.size)
        for end in (u, v):
            own = np.abs(x - x[rows, end][:, None]).sum(axis=1)
            through += np.bincount(end, weights=total - own, minlength=n)
    through[np.bincount(np.concatenate([eu, ev]), minlength=n) == 1] = 0.0
    return through / 2.0 / ((n - 1) * (n - 2) / 2.0)


def randic_index(g: Graph) -> float:
    """Sum over edges of the endpoint degree products."""
    d, (eu, ev, _) = g.degrees, g.edge_arrays
    return float(sum(d[u] * d[v] for u, v in zip(eu.tolist(), ev.tolist())))


def max_normalized(values: np.ndarray) -> np.ndarray:
    """values / max(values); an all-zero vector stays all-zero."""
    top = values.max()
    if top == 0:
        return np.zeros_like(values)
    return values / top


class CentralityReport:
    """The comparison indices of one connected graph, each computed on its
    first read and kept: gc and gb share the graph's cached distances, and
    rb, C*, K and K* share one L+ bundle. Build it with centrality_report."""

    PER_NODE = ("degree", "gc", "sc", "gb", "rb", "cstar")

    def __init__(self, g: Graph):
        self.graph = g

    degree = cached_property(lambda self: self.graph.degrees.copy())
    gc = cached_property(lambda self: geodesic_closeness(self.graph))
    sc = cached_property(lambda self: subgraph_centrality(self.graph))
    gb = cached_property(lambda self: geodesic_betweenness(self.graph))
    _bundle = cached_property(lambda self: build_spectral(self.graph))
    rb = cached_property(lambda self: randomwalk_betweenness(self._bundle))
    cstar = cached_property(lambda self: topological_centrality(self._bundle))
    _kirchhoff = cached_property(lambda self: kirchhoff_index(self._bundle))
    kirchhoff = property(lambda self: self._kirchhoff[0])
    kstar = property(lambda self: self._kirchhoff[1])
    randic = cached_property(lambda self: randic_index(self.graph))

    def normalized(self):
        return {name: max_normalized(getattr(self, name)) for name in self.PER_NODE}

    def csv_rows(self):
        norm = self.normalized()
        header = ["node", "label"]
        for name in self.PER_NODE:
            header += [name, f"{name}_norm"]
        rows = [header]
        for i in range(self.graph.n):
            row = [str(i), str(i)]
            for name in self.PER_NODE:
                row += [f"{getattr(self, name)[i]:.12g}", f"{norm[name][i]:.12g}"]
            rows.append(row)
        return rows


def centrality_report(g: Graph) -> CentralityReport:
    """The report of a connected graph; a disconnected one raises up front,
    whichever index is read."""
    require_connected(g, "centrality report")
    return CentralityReport(g)
