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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, shortest_path_distances
from .spectral import (SpectralBundle, build_spectral, kirchhoff_index,
                       topological_centrality)

GEO_TIE_TOL = 1e-12  # relative slack when comparing weighted geodesic lengths


def geodesic_closeness(g: Graph) -> np.ndarray:
    spd = shortest_path_distances(g)
    return (g.n - 1) / spd.sum(axis=1)


def _geodesic_sigma(g: Graph, spd: np.ndarray):
    """Shortest-path counts sigma[s, t] for all pairs.

    Counts accumulate along nondecreasing distance from each source;
    weighted ties compare with a small relative tolerance.
    """
    n = g.n
    a = g.adjacency
    with np.errstate(divide="ignore"):
        lengths = np.where(a > 0, 1.0 / a, np.inf)
    tol = GEO_TIE_TOL * (1.0 + spd.max())
    sigma = np.zeros((n, n))
    for s in range(n):
        order = np.argsort(spd[s], kind="stable")
        sigma[s, s] = 1.0
        for t in order[1:]:
            on_path = np.abs(spd[s] + lengths[:, t] - spd[s, t]) <= tol
            sigma[s, t] = sigma[s, on_path].sum()
    return sigma


def geodesic_betweenness(g: Graph) -> np.ndarray:
    """Freeman betweenness: sum over pairs s < t of sigma_st(v)/sigma_st."""
    spd = shortest_path_distances(g)
    sigma = _geodesic_sigma(g, spd)
    tol = GEO_TIE_TOL * (1.0 + spd.max())
    n = g.n
    gb = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            interior = np.abs(spd[s] + spd[:, t] - spd[s, t]) <= tol
            interior[s] = interior[t] = False
            if interior.any():
                gb[interior] += sigma[s, interior] * sigma[interior, t] / sigma[s, t]
    return gb


def subgraph_centrality(g: Graph) -> np.ndarray:
    """Closed-walk centrality SC(i) = sum_k (A^k)_ii / k! = sum_j u_ji^2 e^mu_j."""
    mu, vecs = np.linalg.eigh(g.adjacency)
    return (vecs**2) @ np.exp(mu)


def randomwalk_betweenness(g: Graph, b: SpectralBundle | None = None) -> np.ndarray:
    """Current-flow betweenness from pseudo-inverse voltages."""
    if b is None:
        b = build_spectral(g)
    n = g.n
    if n < 3:
        return np.zeros(n)
    edges = g.edges
    eu = np.array([e[0] for e in edges])
    ev = np.array([e[1] for e in edges])
    ew = np.array([e[2] for e in edges])
    rb = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            v = b.lplus[:, s] - b.lplus[:, t]
            cur = np.abs(ew * (v[eu] - v[ev]))
            through = np.zeros(n)
            np.add.at(through, eu, cur)
            np.add.at(through, ev, cur)
            through /= 2.0
            through[s] = through[t] = 0.0
            rb += through
    return rb / ((n - 1) * (n - 2) / 2.0)


def randic_index(g: Graph) -> float:
    """Sum over edges of the endpoint degree products."""
    d = g.degrees
    return float(sum(d[u] * d[v] for u, v, _ in g.edges))


def max_normalized(values: np.ndarray) -> np.ndarray:
    """values / max(values); an all-zero vector stays all-zero."""
    top = values.max()
    if top == 0:
        return np.zeros_like(values)
    return values / top


@dataclass(frozen=True)
class CentralityReport:
    """Per-node indices plus graph-level descriptors and averages."""

    degree: np.ndarray
    gc: np.ndarray
    sc: np.ndarray
    gb: np.ndarray
    rb: np.ndarray
    cstar: np.ndarray
    kirchhoff: float
    kstar: float
    randic: float

    PER_NODE = ("degree", "gc", "sc", "gb", "rb", "cstar")

    def averages(self):
        return {name: float(getattr(self, name).mean()) for name in self.PER_NODE}

    def normalized(self):
        return {name: max_normalized(getattr(self, name)) for name in self.PER_NODE}

    def csv_rows(self, g: Graph):
        norm = self.normalized()
        header = ["node", "label"]
        for name in self.PER_NODE:
            header += [name, f"{name}_norm"]
        rows = [header]
        for i in range(g.n):
            row = [str(i), g.label_of(i)]
            for name in self.PER_NODE:
                row += [f"{getattr(self, name)[i]:.12g}", f"{norm[name][i]:.12g}"]
            rows.append(row)
        return rows


def centrality_report(g: Graph, b: SpectralBundle | None = None) -> CentralityReport:
    if b is None:
        b = build_spectral(g)
    k, kstar = kirchhoff_index(b)
    return CentralityReport(
        degree=g.degrees.copy(),
        gc=geodesic_closeness(g),
        sc=subgraph_centrality(g),
        gb=geodesic_betweenness(g),
        rb=randomwalk_betweenness(g, b),
        cstar=topological_centrality(b),
        kirchhoff=k,
        kstar=kstar,
        randic=randic_index(g),
    )

