"""Laplacian pseudo-inverse and the indices read off it: per-node
topological centrality C*(i) = 1/l+_ii and the graph-level Kirchhoff index
K = Tr(L+).

L+ comes from one route, the rank-correction inverse (L + J/n)^-1 - J/n,
which needs one dense factorization and no spectrum. The eigen route and
every cross-check between the two live in `lapcent.verify`. The Kirchhoff
index here is the plain trace; some of the literature scales it by n, so
reports record the convention.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, require_connected

KIRCHHOFF_CONVENTION = "trace"  # K = Tr(L+), no factor n


class SpectralBundle:
    """A connected graph and the Moore-Penrose pseudo-inverse lplus of its
    Laplacian (symmetric, rows sum to zero)."""

    def __init__(self, graph, lplus):
        self.graph = graph
        self.lplus = lplus

    @property
    def n(self):
        return self.graph.n

    @property
    def laplacian(self):
        return self.graph.laplacian


def build_spectral(g: Graph) -> SpectralBundle:
    """L+ = sym((L + J/n)^-1 - J/n) from the graph's Laplacian.

    Connectivity is decided by breadth-first search (authoritative); a
    disconnected graph raises naming the second component.
    """
    require_connected(g, "spectral bundle")
    n = g.n
    lplus = np.linalg.inv(g.laplacian + 1.0 / n) - 1.0 / n
    lplus = (lplus + lplus.T) / 2.0
    return SpectralBundle(g, lplus)


def topological_centrality(b: SpectralBundle) -> np.ndarray:
    """C*(i) = 1 / l+_ii."""
    return 1.0 / np.diag(b.lplus)


def kirchhoff_index(b: SpectralBundle):
    """(K, K*) with K = Tr(L+) and K* = 1/K."""
    k = float(np.trace(b.lplus))
    return k, 1.0 / k


def effective_resistance(b: SpectralBundle, i: int, j: int) -> float:
    """Resistance distance l+_ii + l+_jj - 2 l+_ij."""
    lp = b.lplus
    return float(lp[i, i] + lp[j, j] - 2.0 * lp[i, j])


def resistance_matrix(b: SpectralBundle) -> np.ndarray:
    d = np.diag(b.lplus)
    return d[:, None] + d[None, :] - 2.0 * b.lplus


def spectral_report(b: SpectralBundle) -> dict:
    """JSON-ready report: per-node diagonal and C*, graph-level K, K* and the
    Laplacian spectrum (descending, so the zero mode comes last). The graph
    is connected, so exactly one eigenvalue is zero; it is reported as 0.0
    rather than as rounding noise of either sign."""
    cstar = topological_centrality(b)
    k, kstar = kirchhoff_index(b)
    evals = np.linalg.eigvalsh(b.laplacian)[::-1]
    evals[-1] = 0.0
    diag = np.diag(b.lplus)
    nodes = [
        {
            "id": i,
            "label": b.graph.label_of(i),
            "lplus_diag": float(diag[i]),
            "cstar": float(cstar[i]),
        }
        for i in range(b.n)
    ]
    return {
        "nodes": nodes,
        "graph": {
            "kirchhoff": k,
            "kstar": kstar,
            "eigenvalues": [float(x) for x in evals],
            "kirchhoff_convention": KIRCHHOFF_CONVENTION,
        },
    }
