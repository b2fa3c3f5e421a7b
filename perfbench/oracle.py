"""Reference values computed by the benchmark itself, sharing no code with
lapcent: numpy for the spectrum and linear solves, scipy for geodesic
distances, networkx for both betweenness indices.

Conventions follow lapcent's documentation: weights are affinities, an
edge's geodesic length is 1/w, geodesic closeness is (n-1)/sum_j SPD(i,j),
betweenness is the unnormalized pair sum, and current-flow betweenness is
averaged over the (n-1)(n-2)/2 pairs that avoid the node.
"""

from __future__ import annotations

import numpy as np


def adjacency(edges, n):
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = a[v, u] = w
    return a


def spectral(edges, n):
    """Eigenvalues (descending), diag(L+) and K = sum 1/lambda from one eigh."""
    a = adjacency(edges, n)
    lap = np.diag(a.sum(axis=1)) - a
    evals, vecs = np.linalg.eigh(lap)
    nonzero = slice(1, n)  # ascending order: index 0 is the zero mode
    diag = (vecs[:, nonzero] ** 2) @ (1.0 / evals[nonzero])
    return {"eigenvalues": evals[::-1].copy(), "lplus_diag": diag,
            "kirchhoff": float(np.sum(1.0 / evals[nonzero]))}


def hitting(edges, n, i, j):
    """Exact expected steps i -> j and j -> i from the first-step equations,
    one solve per target."""
    a = adjacency(edges, n)
    p = a / a.sum(axis=1)[:, None]

    def to(target):
        keep = np.arange(n) != target
        h = np.linalg.solve(np.eye(n - 1) - p[np.ix_(keep, keep)], np.ones(n - 1))
        full = np.zeros(n)
        full[keep] = h
        return full

    h_ij = float(to(j)[i])
    h_ji = float(to(i)[j])
    return {"hitting": h_ij, "commute": h_ij + h_ji}


def indices(edges, n):
    """Every per-node comparison index plus the graph-level descriptors."""
    import networkx as nx
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    a = adjacency(edges, n)
    deg = a.sum(axis=1)
    weighted = any(w != 1.0 for _, _, w in edges)
    rows = [u for u, v, _ in edges] + [v for u, v, _ in edges]
    cols = [v for u, v, _ in edges] + [u for u, v, _ in edges]
    lengths = [1.0 / w for _, _, w in edges] * 2
    spd = shortest_path(csr_matrix((lengths, (rows, cols)), shape=(n, n)),
                        directed=False)
    gc = (n - 1) / spd.sum(axis=1)

    mu, vecs = np.linalg.eigh(a)
    sc = (vecs ** 2) @ np.exp(mu)

    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        g.add_edge(u, v, weight=w, length=1.0 / w)
    gb_map = nx.betweenness_centrality(g, normalized=False,
                                       weight="length" if weighted else None)
    rb_map = nx.current_flow_betweenness_centrality(g, normalized=False,
                                                    weight="weight")
    gb = np.array([gb_map[i] for i in range(n)])
    rb = np.array([rb_map[i] for i in range(n)]) / ((n - 1) * (n - 2) / 2.0)

    spec = spectral(edges, n)
    cstar = 1.0 / spec["lplus_diag"]
    k = spec["kirchhoff"]
    per_node = {"degree": deg, "gc": gc, "sc": sc, "gb": gb, "rb": rb, "cstar": cstar}
    return {
        "per_node": per_node,
        "lplus_diag": spec["lplus_diag"],
        "descriptors": {
            "kstar": 1.0 / k,
            "randic": float(sum(deg[u] * deg[v] for u, v, _ in edges)),
            "gc_mean": float(gc.mean()),
            "sc_mean": float(sc.mean()),
            "gb_mean": float(gb.mean()),
            "rb_mean": float(rb.mean()),
            "cstar_mean": float(cstar.mean()),
            "kirchhoff": k,
        },
    }


def approx(edges, n, i, j):
    """Dense-regime degree estimates: Vol/d(i) and Vol (1/d(i) + 1/d(j))."""
    deg = adjacency(edges, n).sum(axis=1)
    vol = float(deg.sum())
    return {"hitting": vol / deg[i], "commute": vol * (1.0 / deg[i] + 1.0 / deg[j])}
