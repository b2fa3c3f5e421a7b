"""networkx as an outside oracle: it shares no code with lapcent, so each
index is checked against an independent implementation on the bundled preset,
on small seeded random graphs, weighted and unweighted, and on sparse seeded
graphs of realistic size.

Weights are affinities in lapcent, so networkx gets them as conductances
(`weight`) and as geodesic lengths 1/w (`length`).
"""

import networkx as nx
import numpy as np
import pytest

from lapcent import Graph, abilene_topology, centrality_report, hitting_times_exact, tree_center
from lapcent.forests import CENTER_RTOL

from helpers import random_connected, random_tree, rel_gap, ring_chords


def _cases():
    yield "preset", abilene_topology(), False
    rng = np.random.default_rng(2024)
    for t in range(4):
        weighted = bool(t % 2)
        yield f"random-{t}", random_connected(rng, int(rng.integers(6, 13)), weighted=weighted), weighted


CASES = list(_cases())


def _to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edges:
        G.add_edge(u, v, weight=w, length=1.0 / w)
    return G


def _array(values, n):
    return np.array([values[i] for i in range(n)])


@pytest.mark.parametrize("name, g, weighted", CASES, ids=[c[0] for c in CASES])
def test_indices_match_networkx(name, g, weighted):
    G = _to_nx(g)
    rep = centrality_report(g)
    length = "length" if weighted else None
    rb = _array(nx.current_flow_betweenness_centrality(G, weight="weight"), g.n)
    assert np.max(np.abs(rep.rb - rb)) <= 1e-9
    gb = _array(nx.betweenness_centrality(G, normalized=False, weight=length), g.n)
    assert np.max(np.abs(rep.gb - gb)) <= 1e-9
    gc = _array(nx.closeness_centrality(G, distance=length), g.n)
    assert np.max(np.abs(rep.gc - gc)) <= 1e-9
    if not weighted:  # networkx counts closed walks on the unweighted adjacency
        sc = _array(nx.subgraph_centrality(G), g.n)
        assert np.max(np.abs(rep.sc - sc) / sc) <= 1e-9
    resistance = nx.effective_graph_resistance(G, weight="weight", invert_weight=False)
    assert abs(rep.kirchhoff - resistance / g.n) <= 1e-9 * rep.kirchhoff


LARGE = [
    ("weighted-150", 150, lambda rng, m: rng.uniform(0.2, 3.0, m), True),
    ("unweighted-200", 200, lambda rng, m: np.ones(m), False),
    ("wide-weights-120", 120, lambda rng, m: 10.0 ** rng.uniform(-6.0, 0.0, m), True),
]


@pytest.mark.parametrize("name, n, weights, weighted", LARGE, ids=[c[0] for c in LARGE])
def test_realistic_sizes_match_networkx(name, n, weights, weighted):
    g = ring_chords(np.random.default_rng(n), n, weights)
    G = _to_nx(g)
    rep = centrality_report(g)
    length = "length" if weighted else None
    rb = _array(nx.current_flow_betweenness_centrality(G, weight="weight"), n)
    assert rel_gap(rep.rb, rb) <= 1e-10
    gb = _array(nx.betweenness_centrality(G, normalized=False, weight=length), n)
    assert rel_gap(rep.gb, gb) <= 1e-10
    gc = _array(nx.closeness_centrality(G, distance=length), n)
    assert rel_gap(rep.gc, gc) <= 1e-10
    resistance = nx.effective_graph_resistance(G, weight="weight", invert_weight=False)
    assert abs(rep.kirchhoff - resistance / n) <= 1e-10 * rep.kirchhoff
    # networkx has no hitting times, so commute times are checked as Vol(G) * Omega
    omega = nx.resistance_distance(G, weight="weight", invert_weight=False)
    omega = np.array([[omega[i][j] for j in range(n)] for i in range(n)])
    assert rel_gap(hitting_times_exact(g).C, g.volume * omega) <= 1e-10


def _wide_weights(n, edges, seed):
    w = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, len(edges))
    return Graph(n, [(u, v, float(x)) for (u, v), x in zip(edges, w)])


LONG = [
    ("path-400", _wide_weights(400, [(i, i + 1) for i in range(399)], 400)),
    ("cycle-60", _wide_weights(60, [(i, (i + 1) % 60) for i in range(60)], 60)),
]


@pytest.mark.parametrize("name, g", LONG, ids=[c[0] for c in LONG])
def test_gb_matches_networkx_on_a_long_path_and_a_cycle(name, g):
    # weights 10^U(-3, 3), so every geodesic is unique
    gb = _array(nx.betweenness_centrality(_to_nx(g), normalized=False, weight="length"), g.n)
    assert rel_gap(centrality_report(g).gb, gb) <= 1e-10


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_tree_center_matches_networkx(weighted):
    # networkx's barycenter ties only exact totals, so the oracle applies
    # CENTER_RTOL to networkx's own distance totals
    rng = np.random.default_rng(31)
    for _ in range(40):
        t = random_tree(rng, int(rng.integers(2, 80)))
        if weighted:
            w = 10.0 ** rng.uniform(-4.0, 3.0, t.m)
            t = Graph(t.n, [(u, v, float(x)) for (u, v, _), x in zip(t.edges, w)])
        dist = dict(nx.all_pairs_dijkstra_path_length(_to_nx(t), weight="length"))
        totals = np.array([sum(dist[i].values()) for i in range(t.n)])
        want = np.flatnonzero(totals <= totals.min() * (1.0 + CENTER_RTOL))
        assert tree_center(t) == tuple(want.tolist())
