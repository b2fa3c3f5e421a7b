import math
import warnings

import numpy as np
import pytest

from lapcent import (Graph, abilene_topology, build_spectral, centrality_report,
                     geodesic_betweenness, geodesic_closeness, max_normalized,
                     randic_index, randomwalk_betweenness,
                     subgraph_centrality)
from lapcent import graph, zoo
from lapcent.graph import GraphError
from lapcent.verify import randomwalk_betweenness_by_solves

from helpers import (complete_graph, cycle_graph, edge_loop, path_graph,
                     random_connected, rel_gap, star_graph)


class TestGeodesicCloseness:
    def test_p3(self):
        gc = geodesic_closeness(path_graph(3))
        assert gc[1] == pytest.approx(1.0)
        assert gc[0] == gc[2] == pytest.approx(2 / 3)

    def test_complete_graphs_score_one(self):
        for n in (3, 5, 7):
            assert np.allclose(geodesic_closeness(complete_graph(n)), 1.0)

    def test_p4_ends(self):
        assert geodesic_closeness(path_graph(4))[0] == pytest.approx(0.5)

    def test_weighted(self):
        g = Graph(2, [(0, 1, 2.0)])  # geodesic length 1/2
        assert np.allclose(geodesic_closeness(g), 2.0)


class TestGeodesicBetweenness:
    def test_p3_center_carries_the_single_pair(self):
        assert np.allclose(geodesic_betweenness(path_graph(3)), [0.0, 1.0, 0.0])

    def test_complete_graph_all_zero(self):
        assert np.allclose(geodesic_betweenness(complete_graph(4)), 0.0)

    def test_leaves_are_zero(self):
        gb = geodesic_betweenness(star_graph(5))
        assert np.allclose(gb[1:], 0.0)
        assert gb[0] == pytest.approx(math.comb(4, 2))

    def test_even_cycle_split_paths(self):
        # C4: each opposite pair has two geodesics, half credit to each side
        gb = geodesic_betweenness(cycle_graph(4))
        assert np.allclose(gb, 0.5)

    def test_near_tie_is_not_a_tie(self):
        # the direct 0-2 edge is 1e-5 longer than 0-1-2; an absolute slack
        # set by the 1e8-long edge to node 3 counted it as a second geodesic
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1 / (2 + 1e-5)), (0, 3, 1e-8)])
        assert geodesic_betweenness(g).tolist() == [2.0, 2.0, 0.0, 0.0]

    def test_edge_too_long_for_float64_is_on_no_shortest_path(self):
        # 1/w overflows to inf on edge (1, 2); the pair routes through node 0
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1e-310), (0, 2, 1.0)])
        assert geodesic_betweenness(g).tolist() == [1.0, 0.0, 0.0]
        assert geodesic_closeness(g).tolist() == [1.0, 2 / 3, 2 / 3]


def test_gc_then_gb_run_floyd_warshall_once(monkeypatch):
    runs = []
    floyd_warshall = graph._floyd_warshall
    monkeypatch.setattr(graph, "_floyd_warshall", lambda g: runs.append(g) or floyd_warshall(g))
    g = cycle_graph(5)
    assert np.allclose(geodesic_closeness(g), 4 / 6)
    assert np.allclose(geodesic_betweenness(g), 1.0)
    assert runs == [g]


def test_report_builds_one_bundle_for_rb_cstar_and_kirchhoff(monkeypatch):
    bundles = []
    monkeypatch.setattr(zoo, "build_spectral",
                        lambda g: bundles.append(g) or build_spectral(g))
    g = cycle_graph(5)
    rep = centrality_report(g)
    assert bundles == []
    assert rep.rb.shape == rep.cstar.shape == (5,)
    assert rep.kirchhoff * rep.kstar == pytest.approx(1.0)
    assert bundles == [g]


def test_report_computes_each_index_once():
    rep = centrality_report(random_connected(np.random.default_rng(4), 8))
    for name in (*rep.PER_NODE, "kirchhoff", "kstar", "randic"):
        first = getattr(rep, name)
        assert getattr(rep, name) is first


def test_graph_keeps_no_matrix_but_its_distances():
    # the adjacency and the Laplacian were cached on the graph for its lifetime
    g = random_connected(np.random.default_rng(5), 9, weighted=True)
    rep = centrality_report(g)
    for name in (*rep.PER_NODE, "kirchhoff", "kstar", "randic"):
        getattr(rep, name)
    kept = [k for k, v in vars(g).items() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert kept == ["_spd"]


class TestSubgraphCentrality:
    def test_k3_eigenvalue_form(self):
        sc = subgraph_centrality(complete_graph(3))
        expect = (math.exp(2.0) + 2 * math.exp(-1.0)) / 3
        assert np.allclose(sc, expect)
        assert sc[0] == pytest.approx(2.7083, abs=5e-5)

    def test_p3_center_cosh(self):
        sc = subgraph_centrality(path_graph(3))
        assert sc[1] == pytest.approx(math.cosh(math.sqrt(2.0)), abs=1e-12)
        assert sc[1] == pytest.approx(2.1782, abs=5e-5)

    def test_single_edge_cosh1(self):
        sc = subgraph_centrality(Graph(2, [(0, 1)]))
        assert np.allclose(sc, math.cosh(1.0))

    def test_matches_factorial_series(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(2, 11)))
            a = edge_loop(g)[0]
            term = np.eye(g.n)
            series = np.ones(g.n)
            for k in range(1, 31):
                term = term @ a / k
                series += np.diag(term)
            assert np.max(np.abs(subgraph_centrality(g) - series)) <= 1e-9

    def test_overflow_is_refused_without_a_warning(self):
        # lambda_max(A) = sqrt(800^2 + 1): exp overflows, and sc used to be inf
        g = Graph(3, [(0, 1, 800.0), (1, 2, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=r"lambda_max\(A\) = 800\.001 exceeds "
                                                 r"log\(DBL_MAX / n\) = 708\.684"):
                subgraph_centrality(g)

    def test_largest_finite_sum(self):
        # lambda_max(A) = w on a single edge; the limit is log(DBL_MAX / 2)
        w = zoo.LOG_DBL_MAX - math.log(2.0)
        sc = subgraph_centrality(Graph(2, [(0, 1, w)]))
        assert np.all(np.isfinite(sc)) and np.isfinite(sc.sum())
        with pytest.raises(GraphError):
            subgraph_centrality(Graph(2, [(0, 1, w * (1 + 1e-9))]))


class TestRandomWalkBetweenness:
    def test_p3(self):
        rb = randomwalk_betweenness(build_spectral(path_graph(3)))
        assert np.allclose(rb, [0.0, 1.0, 0.0])

    def test_vertex_transitive_constant(self):
        for g in (complete_graph(3), cycle_graph(5)):
            rb = randomwalk_betweenness(build_spectral(g))
            assert np.ptp(rb) <= 1e-12

    def test_matches_per_pair_solves(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            g = random_connected(rng, int(rng.integers(3, 9)))
            gap = np.max(np.abs(randomwalk_betweenness(build_spectral(g))
                                - randomwalk_betweenness_by_solves(g)))
            assert gap <= 1e-9

    def test_preset_leaves_are_exactly_zero(self):
        # a degree-1 node that is not a terminal carries no current; the
        # potential differences used to leave noise such as 9.46e-17
        g = abilene_topology()
        rb = randomwalk_betweenness(build_spectral(g))
        leaves = np.bincount(np.ravel([e[:2] for e in g.edges]), minlength=g.n) == 1
        assert leaves.sum() == 47
        assert (rb[leaves] == 0.0).all()
        assert (rb[~leaves] > 1e-3).all()


class TestBlocks:
    """gb works in blocks of sources and rb in blocks of edges; the split
    must not change the result beyond summation order."""

    @pytest.mark.parametrize("name", ["preset", "weighted-40"])
    def test_uneven_blocks_agree(self, monkeypatch, name):
        if name == "preset":
            g = abilene_topology()
        else:
            g = random_connected(np.random.default_rng(40), 40, p=0.12, weighted=True)
        gb, rb = geodesic_betweenness(g), randomwalk_betweenness(build_spectral(g))
        cells = 7 * (2 * g.m) + 1  # 7 sources, cells // n edges per block
        assert g.n % 7 and g.m % (cells // g.n)
        monkeypatch.setattr(zoo, "BLOCK_CELLS", cells)
        assert rel_gap(geodesic_betweenness(g), gb) <= 1e-14
        assert rel_gap(randomwalk_betweenness(build_spectral(g)), rb) <= 1e-14

    @pytest.mark.parametrize("cells", [1, 2**20])
    @pytest.mark.parametrize("g, gb, rb", [
        (path_graph(2), [0, 0], [0, 0]),
        (path_graph(3), [0, 1, 0], [0, 1, 0]),
        (star_graph(5), [6, 0, 0, 0, 0], [1, 0, 0, 0, 0]),
    ], ids=["P2", "P3", "star5"])
    def test_small_graphs(self, monkeypatch, cells, g, gb, rb):
        monkeypatch.setattr(zoo, "BLOCK_CELLS", cells)
        assert np.allclose(geodesic_betweenness(g), gb, rtol=0, atol=1e-12)
        got = randomwalk_betweenness(build_spectral(g))
        assert np.allclose(got, rb, rtol=0, atol=1e-12)
        assert (got[np.array(rb) == 0] == 0.0).all()


class TestRandic:
    def test_examples(self):
        assert randic_index(path_graph(3)) == 4.0
        assert randic_index(complete_graph(3)) == 12.0
        assert randic_index(Graph(2, [(0, 1)])) == 1.0

    def test_weighted_uses_generalized_degrees(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        # d = (2, 5, 3): 2*5 + 5*3
        assert randic_index(g) == pytest.approx(25.0)


class TestNormalizationAndReport:
    def test_max_normalized(self):
        v = np.array([1.0, 4.0, 2.0])
        out = max_normalized(v)
        assert out.max() == 1.0
        assert np.argmax(out) == np.argmax(v)
        assert not max_normalized(np.zeros(3)).any()

    def test_report_constant_on_vertex_transitive(self):
        rep = centrality_report(cycle_graph(6))
        for name in rep.PER_NODE:
            assert np.ptp(getattr(rep, name)) <= 1e-9

    def test_csv_rows_shape(self):
        g = Graph(3, [(0, 1), (1, 2)])
        rows = centrality_report(g).csv_rows()
        assert rows[0][:2] == ["node", "label"]
        assert len(rows) == 4
        assert [r[1] for r in rows[1:]] == [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert len(rows[1]) == 2 + 2 * len(centrality_report(g).PER_NODE)

    def test_normalized_argmax_preserved(self):
        g = random_connected(np.random.default_rng(3), 9)
        rep = centrality_report(g)
        norm = rep.normalized()
        for name in rep.PER_NODE:
            raw = getattr(rep, name)
            if raw.max() > 0:
                assert set(np.flatnonzero(raw == raw.max())) \
                    == set(np.flatnonzero(norm[name] == 1.0))
