from fractions import Fraction

import numpy as np
import pytest

from lapcent import (Graph, NotATreeError, SizeLimitError, build_spectral,
                     count_spanning_trees, enumerate_bipartitions,
                     forest_census, lplus_diag_fractions,
                     shortest_path_distances, topological_centrality,
                     tree_center, tree_centrality)
from lapcent import graph
from lapcent.forests import det_int
from lapcent.graph import GraphError, is_connected
from lapcent.spectral import resistance_matrix
from lapcent.verify import check_forest_diagonal

from helpers import (brute_forest_census, brute_spanning_tree_count,
                     brute_two_tree_forests, complete_graph, path_graph,
                     random_connected, random_tree, star_graph, within_bounds)


class TestDeterminant:
    def test_known_values(self):
        assert det_int([[2, -1], [-1, 2]]) == 3
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[0, 0], [0, 5]]) == 0
        assert det_int([]) == 1

    def test_pivoting(self):
        # expansion along the middle row: -1 * det([[2, 1], [1, 1]])
        assert det_int([[0, 2, 1], [1, 0, 0], [0, 1, 1]]) == -1

    def test_big_integers_exact(self):
        # Cayley: K_12 has 12^10 spanning trees; well past float precision
        assert count_spanning_trees(complete_graph(12)) == 12**10


class TestSpanningTrees:
    @pytest.mark.parametrize("builder,expect", [
        (lambda: path_graph(3), 1),
        (lambda: complete_graph(3), 3),
        (lambda: complete_graph(4), 16),
        (lambda: star_graph(5), 1),
    ])
    def test_known_counts(self, builder, expect):
        assert count_spanning_trees(builder()) == expect

    def test_disconnected_is_zero(self):
        assert count_spanning_trees(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            g = random_connected(rng, int(rng.integers(3, 7)), p=0.6)
            assert count_spanning_trees(g) == brute_spanning_tree_count(g)

    def test_weighted_tree_weight(self):
        g = Graph(2, [(0, 1, 2.5)])
        assert count_spanning_trees(g) == pytest.approx(2.5)


class TestBipartitions:
    def test_p3_by_hand(self):
        parts = enumerate_bipartitions(path_graph(3))
        got = {(p.s_nodes, p.sprime_nodes) for p in parts}
        assert got == {((0,), (1, 2)), ((0, 1), (2,))}
        for p in parts:
            assert p.trees_s == p.trees_sprime == 1

    def test_k3(self):
        parts = enumerate_bipartitions(complete_graph(3))
        assert len(parts) == 3
        cut_sizes = sorted(len(p.cut) for p in parts)
        assert cut_sizes == [2, 2, 2]

    def test_tree_has_n_minus_1(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(2, 11)))
            assert len(enumerate_bipartitions(t)) == t.n - 1

    def test_blocks_partition_and_node0_in_s(self):
        rng = np.random.default_rng(2)
        g = random_connected(rng, 7, p=0.5)
        for p in enumerate_bipartitions(g):
            assert p.s_nodes[0] == 0
            assert sorted(p.s_nodes + p.sprime_nodes) == list(range(7))
            for u, v in p.cut:
                assert (u in p.s_nodes) != (v in p.s_nodes)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            enumerate_bipartitions(path_graph(15))


class TestForestCensus:
    def test_p3_by_hand(self):
        c = forest_census(path_graph(3))
        assert c.eps_n1 == 3
        assert c.eps_n2 == 4
        assert c.eps_rooted == (3, 2, 3)

    def test_k3_by_hand(self):
        c = forest_census(complete_graph(3))
        assert c.eps_n1 == 9
        assert c.eps_n2 == 6
        assert c.eps_rooted == (4, 4, 4)

    def test_star4_hub(self):
        c = forest_census(star_graph(4))
        assert c.eps_rooted[0] == 3

    def test_against_raw_forest_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            g = random_connected(rng, int(rng.integers(3, 7)), p=0.55)
            rooted, n2 = brute_forest_census(g)
            c = forest_census(g)
            assert list(c.eps_rooted) == rooted
            assert c.eps_n2 == n2

    def test_rooted_sum_double_counts_roots(self):
        # every two-tree forest carries two roots
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(3, 7)), p=0.5)
            c = forest_census(g)
            assert sum(c.eps_rooted) == 2 * c.eps_n2

    def test_per_partition_product_rule(self):
        # forests landing in partition (S, S') number |T(S)| * |T(S')|
        rng = np.random.default_rng(5)
        g = random_connected(rng, 6, p=0.5)
        by_parts = {}
        for a, b in brute_two_tree_forests(g):
            key = a if 0 in a else b
            by_parts[key] = by_parts.get(key, 0) + 1
        for p in enumerate_bipartitions(g):
            assert by_parts.get(frozenset(p.s_nodes), 0) == p.trees_s * p.trees_sprime

    def test_per_partition_rooted_ratio(self):
        # with i in S and j in S', rooted counts are in ratio |S'| : |S|
        g = random_connected(np.random.default_rng(6), 6, p=0.5)
        for p in enumerate_bipartitions(g):
            pair = p.trees_s * p.trees_sprime
            i, j = p.s_nodes[0], p.sprime_nodes[0]
            rooted_i = Fraction(pair * len(p.sprime_nodes))
            rooted_j = Fraction(pair * len(p.s_nodes))
            assert rooted_i / rooted_j == Fraction(len(p.sprime_nodes), len(p.s_nodes))

    def test_weighted_rejected(self):
        with pytest.raises(GraphError):
            forest_census(Graph(3, [(0, 1, 2.0), (1, 2)]))

    @pytest.mark.parametrize("n", range(3, 10))
    def test_aggregates_the_bipartitions(self, n):
        # the census sums the split counts without building the partitions
        g = random_connected(np.random.default_rng(40 + n), n, p=0.5)
        rooted, n2 = [0] * n, 0
        for p in enumerate_bipartitions(g):
            pair = p.trees_s * p.trees_sprime
            n2 += pair * len(p.s_nodes) * len(p.sprime_nodes)
            for i in p.s_nodes:
                rooted[i] += pair * len(p.sprime_nodes)
            for i in p.sprime_nodes:
                rooted[i] += pair * len(p.s_nodes)
        c = forest_census(g)
        assert (c.eps_n1, c.eps_n2, c.eps_rooted) == \
            (n * count_spanning_trees(g), n2, tuple(rooted))


class TestForestDiagonal:
    def test_p3_exact_fractions(self):
        fr = lplus_diag_fractions(path_graph(3))
        assert fr == [Fraction(5, 9), Fraction(2, 9), Fraction(5, 9)]

    def test_matches_spectral(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            g = random_connected(rng, int(rng.integers(3, 8)), p=0.5)
            assert within_bounds(check_forest_diagonal.residual(g), g.n)


class TestTreeCentrality:
    def test_p4_values(self):
        tc = tree_centrality(path_graph(4))
        assert np.allclose(tc, [7 / 8, 3 / 8, 3 / 8, 7 / 8], atol=1e-12)

    def test_star4_values_and_kirchhoff(self):
        tc = tree_centrality(star_graph(4))
        assert tc[0] == pytest.approx(3 / 16, abs=1e-12)
        assert np.allclose(tc[1:], 11 / 16, atol=1e-12)
        assert tc.sum() == pytest.approx(9 / 4, abs=1e-12)

    def test_matches_spectral_on_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 13)))
            diag = np.diag(build_spectral(t).lplus)
            assert np.max(np.abs(tree_centrality(t) - diag)) <= 1e-9

    def test_non_tree_rejected(self):
        with pytest.raises(NotATreeError):
            tree_centrality(complete_graph(3))
        with pytest.raises(NotATreeError):
            tree_centrality(Graph(4, [(0, 1), (2, 3), (1, 2), (3, 0)]))


class TestTreeCenter:
    def test_examples(self):
        assert tree_center(path_graph(3)) == (1,)
        assert tree_center(path_graph(4)) == (1, 2)
        assert tree_center(star_graph(4)) == (0,)

    def test_long_path(self):
        # an absolute 1e-9 bound on l+_ii = (sum_j SPD - Tr)/n, off by 4.9e-9
        # here, once rejected this tree
        assert tree_center(path_graph(1000)) == (499, 500)

    def test_weighted_center_is_argmax_set(self):
        # a 15/15 split ties two centers; l+_ii up to 6e3 once failed an
        # absolute 1e-9 bound on the shift identity
        rng = np.random.default_rng(2)
        t = random_tree(rng, 30)
        w = 10.0 ** rng.uniform(-4, 0, t.m)
        g = Graph(30, [(u, v, float(x)) for (u, v, _), x in zip(t.edges, w)])
        cstar = topological_centrality(build_spectral(g))
        argmax = tuple(np.flatnonzero(cstar >= cstar.max() * (1 - 1e-9)))
        assert len(argmax) == 2
        assert tree_center(g) == argmax

    def test_center_is_centrality_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            t = random_tree(rng, int(rng.integers(3, 13)))
            centers = tree_center(t)
            cstar = topological_centrality(build_spectral(t))
            assert int(np.argmax(cstar)) in centers

    def test_non_tree_rejected(self):
        with pytest.raises(NotATreeError):
            tree_center(complete_graph(4))


class TestTreeMetric:
    def test_spd_equals_resistance_on_trees(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(2, 12)))
            omega = resistance_matrix(build_spectral(t))
            assert np.max(np.abs(shortest_path_distances(t) - omega)) <= 1e-9


def test_connectivity_and_both_tree_routines_search_once(monkeypatch):
    runs = []
    breadth_first = graph._breadth_first
    monkeypatch.setattr(graph, "_breadth_first", lambda g: runs.append(g) or breadth_first(g))
    t = random_tree(np.random.default_rng(8), 30)
    assert is_connected(t)
    assert np.allclose(tree_centrality(t), build_spectral(t).diag)
    assert len(tree_center(t)) in (1, 2)
    assert runs == [t]
