import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcent import (DisconnectedError, EdgeListError, Graph, GraphError,
                     components, degree_sequence, diameter, format_edge_list,
                     is_connected, parse_edge_list, rewire,
                     shortest_path_distances)

from helpers import complete_graph, path_graph, random_connected


class TestParse:
    def test_path(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2
        assert g.volume == 4.0

    def test_weighted_single_edge(self):
        g = parse_edge_list("0 1 2.5")
        assert g.degrees.tolist() == [2.5, 2.5]
        assert g.volume == 5.0

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(EdgeListError, match="line 1") as ei:
            parse_edge_list("0 0")
        assert ei.value.line == 1

    def test_error_line_numbers_count_comments(self):
        text = "# header\n0 1\n2 2\n"
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list(text)

    def test_nonpositive_weight(self):
        with pytest.raises(EdgeListError, match="weight"):
            parse_edge_list("0 1 0.0")
        with pytest.raises(EdgeListError, match="weight"):
            parse_edge_list("0 1 -2")

    @pytest.mark.parametrize("text", ["0 1 nan\n1 2", "0 1 inf\n1 2"], ids=["nan", "inf"])
    def test_non_finite_weight_names_the_fault(self, text):
        with pytest.raises(EdgeListError, match="line 1: weight .* must be positive and finite"):
            parse_edge_list(text)

    def test_malformed(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("0 1\n0 1 2 3")
        with pytest.raises(EdgeListError):
            parse_edge_list("a b")

    def test_duplicate_either_orientation(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("0 1\n1 0")
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("0 1\n0 1 3.0")

    def test_comments_blank_lines_crlf(self):
        g = parse_edge_list("# comment\r\n0 1  # trailing\r\n\r\n1 2\r\n")
        assert g.m == 2

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("# nothing\n")

    def test_roundtrip(self):
        g = Graph(4, [(0, 1, 2.5), (1, 2, 0.1), (2, 3, 1.0)])
        again = parse_edge_list(format_edge_list(g))
        assert again.edges == g.edges


class TestGraphInvariants:
    def test_adjacency_symmetric_zero_diagonal(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
        a = g.adjacency
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert a[0, 1] == 2.0 and a[2, 0] == 0.0

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, w):
        # a NaN weight used to pass `w <= 0` and turn every C* into NaN
        with pytest.raises(GraphError, match="finite"):
            Graph(3, [(0, 1, w), (1, 2, 1.0)])

    def test_labels(self):
        g = Graph(2, [(0, 1)], labels=["a", "b"])
        assert g.label_of(1) == "b"
        assert g.index_of("a") == 0
        with pytest.raises(GraphError):
            g.index_of("zzz")
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], labels=["only-one"])


class TestConnectivity:
    def test_examples(self):
        assert is_connected(path_graph(3))
        assert is_connected(complete_graph(4))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_components_sorted(self):
        comps = components(Graph(5, [(3, 4), (0, 1)]))
        assert comps == [[0, 1], [2], [3, 4]]


class TestShortestPaths:
    def test_hop_counts(self):
        spd = shortest_path_distances(path_graph(3))
        assert spd[0, 2] == 2.0 and spd[0, 1] == 1.0

    def test_complete_graph(self):
        spd = shortest_path_distances(complete_graph(3))
        off = spd[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_p4_diameter(self):
        g = path_graph(4)
        assert shortest_path_distances(g)[0, 3] == 3.0
        assert diameter(g) == 3.0

    def test_weighted_uses_inverse_weight(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 4.0)])
        spd = shortest_path_distances(g)
        assert spd[0, 1] == pytest.approx(0.5)
        assert spd[0, 2] == pytest.approx(0.75)

    def test_heavy_edge_is_shorter_route(self):
        # direct light edge (length 10) loses to the heavy two-hop route
        g = Graph(3, [(0, 2, 0.1), (0, 1, 1.0), (1, 2, 1.0)])
        assert shortest_path_distances(g)[0, 2] == pytest.approx(2.0)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedError):
            shortest_path_distances(Graph(4, [(0, 1), (2, 3)]))


class TestRewire:
    def test_path_swap(self):
        g = path_graph(3)
        out = rewire(g, remove=[(1, 2)], add=[(0, 2)])
        assert sorted(degree_sequence(out)) == sorted(degree_sequence(g))
        assert out.has_edge(0, 2) and not out.has_edge(1, 2)

    def test_remove_missing(self):
        with pytest.raises(GraphError, match="missing"):
            rewire(path_graph(3), remove=[(0, 2)], add=[])

    def test_add_existing_or_loop(self):
        with pytest.raises(GraphError, match="existing"):
            rewire(path_graph(3), remove=[], add=[(0, 1)])
        with pytest.raises(GraphError, match="self-loop"):
            rewire(path_graph(3), remove=[], add=[(2, 2)])

    def test_disconnecting_guard(self):
        g = path_graph(3)
        with pytest.raises(DisconnectedError):
            rewire(g, remove=[(1, 2)], add=[])
        cut = rewire(g, remove=[(1, 2)], add=[], check_connected=False)
        assert not is_connected(cut)

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_add_non_finite_weight(self, w):
        with pytest.raises(GraphError, match="finite"):
            rewire(path_graph(3), remove=[], add=[(0, 2, w)])

    def test_preserves_labels(self):
        g = Graph(3, [(0, 1), (1, 2)], labels=["x", "y", "z"])
        assert rewire(g, [(1, 2)], [(0, 2)]).labels == ("x", "y", "z")


# -- property tests -----------------------------------------------------


@st.composite
def connected_graphs(draw, max_n=10, weighted=None):
    n = draw(st.integers(2, max_n))
    tree_edges = set()
    for idx in range(1, n):
        parent = draw(st.integers(0, idx - 1))
        tree_edges.add((parent, idx))
    extra_pool = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in tree_edges]
    extra = draw(st.sets(st.sampled_from(extra_pool))) if extra_pool else set()
    if weighted is None:
        weighted = draw(st.booleans())
    edges = []
    for u, v in sorted(tree_edges | extra):
        w = draw(st.floats(0.25, 4.0)) if weighted else 1.0
        edges.append((u, v, w))
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_volume_is_twice_edge_weight(g):
    assert g.volume == pytest.approx(2.0 * sum(w for _, _, w in g.edges))


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_spd_is_a_metric(g):
    spd = shortest_path_distances(g)
    assert np.allclose(spd, spd.T, atol=1e-9)
    assert np.all(np.diag(spd) == 0)
    triangle = spd[:, :, None] - spd[:, None, :] - spd[None, :, :]
    assert triangle.max() <= 1e-9


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=8, weighted=False))
def test_degree_preserving_swap_keeps_sequence(g):
    # pick two disjoint edges (a,b),(c,d) and swap to (a,c),(b,d) when simple
    edges = [e[:2] for e in g.edges]
    for (a, b) in edges:
        for (c, d) in edges:
            if len({a, b, c, d}) != 4:
                continue
            if g.has_edge(a, c) or g.has_edge(b, d):
                continue
            out = rewire(g, remove=[(a, b), (c, d)], add=[(a, c), (b, d)],
                         check_connected=False)
            assert degree_sequence(out) == degree_sequence(g)
            return
