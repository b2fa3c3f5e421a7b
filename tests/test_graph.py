import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcent import (DisconnectedError, EdgeListError, Graph, GraphError,
                     components, degree_sequence, format_edge_list, is_connected,
                     parse_edge_list, rewire, shortest_path_distances)
from lapcent.graph import _adjacency, _shifted_laplacian

from helpers import complete_graph, edge_loop, path_graph, random_connected, ring_chords


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

    def test_graph_rule_names_its_line(self):
        with pytest.raises(EdgeListError, match=r"line 3: duplicate edge \(1,0\)") as ei:
            parse_edge_list("0 1\n1 2\n1 0")
        assert ei.value.line == 3

    @pytest.mark.parametrize("text, missing", [("0 1\n1 3000000", 2), ("1 2\n2 3", 0),
                                               ("0 1\n3 4\n1 3", 2)],
                             ids=["huge-gap", "no-zero", "inner-gap"])
    def test_sparse_ids_rejected(self, text, missing):
        with pytest.raises(GraphError, match=f"dense .*; id {missing} is missing"):
            parse_edge_list(text)

    def test_comments_blank_lines_crlf(self):
        g = parse_edge_list("# comment\r\n0 1  # trailing\r\n\r\n1 2\r\n")
        assert g.m == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_endings_keep_edges_and_line_numbers(self, newline):
        lines = ["# header", "0 1", "", "1 2 2.5"]
        g = parse_edge_list(newline.join(lines) + newline)
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))
        with pytest.raises(EdgeListError, match="line 5: self-loop") as ei:
            parse_edge_list(newline.join(lines + ["2 2"]))
        assert ei.value.line == 5

    def test_form_feed_in_a_comment_ends_no_line(self):
        # str.splitlines also splits at \v, \f, \x1c-\x1e, \x85, U+2028, U+2029
        g = parse_edge_list("0 1 # a\x0cb\n1 2\n")
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_line_separator_in_a_comment_keeps_line_numbers(self):
        with pytest.raises(EdgeListError, match="line 3: expected 'u v \\[w\\]', got 'bad'"):
            parse_edge_list("# note\u2028more\n0 1\nbad\n")

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            parse_edge_list("# nothing\n")

    def test_roundtrip(self):
        g = Graph(4, [(0, 1, 2.5), (1, 2, 0.1), (2, 3, 1.0)])
        again = parse_edge_list(format_edge_list(g))
        assert again.edges == g.edges

    @pytest.mark.parametrize("g, node", [
        (Graph(5, [(3, 4), (0, 1)]), 2),   # used to format to a file parse rejects
        (Graph(3, [(0, 1, 2.0)]), 2),      # a trailing isolated node was dropped
        (Graph(1, []), 0),
    ], ids=["inner", "trailing", "single"])
    def test_isolated_node_cannot_be_formatted(self, g, node):
        with pytest.raises(GraphError, match=f"node {node} has no edges"):
            format_edge_list(g)


class TestGraphInvariants:
    def test_adjacency_symmetric_zero_diagonal(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
        a = _adjacency(g)
        assert np.array_equal(a, a.T) and np.array_equal(a, edge_loop(g)[0])
        assert np.all(np.diag(a) == 0)
        assert a[0, 1] == 2.0 and a[2, 0] == 0.0
        assert not np.signbit(a).any()  # -0.0 would change eigh's bits

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(GraphError):
            Graph(2, [(0, 1, -1.0)])

    def test_rejects_non_integral_node_id(self):
        # int() used to truncate these to the edges (0, 1) and (1, 2)
        with pytest.raises(GraphError, match=r"non-integer node id in edge \(0.5,1\)") as ei:
            Graph(3, [(0, 2), (0.5, 1), (1.9, 2)])
        assert ei.value.edge == 1

    def test_accepts_integral_node_ids_of_any_type(self):
        g = Graph(3, [(1.0, 2.0), (np.int64(0), np.int32(1)), (np.float64(2), 0, 3)])
        assert g.edges == ((0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0))

    @pytest.mark.parametrize("edges, idx, message", [
        ([(0, 1), (1, 0), (2, 2)], 1, r"duplicate edge \(1,0\)"),
        ([(0, 1), (0, 1), (2, 2)], 1, r"duplicate edge \(0,1\)"),
        ([(0, 1), (2, 2), (1, 0)], 1, "self-loop at node 2"),
        ([(1, 0), (0, 1), (0, 9)], 1, r"duplicate edge \(0,1\)"),
        ([(0, 1), (0, 9), (1, 0)], 1, r"edge \(0,9\) references a node outside 0..3"),
        ([(0, 1), (1, 0), (1, 2, -1.0)], 1, r"duplicate edge \(1,0\)"),
        ([(0, 1), (1, 2, 0.0), (0, 1)], 1, r"weight 0.0 on edge \(1,2\)"),
        ([(2, 3), (0, 1), (3, 2, 1.5), (1, 1)], 2, r"duplicate edge \(3,2\)"),
    ], ids=["dup-rev-then-loop", "dup-then-loop", "loop-then-dup", "dup-then-range",
            "range-then-dup", "dup-then-weight", "weight-then-dup", "dup-third"])
    def test_first_faulty_edge_is_reported_by_its_own_fault(self, edges, idx, message):
        with pytest.raises(GraphError, match=message) as ei:
            Graph(4, edges)
        assert ei.value.edge == idx

    def test_stores_the_edge_arrays_alone(self):
        g = Graph(4, [(2, 3, 0.5), (1, 0), (3, 0, 2.0)])
        assert "edges" not in vars(g)
        u, v, w = vars(g)["edge_arrays"]
        assert (u.tolist(), v.tolist(), w.tolist()) == ([0, 0, 2], [1, 3, 3], [1.0, 2.0, 0.5])
        assert (u.dtype, v.dtype, w.dtype) == (np.int64, np.int64, np.float64)
        assert g.edges == ((0, 1, 1.0), (0, 3, 2.0), (2, 3, 0.5))
        assert g.edges is not g.edges  # built on each read, never cached

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_weight(self, w):
        # a NaN weight used to pass `w <= 0` and turn every C* into NaN
        with pytest.raises(GraphError, match="finite"):
            Graph(3, [(0, 1, w), (1, 2, 1.0)])


def test_held_memory_per_edge():
    # Graph holds its edges once, as three 8-byte columns: the tuple record it
    # kept as well held about 165 B/edge after parsing, 248 with the views
    n = 5000
    text = format_edge_list(ring_chords(np.random.default_rng(n), n,
                                        lambda rng, m: rng.uniform(0.5, 2.0, m)))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        parsed = tracemalloc.get_traced_memory()[0] / g.m
        g.degrees, g.csr(), is_connected(g)
        viewed = tracemalloc.get_traced_memory()[0] / g.m
    finally:
        tracemalloc.stop()
    assert parsed <= 48, f"{parsed:.1f} B/edge held after parsing > pin 48"
    assert viewed <= 100, f"{viewed:.1f} B/edge held with degrees, CSR and search > pin 100"


class TestConnectivity:
    def test_examples(self):
        assert is_connected(path_graph(3))
        assert is_connected(complete_graph(4))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_components_sorted(self):
        comps = components(Graph(5, [(3, 4), (0, 1)]))
        assert comps == [[0, 1], [2], [3, 4]]

    def test_components_memo_survives_caller_edits(self):
        g = Graph(5, [(3, 4), (0, 1)])
        comps = components(g)
        comps[0].append(9)
        comps.pop()
        assert components(g) == [[0, 1], [2], [3, 4]]
        assert not is_connected(g)


class TestShortestPaths:
    def test_hop_counts(self):
        spd = shortest_path_distances(path_graph(3))
        assert spd[0, 2] == 2.0 and spd[0, 1] == 1.0

    def test_complete_graph(self):
        spd = shortest_path_distances(complete_graph(3))
        off = spd[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)

    def test_one_read_only_array_per_graph(self):
        g = path_graph(4)
        spd = shortest_path_distances(g)
        assert spd[0, 3] == 3.0
        assert shortest_path_distances(g) is spd
        assert not spd.flags.writeable
        with pytest.raises(ValueError):
            spd[0, 3] = 0.0

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


@settings(max_examples=60, deadline=None)
@given(connected_graphs(weighted=True))
def test_derived_views_match_edge_loop(g):
    """Every view and each matrix builder equals a per-edge reference loop
    exactly; the views are read-only, and the adjacency holds no -0.0."""
    a, d = edge_loop(g)
    nbrs = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    indptr, flat, cumw = [0], [], []
    for row in nbrs:
        acc = 0.0
        for v, w in sorted(row):
            acc += w
            flat.append(v)
            cumw.append(acc)
        indptr.append(len(flat))
    adjacency = _adjacency(g)
    assert np.array_equal(adjacency, a) and not np.signbit(adjacency).any()
    assert np.array_equal(_shifted_laplacian(g), np.diag(d) - a)
    assert np.array_equal(g.degrees, d)
    for got, want in zip(g.csr(), (indptr, flat, cumw)):
        assert np.array_equal(got, want)
    for got, want in zip(g.edge_arrays, zip(*g.edges)):
        assert np.array_equal(got, want)
    for arr in (g.degrees, *g.csr(), *g.edge_arrays):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    assert all(g.has_edge(v, u) for u, v, _ in g.edges)
    assert sum(g.has_edge(u, v) for u in range(g.n) for v in range(u + 1, g.n)) == g.m


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
