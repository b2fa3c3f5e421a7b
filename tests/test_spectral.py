import functools
import random
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings

import networkx as nx

from lapcent import (DisconnectedError, Graph, GraphError, abilene_topology,
                     build_spectral, effective_resistance, kirchhoff_index,
                     resistance_matrix, spectral_report, topological_centrality)
from lapcent import parse_edge_list, spectral
from lapcent.graph import _shifted_laplacian
from lapcent.spectral import LEAF, RHO_MAX, certificate
from lapcent.verify import ALL_CHECKS, Sweep, VerifyConfig, eigen_route

from exact import assert_within_rho, exact_lplus_diag
from helpers import (complete_graph, edge_loop, path_graph, random_connected, ring_chords,
                     star_graph, wide_weight_cycle, wide_weight_graphs)


class TestPseudoInverse:
    def test_k3_closed_form(self):
        # complete graphs: L+ = (I - J/n) / n by symmetry
        b = build_spectral(complete_graph(3))
        expect = (np.eye(3) - np.ones((3, 3)) / 3) / 3
        assert np.allclose(b.lplus, expect, atol=1e-12)
        assert np.allclose(np.diag(b.lplus), 2 / 9, atol=1e-12)

    def test_p3_diagonal_and_corner(self):
        b = build_spectral(path_graph(3))
        assert np.allclose(np.diag(b.lplus), [5 / 9, 2 / 9, 5 / 9], atol=1e-12)
        assert b.lplus[0, 2] == pytest.approx(-4 / 9, abs=1e-12)

    def test_p3_eigenvalues(self):
        g = path_graph(3)
        assert np.allclose(eigen_route(_shifted_laplacian(g)).eigenvalues, [3.0, 1.0, 0.0],
                           atol=1e-9)
        assert np.allclose(spectral_report(g)["graph"]["eigenvalues"], [3.0, 1.0, 0.0],
                           atol=1e-9)

    def test_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected(rng, int(rng.integers(2, 13)),
                                       weighted=bool(rng.integers(2)))
            b = build_spectral(g)
            assert np.max(np.abs(b.lplus - eigen_route(_shifted_laplacian(g)).lplus)) <= 1e-8

    def test_moore_penrose_and_centering(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_connected(rng, int(rng.integers(2, 13)))
            b = build_spectral(g)
            lap, lp = _shifted_laplacian(g), b.lplus
            assert np.max(np.abs(lap @ lp @ lap - lap)) <= 1e-9 * max(1, np.abs(lap).max())
            assert np.max(np.abs(lp @ lap @ lp - lp)) <= 1e-9 * max(1, np.abs(lp).max())
            assert np.max(np.abs(lp.sum(axis=0))) <= 1e-10
            assert np.max(np.abs(lp.sum(axis=1))) <= 1e-10

    def test_embedding_gram_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected(rng, 9)
            b = build_spectral(g)
            emb = eigen_route(_shifted_laplacian(g)).embedding
            assert np.max(np.abs(emb.T @ emb - b.lplus)) <= 1e-9
            norms = np.sum(emb**2, axis=0)
            assert np.allclose(norms, np.diag(b.lplus), atol=1e-9)

    def test_wide_weight_cycle(self):
        # weights spanning 10^6 put L+ entries near 1e6; the absolute 1e-8
        # route gap once rejected this graph
        g, omega = wide_weight_cycle()
        b = build_spectral(g)
        n = g.n
        closed = omega.sum(axis=1) / n - omega.sum() / (2 * n * n)
        assert np.max(np.abs(np.diag(b.lplus) - closed) / closed) <= 1e-9

    def test_disconnected_names_second_component(self):
        with pytest.raises(DisconnectedError, match=r"\[2, 3\]"):
            build_spectral(Graph(4, [(0, 1), (2, 3)]))


class TestCentrality:
    def test_k3(self):
        b = build_spectral(complete_graph(3))
        assert np.allclose(topological_centrality(b), [4.5, 4.5, 4.5])

    def test_p3(self):
        # each entry within 4 ulps of the exact value; the two ends need not
        # be bit-equal mirrors of each other
        c = topological_centrality(build_spectral(path_graph(3)))
        exact = np.array([9 / 5, 9 / 2, 9 / 5])
        assert np.all(np.abs(c - exact) <= 4 * np.spacing(exact))

    def test_star4(self):
        c = topological_centrality(build_spectral(star_graph(4)))
        assert c[0] == pytest.approx(16 / 3)
        assert np.allclose(c[1:], 16 / 11)

    def test_spectral_form_matches_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected(rng, 10, weighted=True)
            b = build_spectral(g)
            eig = eigen_route(_shifted_laplacian(g))
            # diag(L+) = sum_j u_ji^2 / lambda_j over the nonzero modes
            spectral = (eig.eigenvectors[:, :-1] ** 2) @ (1.0 / eig.eigenvalues[:-1])
            assert np.max(np.abs(spectral - np.diag(b.lplus))) <= 1e-9


class TestKirchhoff:
    @pytest.mark.parametrize("builder,expect", [
        (lambda: complete_graph(3), 2 / 3),
        (lambda: path_graph(3), 4 / 3),
        (lambda: star_graph(4), 9 / 4),
    ])
    def test_known_values(self, builder, expect):
        k, kstar = kirchhoff_index(build_spectral(builder()))
        assert k == pytest.approx(expect, abs=1e-9)
        assert kstar == pytest.approx(1 / expect, abs=1e-9)

    def test_p3_spectral_route(self):
        # eigenvalues (3, 1): K = 1/3 + 1
        k, _ = kirchhoff_index(build_spectral(path_graph(3)))
        assert k == pytest.approx(1 / 3 + 1.0, abs=1e-12)

    def test_sum_of_reciprocal_centralities(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_connected(rng, 11)
            b = build_spectral(g)
            k, _ = kirchhoff_index(b)
            assert np.sum(1.0 / topological_centrality(b)) == pytest.approx(k, abs=1e-9)


class TestResistance:
    def test_examples(self):
        assert effective_resistance(build_spectral(complete_graph(3)), 0, 1) \
            == pytest.approx(2 / 3)
        assert effective_resistance(build_spectral(path_graph(3)), 0, 2) \
            == pytest.approx(2.0)
        assert effective_resistance(build_spectral(path_graph(4)), 0, 3) \
            == pytest.approx(3.0)

    def test_index_arrays_broadcast_through_the_one_formula(self):
        b = build_spectral(random_connected(np.random.default_rng(14), 8, weighted=True))
        i, j = np.array([0, 3, 5]), np.array([[1], [7]])
        omega = effective_resistance(b, i, j)
        assert omega.shape == (2, 3)
        assert all(omega[r, c] == effective_resistance(b, i[c], j[r, 0])
                   for r in range(2) for c in range(3))
        assert type(effective_resistance(b, 0, 1)) is np.float64
        nodes = np.arange(8)
        assert np.array_equal(resistance_matrix(b), effective_resistance(b, nodes[:, None], nodes))

    def test_symmetry_nonnegativity_zero_diagonal(self):
        rng = np.random.default_rng(10)
        g = random_connected(rng, 9, weighted=True)
        omega = resistance_matrix(build_spectral(g))
        assert np.allclose(omega, omega.T, atol=1e-12)
        assert np.all(np.diag(omega) < 1e-12)
        assert np.all(omega + 1e-12 >= 0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            g = random_connected(rng, int(rng.integers(3, 11)))
            omega = resistance_matrix(build_spectral(g))
            viol = omega[:, :, None] - omega[:, None, :] - omega[None, :, :]
            assert viol.max() <= 1e-9


class TestReport:
    def test_summary_and_report(self):
        g = Graph(3, [(0, 1), (1, 2)])
        b = build_spectral(g)
        assert kirchhoff_index(b)[0] == pytest.approx(4 / 3)
        rep = spectral_report(g)
        assert rep["graph"]["kirchhoff_convention"] == "trace"
        assert [n["label"] for n in rep["nodes"]] == [str(n["id"]) for n in rep["nodes"]] \
            == ["0", "1", "2"]
        assert rep["nodes"][1]["cstar"] == pytest.approx(4.5)
        assert len(rep["graph"]["eigenvalues"]) == 3


class TestCholeskyRoute:
    @pytest.mark.parametrize("n", [257, 300])
    def test_uneven_recursion_matches_networkx(self, n):
        # 257 splits 128/129, then 129 splits 64/65; 300 splits 150, then 75
        g = ring_chords(np.random.default_rng(n), n, lambda rng, m: rng.uniform(0.2, 3.0, m))
        G = nx.Graph()
        G.add_weighted_edges_from(g.edges)
        ref = nx.resistance_distance(G, weight="weight", invert_weight=False)
        ref = np.array([[ref[i][j] for j in range(n)] for i in range(n)])
        omega = resistance_matrix(build_spectral(g))
        assert np.max(np.abs(omega - ref)) <= 1e-12 * np.max(ref)

    def test_inv_only_on_leaf_blocks(self, monkeypatch):
        sizes = []
        inv = np.linalg.inv

        def recording_inv(a):
            sizes.append(a.shape)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        g = ring_chords(np.random.default_rng(1), 300, lambda rng, m: np.ones(m))
        build_spectral(g)
        assert sizes and all(r == c <= LEAF for r, c in sizes)
        assert sum(r for r, _ in sizes) == 300

    def test_diag_is_the_lplus_diagonal_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for n in (2, 7, 130):
            b = build_spectral(random_connected(rng, n, weighted=True))
            assert np.array_equal(b.diag, np.diag(b.lplus))
            assert np.array_equal(b.lplus, b.lplus.T)
            for arr in (b.diag, b.lplus, b.factor):
                assert not arr.flags.writeable

    def test_resistance_diagonal_is_exactly_zero(self):
        g = random_connected(np.random.default_rng(13), 11, weighted=True)
        assert np.all(np.diag(resistance_matrix(build_spectral(g))) == 0.0)

    def test_factor_is_upper_triangular(self):
        g = ring_chords(np.random.default_rng(2), 200, lambda rng, m: rng.uniform(0.2, 3.0, m))
        f = build_spectral(g).factor
        assert np.all(np.tril(f, -1) == 0.0)

    def test_panels_match_one_lapack_factor(self):
        # n = 2 PANEL + 1: two full panels and one of a single column. The
        # reference factors M by one LAPACK call and inverts it as
        # build_spectral does. Both factorizations have the same backward
        # error bound (Higham, ch. 10), so each diag(L+) is within relative
        # rho = n eps (a Tr(L+) + a/s) of exact, and the two are within
        # c n eps with c = 2 (a Tr(L+) + a/s), about 1.5e4 here. Measured:
        # 0.0056 n eps, in 401 of the 1025 entries
        n = 2 * spectral.PANEL + 1
        g = ring_chords(np.random.default_rng(4), n, lambda rng, m: rng.uniform(0.5, 2.0, m))
        s = spectral._shift_scale(g.volume / n)
        c = np.linalg.cholesky(_shifted_laplacian(g, s, 1.0 / n))
        spectral._invert_lower(c)
        ref = spectral.SpectralBundle(g, c.T, s)
        b = build_spectral(g)
        assert np.all(np.tril(b.factor, -1) == 0.0)
        assert np.max(np.abs(b.diag - ref.diag) / ref.diag) <= 2.0 * certificate(ref)

    def test_failure_in_a_later_panel_is_refused(self, monkeypatch):
        chol, sizes = np.linalg.cholesky, []

        def fail_second(a):
            sizes.append(len(a))
            if len(sizes) == 2:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return chol(a)

        monkeypatch.setattr(spectral, "PANEL", 2)
        monkeypatch.setattr(np.linalg, "cholesky", fail_second)
        with pytest.raises(GraphError, match="Cholesky factorization failed"):
            build_spectral(path_graph(5))
        assert sizes == [2, 2]

    @settings(max_examples=100, deadline=None)
    @given(wide_weight_graphs())
    @example("0 1 1e308\n")  # Vol overflows, so the scale falls back to s = 1
    @example("0 1 5e-324\n")  # s = 2^-1074, the least scale there is
    def test_factored_matrix_is_the_shifted_laplacian_bit_for_bit(self, text):
        g = parse_edge_list(text)
        a, d = edge_loop(g)
        with np.errstate(all="ignore"):
            s = spectral._shift_scale(g.volume / g.n)
            want = (np.diag(d) - a) / s + 1.0 / g.n
        assert np.array_equal(_shifted_laplacian(g, s, 1.0 / g.n), want)

    def test_build_spectral_allocates_two_n_by_n_arrays(self):
        # numpy allocates L/s + J/n and the factor (LAPACK's working copy is
        # not a numpy allocation, so tracemalloc does not see it); forming
        # L / s + 1/n would add L and the L/s temporary (3.0 x 8n^2)
        n = 400
        g = ring_chords(np.random.default_rng(4), n, lambda rng, m: rng.uniform(0.5, 2.0, m))
        tracemalloc.start()
        try:
            build_spectral(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 8 * n * n

    @pytest.mark.parametrize("w", [1e6, 1e9, 1e15])
    def test_weight_scale_does_not_cost_accuracy(self, w):
        # the unscaled shift L + J/n gave K = -7.98e-8 at w = 1e9
        b = build_spectral(Graph(3, [(0, 1, w), (1, 2, w)]))
        exact = np.array([5 / 9, 2 / 9, 5 / 9]) / w
        assert np.max(np.abs(b.diag - exact) / exact) <= 1e-15
        assert abs(kirchhoff_index(b)[0] * w * 3 / 4 - 1) <= 1e-15


def _p3(a, b):
    return Graph(3, [(0, 1, a), (1, 2, b)])


@functools.cache
def _exact_sweep_graphs():
    """300 seeded graphs: trees plus up to n chords, n = 3..10, weights 10^U(-14, 3)."""
    rng = random.Random(5)
    graphs = []
    for _ in range(300):
        n = rng.randint(3, 10)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n)):
            pairs.add(tuple(sorted(rng.sample(range(n), 2))))
        graphs.append(Graph(n, [(u, v, 10.0 ** rng.uniform(-14, 3)) for u, v in sorted(pairs)]))
    return tuple(graphs)


_exact_diag = functools.cache(exact_lplus_diag)  # keyed by the sweep's graph objects


def _accepted_within_rho_of_exact():
    """Indices of the sweep graphs that build_spectral accepts, asserting
    that each l+_ii, C*(i) and K of each is within relative rho of exact."""
    accepted = []
    for idx, g in enumerate(_exact_sweep_graphs()):
        try:
            b = build_spectral(g)
        except GraphError:
            continue
        accepted.append(idx)
        assert_within_rho(b.diag.tolist(), topological_centrality(b).tolist(),
                          kirchhoff_index(b)[0], _exact_diag(g), b.rho)
    return accepted


class TestCertificate:
    @pytest.mark.parametrize("g, lo, hi", [
        (_p3(1.0, 1e-12), 8e-4, 9e-4),
        (abilene_topology(), 1e-11, 1e-10),
        (wide_weight_cycle()[0], 1e-6, 2e-6),
        (path_graph(800), 7e-8, 8e-8),
    ], ids=["p3-1e-12", "preset", "wide-weight-cycle", "path-800"])
    def test_accepted(self, g, lo, hi):
        b = build_spectral(g)
        assert lo <= b.rho <= hi <= RHO_MAX
        assert b.rho == certificate(b)

    def test_bundle_is_freed_with_its_last_reference(self):
        # nothing caches a bundle, its n x n factor or the L+ it formed
        b = build_spectral(path_graph(200))
        b.lplus
        ref = weakref.ref(b)
        del b
        assert ref() is None

    def test_accepted_value_is_within_rho(self):
        k, _ = kirchhoff_index(build_spectral(_p3(1.0, 1e-12)))
        exact = (2.0 + 2e12) / 3.0
        assert abs(k - exact) / exact <= certificate(build_spectral(_p3(1.0, 1e-12)))

    def test_every_accepted_value_is_within_rho_of_exact(self):
        # README's promise: each l+_ii, C*(i) = 1/l+_ii and K of an accepted
        # bundle is within relative rho of the exact rational value. 190 of
        # the 300 sweep graphs were accepted when it was written, the worst at
        # 0.155 rho; at least 150 must be, so the sweep cannot pass empty
        assert len(_accepted_within_rho_of_exact()) >= 150

    @pytest.mark.parametrize("panel", [1, 2, 3])
    def test_every_panel_width_keeps_the_promise(self, monkeypatch, panel):
        # the sweep's graphs have n = 3..10, so these widths run every step of
        # the panel loop: the update from the columns left of a panel, a
        # diagonal block factored alone and the rows below it solved by its
        # inverse. Each width accepts the graphs one LAPACK call accepts
        want = _accepted_within_rho_of_exact()
        monkeypatch.setattr(spectral, "PANEL", panel)
        assert _accepted_within_rho_of_exact() == want

    @pytest.mark.parametrize("g, match", [
        (_p3(1.0, 1e-14), r"rho = 0\.0886 exceeds 0\.001 \(edge weights span 1e-14 to 1\)"),
        (_p3(1.0, 1e-17), r"rho = 18 exceeds"),
        (Graph(2, [(0, 1, 1e-310)]), r"rho = inf is not finite"),  # l+_ii overflows
    ], ids=["p3-1e-14", "p3-1e-17", "subnormal"])
    def test_refused(self, g, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=match):
                build_spectral(g)

    def test_failed_factorization_is_refused(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(GraphError, match="Cholesky factorization failed"):
            build_spectral(path_graph(3))

    def test_nonpositive_diagonal_is_refused(self, monkeypatch):
        monkeypatch.setattr(spectral.SpectralBundle, "diag",
                            property(lambda b: np.array([1.0, 0.0, 1.0])))
        with pytest.raises(GraphError, match=r"min diag\(L\+\) = 0 <= 0"):
            build_spectral(path_graph(3))

    def test_verify_instances_are_far_inside_the_bound(self):
        worst = 0.0
        for _, check in ALL_CHECKS:
            if isinstance(check.sweep, Sweep):
                for inst in check.sweep.instances(VerifyConfig().seed):
                    worst = max(worst, build_spectral(getattr(inst, "graph", inst)).rho)
        assert 0.0 < worst <= 1e-12
