import numpy as np
import pytest

from lapcent import (DisconnectedError, Graph, build_spectral,
                     effective_resistance, kirchhoff_index, resistance_matrix,
                     robustness_summary, spectral_report,
                     topological_centrality)
from lapcent.verify import eigen_route

from helpers import (complete_graph, path_graph, random_connected,
                     star_graph, wide_weight_cycle)


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
        b = build_spectral(path_graph(3))
        assert np.allclose(eigen_route(b.laplacian).eigenvalues, [3.0, 1.0, 0.0], atol=1e-9)
        assert np.allclose(spectral_report(b)["graph"]["eigenvalues"], [3.0, 1.0, 0.0],
                           atol=1e-9)

    def test_routes_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_connected(rng, int(rng.integers(2, 13)),
                                       weighted=bool(rng.integers(2)))
            b = build_spectral(g)
            assert np.max(np.abs(b.lplus - eigen_route(b.laplacian).lplus)) <= 1e-8

    def test_moore_penrose_and_centering(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            g = random_connected(rng, int(rng.integers(2, 13)))
            b = build_spectral(g)
            lap, lp = b.laplacian, b.lplus
            assert np.max(np.abs(lap @ lp @ lap - lap)) <= 1e-9 * max(1, np.abs(lap).max())
            assert np.max(np.abs(lp @ lap @ lp - lp)) <= 1e-9 * max(1, np.abs(lp).max())
            assert np.max(np.abs(lp.sum(axis=0))) <= 1e-10
            assert np.max(np.abs(lp.sum(axis=1))) <= 1e-10

    def test_embedding_gram_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected(rng, 9)
            b = build_spectral(g)
            emb = eigen_route(b.laplacian).embedding
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
        c = topological_centrality(build_spectral(path_graph(3)))
        assert c[1] == pytest.approx(4.5)
        assert c[0] == c[2] == pytest.approx(1.8)

    def test_star4(self):
        c = topological_centrality(build_spectral(star_graph(4)))
        assert c[0] == pytest.approx(16 / 3)
        assert np.allclose(c[1:], 16 / 11)

    def test_spectral_form_matches_diagonal(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_connected(rng, 10, weighted=True)
            b = build_spectral(g)
            eig = eigen_route(b.laplacian)
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
        g = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
        b = build_spectral(g)
        summary = robustness_summary(b)
        assert summary.kirchhoff == pytest.approx(4 / 3)
        rep = spectral_report(b)
        assert rep["graph"]["kirchhoff_convention"] == "trace"
        assert [n["label"] for n in rep["nodes"]] == ["a", "b", "c"]
        assert rep["nodes"][1]["cstar"] == pytest.approx(4.5)
        assert len(rep["graph"]["eigenvalues"]) == 3
