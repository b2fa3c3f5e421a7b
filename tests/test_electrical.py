import numpy as np
import pytest

from lapcent import (Graph, build_spectral, detour_overhead,
                     effective_resistance, export_netlist, hitting_times_exact,
                     recurrence_overhead, voltages)
from lapcent.electrical import _gauged_voltage
from lapcent.graph import GraphError
from lapcent.verify import check_circuit_identities, check_current_law
from lapcent.walks import estimate_visits_mc

from helpers import (complete_graph, fundamental_visits, path_graph,
                     random_connected, within_bounds)


class TestVoltages:
    def test_p3_resistor_chain(self):
        # unit current 0 -> 2 through two unit resistors: v = (2, 1, 0)
        b = build_spectral(path_graph(3))
        prof = voltages(b, 0, 2)
        assert np.allclose(prof.v, [2.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(prof.visits, [2.0, 2.0, 0.0], atol=1e-12)
        assert effective_resistance(b, 0, 2) == pytest.approx(2.0)

    def test_visits_match_fundamental_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(3, 9)),
                                       weighted=bool(rng.integers(2)))
            b = build_spectral(g)
            i, j = rng.integers(0, g.n, 2)
            if i == j:
                continue
            prof = voltages(b, int(i), int(j))
            assert np.allclose(prof.visits, fundamental_visits(g, int(i), int(j)),
                               atol=1e-9)

    def test_k3_terminal_difference_is_resistance(self):
        b = build_spectral(complete_graph(3))
        prof = voltages(b, 0, 1)
        assert prof.v[0] - prof.v[1] == pytest.approx(2 / 3)
        assert prof.v[0] - prof.v[1] == pytest.approx(effective_resistance(b, 0, 1))

    def test_sink_gauge(self):
        rng = np.random.default_rng(3)
        g = random_connected(rng, 7)
        b = build_spectral(g)
        for i in range(7):
            for j in range(7):
                if i != j:
                    assert voltages(b, i, j).v[j] == 0.0

    def test_source_equals_sink_rejected(self):
        with pytest.raises(GraphError):
            voltages(build_spectral(path_graph(3)), 1, 1)

    def test_visits_nonnegative_and_source_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_connected(rng, 8)
            b = build_spectral(g)
            for i in range(8):
                for j in range(8):
                    if i == j:
                        continue
                    prof = voltages(b, i, j)
                    assert np.all(prof.visits >= -1e-12)
                    assert prof.visits[i] > 0


class TestRecurrenceOverhead:
    def test_p3_on_path_transit(self):
        g = path_graph(3)
        assert recurrence_overhead(build_spectral(g), 0, 1, 2) \
            == pytest.approx(0.0, abs=1e-12)

    def test_p3_far_end_transit_matches_walk(self):
        g = path_graph(3)
        b = build_spectral(g)
        ht = hitting_times_exact(g)
        assert recurrence_overhead(b, 0, 2, 1) == pytest.approx(4.0, abs=1e-12)
        assert recurrence_overhead(b, 0, 2, 1) == pytest.approx(
            detour_overhead(ht, 0, 2, 1), abs=1e-12)

    def test_equals_detour_overhead_everywhere(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            g = random_connected(rng, int(rng.integers(4, 11)),
                                       weighted=bool(trial % 2))
            b = build_spectral(g)
            ht = hitting_times_exact(g)
            n = g.n
            for i in range(n):
                for k in range(n):
                    for j in range(n):
                        if len({i, k, j}) < 3:
                            continue
                        assert recurrence_overhead(b, i, k, j) == pytest.approx(
                            detour_overhead(ht, i, k, j), abs=1e-9)


class TestIndexArrays:
    """Index arrays give exactly the values of one call per index tuple."""

    @pytest.fixture(scope="class")
    def routes(self):
        g = random_connected(np.random.default_rng(11), 9, weighted=True)
        i, k, j = np.indices((9, 9, 9)).reshape(3, -1)
        return build_spectral(g), hitting_times_exact(g), i, k, j

    def test_recurrence_overhead(self, routes):
        b, _, i, k, j = routes
        scalar = [recurrence_overhead(b, *t) for t in zip(i.tolist(), k.tolist(), j.tolist())]
        assert type(scalar[0]) is np.float64
        assert np.array_equal(recurrence_overhead(b, i, k, j), scalar)

    def test_detour_overhead(self, routes):
        _, ht, i, k, j = routes
        scalar = [detour_overhead(ht, *t) for t in zip(i.tolist(), k.tolist(), j.tolist())]
        assert type(scalar[0]) is np.float64
        assert np.array_equal(detour_overhead(ht, i, k, j), scalar)

    def test_gauged_voltage(self, routes):
        b, _, x, i, j = routes
        keep = i != j
        x, i, j = x[keep], i[keep], j[keep]
        scalar = [voltages(b, *t[1:]).v[t[0]] for t in zip(x.tolist(), i.tolist(), j.tolist())]
        assert np.array_equal(_gauged_voltage(b, x, i, j), scalar)


class TestCircuitIdentities:
    def test_p3_all_triples(self):
        # superposition on the chain: V^{02} = (2, 1, 0), V^{20} = (0, 1, 2)
        b = build_spectral(path_graph(3))
        assert voltages(b, 0, 2).v[0] == pytest.approx(
            voltages(b, 0, 2).v[1] + voltages(b, 2, 0).v[1], abs=1e-12)
        assert within_bounds(check_circuit_identities.residual(path_graph(3)), 3)

    def test_k4_random_triples(self):
        rng = np.random.default_rng(6)
        b = build_spectral(complete_graph(4))
        for x, y, z in (tuple(rng.integers(0, 4, 3)) for _ in range(100)):
            if len({x, y, z}) == 3:  # reciprocity V^{xy}_z = V^{zy}_x
                assert voltages(b, x, y).v[z] == pytest.approx(voltages(b, z, y).v[x], abs=1e-9)
        assert within_bounds(check_circuit_identities.residual(complete_graph(4)), 4)


class TestCurrentLaw:
    def test_interior_balance(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            g = random_connected(rng, int(rng.integers(3, 10)),
                                       weighted=bool(trial % 2))
            assert within_bounds(check_current_law.residual(g), g.n)


class TestVisitsMonteCarlo:
    @pytest.mark.parametrize("builder,pairs", [
        (lambda: path_graph(3), [(0, 2), (2, 0)]),
        (lambda: complete_graph(4), [(0, 3)]),
    ])
    def test_visits_within_four_se(self, builder, pairs):
        g = builder()
        b = build_spectral(g)
        for i, j in pairs:
            prof = voltages(b, i, j)
            est = estimate_visits_mc(g, i, j, 20000, seed=42)
            for k in range(g.n):
                if k == j:
                    continue
                se = max(float(est.std_errors[k]), 1e-12)
                assert abs(float(est.means[k]) - float(prof.visits[k])) <= 4 * se


class TestNetlist:
    def test_unit_resistances(self):
        assert export_netlist(path_graph(3)) == "0 1 R=1\n1 2 R=1\n"

    def test_weighted_resistance_is_inverse_weight(self):
        g = Graph(2, [(0, 1, 2.5)])
        assert export_netlist(g) == "0 1 R=0.4\n"
