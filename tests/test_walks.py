import tracemalloc

import numpy as np
import pytest

from lapcent import _kernels
from lapcent import (Graph, StepCapExceeded, approx_commute_dense,
                     approx_hitting_dense, average_detour_overhead,
                     build_spectral, detour_overhead, estimate_hitting_mc,
                     estimate_visits_mc, hitting_times_exact)
from lapcent.graph import DisconnectedError, GraphError
from lapcent.verify import check_commute_resistance, check_commute_rowsum
from lapcent.walks import simulate_hitting_steps

from helpers import (complete_graph, cycle_graph, hitting_by_fundamental,
                     path_graph, random_connected, ring_chords, routes, star_graph,
                     wide_weight_cycle, within_bounds)


class TestExactHitting:
    def test_p3_first_step_values(self):
        # hand first-step analysis: H(0,1)=1 (forced), H(1,0)=3, H(0,2)=4
        H = hitting_times_exact(path_graph(3)).H
        assert H[0, 1] == pytest.approx(1.0)
        assert H[1, 0] == pytest.approx(3.0)
        assert H[0, 2] == pytest.approx(4.0)
        assert H[2, 1] == pytest.approx(1.0)
        assert np.all(np.diag(H) == 0)

    def test_k3_symmetric(self):
        H = hitting_times_exact(complete_graph(3)).H
        off = H[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0)

    def test_matches_fundamental_matrix_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(3, 9)),
                                       weighted=bool(rng.integers(2)))
            H = hitting_times_exact(g).H
            for _ in range(4):
                i, j = rng.integers(0, g.n, 2)
                if i == j:
                    continue
                assert H[i, j] == pytest.approx(
                    hitting_by_fundamental(g, int(i), int(j)), abs=1e-9)

    def test_commute_is_volume_times_resistance(self):
        g = path_graph(3)
        ht = hitting_times_exact(g)
        assert ht.C[0, 2] == pytest.approx(8.0)  # Vol * Omega = 4 * 2
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(4, 11)),
                                       weighted=bool(rng.integers(2)))
            assert within_bounds(check_commute_resistance.residual(routes(g)), g.n)

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            hitting_times_exact(Graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.filterwarnings("error")
    def test_single_node_is_zero_without_warning(self):
        # Vol(G) = 0 here, so pi = d / Vol would divide 0 by 0
        ht = hitting_times_exact(Graph(1, []))
        assert ht.H.tolist() == [[0.0]] and ht.C.tolist() == [[0.0]]

    def test_wide_weight_cycle_commute_closed_form(self):
        # stationary probabilities span 10^6
        g, omega = wide_weight_cycle()
        want = g.volume * omega
        C = hitting_times_exact(g).C
        off = ~np.eye(g.n, dtype=bool)
        assert np.max(np.abs(C[off] - want[off]) / want[off]) <= 1e-9

    def test_weighted_ring_chords_match_absorbing_chain(self):
        n = 300
        rng = np.random.default_rng(n)
        g = ring_chords(rng, n, lambda rng, m: rng.uniform(0.2, 3.0, m))
        H = hitting_times_exact(g).H
        for _ in range(6):
            i, j = (int(x) for x in rng.choice(n, 2, replace=False))
            want = hitting_by_fundamental(g, i, j)
            assert abs(H[i, j] - want) <= 1e-10 * want


class TestDetourOverhead:
    def test_p3_transit_on_path(self):
        ht = hitting_times_exact(path_graph(3))
        assert detour_overhead(ht, 0, 1, 2) == pytest.approx(0.0)

    def test_p3_detour_through_far_end(self):
        # H(0,2) + H(2,1) - H(0,1) = 4 + 1 - 1
        ht = hitting_times_exact(path_graph(3))
        assert detour_overhead(ht, 0, 2, 1) == pytest.approx(4.0)

    def test_identity_cases(self):
        ht = hitting_times_exact(complete_graph(4))
        for i in range(4):
            for j in range(4):
                assert detour_overhead(ht, i, i, j) == pytest.approx(0.0)
        assert detour_overhead(ht, 2, 2, 2) == 0.0

    def test_symmetric_in_endpoints(self):
        rng = np.random.default_rng(2)
        g = random_connected(rng, 7)
        ht = hitting_times_exact(g)
        for i in range(7):
            for k in range(7):
                for j in range(7):
                    assert detour_overhead(ht, i, k, j) == pytest.approx(
                        detour_overhead(ht, j, k, i), abs=1e-9)

    def test_long_path_midpoint(self):
        # the hit and commute forms differ by 1.2e-9 here; an absolute 1e-9
        # bound between them once rejected this call
        ht = hitting_times_exact(path_graph(200))
        assert abs(detour_overhead(ht, 0, 100, 199)) <= 1e-9 * ht.H.max()


class TestAverageDetour:
    def test_p3_center(self):
        ht = hitting_times_exact(path_graph(3))
        assert average_detour_overhead(ht, 1) == pytest.approx(2 / 9, abs=1e-12)

    def test_k3(self):
        ht = hitting_times_exact(complete_graph(3))
        assert average_detour_overhead(ht, 0) == pytest.approx(2 / 9, abs=1e-12)

    def test_star4_hub(self):
        ht = hitting_times_exact(star_graph(4))
        assert average_detour_overhead(ht, 0) == pytest.approx(3 / 16, abs=1e-12)

    def test_equals_lplus_diagonal_everywhere(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            g = random_connected(rng, int(rng.integers(4, 13)))
            b = build_spectral(g)
            ht = hitting_times_exact(g)
            for k in range(g.n):
                val = average_detour_overhead(ht, k)
                assert val == pytest.approx(b.lplus[k, k], abs=1e-9)

    def test_wide_weight_cycle(self):
        # L+ entries near 6e5: a 4.3e-10 relative gap once failed an
        # absolute 1e-9 bound against l+_kk
        g, _ = wide_weight_cycle()
        diag = np.diag(build_spectral(g).lplus)
        ht = hitting_times_exact(g)
        avg = np.array([average_detour_overhead(ht, k) for k in range(g.n)])
        assert np.max(np.abs(avg - diag) / diag) <= 1e-8


class TestCommuteIdentities:
    def test_p3_center_row(self):
        # sum_j C_1j = Vol (n l+_11 + Tr(L+)) = 4 (3 * 2/9 + 4/3)
        g = path_graph(3)
        lp = build_spectral(g).lplus
        ht = hitting_times_exact(g)
        assert ht.C[1, :].sum() == pytest.approx(8.0, abs=1e-9)
        assert ht.vol * (3 * lp[1, 1] + np.trace(lp)) == pytest.approx(8.0, abs=1e-9)
        assert within_bounds(check_commute_rowsum.residual(routes(g)), g.n)

    def test_k3_any_row(self):
        g = complete_graph(3)
        lp = build_spectral(g).lplus
        ht = hitting_times_exact(g)
        assert ht.C[2, :].sum() == pytest.approx(8.0, abs=1e-9)
        assert ht.vol * (3 * lp[2, 2] + np.trace(lp)) == pytest.approx(8.0, abs=1e-9)
        assert within_bounds(check_commute_rowsum.residual(routes(g)), g.n)

    def test_p3_kirchhoff_double_sum(self):
        # K = sum_kj C_kj / (2 n Vol) = Tr(L+)
        g = path_graph(3)
        ht = hitting_times_exact(g)
        assert ht.C.sum() / (2 * 3 * ht.vol) == pytest.approx(4 / 3, abs=1e-9)
        assert np.trace(build_spectral(g).lplus) == pytest.approx(4 / 3, abs=1e-9)

    def test_most_central_has_smallest_commute_row(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_connected(rng, 9)
            b = build_spectral(g)
            ht = hitting_times_exact(g)
            assert int(np.argmin(ht.C.sum(axis=1))) == int(np.argmin(np.diag(b.lplus)))


class TestMonteCarlo:
    def test_forced_first_step_exact(self):
        est = estimate_hitting_mc(path_graph(3), 0, 1, 5000, seed=42)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_within_four_standard_errors(self):
        g = path_graph(3)
        exact = hitting_times_exact(g).H
        est = estimate_hitting_mc(g, 0, 2, 30000, seed=42)
        assert abs(est.mean - exact[0, 2]) <= 4 * est.std_error
        g = complete_graph(3)
        est = estimate_hitting_mc(g, 0, 1, 30000, seed=43)
        assert abs(est.mean - 2.0) <= 4 * max(est.std_error, 1e-9)

    def test_deterministic_and_worker_independent(self):
        g = complete_graph(4)
        full = simulate_hitting_steps(g, 0, 3, 1000, seed=7)
        again = simulate_hitting_steps(g, 0, 3, 1000, seed=7)
        parts = np.concatenate([
            simulate_hitting_steps(g, 0, 3, 400, seed=7),
            simulate_hitting_steps(g, 0, 3, 600, seed=7, run_start=400),
        ])
        assert np.array_equal(full, again)
        assert np.array_equal(full, parts)

    def test_doubling_runs_halves_std_error(self):
        g = cycle_graph(5)
        small = estimate_hitting_mc(g, 0, 2, 20000, seed=11)
        big = estimate_hitting_mc(g, 0, 2, 80000, seed=11)
        ratio = small.std_error / big.std_error
        assert 1.5 <= ratio <= 2.7  # quadrupling runs should halve the SE

    def test_single_run(self):
        est = estimate_hitting_mc(path_graph(3), 0, 1, 1, seed=1)
        assert est.runs == 1 and est.std_error == 0.0

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(_kernels, "STEP_CAP", 1)
        with pytest.raises(StepCapExceeded, match="^walk 0->2 exceeded 1 steps"):
            estimate_hitting_mc(path_graph(3), 0, 2, 16, seed=3)
        with pytest.raises(StepCapExceeded, match="^16 walks 0->2 exceeded 1 steps$"):
            estimate_visits_mc(path_graph(3), 0, 2, 16, seed=3)

    def test_estimate_fields(self):
        est = estimate_hitting_mc(path_graph(3), 0, 2, 64, seed=5)
        d = est.to_dict()
        assert set(d) == {"mean", "std_error", "runs", "seed"}
        assert d["runs"] == 64 and d["seed"] == 5

    def test_block_sums_match_full_sample(self, monkeypatch):
        g = cycle_graph(5)
        for runs, seed in ((2, 3), (500, 11), (1001, 4)):
            steps = simulate_hitting_steps(g, 0, 2, runs, seed).astype(np.float64)
            monkeypatch.setattr(_kernels, "RUN_BLOCK", 7)
            est = estimate_hitting_mc(g, 0, 2, runs, seed)
            monkeypatch.undo()
            assert est.mean == steps.mean()
            se = steps.std(ddof=1) / np.sqrt(runs)
            assert abs(est.std_error - se) <= 1e-15 * se

    def test_memory_does_not_grow_with_runs(self, monkeypatch):
        # a full per-run sample of 200k int64 step counts alone is 1.6 MB
        monkeypatch.setattr(_kernels, "RUN_BLOCK", 1000)
        g = path_graph(3)
        estimate_hitting_mc(g, 0, 1, 10, seed=1)  # warm caches
        tracemalloc.start()
        try:
            est = estimate_hitting_mc(g, 0, 1, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.mean == 1.0
        assert peak < 1_000_000

    def test_bad_args(self):
        g = path_graph(3)
        for i, j, runs in ((1, 1, 10), (0, 1, 0), (-1, 0, 10), (0, 3, 10)):
            with pytest.raises(GraphError):
                estimate_hitting_mc(g, i, j, runs, seed=0)
            with pytest.raises(GraphError):
                simulate_hitting_steps(g, i, j, runs, seed=0)
            with pytest.raises(GraphError):
                estimate_visits_mc(g, i, j, runs, seed=0)
        with pytest.raises(DisconnectedError):
            estimate_visits_mc(Graph(4, [(0, 1), (2, 3)]), 0, 1, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_raises(self, seed):
        # the kernels seed a uint64 stream; these used to raise OverflowError
        g = path_graph(3)
        for fn in (estimate_hitting_mc, simulate_hitting_steps, estimate_visits_mc):
            with pytest.raises(GraphError, match=r"seed must be in \[0, 2\*\*64\)"):
                fn(g, 0, 2, 10, seed=seed)

    def test_seed_range_ends_are_accepted(self):
        g = path_graph(3)
        for seed in (0, 2**64 - 1):
            assert estimate_visits_mc(g, 0, 2, 10, seed=seed).seed == seed


class TestDenseApproximation:
    def test_k4(self):
        g = complete_graph(4)
        assert approx_hitting_dense(g, 0, 1) == pytest.approx(4.0)  # exact is 3
        assert hitting_times_exact(g).H[0, 1] == pytest.approx(3.0)

    def test_k3_commute(self):
        g = complete_graph(3)
        assert approx_commute_dense(g, 0, 1) == pytest.approx(6.0)  # exact is 4
        assert hitting_times_exact(g).C[0, 1] == pytest.approx(4.0)

    def test_regular_graph_constant(self):
        g = cycle_graph(6)
        vals = {approx_hitting_dense(g, i, j)
                for i in range(6) for j in range(6) if i != j}
        assert len(vals) == 1

    def test_target_degree_convention(self):
        g = star_graph(4)  # d(hub)=3, d(leaf)=1, Vol=6
        assert approx_hitting_dense(g, 0, 1) == pytest.approx(2.0)
        assert approx_hitting_dense(g, 0, 1, convention="target-degree") \
            == pytest.approx(6.0)
        with pytest.raises(GraphError):
            approx_hitting_dense(g, 0, 1, convention="typo")

    def test_disconnected_raises(self):
        # used to answer Vol(G) / d(i) from one component's degrees
        g = Graph(4, [(0, 1), (2, 3)])
        for fn in (approx_hitting_dense, approx_commute_dense):
            with pytest.raises(DisconnectedError, match=r"second component: \[2, 3\]"):
                fn(g, 0, 3)

    def test_source_equal_to_target_is_zero(self):
        # used to answer as if i != j; the exact H_jj and C_jj are 0
        g = star_graph(4)
        for k in range(4):
            for convention in ("source-degree", "target-degree"):
                assert approx_hitting_dense(g, k, k, convention=convention) == 0.0
            assert approx_commute_dense(g, k, k) == 0.0

    @pytest.mark.parametrize("i, j", [(-1, 1), (0, -1), (3, 1), (0, 3)])
    def test_out_of_range_ids_raise(self, i, j):
        # a negative id used to index degrees from the end: node n-1
        g = path_graph(3)
        for convention in ("source-degree", "target-degree"):
            with pytest.raises(GraphError, match="outside 0..2"):
                approx_hitting_dense(g, i, j, convention=convention)
        with pytest.raises(GraphError, match="outside 0..2"):
            approx_commute_dense(g, i, j)
