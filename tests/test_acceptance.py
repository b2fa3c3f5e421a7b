"""Acceptance suite: each test enforces one numbered criterion at its stated
cap and prints a one-line PASS record (run pytest -s to see them).

A criterion whose instance pool is a `lapcent verify` sweep runs that check
from the registry at the criterion's seed, after pinning the sweep's
instance count and n range: the check must pass at its own bound, and every
instance's residual must also stay within the criterion's cap of 1e-9
(`helpers.within_bounds`). Where a criterion's pool differs, the test keeps
its own pool and applies the registry's per-instance residual to it. Every
cap is pinned here, not configurable.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lapcent.forests import lplus_diag_fractions, tree_center
from lapcent.topology import DOWN, FLAT, UP
from lapcent.verify import (TABLE1_EXPECT, Gap, VerifyConfig, check_circuit_identities,
                            check_commute_resistance, check_detour_average,
                            check_detour_equivalence, check_electrical_detour,
                            check_extremal_kirchhoff, check_forest_diagonal,
                            check_sensitivity_directions, check_spectral_consistency,
                            check_tree_partition, chunked_steps, hitting_estimates)
from lapcent.walks import simulate_hitting_steps

from helpers import complete_graph, path_graph, star_graph, within_bounds


def report(name, detail):
    print(f"PASS {name}: {detail}")


def run_sweep(check, seed, count, lo, hi):
    """Run a registry sweep at a criterion's seed, with its instance count
    and n range pinned to the criterion's; assert that it passes and that
    every instance stays within 1e-9 and its bound. Returns the largest raw
    residual of the pool."""
    sweep = check.sweep
    assert (sweep.count, sweep.lo, sweep.hi) == (count, lo, hi)
    res = check(VerifyConfig(seed=seed))
    assert res.passed, res.line()
    gaps = []
    for inst in sweep.instances(seed):
        value = check.residual(inst)
        assert within_bounds(value, getattr(inst, "graph", inst).n), value
        gaps += (value,) if isinstance(value, Gap) else value
    return max(gap.residual for gap in gaps)


@pytest.fixture(scope="module")
def pool100():
    """The graphs of the detour-average pool: 100 seeded random connected
    graphs, n in [4, 12], edge prob 0.4."""
    return [r.graph for r in check_detour_average.sweep.instances(42)]


def test_criterion_1_theorem1_average_detour():
    t0 = time.perf_counter()
    worst = run_sweep(check_detour_average, 42, 100, 4, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report("criterion-1 (average detour = l+_kk)",
           f"max residual {worst:.3e} on 100 graphs in {elapsed:.1f}s")


def test_criterion_2_commute_identities(pool100):
    worst_c = run_sweep(check_commute_resistance, 42, 100, 4, 12)
    small = [g for g in pool100 if g.n <= 8]
    assert small
    worst_d = max(check_detour_equivalence.residual(g).residual for g in small)
    assert worst_d <= 1e-9
    report("criterion-2 (commute = Vol*resistance; detour equivalences)",
           f"residuals {worst_c:.3e} / {worst_d:.3e} "
           f"({len(small)} graphs with n<=8 for the triple sweep)")


def test_criterion_3_theorem2_electrical():
    worst_e = run_sweep(check_electrical_detour, 7, 20, 4, 10)
    graphs = list(check_electrical_detour.sweep.instances(7))
    worst_i = max(check_circuit_identities.residual(g).residual for g in graphs)
    assert worst_i <= 1e-9
    report("criterion-3 (electrical overhead; superposition/reciprocity)",
           f"residuals {worst_e:.3e} / {worst_i:.3e} on {len(graphs)} graphs")


def test_criterion_4_forest_diagonal():
    worst = run_sweep(check_forest_diagonal, 11, 500, 3, 7)
    # exact rational hand values
    assert lplus_diag_fractions(path_graph(3)) == \
        [Fraction(5, 9), Fraction(2, 9), Fraction(5, 9)]
    assert lplus_diag_fractions(complete_graph(3)) == [Fraction(2, 9)] * 3
    s4 = lplus_diag_fractions(star_graph(4))
    assert s4[0] == Fraction(3, 16) and s4[1:] == [Fraction(11, 16)] * 3
    p4 = lplus_diag_fractions(path_graph(4))
    assert p4 == [Fraction(7, 8), Fraction(3, 8), Fraction(3, 8), Fraction(7, 8)]
    report("criterion-4 (forest census = spectral diagonal)",
           f"max residual {worst:.3e} on 500 graphs; rational hand values exact")


def test_criterion_5_tree_centrality():
    # the residual is at least 1 on a tree whose most central node is off-center
    worst = run_sweep(check_tree_partition, 13, 100, 3, 12)
    assert tree_center(path_graph(4)) == (1, 2)
    report("criterion-5 (tree partition formula; centers)",
           f"max residual {worst:.3e} on 100 trees; P4 tie (1, 2)")


def test_criterion_6_monte_carlo_oracle():
    checked = []
    for g, pairs in ((path_graph(3), [(0, 1), (0, 2), (1, 0)]),
                     (complete_graph(4), [(0, 1), (1, 3)])):
        for i, j, est, exact in hitting_estimates(g, pairs, 100000, seed=42):
            se = max(est.std_error, 1e-12)
            assert abs(est.mean - exact) <= 4 * se, (i, j, est)
            checked.append(abs(est.mean - exact) / se)
    g = complete_graph(4)
    full = simulate_hitting_steps(g, 0, 3, 100000, seed=42)
    again = simulate_hitting_steps(g, 0, 3, 100000, seed=42)
    assert np.array_equal(full, again)
    assert np.array_equal(full, chunked_steps(g, 0, 3, 42, (33333, 33333, 33334)))
    report("criterion-6 (Monte Carlo oracle)",
           f"worst deviation {max(checked):.2f} SE at 1e5 runs; "
           "sequence deterministic and chunk-invariant")


def test_criterion_7_extremal_kirchhoff():
    t0 = time.perf_counter()
    res = check_extremal_kirchhoff(VerifyConfig())
    elapsed = time.perf_counter() - t0
    assert res.passed, res.line()
    assert elapsed < 120.0
    report("criterion-7 (extremal Kirchhoff)", f"{res.detail} in {elapsed:.1f}s")


def test_criterion_8_sensitivity_directions():
    keys = ("kstar", "randic", "gc_mean", "sc_mean", "gb_mean", "rb_mean")
    assert [TABLE1_EXPECT["pert1"][k] for k in keys] == [DOWN, UP, DOWN, UP, UP, UP]
    assert [TABLE1_EXPECT["pert2"][k] for k in keys] == [UP, FLAT, UP, DOWN, DOWN, UP]
    res = check_sensitivity_directions(VerifyConfig(seed=42))
    assert res.passed, res.line()
    # stretch-goal numbers, reported not asserted: the interior wiring of the
    # preset beyond its hard constraints is this package's own fill rule
    report("criterion-8 (perturbation direction vectors)",
           f"all 12 arrows match; {res.detail} "
           "(reference dK* -0.045/+0.036, dR1 +0.029)")


def test_criterion_9_spectral_self_consistency(pool100):
    route, mp_l, mp_p, center, gram, norms, kirchhoff = np.max(
        [[gap.residual for gap in check_spectral_consistency.residual(g)] for g in pool100],
        axis=0)
    mp, embed = max(mp_l, mp_p), max(gram, norms, kirchhoff)
    assert route <= 1e-8
    assert mp <= 1e-9
    assert center <= 1e-10
    assert embed <= 1e-9
    report("criterion-9 (spectral self-consistency)",
           f"routes {route:.3e}; Moore-Penrose {mp:.3e}; "
           f"centering {center:.3e}; embedding {embed:.3e}")
