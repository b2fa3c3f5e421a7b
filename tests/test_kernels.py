"""Kernel-level tests: RNG reference vectors, walk determinism, and the
exhaustive tree scan against an independent decoder."""

from itertools import product

import numpy as np
import pytest

from lapcent import _kernels

from helpers import complete_graph, path_graph, tree_from_pruefer

M64 = (1 << 64) - 1


def ref_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def ref_stream(seed, count):
    out = []
    s = seed & M64
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & M64
        out.append(ref_mix64(s))
    return out


def test_splitmix64_reference_implementation():
    for seed in (0, 1, 42, 0xDEADBEEF, M64):
        got = [int(x) for x in _kernels.splitmix64_stream(seed, 6)]
        assert got == ref_stream(seed, 6)


def test_splitmix64_published_vector():
    # first outputs of the reference splitmix64 for seed 0
    assert ref_stream(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    assert int(_kernels.splitmix64_stream(0, 1)[0]) == 0xE220A8397B1DCDAF


def test_walk_steps_deterministic_and_chunkable():
    g = path_graph(3)
    indptr, nbrs, cumw = g.csr()
    a = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 500, 42)
    b = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 500, 42)
    assert np.array_equal(a, b)
    split = np.concatenate([
        _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 123, 42),
        _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 377, 42, run_start=123),
    ])
    assert np.array_equal(a, split)
    c = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 500, 43)
    assert not np.array_equal(a, c)


def test_walk_steps_forced_first_step():
    g = path_graph(3)
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 1, 256, 11)
    assert np.all(steps == 1)


def test_walk_steps_cap_marks_runs():
    g = path_graph(3)
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 64, 5, cap=1)
    assert np.all(steps == -1)


def test_walk_visits_match_step_counts():
    # total visits over all nodes equals the step count of the same run
    g = complete_graph(4)
    indptr, nbrs, cumw = g.csr()
    runs = 2000
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, runs, 17)
    sums, sumsq, capped = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 2,
                                               runs, 17)
    assert capped == 0
    assert sums.sum() == pytest.approx(float(steps.sum()))
    assert sums[2] == 0.0  # target never counted


def test_weighted_walks_prefer_heavy_edges():
    # from the middle of a weighted path, the walk exits toward the heavy side
    g = None
    from lapcent import Graph
    g = Graph(3, [(0, 1, 1.0), (1, 2, 9.0)])
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 1, 2, 4000, 21)
    # P(direct step) = 0.9; mean steps should sit well below the unweighted 3.0
    assert 1.0 < steps.mean() < 1.8


class TestTreeScan:
    def test_small_hand_values(self):
        # n=3: all 3 labeled trees are paths; numerator 1*2 + 2*1 = 4
        assert tuple(int(x) for x in _kernels.tree_scan(3)) == (4, 3, 4, 3)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_against_independent_enumeration(self, n):
        # independent oracle: decode every sequence, numerator as the sum of
        # all pairwise tree distances (equals the per-edge split-size sum)
        best = None
        best_count = 0
        star_sum = None
        star_count = 0
        for seq in product(range(n), repeat=n - 2):
            t = tree_from_pruefer(list(seq), n)
            from lapcent import shortest_path_distances
            spd = shortest_path_distances(t)
            num = int(round(spd.sum() / 2))
            if best is None or num < best:
                best, best_count = num, 1
            elif num == best:
                best_count += 1
            if max(t.degrees) == n - 1:
                star_sum = num
                star_count += 1
        assert (best, best_count, star_sum, star_count) == \
            tuple(int(x) for x in _kernels.tree_scan(n))
        assert best == (n - 1) ** 2 and star_count == n
