"""Kernel-level tests: RNG reference vectors, walk determinism, the
lockstep walks against a scalar reference walker, block-size invariance, and
the exhaustive tree scan against an independent decoder."""

import hashlib
import tracemalloc
from itertools import product

import numpy as np
import pytest

from lapcent import Graph, _kernels, abilene_topology

from helpers import complete_graph, path_graph, random_connected, tree_from_pruefer

M64 = (1 << 64) - 1
GOLD = 0x9E3779B97F4A7C15


def ref_mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return (z ^ (z >> 31)) & M64


def ref_stream(seed, count):
    out = []
    s = seed & M64
    for _ in range(count):
        s = (s + GOLD) & M64
        out.append(ref_mix64(s))
    return out


def test_splitmix64_reference_implementation():
    for seed in (0, 1, 42, 0xDEADBEEF, M64):
        got = [int(x) for x in _kernels._run_state(np.uint64(seed), np.arange(6))]
        assert got == ref_stream(seed, 6)


def test_splitmix64_published_vector():
    # first outputs of the reference splitmix64 for seed 0
    assert ref_stream(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                                0x06C45D188009454F]
    assert int(_kernels._run_state(np.uint64(0), np.arange(1))[0]) == 0xE220A8397B1DCDAF


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


def test_walk_steps_cap_marks_runs(monkeypatch):
    g = path_graph(3)
    indptr, nbrs, cumw = g.csr()
    monkeypatch.setattr(_kernels, "STEP_CAP", 1)
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 2, 64, 5)
    assert np.all(steps == -1)


def test_step_cap_keeps_block_sums_exact():
    # estimate_hitting_mc sums the squared step counts of a block in int64
    assert _kernels.RUN_BLOCK * _kernels.STEP_CAP**2 < 2**63


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
    g = Graph(3, [(0, 1, 1.0), (1, 2, 9.0)])
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 1, 2, 4000, 21)
    # P(direct step) = 0.9; mean steps should sit well below the unweighted 3.0
    assert 1.0 < steps.mean() < 1.8


def ref_walk(g, src, dst, seed, run, cap):
    """One walk, stepped in Python ints and floats: run r starts from the
    r-th stream output, draws r01 = (mix >> 11) * 2**-53 per step and moves
    to the first neighbor whose cumulative weight exceeds r01 * d(u).
    Returns (steps or -1 if capped, per-node visit counts)."""
    indptr, nbrs, cumw = (a.tolist() for a in g.csr())
    state = ref_stream(seed, run + 1)[-1]
    visits = [0] * g.n
    u = src
    steps = 0
    while u != dst and steps < cap:
        visits[u] += 1
        state = (state + GOLD) & M64
        lo, hi = indptr[u], indptr[u + 1]
        target = (ref_mix64(state) >> 11) * 2.0**-53 * cumw[hi - 1]
        u = next((nbrs[e] for e in range(lo, hi) if target < cumw[e]), nbrs[hi - 1])
        steps += 1
    return (steps if u == dst else -1), visits


def ref_visits(g, src, dst, seed, run_start, runs, cap):
    sums = np.zeros(g.n)
    sumsq = np.zeros(g.n)
    capped = 0
    for r in range(run_start, run_start + runs):
        steps, visits = ref_walk(g, src, dst, seed, r, cap)
        if steps < 0:
            capped += 1
            continue
        v = np.array(visits, np.float64)
        sums += v
        sumsq += v * v
    return sums, sumsq, capped


def weighted_hub(leaves=320, seed=5):
    """Node 0 joined to `leaves` nodes with weights 10**-6..10**6, spread
    log-uniformly in shuffled order, and the leaves chained by unit edges.
    Leaves 1 and n-1 carry the two heaviest weights, so walks from the hub
    reach either within a few dozen steps, and each hub step searches a
    slice longer than any other case's."""
    exps = np.linspace(6, -6, leaves)
    order = [exps[0], *np.random.default_rng(seed).permutation(exps[2:]), exps[1]]
    edges = [(0, v, 10.0 ** e) for v, e in enumerate(order, 1)]
    return Graph(leaves + 1, edges + [(v, v + 1) for v in range(1, leaves)])


RANDOM12 = random_connected(np.random.default_rng(3), 12, weighted=True)
WEIGHTED = [
    Graph(3, [(0, 1, 1.0), (1, 2, 9.0), (0, 2, 0.5)]),
    # weights spanning 1e-17..1e17; every walk still ends within a few steps
    Graph(4, [(0, 1, 1e-17), (0, 2, 1.0), (0, 3, 1e-3), (2, 3, 1e17), (1, 3, 1e17)]),
    # node 0's degree is two subnormal units, so a draw can round up to d(0)
    # and the pick falls back to the slice's last neighbor
    Graph(6, [(0, 1, 5e-324), (0, 2, 5e-324), (1, 3, 1.0), (2, 3, 1.0),
              (3, 4, 1.0), (3, 5, 1.0)]),
    RANDOM12,
    weighted_hub(),
]
REF_CASES = [(g, dst, seed, run_start, cap)
             for g in [path_graph(5), complete_graph(5), *WEIGHTED]
             for dst, seed, run_start, cap in [(g.n - 1, 7, 0, 10**4),
                                               (1, 2**64 - 5, 1000, 10**4),
                                               (g.n - 1, 7, 37, 1)]]


def assert_walks_match_reference_walker(monkeypatch, g, dst, seed, run_start, cap):
    runs = 60
    indptr, nbrs, cumw = g.csr()
    monkeypatch.setattr(_kernels, "STEP_CAP", cap)
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, dst, runs, seed, run_start=run_start)
    ref = [ref_walk(g, 0, dst, seed, r, cap)[0]
           for r in range(run_start, run_start + runs)]
    assert steps.tolist() == ref
    sums, sumsq, capped = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, dst,
                                               runs, seed, run_start=run_start)
    want = ref_visits(g, 0, dst, seed, run_start, runs, cap)
    assert np.array_equal(sums, want[0]) and np.array_equal(sumsq, want[1])
    assert capped == want[2]


@pytest.mark.parametrize("g, dst, seed, run_start, cap", REF_CASES)
def test_walks_match_reference_walker(monkeypatch, g, dst, seed, run_start, cap):
    # 60 runs are few enough that every step takes the sorted search
    assert_walks_match_reference_walker(monkeypatch, g, dst, seed, run_start, cap)


@pytest.mark.parametrize("g, dst, seed, run_start, cap", REF_CASES)
def test_bisection_matches_reference_walker(monkeypatch, g, dst, seed, run_start, cap):
    monkeypatch.setattr(_kernels, "SEARCH_RUNS", 0)
    assert_walks_match_reference_walker(monkeypatch, g, dst, seed, run_start, cap)


def test_walk_steps_pinned_on_preset():
    # SHA-256 of the int64 step counts of 1000 walks 0 -> 30 on the preset at
    # seed 1, as produced by the scalar kernels the lockstep ones replaced
    indptr, nbrs, cumw = abilene_topology().csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 30, 1000, 1)
    assert hashlib.sha256(steps.astype("<i8").tobytes()).hexdigest() == \
        "8f4a792a305b00227bbf896a3aea8a7ee7ab522de41211be042339bde42b3408"


def test_walk_visits_chunk_invariant():
    g = RANDOM12
    indptr, nbrs, cumw = g.csr()
    whole = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 11, 700, 5)
    a = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 11, 250, 5)
    b = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 11, 450, 5, run_start=250)
    assert np.array_equal(whole[0], a[0] + b[0])
    assert np.array_equal(whole[1], a[1] + b[1])
    assert whole[2] == a[2] + b[2] == 0


def test_walk_visits_draw_block_stays_within_budget(monkeypatch):
    # one block of 20000 runs: the draws start one step per run and widen as
    # runs arrive, keeping runs x steps within DRAW_CELLS. Measured peak
    # 2.9 MB; four times the budget reaches 4.9 MB
    monkeypatch.setattr(_kernels, "RUN_BLOCK", 1 << 20)
    g = path_graph(5)
    indptr, nbrs, cumw = g.csr()
    runs = 20000
    _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 4, 10, 3)  # warm caches
    tracemalloc.start()
    try:
        sums = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 4, runs, 3)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.sum() > 10 * runs  # 16 steps per walk on average
    counters = runs * g.n * 8  # the block's visit counters, copied twice to reduce
    assert peak < 3 * counters + 8 * 8 * _kernels.DRAW_CELLS


def test_walks_independent_of_block_size(monkeypatch):
    g = RANDOM12
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, 0, 11, 500, 9)
    visits = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 11, 500, 9)
    monkeypatch.setattr(_kernels, "RUN_BLOCK", 7)
    monkeypatch.setattr(_kernels, "VISIT_CELLS", 3 * g.n + 1)
    assert np.array_equal(_kernels.walk_steps(indptr, nbrs, cumw, 0, 11, 500, 9), steps)
    blocked = _kernels.walk_visits(indptr, nbrs, cumw, g.n, 0, 11, 500, 9)
    for got, want in zip(blocked, visits):
        assert np.array_equal(got, want)


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

    def test_independent_of_block_size(self, monkeypatch):
        # 11 divides none of the sequence counts n**(n-2), so every scan
        # ends on a partial block
        want = [_kernels.tree_scan(n) for n in range(3, 8)]
        monkeypatch.setattr(_kernels, "TREE_BLOCK", 11)
        assert [_kernels.tree_scan(n) for n in range(3, 8)] == want
