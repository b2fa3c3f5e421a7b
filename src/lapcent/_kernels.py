"""Hot numeric kernels: seeded random-walk simulation and exhaustive tree scans.

Randomness is a splitmix64 stream. Each run's stream is seeded from
(master seed, run index) only, so results never depend on how runs are
batched into blocks or across calls.

Walks run in lockstep: a block of runs starts at the source and every run
still walking takes one step per numpy iteration; a run leaves the block
when it reaches the target. Each step picks the neighbor a linear scan of
the node's cumulative-weight slice would, the first entry above the draw.
While few runs walk, numpy's per-call cost dominates, so one sorted search
over all slices, keyed by (node, cumulative weight) as complex numbers,
picks for every run at once. While many walk, a batched bisection over
each node's slice, O(log d) numpy calls but less work per run, is cheaper.
Each run's draws for the next several steps are generated in one pass, in
a block of at most DRAW_CELLS uniforms (runs x steps), or one step's when
more runs are walking. The tree scan decodes a block of Pruefer sequences
at once, stored node-major (one row per node, one column per sequence).
Block sizes are fixed, so working memory does not grow with the run count
or the number of trees.
"""

from __future__ import annotations

import numpy as np


GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_ONE = np.uint64(1)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53

RUN_BLOCK = 65536      # walks simulated side by side
VISIT_CELLS = 1 << 21  # per-run visit counters held at once (runs x nodes)
DRAW_CELLS = 1 << 14   # uniforms generated ahead at once (runs x steps)
SEARCH_RUNS = 128      # walking runs per bisection round below which a step searches
TREE_BLOCK = 8192      # Pruefer sequences decoded side by side
STEP_CAP = 10**7       # steps a run may take before it counts as capped
# A block's int64 sum of squared step counts stays exact while
# RUN_BLOCK * STEP_CAP**2 < 2**63.


def _mix64(z):
    """splitmix64 output function (Stafford mix13)."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _run_state(seed, run_index):
    """Initial stream state of each run: the run_index-th splitmix64 output."""
    return _mix64(seed + GOLD * (np.asarray(run_index, np.uint64) + _ONE))


def _pick(cumw, lo, last, target, rounds):
    """First e in [lo, last) with target < cumw[e], else last.

    A bisection run on every walk at once. It finds the entry a linear scan
    would because weights are positive, so cumw never decreases within a
    node's slice. `rounds` must be at least the bit length of the longest
    range last - lo. A walk whose range is empty keeps its bounds, so its
    `mid` stays a valid index.
    """
    hi = last
    for _ in range(rounds):
        mid = (lo + hi) >> 1
        right = (lo < hi) & (cumw[mid] <= target)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _draws(state, width):
    """The next `width` uniforms in [0, 1) of each run's stream, one row per
    step, and the stream states after them."""
    z = state + GOLD * np.arange(1, width + 1, dtype=np.uint64)[:, None]
    return (_mix64(z) >> _S11).astype(np.float64) * _INV53, z[-1]


def _walk_block(indptr, nbrs, cumw, src, dst, first_run, count, seed, visits=None):
    """Step counts of `count` runs src -> dst simulated in lockstep; -1 marks
    a run still walking after STEP_CAP steps.

    Runs are first_run, first_run+1, ...; each draws one uniform per step
    from its own stream. If `visits` (count x n) is given, visits[r, u]
    counts the steps run r takes from u.

    A step from u with draw r01 moves to the first neighbor e in u's slice
    with r01 * d(u) < cumw[e], else to the slice's last neighbor. While
    fewer than SEARCH_RUNS runs per bisection round are walking, one sorted
    search finds it for every run: `key` holds (owner, cumw) per slot as a
    complex number, with each slice's last slot raised to +inf, and numpy
    orders complex numbers by real then imaginary part, so the first key
    above (u, r01 * d(u)) is that slot. More runs take `_pick`: each of its
    rounds costs several numpy calls, but far less per run than the
    search, whose comparisons branch unpredictably. Both pick the same
    slot. Draws are generated up to DRAW_CELLS at a time; `row` maps each
    walking run to its row of them.
    """
    rounds = int(np.max(np.diff(indptr)) - 1).bit_length()
    n = len(indptr) - 1
    last_slot = indptr[1:] - 1
    key = np.empty(len(cumw), np.complex128)
    key.real = np.repeat(np.arange(n), np.diff(indptr))
    key.imag = cumw
    key.imag[last_slot] = np.inf
    base = np.empty(n, np.complex128)  # (u, d(u))
    base.real = np.arange(n)
    base.imag = cumw[last_slot]
    state = _run_state(np.uint64(seed), first_run + np.arange(count))
    steps = np.full(count, -1, np.int64)
    live = row = np.arange(count)
    u = np.full(count, src, np.int64)
    draws = np.empty((0, count))
    k = j = 0
    while True:
        arrived = u == dst
        if np.count_nonzero(arrived):
            steps[live[arrived]] = k
            walking = ~arrived
            live, u, row = live[walking], u[walking], row[walking]
        if live.size == 0 or k == STEP_CAP:
            return steps
        if visits is not None:
            visits[live, u] += 1
        if j == len(draws):
            draws, state = _draws(state[row], max(1, DRAW_CELLS // live.size))
            row, j = np.arange(live.size), 0
        r01 = draws[j][row]
        if live.size < SEARCH_RUNS * rounds:
            q = base[u]
            q.imag *= r01
            e = key.searchsorted(q, "right")
        else:
            last = last_slot[u]
            e = _pick(cumw, indptr[u], last, r01 * cumw[last], rounds)
        u = nbrs[e]
        j += 1
        k += 1


def walk_steps(indptr, nbrs, cumw, src, dst, runs, seed, run_start=0):
    """Step counts of simulated walks src -> dst; -1 marks a capped run.

    Runs are run_start, run_start+1, ..., simulated RUN_BLOCK at a time.
    """
    out = np.empty(runs, np.int64)
    for start in range(0, runs, RUN_BLOCK):
        count = min(RUN_BLOCK, runs - start)
        out[start:start + count] = _walk_block(indptr, nbrs, cumw, src, dst,
                                               run_start + start, count, seed)
    return out


def walk_visits(indptr, nbrs, cumw, n, src, dst, runs, seed):
    """Per-node visit counts of walks src -> dst, aggregated over runs
    0, 1, ..., runs - 1.

    A visit is counted at every position the walk occupies before absorption,
    so the start counts and the final arrival at dst does not. Returns
    (sum, sum-of-squares, capped-run-count); capped runs are excluded from
    the sums. Runs are simulated in blocks of at most VISIT_CELLS // n, so
    the per-run counters stay bounded. The sums are accumulated as integers,
    so they do not depend on the block size.
    """
    block = max(1, min(RUN_BLOCK, VISIT_CELLS // n))
    sums = np.zeros(n, np.int64)
    sumsq = np.zeros(n, np.int64)
    capped = 0
    for start in range(0, runs, block):
        count = min(block, runs - start)
        visits = np.zeros((count, n), np.int64)
        steps = _walk_block(indptr, nbrs, cumw, src, dst, start, count, seed, visits)
        over = steps < 0
        capped += int(np.count_nonzero(over))
        visits[over] = 0
        sums += visits.sum(axis=0)
        sumsq += np.square(visits, out=visits).sum(axis=0)
    return sums.astype(np.float64), sumsq.astype(np.float64), capped


def tree_scan(n):
    """Scan every labeled tree on n nodes (all n**(n-2) Pruefer sequences).

    For each tree computes the integer sum over edges of s*(n-s), where s and
    n-s are the component sizes after deleting the edge; the trace of the
    Laplacian pseudo-inverse of a tree equals that sum divided by n. Tracks
    the minimum, how many trees attain it, and the same data for stars
    (max degree n-1). Returns (min_sum, min_count, star_sum, star_count).

    Sequences are decoded TREE_BLOCK at a time, stored node-major: row v of
    deg and sz holds node v's cell of every sequence in the block, and the
    updates address cells by flat index (row * block + column). Every round
    removes each sequence's smallest leaf and joins it to the sequence's
    next entry; a descending pass over the node rows finds that leaf, each
    row overwriting the leaf of the sequences where it has degree one. Node
    n-1 is never the smallest leaf, as a tree has at least two leaves, so it
    is left for the last edge. The sizes come out of the decode itself:
    sz[v] counts v and every node already removed through it, so when a leaf
    is removed the edge it leaves by splits the tree into sz[leaf] and
    n - sz[leaf] nodes. Cells are int16: a sum is at most (n-1) * n**2 / 4,
    below 2**15 for n <= 51, far past any n whose n**(n-2) trees a scan can
    finish.
    """
    slen = max(n - 2, 0)
    total = n ** slen
    place = n ** np.arange(slen - 1, -1, -1)  # first entry most significant
    min_sum, min_count, star_sum, star_count = 2**62, 0, -1, 0
    for start in range(0, total, TREE_BLOCK):
        code = np.arange(start, min(start + TREE_BLOCK, total))
        b = len(code)
        cols = np.arange(b)
        cells = code // place[:, None] % n * b + cols  # one row per sequence position
        deg = np.ones((n, b), np.int16)
        sz = np.ones_like(deg)
        flat_deg, flat_sz = deg.reshape(-1), sz.reshape(-1)
        for x in cells:
            flat_deg[x] += 1
        star = deg.max(axis=0) == n - 1
        s = np.zeros(b, np.int16)
        leaf = np.empty(b, np.intp)
        for x in cells:
            for v in range(n - 2, -1, -1):
                np.copyto(leaf, v, where=deg[v] == 1)
            cell = leaf * b + cols
            part = flat_sz[cell]
            s += part * (n - part)
            flat_sz[x] += part
            flat_deg[x] -= 1
            flat_deg[cell] = 0
        s += sz[n - 1] * (n - sz[n - 1])  # the last edge joins n-1 to the last leaf
        low = int(s.min())
        if low < min_sum:
            min_sum, min_count = low, 0
        if low == min_sum:
            min_count += int(np.count_nonzero(s == low))
        if star.any():
            star_sum = int(s[star][-1])
            star_count += int(np.count_nonzero(star))
    return min_sum, min_count, star_sum, star_count
