"""Hot numeric kernels: seeded random-walk simulation and exhaustive tree scans.

Randomness is a splitmix64 stream. Each run's stream is seeded from
(master seed, run index) only, so results never depend on how runs are
batched across workers.
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
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def _mix64(z):
    """splitmix64 output function (Stafford mix13)."""
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def _run_state(seed, run_index):
    """Initial stream state for one run: the run_index-th splitmix64 output."""
    return _mix64(seed + GOLD * np.uint64(run_index + 1))


def _walk_steps(indptr, nbrs, cumw, src, dst, run_start, run_count, seed, cap):
    """Step counts of simulated walks src -> dst; -1 marks a capped run.

    One uniform draw per step; the neighbor is picked by scanning the node's
    cumulative-weight slice, so weighted and unweighted graphs share a path.
    """
    out = np.empty(run_count, np.int64)
    for r in range(run_count):
        state = _run_state(seed, run_start + r)
        u = src
        steps = 0
        while u != dst and steps < cap:
            state = state + GOLD
            z = _mix64(state)
            r01 = np.float64(z >> _S11) * _INV53
            lo = indptr[u]
            hi = indptr[u + 1]
            target = r01 * cumw[hi - 1]
            nxt = nbrs[hi - 1]
            for e in range(lo, hi):
                if target < cumw[e]:
                    nxt = nbrs[e]
                    break
            u = nxt
            steps += 1
        out[r] = steps if u == dst else -1
    return out


def _walk_visits(indptr, nbrs, cumw, n, src, dst, run_start, run_count, seed, cap):
    """Per-node visit counts of walks src -> dst, aggregated over runs.

    A visit is counted at every position the walk occupies before absorption,
    so the start counts and the final arrival at dst does not. Returns
    (sum, sum-of-squares, capped-run-count); capped runs are excluded from
    the sums.
    """
    sums = np.zeros(n, np.float64)
    sumsq = np.zeros(n, np.float64)
    visits = np.empty(n, np.int64)
    capped = 0
    for r in range(run_count):
        state = _run_state(seed, run_start + r)
        u = src
        steps = 0
        for k in range(n):
            visits[k] = 0
        while u != dst and steps < cap:
            visits[u] += 1
            state = state + GOLD
            z = _mix64(state)
            r01 = np.float64(z >> _S11) * _INV53
            lo = indptr[u]
            hi = indptr[u + 1]
            target = r01 * cumw[hi - 1]
            nxt = nbrs[hi - 1]
            for e in range(lo, hi):
                if target < cumw[e]:
                    nxt = nbrs[e]
                    break
            u = nxt
            steps += 1
        if u != dst:
            capped += 1
            continue
        for k in range(n):
            vk = np.float64(visits[k])
            sums[k] += vk
            sumsq[k] += vk * vk
    return sums, sumsq, capped


def _tree_scan(n):
    """Scan every labeled tree on n nodes (all n**(n-2) Pruefer sequences).

    For each tree computes the integer sum over edges of s*(n-s), where s and
    n-s are the component sizes after deleting the edge; the trace of the
    Laplacian pseudo-inverse of a tree equals that sum divided by n. Tracks
    the minimum, how many trees attain it, and the same data for stars
    (max degree n-1). Returns (min_sum, min_count, star_sum, star_count).

    The sizes come out of the decode itself: sz[v] counts v and every node
    already removed through it, so when a leaf is removed the edge it leaves
    by splits the tree into sz[leaf] and n - sz[leaf] nodes.
    """
    slen = n - 2
    total = 1
    for _ in range(slen):
        total *= n
    seq = np.zeros(slen, np.int64)
    deg = np.empty(n, np.int64)
    sz = np.empty(n, np.int64)
    min_sum = np.int64(2**62)
    min_count = 0
    star_sum = np.int64(-1)
    star_count = 0
    for _ in range(total):
        maxdeg = 1
        for i in range(n):
            deg[i] = 1
            sz[i] = 1
        for i in range(slen):
            deg[seq[i]] += 1
            if deg[seq[i]] > maxdeg:
                maxdeg = deg[seq[i]]
        ptr = 0
        while deg[ptr] != 1:
            ptr += 1
        leaf = ptr
        s = np.int64(0)
        for i in range(slen):
            x = seq[i]
            s += sz[leaf] * (n - sz[leaf])
            sz[x] += sz[leaf]
            deg[x] -= 1
            if deg[x] == 1 and x < ptr:
                leaf = x
            else:
                ptr += 1
                while deg[ptr] != 1:
                    ptr += 1
                leaf = ptr
        s += sz[leaf] * (n - sz[leaf])
        if s < min_sum:
            min_sum = s
            min_count = 1
        elif s == min_sum:
            min_count += 1
        if maxdeg == n - 1:
            star_sum = s
            star_count += 1
        # advance the sequence (base-n counter)
        j = slen - 1
        while j >= 0:
            seq[j] += 1
            if seq[j] < n:
                break
            seq[j] = 0
            j -= 1
    return min_sum, min_count, star_sum, star_count


# -- public wrappers ---------------------------------------------------
# The splitmix64 arithmetic wraps uint64 values, which numpy flags as scalar
# overflow; that wrapping is the point, so silence it.


def walk_steps(indptr, nbrs, cumw, src, dst, runs, seed, run_start=0, cap=10**7):
    args = (indptr, nbrs, cumw, np.int64(src), np.int64(dst),
            np.int64(run_start), np.int64(runs), np.uint64(seed), np.int64(cap))
    with np.errstate(over="ignore"):
        return _walk_steps(*args)


def walk_visits(indptr, nbrs, cumw, n, src, dst, runs, seed, run_start=0, cap=10**7):
    args = (indptr, nbrs, cumw, np.int64(n), np.int64(src), np.int64(dst),
            np.int64(run_start), np.int64(runs), np.uint64(seed), np.int64(cap))
    with np.errstate(over="ignore"):
        return _walk_visits(*args)


def tree_scan(n):
    return _tree_scan(np.int64(n))


def splitmix64_stream(seed, count):
    """First `count` outputs of the splitmix64 stream for `seed` (testing aid)."""
    out = np.empty(count, np.uint64)
    with np.errstate(over="ignore"):
        state = np.uint64(seed)
        for i in range(count):
            state = state + GOLD
            out[i] = _mix64(state)
    return out
