"""Self-contained verification suites for every identity the toolkit rests
on. Every check registers in ALL_CHECKS, which the CLI `verify` command and
the acceptance tests both run.

Most checks are seeded sweeps: a `Sweep` declares the instance count, the n
range, the tolerance, the generator and the detail line, and the function it
decorates computes the residual of one instance. The sweep owns the rng, the
`--n` cap, the `--tolerance` override, the worst residual and the failing
instances, which it hands back as edge lists for replay. The checks over
fixed cases are hand-written and registered with `register`.

Production modules compute each side of an identity by its own route; the
arithmetic that compares the sides, and the routes kept only for checking,
live only here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from . import _kernels
from .electrical import _gauged_voltage, recurrence_overhead, voltages
from .forests import (CENTER_RTOL, forest_census, lplus_diag_fractions, tree_center,
                      tree_centrality)
from .graph import Graph, GraphError, format_edge_list, is_connected, shortest_path_distances
from .spectral import EPS, build_spectral, resistance_matrix, topological_centrality
from .topology import (DOWN, FLAT, UP, abilene_topology, check_abilene_constraints,
                       pert_preset, sensitivity_report)
from .walks import (average_detour_overhead, detour_overhead, estimate_hitting_mc,
                    estimate_visits_mc, hitting_times_exact, simulate_hitting_steps)
from .zoo import (centrality_report, max_normalized, randomwalk_betweenness,
                  subgraph_centrality)


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float | None
    tolerance: float | None
    detail: str = ""
    failures: list = field(default_factory=list)  # failing instances, as Graphs

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.residual is None:
            body = self.detail
        else:
            body = f"max residual {self.residual:.3e} (tol {self.tolerance:.1e})"
            if self.detail:
                body += f"; {self.detail}"
        return f"{status} {self.name}: {body}"


@dataclass
class VerifyConfig:
    seed: int = 42
    tolerance: float | None = None  # overrides every check tolerance when set
    max_n: int | None = None        # overrides instance-size upper bounds


MC_RUNS = 20000  # Monte Carlo runs per estimate


ALL_CHECKS = []  # (name, check(cfg) -> CheckResult), in registration order


def register(name):
    """Register a hand-written check(cfg) under `name`."""
    def add(check):
        ALL_CHECKS.append((name, check))
        return check
    return add


# -- instance generators -------------------------------------------------


def random_connected(rng, n, p=0.4, weighted=False) -> Graph:
    """Erdos-Renyi draw conditioned on connectivity (resampled until hit)."""
    while True:
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    w = float(rng.uniform(0.2, 3.0)) if weighted else 1.0
                    edges.append((u, v, w))
        if len(edges) < n - 1:  # too few edges to connect n nodes
            continue
        g = Graph(n, edges)
        if is_connected(g):
            return g


def tree_from_pruefer(seq, n) -> Graph:
    """The labeled tree on n >= 2 nodes with Pruefer sequence `seq`."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        edges.append((leaf, x))
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def random_tree(rng, n) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return Graph(1, [])
    return tree_from_pruefer([int(rng.integers(0, n)) for _ in range(n - 2)], n)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# A sweep generator takes (rng, n, instance index).


def _unweighted(rng, n, t):
    return random_connected(rng, n)


def _alternating(rng, n, t):
    """Every second instance weighted."""
    return random_connected(rng, n, weighted=bool(t % 2))


def _dense(rng, n, t):
    return random_connected(rng, n, p=0.5)


def _tree(rng, n, t):
    return random_tree(rng, n)


# -- the sweep runner ----------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    """A seeded sweep over `count` instances with n drawn from [lo, hi].

    Decorating a per-instance function with a Sweep registers a check(cfg)
    of the same name; the function stays reachable as `check.residual` and
    the sweep as `check.sweep`. With `tol` set the function returns the
    instance's residual and the check reports the worst one; a tuple `tol`
    takes a tuple of residuals, each divided by its own tolerance, so the
    check's bound is 1 and its detail says the residuals are scaled, unless
    `--tolerance` overrides it: then the largest raw residual is compared
    with the override. Without `tol` the check is count-style: the function
    returns the instance's violation count, summed over instances, or with
    agg=min a quantity that must stay positive.
    `detail` is formatted with the worst residual or the aggregate, or called
    with the (instance, value) records.
    """

    name: str
    count: int
    lo: int
    hi: int
    detail: str | Callable
    tol: float | tuple | None = None
    gen: Callable = _unweighted
    agg: Callable = sum
    hard_hi: bool = False  # --n may lower hi but not raise it

    def instances(self, seed, max_n=None):
        """The sweep's instances for `seed`, with hi replaced by `max_n`."""
        hi = self.hi
        if max_n is not None:
            hi = min(max_n, hi) if self.hard_hi else max_n
        rng = np.random.default_rng(seed)
        for t in range(self.count):
            n = int(rng.integers(self.lo, hi + 1))
            yield self.gen(rng, n, t)

    def __call__(self, residual):
        @functools.wraps(residual)
        def check(cfg: VerifyConfig) -> CheckResult:
            return self.run(cfg, residual)

        check.sweep, check.residual = self, residual
        ALL_CHECKS.append((self.name, check))
        return check

    def run(self, cfg: VerifyConfig, residual) -> CheckResult:
        tol, scales = self.tol, None
        if tol is not None and cfg.tolerance is not None:
            tol = cfg.tolerance
        elif isinstance(tol, tuple):
            scales, tol = tol, 1.0
        limit = 0 if tol is None else tol
        records, failures = [], []
        for g in self.instances(cfg.seed, cfg.max_n):
            value = residual(g)
            if isinstance(value, tuple):
                value = max(r / s for r, s in zip(value, scales)) if scales else max(value)
            records.append((g, value))
            if (value <= 0) if self.agg is min else (value > limit):
                failures.append(g)
        values = [v for _, v in records]
        summary = max([0.0, *values]) if tol is not None else self.agg(values)
        detail = self.detail(records) if callable(self.detail) else self.detail.format(summary)
        if scales:
            detail = f"scaled to per-identity tolerances; {detail}"
        return CheckResult(self.name, not failures, None if tol is None else summary, tol,
                           detail=detail, failures=failures)


# -- individual checks ----------------------------------------------------


@Sweep("detour-average", 100, 4, 12, "100 random connected graphs", tol=1e-9)
def check_detour_average(g):
    """Average forced-detour overhead through k equals l+_kk."""
    b = build_spectral(g)
    ht = hitting_times_exact(g)
    return max(abs(average_detour_overhead(ht, k) - b.diag[k]) for k in range(g.n))


@Sweep("commute-resistance", 100, 4, 12, "100 random connected graphs", tol=1e-9)
def check_commute_resistance(g):
    """C_ij = Vol(G) * Omega_ij across hitting-time and pseudo-inverse routes."""
    ht = hitting_times_exact(g)
    return float(np.max(np.abs(ht.C - ht.vol * resistance_matrix(build_spectral(g)))))


def _index_tuples(n, r, distinct=True):
    """r index arrays over every ordered r-tuple of nodes 0..n-1, or over
    those whose entries are pairwise distinct."""
    idx = np.indices((n,) * r).reshape(r, -1)
    if distinct:
        idx = idx[:, np.all([a != b for a, b in combinations(idx, 2)], axis=0)]
    return idx


@Sweep("detour-equivalence", 20, 4, 8, "all triples on 20 graphs", tol=1e-9)
def check_detour_equivalence(g):
    """Hitting and commute detour forms agree; overhead is i<->j symmetric."""
    ht = hitting_times_exact(g)
    i, k, j = _index_tuples(g.n, 3, distinct=False)
    hit = detour_overhead(ht, i, k, j)
    com = (ht.C[i, k] + ht.C[k, j] - ht.C[i, j]) / 2.0
    rev = detour_overhead(ht, j, k, i)
    return float(max(np.max(np.abs(hit - com)), np.max(np.abs(hit - rev))))


@Sweep("electrical-detour", 20, 4, 10,
       "all ordered triples on 20 graphs (weighted included)", tol=1e-9, gen=_alternating)
def check_electrical_detour(g):
    """Electrical recurrence overhead equals the walk detour overhead."""
    i, k, j = _index_tuples(g.n, 3)
    gap = recurrence_overhead(build_spectral(g), i, k, j) - detour_overhead(
        hitting_times_exact(g), i, k, j)
    return float(np.max(np.abs(gap)))


@Sweep("circuit-identities", 20, 3, 10, "all triples on 20 graphs", tol=1e-9,
       gen=_alternating)
def check_circuit_identities(g):
    """Superposition V^{xz}_x = V^{xz}_y + V^{zx}_y and reciprocity
    V^{xy}_z = V^{zy}_x of sink-gauged voltages, for distinct x, y, z."""
    b = build_spectral(g)
    x, y, z = _index_tuples(g.n, 3)
    sup = np.abs(_gauged_voltage(b, x, x, z)
                 - (_gauged_voltage(b, y, x, z) + _gauged_voltage(b, y, z, x)))
    rec = np.abs(_gauged_voltage(b, z, x, y) - _gauged_voltage(b, x, z, y))
    return float(max(sup.max(), rec.max()))


@Sweep("current-law", 20, 3, 10, "all source/sink pairs on 20 graphs", tol=1e-9,
       gen=_alternating)
def check_current_law(g):
    """Kirchhoff current law: the net branch current of each source/sink
    profile is zero at every node but the two terminals."""
    b = build_spectral(g)
    i, j = _index_tuples(g.n, 2)
    v = _gauged_voltage(b, np.arange(g.n)[:, None], i, j)  # one column per pair
    u, w, wt = g.edge_arrays
    cur = wt[:, None] * (v[u] - v[w])
    net = np.zeros_like(v)
    # each node sums its branch currents in edge order, as a loop over edges would
    ends = np.column_stack([u, w]).ravel()  # u0 w0 u1 w1 ...
    np.add.at(net, ends, np.stack([-cur, cur], axis=1).reshape(-1, len(i)))
    cols = np.arange(len(i))
    net[i, cols] = net[j, cols] = 0.0
    return float(np.max(np.abs(net)))


@Sweep("recurrence-positive", 20, 3, 10, "min source visit count {:.6f} > 0", agg=min)
def check_recurrence_positive(g):
    """U^{ij}_i > 0 on finite connected graphs."""
    b = build_spectral(g)
    i, j = _index_tuples(g.n, 2)
    return float(np.min(g.degrees[i] * _gauged_voltage(b, i, i, j)))


@dataclass(frozen=True)
class EigenRoute:
    """Descending eigenpairs of a Laplacian (eigenvalues[-1] is the zero
    mode), L+ summed over the nonzero modes, and the embedding whose column
    i is node i's position vector (embedding.T @ embedding == lplus)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    lplus: np.ndarray
    embedding: np.ndarray


def eigen_route(lap: np.ndarray) -> EigenRoute:
    """The eigen route to L+, independent of `build_spectral`'s Cholesky factor."""
    evals_asc, vecs_asc = np.linalg.eigh(lap)
    evals, vecs = evals_asc[::-1].copy(), vecs_asc[:, ::-1].copy()
    inv = np.zeros(len(evals))
    inv[:-1] = 1.0 / evals[:-1]
    return EigenRoute(evals, vecs, (vecs * inv) @ vecs.T, np.sqrt(inv)[:, None] * vecs.T)


@Sweep("spectral-consistency", 100, 2, 12, "100 graphs",
       tol=(1e-8, 1e-9, 1e-10, 1e-9),
       gen=lambda rng, n, t: random_connected(rng, n, weighted=t % 3 == 0))
def check_spectral_consistency(g):
    """Both L+ routes, Moore-Penrose identities, centering, embedding.

    Returns (route gap, Moore-Penrose gap, centering gap, embedding gap);
    the Moore-Penrose gaps are relative to max(1, max|entry|). The last
    also takes the Kirchhoff gap |Tr(L+) - sum 1/lambda|.
    """
    b = build_spectral(g)
    lap, lp = b.laplacian, b.lplus
    eig = eigen_route(lap)
    scale_l = max(1.0, float(np.max(np.abs(lap))))
    scale_p = max(1.0, float(np.max(np.abs(lp))))
    return (
        float(np.max(np.abs(lp - eig.lplus))),
        max(float(np.max(np.abs(lap @ lp @ lap - lap))) / scale_l,
            float(np.max(np.abs(lp @ lap @ lp - lp))) / scale_p),
        max(float(np.max(np.abs(lp.sum(axis=0)))),
            float(np.max(np.abs(lp.sum(axis=1))))),
        max(float(np.max(np.abs(eig.embedding.T @ eig.embedding - lp))),
            float(np.max(np.abs(np.sum(eig.embedding**2, axis=0) - np.diag(lp)))),
            abs(float(np.trace(lp)) - float(np.sum(1.0 / eig.eigenvalues[:-1])))),
    )


@Sweep("resistance-metric", 30, 3, 10, "triangle violations on 30 graphs", tol=1e-9)
def check_resistance_metric(g):
    """Effective resistance satisfies the triangle inequality."""
    omega = resistance_matrix(build_spectral(g))
    return float(np.max(omega[:, :, None] - omega[:, None, :] - omega[None, :, :]))


@Sweep("spd-metric", 30, 2, 10, "30 graphs", tol=1e-9, gen=_alternating)
def check_spd_metric(g):
    """Geodesic distance is a metric (symmetry, zero diagonal, triangle)."""
    spd = shortest_path_distances(g)
    return max(
        float(np.max(np.abs(spd - spd.T))),
        float(np.max(np.abs(np.diag(spd)))),
        float(np.max(spd[:, :, None] - spd[:, None, :] - spd[None, :, :])),
    )


def _forest_sample(records):
    """Detail line with the census of the first largest instance."""
    g, gap = max(records, key=lambda r: r[0].n)
    c = forest_census(g)
    return (f"500 random connected unweighted graphs; sample census "
            f"(n={g.n}, m={g.m}): eps_n1={c.eps_n1}, eps_n2={c.eps_n2}, "
            f"rooted={list(c.eps_rooted)}, residual={gap:.3e}")


# The census enumerates bi-partitions, so n stays at 7 or below.
@Sweep("forest-diagonal", 500, 3, 7, _forest_sample, tol=1e-9, gen=_dense, hard_hi=True)
def check_forest_diagonal(g):
    """Forest-census diagonal equals the spectral diagonal."""
    forest = np.array([float(x) for x in lplus_diag_fractions(g)])
    return float(np.max(np.abs(forest - build_spectral(g).diag)))


@Sweep("census-disjointness", 100, 3, 7, "{} violations in 100 graphs (exact integers)",
       gen=_dense, hard_hi=True)
def check_census_disjointness(g):
    """Each two-tree forest is counted once per root node, and it has two
    roots: sum_i rooted_i = 2 * eps_n2, exactly."""
    c = forest_census(g)
    return int(sum(c.eps_rooted) != 2 * c.eps_n2)


@Sweep("tree-partition", 100, 3, 12, "100 random trees", tol=1e-9, gen=_tree)
def check_tree_partition(t):
    """Tree partition formula matches the spectral diagonal; the argmax-C*
    set is the tree center set (a miss adds 1.0)."""
    b = build_spectral(t)
    gap = float(np.max(np.abs(tree_centrality(t) - b.diag)))
    cstar = topological_centrality(b)
    if tuple(np.flatnonzero(cstar >= cstar.max() * (1.0 - CENTER_RTOL))) != tree_center(t):
        gap += 1.0
    return gap


@Sweep("tree-spd-resistance", 50, 2, 12, "50 random trees", tol=1e-9, gen=_tree)
def check_tree_spd_resistance(t):
    """On trees geodesic distance equals effective resistance."""
    omega = resistance_matrix(build_spectral(t))
    return float(np.max(np.abs(shortest_path_distances(t) - omega)))


@Sweep("commute-rowsum", 50, 3, 12, "50 graphs", tol=1e-9)
def check_commute_rowsum(g):
    """Commute row sums sum_j C_kj = Vol(G) (n l+_kk + Tr(L+)), and the
    Kirchhoff double sum K = sum_kj C_kj / (2 n Vol(G)), with C from the
    exact hitting times and the right sides from the pseudo-inverse."""
    b = build_spectral(g)
    ht = hitting_times_exact(g)
    trace = b.diag.sum()
    res = 0.0
    for k in range(g.n):
        row = float(ht.C[k, :].sum())
        res = max(res, abs(row - float(ht.vol * (g.n * b.diag[k] + trace))))
    kirchhoff = float(ht.C.sum() / (2.0 * g.n * ht.vol))
    return max(res, abs(kirchhoff - float(trace)))


@Sweep("cstar-commute-rank", 50, 3, 12, "{} mismatches in 50 graphs")
def check_cstar_commute_rank(g):
    """argmax C* coincides with argmin of the commute row sums."""
    cstar = topological_centrality(build_spectral(g))
    rows = hitting_times_exact(g).C.sum(axis=1)
    tol_c = 1e-9 * max(1.0, float(rows.max()))
    amax = set(np.flatnonzero(cstar >= cstar.max() - 1e-9 * cstar.max()))
    amin = set(np.flatnonzero(rows <= rows.min() + tol_c))
    return int(amax != amin)


@Sweep("sc-series", 30, 2, 10, "series oracle summed to convergence on 30 graphs", tol=1e-9)
def check_sc_series(g):
    """Spectral subgraph centrality equals the factorial series, summed for
    30 to 1000 terms, up to the first term whose diagonal is at most eps;
    the terms are nonnegative, so the rest of the tail is smaller."""
    a = g.adjacency
    term = np.eye(g.n)
    series = np.zeros(g.n)
    for k in range(1, 1001):
        term = term @ a / k
        series += np.diag(term)
        if k >= 30 and np.diag(term).max() <= EPS:
            break
    series += 1.0  # k = 0 term
    return float(np.max(np.abs(subgraph_centrality(g) - series)))


def randomwalk_betweenness_by_solves(g: Graph) -> np.ndarray:
    """Independent route: one reduced linear solve per pair, no L+.

    Grounds node 0 and solves the reduced Laplacian for each injection
    vector; used to validate the pseudo-inverse route.
    """
    n = g.n
    if n < 3:
        return np.zeros(n)
    red = g.laplacian[1:, 1:]
    edges = g.edges
    rb = np.zeros(n)
    for s in range(n):
        for t in range(s + 1, n):
            rhs = np.zeros(n)
            rhs[s] = 1.0
            rhs[t] = -1.0
            v = np.zeros(n)
            v[1:] = np.linalg.solve(red, rhs[1:])
            through = np.zeros(n)
            for u, w, wt in edges:
                cur = abs(wt * (v[u] - v[w]))
                through[u] += cur
                through[w] += cur
            through /= 2.0
            through[s] = through[t] = 0.0
            rb += through
    return rb / ((n - 1) * (n - 2) / 2.0)


@Sweep("rb-solves", 20, 3, 8, "20 graphs", tol=1e-9)
def check_rb_solves(g):
    """Current-flow betweenness: pseudo-inverse route vs per-pair solves."""
    return float(np.max(np.abs(randomwalk_betweenness(build_spectral(g))
                                - randomwalk_betweenness_by_solves(g))))


@register("transitive-constancy")
def check_transitive_constancy(cfg: VerifyConfig) -> CheckResult:
    """Vertex-transitive graphs score every per-node index constant."""
    tol = 1e-9 if cfg.tolerance is None else cfg.tolerance
    cases = [complete_graph(4), complete_graph(6)]
    cases += [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (4, 5, 8)]  # cycles
    spreads = []
    for g in cases:
        rep = centrality_report(g)
        spreads.append(max(float(np.ptp(getattr(rep, name))) for name in rep.PER_NODE))
    failures = [g for g, s in zip(cases, spreads) if s > tol]
    worst = max([0.0, *spreads])
    return CheckResult("transitive-constancy", not failures, worst, tol,
                       detail="complete graphs and cycles", failures=failures)


@Sweep("max-normalization", 20, 3, 10, "{} violations in 20 graphs")
def check_max_normalization(g):
    """Max-normalizing preserves argmax sets and tops out at 1."""
    rep = centrality_report(g)
    bad = 0
    for name in rep.PER_NODE:
        vec = getattr(rep, name)
        norm = max_normalized(vec)
        if vec.max() > 0:
            ok = (abs(norm.max() - 1.0) < 1e-12
                  and set(np.flatnonzero(vec == vec.max()))
                  == set(np.flatnonzero(norm == norm.max())))
        else:
            ok = not norm.any()
        bad += not ok
    return bad


@register("extremal-kirchhoff")
def check_extremal_kirchhoff(cfg: VerifyConfig) -> CheckResult:
    """The star minimizes K among trees (exhaustive by Pruefer sequence up
    to n=8); K_5 minimizes K among the 728 connected 5-node graphs."""
    problems = []
    for n in range(3, 9):
        min_sum, min_count, star_sum, star_count = _kernels.tree_scan(n)
        if (star_sum != (n - 1) ** 2 or min_sum != star_sum
                or min_count != star_count or star_count != n):
            problems.append(f"trees n={n}")
    # all connected graphs on 5 nodes: 2^10 edge masks, batch eigensolve
    n = 5
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    masks = np.arange(1 << len(pairs))
    laps = np.zeros((len(masks), n, n))
    for b, (u, v) in enumerate(pairs):
        has = (masks >> b) & 1
        laps[:, u, v] -= has
        laps[:, v, u] -= has
        laps[:, u, u] += has
        laps[:, v, v] += has
    evals = np.linalg.eigvalsh(laps)
    connected = evals[:, 1] > 1e-9
    kvals = np.where(connected, np.sum(1.0 / np.where(evals[:, 1:] > 1e-12,
                                                      evals[:, 1:], np.inf), axis=1),
                     np.inf)
    n_connected = int(connected.sum())
    full_mask = (1 << len(pairs)) - 1
    if n_connected != 728:
        problems.append(f"expected 728 connected graphs, got {n_connected}")
    if int(np.argmin(kvals)) != full_mask:
        problems.append("K_5 is not the Kirchhoff minimizer")
    if np.sum(np.isclose(kvals, kvals.min(), atol=1e-12)) != 1:
        problems.append("Kirchhoff minimizer on 5 nodes is not unique")
    ok = not problems
    return CheckResult("extremal-kirchhoff", ok, None, None,
                       detail="; ".join(problems) if problems
                       else "star minimal for trees n<=8; K_5 minimal among 728")


def hitting_estimates(g, pairs, runs, seed):
    """(i, j, Monte Carlo estimate, exact H_ij) for each (i, j) pair."""
    exact = hitting_times_exact(g).H
    return [(i, j, estimate_hitting_mc(g, i, j, runs, seed), exact[i, j]) for i, j in pairs]


def chunked_steps(g, i, j, seed, sizes):
    """Per-run step counts simulated as consecutive chunks of `sizes` runs."""
    starts = np.cumsum([0, *sizes[:-1]])
    return np.concatenate([simulate_hitting_steps(g, i, j, size, seed, run_start=int(start))
                           for size, start in zip(sizes, starts)])


@register("mc-hitting")
def check_mc_hitting(cfg: VerifyConfig) -> CheckResult:
    """Monte Carlo hitting estimates agree with the exact table to 4 SE,
    and the per-run sequence is chunking-invariant."""
    problems = []
    for g, pairs in ((path_graph(3), [(0, 1), (0, 2), (1, 0)]),
                     (complete_graph(4), [(0, 1), (2, 3)])):
        for i, j, est, exact in hitting_estimates(g, pairs, MC_RUNS, cfg.seed):
            se = max(est.std_error, 1e-12)
            if abs(est.mean - exact) > 4 * se:
                problems.append(f"{g!r} ({i},{j}): {est.mean:.4f} vs {exact:.4f}")
        if not np.array_equal(simulate_hitting_steps(g, 0, 1, 512, cfg.seed),
                              chunked_steps(g, 0, 1, cfg.seed, (200, 312))):
            problems.append(f"{g!r}: run sequence depends on chunking")
    return CheckResult("mc-hitting", not problems, None, None,
                       detail="; ".join(problems) if problems
                       else f"{MC_RUNS} runs within 4 SE; chunk-invariant")


@register("mc-visits")
def check_mc_visits(cfg: VerifyConfig) -> CheckResult:
    """Monte Carlo visit counts match d(k) * v(k) from the voltage gauge."""
    problems = []
    for g, pairs in ((path_graph(3), [(0, 2), (2, 0)]),
                     (complete_graph(4), [(0, 3)])):
        b = build_spectral(g)
        for i, j in pairs:
            prof = voltages(b, i, j)
            est = estimate_visits_mc(g, i, j, MC_RUNS, cfg.seed)
            for k in range(g.n):
                if k == j:
                    continue
                se = max(float(est.std_errors[k]), 1e-12)
                if abs(float(est.means[k]) - float(prof.visits[k])) > 4 * se:
                    problems.append(f"{g!r} U^{i}{j}_{k}")
    return CheckResult("mc-visits", not problems, None, None,
                       detail="; ".join(problems) if problems
                       else f"visit counts within 4 SE at {MC_RUNS} runs")


@register("generator")
def check_generator(cfg: VerifyConfig) -> CheckResult:
    """Preset generator determinism and the preset's stated constraints."""
    problems = []
    g = abilene_topology()
    if format_edge_list(g) != format_edge_list(abilene_topology()):
        problems.append("generator is not deterministic")
    check_abilene_constraints(g)
    return CheckResult("generator", not problems, None, None,
                       detail="; ".join(problems) if problems
                       else "deterministic; constraints hold")


TABLE1_EXPECT = {
    "pert1": {"kstar": DOWN, "randic": UP, "gc_mean": DOWN,
              "sc_mean": UP, "gb_mean": UP, "rb_mean": UP},
    "pert2": {"kstar": UP, "randic": FLAT, "gc_mean": UP,
              "sc_mean": DOWN, "gb_mean": DOWN, "rb_mean": UP},
}


@register("sensitivity-directions")
def check_sensitivity_directions(cfg: VerifyConfig) -> CheckResult:
    """Direction arrows of the two rewiring presets on the bundled preset
    topology, exact Randic invariance for the second, and each K* delta
    consistent with its K delta."""
    g0 = abilene_topology()
    g1 = pert_preset(g0, "pert1")
    g2 = pert_preset(g1, "pert2")
    problems = []
    rep1 = sensitivity_report(g0, g1)
    rep2 = sensitivity_report(g1, g2)
    for which, rep in (("pert1", rep1), ("pert2", rep2)):
        for key, arrow in TABLE1_EXPECT[which].items():
            if rep.directions[key] != arrow:
                problems.append(f"{which}:{key} expected {arrow}, got {rep.directions[key]}")
    if rep2.deltas["randic"] != 0.0:
        problems.append("pert2 Randic delta must be exactly 0")
    self_rep = sensitivity_report(g0, g0)
    if any(v != FLAT for v in self_rep.directions.values()):
        problems.append("self-comparison must be all flat")
    for which, rep in (("pert1", rep1), ("pert2", rep2), ("self", self_rep)):
        # K* = 1/K, so dK* = -dK * K_before / K_after
        d = rep.deltas
        expected = -d["kirchhoff"] * rep.before["kirchhoff"] / rep.after["kirchhoff"]
        if abs(d["kstar"] - expected) > 1e-9 * max(1.0, abs(d["kstar"])):
            problems.append(f"{which}: K* delta inconsistent with K delta")
    detail = ("; ".join(problems) if problems else
              f"dK*={rep1.deltas['kstar']:+.4f}/{rep2.deltas['kstar']:+.4f}, "
              f"dR1={rep1.deltas['randic']:+.4f}/{rep2.deltas['randic']:+.4f}")
    return CheckResult("sensitivity-directions", not problems, None, None, detail=detail)


def run_checks(cfg: VerifyConfig, only: str | None = None):
    """Run (a filtered subset of) all checks; returns the result list.

    A GraphError raised inside a check, such as a violated preset
    constraint, becomes that check's FAIL result; the other checks still
    run. Raises ValueError before running anything if `cfg.seed` lies
    outside [0, 2**64), if `cfg.tolerance` is not a finite number >= 0, or
    if `cfg.max_n` lies below a selected sweep's smallest instance size.
    """
    if not 0 <= cfg.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {cfg.seed}")
    if cfg.tolerance is not None and not 0 <= cfg.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {cfg.tolerance}")
    selected = [(name, fn) for name, fn in ALL_CHECKS if not only or only in name]
    for _, fn in selected:
        sweep = getattr(fn, "sweep", None)
        if sweep and cfg.max_n is not None and cfg.max_n < sweep.lo:
            raise ValueError(f"--n {cfg.max_n} is below {sweep.name}'s "
                             f"smallest instance size {sweep.lo}")
    results = []
    for name, fn in selected:
        try:
            results.append(fn(cfg))
        except GraphError as exc:
            results.append(CheckResult(name, False, None, None, detail=str(exc)))
    return results
