"""Self-contained verification suites for every identity the toolkit rests
on. Every check registers in ALL_CHECKS, which the CLI `verify` command and
the acceptance tests both run.

Every check is a `Check`: a pool of instances (a seeded `Sweep`, or fixed
cases) and a function of one instance that returns a `Gap`, a tuple of Gaps,
or a count. A Gap passes while its residual stays within
`bound(n, scale, kappa)` = c n eps kappa scale, which grows with the
instance as float64 rounding does, and fails when it exceeds the bound or
is NaN. Failing instances go back as edge lists for replay. Production
modules compute each side of an identity by its own route; the arithmetic
that compares the sides, and the routes kept only for checking, live here.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .electrical import _gauged_voltage, recurrence_overhead, voltages
from .forests import (CENTER_RTOL, forest_census, lplus_diag_fractions, tree_center,
                      tree_centrality)
from .graph import (Graph, GraphError, _adjacency, _shifted_laplacian, format_edge_list,
                    is_connected, shortest_path_distances)
from .spectral import (EPS, SpectralBundle, build_spectral, resistance_matrix,
                       topological_centrality)
from .topology import (DOWN, FLAT, UP, abilene_topology, check_abilene_constraints,
                       graph_descriptors, pert_preset, sensitivity_report)
from .walks import (HittingTable, average_detour_overhead, detour_overhead,
                    estimate_hitting_mc, estimate_visits_mc, hitting_times_exact,
                    simulate_hitting_steps)
from .zoo import (centrality_report, max_normalized, randomwalk_betweenness,
                  subgraph_centrality)


@dataclass
class CheckResult:
    """One check's verdict and its printed line. A check whose instances
    return Gaps reports the tightest Gap, the one with the least headroom;
    it passed only if every Gap stayed within its bound."""

    name: str
    passed: bool
    detail: str = ""
    residual: float | None = None  # the tightest Gap's; None for a count check
    bound: float | None = None     # its bound
    headroom: float | None = None  # bound / residual
    failures: list = field(default_factory=list)  # failing instances, as Graphs

    def line(self) -> str:
        body = self.detail
        if self.residual is not None:
            body = (f"residual {self.residual:.3e}, bound {self.bound:.3e}, "
                    f"headroom {self.headroom:.3g}; {body}")
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {body}"


@dataclass
class VerifyConfig:
    seed: int = 42
    max_n: int | None = None  # overrides instance-size upper bounds


MC_RUNS = 20000  # Monte Carlo runs per estimate

# c in bound(). On seeds 1-20 the largest gap, spectral-consistency's
# centering gap, reaches 1.26 n eps kappa scale, so c = 13 keeps headroom
# 10 there, while every bound on those pools stays within 1e-9 (the
# largest, electrical-detour's, is 9.4e-10).
SLACK = 13.0

ALL_CHECKS = []  # (name, check(cfg) -> CheckResult), in registration order


class Gap(NamedTuple):
    """|left - right| of one identity on one instance, the largest entry of
    the two sides, and the condition bound of the route."""

    residual: float
    scale: float
    kappa: float = 1.0


def bound(n, scale, kappa=1.0):
    """c n eps kappa scale: how far float64 rounding may move an identity on
    n nodes whose sides reach `scale`, through a route of condition kappa."""
    return SLACK * n * EPS * kappa * scale


def condition(b: SpectralBundle) -> float:
    """The bundle's condition bound kappa = rho / (n eps)."""
    return b.rho / (b.n * EPS)


# -- instance generators -------------------------------------------------


def random_connected(rng, n, p=0.4, weighted=False) -> Graph:
    """Erdos-Renyi draw conditioned on connectivity (resampled until hit)."""
    while True:
        edges = [(u, v, float(rng.uniform(0.2, 3.0)) if weighted else 1.0)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if len(edges) < n - 1:  # too few edges to connect n nodes
            continue
        g = Graph(n, edges)
        if is_connected(g):
            return g


def tree_from_pruefer(seq, n) -> Graph:
    """The labeled tree on n >= 2 nodes with Pruefer sequence `seq`: each
    entry in turn joins the smallest remaining leaf."""
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    return Graph(n, [*edges, (leaves[0], n - 1)])


def random_tree(rng, n) -> Graph:
    """Uniform labeled tree from a random Pruefer sequence."""
    if n == 1:
        return Graph(1, [])
    return tree_from_pruefer([int(rng.integers(0, n)) for _ in range(n - 2)], n)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class Routes(NamedTuple):
    """A graph with its exact walk table and its L+ bundle."""

    graph: Graph
    ht: HittingTable
    b: SpectralBundle


def _unweighted(rng, n, t):
    """A sweep generator: (rng, n, instance index) -> instance."""
    return random_connected(rng, n)


def _routes(rng, n, t):
    g = random_connected(rng, n)
    return Routes(g, hitting_times_exact(g), build_spectral(g))


def _alternating(rng, n, t):  # every second instance weighted
    return random_connected(rng, n, weighted=bool(t % 2))


def _dense(rng, n, t):
    return random_connected(rng, n, p=0.5)


def _tree(rng, n, t):
    return random_tree(rng, n)


@dataclass(frozen=True)
class Sweep:
    """A seeded pool of `count` instances with n drawn from [lo, hi]."""

    count: int
    lo: int
    hi: int
    gen: Callable = _unweighted
    hard_hi: bool = False  # --n may lower hi but not raise it

    def instances(self, seed, max_n=None):
        """The pool's instances for `seed`, with hi replaced by `max_n`."""
        hi = self.hi
        if max_n is not None:
            hi = min(max_n, hi) if self.hard_hi else max_n
        rng = np.random.default_rng(seed)
        for t in range(self.count):
            n = int(rng.integers(self.lo, hi + 1))
            yield self.gen(rng, n, t)


# Each shared by two adjacent checks, and drawn once for both in a run.
ROUTES_100 = Sweep(100, 4, 12, gen=_routes)
ROUTES_50 = Sweep(50, 3, 12, gen=_routes)


def _bounded(records):
    """The instances with a Gap past its bound (or NaN), and the line's
    numbers: the tightest Gap's residual, its bound, and the headroom
    bound / residual."""
    failed, top = [], None  # top: (load, residual, limit)
    for inst, value in records:
        n, ok = getattr(inst, "graph", inst).n, True
        for res, scale, kappa in (value,) if isinstance(value, Gap) else value:
            limit = bound(n, scale, kappa)
            ok &= res <= limit  # a NaN residual fails
            load = res / limit if res else 0.0
            if top is None or not load <= top[0]:
                top = (load, res, limit)
        if not ok:
            failed.append(inst)
    load, res, limit = top
    return failed, {"residual": res, "bound": limit, "headroom": 1 / load if load else math.inf}


@dataclass(frozen=True)
class Check:
    """Decorating a per-instance function with a Check registers a
    check(cfg) of the same name; the function stays reachable as
    `check.residual` and `pool` (a Sweep, or a function of the seed listing
    fixed cases) as `check.sweep`. Without `agg` the function returns a Gap
    or a tuple of Gaps; with agg=sum a violation count, and with agg=np.min a
    quantity that must stay positive. `detail` is formatted with the
    aggregate, or called with the (instance, value) records. A NaN value
    fails under every agg, and np.min carries it into the line."""

    name: str
    pool: Sweep | Callable
    detail: str | Callable = ""
    agg: Callable | None = None

    def __call__(self, residual):
        @functools.wraps(residual)
        def check(cfg: VerifyConfig, drawn: dict | None = None) -> CheckResult:
            return self.run(cfg, residual, {} if drawn is None else drawn)

        check.sweep, check.residual = self.pool, residual
        ALL_CHECKS.append((self.name, check))
        return check

    def run(self, cfg: VerifyConfig, residual, drawn: dict) -> CheckResult:
        # drawn holds the last pool drawn in a run, for the next check on it
        pool, key = self.pool, (self.pool, cfg.seed, cfg.max_n)
        if key not in drawn:
            drawn.clear()
            drawn[key] = list(pool.instances(cfg.seed, cfg.max_n) if isinstance(pool, Sweep)
                              else pool(cfg.seed))
        records = [(inst, residual(inst)) for inst in drawn[key]]
        numbers, summary = {}, None
        if self.agg is None:
            failed, numbers = _bounded(records)
        else:
            summary = self.agg([v for _, v in records])
            failed = [inst for inst, v in records if (not v > 0 if self.agg is np.min else v != 0)]
        detail = self.detail(records) if callable(self.detail) else self.detail.format(summary)
        graphs = [g for g in (getattr(i, "graph", i) for i in failed) if isinstance(g, Graph)]
        return CheckResult(self.name, not failed, detail, failures=graphs, **numbers)


# -- individual checks ----------------------------------------------------


@Check("detour-average", ROUTES_100, "100 random connected graphs")
def check_detour_average(r):
    """Average forced-detour overhead through k equals l+_kk."""
    b = r.b
    res = np.max([abs(average_detour_overhead(r.ht, k) - b.diag[k]) for k in range(b.n)])
    return Gap(float(res), float(b.diag.max()), condition(b))


@Check("commute-resistance", ROUTES_100, "100 random connected graphs")
def check_commute_resistance(r):
    """C_ij = Vol(G) * Omega_ij across hitting-time and pseudo-inverse routes."""
    c = r.ht.C
    return Gap(float(np.max(np.abs(c - r.ht.vol * resistance_matrix(r.b)))), float(c.max()),
               condition(r.b))


def _index_tuples(n, r, distinct=True):
    """r index arrays over every ordered r-tuple of nodes 0..n-1, or over
    those whose entries are pairwise distinct."""
    idx = np.indices((n,) * r).reshape(r, -1)
    if distinct:
        idx = idx[:, np.all([a != b for a, b in combinations(idx, 2)], axis=0)]
    return idx


@Check("detour-equivalence", Sweep(20, 4, 8), "all triples on 20 graphs")
def check_detour_equivalence(g):
    """Hitting and commute detour forms agree; overhead is i<->j symmetric."""
    ht = hitting_times_exact(g)
    i, k, j = _index_tuples(g.n, 3, distinct=False)
    hit = detour_overhead(ht, i, k, j)
    com = (ht.C[i, k] + ht.C[k, j] - ht.C[i, j]) / 2.0
    rev = detour_overhead(ht, j, k, i)
    return Gap(float(np.max([np.max(np.abs(hit - com)), np.max(np.abs(hit - rev))])),
               float(ht.C.max()))


@Check("electrical-detour", Sweep(20, 4, 10, gen=_alternating),
       "all ordered triples on 20 graphs (weighted included)")
def check_electrical_detour(g):
    """Electrical recurrence overhead equals the walk detour overhead. The
    electrical side sums Vol(G) times L+ entries, so it rounds on the scale
    Vol(G) max|L+|."""
    i, k, j = _index_tuples(g.n, 3)
    b = build_spectral(g)
    gap = recurrence_overhead(b, i, k, j) - detour_overhead(hitting_times_exact(g), i, k, j)
    return Gap(float(np.max(np.abs(gap))), g.volume * float(np.max(np.abs(b.lplus))),
               condition(b))


@Check("circuit-identities", Sweep(20, 3, 10, gen=_alternating), "all triples on 20 graphs")
def check_circuit_identities(g):
    """Superposition V^{xz}_x = V^{xz}_y + V^{zx}_y and reciprocity
    V^{xy}_z = V^{zy}_x of sink-gauged voltages, for distinct x, y, z;
    V^{xz}_x is the largest voltage of its profile."""
    b = build_spectral(g)
    x, y, z = _index_tuples(g.n, 3)
    top = _gauged_voltage(b, x, x, z)
    sup = np.abs(top - (_gauged_voltage(b, y, x, z) + _gauged_voltage(b, y, z, x)))
    rec = np.abs(_gauged_voltage(b, z, x, y) - _gauged_voltage(b, x, z, y))
    return Gap(float(np.max([sup.max(), rec.max()])), float(top.max()), condition(b))


@Check("current-law", Sweep(20, 3, 10, gen=_alternating), "all source/sink pairs on 20 graphs")
def check_current_law(g):
    """Kirchhoff current law: the net branch current of each source/sink
    profile is zero at every node but the two terminals. A branch current
    rounds on the scale of its weight times the voltages."""
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
    return Gap(float(np.max(np.abs(net))), float(wt.max() * np.abs(v).max()), condition(b))


@Check("recurrence-positive", Sweep(20, 3, 10), "min source visit count {:.6f} > 0", agg=np.min)
def check_recurrence_positive(g):
    """U^{ij}_i > 0 on finite connected graphs."""
    b = build_spectral(g)
    i, j = _index_tuples(g.n, 2)
    return float(np.min(g.degrees[i] * _gauged_voltage(b, i, i, j)))


class EigenRoute(NamedTuple):
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


@Check("spectral-consistency",
       Sweep(100, 2, 12, gen=lambda rng, n, t: random_connected(rng, n, weighted=t % 3 == 0)),
       "100 graphs")
def check_spectral_consistency(g):
    """Both L+ routes; the Moore-Penrose identities L L+ L = L and
    L+ L L+ = L+; centering; the embedding's Gram matrix and squared norms;
    and the Kirchhoff gap |Tr(L+) - sum 1/lambda|, in that order."""
    b = build_spectral(g)
    lap = _shifted_laplacian(g)
    lp, eig = b.lplus, eigen_route(lap)
    emb, trace = eig.embedding, float(np.trace(lp))
    scale_l, scale_p = float(np.max(np.abs(lap))), float(np.max(np.abs(lp)))

    def gap(left, right, scale):
        return Gap(float(np.max(np.abs(left - right))), scale, condition(b))

    return (gap(lp, eig.lplus, scale_p), gap(lap @ lp @ lap, lap, scale_l),
            gap(lp @ lap @ lp, lp, scale_p),
            gap(np.concatenate([lp.sum(axis=0), lp.sum(axis=1)]), 0.0, scale_p),
            gap(emb.T @ emb, lp, scale_p), gap(np.sum(emb**2, axis=0), np.diag(lp), scale_p),
            gap(trace, float(np.sum(1.0 / eig.eigenvalues[:-1])), trace))


@Check("resistance-metric", Sweep(30, 3, 10), "triangle violations on 30 graphs")
def check_resistance_metric(g):
    """Effective resistance satisfies the triangle inequality."""
    b = build_spectral(g)
    omega = resistance_matrix(b)
    return Gap(float(np.max(omega[:, :, None] - omega[:, None, :] - omega[None, :, :])),
               float(omega.max()), condition(b))


@Check("spd-metric", Sweep(30, 2, 10, gen=_alternating), "30 graphs")
def check_spd_metric(g):
    """Geodesic distance is a metric (symmetry, zero diagonal, triangle)."""
    spd = shortest_path_distances(g)
    return Gap(float(np.max([np.max(np.abs(spd - spd.T)), np.max(np.abs(np.diag(spd))),
                             np.max(spd[:, :, None] - spd[:, None, :] - spd[None, :, :])])),
               float(spd.max()))


def _forest_sample(records):
    """Detail line with the census of the first largest instance."""
    g, gap = max(records, key=lambda r: r[0].n)
    c = forest_census(g)
    return (f"500 random connected unweighted graphs; sample census "
            f"(n={g.n}, m={g.m}): eps_n1={c.eps_n1}, eps_n2={c.eps_n2}, "
            f"rooted={list(c.eps_rooted)}, residual={gap.residual:.3e}")


# The census enumerates bi-partitions, so n stays at 7 or below.
@Check("forest-diagonal", Sweep(500, 3, 7, gen=_dense, hard_hi=True), _forest_sample)
def check_forest_diagonal(g):
    """Forest-census diagonal equals the spectral diagonal."""
    b = build_spectral(g)
    forest = np.array([float(x) for x in lplus_diag_fractions(g)])
    return Gap(float(np.max(np.abs(forest - b.diag))), float(b.diag.max()), condition(b))


@Check("census-disjointness", Sweep(100, 3, 7, gen=_dense, hard_hi=True),
       "{} violations in 100 graphs (exact integers)", agg=sum)
def check_census_disjointness(g):
    """Each two-tree forest is counted once per root node, and it has two
    roots: sum_i rooted_i = 2 * eps_n2, exactly."""
    c = forest_census(g)
    return int(sum(c.eps_rooted) != 2 * c.eps_n2)


@Check("tree-partition", Sweep(100, 3, 12, gen=_tree), "100 random trees")
def check_tree_partition(t):
    """Tree partition formula matches the spectral diagonal; the argmax-C*
    set is the tree center set (a miss adds 1.0)."""
    b = build_spectral(t)
    gap = float(np.max(np.abs(tree_centrality(t) - b.diag)))
    cstar = topological_centrality(b)
    gap += tuple(np.flatnonzero(cstar >= cstar.max() * (1.0 - CENTER_RTOL))) != tree_center(t)
    return Gap(gap, float(b.diag.max()), condition(b))


@Check("tree-spd-resistance", Sweep(50, 2, 12, gen=_tree), "50 random trees")
def check_tree_spd_resistance(t):
    """On trees geodesic distance equals effective resistance."""
    b = build_spectral(t)
    spd = shortest_path_distances(t)
    return Gap(float(np.max(np.abs(spd - resistance_matrix(b)))), float(spd.max()),
               condition(b))


@Check("commute-rowsum", ROUTES_50, "50 graphs")
def check_commute_rowsum(r):
    """Commute row sums sum_j C_kj = Vol(G) (n l+_kk + Tr(L+)), and the
    Kirchhoff double sum K = sum_kj C_kj / (2 n Vol(G)), with C from the
    exact hitting times and the right sides from the pseudo-inverse."""
    ht, b, kappa = r.ht, r.b, condition(r.b)
    trace = float(b.diag.sum())
    rows = ht.C.sum(axis=1)
    kirchhoff = float(ht.C.sum() / (2.0 * b.n * ht.vol))
    return (Gap(float(np.max(np.abs(rows - ht.vol * (b.n * b.diag + trace)))),
                float(ht.C.max()), kappa),
            Gap(abs(kirchhoff - trace), trace, kappa))


@Check("cstar-commute-rank", ROUTES_50, "{} mismatches in 50 graphs", agg=sum)
def check_cstar_commute_rank(r):
    """argmax C* coincides with argmin of the commute row sums, each taken
    to within CENTER_RTOL."""
    cstar = topological_centrality(r.b)
    rows = r.ht.C.sum(axis=1)
    amax = set(np.flatnonzero(cstar >= cstar.max() * (1.0 - CENTER_RTOL)))
    return int(amax != set(np.flatnonzero(rows <= rows.min() * (1.0 + CENTER_RTOL))))


@Check("sc-series", Sweep(30, 2, 10), "series oracle summed to convergence on 30 graphs")
def check_sc_series(g):
    """Spectral subgraph centrality equals the factorial series, summed for
    30 to 1000 terms, up to the first term whose diagonal is at most eps;
    the terms are nonnegative, so the rest of the tail is smaller."""
    a = _adjacency(g)
    term = np.eye(g.n)
    series = np.zeros(g.n)
    for k in range(1, 1001):
        term = term @ a / k
        series += np.diag(term)
        if k >= 30 and np.diag(term).max() <= EPS:
            break
    series += 1.0  # k = 0 term
    # e^x rounds by eps and has relative condition x, and lambda_max(A) <= d_max
    return Gap(float(np.max(np.abs(subgraph_centrality(g) - series))), float(series.max()),
               1.0 + float(g.degrees.max()))


def randomwalk_betweenness_by_solves(g: Graph) -> np.ndarray:
    """Independent route: one reduced linear solve per pair, no L+.

    Grounds node 0 and solves the reduced Laplacian for each injection
    vector; used to validate the pseudo-inverse route.
    """
    n = g.n
    if n < 3:
        return np.zeros(n)
    red = _shifted_laplacian(g)[1:, 1:]
    u, w, wt = g.edge_arrays
    rb = np.zeros(n)
    for s, t in combinations(range(n), 2):
        rhs = np.zeros(n)
        rhs[s], rhs[t] = 1.0, -1.0
        v = np.zeros(n)
        v[1:] = np.linalg.solve(red, rhs[1:])
        cur = np.abs(wt * (v[u] - v[w]))
        through = (np.bincount(u, cur, n) + np.bincount(w, cur, n)) / 2.0
        through[[s, t]] = 0.0
        rb += through
    return rb / ((n - 1) * (n - 2) / 2.0)


@Check("rb-solves", Sweep(20, 3, 8), "20 graphs")
def check_rb_solves(g):
    """Current-flow betweenness: pseudo-inverse route vs per-pair solves."""
    b = build_spectral(g)
    rb = randomwalk_betweenness(b)
    return Gap(float(np.max(np.abs(rb - randomwalk_betweenness_by_solves(g)))),
               float(rb.max()), condition(b))


@Check("transitive-constancy",
       lambda seed: [complete_graph(4), complete_graph(6), *map(cycle_graph, (4, 5, 8))],
       "complete graphs and cycles")
def check_transitive_constancy(g):
    """Vertex-transitive graphs score every per-node index constant. SC is
    among the indices, so each spread takes SC's condition bound 1 + d_max
    (see sc-series)."""
    rep, kappa = centrality_report(g), 1.0 + float(g.degrees.max())
    return tuple(Gap(float(np.ptp(v)), float(np.max(np.abs(v))), kappa)
                 for v in map(rep.__getattribute__, rep.PER_NODE))


@Check("max-normalization", Sweep(20, 3, 10), "{} violations in 20 graphs", agg=sum)
def check_max_normalization(g):
    """Max-normalizing preserves argmax sets and tops out at exactly 1, as
    x / x is exactly 1 in float64."""
    rep, bad = centrality_report(g), 0
    for vec in map(rep.__getattribute__, rep.PER_NODE):
        norm = max_normalized(vec)
        bad += (not (norm.max() == 1.0 and np.array_equal(vec == vec.max(), norm == norm.max()))
                if vec.max() > 0 else norm.any())
    return int(bad)


CONNECTED_GRAPHS = {3: 4, 4: 38, 5: 728}  # labeled connected graphs on n nodes


@Check("extremal-kirchhoff", lambda seed: range(3, 9),
       "{} violations; the star minimizes K among trees n<=8, and K_n among "
       "connected graphs n<=5", agg=sum)
def check_extremal_kirchhoff(n):
    """The star minimizes K among the trees on n nodes (exhaustive by
    Pruefer sequence). For n <= 5, K_n alone minimizes K among the
    connected n-node graphs, counted over all edge sets."""
    min_sum, min_count, star_sum, star_count = _kernels.tree_scan(n)
    bad = int(star_sum != (n - 1) ** 2 or min_sum != star_sum
              or min_count != star_count or star_count != n)
    if n not in CONNECTED_GRAPHS:
        return bad
    pairs = list(combinations(range(n), 2))
    masks = np.arange(1 << len(pairs))
    laps = np.zeros((len(masks), n, n))
    for bit, (u, v) in enumerate(pairs):
        has = ((masks >> bit) & 1)[:, None]
        laps[:, [u, v], [v, u]] -= has
        laps[:, [u, v], [u, v]] += has
    evals = np.linalg.eigvalsh(laps)
    connected = evals[:, 1] > bound(n, evals[:, -1])  # lambda_2 above zero-mode rounding
    kvals = np.full(len(masks), np.inf)
    kvals[connected] = np.sum(1.0 / evals[connected, 1:], axis=1)
    kmin = kvals.min()
    return (bad + (int(connected.sum()) != CONNECTED_GRAPHS[n])
            + (int(np.argmin(kvals)) != len(masks) - 1)
            + (int(np.sum(kvals <= kmin + bound(n, kmin))) != 1))


def hitting_estimates(g, pairs, runs, seed):
    """(i, j, Monte Carlo estimate, exact H_ij) for each (i, j) pair."""
    exact = hitting_times_exact(g).H
    return [(i, j, estimate_hitting_mc(g, i, j, runs, seed), exact[i, j]) for i, j in pairs]


def chunked_steps(g, i, j, seed, sizes):
    """Per-run step counts simulated as consecutive chunks of `sizes` runs."""
    starts = np.cumsum([0, *sizes[:-1]])
    return np.concatenate([simulate_hitting_steps(g, i, j, size, seed, run_start=int(start))
                           for size, start in zip(sizes, starts)])


@Check("mc-hitting", lambda seed: [(path_graph(3), ((0, 1), (0, 2), (1, 0)), seed),
                                   (complete_graph(4), ((0, 1), (2, 3)), seed)],
       f"{{}} misses in 5 estimates within 4 SE at {MC_RUNS} runs and 2 chunkings",
       agg=sum)
def check_mc_hitting(case):
    """Monte Carlo hitting estimates agree with the exact table to 4 SE
    (plus the table's rounding bound), and the per-run sequence is
    chunking-invariant."""
    g, pairs, seed = case
    misses = sum(not abs(est.mean - exact) <= 4 * est.std_error + bound(g.n, exact)
                 for _, _, est, exact in hitting_estimates(g, pairs, MC_RUNS, seed))
    whole = simulate_hitting_steps(g, 0, 1, 512, seed)
    return misses + (not np.array_equal(whole, chunked_steps(g, 0, 1, seed, (200, 312))))


@Check("mc-visits", lambda seed: [(path_graph(3), ((0, 2), (2, 0)), seed),
                                  (complete_graph(4), ((0, 3),), seed)],
       f"{{}} misses in 7 visit counts within 4 SE at {MC_RUNS} runs", agg=sum)
def check_mc_visits(case):
    """Monte Carlo visit counts match d(k) * v(k) from the voltage gauge."""
    g, pairs, seed = case
    b, misses = build_spectral(g), 0
    for i, j in pairs:
        visits = voltages(b, i, j).visits
        est = estimate_visits_mc(g, i, j, MC_RUNS, seed)
        near = np.abs(est.means - visits) <= 4 * est.std_errors + bound(g.n, visits, condition(b))
        misses += int(np.delete(~near, j).sum())  # a walk never visits its target
    return misses


@Check("generator", lambda seed: [abilene_topology()],
       "{} differing redraws of the preset; its constraints hold", agg=sum)
def check_generator(g):
    """Preset generator determinism and the preset's stated constraints."""
    check_abilene_constraints(g)
    return int(format_edge_list(g) != format_edge_list(abilene_topology()))


TABLE1_EXPECT = {
    "pert1": {"kstar": DOWN, "randic": UP, "gc_mean": DOWN,
              "sc_mean": UP, "gb_mean": UP, "rb_mean": UP},
    "pert2": {"kstar": UP, "randic": FLAT, "gc_mean": UP,
              "sc_mean": DOWN, "gb_mean": DOWN, "rb_mean": UP},
}


def _comparisons(seed):
    """(name, n, report) of both rewiring presets, and of the preset itself."""
    g0 = abilene_topology()
    g1 = pert_preset(g0, "pert1")
    d0, d1, d2 = map(graph_descriptors, (g0, g1, pert_preset(g1, "pert2")))
    return [("pert1", g0.n, sensitivity_report(d0, d1)),
            ("pert2", g1.n, sensitivity_report(d1, d2)),
            ("self", g0.n, sensitivity_report(d0, d0))]


def _sensitivity_detail(records):
    d1, d2 = (case[2].deltas for case, _ in records[:2])
    return (f"{sum(v for _, v in records)} violations; dK*={d1['kstar']:+.4f}/"
            f"{d2['kstar']:+.4f}, dR1={d1['randic']:+.4f}/{d2['randic']:+.4f}")


@Check("sensitivity-directions", _comparisons, _sensitivity_detail, agg=sum)
def check_sensitivity_directions(case):
    """Direction arrows of each comparison (all flat against itself), exact
    Randic invariance for pert2, and each K* delta consistent with its K
    delta."""
    which, n, rep = case
    d = rep.deltas
    expect = TABLE1_EXPECT.get(which) or dict.fromkeys(rep.directions, FLAT)
    bad = sum(rep.directions[key] != arrow for key, arrow in expect.items())
    bad += which == "pert2" and d["randic"] != 0.0
    # K* = 1/K, so dK* = K_before / K_after - 1 = -dK * K_before / K_after
    ratio = rep.before["kirchhoff"] / rep.after["kirchhoff"]
    return bad + (not abs(d["kstar"] + d["kirchhoff"] * ratio) <= bound(n, ratio))


def run_checks(cfg: VerifyConfig, only: str | None = None):
    """Run (a filtered subset of) all checks; returns the result list.

    A GraphError raised inside a check, such as a violated preset
    constraint, becomes that check's FAIL result; the other checks still
    run. Raises ValueError before running anything if `cfg.seed` lies
    outside [0, 2**64), or if `cfg.max_n` lies below a selected sweep's
    smallest instance size.
    """
    if not 0 <= cfg.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2**64), got {cfg.seed}")
    selected = [(name, fn) for name, fn in ALL_CHECKS if not only or only in name]
    for name, fn in selected:
        sweep = getattr(fn, "sweep", None)
        if isinstance(sweep, Sweep) and cfg.max_n is not None and cfg.max_n < sweep.lo:
            raise ValueError(f"--n {cfg.max_n} is below {name}'s "
                             f"smallest instance size {sweep.lo}")
    results, drawn = [], {}
    for name, fn in selected:
        try:
            results.append(fn(cfg, drawn))
        except GraphError as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
