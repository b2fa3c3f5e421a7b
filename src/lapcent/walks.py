"""Random-walk quantities: exact hitting/commute times, detour overheads, a
seeded Monte Carlo estimator, and the dense-regime degree approximation.

Walk transition probabilities are p_ik = a_ik / d(i). Exact hitting times
come from the chain's fundamental matrix (one dense inverse, of L / d + pi),
deliberately independent of L+, so the identities that `lapcent.verify`
checks compare two independent routes rather than one route with itself.
The detour overhead reads the table at node ids or at index arrays, so a
sweep over every triple is one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graph import Graph, GraphError, _shifted_laplacian, require_connected, require_nodes


@dataclass(frozen=True)
class HittingTable:
    """H[i, j] = expected steps i -> j; C = H + H.T; vol = Vol(G)."""

    H: np.ndarray
    C: np.ndarray
    vol: float


def _volume(g: Graph) -> float:
    """Vol(G); a graph whose degrees sum past the float64 range is refused,
    and so is one whose stationary probability pi = d / Vol(G) falls below
    the normal range at some node, where 1/pi overflows (exact hitting
    divides by pi, the dense approximation by d / Vol(G))."""
    vol = g.volume
    d = g.degrees
    if vol == np.inf:
        raise GraphError(f"Vol(G) overflows float64 (largest degree {d.max():.3g})")
    if vol > 0:
        k = int(np.argmin(d))
        if d[k] / vol < np.finfo(np.float64).tiny:
            raise GraphError(f"stationary probability d/Vol(G) = {d[k]:.3g}/{vol:.3g} of "
                             f"node {k} is below the float64 normal range; its "
                             f"reciprocal overflows")
    return vol


def hitting_times_exact(g: Graph) -> HittingTable:
    """Every hitting time from the fundamental matrix of the walk.

    With stationary distribution pi = d / Vol(G) and
    Z = (I - P + 1 pi^T)^-1 (Kemeny & Snell, Finite Markov Chains),
    H[i, j] = (Z_jj - Z_ij) / pi_j, and H[j, j] is exactly 0. I - P + 1 pi^T
    is formed in place as L / d + pi: d/d is exactly 1 and (-w)/d = -(w/d).
    """
    require_connected(g, "hitting_times_exact")
    n = g.n
    vol = _volume(g)
    if n == 1:  # Vol(G) = 0 leaves pi undefined, and there is nothing to hit
        return HittingTable(H=np.zeros((1, 1)), C=np.zeros((1, 1)), vol=vol)
    d = g.degrees
    pi = d / vol
    m = _shifted_laplacian(g)
    m /= d[:, None]
    m += pi
    Z = np.linalg.inv(m)
    H = np.subtract(np.diag(Z), Z, out=m)  # m is read no more
    H /= pi
    np.fill_diagonal(H, 0.0)
    return HittingTable(H=H, C=H + H.T, vol=vol)


def detour_overhead(ht: HittingTable, i, k, j):
    """Expected extra steps of the forced detour i -> k -> j over i -> j,
    H_ik + H_kj - H_ij.

    Node ids give an np.float64; index arrays broadcast to an array of
    overheads. For reversible walks it equals the commute form
    (C_ik + C_kj - C_ij) / 2; verify's detour-equivalence checks that.
    """
    return ht.H[i, k] + ht.H[k, j] - ht.H[i, j]


def average_detour_overhead(ht: HittingTable, k: int) -> float:
    """Mean detour overhead through transit k over all (i, j) pairs,
    normalized by n^2 Vol(G).

    The double sum runs over all ordered pairs including i == j and
    i == k == j. The value equals l+_kk (verify's detour-average checks
    that).
    """
    H = ht.H
    n = H.shape[0]
    total = n * H[:, k].sum() + n * H[k, :].sum() - H.sum()
    return float(total / (n * n * ht.vol))


# -- Monte Carlo oracle -------------------------------------------------


class StepCapExceeded(GraphError):
    """A simulated walk ran past the per-run step cap, _kernels.STEP_CAP."""


@dataclass(frozen=True)
class WalkEstimate:
    mean: float
    std_error: float
    runs: int
    seed: int

    def to_dict(self):
        return {"mean": self.mean, "std_error": self.std_error,
                "runs": self.runs, "seed": self.seed}


def _check_walk_args(g: Graph, i: int, j: int, runs: int, seed: int, what: str):
    """Reject what no walk i -> j can run on: a disconnected graph, fewer
    than one run, a seed outside the kernels' uint64 range, node ids outside
    0..n-1, or i == j."""
    require_connected(g, what)
    if runs < 1:
        raise GraphError("runs must be >= 1")
    if not 0 <= seed < 2**64:
        raise GraphError(f"seed must be in [0, 2**64), got {seed}")
    require_nodes(g, i, j)
    if i == j:
        raise GraphError("source and target must differ")


def simulate_hitting_steps(g: Graph, i: int, j: int, runs: int, seed: int,
                           run_start: int = 0) -> np.ndarray:
    """Raw per-run step counts; deterministic in (seed, run index) only."""
    _check_walk_args(g, i, j, runs, seed, "simulate_hitting_steps")
    indptr, nbrs, cumw = g.csr()
    steps = _kernels.walk_steps(indptr, nbrs, cumw, i, j, runs, seed, run_start=run_start)
    if np.any(steps < 0):
        raise StepCapExceeded(
            f"walk {i}->{j} exceeded {_kernels.STEP_CAP} steps; input looks pathological"
        )
    return steps


def estimate_hitting_mc(g: Graph, i: int, j: int, runs: int, seed: int) -> WalkEstimate:
    """Monte Carlo hitting-time estimate with standard error.

    Runs are simulated a block at a time and reduced to exact integer sums,
    so memory does not grow with `runs`. std_error is the sample standard
    deviation over sqrt(runs); it is 0.0 for a single run.
    """
    _check_walk_args(g, i, j, runs, seed, "estimate_hitting_mc")
    block = _kernels.RUN_BLOCK
    total = total_sq = 0
    for start in range(0, runs, block):
        steps = simulate_hitting_steps(g, i, j, min(block, runs - start), seed,
                                       run_start=start)
        total += int(steps.sum())
        total_sq += int(steps @ steps)
    var = (runs * total_sq - total * total) / (runs * (runs - 1)) if runs > 1 else 0.0
    se = float(np.sqrt(var) / np.sqrt(runs))
    return WalkEstimate(mean=total / runs, std_error=se, runs=runs, seed=seed)


@dataclass(frozen=True)
class VisitEstimate:
    """Per-node mean visit counts of the walk i -> j (start counts, the
    terminal arrival does not)."""

    means: np.ndarray
    std_errors: np.ndarray
    runs: int
    seed: int


def estimate_visits_mc(g: Graph, i: int, j: int, runs: int, seed: int) -> VisitEstimate:
    _check_walk_args(g, i, j, runs, seed, "estimate_visits_mc")
    indptr, nbrs, cumw = g.csr()
    sums, sumsq, capped = _kernels.walk_visits(indptr, nbrs, cumw, g.n, i, j, runs, seed)
    if capped:
        raise StepCapExceeded(
            f"{capped} walks {i}->{j} exceeded {_kernels.STEP_CAP} steps"
        )
    means = sums / runs
    if runs > 1:
        var = (sumsq - runs * means**2) / (runs - 1)
        se = np.sqrt(np.maximum(var, 0.0) / runs)
    else:
        se = np.zeros(g.n)
    return VisitEstimate(means=means, std_errors=se, runs=runs, seed=seed)


# -- dense-regime approximation -----------------------------------------

CONVENTIONS = ("source-degree", "target-degree")


def approx_hitting_dense(g: Graph, i: int, j: int, convention: str = "source-degree") -> float:
    """Degree-only hitting estimate for dense graphs: Vol(G) / d.

    The default "source-degree" divides by d(i); "target-degree" divides by
    d(j) (the convention common elsewhere). This is a dense-regime heuristic,
    not an exact quantity. A walk that starts at its target takes no steps,
    so i == j gives 0.0, as the exact H_jj does.
    """
    if convention not in CONVENTIONS:
        raise GraphError(f"convention must be one of {CONVENTIONS}")
    require_connected(g, "approx_hitting_dense")
    require_nodes(g, i, j)
    if i == j:
        return 0.0
    d = g.degrees
    denom = d[i] if convention == "source-degree" else d[j]
    return float(_volume(g) / denom)


def approx_commute_dense(g: Graph, i: int, j: int) -> float:
    """Symmetric companion estimate Vol(G) (1/d(i) + 1/d(j)); 0.0 when i == j."""
    require_connected(g, "approx_commute_dense")
    require_nodes(g, i, j)
    if i == j:
        return 0.0
    d = g.degrees
    vol = _volume(g)
    return float(vol / d[i] + vol / d[j])
