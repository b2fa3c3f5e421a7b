"""Laplacian pseudo-inverse and the indices read off it: per-node
topological centrality C*(i) = 1/l+_ii and the graph-level Kirchhoff index
K = Tr(L+).

L+ comes from one route, a Cholesky factor of the shifted Laplacian
M = L/s + J/n. M is symmetric positive definite, and M^-1 = s L+ + J/n, so
with M = C C^T and F = C^-T

    L+ = (F F^T - J/n) / s.

The scale s is the power of two nearest the mean degree Vol/n: it keeps the
rank-one shift on the scale of L whatever the weight units, and dividing by
a power of two is exact. M is filled entrywise from the edge arrays (the
bits of `L / s + 1/n` without forming L; here only `spectral_report` does),
so the factorization holds three n x n arrays at its peak: M, LAPACK's
working copy and the returned factor. C is inverted by block recursion (LAPACK
inverses of diagonal blocks of at most `LEAF` rows, matrix products for the rest).
The diagonal of L+, which is all C* and K need, comes from the row norms of
F; the n x n L+ is formed only when a caller reads `SpectralBundle.lplus`.

Every bundle carries an a-posteriori certificate
rho = n eps (a Tr(L+) + a/s) with a = max(2 d_max, s). Gershgorin gives
lambda_max <= 2 d_max and Tr(L+) >= 1/lambda_2, so rho / (n eps) bounds the
condition number of M from above, and the error of the Cholesky inverse
grows as that condition number times eps (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 10 and 14). A graph whose rho exceeds
`RHO_MAX`, or is not finite, or whose factorization fails or yields a
diagonal entry that is not positive, is refused with a GraphError instead
of reported.

The eigen route and every cross-check between the two live in
`lapcent.verify`. The Kirchhoff index here is the plain trace; some of the
literature scales it by n, so reports record the convention.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .graph import Graph, GraphError, _frozen, _shifted_laplacian, require_connected

KIRCHHOFF_CONVENTION = "trace"  # K = Tr(L+), no factor n
LEAF = 128  # largest diagonal block inverted by LAPACK
RHO_MAX = 1e-3  # largest accepted certificate rho
EPS = float(np.finfo(np.float64).eps)


class SpectralBundle:
    """A connected graph and the Moore-Penrose pseudo-inverse of its
    Laplacian, held as L+ = (F F^T - J/n) / scale with F upper triangular.

    `diag` is diag(L+) from the row norms of F; `lplus` is the n x n matrix
    (symmetric, rows sum to zero, diagonal equal to `diag`), formed on first
    use. Both are cached and read-only. `rho` is the certificate that
    `build_spectral` computed for the bundle.
    """

    rho: float

    def __init__(self, graph, factor, scale):
        self.graph = graph
        self.factor = _frozen(factor)
        self.scale = scale

    @property
    def n(self):
        return self.graph.n

    @cached_property
    def diag(self):
        f = self.factor
        return _frozen((np.einsum("ij,ij->i", f, f) - 1.0 / self.n) / self.scale)

    @cached_property
    def lplus(self):
        f = self.factor
        lp = f @ f.T  # one symmetric rank-k update
        lp -= 1.0 / self.n
        lp /= self.scale
        np.fill_diagonal(lp, self.diag)
        return _frozen(lp)


@lru_cache(maxsize=LEAF)
def _lower_mask(k):
    return _frozen(np.tri(k))


def _invert_lower(c):
    """Overwrite the lower-triangular c with its inverse.

    With c = [[A, 0], [B, D]], c^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]].
    A pivoted LU inverse of a leaf can leave rounding noise above the
    diagonal; the mask zeroes it.
    """
    n = len(c)
    if n <= LEAF:
        np.multiply(np.linalg.inv(c), _lower_mask(n), out=c)
        return
    h = n // 2
    a, b, d = c[:h, :h], c[h:, :h], c[h:, h:]
    _invert_lower(a)
    _invert_lower(d)
    np.matmul(d, b @ a, out=b)
    np.negative(b, out=b)


def _shift_scale(mean_degree):
    """The power of two nearest the mean degree, within the float64 range."""
    if not 0.0 < mean_degree < math.inf:
        return 1.0
    return math.ldexp(1.0, min(max(round(math.log2(mean_degree)), -1074), 1023))


def certificate(b: SpectralBundle) -> float:
    """rho = n eps (a Tr(L+) + a/s) with a = max(2 d_max, s): n eps times an
    upper bound on cond(L/s + J/n), distributed so that a tiny s overflows no factor."""
    s = b.scale
    a = max(2.0 * float(b.graph.degrees.max()), s)
    return b.n * EPS * (a * float(b.diag.sum()) + a / s)


def _unresolved(g: Graph, why: str) -> GraphError:
    w = g.edge_arrays[2]
    return GraphError(f"L+ is beyond float64 resolution: {why} "
                      f"(edge weights span {w.min():.3g} to {w.max():.3g})")


def build_spectral(g: Graph) -> SpectralBundle:
    """The L+ bundle of a connected graph, certified (see the module notes).

    Connectivity is decided by breadth-first search (authoritative); a
    disconnected graph raises naming the second component. A graph whose
    L+ float64 cannot resolve raises GraphError naming rho.
    """
    require_connected(g, "spectral bundle")
    n = g.n
    s = _shift_scale(g.volume / n)
    with np.errstate(all="ignore"):
        try:
            c = np.linalg.cholesky(_shifted_laplacian(g, s, 1.0 / n))
        except np.linalg.LinAlgError:
            raise _unresolved(g, "rho = nan, the Cholesky factorization failed") from None
        _invert_lower(c)
        b = SpectralBundle(g, c.T, s)
        rho = b.rho = certificate(b)
    if not math.isfinite(rho):
        raise _unresolved(g, f"certificate rho = {rho:.3g} is not finite")
    if rho > RHO_MAX:
        raise _unresolved(g, f"certificate rho = {rho:.3g} exceeds {RHO_MAX:g}")
    if not b.diag.min() > 0.0:
        raise _unresolved(g, f"rho = {rho:.3g}, but min diag(L+) = {b.diag.min():.3g} <= 0")
    return b


def topological_centrality(b: SpectralBundle) -> np.ndarray:
    """C*(i) = 1 / l+_ii."""
    return 1.0 / b.diag


def kirchhoff_index(b: SpectralBundle):
    """(K, K*) with K = Tr(L+) and K* = 1/K."""
    k = float(b.diag.sum())
    return k, 1.0 / k


def effective_resistance(b: SpectralBundle, i, j):
    """Resistance distance l+_ii + l+_jj - 2 l+_ij; index arrays broadcast."""
    return b.diag[i] + b.diag[j] - 2.0 * b.lplus[i, j]


def resistance_matrix(b: SpectralBundle) -> np.ndarray:
    """Omega: effective_resistance over every pair."""
    return effective_resistance(b, *np.ix_(range(b.n), range(b.n)))


def spectral_report(b: SpectralBundle) -> dict:
    """JSON-ready report: per-node diagonal and C*, graph-level K, K* and the
    Laplacian spectrum (descending, so the zero mode comes last). The graph
    is connected, so exactly one eigenvalue is zero; it is reported as 0.0
    rather than as rounding noise of either sign."""
    cstar = topological_centrality(b)
    k, kstar = kirchhoff_index(b)
    evals = np.linalg.eigvalsh(_shifted_laplacian(b.graph))[::-1]
    evals[-1] = 0.0
    diag = b.diag
    nodes = [
        {
            "id": i,
            "label": str(i),
            "lplus_diag": float(diag[i]),
            "cstar": float(cstar[i]),
        }
        for i in range(b.n)
    ]
    return {
        "nodes": nodes,
        "graph": {
            "kirchhoff": k,
            "kstar": kstar,
            "eigenvalues": [float(x) for x in evals],
            "kirchhoff_convention": KIRCHHOFF_CONVENTION,
        },
    }
