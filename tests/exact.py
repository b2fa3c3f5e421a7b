"""Exact rational references for float64 results (tests only).

Every float64 weight is a dyadic rational, so arithmetic in `Fraction`s on
a graph's edge arrays gives the exact value that a floating-point route
approximates for that input.
"""

from fractions import Fraction


def exact_lplus_diag(g):
    """diag(L+) of g as Fractions: Gauss-Jordan on M = L + J/n, whose
    inverse is L+ + J/n on a connected graph, then minus 1/n."""
    n = g.n
    shift = Fraction(1, n)
    m = [[shift] * n for _ in range(n)]
    for u, v, w in zip(*(a.tolist() for a in g.edge_arrays)):
        w = Fraction(w)
        m[u][u] += w
        m[v][v] += w
        m[u][v] -= w
        m[v][u] -= w
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = m[k][k]  # M is positive definite, so no pivot is zero
        m[k] = [x / pivot for x in m[k]]
        inv[k] = [x / pivot for x in inv[k]]
        for i in range(n):
            f = m[i][k]
            if i != k and f:
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
                inv[i] = [a - f * b for a, b in zip(inv[i], inv[k])]
    return [inv[i][i] - shift for i in range(n)]


def assert_within_rho(diag, cstar, kirchhoff, exact, rho):
    """README's promise: each l+_ii, C*(i) = 1/l+_ii and K = Tr(L+) is within
    relative rho of its exact value, from `exact` = exact_lplus_diag(g)."""
    rho = Fraction(rho)
    pairs = [*zip(diag, exact), *zip(cstar, (1 / x for x in exact)), (kirchhoff, sum(exact))]
    for got, want in pairs:
        assert abs(Fraction(got) - want) <= rho * want, (got, want)
