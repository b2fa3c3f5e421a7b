"""Synthetic core/gateway topologies, the two degree-preserving rewiring
presets used for sensitivity studies, the descriptors of one graph and the
sensitivity report that compares two such descriptions, and DOT rendering.

The bundled 65-node "abilene" preset mimics an Abilene-style backbone: a
small ring core through which everything interconnects, ten gateway nodes
attached round-robin to the core, and one star subnet per gateway. The first
two gateways carry 9-node subnets whose border node pairs are cross-linked
for redundancy, giving both gateways degree 10. The exact interior wiring
beyond those constraints follows the deterministic fill rule implemented
here. The paper names the preset's nodes v1..v65; v_k is node id k - 1.
`check_abilene_constraints` states the constraints; `verify`'s generator
check and the tests run it, not every generation.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, components, degree_sequence, rewire
from .zoo import centrality_report

DIRECTION_DEADBAND = 1e-12
UP, DOWN, FLAT = "↑", "↓", "↔"


class ConstraintError(GraphError):
    """Generated topology violates a stated constraint."""


@dataclass(frozen=True)
class TopologySpec:
    """Core ring size, gateway count, per-gateway subnet sizes, extra
    redundancy edges (by node id)."""

    core_size: int
    gateway_count: int
    subnet_sizes: tuple
    redundant_pairs: tuple = ()


ABILENE_PRESET = TopologySpec(
    core_size=4,
    gateway_count=10,
    subnet_sizes=(9, 9, 5, 4, 4, 4, 4, 4, 4, 4),
    redundant_pairs=((21, 22), (23, 24)),
)


def gen_core_gateway(spec: TopologySpec) -> Graph:
    """Deterministic topology for a spec: ring core, round-robin gateways,
    star subnets, plus the spec's redundancy edges. The same spec gives a
    byte-identical edge list."""
    c, m = spec.core_size, spec.gateway_count
    if c < 1:
        raise ConstraintError("core_size must be >= 1")
    if m < 1:
        raise ConstraintError("gateway_count must be >= 1")
    if len(spec.subnet_sizes) != m:
        raise ConstraintError(
            f"expected {m} subnet sizes, got {len(spec.subnet_sizes)}"
        )
    if any(s < 1 for s in spec.subnet_sizes):
        raise ConstraintError("subnet sizes must be >= 1")
    n = c + m + sum(spec.subnet_sizes)
    edges = []
    if c == 2:
        edges.append((0, 1))
    elif c > 2:
        edges.extend((i, (i + 1) % c) for i in range(c))
    for i in range(1, m + 1):
        gw = c + i - 1
        core = math.ceil(i * c / m) - 1
        edges.append((gw, core))
    nxt = c + m
    for gi, size in enumerate(spec.subnet_sizes):
        gw = c + gi
        edges.extend((gw, nxt + k) for k in range(size))
        nxt += size
    edges.extend(spec.redundant_pairs)
    try:
        return Graph(n, edges)
    except GraphError as exc:  # the generated edges are valid; a redundant pair is not
        raise ConstraintError(f"redundant pair rejected: {exc}") from None


def abilene_topology() -> Graph:
    """The 65-node preset."""
    return gen_core_gateway(ABILENE_PRESET)


def _resolve(g: Graph, k: int) -> int:
    """The node id of the paper's v_k: k - 1."""
    if not (1 <= k <= g.n):
        raise GraphError(f"node v{k} outside graph of {g.n} nodes")
    return k - 1


def check_abilene_constraints(g: Graph):
    """Assert every stated property of the 65-node preset; raise naming the
    first violated constraint."""
    def fail(msg):
        raise ConstraintError(f"preset constraint violated: {msg}")

    if g.n != 65:
        fail(f"expected 65 nodes, got {g.n}")
    if len(components(g)) != 1:
        fail("topology must be connected")
    v = lambda k: _resolve(g, k)
    deg = g.degrees
    for k in (5, 6):
        if deg[v(k)] != 10:
            fail(f"d(v{k}) must be 10, got {deg[v(k)]:g}")
    for k in range(15, 24):
        if not g.has_edge(v(5), v(k)):
            fail(f"v{k} must sit in v5's star subnet")
    if not g.has_edge(v(22), v(23)):
        fail("v22-v23 redundancy edge missing")
    if not g.has_edge(v(24), v(25)):
        fail("v24-v25 redundancy edge missing")
    for a, b in ((15, 5), (6, 1)):
        if not g.has_edge(v(a), v(b)):
            fail(f"edge e_{a},{b} needed for the first rewiring preset")
    # failure of e_{5,1} must strand 10 nodes before PERT-I and 19 after
    for expect, graph in ((10, g), (19, pert_preset(g, "pert1"))):
        cut = rewire(graph, remove=[(v(5), v(1))], add=[], check_connected=False)
        comps = components(cut)
        if len(comps) != 2:
            fail("removing e_5,1 must split the graph in exactly two")
        stranded = min(len(c) for c in comps)
        if stranded != expect:
            fail(f"removing e_5,1 must strand {expect} nodes, got {stranded}")


PRESET_MOVES = {
    "pert1": (((15, 5), (6, 1)), ((15, 1), (6, 5))),
    "pert2": (((22, 23), (24, 25)), ((22, 25), (23, 24))),
}


def pert_preset(g: Graph, which: str) -> Graph:
    """Apply the degree-preserving rewiring named "pert1" or "pert2" (the
    keys of PRESET_MOVES); each move names the paper's v_k, node id k - 1.
    The added edges weigh 1, so a weighted graph whose moved edges weigh
    otherwise changes its degrees and is refused."""
    if which not in PRESET_MOVES:
        raise GraphError(f"unknown perturbation preset {which!r}")
    removes, adds = PRESET_MOVES[which]
    try:
        rm = [(_resolve(g, a), _resolve(g, b)) for a, b in removes]
        ad = [(_resolve(g, a), _resolve(g, b)) for a, b in adds]
    except GraphError as exc:
        raise GraphError(f"{which} preset not applicable: {exc}") from exc
    out = rewire(g, rm, ad)
    if degree_sequence(out) != degree_sequence(g):
        raise GraphError(f"{which} preset failed to preserve the degree sequence")
    return out


# -- sensitivity --------------------------------------------------------

def graph_descriptors(g: Graph) -> dict:
    """K*, Randic index, the means of gc, sc, gb, rb and C* (computed in that
    order before any mean or K*, so a refusal names the first to fail), K."""
    rep = centrality_report(g)
    per_node = {name: getattr(rep, name) for name in ("gc", "sc", "gb", "rb", "cstar")}
    return {"kstar": rep.kstar, "randic": rep.randic,
            **{f"{name}_mean": float(x.mean()) for name, x in per_node.items()},
            "kirchhoff": rep.kirchhoff}


@dataclass(frozen=True)
class SensitivityReport:
    before: dict
    after: dict
    deltas: dict
    directions: dict

    def to_dict(self):
        """JSON-ready form; an infinite delta (descriptor 0 before, nonzero
        after) is None, its arrow still gives the sign."""
        deltas = {k: d if math.isfinite(d) else None for k, d in self.deltas.items()}
        return {"before": self.before, "after": self.after,
                "deltas": deltas, "directions": self.directions}


def _direction(delta: float) -> str:
    if abs(delta) < DIRECTION_DEADBAND:
        return FLAT
    return UP if delta > 0 else DOWN


def sensitivity_report(before: dict, after: dict) -> SensitivityReport:
    """Relative changes (after - before) / before, with direction arrows, of
    two `graph_descriptors` results; it describes no graph and refuses none."""
    deltas = {}
    for key, base in before.items():
        new = after[key]
        if base == 0.0:
            deltas[key] = 0.0 if new == 0.0 else math.copysign(math.inf, new - base)
        else:
            deltas[key] = (new - base) / base
    directions = {key: _direction(d) for key, d in deltas.items()}
    return SensitivityReport(before=before, after=after, deltas=deltas, directions=directions)


# -- rendering -----------------------------------------------------------

DOT_TIE_RTOL = 1e-9  # a spread within this share of max|values| is rounding: one colour
_HUE_MAX = 0.4833  # turquoise; 0.0 is red
_SATURATION = 0.78
_VALUE = 0.92


def _ramp_color(t: float) -> str:
    """t = 1 maps to red (largest value), t = 0 to turquoise."""
    hue = (1.0 - t) * _HUE_MAX
    r, g, b = colorsys.hsv_to_rgb(hue, _SATURATION, _VALUE)
    return f"#{round(r * 255):02x}{round(g * 255):02x}{round(b * 255):02x}"


def export_dot(g: Graph, values, metric: str = "metric") -> str:
    """DOT text with nodes filled on a red-to-turquoise ramp by descending
    value, all red when tied within DOT_TIE_RTOL; deterministic bytes."""
    values = np.asarray(values, dtype=float)
    if values.shape != (g.n,):
        raise GraphError(f"expected {g.n} values, got {values.shape}")
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo
    tied = span <= DOT_TIE_RTOL * max(abs(lo), abs(hi))
    lines = [
        f"graph {metric} {{",
        "  node [shape=circle, style=filled];",
    ]
    for i in range(g.n):
        t = 1.0 if tied else (values[i] - lo) / span
        lines.append(
            f'  {i} [label="{i}", fillcolor="{_ramp_color(t)}"];'
        )
    weighted = not g.unweighted
    for u, v, w in g.edges:
        if weighted:
            lines.append(f'  {u} -- {v} [label="{w:.12g}"];')
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
