"""The graph as a resistor network: each edge carries resistance 1/w.

Voltages for a unit current injected at i and extracted at j come from
pseudo-inverse columns, gauged so the sink sits at zero volts. The voltage
and the recurrence overhead broadcast over index arrays, so a sweep over
every pair or triple of a graph is one array expression. Under that
gauge d(k) * v(k) is exactly the expected number of visits the absorbed walk
i -> j makes to k, which ties the circuit picture to the detour overheads of
the walks module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError
from .spectral import SpectralBundle


@dataclass(frozen=True)
class VoltageProfile:
    """Voltages v (sink gauge v[sink] = 0) and visit counts d * v."""

    source: int
    sink: int
    v: np.ndarray
    visits: np.ndarray


def _gauged_voltage(b: SpectralBundle, x, i, j):
    """Sink-gauged voltage V^{ij}_x = (l+_xi - l+_xj) - (l+_ji - l+_jj) at x
    for unit current in at i, out at j.

    x, i and j are node ids or index arrays that broadcast together; x may
    also be a slice, such as slice(None) for the whole profile.
    """
    lp = b.lplus
    return (lp[x, i] - lp[x, j]) - (lp[j, i] - lp[j, j])


def voltages(b: SpectralBundle, i: int, j: int) -> VoltageProfile:
    """Voltage profile for unit current in at i, out at j, with v(j) = 0."""
    if i == j:
        raise GraphError("source and sink must differ")
    v = _gauged_voltage(b, slice(None), i, j)
    return VoltageProfile(source=i, sink=j, v=v, visits=b.graph.degrees * v)


def recurrence_overhead(b: SpectralBundle, i, k, j):
    """Detour overhead computed electrically:
    Vol(G) * (V^{ik}_i + V^{kj}_i - V^{ij}_i) with sink-gauged voltages.

    Equals the walks-module detour overhead H_ik + H_kj - H_ij. Node ids
    give an np.float64; index arrays broadcast to an array of overheads.
    """
    vik = _gauged_voltage(b, i, i, k)
    vkj = _gauged_voltage(b, i, k, j)
    vij = _gauged_voltage(b, i, i, j)
    return b.graph.volume * (vik + vkj - vij)


def export_netlist(g: Graph) -> str:
    """Netlist text: one line per edge, "u v R=<1/w>"."""
    lines = [f"{u} {v} R={1.0 / w:.12g}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"
