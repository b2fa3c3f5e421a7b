"""The graph as a resistor network: each edge carries resistance 1/w.

Voltages for a unit current injected at i and extracted at j come from
pseudo-inverse columns, gauged so the sink sits at zero volts. Under that
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


def _gauged_voltage(b: SpectralBundle, i: int, j: int) -> np.ndarray:
    v = b.lplus[:, i] - b.lplus[:, j]
    return v - v[j]


def voltages(b: SpectralBundle, i: int, j: int) -> VoltageProfile:
    """Voltage profile for unit current in at i, out at j, with v(j) = 0."""
    if i == j:
        raise GraphError("source and sink must differ")
    v = _gauged_voltage(b, i, j)
    return VoltageProfile(source=i, sink=j, v=v, visits=b.graph.degrees * v)


def recurrence_overhead(b: SpectralBundle, i: int, k: int, j: int) -> float:
    """Detour overhead computed electrically:
    Vol(G) * (V^{ik}_i + V^{kj}_i - V^{ij}_i) with sink-gauged voltages.

    Equals the walks-module detour overhead H_ik + H_kj - H_ij.
    """
    vik = _gauged_voltage(b, i, k)[i]
    vkj = _gauged_voltage(b, k, j)[i]
    vij = _gauged_voltage(b, i, j)[i]
    return float(b.graph.volume * (vik + vkj - vij))


def export_netlist(g: Graph) -> str:
    """Netlist text: one line per edge, "u v R=<1/w>"."""
    lines = [f"{u} {v} R={1.0 / w:.12g}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"
