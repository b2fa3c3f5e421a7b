"""lapcent: graph robustness from the Laplacian pseudo-inverse.

Per-node topological centrality C*(i) = 1 / l+_ii and the graph-level
Kirchhoff index K = Tr(L+), together with the random-walk, electrical, and
spanning-forest routes that characterize them and serve as cross-checks.

Importing the package loads no submodule: each public name is looked up in
its submodule on first access (PEP 562), so `import lapcent` stays cheap
and a CLI command loads only the modules it runs.
"""

import importlib

_EXPORTS = {
    "graph": ("DisconnectedError", "EdgeListError", "Graph", "GraphError", "components",
              "degree_sequence", "format_edge_list", "is_connected", "load_edge_list",
              "parse_edge_list", "rewire", "shortest_path_distances"),
    "spectral": ("SpectralBundle", "build_spectral", "effective_resistance",
                 "kirchhoff_index", "resistance_matrix", "spectral_report",
                 "topological_centrality"),
    "walks": ("HittingTable", "StepCapExceeded", "WalkEstimate", "approx_commute_dense",
              "approx_hitting_dense", "average_detour_overhead", "detour_overhead",
              "estimate_hitting_mc", "estimate_visits_mc", "hitting_times_exact"),
    "electrical": ("VoltageProfile", "export_netlist", "recurrence_overhead", "voltages"),
    "forests": ("BiPartition", "ForestCensus", "NotATreeError", "SizeLimitError",
                "count_spanning_trees", "enumerate_bipartitions", "forest_census",
                "lplus_diag_fractions", "tree_center", "tree_centrality"),
    "zoo": ("CentralityReport", "centrality_report", "geodesic_betweenness",
            "geodesic_closeness", "max_normalized", "randic_index",
            "randomwalk_betweenness", "subgraph_centrality"),
    "topology": ("ABILENE_PRESET", "ConstraintError", "SensitivityReport", "TopologySpec",
                 "export_dot", "gen_core_gateway", "abilene_topology", "pert_preset",
                 "graph_descriptors", "sensitivity_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    # Read on every access and never stored in this module's globals, so a
    # name always reflects its submodule's current binding.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
