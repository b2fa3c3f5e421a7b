"""lapcent: graph robustness from the Laplacian pseudo-inverse.

Per-node topological centrality C*(i) = 1 / l+_ii and the graph-level
Kirchhoff index K = Tr(L+), together with the random-walk, electrical, and
spanning-forest routes that characterize them and serve as cross-checks.
"""

from .graph import (DisconnectedError, EdgeListError, Graph, GraphError,
                    components, degree_sequence, diameter, format_edge_list,
                    is_connected, load_edge_list, parse_edge_list, rewire,
                    shortest_path_distances)
from .spectral import (SpectralBundle, build_spectral, effective_resistance,
                       kirchhoff_index, resistance_matrix, spectral_report,
                       topological_centrality)
from .walks import (HittingTable, StepCapExceeded, WalkEstimate,
                    approx_commute_dense, approx_hitting_dense,
                    average_detour_overhead, detour_overhead,
                    estimate_hitting_mc, estimate_visits_mc,
                    hitting_times_exact)
from .electrical import (VoltageProfile, export_netlist, recurrence_overhead,
                         voltages)
from .forests import (BiPartition, ForestCensus, NotATreeError, SizeLimitError,
                      count_spanning_trees, enumerate_bipartitions,
                      forest_census, lplus_diag_fractions, tree_center,
                      tree_centrality)
from .zoo import (CentralityReport, centrality_report, geodesic_betweenness,
                  geodesic_closeness, max_normalized, randic_index,
                  randomwalk_betweenness, subgraph_centrality)
from .topology import (ABILENE_PRESET, ConstraintError, SensitivityReport,
                       TopologySpec, export_dot, gen_core_gateway,
                       abilene_topology, pert_preset, sensitivity_report)

__version__ = "0.1.0"
