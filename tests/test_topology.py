import dataclasses
import hashlib

import numpy as np
import pytest

from lapcent import (ConstraintError, Graph, TopologySpec, components,
                     degree_sequence, export_dot, format_edge_list,
                     gen_core_gateway, is_connected, abilene_topology,
                     pert_preset, rewire, sensitivity_report)
from lapcent import cli, topology
from lapcent.graph import GraphError
from lapcent.topology import DOWN, FLAT, UP, graph_descriptors
from lapcent.verify import VerifyConfig, run_checks

from helpers import path_graph


def v(k):
    """Node id of the paper's v_k."""
    return k - 1


@pytest.fixture(scope="module")
def preset():
    return abilene_topology()


class TestGenerator:
    def test_preset_shape(self, preset):
        assert preset.n == 65
        assert is_connected(preset)
        deg = preset.degrees
        assert deg[v(5)] == 10
        assert deg[v(6)] == 10

    def test_preset_subnet_wiring(self, preset):
        for k in range(15, 24):
            assert preset.has_edge(v(5), v(k))
        assert preset.has_edge(v(22), v(23))
        assert preset.has_edge(v(24), v(25))

    def test_determinism(self):
        a = format_edge_list(abilene_topology())
        b = format_edge_list(abilene_topology())
        assert a == b

    def test_star_of_star(self):
        g = gen_core_gateway(TopologySpec(core_size=1, gateway_count=1,
                                          subnet_sizes=(3,)))
        assert g.n == 5
        assert is_connected(g)
        assert g.degrees[1] == 4  # gateway: core link + 3 subnet nodes

    def test_two_node_core(self):
        g = gen_core_gateway(TopologySpec(core_size=2, gateway_count=2,
                                          subnet_sizes=(1, 1)))
        assert g.has_edge(0, 1)
        assert is_connected(g)

    def test_size_mismatch(self):
        with pytest.raises(ConstraintError):
            gen_core_gateway(TopologySpec(core_size=4, gateway_count=10,
                                          subnet_sizes=(9, 9)))
        with pytest.raises(ConstraintError):
            gen_core_gateway(TopologySpec(core_size=0, gateway_count=1,
                                          subnet_sizes=(1,)))

    @pytest.mark.parametrize("pair, rule", [((21, 21), "self-loop"), ((5, 0), "duplicate"),
                                            ((3, 65), "outside")])
    def test_invalid_redundant_pair(self, pair, rule):
        spec = TopologySpec(4, 10, (9, 9, 5, 4, 4, 4, 4, 4, 4, 4), redundant_pairs=(pair,))
        with pytest.raises(ConstraintError, match=f"redundant pair rejected: .*{rule}"):
            gen_core_gateway(spec)

    def test_failure_cut_sizes(self, preset):
        # losing the v5-v1 uplink strands 10 nodes before, 19 after pert1
        cut = rewire(preset, [(v(5), v(1))], [], check_connected=False)
        assert min(len(c) for c in components(cut)) == 10
        g1 = pert_preset(preset, "pert1")
        cut = rewire(g1, [(v(5), v(1))], [], check_connected=False)
        assert min(len(c) for c in components(cut)) == 19

    def test_generator_check_fails_without_raising(self, monkeypatch):
        # v5's subnet shrunk from 9 to 8 nodes: the preset has 64 nodes
        sizes = (8, *topology.ABILENE_PRESET.subnet_sizes[1:])
        monkeypatch.setattr(topology, "ABILENE_PRESET",
                            TopologySpec(4, 10, sizes, topology.ABILENE_PRESET.redundant_pairs))
        (res,) = run_checks(VerifyConfig(), only="generator")
        assert not res.passed
        assert "expected 65 nodes, got 64" in res.detail
        assert res.line().startswith("FAIL generator: ")

    def test_graph_error_in_any_check_is_its_fail_line(self, monkeypatch, capsys):
        # pert2 removes v24-v25, which this preset lacks: pert_preset raised
        # out of the sensitivity check and ended `verify` with exit 2
        monkeypatch.setattr(topology, "ABILENE_PRESET", dataclasses.replace(
            topology.ABILENE_PRESET, redundant_pairs=((21, 22), (15, 14))))
        (res,) = run_checks(VerifyConfig(), only="sensitivity")
        assert res.line() == "FAIL sensitivity-directions: cannot remove missing edge (23,24)"
        assert cli.main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL sensitivity-directions: cannot remove missing edge (23,24)" in lines
        assert lines[-1] == "23/25 checks passed"


class TestPerturbations:
    def test_pert1_moves_edges(self, preset):
        g1 = pert_preset(preset, "pert1")
        assert g1.has_edge(v(15), v(1))
        assert g1.has_edge(v(6), v(5))
        assert not g1.has_edge(v(15), v(5))
        assert not g1.has_edge(v(6), v(1))

    def test_degree_sequences_preserved(self, preset):
        g1 = pert_preset(preset, "pert1")
        g2 = pert_preset(g1, "pert2")
        assert degree_sequence(g1) == degree_sequence(preset)
        assert degree_sequence(g2) == degree_sequence(preset)

    def test_missing_edge_rejected(self, preset):
        g1 = pert_preset(preset, "pert1")
        with pytest.raises(GraphError):
            pert_preset(g1, "pert1")  # e15,5 is already gone
        with pytest.raises(GraphError, match="^pert1 preset not applicable: "
                                             "node v15 outside graph of 3 nodes$"):
            pert_preset(path_graph(3), "pert1")

    def test_only_preset_keys_are_accepted(self, preset):
        # SHA-256 of format_edge_list of each rewiring, as `perturb` writes it
        g1 = pert_preset(preset, "pert1")
        g2 = pert_preset(g1, "pert2")
        assert hashlib.sha256(format_edge_list(g1).encode()).hexdigest() == \
            "ea065c9c5103066ae305eed20db7e66842f54e5b5e818cc87eec9a5d0968ad10"
        assert hashlib.sha256(format_edge_list(g2).encode()).hexdigest() == \
            "fa724d15a5605339b8bf7281bb4df0cbf543d9fc1d703bed0427a2ac0f6c10ba"
        for which in ("pert-i", "PERT1", "1", "pert9"):
            with pytest.raises(GraphError, match=f"^unknown perturbation preset {which!r}$"):
                pert_preset(preset, which)


@pytest.fixture(scope="module")
def chain(preset):
    g1 = pert_preset(preset, "pert1")
    g2 = pert_preset(g1, "pert2")
    return preset, g1, g2


class TestSensitivity:
    def test_pert1_directions(self, chain):
        g0, g1, _ = chain
        rep = sensitivity_report(g0, g1)
        assert rep.directions["kstar"] == DOWN
        assert rep.directions["randic"] == UP
        assert rep.directions["gc_mean"] == DOWN
        assert rep.directions["sc_mean"] == UP
        assert rep.directions["gb_mean"] == UP
        assert rep.directions["rb_mean"] == UP

    def test_pert2_directions(self, chain):
        _, g1, g2 = chain
        rep = sensitivity_report(g1, g2)
        assert rep.directions["kstar"] == UP
        assert rep.directions["randic"] == FLAT
        assert rep.deltas["randic"] == 0.0
        assert rep.directions["gc_mean"] == UP
        assert rep.directions["sc_mean"] == DOWN
        assert rep.directions["gb_mean"] == DOWN
        assert rep.directions["rb_mean"] == UP

    def test_identical_graphs_all_flat(self, preset):
        rep = sensitivity_report(preset, preset)
        assert all(v == FLAT for v in rep.directions.values())
        assert all(d == 0.0 for d in rep.deltas.values())

    def test_size_mismatch(self, preset):
        with pytest.raises(GraphError):
            sensitivity_report(preset, path_graph(3))

    def test_to_dict_schema(self, chain):
        g0, g1, _ = chain
        d = sensitivity_report(g0, g1).to_dict()
        assert set(d) == {"before", "after", "deltas", "directions"}
        assert set(d["deltas"]) == set(d["before"])

    def test_descriptor_keys(self, preset):
        desc = graph_descriptors(path_graph(4))
        assert {"kstar", "randic", "gc_mean", "sc_mean",
                "gb_mean", "rb_mean", "cstar_mean"} <= set(desc)


class TestDotExport:
    def test_p3_center_is_reddest(self):
        from lapcent import build_spectral, topological_centrality
        g = path_graph(3)
        values = topological_centrality(build_spectral(g))
        dot = export_dot(g, values, metric="cstar")
        lines = {i: next(l for l in dot.splitlines() if l.startswith(f"  {i} ["))
                 for i in range(3)}
        color = {i: lines[i].split('fillcolor="')[1][:7] for i in range(3)}
        assert color[0] == color[2] != color[1]
        # max value maps to hue 0 = pure red
        assert color[1].startswith("#eb")

    def test_constant_values_single_color(self):
        dot = export_dot(path_graph(3), np.ones(3))
        colors = {line.split('fillcolor="')[1][:7]
                  for line in dot.splitlines() if "fillcolor" in line}
        assert len(colors) == 1

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            export_dot(path_graph(3), np.ones(4))

    def test_deterministic_and_weighted_labels(self):
        g = Graph(2, [(0, 1, 2.5)])
        a = export_dot(g, np.array([1.0, 2.0]))
        b = export_dot(g, np.array([1.0, 2.0]))
        assert a == b
        assert 'label="2.5"' in a
        assert a.startswith("graph metric {")
