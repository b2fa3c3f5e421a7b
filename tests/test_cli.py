import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from lapcent import (SpectralBundle, abilene_topology, electrical, format_edge_list, graph,
                     spectral, topology, verify, walks, zoo)
from lapcent.cli import main

from helpers import ring_chords, wide_weight_graphs

P3 = "0 1\n1 2\n"


@pytest.fixture()
def p3_file(tmp_path):
    path = tmp_path / "p3.el"
    path.write_text(P3)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def watch_edge_matrix(monkeypatch, on_build):
    """Call on_build(fill) before every dense matrix built from the edge
    arrays: A and L (fill 0), L/s + J/n (fill 1/n) and the rest all come from
    graph._edge_matrix, which is patched in every lapcent module bound to it."""
    build = graph._edge_matrix

    def watched(g, fill, edge, diag):
        on_build(fill)
        return build(g, fill, edge, diag)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lapcent" and getattr(module, "_edge_matrix", None) is build:
            monkeypatch.setattr(module, "_edge_matrix", watched)


class TestAnalyze:
    def test_json_values(self, capsys, p3_file):
        code, out, _ = run(capsys, "analyze", p3_file, "--json")
        assert code == 0
        rep = json.loads(out)
        assert [round(n["cstar"], 4) for n in rep["nodes"]] == [1.8, 4.5, 1.8]
        assert rep["graph"]["kirchhoff"] == pytest.approx(4 / 3, abs=1e-9)
        assert rep["graph"]["kirchhoff_convention"] == "trace"

    def test_text_and_csv(self, capsys, p3_file):
        code, out, _ = run(capsys, "analyze", p3_file)
        assert code == 0 and "kirchhoff index K: 1.333333" in out
        code, out, _ = run(capsys, "analyze", p3_file, "--csv")
        assert code == 0
        assert out.splitlines()[0] == "node,label,lplus_diag,cstar"
        assert len(out.splitlines()) == 4

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "no-such-file.el")
        assert code == 2
        assert "error:" in err

    def test_byte_order_mark_is_skipped(self, capsys, p3_file, tmp_path):
        # Windows Notepad starts a UTF-8 file with one
        marked = tmp_path / "bom.el"
        marked.write_bytes(b"\xef\xbb\xbf" + P3.encode())
        plain = run(capsys, "analyze", p3_file)
        assert plain[0] == 0
        assert run(capsys, "analyze", str(marked)) == plain

    def test_sparse_ids_exit_2(self, capsys, tmp_path):
        sparse = tmp_path / "sparse.el"
        sparse.write_text("0 1\n1 3000000\n")
        code, _, err = run(capsys, "analyze", str(sparse))
        assert code == 2 and "id 2 is missing" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.el"
        bad.write_text("0 0\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2 and "self-loop" in err

    def test_output_file_and_determinism(self, capsys, p3_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run(capsys, "analyze", p3_file, "--json", "-o", str(out1))[0] == 0
        assert run(capsys, "analyze", p3_file, "--json", "-o", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()


    def test_long_path_is_accepted(self, capsys, tmp_path):
        # an absolute 1e-8 gap between two L+ routes used to reject this input
        n = 800
        path = tmp_path / "p800.el"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        code, out, err = run(capsys, "analyze", str(path), "--json")
        assert code == 0, err
        diag = np.array([node["lplus_diag"] for node in json.loads(out)["nodes"]])
        i = np.arange(n)
        closed = np.abs(i[:, None] - i[None, :]).sum(axis=1) / n - (n * n - 1) / (6 * n)
        assert np.max(np.abs(diag - closed) / np.abs(closed)) <= 1e-9


    def test_large_weights_keep_k(self, capsys, tmp_path):
        # the unscaled rank-one shift printed K = -7.98e-8 here at exit 0
        path = tmp_path / "p3.el"
        path.write_text("0 1 1e9\n1 2 1e9\n")
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        k = json.loads(out)["graph"]["kirchhoff"]
        assert abs(k / (4 / 3e9) - 1) <= 1e-15

    @pytest.mark.parametrize("text, match", [
        ("0 1 1\n1 2 1e-14\n", "rho = 0.0886 exceeds 0.001"),
        ("0 1 1\n1 2 1e-17\n", "rho = 18 exceeds 0.001"),
        ("0 1 1e-310\n", "rho = inf is not finite"),  # l+_ii = 1/(4w) overflows
    ], ids=["p3-1e-14", "p3-1e-17", "subnormal"])
    def test_unresolvable_lplus_exit_2(self, capsys, tmp_path, text, match):
        path = tmp_path / "g.el"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path), "--json")
        assert code == 2 and out == ""
        assert match in err and "edge weights span" in err

    def test_analyze_forms_neither_lplus_nor_adjacency(self, capsys, p3_file, monkeypatch):
        # every dense matrix but L+ comes from graph._edge_matrix; record the
        # fill of each: M = L/s + J/n fills 1/n, and both A and L fill 0
        def refuse(self):
            raise AssertionError("analyze formed an n x n matrix it does not need")

        fills = []
        monkeypatch.setattr(SpectralBundle, "lplus", property(refuse))
        watch_edge_matrix(monkeypatch, fills.append)
        for fmt, want in (((), [1 / 3]), (("--json",), [1 / 3, 0.0]), (("--csv",), [1 / 3])):
            fills.clear()
            code, out, _ = run(capsys, "analyze", p3_file, *fmt)
            assert code == 0 and out
            assert fills == want  # M, and L for the spectrum of --json alone


def run_on_graph(text, *argv):
    """(exit code, stdout, stderr) of one command; "{}" in argv is the path
    of a file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([a.replace("{}", path) for a in argv])
    return code, out.getvalue(), err.getvalue()


def refused_with_a_message(code, out, err):
    """True for exit 2 with one `error: ` message and no output; otherwise
    asserts exit 0 and an empty stderr."""
    if code == 2:
        assert err.startswith("error: ") and out == ""
        return True
    assert code == 0 and err == ""
    return False


@settings(max_examples=60, deadline=None)
@given(wide_weight_graphs())
def test_analyze_exits_0_with_finite_numbers_or_2_with_a_message(text):
    code, out, err = run_on_graph(text, "analyze", "{}", "--json")
    if refused_with_a_message(code, out, err):
        return
    rep = json.loads(out)
    numbers = [rep["graph"]["kirchhoff"], rep["graph"]["kstar"], *rep["graph"]["eigenvalues"]]
    numbers += [node[key] for node in rep["nodes"] for key in ("lplus_diag", "cstar")]
    assert all(math.isfinite(x) for x in numbers)
    assert rep["graph"]["kirchhoff"] > 0
    assert all(node["lplus_diag"] > 0 for node in rep["nodes"])


@settings(max_examples=40, deadline=None)
@given(wide_weight_graphs())
def test_compare_sensitivity_hitting_exit_0_with_finite_numbers_or_2_with_a_message(text):
    n = len({tok for line in text.splitlines() for tok in line.split()[:2]})

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    code, out, err = run_on_graph(text, "compare", "{}")
    if not refused_with_a_message(code, out, err):
        rows = [line.split(",")[2:] for line in out.splitlines()[1:]]
        assert len(rows) == n and all(math.isfinite(float(x)) for row in rows for x in row)

    code, out, err = run_on_graph(text, "sensitivity", "{}", "{}", "--json")
    if not refused_with_a_message(code, out, err):
        rep = json.loads(out, parse_constant=reject)
        numbers = [*rep["before"].values(), *rep["after"].values(), *rep["deltas"].values()]
        assert all(math.isfinite(x) for x in numbers)

    code, out, err = run_on_graph(text, "hitting", "{}", "-i", "0", "-j", str(n - 1))
    if not refused_with_a_message(code, out, err):
        rep = json.loads(out, parse_constant=reject)
        assert math.isfinite(rep["hitting"]) and math.isfinite(rep["commute"])


OVERFLOWING_VOLUME = "0 1 1e308\n"  # Vol(G) = 2e308 passes the float64 range
SUBNORMAL_DEGREE = "0 1 5e-324\n1 2 1e300\n"  # d(0) is subnormal; Vol(G) is finite
TINY_PI = "0 1 1e-300\n1 2 1e300\n"  # d(0) is normal, but pi(0) = d(0) / Vol(G) underflows
HITTING_02 = ["hitting", "{}", "-i", "0", "-j", "2"]
PI_OF_NODE_0 = "stationary probability d/Vol(G) = {} of node 0 is below the float64 normal range; "
INFINITE_LENGTH = "0 1 1\n1 2 1e-310\n"  # 1/w overflows: d(1, 2) is inf
OVERFLOWING_PATH = "0 1 1e-308\n1 2 1e-308\n"  # lengths 1e308 are finite; d(0, 2) is not
SHORTCUT = INFINITE_LENGTH + "0 2 1\n"  # every distance is finite, via node 0
SPD_OVERFLOWS = "geodesic distances overflow float64: a node's distances sum to inf "


@pytest.mark.parametrize("text, argv, message", [
    (OVERFLOWING_VOLUME, ["analyze", "{}"], "L+ is beyond float64 resolution: "),
    (OVERFLOWING_VOLUME, ["hitting", "{}", "-i", "0", "-j", "1"], "Vol(G) overflows float64 ("),
    (OVERFLOWING_VOLUME, ["hitting", "{}", "-i", "0", "-j", "1", "--method", "approx"],
     "Vol(G) overflows float64 ("),
    (OVERFLOWING_VOLUME, ["sensitivity", "{}", "{}"], "subgraph centrality overflows float64: "),
    (SUBNORMAL_DEGREE, HITTING_02, PI_OF_NODE_0.format("4.94e-324/2e+300")),
    (SUBNORMAL_DEGREE, [*HITTING_02, "--method", "approx"],
     PI_OF_NODE_0.format("4.94e-324/2e+300")),
    (TINY_PI, HITTING_02, PI_OF_NODE_0.format("1e-300/2e+300")),
    (TINY_PI, [*HITTING_02, "--method", "approx"], PI_OF_NODE_0.format("1e-300/2e+300")),
    (INFINITE_LENGTH, ["export-dot", "{}", "--metric", "gb"], SPD_OVERFLOWS),
    (INFINITE_LENGTH, ["export-dot", "{}", "--metric", "gc"], SPD_OVERFLOWS),
    (OVERFLOWING_PATH, ["export-dot", "{}", "--metric", "gb"], SPD_OVERFLOWS),
    (OVERFLOWING_PATH, ["compare", "{}"], SPD_OVERFLOWS),
], ids=["analyze", "hitting-exact", "hitting-approx", "sensitivity",
        "subnormal-hitting-exact", "subnormal-hitting-approx",
        "tiny-pi-hitting-exact", "tiny-pi-hitting-approx",
        "infinite-length-gb", "infinite-length-gc", "overflowing-path-gb",
        "overflowing-path-compare"])
def test_overflowing_volume_refused_with_one_line(text, argv, message):
    # used to print numpy RuntimeWarnings first, and then "Singular matrix"
    # (exact) or a JSON error (approx) for hitting; export-dot gb and gc
    # printed every node tied at exit 0, although node 1 carries the one
    # pair on the path
    code, out, err = run_on_graph(text, *argv)
    assert refused_with_a_message(code, out, err)
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("text, argv", [
    (OVERFLOWING_VOLUME, ["hitting", "{}", "-i", "0", "-j", "1", "--method", "mc",
                          "--runs", "100"]),
    (OVERFLOWING_VOLUME, ["export-dot", "{}", "--metric", "degree"]),
    (SHORTCUT, ["export-dot", "{}", "--metric", "gb"]),
    (SHORTCUT, ["export-dot", "{}", "--metric", "gc"]),
], ids=["hitting-mc", "export-dot-degree", "shortcut-gb", "shortcut-gc"])
def test_overflowing_volume_leaves_commands_that_never_sum_it(text, argv):
    # on the shortcut every distance is finite, but gb's 1/w used to warn
    code, out, err = run_on_graph(text, *argv)
    assert not refused_with_a_message(code, out, err)


@pytest.mark.parametrize("method, hitting, commute", [("exact", 1.0, 2.0), ("approx", 2.0, 4.0)])
def test_subnormal_degree_with_a_normal_pi_is_answered(method, hitting, commute):
    # pi = d / Vol(G) = 1/2 at both ends of one subnormal edge, so nothing
    # overflows; the subnormal degree alone used to be refused
    code, out, err = run_on_graph("0 1 5e-324\n", "hitting", "{}", "-i", "0", "-j", "1",
                                  "--method", method)
    assert not refused_with_a_message(code, out, err)
    rep = json.loads(out)
    assert (rep["hitting"], rep["commute"]) == (hitting, commute)


def test_overflowing_path_is_answered_by_analyze():
    # K = 4/3 1e308 and every l+_ii are finite, but rho's factor
    # Tr(L+) + 1/s overflowed, and analyze exited 2 with "rho = inf"
    code, out, err = run_on_graph(OVERFLOWING_PATH, "analyze", "{}", "--json")
    assert not refused_with_a_message(code, out, err)
    assert abs(json.loads(out)["graph"]["kirchhoff"] / (4 / 3 * 1e308) - 1) <= 1e-12


def test_subnormal_degree_leaves_the_monte_carlo_walk():
    code, out, err = run_on_graph(SUBNORMAL_DEGREE, *HITTING_02, "--method", "mc",
                                  "--runs", "100")
    assert not refused_with_a_message(code, out, err)
    assert json.loads(out)["estimate"]["mean"] == 2.0


class TestCompare:
    def test_csv_shape(self, capsys, p3_file):
        code, out, _ = run(capsys, "compare", p3_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("node,label,degree,degree_norm")
        assert len(lines) == 4

    def test_subgraph_overflow_exit_2_without_a_warning(self, capsys, tmp_path):
        # used to print sc = inf and sc_norm = nan at exit 0 (compare), or
        # exit 2 on a non-finite JSON value (sensitivity)
        path = tmp_path / "heavy.el"
        path.write_text("0 1 800\n1 2 1\n")
        for argv in (["compare", str(path)], ["sensitivity", str(path), str(path), "--json"],
                     ["export-dot", str(path), "--metric", "sc"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == ("error: subgraph centrality overflows float64: lambda_max(A) = "
                           "800.001 exceeds log(DBL_MAX / n) = 708.684\n")

    @pytest.mark.parametrize("argv", [["compare", "{}"], ["sensitivity", "{}", "{}"],
                                      ["export-dot", "{}", "--metric", "degree"]],
                             ids=["compare", "sensitivity", "export-dot"])
    def test_disconnected_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "two.el"
        path.write_text("0 1\n2 3\n")
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert code == 2 and out == ""
        assert err == ("error: centrality report requires a connected graph; "
                       "second component: [2, 3]\n")


class TestHitting:
    def test_exact(self, capsys, p3_file):
        code, out, _ = run(capsys, "hitting", p3_file, "-i", "0", "-j", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["hitting"] == pytest.approx(4.0)
        assert rep["commute"] == pytest.approx(8.0)

    def test_mc_deterministic(self, capsys, p3_file):
        args = ("hitting", p3_file, "-i", "0", "-j", "2", "--method", "mc",
                "--runs", "2000", "--seed", "7")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        est = json.loads(out1)["estimate"]
        assert est["runs"] == 2000 and est["seed"] == 7
        assert abs(est["mean"] - 4.0) <= 4 * est["std_error"]

    def test_approx_conventions(self, capsys, p3_file):
        code, out, _ = run(capsys, "hitting", p3_file, "-i", "1", "-j", "0",
                           "--method", "approx")
        rep = json.loads(out)
        assert code == 0
        assert rep["hitting"] == pytest.approx(2.0)  # Vol/d(1) = 4/2
        assert "dense-regime" in rep["note"]
        _, out, _ = run(capsys, "hitting", p3_file, "-i", "1", "-j", "0",
                        "--method", "approx", "--convention", "target-degree")
        assert json.loads(out)["hitting"] == pytest.approx(4.0)  # Vol/d(0)

    @pytest.mark.parametrize("flags", [("--method", "exact"),
                                       ("--method", "approx"),
                                       ("--method", "approx", "--convention", "target-degree")],
                             ids=["exact", "approx-source", "approx-target"])
    def test_source_equal_to_target_is_zero(self, capsys, p3_file, flags):
        # approx used to print hitting 2.0 and commute 4.0, as if i != j
        code, out, _ = run(capsys, "hitting", p3_file, "-i", "1", "-j", "1", *flags)
        rep = json.loads(out)
        assert code == 0
        assert rep["hitting"] == 0.0 and rep["commute"] == 0.0

    @pytest.mark.parametrize("method", ["exact", "approx", "mc"])
    def test_out_of_range_ids_exit_2(self, capsys, p3_file, method):
        # -1 used to index from the end; n raised IndexError or walked
        # until the step cap
        for i, j in (("-1", "0"), ("0", "3")):
            code, out, err = run(capsys, "hitting", p3_file, "-i", i, "-j", j,
                                 "--method", method, "--runs", "10")
            assert code == 2 and out == ""
            assert "outside 0..2" in err

    @pytest.mark.parametrize("method", ["exact", "approx"])
    def test_disconnected_exit_2(self, capsys, tmp_path, method):
        # approx used to print hitting 4.0 and commute 8.0 at exit 0
        path = tmp_path / "two.el"
        path.write_text("0 1 1\n2 3 1\n")
        code, out, err = run(capsys, "hitting", str(path), "-i", "0", "-j", "3",
                             "--method", method)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.endswith("second component: [2, 3]\n")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_uint64_exit_2(self, capsys, p3_file, seed):
        # used to end in an OverflowError traceback with exit 1
        code, out, err = run(capsys, "hitting", p3_file, "-i", "0", "-j", "2",
                             "--method", "mc", "--runs", "10", "--seed", seed)
        assert code == 2 and out == ""
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"


class TestEen:
    def test_export(self, capsys, p3_file):
        code, out, _ = run(capsys, "een", "export", p3_file)
        assert code == 0
        assert out == "0 1 R=1\n1 2 R=1\n"


# Routes of `lapcent.verify` with a NaN injected, for TestVerify.test_nan_fails.
def nan_lplus(g):
    b = spectral.build_spectral(g)
    vars(b)["lplus"] = np.full_like(b.lplus, np.nan)
    return b


def nan_hitting_table(g):
    ht = walks.hitting_times_exact(g)
    return dataclasses.replace(ht, H=np.full_like(ht.H, np.nan))


def nan_detour_at_node_1(ht, k):
    return np.nan if k == 1 else walks.average_detour_overhead(ht, k)


def nan_visits(b, i, j):
    profile = electrical.voltages(b, i, j)
    return dataclasses.replace(profile, visits=np.full_like(profile.visits, np.nan))


def nan_kirchhoff_before(before, after):
    # a copy: the other two comparisons share this description
    return topology.sensitivity_report({**before, "kirchhoff": np.nan}, after)


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "census")
        assert code == 0
        assert out.startswith("PASS census-disjointness")

    def test_failing_check_dumps_instances(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(verify, "SLACK", 1e-30)  # a bound no rounding residual meets
        code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "detour-average")
        assert code == 1
        assert "FAIL detour-average" in out
        dumps = list(tmp_path.glob("verify-fail-detour-average-*.el"))
        assert dumps
        # dumped instances parse back
        from lapcent import load_edge_list
        assert load_edge_list(dumps[0]).n >= 4

    def test_tolerance_option_is_gone(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--tolerance", "1e-9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance 1e-9" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_n_below_sweep_minimum_is_usage_error(self, capsys):
        # detour-average draws n from [4, N], so N = 3 leaves it no size
        code, out, err = run(capsys, "verify", "--n", "3")
        assert code == 2 and out == ""
        assert "--n 3 is below detour-average's smallest instance size 4" in err
        code, out, _ = run(capsys, "verify", "--n", "3", "--only", "forest")
        assert code == 0 and out.startswith("PASS forest-diagonal")

    @pytest.mark.parametrize("only", ["mc", "detour-average"])
    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_uint64_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                only, seed):
        # mc used to print two FAIL lines at exit 1; other checks exited 2
        # with numpy's message, which named no option
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify", "--seed", seed, "--only", only)
        assert code == 2 and out == ""
        assert err == f"error: --seed must be in [0, 2**64), got {seed}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["20", "30", "40", "50"])
    def test_sc_series_oracle_holds_on_larger_graphs(self, capsys, n):
        # a fixed 30 terms leave a tail above the bound here (6.3e-07 at --n 20);
        # at 40 and 50 SC reaches e^20, past what a fixed 1e-9 allows
        code, out, _ = run(capsys, "verify", "--n", n, "--only", "sc-series")
        assert code == 0 and out.startswith("PASS sc-series: ")

    def test_lplus_off_by_1e_13_fails_spectral_consistency(self, monkeypatch):
        # a centred symmetric error of 1e-13 max|L+| in every bundle passed
        # the fixed per-identity tolerances of 1e-8 to 1e-10
        rng = np.random.default_rng(0)

        def perturbed(g):
            b = build_spectral(g)
            e = rng.standard_normal((g.n, g.n))
            e += e.T
            e -= e.mean(axis=0)
            e -= e.mean(axis=1)[:, None]
            vars(b)["lplus"] = b.lplus + e * (1e-13 * np.abs(b.lplus).max() / np.abs(e).max())
            return b

        build_spectral = verify.build_spectral
        monkeypatch.setattr(verify, "build_spectral", perturbed)
        (res,) = verify.run_checks(verify.VerifyConfig(), only="spectral-consistency")
        assert not res.passed

    # each of these used to PASS: a comparison that is False for NaN marked
    # no failure, and the builtin max dropped a NaN that did not come first
    @pytest.mark.parametrize("name, route, fake", [
        ("recurrence-positive", "build_spectral", nan_lplus),
        ("mc-hitting", "hitting_times_exact", nan_hitting_table),
        ("detour-average", "average_detour_overhead", nan_detour_at_node_1),
        ("mc-visits", "voltages", nan_visits),
        ("sensitivity-directions", "sensitivity_report", nan_kirchhoff_before),
    ])
    def test_nan_fails(self, monkeypatch, name, route, fake):
        monkeypatch.setattr(verify, route, fake)
        (res,) = verify.run_checks(verify.VerifyConfig(), only=name)
        assert not res.passed, res.line()

    def test_min_line_names_a_nan_that_is_not_first(self, monkeypatch):
        # the builtin min dropped it: "FAIL ... min source visit count 1.000000 > 0"
        calls = []

        def fifth_nan(g):
            calls.append(g)
            return nan_lplus(g) if len(calls) == 5 else spectral.build_spectral(g)

        monkeypatch.setattr(verify, "build_spectral", fifth_nan)
        (res,) = verify.run_checks(verify.VerifyConfig(), only="recurrence-positive")
        assert res.line() == "FAIL recurrence-positive: min source visit count nan > 0"

    def test_shared_pools_compute_each_route_once(self, monkeypatch):
        # detour-average and commute-resistance share 100 graphs, and
        # commute-rowsum and cstar-commute-rank share 50; each drew its own
        calls = dict.fromkeys(["hitting_times_exact", "build_spectral"], 0)
        for name in calls:
            def counted(g, fn=getattr(verify, name), name=name):
                calls[name] += 1
                return fn(g)
            monkeypatch.setattr(verify, name, counted)
        results = verify.run_checks(verify.VerifyConfig(seed=42))
        assert [r.passed for r in results] == [True] * 25
        assert calls == {"hitting_times_exact": 192, "build_spectral": 1032}

    def test_sensitivity_describes_each_graph_once(self, monkeypatch):
        # the preset, pert1 and pert2: each comparison described both of its
        # graphs, 6 descriptions for 3 graphs
        calls = []

        def counted(g):
            calls.append(g)
            return topology.graph_descriptors(g)

        monkeypatch.setattr(verify, "graph_descriptors", counted)
        results = verify.run_checks(verify.VerifyConfig(seed=42))
        assert [r.passed for r in results] == [True] * 25
        assert len(calls) == 3

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "zzz-no-such")
        assert code == 2 and "no check matches" in err


class TestTopologyCommands:
    def test_gen_perturb_sensitivity_roundtrip(self, capsys, tmp_path):
        before = tmp_path / "g.el"
        after = tmp_path / "g1.el"
        code, _, _ = run(capsys, "gen", "--preset", "abilene", "-o", str(before))
        assert code == 0
        code, _, _ = run(capsys, "perturb", str(before), "--preset", "pert1",
                         "-o", str(after))
        assert code == 0
        code, out, _ = run(capsys, "sensitivity", str(before), str(after), "--json")
        assert code == 0
        rep = json.loads(out)
        assert rep["directions"]["kstar"] == "↓"
        assert rep["directions"]["randic"] == "↑"
        assert set(rep) == {"before", "after", "deltas", "directions"}

    def test_gen_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        run(capsys, "gen", "--preset", "abilene", "-o", str(a))
        run(capsys, "gen", "--preset", "abilene", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("opt, value", [("--core", "7"), ("--gateways", "3"),
                                            ("--subnets", "2,2")])
    def test_gen_preset_conflicts_with_a_custom_option(self, capsys, opt, value):
        code, out, err = run(capsys, "gen", "--preset", "abilene", opt, value)
        assert code == 2 and out == ""
        assert err == f"error: {opt} conflicts with --preset abilene\n"

    @pytest.mark.parametrize("value", ["3,x", "3,,4"])
    def test_gen_subnets_must_be_integers(self, capsys, value):
        code, out, err = run(capsys, "gen", "--core", "1", "--gateways", "2", "--subnets", value)
        assert code == 2 and out == ""
        assert err == f"error: --subnets must be comma-separated integers, got {value!r}\n"

    def test_gen_custom_requires_subnets(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == 2

    def test_gen_custom(self, capsys, tmp_path):
        out = tmp_path / "c.el"
        code, _, _ = run(capsys, "gen", "--core", "1", "--gateways", "1",
                         "--subnets", "3", "-o", str(out))
        assert code == 0
        from lapcent import load_edge_list
        assert load_edge_list(out).n == 5

    def test_sensitivity_json_from_zero_is_null(self, capsys, tmp_path):
        # gb_mean is 0 on K4 and 0.5 on C4: an infinite relative change
        k4, c4 = tmp_path / "k4.el", tmp_path / "c4.el"
        k4.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        c4.write_text("0 1\n1 2\n2 3\n0 3\n")

        def reject(token):
            raise ValueError(f"non-finite JSON token {token}")

        code, out, _ = run(capsys, "sensitivity", str(k4), str(c4), "--json")
        assert code == 0
        rep = json.loads(out, parse_constant=reject)
        assert rep["deltas"]["gb_mean"] is None
        assert rep["directions"]["gb_mean"] == "↑"
        code, out, _ = run(capsys, "sensitivity", str(k4), str(c4))
        assert code == 0
        assert "gb_mean          0.000000     0.500000       +inf  ↑" in out

    def test_sensitivity_size_mismatch_exit_2(self, capsys, tmp_path, monkeypatch):
        # refused where the two files are read, before either is described
        def refuse(g):
            raise AssertionError("a graph was described")

        monkeypatch.setattr(topology, "graph_descriptors", refuse)
        preset, path = tmp_path / "g.el", tmp_path / "p3.el"
        run(capsys, "gen", "--preset", "abilene", "-o", str(preset))
        path.write_text(P3)
        code, out, err = run(capsys, "sensitivity", str(preset), str(path))
        assert code == 2 and out == ""
        assert err == "error: graphs differ in size (65 vs 3 nodes)\n"

    def test_sensitivity_frees_the_first_graph_before_the_second_is_described(
            self, capsys, p3_file, monkeypatch):
        described = []

        def recorded(g):
            assert all(ref() is None for ref in described), "the first graph is alive"
            described.append(weakref.ref(g))
            return graph_descriptors(g)

        graph_descriptors = topology.graph_descriptors
        monkeypatch.setattr(topology, "graph_descriptors", recorded)
        code, out, _ = run(capsys, "sensitivity", p3_file, p3_file)
        assert code == 0 and "↔" in out
        assert len(described) == 2

    def test_perturb_text_output(self, capsys, tmp_path):
        before = tmp_path / "g.el"
        run(capsys, "gen", "--preset", "abilene", "-o", str(before))
        code, out, _ = run(capsys, "sensitivity", str(before), str(before))
        assert code == 0
        assert "↔" in out  # all-flat table


class TestExportDot:
    def test_dot_output(self, capsys, p3_file):
        code, out, _ = run(capsys, "export-dot", p3_file, "--metric", "cstar")
        assert code == 0
        assert out.startswith("graph cstar {")
        assert "fillcolor" in out

    def test_unknown_metric(self, capsys, p3_file, monkeypatch):
        def refuse(g):
            raise AssertionError("an index was computed")

        monkeypatch.setattr(zoo, "centrality_report", refuse)
        code, _, err = run(capsys, "export-dot", p3_file, "--metric", "bogus")
        assert code == 2 and "unknown metric" in err

    @pytest.mark.parametrize("metric, refused", [
        ("degree", ("build_spectral", "shortest_path_distances", "subgraph_centrality")),
        ("cstar", ("shortest_path_distances", "subgraph_centrality")),
    ], ids=["degree", "cstar"])
    def test_computes_only_its_metric(self, capsys, p3_file, monkeypatch, metric, refused):
        def refuse(*args):
            raise AssertionError("an index that is not printed was computed")

        for name in refused:
            monkeypatch.setattr(zoo, name, refuse)
        code, out, _ = run(capsys, "export-dot", p3_file, "--metric", metric)
        assert code == 0 and out.startswith(f"graph {metric} {{")

    @pytest.mark.parametrize("metric", ["degree", "cstar"])
    def test_subgraph_overflow_does_not_stop_other_metrics(self, capsys, tmp_path, metric):
        # used to exit 2 with sc's overflow, an index neither metric prints
        path = tmp_path / "heavy.el"
        path.write_text("0 1 800\n1 2 1\n")
        code, out, _ = run(capsys, "export-dot", str(path), "--metric", metric)
        assert code == 0 and out.startswith(f"graph {metric} {{")


# SHA-256 of stdout on the bundled preset topology.
PRESET_PINS = {
    ("compare",): "3d86e1b0f615160e97896190061b9b670c130bf4077e194d3b4a2d48c91800d1",
    ("analyze", "--csv"): "d7cfb6f51074d621b571420df9b45d4f1386071dde8c3fc14cf72d0513098e04",
    ("analyze",): "520c067058ec0be08ab0a4c0d87b84d4a0fbf28de74dabcfcf510e049f3fbd3d",
    ("analyze", "--json"): "60b20b42560001db7271a12a5db11f05614c339dd617125b2c1e7dcfe28bf222",
    ("export-dot",): "7ee1b09f23feb503ac78aaeade2062daaef15619b18562a53cf694f52adc058f",
    ("hitting", "-i", "0", "-j", "30", "--method", "exact"):
        "74a2b01fb01ab85d1faa98a8d18778d34ae62a9d11188c2bfe933a16f593c3e4",
    ("hitting", "-i", "0", "-j", "30", "--method", "approx"):
        "822b627c1a3c4136e72634e4a345832bb43227643a95a6d5a399e3cfd1bcf270",
    ("hitting", "-i", "0", "-j", "30", "--method", "mc", "--runs", "1000", "--seed", "1"):
        "ec7ed35c54d2bf666227886d7f09df9485f143e27afcf49e2c78d7e872453bb2",
}


# SHA-256 of `sensitivity` stdout between the preset and its rewirings.
SENSITIVITY_PINS = {
    ("preset", "pert1"): "f540a6d71c07ae0aa91c6e65fc9530144b71b28a3c65da7fbb16a29c9ea8ae44",
    ("pert1", "pert2", "--json"): "046f28f8679a5179de85322bdacb4fc7d4da872a6d104b672506637d64f4835e",
}

# SHA-256 of `export-dot --metric M` stdout on the preset and on weighted
# ring-chords at n = 300 (see test_export_dot_output_bytes).
EXPORT_DOT_PINS = {
    ("preset", "degree"): "c40d2244f14fa3d84d27f4af47d531205c202ef5136fafd051d1790c58fe6b75",
    ("preset", "gc"): "a609e7450196ed9063fd76c30c39e05a4a9085f4131ca35da4b52d24af4127b2",
    ("preset", "sc"): "7726dee7b9624a661b970a59a0e94a086453e9c76d6957cd3fc4e5e0a254ee0a",
    ("preset", "gb"): "1032425a6db2faaf6cbfcdb179c53bbae26a1631547c57a9f96242ddd823a2ad",
    ("preset", "rb"): "820a99da15b1e046271bbfc5905eb24ca2d07f6692eb01bf9496615cbf73d9f5",
    ("preset", "cstar"): "7ee1b09f23feb503ac78aaeade2062daaef15619b18562a53cf694f52adc058f",
    ("ring300", "degree"): "147da5554404e08032367e8b3b953b0536ba320abbe6432964841bca3f0e7d97",
    ("ring300", "gc"): "cf2461359f031f3d62b6a7d3ba8ef20d49b5a83c14c1324ad7b2f143485680f2",
    ("ring300", "sc"): "be3d2d49883313464e823b669ca047e64685855fa7dab88719897403b79eecd1",
    ("ring300", "gb"): "8e00c0e6ea50b6498b79b63475ec4a3a168ad4a4b32e78edf972959a621c8cf6",
    ("ring300", "rb"): "0e30da1cb4c58204ac56b6fc636f879df0a1ba5f9fd455dba27445d1670f8ee1",
    ("ring300", "cstar"): "77539e6d7c30e7a699b12b179b436d35a225cae0501e617789ec726f2097aba1",
}

# SHA-256 of `analyze` stdout on weighted ring-chords at n = 300, above LEAF,
# where the factor's inverse recurses (see test_analyze_output_bytes).
ANALYZE_RING300_PINS = {
    (): "cba9039a4c530785afcec4882b74dc7ad778cedc6f58e614a3c12982d025c481",
    ("--csv",): "c87af29180f490ca975cd251399ba62183503e1422443c2e82a6ff0b85b7e9a4",
    ("--json",): "2e28cc7bde83f1689657d2ea35c665d82a0e6df1e588b39389cde29e77f9bebb",
}

# SHA-256 of `verify --seed 42` stdout.
VERIFY_SEED_42_PIN = "781d4635527058a910324285cc30bf666f46fbb2a91aa6e67de0a2cc1eb523df"
VERIFY_SEED_7_PIN = "9bfd0b51ece8f07bd2c83a33064237bc254e7edb585d31a2788660131aade886"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def preset_files(capsys, tmp_path):
    """Paths of the preset and its pert1 and pert1-then-pert2 rewirings."""
    paths = {name: str(tmp_path / f"{name}.el") for name in ("preset", "pert1", "pert2")}
    assert run(capsys, "gen", "--preset", "abilene", "-o", paths["preset"])[0] == 0
    assert run(capsys, "perturb", paths["preset"], "--preset", "pert1",
               "-o", paths["pert1"])[0] == 0
    assert run(capsys, "perturb", paths["pert1"], "--preset", "pert2",
               "-o", paths["pert2"])[0] == 0
    return paths


@pytest.mark.parametrize("argv", list(PRESET_PINS), ids=" ".join)
def test_preset_output_bytes(capsys, preset_files, argv):
    code, out, _ = run(capsys, argv[0], preset_files["preset"], *argv[1:])
    assert code == 0
    assert sha256(out) == PRESET_PINS[argv]


@pytest.mark.parametrize("argv", list(SENSITIVITY_PINS), ids=" ".join)
def test_sensitivity_output_bytes(capsys, preset_files, argv):
    before, after, *flags = argv
    code, out, _ = run(capsys, "sensitivity", preset_files[before], preset_files[after], *flags)
    assert code == 0
    assert sha256(out) == SENSITIVITY_PINS[argv]


def write_pinned_graph(tmp_path, name):
    """Path of the preset ("preset") or of weighted ring-chords at n = 300
    ("ring300") written as an edge list."""
    if name == "preset":
        g = abilene_topology()
    else:
        g = ring_chords(np.random.default_rng(300), 300, lambda rng, m: rng.uniform(0.5, 2.0, m))
    path = tmp_path / f"{name}.el"
    path.write_text(format_edge_list(g))
    return str(path)


@pytest.mark.parametrize("key", list(EXPORT_DOT_PINS), ids=" ".join)
def test_export_dot_output_bytes(capsys, tmp_path, key):
    name, metric = key
    code, out, _ = run(capsys, "export-dot", write_pinned_graph(tmp_path, name), "--metric", metric)
    assert code == 0
    assert sha256(out) == EXPORT_DOT_PINS[key]


@pytest.mark.parametrize("flags", list(ANALYZE_RING300_PINS), ids=lambda f: " ".join(f) or "text")
def test_analyze_output_bytes(capsys, tmp_path, flags):
    code, out, _ = run(capsys, "analyze", write_pinned_graph(tmp_path, "ring300"), *flags)
    assert code == 0
    assert sha256(out) == ANALYZE_RING300_PINS[flags]


# tracemalloc peak of a second call (the first fills module caches) on the
# ring300 graph, in units of 8 n^2 bytes; sensitivity compares an unweighted
# ring-chords graph with itself. Each pin sits between the peak of the code
# it guards against and the peak now: for hitting and export-dot-sc, the
# adjacency and Laplacian cached on the graph; for compare, export-dot-gb and
# sensitivity, gb's tie-test arrays held through its path-count passes, and
# for sensitivity also the first graph held while the second is described.
MEMORY_PINS = {
    "hitting": (("hitting", "{w}", "-i", "0", "-j", "1"), 3.8),  # 4.32 -> 3.32
    "compare": (("compare", "{w}"), 17.5),  # 19.34 -> 16.09
    "sensitivity": (("sensitivity", "{u}", "{u}", "--json"), 20.0),  # 21.99 -> 17.92
    "export-dot-gb": (("export-dot", "{w}", "--metric", "gb"), 17.5),  # 19.30 -> 16.04
    "export-dot-sc": (("export-dot", "{w}", "--metric", "sc"), 2.75),  # 3.25 -> 2.25
}


@pytest.mark.parametrize("name", list(MEMORY_PINS))
def test_peak_memory(capsys, tmp_path, name):
    n, (argv, pin) = 300, MEMORY_PINS[name]
    unweighted = tmp_path / "u.el"
    unweighted.write_text(format_edge_list(
        ring_chords(np.random.default_rng(300), n, lambda rng, m: np.ones(m))))
    paths = {"w": write_pinned_graph(tmp_path, "ring300"), "u": str(unweighted)}
    argv = [a.format(**paths) for a in argv]
    assert run(capsys, *argv)[0] == 0
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= pin * 8 * n * n, f"{peak / (8 * n * n):.2f} x 8n^2 > pin {pin}"


def test_analyze_text_and_csv_never_form_the_laplacian(capsys, preset_files, monkeypatch):
    # build_spectral factors L/s + J/n assembled from the edge arrays; only
    # the spectrum of --json needs L itself. A and L are the matrices the
    # builder fills with 0 (L/s + J/n fills 1/n)
    def refuse_zero_fill(fill):
        if fill == 0.0:
            raise AssertionError("A or L formed")

    watch_edge_matrix(monkeypatch, refuse_zero_fill)
    for argv in (("analyze",), ("analyze", "--csv")):
        code, out, _ = run(capsys, argv[0], preset_files["preset"], *argv[1:])
        assert code == 0
        assert sha256(out) == PRESET_PINS[argv]
    with pytest.raises(AssertionError, match="A or L formed"):
        run(capsys, "analyze", preset_files["preset"], "--json")


def test_analyze_text_and_csv_skip_the_spectrum(capsys, preset_files, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for argv in (("analyze",), ("analyze", "--csv")):
        code, out, _ = run(capsys, argv[0], preset_files["preset"], *argv[1:])
        assert code == 0
        assert sha256(out) == PRESET_PINS[argv]
    with pytest.raises(AssertionError, match="eigvalsh called"):
        run(capsys, "analyze", preset_files["preset"], "--json")


def test_numeric_commands_never_read_the_edge_tuples(capsys, preset_files, monkeypatch):
    # Graph stores its edge arrays; g.edges builds (u, v, w) tuples from them
    # on each read, for the text writers and rewire alone
    def refuse(self):
        raise AssertionError("Graph.edges read")

    monkeypatch.setattr(graph.Graph, "edges", property(refuse))
    for argv in (a for a in PRESET_PINS if a[0] != "export-dot"):
        code, out, _ = run(capsys, argv[0], preset_files["preset"], *argv[1:])
        assert code == 0
        assert sha256(out) == PRESET_PINS[argv]
    for before, after, *flags in SENSITIVITY_PINS:
        code, out, _ = run(capsys, "sensitivity", preset_files[before], preset_files[after],
                           *flags)
        assert code == 0
        assert sha256(out) == SENSITIVITY_PINS[(before, after, *flags)]


def test_preset_zero_mode_is_exact(capsys, preset_files):
    # the connected preset has one zero eigenvalue; LAPACK returns it as
    # noise of either sign (-6.06e-15)
    code, out, _ = run(capsys, "analyze", preset_files["preset"], "--json")
    assert code == 0
    evals = json.loads(out)["graph"]["eigenvalues"]
    assert len(evals) == 65
    assert evals[-1] == 0.0 and '"eigenvalues"' in out and "-0.0" not in out
    assert min(evals[:-1]) > 1e-3


def test_verify_output_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42")
    assert code == 0
    assert sha256(out) == VERIFY_SEED_42_PIN


def test_verify_seed_7_output_bytes(capsys):
    # a second seed, so a faster sweep cannot move a printed residual unseen
    code, out, _ = run(capsys, "verify", "--seed", "7")
    assert code == 0
    assert sha256(out) == VERIFY_SEED_7_PIN
