import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcent import Graph, SpectralBundle
from lapcent.cli import main

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
        ("0 1 1e-310\n", "rho = nan is not finite"),
    ], ids=["p3-1e-14", "p3-1e-17", "subnormal"])
    def test_unresolvable_lplus_exit_2(self, capsys, tmp_path, text, match):
        path = tmp_path / "g.el"
        path.write_text(text)
        code, out, err = run(capsys, "analyze", str(path), "--json")
        assert code == 2 and out == ""
        assert match in err and "edge weights span" in err

    def test_analyze_forms_neither_lplus_nor_adjacency(self, capsys, p3_file, monkeypatch):
        def refuse(self):
            raise AssertionError("analyze formed an n x n matrix it does not need")

        monkeypatch.setattr(SpectralBundle, "lplus", property(refuse))
        monkeypatch.setattr(Graph, "adjacency", property(refuse))
        for fmt in ((), ("--json",), ("--csv",)):
            code, out, _ = run(capsys, "analyze", p3_file, *fmt)
            assert code == 0 and out


@st.composite
def wide_weight_graphs(draw):
    """Connected graphs (a random tree plus extra edges) with weights 10^U(-20, 3)."""
    n = draw(st.integers(2, 9))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] < p[1]), max_size=n)))
    exps = draw(st.lists(st.floats(-20.0, 3.0), min_size=len(pairs), max_size=len(pairs)))
    return "".join(f"{u} {v} {10.0 ** e!r}\n" for (u, v), e in zip(sorted(pairs), exps))


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
        for argv in (["compare", str(path)], ["sensitivity", str(path), str(path), "--json"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == ("error: subgraph centrality overflows float64: lambda_max(A) = "
                           "800.001 exceeds log(DBL_MAX / n) = 708.684\n")


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


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "census")
        assert code == 0
        assert out.startswith("PASS census-disjointness")

    def test_unattainable_tolerance_dumps_instances(self, capsys, tmp_path,
                                                    monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify", "--seed", "42",
                           "--only", "detour-average", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL detour-average" in out
        dumps = list(tmp_path.glob("verify-fail-detour-average-*.el"))
        assert dumps
        # dumped instances parse back
        from lapcent import load_edge_list
        assert load_edge_list(dumps[0]).n >= 4

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_that_cannot_fail_or_pass_is_usage_error(self, capsys, tmp_path,
                                                               monkeypatch, tol):
        # nan and inf used to pass every check at exit 0; -1 failed every
        # check and wrote five verify-fail files
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "verify", "--tolerance", tol)
        assert code == 2 and out == ""
        assert err == f"error: --tolerance must be finite and >= 0, got {float(tol)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol, code, status", [("0", 1, "FAIL"), ("1e-9", 0, "PASS")])
    def test_finite_nonnegative_tolerance_runs(self, capsys, tmp_path, monkeypatch,
                                               tol, code, status):
        # 0 is a valid bound that any rounding residual fails
        monkeypatch.chdir(tmp_path)
        got, out, _ = run(capsys, "verify", "--only", "detour-average", "--tolerance", tol)
        assert got == code
        assert out.startswith(f"{status} detour-average: max residual 1.110e-15 "
                              f"(tol {float(tol):.1e})")

    def test_spectral_override_is_the_printed_bound(self, capsys, tmp_path, monkeypatch):
        # used to print the residual divided by the override and "tol 1.0e+00"
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify", "--only", "spectral", "--tolerance", "1e-6")
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("PASS spectral-consistency: max residual ")
        assert "(tol 1.0e-06)" in line
        assert float(line.split("max residual ")[1].split()[0]) < 1e-12
        # the override compares raw residuals, so nothing is scaled
        assert line.endswith("(tol 1.0e-06); 100 graphs")

    def test_spectral_zero_tolerance_fails(self, capsys, tmp_path, monkeypatch):
        # used to end in a ZeroDivisionError traceback
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify", "--only", "spectral", "--tolerance", "0")
        assert code == 1
        assert out.startswith("FAIL spectral-consistency: max residual ")
        assert "(tol 0.0e+00)" in out.splitlines()[0]

    def test_n_below_sweep_minimum_is_usage_error(self, capsys):
        # detour-average draws n from [4, N], so N = 3 leaves it no size
        code, out, err = run(capsys, "verify", "--n", "3")
        assert code == 2 and out == ""
        assert "--n 3 is below detour-average's smallest instance size 4" in err
        code, out, _ = run(capsys, "verify", "--n", "3", "--only", "forest")
        assert code == 0 and out.startswith("PASS forest-diagonal")

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

    def test_unknown_metric(self, capsys, p3_file):
        code, _, err = run(capsys, "export-dot", p3_file, "--metric", "bogus")
        assert code == 2 and "unknown metric" in err


# SHA-256 of stdout on the bundled preset topology.
PRESET_PINS = {
    ("compare",): "3d86e1b0f615160e97896190061b9b670c130bf4077e194d3b4a2d48c91800d1",
    ("analyze", "--csv"): "d7cfb6f51074d621b571420df9b45d4f1386071dde8c3fc14cf72d0513098e04",
    ("analyze",): "520c067058ec0be08ab0a4c0d87b84d4a0fbf28de74dabcfcf510e049f3fbd3d",
    ("export-dot",): "7ee1b09f23feb503ac78aaeade2062daaef15619b18562a53cf694f52adc058f",
}


# SHA-256 of `sensitivity` stdout between the preset and its rewirings.
SENSITIVITY_PINS = {
    ("preset", "pert1"): "f540a6d71c07ae0aa91c6e65fc9530144b71b28a3c65da7fbb16a29c9ea8ae44",
    ("pert1", "pert2", "--json"): "046f28f8679a5179de85322bdacb4fc7d4da872a6d104b672506637d64f4835e",
}

# SHA-256 of `verify --seed 42` stdout.
VERIFY_SEED_42_PIN = "3d55457ca993c4c10af97d8385bb29997bf7bf77e7c521e2b2a6ab4dab46a8e6"


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
