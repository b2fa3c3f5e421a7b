import hashlib
import json

import numpy as np
import pytest

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


class TestCompare:
    def test_csv_shape(self, capsys, p3_file):
        code, out, _ = run(capsys, "compare", p3_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("node,label,degree,degree_norm")
        assert len(lines) == 4


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

    @pytest.mark.parametrize("method", ["exact", "approx", "mc"])
    def test_out_of_range_ids_exit_2(self, capsys, p3_file, method):
        # -1 used to index from the end; n raised IndexError or walked
        # until the step cap
        for i, j in (("-1", "0"), ("0", "3")):
            code, out, err = run(capsys, "hitting", p3_file, "-i", i, "-j", j,
                                 "--method", method, "--runs", "10")
            assert code == 2 and out == ""
            assert "outside 0..2" in err


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
    ("pert1", "pert2", "--json"): "1f52aa279454865a1a96e6a3db187b37d7c4cbc197d785dfa209920c02f15383",
}

# SHA-256 of `verify --seed 42` stdout.
VERIFY_SEED_42_PIN = "294e47506d74cbfd7237e5fc98908ac9b66518eb23f15b677fda9caec7c52625"


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
