"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest perfbench -q

``test_every_metric_reported`` runs every workload once untraced and once
traced, which takes a few minutes on two cores.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REF = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _files(name, seed, tmp_path):
    work = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    session = workloads.build(name, seed, work, REF)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}, session


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    first, session1 = _files(name, 7, tmp_path)
    second, session2 = _files(name, 7, tmp_path)
    assert first == second
    args = [[a for a in op.argv or [] if not a.startswith(str(tmp_path))] for op in session1]
    assert args == [[a for a in op.argv or [] if not a.startswith(str(tmp_path))]
                    for op in session2]


def test_different_seed_different_graphs():
    for n, weighted in ((1500, True), (150, True), (80, False), (250, False)):
        a = inputs.edge_list_text(inputs.ring_chords(n, 1, weighted))
        b = inputs.edge_list_text(inputs.ring_chords(n, 2, weighted))
        assert a != b
    before = inputs.ring_chords(200, 1, False)
    assert inputs.swap_chords(before, 200, 1, 10) != inputs.swap_chords(before, 200, 2, 10)


def test_generated_graphs_have_the_stated_shape():
    edges = inputs.ring_chords(200, 3, False)
    assert len(edges) == 600 and len({(u, v) for u, v, _ in edges}) == 600
    after = inputs.swap_chords(edges, 200, 3, 10)
    degree = lambda es: sorted(sum(1 for u, v, _ in es if x in (u, v)) for x in range(200))
    assert degree(after) == degree(edges) and after != edges


def test_checks_reject_wrong_numbers():
    an = REF["preset_analyze"]
    good = json.dumps({"nodes": [{"id": i, "label": lab, "lplus_diag": d, "cstar": 1 / d}
                                 for i, (lab, d) in enumerate(zip(an["labels"], an["lplus_diag"]))],
                       "graph": {"kirchhoff": an["kirchhoff"], "kstar": 1 / an["kirchhoff"],
                                 "eigenvalues": an["eigenvalues"],
                                 "kirchhoff_convention": "trace"}})
    assert checks.check_analyze(good, "json", an) == []
    doc = json.loads(good)
    doc["nodes"][3]["lplus_diag"] += 2e-9
    assert checks.check_analyze(json.dumps(doc), "json", an)
    doc = json.loads(good)
    doc["graph"]["kirchhoff"] += 2e-9
    assert checks.check_analyze(json.dumps(doc), "json", an)
    mc = {"source": 0, "target": 1, "method": "mc",
          "estimate": {"mean": 10.0, "std_error": 0.5, "runs": 100, "seed": 3}}
    assert checks.check_hitting_mc(json.dumps(mc), 0, 1, 100, 3, exact=11.9) == []
    assert checks.check_hitting_mc(json.dumps(mc), 0, 1, 100, 3, exact=12.1)
    assert checks.check_verify("PASS x\n25/25 checks passed\n", 25) == []
    assert checks.check_verify("FAIL x\n24/25 checks passed\n", 25)


class _InstantSpawner:
    """Stands in for spawner.py: every command takes 10 ms and succeeds."""

    def __init__(self):
        self.started = []

    def run(self, argv, timeout):
        self.started.append(argv[-1])
        time.sleep(0.01)
        return 0.01, 0, "", 1024


def test_once_command_runs_once_after_a_quarter():
    ok = lambda text: []
    session = [workloads.Op("short", "analyze_s", ["short"], ok),
               workloads.Op("long", "verify_s", ["long"], ok, once=True)]
    spawner = _InstantSpawner()
    run = bench._measure(session, 0.4, spawner)
    started = spawner.started[1:]  # the first command is the BLAS warm-up
    assert started.count("long") == 1 and run.attempted == len(started)
    assert started.index("long") >= 5  # about 0.1 s of short commands first
    assert started.count("short") > started.index("long")


def test_session_time_sums_command_medians():
    session = [workloads.IMPORT, workloads.Op("a", None, ["a"], None), workloads.IMPORT]
    ops = {"import": [0.2, 0.3, 0.25], "a": [1.0, 3.0]}
    assert bench.session_time(session, ops) == 0.25 + 2.0 + 0.25


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import lapcent.cli  # noqa: F401
    import lapcent.graph
    import lapcent.verify
    import lapcent.zoo
    import tracer

    before = (np.linalg.eigh, lapcent.zoo.shortest_path_distances, lapcent.graph.Graph.csr,
              list(lapcent.verify.ALL_CHECKS))
    tr = tracer.Tracer()
    names = tr.install()
    assert "graph.Graph.csr" in names and "verify.check_mc_hitting" in names
    assert lapcent.zoo.shortest_path_distances is not before[1]
    lapcent.zoo.geodesic_closeness(lapcent.graph.parse_edge_list("0 1\n1 2\n"))
    assert tr.calls["graph.shortest_path_distances"] == 1
    assert tracer.leftover_wrappers()
    assert tr.restore() == []
    after = (np.linalg.eigh, lapcent.zoo.shortest_path_distances, lapcent.graph.Graph.csr,
             list(lapcent.verify.ALL_CHECKS))
    assert all(a is b for a, b in zip(before[:3], after[:3])) and before[3] == after[3]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "preset-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _result(workload, seed, trace):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return result["metrics"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported(trace):
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    metrics = _result("all", 5, trace)
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    expect = {f"{w['name']}.{m['name']}": m["unit"]
              for w in BENCH["workloads"] for m in wanted}
    assert {k: v["unit"] for k, v in metrics.items()} == expect
    times = [k for k, v in metrics.items() if v["unit"] == "s" and "overhead" not in k]
    assert all(metrics[k]["value"] > 0 for k in (times if trace else metrics))


def test_traced_counts_repeat():
    first, second = _result("preset-session", 9, 1), _result("preset-session", 9, 1)
    counts = [k for k, v in first.items() if v["unit"] in ("count", "flop")]
    assert counts and all(first[k] == second[k] for k in counts)
