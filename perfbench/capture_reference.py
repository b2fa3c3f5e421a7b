"""Record the program's outputs on the fixed preset inputs as the reference
the benchmark checks against, after confirming them with the benchmark's
own oracle.

Run from the repository root:  python3 perfbench/capture_reference.py
It rewrites perfbench/reference.json. Graph files go to a temporary
directory under .perfbench/ that is removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import oracle

HERE = Path(__file__).resolve().parent


def _cli(root: Path, *argv) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "lapcent.cli", *argv], check=True,
                          capture_output=True, text=True, env=env, cwd=root).stdout


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench" / f"capture-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ref = capture(root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


def capture(root: Path, work: Path) -> dict:
    files = {}
    files["preset"] = _cli(root, "gen", "--preset", "abilene")
    (work / "preset.el").write_text(files["preset"], encoding="utf-8")
    files["pert1"] = _cli(root, "perturb", str(work / "preset.el"), "--preset", "pert1")
    (work / "pert1.el").write_text(files["pert1"], encoding="utf-8")
    files["pert2"] = _cli(root, "perturb", str(work / "pert1.el"), "--preset", "pert2")
    (work / "pert2.el").write_text(files["pert2"], encoding="utf-8")
    preset = str(work / "preset.el")

    an = checks.parse_analyze_json(_cli(root, "analyze", preset, "--json"))
    cmp = checks.parse_compare(_cli(root, "compare", preset))
    ref = dict(files)
    ref["preset_analyze"] = {k: an[k] for k in ("lplus_diag", "kirchhoff", "eigenvalues",
                                                "labels")}
    ref["preset_compare"] = {"per_node": {k: cmp[k] for k in checks.PER_NODE},
                             "lplus_diag": an["lplus_diag"], "labels": cmp["labels"]}
    for key, (a, b) in {"sensitivity_pert1": ("preset", "pert1"),
                        "sensitivity_pert2": ("pert1", "pert2")}.items():
        doc = checks.parse_sensitivity_json(
            _cli(root, "sensitivity", str(work / f"{a}.el"), str(work / f"{b}.el"), "--json"))
        ref[key] = {"ref_before": doc["before"], "ref_after": doc["after"]}
    ref["preset_dot"] = checks.parse_dot(_cli(root, "export-dot", preset))

    # The recorded outputs must agree with the oracle and pass every check.
    edges = {k: checks.parse_edges(v) for k, v in files.items()}
    n = len(an["lplus_diag"])
    ind = {k: oracle.indices(e, n) for k, e in edges.items()}
    problems = checks.check_analyze(_cli(root, "analyze", preset, "--json"), "json",
                                    dict(oracle.spectral(edges["preset"], n)))
    problems += checks.check_compare(
        _cli(root, "compare", preset),
        {"per_node": ind["preset"]["per_node"], "lplus_diag": ind["preset"]["lplus_diag"]})
    for key, (a, b) in {"sensitivity_pert1": ("preset", "pert1"),
                        "sensitivity_pert2": ("pert1", "pert2")}.items():
        for side, which in (("ref_before", a), ("ref_after", b)):
            want, got = ind[which]["descriptors"], ref[key][side]
            problems += [f"{key} {side} {d}" for d in checks.DESCRIPTORS
                         if not np.isclose(got[d], want[d], rtol=checks.REL_TOL, atol=0)]
    if problems:
        raise SystemExit("reference disagrees with the oracle:\n" + "\n".join(problems))
    return ref


if __name__ == "__main__":
    sys.exit(main())
