"""The two workloads: which CLI commands a session issues, on which inputs,
and how each output is checked.

Every workload reports every end-to-end metric, so each session issues at
least one command of each kind. What differs is the input and the mix:

* ``preset-session``: an analyst's session on the 65-node preset. Inputs are
  tiny, so interpreter start, imports, parsing and output formatting make up
  most of each call. It bypasses every asymptotic optimisation and catches
  one that adds import, warm-up or compile cost. Its Monte Carlo walks are
  short and its ``verify`` runs the single ``generator`` check, so each
  measures the fixed cost of reaching that layer.
* ``large-graphs``: inputs where each big layer dominates its own command.
  Seeded ring-plus-chords graphs (m = 3n): ``analyze`` at n=1500
  (spectral), ``compare`` at n=150 weighted (geodesic and current flow),
  ``sensitivity`` on an n=80 unweighted pair (BFS geodesics), ``hitting``
  exact at n=250 (n linear solves). Then the oracles, where the
  ``_kernels`` layer does almost all the work: the full ``verify``
  (exhaustive tree scans dominate), once per run, and Monte Carlo hitting
  with 1000 walks, shorter on the preset and long and heavy-tailed end to
  end on a 20-node path. The sizes keep each command other than
  ``verify`` to about one second, so that a run holds several samples of
  each.

Monte Carlo pairs and walks are fixed (see ``MC_SEED``), so their work does
not depend on the seed.

The machine this was tuned on slows a process to half speed for stretches
of 5-30 s. A run's median only settles if a metric has many samples spread
over the whole run, so sessions are short and the short commands recur.
An op marked ``once`` (the full ``verify``) runs a single time per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
import inputs
import oracle

WORKLOADS = ("preset-session", "large-graphs")
PRESET_N = 65
# Every Monte Carlo command makes 1000 walks from the fixed walk seed 1.
# Hitting times are skewed, so the 4-SE rule with the sample standard error
# fails by chance on some seeds although the estimate is unbiased: on the
# preset pair (0, 30), walk seed 110 read 4.09 SE from exact, while the
# z-scores of seeds 100-179 had a standard deviation of 0.99. With a fixed
# walk seed a failed check means a wrong program.
MC_RUNS = 1000
MC_SEED = 1
# (preset pair, path length) per workload. In preset-session the walks are
# short, 56 and 49 steps on average, so the command measures the fixed cost
# of reaching the kernels. In large-graphs they are 246 steps (core node to
# a leaf) and 361 steps (end to end on P20, heavy-tailed), so the kernels
# do most of the work.
MC = {"preset-session": ((0, 1), 8), "large-graphs": ((0, 30), 20)}
LARGE = {"analyze": 1500, "compare": 150, "sensitivity": 80, "hitting": 250}
SENSITIVITY_SWAPS = 10
VERIFY = {"preset-session": (["--only", "generator"], 1), "large-graphs": ([], 25)}


@dataclass
class Op:
    key: str  # names the operation in the per-operation table
    metric: str | None  # end-to-end metric it feeds, besides session_s
    argv: list | None  # arguments after ``lapcent``; None: only import lapcent.cli
    check: Callable[[str], list]  # stdout -> problems
    once: bool = False  # run a single time per run


# setup_s: what every CLI call pays before it reads input. It recurs in each
# session so that its samples spread over the whole run.
IMPORT = Op("import", "setup_s", None, lambda text: [])


def _write(work: Path, name: str, edges) -> str:
    path = work / name
    path.write_text(inputs.edge_list_text(edges), encoding="utf-8")
    return str(path)


def _exact_op(graph_file, edges, n, pair, tag=""):
    i, j = pair
    return Op(f"hitting-exact{tag}", "hitting_exact_s",
              ["hitting", graph_file, "-i", str(i), "-j", str(j), "--method", "exact"],
              partial(checks.check_hitting_exact, i=i, j=j, ref=oracle.hitting(edges, n, i, j)))


def _mc_op(graph_file, edges, n, pair, runs, seed, metric="hitting_mc_s", tag=""):
    i, j = pair
    return Op(f"hitting-mc{tag}", metric,
              ["hitting", graph_file, "-i", str(i), "-j", str(j), "--method", "mc",
               "--runs", str(runs), "--seed", str(seed)],
              partial(checks.check_hitting_mc, i=i, j=j, runs=runs, seed=seed,
                      exact=oracle.hitting(edges, n, i, j)["hitting"]))


def _verify_op(name, seed):
    extra, count = VERIFY[name]
    return Op("verify", "verify_s", ["verify", "--seed", str(seed)] + extra,
              partial(checks.check_verify, expected_checks=count), once=not extra)


def build(name: str, seed: int, work: Path, ref: dict) -> list:
    """Write the workload's inputs under ``work`` and return one session."""
    preset = checks.parse_edges(ref["preset"])
    mc_pair, path_n = MC[name]
    path_edges = inputs.path(path_n)
    path_file = _write(work, "path.el", path_edges)
    path_mc = _mc_op(path_file, path_edges, path_n, (0, path_n - 1), MC_RUNS, MC_SEED,
                     metric="hitting_mc_path_s", tag="-path")
    preset_file = _write(work, "preset.el", preset)
    preset_mc = _mc_op(preset_file, preset, PRESET_N, mc_pair, MC_RUNS, MC_SEED)

    if name == "preset-session":
        pert1 = checks.parse_edges(ref["pert1"])
        pert1_file = _write(work, "pert1.el", pert1)
        pert2_file = _write(work, "pert2.el", checks.parse_edges(ref["pert2"]))
        an = ref["preset_analyze"]
        pair = inputs.pick_pair(PRESET_N, name, seed)
        return [
            IMPORT,
            Op("gen", None, ["gen", "--preset", "abilene"],
               partial(checks.check_edges, ref_edges=preset)),
            Op("analyze-text", "analyze_s", ["analyze", preset_file],
               partial(checks.check_analyze, fmt="text", ref=an)),
            Op("analyze-json", "analyze_s", ["analyze", preset_file, "--json"],
               partial(checks.check_analyze, fmt="json", ref=an)),
            Op("analyze-csv", "analyze_s", ["analyze", preset_file, "--csv"],
               partial(checks.check_analyze, fmt="csv", ref=an)),
            IMPORT,
            Op("compare", "compare_s", ["compare", preset_file],
               partial(checks.check_compare, ref=ref["preset_compare"])),
            Op("perturb-pert1", None, ["perturb", preset_file, "--preset", "pert1"],
               partial(checks.check_edges, ref_edges=pert1)),
            Op("perturb-pert2", None, ["perturb", pert1_file, "--preset", "pert2"],
               partial(checks.check_edges, ref_edges=checks.parse_edges(ref["pert2"]))),
            Op("sensitivity-text", "sensitivity_s", ["sensitivity", preset_file, pert1_file],
               partial(checks.check_sensitivity, fmt="text", **ref["sensitivity_pert1"])),
            Op("sensitivity-json", "sensitivity_s",
               ["sensitivity", pert1_file, pert2_file, "--json"],
               partial(checks.check_sensitivity, fmt="json", **ref["sensitivity_pert2"])),
            IMPORT,
            Op("export-dot", None, ["export-dot", preset_file],
               partial(checks.check_dot, ref=ref["preset_dot"])),
            Op("een-export", None, ["een", "export", preset_file],
               partial(checks.check_netlist, ref_edges=preset)),
            _exact_op(preset_file, preset, PRESET_N, pair),
            IMPORT,
            preset_mc,
            Op("hitting-approx", None,
               ["hitting", preset_file, "-i", str(pair[0]), "-j", str(pair[1]),
                "--method", "approx"],
               partial(checks.check_hitting_approx, i=pair[0], j=pair[1],
                       ref=oracle.approx(preset, PRESET_N, *pair))),
            path_mc,
            _verify_op(name, seed),
        ]

    if name == "large-graphs":
        n_a, n_c, n_s, n_h = (LARGE[k] for k in ("analyze", "compare", "sensitivity", "hitting"))
        big = inputs.ring_chords(n_a, seed, weighted=True)
        cmp_edges = inputs.ring_chords(n_c, seed, weighted=True)
        before = inputs.ring_chords(n_s, seed, weighted=False)
        after = inputs.swap_chords(before, n_s, seed, SENSITIVITY_SWAPS)
        hit = inputs.ring_chords(n_h, seed, weighted=False)
        big_file = _write(work, "analyze.el", big)
        cmp_file = _write(work, "compare.el", cmp_edges)
        before_file = _write(work, "before.el", before)
        after_file = _write(work, "after.el", after)
        hit_file = _write(work, "hitting.el", hit)
        analyze = Op("analyze-json", "analyze_s", ["analyze", big_file, "--json"],
                     partial(checks.check_analyze, fmt="json", ref=oracle.spectral(big, n_a)))
        cmp_ref = oracle.indices(cmp_edges, n_c)
        sens_ref = {"ref_before": oracle.indices(before, n_s)["descriptors"],
                    "ref_after": oracle.indices(after, n_s)["descriptors"]}
        # The full verify takes about a quarter of a run, so it runs once, a
        # quarter of the way in; the other commands fill the rest of the run.
        return [
            analyze,
            IMPORT,
            preset_mc,
            Op("compare", "compare_s", ["compare", cmp_file],
               partial(checks.check_compare, ref=cmp_ref)),
            path_mc,
            _verify_op(name, seed),
            Op("sensitivity-json", "sensitivity_s",
               ["sensitivity", before_file, after_file, "--json"],
               partial(checks.check_sensitivity, fmt="json", **sens_ref)),
            IMPORT,
            _exact_op(hit_file, hit, n_h, inputs.pick_pair(n_h, name, seed)),
        ]

    raise ValueError(f"unknown workload {name!r}")
