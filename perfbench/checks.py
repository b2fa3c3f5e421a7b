"""Parsers for every CLI output the benchmark reads, and the checks that
decide whether an operation succeeded.

Numbers are compared, not bytes. Bounds are the program's own cross-check
bounds: 1e-9 absolute on diag(L+) (and through it on C* = 1/l+_ii) and on
K; 1e-9 relative elsewhere. A value printed with fewer digits than that
also gets one unit of its last printed place. A Monte Carlo estimate must
lie within 4 standard errors of the exact hitting time.

Each ``check_*`` returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

DIAG_TOL = 1e-9  # |l+_ii - reference|, the program's diagonal bound
K_TOL = 1e-9  # |K - reference|, the program's Kirchhoff bound
REL_TOL = 1e-9  # every other float, relative
MC_SE = 4.0  # Monte Carlo estimates within this many standard errors
DEADBAND = 1e-12  # sensitivity deltas below this read as flat
ARROWS = {1: "↑", -1: "↓", 0: "↔"}
DESCRIPTORS = ("kstar", "randic", "gc_mean", "sc_mean", "gb_mean",
               "rb_mean", "cstar_mean", "kirchhoff")
PER_NODE = ("degree", "gc", "sc", "gb", "rb", "cstar")
FIXED6 = 1e-6  # one unit in the last place of a "%.6f" field
G12 = 1e-11  # relative: one unit in the last place of a "%.12g" field


def _far(x, ref, abs_tol=0.0, rel_tol=0.0):
    return not abs(x - ref) <= abs_tol + rel_tol * abs(ref)


def _vec_problems(name, got, ref, abs_tol=0.0, rel_tol=0.0):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    if got.shape != ref.shape:
        return [f"{name}: {got.size} values, expected {ref.size}"]
    bad = np.flatnonzero(~(np.abs(got - ref) <= abs_tol + rel_tol * np.abs(ref)))
    if bad.size:
        k = int(bad[0])
        return [f"{name}[{k}] = {float(got[k])!r}, expected {float(ref[k])!r} "
                f"({bad.size} entries out of bounds)"]
    return []


def _bounded_cstar(name, c, ref_diag, slack):
    """C* = 1/l+_ii carries the diagonal bound through the reciprocal:
    |dC*| = |dl+_ii| C*^2."""
    if c.shape != ref_diag.shape:
        return [f"{name}: {c.size} values, expected {ref_diag.size}"]
    expect = 1.0 / ref_diag
    bound = DIAG_TOL * c * c + slack + G12 * np.abs(expect)
    bad = np.flatnonzero(~(np.abs(c - expect) <= bound))
    if bad.size:
        k = int(bad[0])
        return [f"{name}[{k}] = {float(c[k])!r}, expected {float(expect[k])!r}"]
    return []


# -- parsers -------------------------------------------------------------


def parse_analyze_json(text):
    doc = json.loads(text)
    nodes = doc["nodes"]
    return {
        "ids": [d["id"] for d in nodes],
        "labels": [d["label"] for d in nodes],
        "lplus_diag": [d["lplus_diag"] for d in nodes],
        "cstar": [d["cstar"] for d in nodes],
        "kirchhoff": doc["graph"]["kirchhoff"],
        "kstar": doc["graph"]["kstar"],
        "eigenvalues": doc["graph"]["eigenvalues"],
        "convention": doc["graph"]["kirchhoff_convention"],
    }


_ANALYZE_HEAD = re.compile(
    r"nodes: (\d+)  edges: (\d+)  volume: (\S+)\n"
    r"kirchhoff index K: (\S+) \(convention: (\w+); K\* = (\S+)\)\n"
    r"node  label  l\+_ii      C\*\n")


def parse_analyze_text(text):
    m = _ANALYZE_HEAD.match(text)
    if m is None:
        raise ValueError("analyze text header not recognised")
    rows = [line.split() for line in text[m.end():].splitlines()]
    return {
        "kirchhoff": float(m.group(4)), "convention": m.group(5), "kstar": float(m.group(6)),
        "ids": [int(r[0]) for r in rows], "labels": [r[1] for r in rows],
        "lplus_diag": [float(r[2]) for r in rows], "cstar": [float(r[3]) for r in rows],
    }


def parse_analyze_csv(text):
    lines = text.splitlines()
    if lines[0] != "node,label,lplus_diag,cstar":
        raise ValueError(f"analyze csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    return {"ids": [int(r[0]) for r in rows], "labels": [r[1] for r in rows],
            "lplus_diag": [float(r[2]) for r in rows],
            "cstar": [float(r[3]) for r in rows]}


def parse_compare(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    expect = ["node", "label"] + [c for name in PER_NODE for c in (name, f"{name}_norm")]
    if header != expect:
        raise ValueError(f"compare header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    cols = {name: [float(r[k]) for r in rows] for k, name in enumerate(header) if k >= 2}
    cols["ids"] = [int(r[0]) for r in rows]
    cols["labels"] = [r[1] for r in rows]
    return cols


def parse_sensitivity_json(text):
    doc = json.loads(text)
    return {part: doc[part] for part in ("before", "after", "deltas", "directions")}


def parse_sensitivity_text(text):
    lines = text.splitlines()
    if lines[0].split() != ["descriptor", "before", "after", "delta", "dir"]:
        raise ValueError(f"sensitivity header {lines[0]!r}")
    out = {"before": {}, "after": {}, "deltas": {}, "directions": {}}
    for line in lines[1:]:
        key, before, after, delta, arrow = line.split()
        out["before"][key] = float(before)
        out["after"][key] = float(after)
        out["deltas"][key] = float(delta)
        out["directions"][key] = arrow
    return out


_DOT_NODE = re.compile(r'  (\d+) \[label="([^"]*)", fillcolor="#([0-9a-f]{6})"\];')
_DOT_EDGE = re.compile(r'  (\d+) -- (\d+)(?: \[label="([^"]*)"\])?;')


def parse_dot(text):
    lines = text.splitlines()
    nodes, edges = [], []
    for line in lines[2:-1]:
        m = _DOT_NODE.fullmatch(line)
        if m:
            rgb = [int(m.group(3)[k:k + 2], 16) for k in (0, 2, 4)]
            nodes.append([int(m.group(1)), m.group(2), rgb])
            continue
        m = _DOT_EDGE.fullmatch(line)
        if m is None:
            raise ValueError(f"dot line {line!r}")
        w = float(m.group(3)) if m.group(3) else 1.0
        edges.append([int(m.group(1)), int(m.group(2)), w])
    return {"header": lines[:2], "footer": lines[-1], "nodes": nodes, "edges": edges}


def parse_netlist(text):
    out = []
    for line in text.splitlines():
        u, v, r = line.split()
        if not r.startswith("R="):
            raise ValueError(f"netlist line {line!r}")
        out.append([int(u), int(v), float(r[2:])])
    return out


def parse_edges(text):
    out = []
    for line in text.splitlines():
        parts = line.split()
        out.append([int(parts[0]), int(parts[1]), float(parts[2]) if len(parts) == 3 else 1.0])
    return out


# -- checks ----------------------------------------------------------------


def _parsed(parse, text):
    try:
        return parse(text), []
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"unparseable output: {exc}"]


def check_analyze(text, fmt, ref):
    """``ref`` holds lplus_diag, kirchhoff and eigenvalues; labels optional."""
    parse = {"json": parse_analyze_json, "text": parse_analyze_text,
             "csv": parse_analyze_csv}[fmt]
    got, problems = _parsed(parse, text)
    if problems:
        return problems
    n = len(ref["lplus_diag"])
    if got["ids"] != list(range(n)):
        return [f"node ids are not 0..{n - 1}"]
    if "labels" in ref and got["labels"] != ref["labels"]:
        problems.append("node labels differ")
    slack = {"json": 0.0, "text": FIXED6, "csv": 0.0}[fmt]
    rel = G12 if fmt == "csv" else 0.0
    problems += _vec_problems("lplus_diag", got["lplus_diag"], ref["lplus_diag"],
                              abs_tol=DIAG_TOL + slack, rel_tol=rel)
    problems += _bounded_cstar("cstar", np.asarray(got["cstar"], float),
                               np.asarray(ref["lplus_diag"], float), slack)
    if fmt == "csv":
        return problems
    k = ref["kirchhoff"]
    if _far(got["kirchhoff"], k, K_TOL + slack):
        problems.append(f"K = {got['kirchhoff']!r}, expected {k!r}")
    if _far(got["kstar"], 1.0 / k, slack, REL_TOL):
        problems.append(f"K* = {got['kstar']!r}, expected {1.0 / k!r}")
    if got["convention"] != "trace":
        problems.append(f"Kirchhoff convention {got['convention']!r}")
    if fmt == "json":
        ev = np.asarray(ref["eigenvalues"], float)
        problems += _vec_problems("eigenvalues", got["eigenvalues"], ev,
                                  abs_tol=REL_TOL * max(1.0, float(np.max(np.abs(ev)))))
    return problems


def check_compare(text, ref):
    """``ref``: per_node columns, lplus_diag, and labels (optional)."""
    got, problems = _parsed(parse_compare, text)
    if problems:
        return problems
    n = len(ref["lplus_diag"])
    if got["ids"] != list(range(n)):
        return [f"node ids are not 0..{n - 1}"]
    if "labels" in ref and got["labels"] != ref["labels"]:
        problems.append("node labels differ")
    for name in PER_NODE:
        want = np.asarray(ref["per_node"][name], float)
        if name == "cstar":
            problems += _bounded_cstar(name, np.asarray(got[name], float),
                                       np.asarray(ref["lplus_diag"], float), 0.0)
        else:
            problems += _vec_problems(name, got[name], want,
                                      abs_tol=1e-12, rel_tol=REL_TOL + G12)
        top = want.max()
        norm = want / top if top != 0 else np.zeros_like(want)
        problems += _vec_problems(f"{name}_norm", got[f"{name}_norm"], norm,
                                  abs_tol=1e-12, rel_tol=REL_TOL + G12)
    return problems


def expected_sensitivity(before, after):
    """Deltas and arrows implied by two descriptor tables."""
    deltas, arrows = {}, {}
    for key in DESCRIPTORS:
        base, new = before[key], after[key]
        if base == 0.0:
            deltas[key] = 0.0 if new == 0.0 else math.copysign(math.inf, new - base)
        else:
            deltas[key] = (new - base) / base
        d = deltas[key]
        arrows[key] = ARROWS[0 if abs(d) < DEADBAND else (1 if d > 0 else -1)]
    return deltas, arrows


def check_sensitivity(text, fmt, ref_before, ref_after):
    parse = parse_sensitivity_json if fmt == "json" else parse_sensitivity_text
    got, problems = _parsed(parse, text)
    if problems:
        return problems
    if sorted(got["deltas"]) != sorted(DESCRIPTORS):
        return [f"descriptors {sorted(got['deltas'])}"]
    deltas, arrows = expected_sensitivity(ref_before, ref_after)
    value_slack, delta_slack = (0.0, 0.0) if fmt == "json" else (FIXED6, 1e-4)
    for key in DESCRIPTORS:
        for part, ref in (("before", ref_before), ("after", ref_after)):
            abs_tol = (K_TOL if key == "kirchhoff" else 0.0) + value_slack
            if _far(got[part][key], ref[key], abs_tol, REL_TOL):
                problems.append(f"{part} {key} = {got[part][key]!r}, expected {ref[key]!r}")
        if _far(got["deltas"][key], deltas[key],
                REL_TOL * max(1.0, abs(deltas[key])) + delta_slack):
            problems.append(f"delta {key} = {got['deltas'][key]!r}, expected {deltas[key]!r}")
        if got["directions"][key] != arrows[key]:
            problems.append(f"direction {key} = {got['directions'][key]}, expected {arrows[key]}")
    return problems


def _json(text):
    return _parsed(json.loads, text)


def check_hitting_exact(text, i, j, ref):
    got, problems = _json(text)
    if problems:
        return problems
    if (got.get("source"), got.get("target"), got.get("method")) != (i, j, "exact"):
        return [f"echo {got.get('source')},{got.get('target')},{got.get('method')}"]
    for key in ("hitting", "commute"):
        if _far(got[key], ref[key], 0.0, REL_TOL):
            problems.append(f"{key} = {got[key]!r}, expected {ref[key]!r}")
    return problems


def check_hitting_mc(text, i, j, runs, seed, exact):
    got, problems = _json(text)
    if problems:
        return problems
    est = got.get("estimate", {})
    if (got.get("source"), got.get("target"), got.get("method")) != (i, j, "mc"):
        return [f"echo {got.get('source')},{got.get('target')},{got.get('method')}"]
    if (est.get("runs"), est.get("seed")) != (runs, seed):
        return [f"estimate echoes runs={est.get('runs')} seed={est.get('seed')}"]
    se = max(float(est["std_error"]), 1e-12)
    if not abs(est["mean"] - exact) <= MC_SE * se:
        problems.append(f"MC mean {est['mean']!r} is {abs(est['mean'] - exact) / se:.2f} SE "
                        f"from exact {exact!r}")
    return problems


def check_hitting_approx(text, i, j, ref):
    got, problems = _json(text)
    if problems:
        return problems
    if (got.get("source"), got.get("target"), got.get("method")) != (i, j, "approx"):
        return [f"echo {got.get('source')},{got.get('target')},{got.get('method')}"]
    if got.get("convention") != "source-degree":
        problems.append(f"convention {got.get('convention')!r}")
    for key in ("hitting", "commute"):
        if _far(got[key], ref[key], 0.0, REL_TOL):
            problems.append(f"{key} = {got[key]!r}, expected {ref[key]!r}")
    return problems


def check_edges(text, ref_edges):
    got, problems = _parsed(parse_edges, text)
    if problems:
        return problems
    if [e[:2] for e in got] != [e[:2] for e in ref_edges]:
        return [f"edge list differs ({len(got)} edges, expected {len(ref_edges)})"]
    return _vec_problems("weights", [e[2] for e in got], [e[2] for e in ref_edges],
                         rel_tol=REL_TOL)


def check_netlist(text, ref_edges):
    got, problems = _parsed(parse_netlist, text)
    if problems:
        return problems
    if [e[:2] for e in got] != [e[:2] for e in ref_edges]:
        return ["netlist edges differ"]
    return _vec_problems("R", [e[2] for e in got], [1.0 / e[2] for e in ref_edges],
                         rel_tol=REL_TOL + G12)


def check_dot(text, ref):
    """Labels and edges exactly; each fill colour channel within one step,
    since a colour is a rounded function of C*."""
    got, problems = _parsed(parse_dot, text)
    if problems:
        return problems
    if got["header"] != ref["header"] or got["footer"] != ref["footer"]:
        problems.append("dot header or footer differs")
    if [nd[:2] for nd in got["nodes"]] != [nd[:2] for nd in ref["nodes"]]:
        problems.append("dot nodes or labels differ")
    elif any(abs(a - b) > 1 for g, r in zip(got["nodes"], ref["nodes"])
             for a, b in zip(g[2], r[2])):
        problems.append("dot fill colours differ by more than one step")
    if [e[:2] for e in got["edges"]] != [e[:2] for e in ref["edges"]]:
        problems.append("dot edges differ")
    return problems


def check_verify(text, expected_checks):
    lines = [line for line in text.splitlines() if line.strip()]
    want = f"{expected_checks}/{expected_checks} checks passed"
    if not lines or lines[-1] != want:
        return [f"verify ended with {lines[-1] if lines else '<nothing>'!r}, expected {want!r}"]
    return []
