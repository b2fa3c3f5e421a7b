"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors
(including a graph whose L+ float64 cannot resolve).
Output for a fixed command line (including --seed) is byte-identical across
runs.
Each command imports the modules it runs, so a command loads only those,
and `--help` or a usage error loads no numpy-backed module.
"""

from __future__ import annotations

import argparse
import sys


def _write(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj, path):
    import json

    _write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def cmd_analyze(args) -> int:
    from .graph import load_edge_list
    from .spectral import (KIRCHHOFF_CONVENTION, build_spectral, kirchhoff_index,
                           spectral_report, topological_centrality)

    g = load_edge_list(args.graph)
    if args.json:  # the only form that prints the spectrum
        _dump_json(spectral_report(g), args.output)
        return 0
    b = build_spectral(g)
    rows = list(enumerate(zip(b.diag.tolist(), topological_centrality(b).tolist())))
    if args.csv:
        lines = ["node,label,lplus_diag,cstar"]
        lines += [f"{i},{i},{d:.12g},{c:.12g}" for i, (d, c) in rows]
    else:
        k, kstar = kirchhoff_index(b)
        lines = [
            f"nodes: {g.n}  edges: {g.m}  volume: {g.volume:g}",
            f"kirchhoff index K: {k:.6f} "
            f"(convention: {KIRCHHOFF_CONVENTION}; K* = {kstar:.6f})",
            "node  label  l+_ii      C*",
        ]
        lines += [f"{i:>4}  {i:<6} {d:<10.6f} {c:.6f}" for i, (d, c) in rows]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_compare(args) -> int:
    from .graph import load_edge_list
    from .zoo import centrality_report

    rows = centrality_report(load_edge_list(args.graph)).csv_rows()
    _write("\n".join(",".join(r) for r in rows) + "\n", args.output)
    return 0


def cmd_hitting(args) -> int:
    from .graph import load_edge_list, require_nodes
    from .walks import (approx_commute_dense, approx_hitting_dense, estimate_hitting_mc,
                        hitting_times_exact)

    g = load_edge_list(args.graph)
    i, j = args.source, args.target
    require_nodes(g, i, j)
    out = {"source": i, "target": j, "method": args.method}
    if args.method == "exact":
        ht = hitting_times_exact(g)
        out["hitting"] = float(ht.H[i, j])
        out["commute"] = float(ht.H[i, j] + ht.H[j, i])  # C[i, j], without forming C
    elif args.method == "mc":
        est = estimate_hitting_mc(g, i, j, args.runs, args.seed)
        out["estimate"] = est.to_dict()
    else:  # approx
        out["hitting"] = approx_hitting_dense(g, i, j, convention=args.convention)
        out["commute"] = approx_commute_dense(g, i, j)
        out["convention"] = args.convention
        out["note"] = "dense-regime heuristic from degrees only"
    _dump_json(out, args.output)
    return 0


def cmd_een_export(args) -> int:
    from .electrical import export_netlist
    from .graph import load_edge_list

    g = load_edge_list(args.graph)
    _write(export_netlist(g), args.output)
    return 0


def cmd_verify(args) -> int:
    from .graph import format_edge_list
    from .verify import VerifyConfig, run_checks

    cfg = VerifyConfig(seed=args.seed, max_n=args.n)
    results = run_checks(cfg, only=args.only)
    if not results:
        print(f"no check matches --only {args.only!r}", file=sys.stderr)
        return 2
    failed = 0
    for res in results:
        print(res.line())
        if not res.passed:
            failed += 1
            for idx, g in enumerate(res.failures[:5]):
                path = f"verify-fail-{res.name}-{idx}.el"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(format_edge_list(g))
                print(f"  failing instance written to {path}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_gen(args) -> int:
    custom = [opt for opt in ("core", "gateways", "subnets") if getattr(args, opt) is not None]
    if args.preset and custom:
        raise ValueError(f"--{custom[0]} conflicts with --preset {args.preset}")
    from .graph import format_edge_list
    from .topology import ABILENE_PRESET, TopologySpec, abilene_topology, gen_core_gateway

    if args.preset == "abilene":
        g = abilene_topology()
    else:
        try:
            sizes = tuple(int(x) for x in args.subnets.split(",")) if args.subnets else ()
        except ValueError:
            raise ValueError(f"--subnets must be comma-separated integers, got {args.subnets!r}")
        core = ABILENE_PRESET.core_size if args.core is None else args.core
        gateways = ABILENE_PRESET.gateway_count if args.gateways is None else args.gateways
        spec = TopologySpec(core_size=core, gateway_count=gateways, subnet_sizes=sizes)
        g = gen_core_gateway(spec)
    _write(format_edge_list(g), args.output)
    return 0


def cmd_perturb(args) -> int:
    from .graph import format_edge_list, load_edge_list
    from .topology import pert_preset

    g = load_edge_list(args.graph)
    out = pert_preset(g, args.preset)
    _write(format_edge_list(out), args.output)
    return 0


def cmd_sensitivity(args) -> int:
    from .graph import GraphError, load_edge_list
    from .topology import graph_descriptors, sensitivity_report

    before = load_edge_list(args.before)
    after = load_edge_list(args.after)
    if before.n != after.n:
        raise GraphError(f"graphs differ in size ({before.n} vs {after.n} nodes)")
    described = graph_descriptors(before)
    del before  # its distances are freed before the second graph's are computed
    rep = sensitivity_report(described, graph_descriptors(after))
    if args.json:
        _dump_json(rep.to_dict(), args.output)
    else:
        lines = [f"{'descriptor':<12} {'before':>12} {'after':>12} {'delta':>10}  dir"]
        for key in rep.deltas:
            lines.append(f"{key:<12} {rep.before[key]:>12.6f} {rep.after[key]:>12.6f} "
                         f"{rep.deltas[key]:>+10.4f}  {rep.directions[key]}")
        _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_export_dot(args) -> int:
    from .graph import GraphError, load_edge_list
    from .topology import export_dot
    from .zoo import CentralityReport, centrality_report

    if args.metric not in CentralityReport.PER_NODE:
        raise GraphError(f"unknown metric {args.metric!r}; "
                         f"pick one of {CentralityReport.PER_NODE}")
    g = load_edge_list(args.graph)
    values = getattr(centrality_report(g), args.metric)  # computes only this index
    _write(export_dot(g, values, metric=args.metric), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lapcent",
        description="Robustness centrality and Kirchhoff index from the "
                    "Laplacian pseudo-inverse. Edge lists are 'u v [w]' lines; "
                    "weights are affinities (geodesic length of an edge is 1/w).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_output(sp):
        sp.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    sp = sub.add_parser("analyze", help="per-node C* and the Kirchhoff index")
    sp.add_argument("graph")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    add_output(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("compare", help="CSV of all centrality indices, raw and max-normalized")
    sp.add_argument("graph")
    add_output(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("hitting", help="hitting times: exact, Monte Carlo, or dense approximation")
    sp.add_argument("graph")
    sp.add_argument("-i", "--source", type=int, required=True)
    sp.add_argument("-j", "--target", type=int, required=True)
    sp.add_argument("--method", choices=("exact", "mc", "approx"), default="exact")
    sp.add_argument("--runs", type=int, default=100000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--convention", choices=("source-degree", "target-degree"),
                    default="source-degree")
    add_output(sp)
    sp.set_defaults(fn=cmd_hitting)

    sp = sub.add_parser("een", help="equivalent electrical network tools")
    een_sub = sp.add_subparsers(dest="een_command", required=True)
    spe = een_sub.add_parser("export", help="netlist: one 'u v R=<1/w>' line per edge")
    spe.add_argument("graph")
    add_output(spe)
    spe.set_defaults(fn=cmd_een_export)

    sp = sub.add_parser("verify", help="run the identity/invariant suites")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--only", default=None, help="substring filter on check names")
    sp.add_argument("--n", type=int, default=None, help="override instance size caps")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("gen", help="generate a core/gateway topology")
    sp.add_argument("--preset", choices=("abilene",), default=None,
                    help="bundled 65-node preset")
    # None: the preset's value, filled in by cmd_gen
    sp.add_argument("--core", type=int, default=None)
    sp.add_argument("--gateways", type=int, default=None)
    sp.add_argument("--subnets", default=None,
                    help="comma-separated subnet sizes, one per gateway")
    add_output(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("perturb", help="apply a named degree-preserving rewiring")
    sp.add_argument("graph")
    sp.add_argument("--preset", choices=("pert1", "pert2"), required=True)
    add_output(sp)
    sp.set_defaults(fn=cmd_perturb)

    sp = sub.add_parser("sensitivity", help="before/after descriptor deltas and directions")
    sp.add_argument("before")
    sp.add_argument("after")
    sp.add_argument("--json", action="store_true")
    add_output(sp)
    sp.set_defaults(fn=cmd_sensitivity)

    sp = sub.add_parser("export-dot", help="DOT rendering colored by a metric")
    sp.add_argument("graph")
    sp.add_argument("--metric", default="cstar")
    add_output(sp)
    sp.set_defaults(fn=cmd_export_dot)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .graph import GraphError

    try:
        return args.fn(args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
