"""In-process spans around lapcent's public functions.

``Tracer.install`` wraps each listed function and puts the wrapper in place
of every reference a ``lapcent`` module holds: a module attribute (``zoo``
imports ``shortest_path_distances`` by name), a class attribute
(``Graph.csr``), or an entry of ``verify.ALL_CHECKS``. numpy's ``eigh``,
``inv`` and ``solve`` are wrapped on ``numpy.linalg`` itself, which is
where lapcent looks them up. ``restore`` puts every original back and
reports any reference still pointing at a wrapper.

A span records its name, parent, start and end. Self time is a span's
duration minus the durations of its child spans. Counts ride along: calls
per function, walk steps, scanned trees, and a flop estimate for the dense
linear algebra computed from matrix sizes (not measured).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

_MARK = "__perfbench_span__"

# (module, dotted attribute) -> span name. The verify checks are added from
# verify.ALL_CHECKS at install time.
TARGETS = [
    ("lapcent.graph", "load_edge_list"),
    ("lapcent.graph", "Graph.csr"),
    ("lapcent.graph", "components"),
    ("lapcent.graph", "shortest_path_distances"),
    ("lapcent.spectral", "build_spectral"),
    ("lapcent.spectral", "topological_centrality"),
    ("lapcent.spectral", "kirchhoff_index"),
    ("lapcent.spectral", "spectral_report"),
    ("numpy.linalg", "eigh"),
    ("numpy.linalg", "inv"),
    ("numpy.linalg", "solve"),
    ("lapcent.zoo", "geodesic_closeness"),
    ("lapcent.zoo", "geodesic_betweenness"),
    ("lapcent.zoo", "subgraph_centrality"),
    ("lapcent.zoo", "randomwalk_betweenness"),
    ("lapcent.zoo", "centrality_report"),
    ("lapcent.walks", "hitting_times_exact"),
    ("lapcent.walks", "estimate_hitting_mc"),
    ("lapcent.walks", "estimate_visits_mc"),
    ("lapcent._kernels", "walk_steps"),
    ("lapcent._kernels", "walk_visits"),
    ("lapcent._kernels", "tree_scan"),
    ("lapcent.forests", "forest_census"),
    ("lapcent.electrical", "voltages"),
    ("lapcent.electrical", "export_netlist"),
    ("lapcent.topology", "sensitivity_report"),
    ("lapcent.topology", "pert_preset"),
    ("lapcent.topology", "export_dot"),
    ("lapcent.verify", "run_checks"),
    ("lapcent.cli", "main"),
]
CLI_COMMANDS = ("analyze", "compare", "hitting", "een_export", "verify", "gen",
                "perturb", "sensitivity", "export_dot")


def _lapcent_modules():
    return [(name, m) for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lapcent" or name.startswith("lapcent."))]


def span_name(module: str, attr: str) -> str:
    """``<module>.<attr>`` without the ``lapcent.`` prefix. ``_kernels`` is
    named ``kernels``, since a metric name starts with a letter."""
    short = "numpy.linalg" if module == "numpy.linalg" else module.split(".", 1)[1].lstrip("_")
    return f"{short}.{attr}"


def _batch_n(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1, shape[-1]


def _flops(name, args, result):
    """Textbook operation counts: eigh with vectors ~9n^3 (symmetric QR),
    inv ~2n^3 (LU plus inversion), solve ~2n^3/3 + 2n^2 per right-hand side."""
    if name == "numpy.linalg.eigh":
        batch, n = _batch_n(args[0])
        return batch * 9 * n ** 3
    if name == "numpy.linalg.inv":
        batch, n = _batch_n(args[0])
        return batch * 2 * n ** 3
    if name == "numpy.linalg.solve":
        batch, n = _batch_n(args[0])
        b = np.shape(args[1])
        rhs = 1 if len(b) == 1 else b[-1]
        return batch * (2 * n ** 3 // 3 + 2 * n * n * rhs)
    return 0


def _extra_counts(name, args, result):
    """Work counts the kernels report through their results."""
    if name == "kernels.walk_steps":
        steps = np.asarray(result)
        return {"steps": int(steps[steps >= 0].sum())}
    if name == "kernels.walk_visits":
        return {"steps": int(round(float(np.sum(result[0]))))}
    if name == "kernels.tree_scan":
        n = int(args[0])
        return {"trees": n ** (n - 2) if n >= 2 else 1}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent id, name, start, end]
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, child time]
        self._patches = []  # (holder, key, original)
        self._t0 = time.perf_counter()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            tracer.spans.append([sid, parent, name, 0.0, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.self_s[name] += dur - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.spans[sid][3:] = [start - tracer._t0, end - tracer._t0]
            tracer.counts["linalg.flop_est"] += _flops(name, args, result)
            for key, value in _extra_counts(name, args, result).items():
                tracer.counts[f"{name}.{key}"] += value
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, _MARK, name)
        return wrapper

    def _patch(self, holder, key, value):
        if isinstance(holder, list):
            self._patches.append((holder, key, holder[key]))
            holder[key] = value
        else:
            self._patches.append((holder, key, holder.__dict__[key]))
            setattr(holder, key, value)

    def install(self):
        """Wrap every target; returns the span names installed."""
        lap_modules = [m for _, m in _lapcent_modules()]
        verify = sys.modules["lapcent.verify"]
        targets = list(TARGETS)
        targets += [("lapcent.cli", f"cmd_{c}") for c in CLI_COMMANDS]
        targets += [("lapcent.verify", fn.__name__) for _, fn in verify.ALL_CHECKS]
        names = []
        for module, attr in targets:
            holder = sys.modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                holder = getattr(holder, part)
            original = holder.__dict__[leaf]
            name = span_name(module, attr)
            wrapper = self._wrap(name, original)
            names.append(name)
            self._patch(holder, leaf, wrapper)
            if isinstance(holder, type):  # a method: the class is the only holder
                continue
            for mod in lap_modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not holder:
                        self._patch(mod, key, wrapper)
            for k, (check, fn) in enumerate(verify.ALL_CHECKS):
                if fn is original:
                    self._patch(verify.ALL_CHECKS, k, (check, wrapper))
        return names

    def restore(self):
        """Undo every patch, newest first; returns references still wrapped."""
        while self._patches:
            holder, key, original = self._patches.pop()
            if isinstance(holder, list):
                holder[key] = original
            else:
                setattr(holder, key, original)
        return leftover_wrappers()

    def metrics(self):
        """Per-span self time and calls, the extra counts, steps per second."""
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.self_s"] = self.self_s[name]
            if not name.startswith("verify.check_"):
                out[f"{name}.calls"] = self.calls[name]
        out.update(self.counts)
        busy = self.self_s.get("kernels.walk_steps", 0.0)
        steps = self.counts.get("kernels.walk_steps.steps", 0)
        out["kernels.walk_steps.steps_per_s"] = steps / busy if busy > 0 else 0.0
        return out

    def layer_self_s(self):
        """Self time summed per layer: the lapcent module, or numpy.linalg."""
        layers = defaultdict(float)
        for name, value in self.self_s.items():
            layer = "numpy.linalg" if name.startswith("numpy.linalg.") else name.split(".")[0]
            layers[layer] += value
        return dict(layers)


def leftover_wrappers():
    """Every reference in lapcent, numpy.linalg or verify.ALL_CHECKS that is
    still a span wrapper."""
    found = []
    holders = _lapcent_modules()
    holders.append(("numpy.linalg", sys.modules["numpy.linalg"]))
    graph = sys.modules.get("lapcent.graph")
    if graph is not None:
        holders.append(("lapcent.graph.Graph", graph.Graph))
    for name, holder in holders:
        for key, value in list(vars(holder).items()):
            if hasattr(value, _MARK):
                found.append(f"{name}.{key}")
    verify = sys.modules.get("lapcent.verify")
    if verify is not None:
        found += [f"verify.ALL_CHECKS[{k}]" for k, (_, fn) in enumerate(verify.ALL_CHECKS)
                  if hasattr(fn, _MARK)]
    return found
