"""perfbench's tracer wraps lapcent functions by name; each name must resolve.

The lists are read from the tracer's source with `ast`, without importing
it, so no bytecode is written under perfbench/.
"""

import ast
import importlib
from pathlib import Path

from lapcent import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_constant(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def test_every_tracer_target_resolves():
    targets = tracer_constant("TARGETS")
    targets += [("lapcent.cli", f"cmd_{c}") for c in tracer_constant("CLI_COMMANDS")]
    assert len(targets) > 30
    for module, attr in targets:
        holder = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            holder = getattr(holder, part)
        # the tracer replaces the holder's own entry, so the name must live there
        assert callable(vars(holder).get(leaf)), f"{module}.{attr}"
    assert verify.ALL_CHECKS
