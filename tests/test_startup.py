"""Start-up contract: a command loads only the modules it runs.

`import lapcent.cli` loads no numpy, and each command imports its own
modules. The module sets are read in fresh interpreters; nothing here
measures time.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import lapcent
from lapcent import ABILENE_PRESET
from lapcent.cli import build_parser, main
from lapcent.walks import CONVENTIONS

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "lapcent" or m.startswith("lapcent."))))
"""


def loaded_after(script):
    """The lapcent modules loaded after `script` runs in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script + REPORT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def preset_file(tmp_path):
    path = str(tmp_path / "preset.el")
    assert main(["gen", "--preset", "abilene", "-o", path]) == 0
    return path


def test_cli_import_loads_no_numpy_and_analyze_only_graph_and_spectral(tmp_path):
    path = preset_file(tmp_path)
    script = ("import os, sys\n"
              "import lapcent.cli\n"
              "assert 'numpy' not in sys.modules, 'import lapcent.cli loaded numpy'\n"
              "for argv in (['--help'], ['analyze']):  # help, and a usage error\n"
              "    try:\n"
              "        lapcent.cli.main(argv)\n"
              "    except SystemExit:\n"
              "        pass\n"
              "assert 'numpy' not in sys.modules, 'the parser loaded numpy'\n"
              f"assert lapcent.cli.main(['analyze', {path!r}, '-o', os.devnull]) == 0\n")
    assert loaded_after(script) == {"lapcent", "lapcent.cli", "lapcent.graph",
                                    "lapcent.spectral"}


def test_exact_hitting_loads_no_spectral_or_report_module(tmp_path):
    path = preset_file(tmp_path)
    script = ("import os\n"
              "from lapcent.cli import main\n"
              f"assert main(['hitting', {path!r}, '-i', '0', '-j', '64', '-o', os.devnull]) == 0\n")
    loaded = loaded_after(script)
    assert "lapcent.walks" in loaded
    assert not loaded & {f"lapcent.{m}" for m in ("spectral", "zoo", "forests", "topology",
                                                  "electrical", "verify")}


def test_every_public_name_resolves_and_is_listed():
    listed = dir(lapcent)
    for name in lapcent.__all__:
        assert getattr(lapcent, name) is not None
        assert name in listed
    assert lapcent.Graph is sys.modules["lapcent.graph"].Graph


def test_convention_choices_match_walks():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    [action] = [a for a in commands.choices["hitting"]._actions
                if "--convention" in a.option_strings]
    assert tuple(action.choices) == CONVENTIONS


def test_gen_defaults_to_the_preset_core_and_gateways(tmp_path):
    subnets = ",".join(["3"] * ABILENE_PRESET.gateway_count)
    default, explicit = tmp_path / "default.el", tmp_path / "explicit.el"
    assert main(["gen", "--subnets", subnets, "-o", str(default)]) == 0
    assert main(["gen", "--core", str(ABILENE_PRESET.core_size),
                 "--gateways", str(ABILENE_PRESET.gateway_count),
                 "--subnets", subnets, "-o", str(explicit)]) == 0
    assert default.read_bytes() == explicit.read_bytes()
