"""Module layering: each module of the package imports only the package
modules on its row of ``ALLOWED``, the table README's Layout prints.  The
imports are read with ``ast``, so an import inside a function counts too.
The benchmark's traced run reads every module as an attribute of the
package, so the package must load them all."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchdyn

PACKAGE = Path(branchdyn.__file__).parent

_CORE = {"errors", "systems", "orbits", "words", "coding", "operators", "morphisms"}

# module -> the package modules it may import ("__init__" is the package itself)
ALLOWED = {
    "errors": set(),
    "linalg": set(),
    "systems": {"errors"},
    "orbits": {"errors", "systems"},
    "words": {"errors", "systems", "orbits"},
    "coding": {"errors", "systems", "orbits"},
    "operators": {"errors", "systems"},
    "morphisms": {"errors", "systems", "orbits", "coding", "operators"},
    "battery": _CORE,
    "cli": _CORE | {"battery", "__init__"},
    "__init__": _CORE | {"linalg"},
}


def package_imports(path: Path) -> set:
    """The package modules a source file imports, relative or absolute."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "branchdyn":
                    out.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                parts = node.module.split(".") if node.module else []
            elif node.level == 0 and node.module and node.module.split(".")[0] == "branchdyn":
                parts = node.module.split(".")[1:]
            else:
                continue
            if parts:
                out.add(parts[0])
            else:  # from . import a, b: modules, or names of the package itself
                out.update(a.name if a.name in modules else "__init__" for a in node.names)
    return out


def test_every_module_has_a_row():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_follow_the_layout(module):
    extra = package_imports(PACKAGE / f"{module}.py") - ALLOWED[module]
    assert not extra, f"{module} imports {sorted(extra)}, outside its row of the layout"


def test_every_import_form_is_read(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import __version__, battery\n"
        "from .coding import coding_prefix\n"
        "import branchdyn.orbits\n"
        "def f():\n"
        "    from branchdyn import words\n"
    )
    assert package_imports(src) == {"__init__", "battery", "coding", "orbits", "words"}


# what the benchmark's traced worker imports, then reads as attributes
TRACED_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import branchdyn.battery, branchdyn.cli
import branchdyn as bd
import trace_layers
missing = [layer for layer in trace_layers.LAYERS if not hasattr(bd, layer)]
assert not missing, f"branchdyn lacks {missing}"
tracer = trace_layers.Tracer()
tracer.install(bd)
tracer.uninstall()
"""


def test_traced_run_finds_every_layer_as_a_package_attribute():
    # a fresh interpreter: the suite itself imports modules (linalg among
    # them) that the benchmark's worker never imports by name
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_IMPORTS, str(perfbench)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
