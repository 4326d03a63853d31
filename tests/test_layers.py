"""Module layering: each module of the package imports only the package
modules on its row of ``ALLOWED``, the table README's Layout prints.  The
imports are read with ``ast``, so an import inside a function counts too."""

import ast
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
    "operators": {"errors", "systems", "words", "linalg"},
    "morphisms": {"errors", "systems", "orbits", "coding", "operators"},
    "battery": _CORE,
    "cli": _CORE | {"battery", "__init__"},
    "__init__": _CORE,
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
