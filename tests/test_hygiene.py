"""Static checks on the package source: no unused imports or functions, and a complete API.

The unused-import check covers the test modules too.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powerchroma"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree: ast.Module) -> list[str] | None:
    """The module's ``__all__`` list, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


def defined(tree: ast.Module) -> set[str]:
    """Names bound at the top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def imported(tree: ast.Module) -> set[str]:
    """Names bound by import statements anywhere in the module, less ``__future__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus those it lists in ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | set(exported(tree) or ())


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    assert sorted(imported(tree) - used(tree)) == []


CORE = {
    p.stem: exported(parse(p))
    for p in MODULES
    if p.stem != "fixtures" and exported(parse(p)) is not None
}


def test_core_modules_found():
    assert {"coloring", "exchange", "groups", "oracle", "overfull", "powergraph", "toolkit"} <= set(CORE)


@pytest.mark.parametrize("module", sorted(CORE))
def test_all_names_defined_and_reexported(module):
    reexported = set()
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            reexported.update(a.asname or a.name for a in node.names)
    names = CORE[module]
    assert sorted(set(names) - defined(parse(PACKAGE / f"{module}.py"))) == []
    assert sorted(set(names) - reexported) == []


ROOT = PACKAGE.parent.parent
# A test calling a function does not make a workload reach it, so only the
# package and the benchmark count as callers.
USE_DIRS = ("src", "perfbench")

# Functions nothing in src/ or perfbench/ calls, kept on purpose.
UNREACHED = {
    "fixtures.c15_reference_coloring": "shipped reference data",
    "fixtures.k15_base_table": "shipped reference data",
    "fixtures.k15_exchanged_table": "shipped reference data",
    "fixtures.nonabelian21_group": "shipped reference data",
    "groups.euler_phi": "the edge count from element orders sums euler_phi terms",
}


def functions(tree: ast.Module):
    """(qualified name, class name or None, name) of every def in the module, nested too."""
    out = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}{child.name}", owner, child.name))
                visit(child, None, f"{prefix}{child.name}.")
            else:
                visit(child, owner, prefix)

    visit(tree, None, "")
    return out


def references() -> set[str]:
    """Every name read and attribute taken in src/ and perfbench/, and perfbench's strings.

    Import lines bind aliases, not ``Name`` nodes, and ``__all__`` lists strings,
    so neither counts as a use. The benchmark's tracer names the functions it
    wraps as strings, so a string constant in perfbench/ counts.
    """
    names = set()
    for folder in USE_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif folder == "perfbench" and isinstance(node, ast.Constant) and type(node.value) is str:
                    names.add(node.value)
    return names


def overrides(module: str, owner: str, name: str) -> bool:
    """True when the method replaces one a base class defines, so its caller lives there."""
    cls = getattr(importlib.import_module(f"powerchroma.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_function_is_used():
    used_names = references()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, owner, name in functions(parse(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in used_names:
                continue
            if owner is not None and overrides(path.stem, owner, name):
                continue
            unused.append(f"{path.stem}.{qualified}")
    # an exempt name that something now calls is a stale entry
    assert sorted(set(UNREACHED) - set(unused)) == []
    assert [name for name in unused if name not in UNREACHED] == []
