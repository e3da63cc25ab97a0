"""Static checks on the package source: no unused imports or functions, and a complete API.

The unused-import check covers the test modules too.
"""

import ast
import importlib
from pathlib import Path

import pytest

from powerchroma import build_power_graph, construct_group

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


CORE = {p.stem: exported(parse(p)) for p in MODULES if exported(parse(p)) is not None}


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
BENCH = ROOT / "perfbench"


def overrides(module: str, owner: str, name: str) -> bool:
    """True when the method replaces one a base class defines, so its caller lives there."""
    cls = getattr(importlib.import_module(f"powerchroma.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def read_names(node: ast.AST) -> tuple[set[str], set[str]]:
    """Names read, and attributes taken, by the code that runs when ``node`` runs.

    A nested def or class runs its decorators, defaults and bases there, and
    its body only once something names it. Import lines bind aliases, not
    ``Name`` nodes, and ``__all__`` lists strings, so neither counts as a use.
    """
    names, attributes = set(), set()
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(child.decorator_list)
            stack.extend(d for d in child.args.defaults + child.args.kw_defaults if d)
            continue
        if isinstance(child, ast.ClassDef):
            stack.extend(child.decorator_list + child.bases + child.keywords)
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            attributes.add(child.attr)
        stack.extend(ast.iter_child_nodes(child))
    return names, attributes


def definitions() -> dict[str, list]:
    """name -> [(module, qualified name, node, method)] for every def and class in the package.

    ``method`` marks a def in a class body.
    """
    out = {}

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                method = isinstance(node, ast.ClassDef) and not isinstance(child, ast.ClassDef)
                out.setdefault(child.name, []).append((module, f"{prefix}{child.name}", child, method))
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path.stem, parse(path), "")
    return out


def entry_names() -> tuple[set[str], set[str]]:
    """What the program's users name: the CLI entry point, perfbench's names and traced functions.

    The package's module-level code runs on import, so what it names counts
    too. Tests are not entry points: a test calling a function does not make a
    user reach it.
    """
    names = {"main"}  # powerchroma = "powerchroma.cli:main" and python -m powerchroma
    attributes = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.rglob("*.py")):
        tree = parse(path)
        found, taken = read_names(tree)
        names |= found
        attributes |= taken
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                names |= {function for _, function in ast.literal_eval(node.value)}
    return names, attributes


def reached() -> set[str]:
    """Qualified ``module.name`` of every def or class the entry names reach.

    Names resolve by spelling alone, to every def or class so called, as a
    call through an attribute does. A def in a class body is reached only
    through an attribute of its name: a bare name that matches it is some
    other binding. A reached class reaches the methods its instances run
    unnamed: the dunders and the overrides of a base class.
    """
    defs = definitions()
    names, attributes = set(), set()
    work = []

    def read(found):
        found_names, found_attributes = found
        for name in found_names - names:
            work.extend(d for d in defs.get(name, ()) if not d[3])
        for name in found_attributes - attributes:
            work.extend(defs.get(name, ()))
        names.update(found_names)
        attributes.update(found_attributes)

    read(entry_names())
    out = set()
    while work:
        module, qualified, node, _ = work.pop()
        if f"{module}.{qualified}" in out:
            continue
        out.add(f"{module}.{qualified}")
        read(read_names(node))
        if isinstance(node, ast.ClassDef):
            work.extend(
                (module, f"{qualified}.{child.name}", child, True)
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (
                    child.name.startswith("__") and child.name.endswith("__")
                    or overrides(module, node.name, child.name)
                )
            )
    return out


def test_every_function_is_used():
    reachable = reached()
    unused = sorted(
        f"{module}.{qualified}"
        for found in definitions().values()
        for module, qualified, node, _ in found
        if not isinstance(node, ast.ClassDef) and f"{module}.{qualified}" not in reachable
    )
    assert unused == []


def bench_constant(name: str) -> tuple:
    """A constant of ``perfbench/spans.py``, read from its source, not imported."""
    for node in parse(BENCH / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/spans.py defines no {name}")


@pytest.mark.parametrize("module, function", bench_constant("TRACED"), ids=lambda x: x)
def test_every_traced_function_exists(module, function):
    # a traced name that is gone makes its benchmark layer metric read null
    assert callable(getattr(importlib.import_module(f"powerchroma.{module}"), function, None))


def test_the_hooked_classes_exist():
    powergraph = importlib.import_module("powerchroma.powergraph")
    exchange = importlib.import_module("powerchroma.exchange")
    assert isinstance(powergraph.Graph, type) and isinstance(exchange.ExchangeState, type)
    state = exchange.ExchangeState(build_power_graph(construct_group("cyclic:9")))
    # a harvested counter that is gone makes its benchmark metric read null
    harvested = bench_constant("EXCHANGE_STATS")
    assert harvested and set(harvested) <= set(state.stats)
