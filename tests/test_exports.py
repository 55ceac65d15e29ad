import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import lftident

MODULES = ["lftident"] + [f"lftident.{m.name}" for m in pkgutil.iter_modules(lftident.__path__)]
SRC = Path(lftident.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Public names, and public methods and properties of public classes, that
# nothing under src/lftident references, each with the reason it stays
# public.  Every other one must have a caller there.
UNREFERENCED_OK = {
    "lftident.model.save_model":
        "the canonical model writer: the benchmark and the tests write model files with it",
    "lftident.sloppiness.spectral_membership":
        "the documented per-frequency spectral-norm membership predicate",
    "lftident.oracle.ellipsoid_empirical_check":
        "the documented empirical ellipsoid check that acceptance criterion 7 runs",
    "lftident.response.g_blocks":
        "the one-point transfer-block sweep: the benchmark tracer spans it and the tests "
        "take it as the per-frequency reference",
    "lftident.identifiability.pi_at":
        "the benchmark tracer spans it",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is deleted breaks
    # ``from lftident.<module> import *``.
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _bindings(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Lines of the top-level statement that binds each name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.ImportFrom):
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        out.update((n, (node.lineno, node.end_lineno)) for n in names)
    return out


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """Every name, attribute and from-imported name or module, with its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out += [(a.name, node.lineno) for a in node.names]
            if node.module:
                out.append((node.module.rsplit(".", 1)[-1], node.lineno))
    return out


def _members(cls: ast.ClassDef):
    """``(name, node)`` of each public method and property a class body defines."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            names = [item.name]
        elif (isinstance(item, ast.Assign) and isinstance(item.value, ast.Call)
              and getattr(item.value.func, "id", None) == "property"):
            names = [t.id for t in item.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((n, item) for n in names if not n.startswith("_"))


def _unreferenced(name: str) -> list[str]:
    """The __all__ names of module ``name``, and the public methods and
    properties of its public classes, that no code under src/lftident
    references outside the statement that defines them.  A member counts as
    referenced by any attribute of its name."""
    mod = importlib.import_module(name)
    trees = {p: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    own = Path(mod.__file__)
    spans = _bindings(trees[own])
    public = getattr(mod, "__all__", ())
    defined = {f"{name}.{n}": (n, *spans.get(n, (0, -1))) for n in public}
    for node in trees[own].body:
        if isinstance(node, ast.ClassDef) and node.name in public:
            defined.update((f"{name}.{node.name}.{n}", (n, item.lineno, item.end_lineno))
                           for n, item in _members(node))
    refs = {path: _references(tree) for path, tree in trees.items()}
    return [qual for qual, (n, lo, hi) in defined.items()
            if not any(ref == n and not (path == own and lo <= line <= hi)
                       for path, found in refs.items() for ref, line in found)]


@pytest.mark.parametrize("name", [m for m in MODULES if m != "lftident.testing"])
def test_public_names_have_a_caller_in_src(name):
    # A public helper that only tests call belongs in the tests; an
    # allowlisted name that gains a caller leaves the allowlist.
    unreferenced = _unreferenced(name)
    allowed = sorted(n for n in UNREFERENCED_OK
                     if max((m for m in MODULES if n.startswith(f"{m}.")), key=len) == name)
    assert sorted(unreferenced) == allowed


def test_traced_names_resolve():
    # bench/tracer.py wraps these functions for a traced run and fails on a
    # missing one; the bench tests that would catch it are not in tier 1.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spanned = [(mod, n) for mod, names in tracer.SPANNED.values() for n in names]
    assert spanned and all(mod.__name__.startswith("lftident.") for mod, _ in spanned)
    missing = [f"{mod.__name__}.{n}" for mod, n in spanned if not callable(getattr(mod, n, None))]
    assert not missing, f"bench/tracer.py spans undefined functions {missing}"
