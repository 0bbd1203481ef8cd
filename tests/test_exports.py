"""The public names: every `__all__` entry resolves, and the package's
`__all__` is exactly what it imports, so a deletion cannot leave a stale
export behind.  Every export is read by the package's own modules, the
benchmark or the demos, so no public name lives for the tests alone.
The benchmark's tracing targets resolve too, so a rename cannot break
only the benchmark's set-up.  And LAPACK's Cholesky is called from
`factorize` alone, so no module can grow a second positive-definiteness
rule beside `cholesky`'s."""

import ast
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import kernel_forge as kf

MODULES = ["kernel_forge"] + [
    f"kernel_forge.{info.name}"
    for info in pkgutil.iter_modules(kf.__path__)
    if not info.name.startswith("_")  # __main__ runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing


def test_package_exports_exactly_what_it_imports():
    imported = {
        attr
        for attr, value in vars(kf).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(kf.__all__) == imported | {"__version__"}


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(kf.__file__).resolve().parent


def _reads(tree: ast.AST) -> set:
    """The names that a module's code reads: every `ast.Name` and
    `ast.Attribute` it loads, and every string constant, which is how
    `getattr(kf, name)` in the benchmark names a function.  A `def`,
    `class` or assignment does not read the names it defines, and an
    `__all__` list reads nothing.  A docstring or comment that mentions a
    name is no read of it."""
    found = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                return
            defining = defining | names
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, defining))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add((node.attr, defining))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add((node.value, defining))
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return {name for name, defining in found if name not in defining}


def test_every_export_has_a_reader_outside_the_tests():
    # aim 2's rule: a public name that nothing in src/, bench/ or demos/
    # reads is deleted.  The package __init__ only re-exports
    readers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    readers += sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    read = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in readers))
    assert sorted(set(kf.__all__) - {"__version__"} - read) == []


def _tracing_targets():
    """bench/tracing.py's TARGETS, read from its source without importing the bench package."""
    path = ROOT / "bench" / "tracing.py"
    module = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module.TARGETS


TARGETS = _tracing_targets()


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_every_tracing_target_resolves(target):
    # Instruments.install() looks each one up as below: a method in its
    # class's own namespace, a function as a module attribute
    _name, module, attr, _counter = target
    mod = importlib.import_module(f"kernel_forge.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(mod, cls_name)).get(meth))
    else:
        assert callable(getattr(mod, attr, None))


# a LAPACK Cholesky reached through numpy's or scipy's linalg, by attribute
# or by import
LAPACK_CHOLESKY = re.compile(
    r"linalg\.(cholesky|cho_factor)\b|linalg import[^\n]*\b(cholesky|cho_factor)\b"
)


def test_only_factorize_calls_lapack_cholesky():
    calls = {
        path.name: len(LAPACK_CHOLESKY.findall(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert calls.pop("factorize.py") > 0  # the pattern still sees the one owner
    assert {name: count for name, count in calls.items() if count} == {}
