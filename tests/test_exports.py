"""The public names: every `__all__` entry resolves, and the package's
`__all__` is exactly what it imports, so a deletion cannot leave a stale
export behind.  Every export, and every field of a public record, is read
by the package's own modules, the benchmark or the demos, so no public
name lives for the tests alone.  The benchmark's tracing targets resolve
too, and each counter reads a result of its target, so a rename cannot
break only the benchmark's set-up.  And LAPACK's Cholesky is called from
`factorize` alone, so no module can grow a second positive-definiteness
rule beside `cholesky`'s."""

import ast
import dataclasses
import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
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


def _record_fields() -> list:
    """Every field of every public dataclass that a public package module
    defines, as "Class.field"."""
    found = []
    for name in MODULES:
        for attr, obj in vars(importlib.import_module(name)).items():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == name and not attr.startswith("_")):
                found += [f"{attr}.{f.name}" for f in dataclasses.fields(obj)]
    return found


def test_every_record_field_has_a_reader_outside_the_tests():
    """Aim 2's rule for the fields of the records the exports return: a
    field that only echoes an argument back is deleted.

    A field counts as read when code under `src/kernel_forge/`, `bench/`
    or `demos/` loads an attribute of its name, inside its own class too.
    A load on `args` does not count, because argparse dests such as
    `seed` and `interval` share names with fields.  The check is by name
    alone: a field passes whenever any object anywhere loads the same
    name, so an unread `seed` or `n_paths` stays hidden while another
    object's `seed` or `n_paths` is read.
    """
    readers = sorted(PACKAGE.glob("*.py"))
    readers += sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    loaded = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
                loaded.add(node.attr)
    fields = _record_fields()
    assert fields  # the scan still sees the records
    assert [f for f in fields if f.split(".")[1] not in loaded] == []


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


# a tiny call of every target with a counter: its positional arguments,
# after the instance for a method
_PD = np.array([[2.0, 1.0], [1.0, 2.0]])
COUNTED_CALLS = {
    "gpsim.normal_block": (kf.RngSeedPolicy(0), 0, 2, 3),
    "gpsim.ito_synthesize": (kf.pair_ex2(), 2, [0.5j, -0.25], 3),
    "kernels.gram": (kf.brownian_min(), [0.5, 1.0]),
    "kernels.cross_gram": (kf.brownian_min(), [0.5], [0.25, 1.0]),
    "factorize.cholesky": (_PD,),
    "factorize.jacobi_eigs": (_PD,),
    "factorize.alt_cholesky_eigs": (_PD,),
    "fileio.format_matrix": (_PD,),
    "fileio.render_report": ("gram", {"kernel": "brownian-min"}, {"matrix": _PD}),
}
COUNTED = [t for t in TARGETS if t[3] is not None]


@pytest.mark.parametrize("target", COUNTED, ids=[t[0] for t in COUNTED])
def test_every_tracing_counter_reads_a_result_of_its_target(target):
    # a record field that a counter reads (GramMatrix.n, ridge_used, ...)
    # cannot go without this failing; the counts are exact and >= 0
    name, module, attr, counter = target
    mod = importlib.import_module(f"kernel_forge.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(mod, cls_name))[meth]
    else:
        fn = getattr(mod, attr)
    counts = counter(fn(*COUNTED_CALLS[name]))
    assert counts and all(type(v) is int and v >= 0 for v in counts.values())


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
