"""The public names: every `__all__` entry resolves, and the package's
`__all__` is exactly what it imports, so a deletion cannot leave a stale
export behind."""

import importlib
import pkgutil
import types

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
