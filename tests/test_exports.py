"""The package namespace: one public name per library export."""

import importlib
import pkgutil

import otocap as oc


def test_package_exports_resolve_and_cover_every_module():
    missing = [name for name in oc.__all__ if not hasattr(oc, name)]
    assert not missing, f"otocap.__all__ names without a binding: {missing}"

    modules = [info.name for info in pkgutil.iter_modules(oc.__path__)]
    assert "matrices" in modules and "bounds" in modules
    for name in modules:
        if name == "cli":
            continue
        module = importlib.import_module(f"otocap.{name}")
        for export in module.__all__:
            assert export in oc.__all__, f"{name}.{export} is not re-exported by otocap"
            assert getattr(oc, export) is getattr(module, export), f"{name}.{export}"
