"""The package's export lists name only what its modules define."""

import importlib
import pkgutil

import torusgibbs


def test_every_exported_name_resolves():
    # every module but __main__, which runs the CLI when imported
    modules = [torusgibbs] + [importlib.import_module(f"torusgibbs.{m.name}")
                              for m in pkgutil.iter_modules(torusgibbs.__path__)
                              if m.name != "__main__"]
    assert len(modules) > 8
    stale = [f"{mod.__name__}.{name}" for mod in modules
             for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert stale == []
