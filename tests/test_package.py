"""The package's public names."""

from __future__ import annotations

import importlib
import pkgutil

import tamilspell


def test_every_all_name_resolves():
    # A stale __all__ entry breaks only a star import, which nothing else does.
    names = ["tamilspell"] + [
        f"tamilspell.{info.name}"
        for info in pkgutil.iter_modules(tamilspell.__path__)
        if info.name != "__main__"  # importing it runs the command line
    ]
    checked = 0
    for name in names:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"{name}.__all__ names {public!r}"
            checked += 1
    assert checked > 40
