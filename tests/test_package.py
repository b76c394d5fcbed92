"""The package's public names, and the modules importing it loads."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_dataclasses():
    # A cold start pays for every module imported; dataclasses brings in
    # inspect, ast, dis and tokenize.  -S keeps site's own imports out.  The
    # child first runs the package's own module-level standard-library
    # imports, since from Python 3.12 on importlib.resources loads inspect
    # itself, and then checks what importing the package adds.
    package = Path(tamilspell.__file__).parent
    unwanted = {"dataclasses", "inspect"}
    stdlib = sorted({
        ast.unparse(node)
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if (isinstance(node, ast.Import) and not unwanted & {a.name.split(".")[0] for a in node.names})
        or (isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] not in unwanted | {"__future__"})
    })
    assert "from importlib import resources" in stdlib
    code = "\n".join([
        *stdlib,
        "import sys",
        "before = set(sys.modules)",
        f"sys.path.insert(0, {str(package.parent)!r})",
        "import tamilspell, tamilspell.bundled, tamilspell.cli",
        f"print(sorted({unwanted!r} & (set(sys.modules) - before)))",
    ])
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
