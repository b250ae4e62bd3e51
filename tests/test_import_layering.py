"""The import direction of the package: core <- engine <- experiments.

The lower layers (``repro.core``, ``repro.engine``, ``repro.distributed``,
``repro.algorithms``) never import ``repro.experiments`` — not at module
level and not inside a function.  An upward edge is what once forced the
lazy-import workarounds in the fabric and the fast engine: importing
``repro.algorithms`` pulled in the whole experiment layer, store and fabric
included.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
LOWER_LAYERS = ("core", "engine", "distributed", "algorithms")
UPPER = "repro.experiments"


def _imported_modules(path):
    """Every module name an ``import`` statement anywhere in ``path`` names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_never_import_experiments(layer):
    offenders = [
        f"{path.relative_to(SRC)} imports {name}"
        for path in sorted((SRC / "repro" / layer).rglob("*.py"))
        for name in _imported_modules(path)
        if name == UPPER or name.startswith(UPPER + ".")
    ]
    assert offenders == []


def test_importing_algorithms_loads_no_experiment_module():
    probe = (
        "import sys, repro.algorithms; "
        f"print(sorted(m for m in sys.modules if m.startswith({UPPER!r})))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert completed.stdout.strip() == "[]"
