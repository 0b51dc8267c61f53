"""The names the benchmark's scripts import from mlrank, pinned.

``perfbench/run.py`` runs in the benchmark, but
``perfbench/remake_checkpoints.py`` is run by hand, so deleting a name it
imports would fail nothing else.  The scripts are parsed, not run.
"""

import ast
import glob
import importlib
import os

import pytest

from mlrank.synthgen import GeneratedSample

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def mlrank_imports():
    """(script, module, name) of every ``from mlrank.<module> import
    <name>`` in ``perfbench/*.py``."""
    found = []
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mlrank."):
                found += [(os.path.basename(path), node.module, alias.name) for alias in node.names]
    return found


IMPORTS = mlrank_imports()


def test_the_parse_finds_both_scripts_imports():
    found = {(script, name) for script, _, name in IMPORTS}
    assert {("remake_checkpoints.py", "train"), ("run.py", "generate_adjust_sequences")} <= found


@pytest.mark.parametrize("script,module,name", IMPORTS)
def test_imported_name_exists(script, module, name):
    assert hasattr(importlib.import_module(module), name), f"{script} imports {name} from {module}"


def test_generated_sample_to_instance_exists():
    # remake_checkpoints.py turns canvas samples into training records.
    assert callable(getattr(GeneratedSample, "to_instance", None))
