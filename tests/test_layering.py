"""The layers import downwards only, and the store keeps its own state.

The store (model), its text form (syntax) and the reasoner sit below the
descriptor layer and never constrain it, so none of them imports the
descriptors, the compounds, the flows or the CLI, at module level or
inside a function.

Whether a Closure is current is the store's one rule, over its installed
Closure and its journal of changes since; no other module reads either.
"""

import ast
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import ontodesc

LOWER = ("model", "syntax", "reasoner")
UPPER = {"descriptor", "compound", "scenarios", "cli"}
MODULES = sorted(info.name for info in pkgutil.iter_modules(ontodesc.__path__))
STORE_STATE = {"_closure", "_journal"}


def syntax_tree(name: str) -> ast.Module:
    source = Path(importlib.util.find_spec(f"ontodesc.{name}").origin).read_text(encoding="utf-8")
    return ast.parse(source)


def imported_modules(name: str) -> set[str]:
    """The ontodesc modules that ontodesc.<name> imports anywhere in its source."""
    found = set()
    for node in ast.walk(syntax_tree(name)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # "from . import x" and "from .x import y" are relative
            module = "ontodesc" + (f".{node.module}" if node.module else "") if node.level else node.module
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return {module.split(".")[1] for module in found if module.startswith("ontodesc.")}


@pytest.mark.parametrize("name", LOWER)
def test_a_lower_layer_imports_no_upper_one(name):
    assert not imported_modules(name) & UPPER


def test_the_scan_sees_every_import_form():
    """The descriptor module imports model at module level and compound
    inside a function; the scan finds both."""
    assert {"model", "compound"} <= imported_modules("descriptor")


def store_state_reads(name: str) -> set[str]:
    """The store-state names that ontodesc.<name> reads as an attribute,
    or names as a string (as getattr would take it)."""
    found = set()
    for node in ast.walk(syntax_tree(name)):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant):
            found.add(node.value)
    return found & STORE_STATE


@pytest.mark.parametrize("name", [m for m in MODULES if m != "model"])
def test_only_the_store_reads_its_closure_and_journal(name):
    assert not store_state_reads(name)


def test_the_state_scan_sees_the_store_s_own_reads():
    assert store_state_reads("model") == STORE_STATE
    assert {"model", "reasoner", "descriptor", "scenarios"} <= set(MODULES)
