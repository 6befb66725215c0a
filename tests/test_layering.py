"""The layers import downwards only, and the store keeps its own state.

The store (model), its text form (syntax) and the reasoner sit below the
descriptor layer and never constrain it, so none of them imports the
descriptors, the compounds, the flows or the CLI, at module level or
inside a function.

Whether a Closure is current is the store's one rule, over its installed
Closure and its journal of changes since; no other module reads either.
The store answers for the asserted set only, and reads no attribute of
the Closure it holds: what is entailed is the Closure's to answer.

Every name a module imports is read in that module (the package's
__init__ is not scanned).

The cyclic garbage collector is process-wide state, so only the CLI,
which owns its process, imports gc.

Every command is a new process, so importing the package generates no
code: no module imports dataclasses, whose decorator builds each class's
methods from source text, and a process that loads every module has
loaded neither dataclasses nor inspect.

At run time a process loads only the layers it runs: `import ontodesc`
loads no submodule, and the CLI's reason, query and serialize commands
load nothing above the reasoner.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
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


def closure_reads(tree: ast.Module) -> set[str]:
    """The attributes the tree reads off `self._closure`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(held := node.value, ast.Attribute)
        and held.attr == "_closure"
        and isinstance(held.value, ast.Name)
        and held.value.id == "self"
    }


def test_the_store_reads_no_attribute_of_its_closure():
    assert closure_reads(syntax_tree("model")) == set()


def test_the_closure_scan_sees_a_read():
    source = (
        "class Store:\n"
        "    def view(self):\n"
        "        return self._closure.inferred | other._closure.maps\n"
        "    def current(self):\n"
        "        return self._closure is not None and self._closure._check_fresh()\n"
    )
    assert closure_reads(ast.parse(source)) == {"inferred", "_check_fresh"}


def imports(tree: ast.Module, module: str) -> bool:
    """Whether the tree imports `module`, in any import form."""
    return any(
        isinstance(node, ast.Import) and module in {alias.name for alias in node.names}
        or isinstance(node, ast.ImportFrom) and node.module == module
        for node in ast.walk(tree)
    )


def test_only_the_cli_imports_gc():
    assert [name for name in MODULES if imports(syntax_tree(name), "gc")] == ["cli"]


def test_no_module_imports_dataclasses():
    assert [name for name in MODULES if imports(syntax_tree(name), "dataclasses")] == []
    for source in ("import dataclasses", "from dataclasses import dataclass", "def f():\n    import dataclasses"):
        assert imports(ast.parse(source), "dataclasses")


def unused_imports(tree: ast.Module) -> set[str]:
    """The names an import binds in the tree and no expression reads;
    a __future__ import binds none."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    assert not unused_imports(syntax_tree(name))


def test_the_import_scan_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom . import model\nfrom .model import A, B as C\n"
        "def f(x: A) -> None:\n    return os.sep\n"
    )
    assert unused_imports(ast.parse(source)) == {"j", "model", "C"}
    assert "__init__" not in MODULES


def run_fresh(code: str, *args: str) -> str:
    """Run `code` in a new interpreter that imports this ontodesc; its stdout."""
    src = str(Path(ontodesc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_loading_every_module_generates_no_code():
    """Loading every module, then the packaged seed world that every
    command given no --ontology reads, loads neither dataclasses nor
    inspect."""
    code = (
        "import importlib, json, sys\n"
        "for name in json.loads(sys.argv[1]):\n"
        "    importlib.import_module('ontodesc.' + name)\n"
        "sys.modules['ontodesc.syntax'].load_seed()\n"
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)))\n"
    )
    assert json.loads(run_fresh(code, json.dumps(MODULES))) == []


# imports ontodesc, then runs each argv through cli.main; prints, as JSON,
# the ontodesc submodules loaded after each step, the exit code and stdout
LOADS = """
import contextlib, io, json, sys

def loaded():
    return sorted(name.split(".")[1] for name in sys.modules if name.startswith("ontodesc."))

import ontodesc
report = [[loaded(), 0, ""]]
from ontodesc.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report.append([loaded(), code, out.getvalue()])
print(json.dumps(report))
"""

READ_ONLY = [["reason"], ["query", "types", "Room1"], ["serialize", "--entailed"]]
FLOWS = [["example1", "Location3", "Corridor1", "Door3"], ["reachable"], ["patrol"]]


def test_each_command_loads_only_the_layers_it_runs(capsys):
    """A fresh process runs the read-only commands first, then the flows;
    each flow prints and exits as it does in this fully loaded process."""
    from ontodesc.cli import main

    report = json.loads(run_fresh(LOADS, json.dumps(READ_ONLY + FLOWS)))
    assert report[0][0] == []
    for loaded, code, out in report[1 : 1 + len(READ_ONLY)]:
        assert code == 0 and out
        assert set(loaded) >= set(LOWER) and not set(loaded) & (UPPER - {"cli"})
    for argv, (loaded, code, out) in zip(FLOWS, report[1 + len(READ_ONLY) :]):
        assert "scenarios" in loaded
        assert [code, out] == [main(argv), capsys.readouterr().out]
