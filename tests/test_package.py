"""The package surface: `ontodesc.<name>` is the object its defining
module holds, loaded on first use."""

import importlib

import pytest

import ontodesc
from test_layering import run_fresh


@pytest.mark.parametrize("name", ontodesc.__all__)
def test_a_public_name_is_its_defining_module_s_object(name):
    value = getattr(ontodesc, name)
    assert value.__module__.startswith("ontodesc.")
    assert value is getattr(importlib.import_module(value.__module__), name)


def test_dir_lists_every_public_name():
    assert set(ontodesc.__all__) <= set(dir(ontodesc))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ontodesc.no_such_name


def test_a_star_import_binds_every_public_name():
    namespace = {}
    exec("from ontodesc import *", namespace)
    assert set(ontodesc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(ontodesc, name) for name in ontodesc.__all__)


def test_a_submodule_resolves_after_a_bare_import():
    code = "import ontodesc; print(ontodesc.model.Ontology.__name__, ontodesc.reasoner.reason.__name__)"
    assert run_fresh(code).split() == ["Ontology", "reason"]
