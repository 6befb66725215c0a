"""The class-expression grammar law: the model builds exactly the bodies
that the .onto text and the DEFINITION descriptor hold."""

import random

import pytest

from generators import random_atom, vocabulary
from ontodesc import model
from ontodesc.descriptor import DescriptorState, DescriptorTag, expression_to_restrictions
from ontodesc.model import And, Kind, KindMismatch, Named, Ontology, Or
from ontodesc.reasoner import reason
from ontodesc.syntax import parse, serialize


def _nested_expression(rng: random.Random, onto: Ontology, depth: int):
    """And and Or nested up to `depth` deep over random atoms, as a tree of
    (connective, members) pairs, since the model refuses to build some."""
    if depth == 0 or rng.random() < 0.4:
        return random_atom(rng, onto, monotone=False)
    members = [_nested_expression(rng, onto, depth - 1) for _ in range(rng.randint(2, 3))]
    return (And if rng.random() < 0.5 else Or), members


def _union_of_intersections(tree, within=None) -> bool:
    """False when an And holds an And or an Or, or an Or holds an Or."""
    if type(tree) is not tuple:
        return True
    connective, members = tree
    if within is And or within is Or and connective is Or:
        return False
    return all(_union_of_intersections(m, connective) for m in members)


def _build(tree):
    if type(tree) is not tuple:
        return tree
    connective, members = tree
    return connective(tuple(_build(m) for m in members))


@pytest.mark.parametrize("seed", range(30))
def test_the_model_builds_exactly_the_bodies_the_text_and_the_descriptor_hold(seed):
    """Each random tree either raises KindMismatch as it is built, exactly
    when it is not a union of intersections of atoms, or its definition
    comes back equal from parse(serialize(...)), and a DEFINITION
    descriptor that writes its restriction list writes that definition
    and reads the same list back."""
    rng = random.Random(seed)
    onto = vocabulary(rng, classes=6, object_props=3, data_props=0, individuals=2)
    defined = onto.declare(Kind.CLASS, "Defined")
    for _ in range(20):
        tree = _nested_expression(rng, onto, 3)
        if not _union_of_intersections(tree):
            with pytest.raises(KindMismatch):
                _build(tree)
            continue
        expr = _build(tree)
        axiom = model.class_definition(defined, expr)
        onto.assert_axiom(axiom)
        assert parse(serialize(onto)).axioms() == {axiom}
        onto.retract_axiom(axiom)

        items = expression_to_restrictions(expr)
        DescriptorState(DescriptorTag.DEFINITION, defined, onto, items=list(items)).write()
        assert onto.axioms() == {axiom}
        reason(onto)
        state = DescriptorState(DescriptorTag.DEFINITION, defined, onto)
        state.read()
        assert state.items == items
        onto.retract_axiom(axiom)


def test_a_union_inside_an_intersection_is_refused():
    onto = Ontology()
    b, c, d = (Named(onto.declare(Kind.CLASS, n)) for n in "BCD")
    with pytest.raises(KindMismatch, match="And members"):
        And((Or((b, c)), d))
    with pytest.raises(KindMismatch, match="Or members"):
        Or((Or((b, c)), d))
    assert Or((And((b, c)), d)).members[0] == And((b, c))
