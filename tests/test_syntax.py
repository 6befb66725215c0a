import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from generators import irregular_document, random_document, random_ontology
from oracles import entailed_text_reference, naive_reason, parse_reference, tokenize_reference
from test_incremental import edit
from test_reasoner import _perfbench_worlds
from ontodesc import model
from ontodesc.model import AxiomTag, Kind, Literal, Ontology, UnknownEntity
from ontodesc.reasoner import reason
from ontodesc import syntax
from ontodesc.syntax import (
    _TOKEN,
    ParseError,
    parse,
    render_axiom,
    render_literal,
    seed_path,
    serialize,
    tokenize,
)

WORLD = """
Class(A) Class(B) Class(C)
ObjectProperty(p)
DataProperty(d)
Individual(x) Individual(y)
SubClassOf(A B)
DefineClass(C Or(A And(B Some(p A))))
PropertyAssertion(p x y)
PropertyAssertion(d x "hi there")
"""


class TestTokenizer:
    def test_literals_classify_by_shape(self):
        kinds = [t.typ for t in tokenize('name "s" 4 -4 2.5 1e3 true false') if t.typ != "eof"]
        assert kinds == ["name", "string", "int", "int", "double", "double", "bool", "bool"]

    def test_string_escapes_decode(self):
        token = tokenize(r'"a\"b\\c\nd"')[0]
        assert token.value == 'a"b\\c\nd'

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"open')

    def test_comments_run_to_end_of_line(self):
        assert [t.text for t in tokenize("A # B C\nD") if t.typ != "eof"] == ["A", "D"]

    @pytest.mark.parametrize(
        "word, typ, value",
        [("+5", "int", 5), ("-0", "int", 0), (".5", "double", 0.5), ("5.", "double", 5.0),
         ("1e3", "double", 1000.0), ("+.5e-1", "double", 0.05)],
    )
    def test_number_shapes_accepted(self, word, typ, value):
        [token, _] = tokenize(word)
        assert (token.typ, token.value) == (typ, value)

    # underscores and non-ASCII digits are not in the grammar; an integer
    # longer than int() reads is malformed, not a crash
    @pytest.mark.parametrize("word", ["1_000", "1_0.5", "\u0663", "+1_0", "12ab", "1.5e", "9" * 5000])
    def test_number_shapes_rejected(self, word):
        with pytest.raises(ParseError) as err:
            tokenize(f"x {word}")
        assert (err.value.line, err.value.col) == (1, 3)
        assert "malformed number" in str(err.value)

    def test_any_whitespace_separates_tokens(self):
        assert [t.text for t in tokenize("A\u00a0B\x0cC") if t.typ != "eof"] == ["A", "B", "C"]
        onto = parse("Class(A)\u2003Class(B)")
        assert {e.iri for e in onto.entities_of_kind(Kind.CLASS)} >= {"A", "B"}

    def test_overflowing_double_is_a_positioned_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("DataProperty(d) Individual(x)\nPropertyAssertion(d x 1e999)")
        assert (err.value.line, err.value.col) == (2, 23)
        assert "malformed number" in str(err.value)


class TestParser:
    def test_world_parses(self):
        onto = parse(WORLD)
        assert onto.lookup("A").kind is Kind.CLASS
        assert len(set(onto.axioms())) == 4

    def test_forward_references_allowed(self):
        onto = parse("SubClassOf(A B) Class(A) Class(B)")
        assert onto.contains(model.sub_class(onto.lookup("A"), onto.lookup("B")))

    def test_unknown_entity_reports_position(self):
        with pytest.raises(UnknownEntity) as err:
            parse("Class(A)\nSubClassOf(A Missing)")
        assert err.value.line == 2

    def test_kind_misuse_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("Class(A) Individual(x) SubClassOf(A x)")
        with pytest.raises(ParseError):
            parse("Class(A) SubClassOf(string A)")

    def test_kind_error_is_reported_at_the_statement_head(self):
        with pytest.raises(ParseError) as err:
            parse("Class(A) Individual(x)\n  SubClassOf(A x)")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_min_count_must_be_an_integer_token(self):
        with pytest.raises(ParseError):
            parse("Class(A) ObjectProperty(p) DefineClass(A Min(true p A))")

    def test_deep_nesting_is_a_parse_error_at_the_first_deep_head(self):
        text = "Class(A)\nDefineClass(A " + "And(A " * 2000 + ")" * 2001
        with pytest.raises(ParseError) as err:
            parse(text)
        # DefineClass > And > And > And is allowed; the fourth And is not
        assert (err.value.line, err.value.col) == (2, 15 + 3 * len("And(A "))

    def test_punning_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse("Class(A) Individual(A)")

    def test_nesting_limited_to_union_of_intersections(self):
        parse("Class(A) Class(B) ObjectProperty(p) DefineClass(A Or(B And(B Some(p B))))")
        with pytest.raises(ParseError):
            parse("Class(A) Class(B) DefineClass(A And(B And(B B)))")
        with pytest.raises(ParseError):
            parse("Class(A) Class(B) DefineClass(A And(B Or(B B)))")

    def test_equivalent_classes_splits_named_and_composite(self):
        onto = parse("Class(A) Class(B) EquivalentClasses(A B)")
        [axiom] = onto.axioms()
        assert axiom.tag is AxiomTag.EQUIVALENT_CLASSES
        onto = parse("Class(A) Class(B) ObjectProperty(p) EquivalentClasses(A Some(p B))")
        [axiom] = onto.axioms()
        assert axiom.tag is AxiomTag.CLASS_DEFINITION

    def test_literal_argument_kinds(self):
        with pytest.raises(ParseError):
            parse('Class(A) ObjectProperty(p) Individual(x) PropertyAssertion(p x "s")')
        with pytest.raises(ParseError):
            parse("DataProperty(d) Individual(x) Individual(y) PropertyAssertion(d x y)")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("Class(A")
        with pytest.raises(ParseError):
            parse("Class(A))")

    # ClassAssertion and PropertyAssertion write their arguments in another
    # order than the axiom keeps them; the first unknown name in the text is
    # the one reported
    @pytest.mark.parametrize(
        "text, name, position",
        [
            ("Class(A)\nClassAssertion(A  nobody)", "nobody", (2, 19)),
            ("Individual(x)\nClassAssertion(Nope Gone)", "Nope", (2, 16)),
            ("ObjectProperty(p) Individual(x)\n  PropertyAssertion(p ghost x)", "ghost", (2, 23)),
            ("ObjectProperty(p)\nPropertyAssertion(p\n s o)", "s", (3, 2)),
            # a name that is also a call head is reported where it is a name
            ("Class(A) ObjectProperty(p)\nDefineClass(A And(Some(p A) Some))", "Some", (2, 29)),
        ],
    )
    def test_unknown_entity_in_an_assertion_is_pinned(self, text, name, position):
        with pytest.raises(UnknownEntity) as err:
            parse(text)
        assert (err.value.line, err.value.col) == position
        assert str(err.value) == f"line {position[0]}, column {position[1]}: unknown entity {name!r}"

    def test_kind_clash_in_a_flat_declaration_is_at_the_name(self):
        with pytest.raises(ParseError) as err:
            parse("Class(A)\n Individual(  A)")
        assert (err.value.line, err.value.col) == (2, 15)
        assert "already a class" in str(err.value)

    def test_wrong_arity_at_a_flat_head(self):
        with pytest.raises(ParseError) as err:
            parse("Class(A)\n  SubClassOf(A)")
        assert (err.value.line, err.value.col) == (2, 3)
        assert str(err.value) == "line 2, column 3: SubClassOf takes 2 arguments"

    def test_empty_document(self):
        onto = parse("")
        assert not set(onto.axioms())
        assert serialize(onto) == ""


class TestSerializer:
    def test_literal_rendering_roundtrips(self):
        for value in ["a b", 'q"q', "x\\y", "", 5, -5, True, False, 2.5, -0.125, 1e30]:
            text = render_literal(Literal(value))
            token = tokenize(text)[0]
            assert Literal(token.value) == Literal(value)

    def test_axiom_render_parses_back(self):
        onto = parse(WORLD)
        for axiom in onto.axioms():
            line = render_axiom(axiom)
            assert line.endswith(")") and "(" in line

    def test_roundtrip_is_identity_on_canonical_text(self):
        canonical = serialize(parse(WORLD))
        assert serialize(parse(canonical)) == canonical

    def test_inferred_axioms_serialize_as_comments(self):
        onto = parse("Class(A) Class(B) Class(C) SubClassOf(A B) SubClassOf(B C)")
        reason(onto)
        text = serialize(onto, include_inferred=True)
        assert "# inferred: SubClassOf(A C)" in text
        reparsed = parse(text)  # comments are skipped on the way back
        assert set(reparsed.axioms()) == set(onto.axioms())

    def test_golden_seed_file_is_canonical(self):
        text = seed_path().read_text(encoding="utf-8")
        assert serialize(parse(text)) == text

    @pytest.mark.parametrize("name", ["1abc", "a(b", "true", "a#b", 'x"y', "a)Class(b", "\u00bdx"])
    def test_a_name_the_parser_would_read_differently_is_refused(self, name):
        onto = parse("Class(A)")
        onto.declare(Kind.CLASS, name)
        with pytest.raises(model.OntologyError, match=re.escape(repr(name))):
            serialize(onto)

    @pytest.mark.parametrize("name", ["_x", "trueish", "\u00dcber", "a+b.c"])
    def test_a_name_the_parser_reads_back_is_written(self, name):
        onto = parse("Class(A)")
        onto.declare(Kind.INDIVIDUAL, name)
        assert parse(serialize(onto)).lookup(name).kind is Kind.INDIVIDUAL


def _inferred_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("# inferred: ")]


class TestEntailedText:
    """serialize(..., include_inferred=True) renders from the Closure's maps;
    entailed_text_reference renders every inferred axiom instead."""

    def test_equal_literals_shared_through_same_individual(self):
        # b's filler 0.0 is derived before the equal -0.0 is asserted, so the
        # map keeps 0.0 while the snapshot holds -0.0: one axiom, two texts
        onto = parse(
            "DataProperty(d) Individual(a) Individual(b)"
            " SameIndividual(a b) PropertyAssertion(d a 0.0)"
        )
        reason(onto)
        assert "# inferred: PropertyAssertion(d b 0.0)" in _inferred_lines(
            serialize(onto, include_inferred=True)
        )
        onto.assert_axiom(
            model.property_assertion(onto.lookup("b"), onto.lookup("d"), Literal(-0.0))
        )
        closure = reason(onto)
        assert [repr(f.value) for f in closure.fillers(onto.lookup("b"), onto.lookup("d"))] == ["0.0"]
        assert closure.inferred == naive_reason(onto)[0]
        text = serialize(onto, include_inferred=True)
        assert text == entailed_text_reference(onto)
        assert "PropertyAssertion(d b -0.0)" in text.splitlines()
        assert not any("PropertyAssertion" in line for line in _inferred_lines(text))

    def test_a_same_individual_group_of_three(self):
        onto = parse(
            "Individual(c) Individual(b) Individual(a)"
            " SameIndividual(c b) SameIndividual(b a)"
        )
        reason(onto)
        text = serialize(onto, include_inferred=True)
        assert text == entailed_text_reference(onto)
        same = [line for line in _inferred_lines(text) if "SameIndividual" in line]
        assert same == ["# inferred: SameIndividual(a c)"]

    def test_an_axiom_both_asserted_and_derived_is_not_inferred(self):
        onto = parse(
            "Class(A) Class(B) Class(C) Individual(x)"
            " SubClassOf(A B) SubClassOf(B C) SubClassOf(A C)"
            " ClassAssertion(A x) ClassAssertion(B x)"
        )
        reason(onto)
        text = serialize(onto, include_inferred=True)
        assert text == entailed_text_reference(onto)
        assert {"SubClassOf(A C)", "ClassAssertion(B x)"} <= set(text.splitlines())
        inferred = _inferred_lines(text)
        assert "# inferred: ClassAssertion(C x)" in inferred
        assert not any("SubClassOf(A C)" in line or "(B x)" in line for line in inferred)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), monotone=st.booleans())
def test_entailed_text_matches_the_axiom_rendering(seed, monotone):
    """On a random world, and after each resumed run over random edits."""
    rng = random.Random(seed)
    onto = random_ontology(rng, monotone=monotone)
    reason(onto)
    assert serialize(onto, include_inferred=True) == entailed_text_reference(onto)
    for step in range(rng.randint(1, 5)):
        for _ in range(rng.randint(1, 4)):
            edit(rng, onto, monotone, step)
        reason(onto)
        assert serialize(onto, include_inferred=True) == entailed_text_reference(onto)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_generated_documents_roundtrip(seed):
    document = random_document(random.Random(seed))
    onto = parse(document)
    assert serialize(onto) == document
    assert set(parse(serialize(onto)).axioms()) == set(onto.axioms())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_a_parsed_store_equals_one_built_through_public_calls(seed):
    """parse inserts its axioms past assert_axiom's checks, so the store it
    returns must be the one declare and assert_axiom build from the
    reference parser's output: the same vocabulary in the same order, the
    same asserted set and journal, and the same closure once
    reasoned.  The lines come shuffled, some twice, so names are used
    before their declaration and a repeated axiom inserts nothing."""
    rng = random.Random(seed)
    lines = random_document(rng).splitlines()
    lines += rng.sample(lines, len(lines) // 4)
    rng.shuffle(lines)
    text = "\n".join(lines)
    parsed, reference, built = parse(text), parse_reference(text), Ontology()
    for entity in reference.vocabulary():
        built.declare(entity.kind, entity.iri)
    for axiom in reference.axioms():
        assert built.assert_axiom(axiom)
    assert list(parsed.vocabulary()) == list(built.vocabulary())
    assert parsed.axioms() == built.axioms()
    assert parsed._journal == built._journal
    ours, theirs = reason(parsed), reason(built)
    assert (ours.inferred, ours.consistent) == (theirs.inferred, theirs.consistent)
    assert (ours._types, ours._entered) == (theirs._types, theirs._entered)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_irregular_names_parse_as_the_reference_does_and_roundtrip(seed):
    """Names outside the ASCII-initial form (non-ASCII letters, an initial
    underscore, punctuation, heads used as names) are declared and built
    as the reference parser does them: the same vocabulary in the same
    order and asserted set, in canonical and in shuffled
    line order; the canonical text serializes back to itself."""
    rng = random.Random(seed)
    text = irregular_document(rng)
    lines = text.splitlines()
    rng.shuffle(lines)
    for document in (text, "\n".join(lines)):
        parsed, reference = parse(document), parse_reference(document)
        assert list(parsed.vocabulary()) == list(reference.vocabulary())
        assert parsed.axioms() == reference.axioms()
    assert serialize(parse(text)) == text


def test_a_statement_of_names_is_built_by_its_head_plan(monkeypatch):
    """One statement per axiom head, with names only, builds each axiom from
    its head's plan and never resolves an argument the general way."""
    text = """Class(A) Class(B) ObjectProperty(p) ObjectProperty(q) ObjectProperty(r)
    Individual(x) Individual(y)
    SubPropertyOf(p q) EquivalentProperties(q p) DisjointProperties(p q) InverseProperties(q p)
    PropertyDomain(p A) PropertyRange(p B) FunctionalProperty(p) ReflexiveProperty(p)
    SymmetricProperty(p) TransitiveProperty(p) IrreflexiveProperty(p) SubPropertyChain(p q r)
    SubClassOf(A B) EquivalentClasses(B A) DisjointClasses(A B) ClassAssertion(A x)
    PropertyAssertion(p x y) SameIndividual(y x) DifferentIndividuals(x y)"""
    expected = parse_reference(text).axioms()
    assert {a.tag for a in expected} == set(AxiomTag) - {AxiomTag.CLASS_DEFINITION}

    def general(self, node):
        raise AssertionError(f"{node!r} resolved outside its statement's plan")

    monkeypatch.setattr(syntax._Builder, "_arg", general)
    assert parse(text).axioms() == expected


def test_the_load_world_is_declared_and_inserted_in_bulk(monkeypatch):
    """On the benchmark's load world parse declares every name in one
    batch and inserts every axiom in one update, so no declare or
    _insert call runs, and builds a _Call only for the three DefineClass
    statements and the expressions nested in them."""
    text = _perfbench_worlds().generate(128, 128, 64, seed=0).text
    calls = Counter()

    def counted(name, method):
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name in ("declare", "_insert"):
        monkeypatch.setattr(Ontology, name, counted(name, getattr(Ontology, name)))
    monkeypatch.setattr(syntax._Call, "__init__", counted("_Call", syntax._Call.__init__))
    onto = parse(text)
    assert calls == {"_Call": 10}
    assert len(onto.axioms()) == 908 and len(list(onto.vocabulary())) == 713 + len(model.BUILTINS)


def test_one_parse_of_the_load_world_checks_names_in_the_pattern_and_shares_one_callback(monkeypatch):
    """On the benchmark's load world the flat-statement pattern checks the
    names, so _is_name runs only for the name tokens of the three
    DefineClass statements that recursive descent parses; and every
    intern-table weak reference has the one shared callback."""
    text = _perfbench_worlds().generate(128, 128, 64, seed=0).text
    described = [line for line in text.splitlines() if "(" in line.partition("(")[2]]
    assert len(described) == 3
    expected = sum(t.typ == "name" for line in described for t in tokenize(line))
    calls = Counter()
    is_name = syntax._is_name

    def counted(word):
        calls[word] += 1
        return is_name(word)

    monkeypatch.setattr(syntax, "_is_name", counted)
    onto = parse(text)
    assert calls.total() == expected == 24
    live = [ref for ref in model._ENTITIES.values() if ref() is not None]
    assert len(live) >= len(list(onto.vocabulary()))
    assert {ref.__callback__ for ref in live} == {model._drop}


def test_str_split_and_the_token_pattern_agree_on_whitespace():
    """A flat statement's arguments are split by str.split(); every other
    statement by _TOKEN, whose blanks are re's \\s."""
    chars = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c) not in '"#')
    blanks = "".join(m.group() for m in _TOKEN.finditer(chars) if m.lastgroup in ("blank", "newline"))
    assert set(blanks) == {c for c in chars if not c.split()}


def _outcome(parser, text: str):
    """The vocabulary and asserted axioms, or the error and its position."""
    try:
        onto = parser(text)
    except (ParseError, UnknownEntity) as e:
        return type(e), str(e), e.line, e.col
    return set(onto.vocabulary()), set(onto.axioms())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9), drop=st.booleans())
def test_parse_matches_the_reference_on_generated_documents(seed, drop):
    """Flat statements, statements with literals, and with one line dropped
    an unknown name; a comment on every line sends every statement down
    the general path."""
    rng = random.Random(seed)
    lines = random_document(rng).splitlines()
    if drop:
        del lines[rng.randrange(len(lines))]
    text = "".join(f"{line}\n" for line in lines)
    outcome = _outcome(parse, text)
    assert outcome == _outcome(parse_reference, text)
    assert _outcome(parse, text.replace("\n", " # c\n")) == outcome


@settings(max_examples=60, deadline=None)
@given(value=st.text(max_size=40))
def test_arbitrary_string_literals_roundtrip(value):
    rendered = render_literal(Literal(value))
    token = tokenize(rendered)[0]
    assert token.typ == "string" and token.value == value


# every \s code point
_BLANKS = re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))
# plain names, names the flat-statement pattern leaves to recursive
# descent, and words that are no name
_FLAT_WORDS = ["A", "B_1", "true_", "falsey", "Ä", "Äx", "²a", "true", "false", "1a", "+a", "-1", ".5", "x", "p"]
_FLAT_DECLARED = "Class(A) Class(B_1) Class(true_) Class(falsey) Class(Ä) Class(Äx) Individual(x) ObjectProperty(p)\n"


@st.composite
def _flat_statements(draw) -> str:
    """A head and words in parentheses, apart by \\s blanks: at least one
    between two words, perhaps none elsewhere."""
    head = draw(st.sampled_from(["SubClassOf", "DisjointClasses", "ClassAssertion", "PropertyAssertion", "Class"]))
    words = draw(st.lists(st.sampled_from(_FLAT_WORDS), max_size=3))
    gap, edge = (st.text(st.sampled_from(_BLANKS), min_size=n, max_size=2) for n in (1, 0))
    inner = "".join((draw(gap) if i else "") + word for i, word in enumerate(words))
    return f"{draw(edge)}{head}{draw(edge)}({draw(edge)}{inner}{draw(edge)})"


_DECLARED = "Class(A) ObjectProperty(p) DataProperty(d) Individual(x)\n"
_HEADS = [t.value for t in AxiomTag] + ["Class", "Individual", "And", "Or", "Some", "Only", "Min", "Max"]
_SOUP_PARTS = st.one_of(
    st.sampled_from(_HEADS + ["(", ")", "A", "p", "d", "x", "THING", "string", "Nobody"]),
    st.sampled_from(['"', '"open', "# comment", "\n", "\\", '"\\q"', "\u00a0", "true", "1e999"]),
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.text(max_size=6),
    st.text(max_size=60).map(lambda t: render_literal(Literal(t))),
    # deep calls, deep parens, long literals, unterminated strings
    st.integers(1, 3000).map(lambda n: "DefineClass(A " + "And(A " * n),
    st.integers(1, 3000).map(lambda n: "(" * n + ")" * n),
    st.integers(1, 6000).map(lambda n: "9" * n),
    st.integers(1, 6000).map(lambda n: '"' + "s" * n),
    _flat_statements(),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_SOUP_PARTS, max_size=24))
def test_adversarial_input_parses_or_raises_a_parse_error(parts):
    try:
        parse(_DECLARED + " ".join(parts))
    except (ParseError, UnknownEntity):
        pass


def _tokens(text: str, tokenizer):
    try:
        return tokenizer(text)
    except ParseError as e:
        return str(e), e.line, e.col


# every statement head and quantifier at its arity, which the reference
# parser states apart from model.SHAPES
_EVERY_HEAD = [
    "SubPropertyOf(p p)",
    "EquivalentProperties(p p)",
    "DisjointProperties(p p)",
    "InverseProperties(p p)",
    "PropertyDomain(p A)",
    "PropertyRange(p A)",
    "FunctionalProperty(p)",
    "ReflexiveProperty(p)",
    "SymmetricProperty(p)",
    "TransitiveProperty(p)",
    "IrreflexiveProperty(p)",
    "SubPropertyChain(p p p)",
    "SubClassOf(A A)",
    "EquivalentClasses(A A)",
    "DisjointClasses(A A)",
    "DefineClass(A Or(Some(p A) Only(p A) Min(1 p A) Max(2 p A)))",
    "ClassAssertion(A x)",
    "PropertyAssertion(p x x)",
    "SameIndividual(x x)",
    "DifferentIndividuals(x x)",
]


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_SOUP_PARTS, max_size=24), sep=st.sampled_from([" ", "\n"]))
@example(parts=_EVERY_HEAD, sep=" ")
# declaration errors: a clash with an earlier name and with a builtin, the
# shapes that are not one name, and a bad declaration after a bad axiom,
# where the first declaration error wins
@example(parts=["Class(x)"], sep=" ")
@example(parts=["Individual(THING)"], sep=" ")
@example(parts=["Class(A B)"], sep=" ")
@example(parts=['Class("s")'], sep=" ")
@example(parts=["Class(1)"], sep=" ")
@example(parts=["Class(B)", "Class(B)", "Individual(B)"], sep="\n")
@example(parts=["Individual(A)", "Class(A B)"], sep=" ")
@example(parts=["SubClassOf(A x)", "Class(p)"], sep="\n")
@example(parts=["ClassAssertion(Nobody x)", 'Class("s")'], sep=" ")
@example(parts=["SubClassOf(A x)", "Class(A B)", "Individual(A)"], sep="\n")
# a long name before a stray quote: the flat pattern refuses it, and
# recursive descent finds the unterminated string
@example(parts=["SubClassOf(A " + "a" * 10**4 + '"'], sep=" ")
def test_adversarial_input_parses_as_the_reference_does(parts, sep):
    text = _DECLARED + sep.join(parts)
    assert _outcome(parse, text) == _outcome(parse_reference, text)
    assert _tokens(text, tokenize) == _tokens(text, tokenize_reference)


@settings(max_examples=300, deadline=None)
@given(statements=st.lists(_flat_statements(), max_size=8), sep=st.sampled_from(_BLANKS))
def test_flat_statements_parse_as_the_reference_does(statements, sep):
    """Statements the flat pattern passes, and ones it leaves to recursive
    descent (a name it does not check, a word that is no name), apart by
    any \\s: the same world or the same error as the reference parser."""
    text = _FLAT_DECLARED + sep.join(statements)
    assert _outcome(parse, text) == _outcome(parse_reference, text)


class _Anchored:
    """The flat pattern with `match` alone, recording where it is tried:
    a scan that searched for the next flat statement would need more."""

    def __init__(self, pattern):
        self.pattern, self.tried = pattern, []

    def match(self, text, pos):
        self.tried.append(pos)
        return self.pattern.match(text, pos)


@pytest.mark.parametrize("n", [100, 4000])
def test_refused_statements_are_scanned_once_each(n, monkeypatch):
    """Each statement with a literal is refused by the flat pattern and
    parsed by recursive descent from where the pattern was tried: the
    pattern is tried once where each statement starts and once at the
    end, and recursive descent starts once per refused statement."""
    text = _DECLARED + 'PropertyAssertion(d x "s")\n' * n
    pattern, starts = _Anchored(syntax._FLAT), Counter()
    parse_call = syntax._Parser.parse_call

    def counted(self, head, at, depth):
        starts[depth] += 1
        return parse_call(self, head, at, depth)

    monkeypatch.setattr(syntax, "_FLAT", pattern)
    monkeypatch.setattr(syntax._Parser, "parse_call", counted)
    parse(text)
    ends = [0] + [m.end() for m in re.finditer(r"\)", text)]
    assert pattern.tried == ends and len(ends) == 4 + n + 1
    assert starts[0] == n
