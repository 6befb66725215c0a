"""The .onto text format: parsing and canonical serialization.

A document is a sequence of functional-style statements::

    Class(DOOR) Individual(Door1)              # declarations
    SubClassOf(ROOM INDOOR)                    # axioms
    DefineClass(ROOM And(INDOOR Some(hasDoor DOOR) Max(1 hasDoor DOOR)))
    PropertyAssertion(hasDoor Room1 Door1)

Statements may sit one per line or whitespace-separated; `#` starts a
comment running to end of line.  Names must start with a letter or
underscore and may then use any character except whitespace, parentheses,
quotes and `#`.  Literals are written `"text"` (with \\" \\\\ \\n \\t \\r
escapes), `42`, `3.14` (or exponent form), `true`, `false`.

Class expressions use And / Or / Some / Only / Min / Max.  And and Or are
n-ary; intersection binds tighter than union, so the only accepted nesting
is a union whose members are atoms or plain intersections of atoms.
Deeper trees are rejected.

References may appear before their declaration: names are resolved only
after the whole document has been scanned.  Serialization is canonical:
declarations first (classes, object properties, data properties,
individuals, each sorted by IRI), then RBox, TBox and ABox axioms, each
sorted by their rendered line.  Re-serializing a parsed document is
byte-stable.  Inferred axioms are emitted only on request, rendered as
`# inferred:` comment lines so the output stays parseable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .model import (
    And,
    Axiom,
    AxiomTag,
    Box,
    ClassExpression,
    Entity,
    Kind,
    Literal,
    Max,
    Min,
    Named,
    Only,
    Ontology,
    Or,
    Some,
)


class ParseError(model.OntologyError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens

_NAME_BREAK = set(' \t\r\n()"#')
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


@dataclass(frozen=True)
class Token:
    typ: str  # ( ) name string int double bool eof
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "(" or ch == ")":
            tokens.append(Token(ch, ch, ch, line, col))
            advance()
            continue
        start_line, start_col = line, col
        if ch == '"':
            advance()
            out = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string literal")
                c = text[i]
                if c == '"':
                    advance()
                    break
                if c == "\\":
                    advance()
                    if i >= n or text[i] not in _ESCAPES:
                        raise ParseError(line, col, "bad escape in string literal")
                    out.append(_ESCAPES[text[i]])
                    advance()
                else:
                    out.append(c)
                    advance()
            tokens.append(Token("string", "".join(out), "".join(out), start_line, start_col))
            continue
        # bareword: name, number or boolean
        j = i
        while j < n and text[j] not in _NAME_BREAK:
            j += 1
        word = text[i:j]
        advance(j - i)
        tokens.append(_classify(word, start_line, start_col))
    tokens.append(Token("eof", "", None, line, col))
    return tokens


def _classify(word: str, line: int, col: int) -> Token:
    if word == "true":
        return Token("bool", word, True, line, col)
    if word == "false":
        return Token("bool", word, False, line, col)
    head = word[0]
    if head.isdigit() or head in "+-.":
        try:
            if any(c in word for c in ".eE") and not word.lstrip("+-").isdigit():
                value = float(word)
                if math.isfinite(value):  # overflow reads as infinity
                    return Token("double", word, value, line, col)
            else:
                return Token("int", word, int(word), line, col)
        except ValueError:
            pass
        raise ParseError(line, col, f"malformed number: {word!r}")
    if not (head.isalpha() or head == "_"):
        raise ParseError(line, col, f"names must start with a letter or underscore: {word!r}")
    return Token("name", word, word, line, col)


# ---------------------------------------------------------------------------
# parsing

# in serialization order
_DECLARATIONS = {
    "Class": Kind.CLASS,
    "ObjectProperty": Kind.OBJECT_PROPERTY,
    "DataProperty": Kind.DATA_PROPERTY,
    "Individual": Kind.INDIVIDUAL,
}
_EXPRESSION_HEADS = {"And", "Or", "Some", "Only", "Min", "Max"}
_AXIOM_HEADS = {t.value for t in AxiomTag}


@dataclass
class _Call:
    head: Token
    args: list  # Token | _Call


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, typ: str) -> Token:
        tok = self.next()
        if tok.typ != typ:
            raise ParseError(tok.line, tok.col, f"expected {typ!r}, found {tok.text!r}")
        return tok

    def parse_document(self) -> list[_Call]:
        statements = []
        while self.peek().typ != "eof":
            tok = self.next()
            if tok.typ != "name":
                raise ParseError(tok.line, tok.col, f"expected a statement, found {tok.text!r}")
            if tok.text not in _DECLARATIONS and tok.text not in _AXIOM_HEADS:
                raise ParseError(tok.line, tok.col, f"unknown statement: {tok.text!r}")
            statements.append(self.parse_call(tok))
        return statements

    def parse_call(self, head: Token) -> _Call:
        self.expect("(")
        args: list = []
        while True:
            tok = self.peek()
            if tok.typ == ")":
                self.next()
                return _Call(head, args)
            if tok.typ == "eof":
                raise ParseError(tok.line, tok.col, "unexpected end of input inside statement")
            tok = self.next()
            if tok.typ == "name" and self.peek().typ == "(":
                if tok.text not in _EXPRESSION_HEADS:
                    raise ParseError(
                        tok.line, tok.col, f"unknown expression constructor: {tok.text!r}"
                    )
                args.append(self.parse_call(tok))
            else:
                args.append(tok)


class _Builder:
    """Second pass: turn statement trees into declarations and axioms."""

    def __init__(self, statements: list[_Call]):
        self.statements = statements
        self.onto = Ontology()

    def build(self) -> Ontology:
        for st in self.statements:
            kind = _DECLARATIONS.get(st.head.text)
            if kind is None:
                continue
            tok = self._one_name(st)
            try:
                self.onto.declare(kind, tok.text)
            except model.KindClash as e:
                raise ParseError(tok.line, tok.col, str(e)) from None
        for st in self.statements:
            if st.head.text in _DECLARATIONS:
                continue
            axiom = self._axiom(st)
            self.onto.assert_axiom(axiom)
        return self.onto

    # -- argument helpers

    def _one_name(self, st: _Call) -> Token:
        if len(st.args) != 1 or not isinstance(st.args[0], Token) or st.args[0].typ != "name":
            raise ParseError(st.head.line, st.head.col, f"{st.head.text} takes one name")
        return st.args[0]

    def _names(self, st: _Call, count: int) -> list[Token]:
        if len(st.args) != count or any(
            not isinstance(a, Token) or a.typ != "name" for a in st.args
        ):
            raise ParseError(st.head.line, st.head.col, f"{st.head.text} takes {count} names")
        return st.args

    def _resolve(self, tok: Token, *kinds: Kind) -> Entity:
        entity = self.onto.maybe_lookup(tok.text)
        if entity is None:
            raise model.UnknownEntity(
                f"line {tok.line}, column {tok.col}: unknown entity {tok.text!r}",
                tok.line,
                tok.col,
            )
        if kinds and entity.kind not in kinds:
            wanted = " or ".join(k.value for k in kinds)
            raise ParseError(tok.line, tok.col, f"{tok.text!r} is a {entity.kind.value}, expected {wanted}")
        return entity

    def _term(self, node) -> model.Term:
        if isinstance(node, _Call):
            raise ParseError(node.head.line, node.head.col, "expected an individual or literal")
        if node.typ == "name":
            return self._resolve(node, Kind.INDIVIDUAL)
        if node.typ in ("string", "int", "double", "bool"):
            return Literal(node.value)
        raise ParseError(node.line, node.col, f"expected an individual or literal, found {node.text!r}")

    # -- expressions

    def _expression(self, node, mode: str = "top") -> ClassExpression:
        # mode limits nesting: a body is an atom, an intersection of atoms,
        # or a union whose members are atoms or intersections of atoms
        if isinstance(node, Token):
            if node.typ != "name":
                raise ParseError(node.line, node.col, f"expected a class, found {node.text!r}")
            return Named(self._resolve(node, Kind.CLASS))
        head = node.head.text
        if head in ("And", "Or"):
            if head == "And" and mode == "and" or head == "Or" and mode != "top":
                raise ParseError(
                    node.head.line,
                    node.head.col,
                    "expression nesting is limited to a union of intersections",
                )
            inner_mode = "and" if head == "And" else "or"
            members = tuple(self._expression(a, inner_mode) for a in node.args)
            if len(members) < 2:
                raise ParseError(node.head.line, node.head.col, f"{head} needs at least two members")
            return And(members) if head == "And" else Or(members)
        if head in ("Some", "Only"):
            toks = self._names(node, 2)
            prop = self._resolve(toks[0], Kind.OBJECT_PROPERTY)
            filler = self._resolve(toks[1], Kind.CLASS)
            return Some(prop, filler) if head == "Some" else Only(prop, filler)
        # Min / Max
        if len(node.args) != 3 or not isinstance(node.args[0], Token) or node.args[0].typ != "int":
            raise ParseError(node.head.line, node.head.col, f"{head} takes a count, a property and a class")
        count = node.args[0].value
        for a in node.args[1:]:
            if not isinstance(a, Token) or a.typ != "name":
                raise ParseError(node.head.line, node.head.col, f"{head} takes a count, a property and a class")
        prop = self._resolve(node.args[1], Kind.OBJECT_PROPERTY)
        filler = self._resolve(node.args[2], Kind.CLASS)
        try:
            return Min(count, prop, filler) if head == "Min" else Max(count, prop, filler)
        except model.OntologyError as e:
            raise ParseError(node.head.line, node.head.col, str(e)) from None

    # -- statements

    def _axiom(self, st: _Call) -> Axiom:
        head = st.head.text
        try:
            return getattr(self, "_st_" + head)(st)
        except model.KindMismatch as e:
            raise ParseError(st.head.line, st.head.col, str(e)) from None

    def _st_SubClassOf(self, st):
        a, b = self._names(st, 2)
        return model.sub_class(self._resolve(a, Kind.CLASS), self._resolve(b, Kind.CLASS))

    def _st_EquivalentClasses(self, st):
        if len(st.args) != 2:
            raise ParseError(st.head.line, st.head.col, "EquivalentClasses takes two arguments")
        first, second = st.args
        if not isinstance(first, Token) or first.typ != "name":
            raise ParseError(st.head.line, st.head.col, "the first argument must be a class name")
        cls = self._resolve(first, Kind.CLASS)
        if isinstance(second, Token):
            return model.equivalent_classes(cls, self._resolve(second, Kind.CLASS))
        return model.class_definition(cls, self._expression(second))

    def _st_DisjointClasses(self, st):
        a, b = self._names(st, 2)
        return model.disjoint_classes(self._resolve(a, Kind.CLASS), self._resolve(b, Kind.CLASS))

    def _st_DefineClass(self, st):
        if len(st.args) != 2 or not isinstance(st.args[0], Token):
            raise ParseError(st.head.line, st.head.col, "DefineClass takes a class name and an expression")
        cls = self._resolve(st.args[0], Kind.CLASS)
        return model.class_definition(cls, self._expression(st.args[1]))

    def _st_SubPropertyOf(self, st):
        a, b = self._names(st, 2)
        return model.sub_property(self._resolve_prop(a), self._resolve_prop(b))

    def _st_EquivalentProperties(self, st):
        a, b = self._names(st, 2)
        return model.equivalent_properties(self._resolve_prop(a), self._resolve_prop(b))

    def _st_DisjointProperties(self, st):
        a, b = self._names(st, 2)
        return model.disjoint_properties(self._resolve_prop(a), self._resolve_prop(b))

    def _st_InverseProperties(self, st):
        a, b = self._names(st, 2)
        return model.inverse_properties(
            self._resolve(a, Kind.OBJECT_PROPERTY), self._resolve(b, Kind.OBJECT_PROPERTY)
        )

    def _st_PropertyDomain(self, st):
        a, b = self._names(st, 2)
        return model.property_domain(self._resolve_prop(a), self._resolve(b, Kind.CLASS))

    def _st_PropertyRange(self, st):
        a, b = self._names(st, 2)
        return model.property_range(self._resolve_prop(a), self._resolve(b, Kind.CLASS))

    def _resolve_prop(self, tok: Token) -> Entity:
        return self._resolve(tok, Kind.OBJECT_PROPERTY, Kind.DATA_PROPERTY)

    def _st_FunctionalProperty(self, st):
        return model.functional(self._resolve_prop(self._one_name(st)))

    def _st_SymmetricProperty(self, st):
        return model.symmetric(self._resolve(self._one_name(st), Kind.OBJECT_PROPERTY))

    def _st_ReflexiveProperty(self, st):
        return model.reflexive(self._resolve(self._one_name(st), Kind.OBJECT_PROPERTY))

    def _st_TransitiveProperty(self, st):
        return model.transitive(self._resolve(self._one_name(st), Kind.OBJECT_PROPERTY))

    def _st_IrreflexiveProperty(self, st):
        return model.irreflexive(self._resolve(self._one_name(st), Kind.OBJECT_PROPERTY))

    def _st_SubPropertyChain(self, st):
        a, b, c = self._names(st, 3)
        return model.property_chain(
            self._resolve(a, Kind.OBJECT_PROPERTY),
            self._resolve(b, Kind.OBJECT_PROPERTY),
            self._resolve(c, Kind.OBJECT_PROPERTY),
        )

    def _st_ClassAssertion(self, st):
        a, b = self._names(st, 2)
        return model.class_assertion(self._resolve(b, Kind.INDIVIDUAL), self._resolve(a, Kind.CLASS))

    def _st_PropertyAssertion(self, st):
        if len(st.args) != 3:
            raise ParseError(st.head.line, st.head.col, "PropertyAssertion takes a property, a subject and a filler")
        prop_tok, subj_tok, filler = st.args
        for tok in (prop_tok, subj_tok):
            if not isinstance(tok, Token) or tok.typ != "name":
                raise ParseError(st.head.line, st.head.col, "PropertyAssertion takes a property, a subject and a filler")
        prop = self._resolve_prop(prop_tok)
        subject = self._resolve(subj_tok, Kind.INDIVIDUAL)
        return model.property_assertion(subject, prop, self._term(filler))

    def _st_SameIndividual(self, st):
        a, b = self._names(st, 2)
        return model.same_individual(
            self._resolve(a, Kind.INDIVIDUAL), self._resolve(b, Kind.INDIVIDUAL)
        )

    def _st_DifferentIndividuals(self, st):
        a, b = self._names(st, 2)
        return model.different_individuals(
            self._resolve(a, Kind.INDIVIDUAL), self._resolve(b, Kind.INDIVIDUAL)
        )


def parse(text: str) -> Ontology:
    return _Builder(_Parser(text).parse_document()).build()


def parse_file(path) -> Ontology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# serialization


def render_literal(lit: Literal) -> str:
    v = lit.value
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return '"' + "".join(_UNESCAPES.get(c, c) for c in v) + '"'
    return repr(v)


def render_term(term) -> str:
    """An entity's IRI, or the literal's source form."""
    if isinstance(term, Literal):
        return render_literal(term)
    return term.iri


def render_expression(expr: ClassExpression) -> str:
    if isinstance(expr, Named):
        return expr.cls.iri
    if isinstance(expr, (And, Or)):
        head = "And" if isinstance(expr, And) else "Or"
        return f"{head}({' '.join(render_expression(m) for m in expr.members)})"
    if isinstance(expr, Some):
        return f"Some({expr.prop.iri} {expr.filler.iri})"
    if isinstance(expr, Only):
        return f"Only({expr.prop.iri} {expr.filler.iri})"
    if isinstance(expr, Min):
        return f"Min({expr.count} {expr.prop.iri} {expr.filler.iri})"
    return f"Max({expr.count} {expr.prop.iri} {expr.filler.iri})"


def render_axiom(axiom: Axiom) -> str:
    tag = axiom.tag
    if tag is AxiomTag.CLASS_ASSERTION:
        individual, cls = axiom.args
        args = (cls.iri, individual.iri)
    elif tag is AxiomTag.PROPERTY_ASSERTION:
        subject, prop, filler = axiom.args
        rendered = filler.iri if isinstance(filler, Entity) else render_literal(filler)
        args = (prop.iri, subject.iri, rendered)
    elif tag is AxiomTag.CLASS_DEFINITION:
        cls, expr = axiom.args
        args = (cls.iri, render_expression(expr))
    else:
        args = tuple(a.iri for a in axiom.args)
    return f"{tag.value}({' '.join(args)})"


_BOX_ORDER = {Box.RBOX: 0, Box.TBOX: 1, Box.ABOX: 2}


def serialize(onto: Ontology, include_inferred: bool = False) -> str:
    lines: list[str] = []
    builtin = set(model.BUILTINS)
    for keyword, kind in _DECLARATIONS.items():
        names = sorted(e.iri for e in onto.entities_of_kind(kind) if e not in builtin)
        lines.extend(f"{keyword}({iri})" for iri in names)
    asserted = onto.axioms("asserted")
    rendered = sorted((_BOX_ORDER[a.tag.box], render_axiom(a)) for a in asserted)
    lines.extend(text for _, text in rendered)
    if include_inferred:
        inferred = sorted(
            (_BOX_ORDER[a.tag.box], render_axiom(a)) for a in onto.inferred_axioms()
        )
        lines.extend(f"# inferred: {text}" for _, text in inferred)
    return "\n".join(lines) + ("\n" if lines else "")
