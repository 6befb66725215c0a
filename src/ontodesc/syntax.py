"""The .onto text format: parsing and canonical serialization.

A document is a sequence of functional-style statements::

    Class(DOOR) Individual(Door1)              # declarations
    SubClassOf(ROOM INDOOR)                    # axioms
    DefineClass(ROOM And(INDOOR Some(hasDoor DOOR) Max(1 hasDoor DOOR)))
    PropertyAssertion(hasDoor Room1 Door1)

Statements may sit one per line or whitespace-separated; any whitespace
separates tokens, and only a newline starts a new line for error
positions.  `#` starts a comment running to end of line.  Names must
start with a letter or underscore and may then use any character except
whitespace, parentheses, quotes and `#`.  Literals are written `"text"`
(with \\" \\\\ \\n \\t \\r escapes; a string may not span lines),
`true`, `false`, integers and doubles.  Numbers use ASCII digits only:

    integer  [+-]? [0-9]+
    double   [+-]? ( [0-9]+ ( . [0-9]* )? | . [0-9]+ ) ( [eE] [+-]? [0-9]+ )?

where a double has a point or an exponent (or both) and must be finite.
Any other word that starts with a digit, a sign or a point is a
malformed number.

Class expressions use And / Or / Some / Only / Min / Max; a bare name in
an expression position is that named class.  And and Or are n-ary;
intersection binds tighter than union, so the only accepted nesting is a
union whose members are atoms or plain intersections of atoms.  Calls
therefore nest at most three deep below a statement (statement > Or >
And > quantifier); a deeper call is a parse error at its head.  The
count of Min and Max must be an integer token.

References may appear before their declaration: names are resolved only
after the whole document has been scanned.  An undeclared name is an
UnknownEntity error at the name.  Argument kinds are checked by the
model's axiom and expression constructors alone; a wrong kind anywhere
in a statement is a ParseError at the statement's head.

Serialization is canonical: declarations first (classes, object
properties, data properties, individuals, each sorted by IRI), then
RBox, TBox and ABox axioms, each sorted by their rendered line.
Re-serializing a parsed document is byte-stable.  Inferred axioms are
emitted only on request, rendered as `# inferred:` comment lines so the
output stays parseable, after the asserted axioms and in the same order:
by box, then by line.  They are rendered from the installed Closure's
inferred_groups, not from its set of inferred axioms: each group's fixed
arguments are rendered once, around the last argument's text position,
and one term per last argument completes a line.
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import dataclass, fields

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

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_UNESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}

# Every character starts some alternative, so finditer leaves no gaps.
# Numbers must end where a word would, or `12ab` would split in two.
_STRING_BODY = r'"[^"\\\n]*(?:\\["\\ntr][^"\\\n]*)*'
_WORD_END = r'(?=[\s()"#]|\Z)'
_TOKEN = re.compile(
    rf"""(?P<blank>[^\S\n]+|\#[^\n]*)
    |(?P<paren>[()])
    |(?P<newline>\n)
    |(?P<string>{_STRING_BODY}")
    |(?P<quote>")
    |(?P<int>[+-]?[0-9]+){_WORD_END}
    |(?P<double>[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?){_WORD_END}
    |(?P<word>[^\s()"\#]+)""",
    re.VERBOSE,
)
_OPEN_STRING = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


# not frozen: a frozen __init__ sets each field through object.__setattr__,
# and building tokens was half of tokenize
@dataclass(slots=True)
class Token:
    typ: str  # ( ) name string int double bool eof
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if kind == "paren":
            append(Token(word, word, word, line, col))
        elif kind == "word":
            append(_classify(word, line, col))
        elif kind == "string":
            value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], word[1:-1])
            append(Token("string", value, value, line, col))
        elif kind == "quote":
            # the string pattern stopped short: at a bad escape, or at the
            # end of the line or input
            stop = _OPEN_STRING.match(text, m.start()).end()
            if text.startswith("\\", stop):
                raise ParseError(line, stop + 1 - line_start + 1, "bad escape in string literal")
            raise ParseError(line, col, "unterminated string literal")
        else:
            append(_number(kind, word, line, col))
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


def _number(kind: str, word: str, line: int, col: int) -> Token:
    try:
        value = int(word) if kind == "int" else float(word)
    except ValueError:  # int() refuses very long digit strings
        value = None
    # a double too large for a float reads as infinity
    if value is None or kind == "double" and not math.isfinite(value):
        raise ParseError(line, col, f"malformed number: {word!r}")
    return Token(kind, word, value, line, col)


def _classify(word: str, line: int, col: int) -> Token:
    if word == "true":
        return Token("bool", word, True, line, col)
    if word == "false":
        return Token("bool", word, False, line, col)
    head = word[0]
    if head.isdigit() or head in "+-.":
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
# the expression classes are named after their text heads
_EXPRESSIONS = {cls.__name__: cls for cls in (And, Or, Some, Only, Min, Max)}
_AXIOM_HEADS = {t.value for t in AxiomTag}
# Text argument j is axiom argument _TEXT_ORDER[tag][j]; other tags write
# their arguments in axiom order.
_TEXT_ORDER = {
    AxiomTag.CLASS_ASSERTION: (1, 0),
    AxiomTag.PROPERTY_ASSERTION: (1, 0, 2),
}
# statement > Or > And > quantifier: no valid document nests deeper
_MAX_DEPTH = 3
_ARITY = {
    factory: len(inspect.signature(factory).parameters)
    for factory in (*model.AXIOM_FACTORIES.values(), Some, Only, Min, Max)
}


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
            statements.append(self.parse_call(tok, 0))
        return statements

    def parse_call(self, head: Token, depth: int) -> _Call:
        self.expect("(")
        args: list = []
        while True:
            tok = self.next()
            if tok.typ == ")":
                return _Call(head, args)
            if tok.typ == "eof":
                raise ParseError(tok.line, tok.col, "unexpected end of input inside statement")
            if tok.typ == "(":
                raise ParseError(tok.line, tok.col, "unexpected '('")
            if tok.typ == "name" and self.peek().typ == "(":
                if tok.text not in _EXPRESSIONS:
                    raise ParseError(
                        tok.line, tok.col, f"unknown expression constructor: {tok.text!r}"
                    )
                if depth == _MAX_DEPTH:
                    raise ParseError(
                        tok.line, tok.col, f"{tok.text} nests deeper than statement > Or > And > quantifier"
                    )
                args.append(self.parse_call(tok, depth + 1))
            else:
                args.append(tok)


def _check_arity(head: Token, factory, args: list) -> None:
    arity = _ARITY[factory]
    if len(args) != arity:
        raise ParseError(head.line, head.col, f"{head.text} takes {arity} arguments")


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
            if len(st.args) != 1 or not isinstance(st.args[0], Token) or st.args[0].typ != "name":
                raise ParseError(st.head.line, st.head.col, f"{st.head.text} takes one name")
            tok = st.args[0]
            try:
                self.onto.declare(kind, tok.text)
            except model.KindClash as e:
                raise ParseError(tok.line, tok.col, str(e)) from None
        for st in self.statements:
            if st.head.text not in _DECLARATIONS:
                self.onto.assert_axiom(self._axiom(st))
        return self.onto

    def _arg(self, node) -> object:
        """A name's entity, a literal token's Literal, or a call's expression."""
        if isinstance(node, _Call):
            return self._expression(node, "top")
        if node.typ != "name":
            return Literal(node.value)
        entity = self.onto.maybe_lookup(node.text)
        if entity is None:
            raise model.UnknownEntity(
                f"line {node.line}, column {node.col}: unknown entity {node.text!r}",
                node.line,
                node.col,
            )
        return entity

    def _expression(self, node, mode: str) -> ClassExpression:
        # mode limits nesting: a body is an atom, an intersection of atoms,
        # or a union whose members are atoms or intersections of atoms
        if isinstance(node, Token):
            return Named(self._arg(node))
        head = node.head
        cls = _EXPRESSIONS[head.text]
        if cls is And or cls is Or:
            if cls is And and mode == "and" or cls is Or and mode != "top":
                raise ParseError(
                    head.line, head.col, "expression nesting is limited to a union of intersections"
                )
            inner_mode = "and" if cls is And else "or"
            return cls(tuple(self._expression(a, inner_mode) for a in node.args))
        args = [self._arg(a) for a in node.args]
        _check_arity(head, cls, args)
        if cls is Min or cls is Max:
            count = node.args[0]
            if not isinstance(count, Token) or count.typ != "int":
                raise ParseError(head.line, head.col, f"{head.text} takes an integer count first")
            args[0] = count.value
        return cls(*args)

    def _axiom(self, st: _Call) -> Axiom:
        head = st.head
        try:
            args = [self._arg(a) for a in st.args]
            tag = AxiomTag(head.text)
            # a composite second class makes a definition; a named body is
            # the named class expression
            if tag is AxiomTag.EQUIVALENT_CLASSES and len(args) == 2 and isinstance(st.args[1], _Call):
                tag = AxiomTag.CLASS_DEFINITION
            if tag is AxiomTag.CLASS_DEFINITION and len(args) == 2 and isinstance(args[1], Entity):
                args[1] = Named(args[1])
            factory = model.AXIOM_FACTORIES[tag]
            _check_arity(head, factory, args)
            order = _TEXT_ORDER.get(tag)
            if order:
                args = [arg for _, arg in sorted(zip(order, args))]
            return factory(*args)
        except (ParseError, model.UnknownEntity):
            raise
        except model.OntologyError as e:
            # the factories and expression classes are the kind checks
            raise ParseError(head.line, head.col, str(e)) from None


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


def _render_arg(arg) -> str:
    if isinstance(arg, Entity):
        return arg.iri
    if isinstance(arg, Literal):
        return render_literal(arg)
    if isinstance(arg, int):  # a Min / Max count
        return str(arg)
    return render_expression(arg)


def render_expression(expr: ClassExpression) -> str:
    if isinstance(expr, Named):
        return expr.cls.iri
    if isinstance(expr, (And, Or)):
        args = expr.members
    else:
        args = [getattr(expr, f.name) for f in fields(expr)]
    return f"{type(expr).__name__}({' '.join(_render_arg(a) for a in args)})"


def render_axiom(axiom: Axiom) -> str:
    args = axiom.args
    order = _TEXT_ORDER.get(axiom.tag)
    if order:
        args = [args[i] for i in order]
    # entities are most arguments; skip the dispatch for them
    text = " ".join([a.iri if type(a) is Entity else _render_arg(a) for a in args])
    return f"{axiom.tag.value}({text})"


_BOX_ORDER = {Box.RBOX: 0, Box.TBOX: 1, Box.ABOX: 2}


def _inferred_template(tag: AxiomTag) -> tuple[str, str, int]:
    """Format strings for the text before and after an inferred axiom's
    last argument, and the index of its box in _BOX_ORDER.

    Placeholder i stands for the rendered head argument i; the rendered
    names are substituted, never parsed as a template.
    """
    arity = _ARITY[model.AXIOM_FACTORIES[tag]]
    order = tuple(_TEXT_ORDER.get(tag, range(arity)))
    at = order.index(arity - 1)
    before = "".join(f"{{{i}}} " for i in order[:at])
    after = "".join(f" {{{i}}}" for i in order[at + 1 :])
    return f"# inferred: {tag.value}({before}", f"{after})", _BOX_ORDER[tag.box]


_INFERRED_TEMPLATES = {tag: _inferred_template(tag) for tag in model.AXIOM_FACTORIES}


def _inferred_lines(closure) -> list[str]:
    """The `# inferred:` lines, box by box, each box sorted by line.

    Rendered from Closure.inferred_groups: each group's head text once,
    then one term per tail.
    """
    boxes: list[list[str]] = [[] for _ in _BOX_ORDER]
    for tag, head, tails in closure.inferred_groups():
        before, after, box = _INFERRED_TEMPLATES[tag]
        texts = [*map(render_term, head)]
        prefix, suffix = before.format(*texts), after.format(*texts)
        boxes[box].extend([
            prefix + (t.iri if type(t) is Entity else render_literal(t)) + suffix for t in tails
        ])
    for lines in boxes:
        lines.sort()
    return [line for lines in boxes for line in lines]


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
        lines.extend(_inferred_lines(onto.current_closure()))
    return "\n".join(lines) + ("\n" if lines else "")
