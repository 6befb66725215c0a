"""The .onto text format: parsing and canonical serialization.

A document is a sequence of functional-style statements::

    Class(DOOR) Individual(Door1)              # declarations
    SubClassOf(ROOM INDOOR)                    # axioms
    DefineClass(ROOM And(INDOOR Some(hasDoor DOOR) Max(1 hasDoor DOOR)))
    PropertyAssertion(hasDoor Room1 Door1)

Statements may sit one per line or whitespace-separated; any whitespace
separates tokens, and `#` starts a comment running to end of line.
Names start with a letter or underscore and may then use any character
except whitespace, parentheses, quotes and `#`.  Literals are `"text"`
(with \\" \\\\ \\n \\t \\r escapes; a string may not span lines),
`true`, `false`, integers and doubles, in ASCII digits only:

    integer  [+-]? [0-9]+
    double   [+-]? ( [0-9]+ ( . [0-9]* )? | . [0-9]+ ) ( [eE] [+-]? [0-9]+ )?

where a double has a point or an exponent (or both) and must be finite.
Any other word that starts with a digit, a sign or a point is a
malformed number.

Class expressions use And / Or / Some / Only / Min / Max; a bare name in
an expression position is that named class.  And and Or are n-ary.  The
model states the grammar (model._MEMBERS): a union whose members are
atoms or intersections of atoms, intersection binding tighter than
union.  The parser checks that nesting as it reads, so calls nest at
most three deep below a statement (statement > Or > And > quantifier)
and a deeper or misplaced call is a parse error at its head.  The
count of Min and Max must be an integer token.

Parsing builds no tokens, and a document is read into two lists, the
declarations and the axiom statements, each in text order.  A flat
statement (a known head with only plain names for arguments, see
_PLAIN_NAME) is matched whole where the last statement ended, its names
checked by the pattern, split by str.split() and kept as a (head,
offset, names) tuple; any other is parsed from its start by recursive
descent over the token pattern's matches into a _Call tree.  Names are
resolved only after the whole document has been read, so a reference may
precede its declaration; an undeclared name is an UnknownEntity error at
the name.  Every declaration is checked in text order (one name, then no
clash with a builtin or an earlier declaration), and the new names are
declared in one batch (Ontology._declare_all).  An axiom of names alone
is then built by its head's plan (tag, argument order, factory), one
vocabulary probe per name; any other, or a plan that fails, is built
argument by argument.  The axioms go into the fresh store in one
unchecked update (Ontology._insert_all).  Argument kinds are checked by
the model's axiom and expression constructors alone; a wrong kind
anywhere in a statement is a ParseError at its head.  Errors come as if
the whole text were tokenized first (a malformed token anywhere, the
first bad statement, then declarations and axioms), with a line (only a
newline starts one) and column counted only then.

load_world reads a world from a file, or from the packaged seed world
(load_seed, at seed_path()) when given no path.

Serialization is canonical: declarations first (classes, object
properties, data properties, individuals, each sorted by IRI), then
RBox, TBox and ABox axioms, each box sorted by rendered line.
Re-serializing a parsed document is byte-stable.  An IRI the parser
would not read back as that one name (`1abc`, `true`, `a#b`, ...) is an
OntologyError before any text is returned.  Inferred axioms are
emitted only on request, rendered as `# inferred:` comment lines so the
output stays parseable, after the asserted axioms and in the same order:
by box, then by line.  They are rendered from the installed Closure's
inferred_groups, not from its set of inferred axioms: each group's fixed
arguments are joined once, before and after the last argument's text
position, and one term per last argument completes a line.
"""

from __future__ import annotations

import math
import re
from itertools import islice, pairwise

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
    Record,
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
_SKIP = ("blank", "newline")
_OPEN_STRING = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")


def _is_name(word: str) -> bool:
    return (word[0].isalpha() or word[0] == "_") and word != "true" and word != "false"


def _reads_back(name: str) -> bool:
    """The parser's name rule: `name` is one whole word token that _is_name accepts."""
    m = _TOKEN.match(name)
    return m.lastgroup == "word" and m.end() == len(name) and _is_name(name)


# The plain-name rule, which passes some of the names _is_name accepts:
# an ASCII letter or an underscore, then no character that ends a word,
# and not a boolean.
_PLAIN_NAME = r'(?!(?:true|false)(?![^\s()"#]))[A-Za-z_][^\s()"#]*'
# Lines of names that surely read back as themselves.
_PLAIN_NAMES = re.compile(rf"(?:{_PLAIN_NAME}\n)*")


class Token(Record):
    """Token(typ, text, value, line, col); typ is one of ( ) name string
    int double bool eof."""

    __slots__ = ("typ", "text", "value", "line", "col")


def _error(text: str, at: int, message: str) -> ParseError:
    """An error at offset `at`: lines and columns are counted only here."""
    return ParseError(text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at), message)


def _lex(text: str, m: re.Match) -> tuple[str, str, object]:
    """A non-blank match's Token type, text and value, or a ParseError."""
    kind, word = m.lastgroup, m.group()
    if kind == "paren":
        return word, word, word
    if kind == "string":
        value = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], word[1:-1])
        return "string", value, value
    if kind == "quote":
        # the string pattern stopped short: at a bad escape, or at the end of the line or input
        stop = _OPEN_STRING.match(text, m.start()).end()
        if text.startswith("\\", stop):
            raise _error(text, stop + 1, "bad escape in string literal")
        raise _error(text, m.start(), "unterminated string literal")
    if kind == "word":
        if _is_name(word):
            return "name", word, word
        if word == "true" or word == "false":
            return "bool", word, word == "true"
        if not (word[0].isdigit() or word[0] in "+-."):
            raise _error(text, m.start(), f"names must start with a letter or underscore: {word!r}")
    else:  # int() refuses very long digit strings; too large a double reads as infinity
        try:
            value = int(word) if kind == "int" else float(word)
            if kind == "int" or math.isfinite(value):
                return kind, word, value
        except ValueError:
            pass
    raise _error(text, m.start(), f"malformed number: {word!r}")


def tokenize(text: str) -> list[Token]:
    """Every token of the text, for diagnostics and tests; parse builds none."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        if m.lastgroup == "newline":
            line, line_start = line + 1, m.end()
        elif m.lastgroup != "blank":
            tokens.append(Token(*_lex(text, m), line, m.start() - line_start + 1))
    tokens.append(Token("eof", "", None, line, len(text) - line_start + 1))
    return tokens


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
_AXIOM_HEADS = {t.value: t for t in AxiomTag}
# head -> whether it starts a declaration
_HEADS = dict.fromkeys(_DECLARATIONS, True) | dict.fromkeys(_AXIOM_HEADS, False)
# Text argument j is axiom argument _TEXT_ORDER[tag][j]; other tags write
# their arguments in axiom order.
_TEXT_ORDER = {
    AxiomTag.CLASS_ASSERTION: (1, 0),
    AxiomTag.PROPERTY_ASSERTION: (1, 0, 2),
}
# Axiom argument i is text argument _FROM_TEXT[tag][i]: the inverse order.
_FROM_TEXT = {tag: tuple(map(order.index, range(len(order)))) for tag, order in _TEXT_ORDER.items()}
# statement > Or > And > quantifier: no valid document nests deeper
_MAX_DEPTH = 3
# arguments per axiom tag and per quantifier class
_ARITY = {tag: len(shape.roles) for tag, shape in model.SHAPES.items()} | {
    cls: len(cls.__slots__) for cls in (Some, Only, Min, Max)
}
# head -> its plan: the tag, each axiom argument's text position, the factory
_PLANS = {h: (t, _FROM_TEXT.get(t, range(_ARITY[t])), model.AXIOM_FACTORIES[t]) for h, t in _AXIOM_HEADS.items()}


# A flat statement: a head, '(', plain names apart by \s, ')'; its
# arguments are split on \s by str.split().  The names are apart by \s+,
# never \s*, so no word splits into two names and a refusal backtracks
# in linear time.
_FLAT = re.compile(rf'\s*([^\s()"#]+)\s*\(\s*((?:{_PLAIN_NAME}(?:\s+{_PLAIN_NAME})*)?)\s*\)')


class _Call(Record):
    """_Call(head, at, args): the head, its offset, and the arguments:
    names (str), Literals and _Calls."""

    __slots__ = ("head", "at", "args")
    # hashed by identity, so no name matches one
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __iter__(self):  # unpacks as a flat statement's (head, offset, names) does
        return iter((self.head, self.at, self.args))


class _Parser:
    """Flat statements matched whole, others parsed over _TOKEN matches."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0  # pos: where the next match starts

    def next(self) -> tuple[str, str, object, int]:
        """The next token's type, text, value and offset."""
        while (m := _TOKEN.match(self.text, self.pos)) is not None:
            self.pos = m.end()
            if m.lastgroup not in _SKIP:
                return *_lex(self.text, m), m.start()
        return "eof", "", None, self.pos

    def fail(self, at: int, message: str):
        while self.next()[0] != "eof":  # a malformed token anywhere comes first
            pass
        raise _error(self.text, at, message)

    def parse_document(self) -> tuple[list, list]:
        """The declarations and the axiom statements, each in text order: a
        flat statement as a (head, offset, names) tuple, any other as a _Call."""
        text, flat, heads = self.text, _FLAT.match, _HEADS.get
        declarations: list = []
        axioms: list = []
        while True:
            m = flat(text, self.pos)
            if m and (declares := heads(m[1])) is not None:
                (declarations if declares else axioms).append((m[1], m.start(1), m[2].split()))
                self.pos = m.end()
                continue
            typ, head, _, at = self.next()
            if typ == "eof":
                return declarations, axioms
            if typ != "name":
                self.fail(at, f"expected a statement, found {head!r}")
            if (declares := heads(head)) is None:
                self.fail(at, f"unknown statement: {head!r}")
            typ, found, _, paren = self.next()
            if typ != "(":
                self.fail(paren, f"expected '(', found {found!r}")
            (declarations if declares else axioms).append(self.parse_call(head, at, 0))

    def parse_call(self, head: str, at: int, depth: int) -> _Call:
        """The call whose head and '(' have been read."""
        args: list = []
        token = self.next()
        while True:
            typ, word, value, start = token
            if typ == ")":
                return _Call(head, at, args)
            if typ == "eof":
                self.fail(start, "unexpected end of input inside statement")
            if typ == "(":
                self.fail(start, "unexpected '('")
            token = self.next()
            if typ == "name" and token[0] == "(":
                if word not in _EXPRESSIONS:
                    self.fail(start, f"unknown expression constructor: {word!r}")
                if depth == _MAX_DEPTH:
                    self.fail(start, f"{word} nests deeper than statement > Or > And > quantifier")
                args.append(self.parse_call(word, start, depth + 1))
                token = self.next()
            else:
                args.append(word if typ == "name" else Literal(value))


def _argument_at(text: str, at: int, name: str) -> int:
    """The offset of the first token `name` after `at` that no '(' follows."""
    tokens = (m for m in _TOKEN.finditer(text, at) if m.lastgroup not in _SKIP)
    return next(a.start() for a, b in pairwise(tokens) if a.group() == name and b.group() != "(")


class _Builder:
    """Second pass: declare the names, then build and insert the axioms."""

    def __init__(self, text: str):
        self.text, self.onto = text, Ontology()
        self.at = 0  # the statement being built: its unknown names are looked for from here

    def build(self, declarations: list, axioms: list) -> Ontology:
        # IRI -> kind, the builtins and then each name this text declares
        kinds = {iri: e.kind for iri, e in self.onto._vocab.items()}
        known = len(kinds)
        for head, at, args in declarations:
            if len(args) != 1 or type(iri := args[0]) is not str:
                raise _error(self.text, at, f"{head} takes one name")
            kind = _DECLARATIONS[head]
            if (was := kinds.setdefault(iri, kind)) is not kind:
                clash = model.redeclared(iri, was, kind)
                raise _error(self.text, _argument_at(self.text, at, iri), str(clash))
        self.onto._declare_all(dict(islice(kinds.items(), known, None)))
        names, built = self.onto._vocab.get, []  # IRI -> the store's entity, or None
        for head, at, nodes in axioms:
            # the plan takes names alone; anything else, an unknown name or
            # a rejected kind (a named DefineClass body too) goes to _axiom
            _, order, make = _PLANS[head]
            if len(nodes) == len(order) and None not in (args := [names(nodes[j]) for j in order]):
                try:
                    built.append(make(*args))
                    continue
                except model.KindMismatch:
                    pass
            built.append(self._axiom(head, at, nodes))
        self.onto._insert_all(built)
        return self.onto

    def _arg(self, node) -> object:
        """A name's entity, a Literal, or a call's expression."""
        if type(node) is str:
            entity = self.onto.maybe_lookup(node)
            if entity is None:
                e = _error(self.text, _argument_at(self.text, self.at, node), f"unknown entity {node!r}")
                raise model.UnknownEntity(str(e), e.line, e.col)
            return entity
        if type(node) is _Call:
            return self._expression(node, "top")
        return node

    def _expression(self, node, mode: str) -> ClassExpression:
        # mode limits nesting: a body is an atom, an intersection of atoms,
        # or a union whose members are atoms or intersections of atoms
        if type(node) is not _Call:
            return Named(self._arg(node))
        cls = _EXPRESSIONS[node.head]
        if cls is And or cls is Or:
            if cls is And and mode == "and" or cls is Or and mode != "top":
                raise _error(self.text, node.at, "expression nesting is limited to a union of intersections")
            return cls(tuple(self._expression(a, "and" if cls is And else "or") for a in node.args))
        args = [self._arg(a) for a in node.args]
        if len(args) != _ARITY[cls]:
            raise _error(self.text, node.at, f"{node.head} takes {_ARITY[cls]} arguments")
        if cls is Min or cls is Max:
            if type(count := node.args[0]) is not Literal or type(count.value) is not int:
                raise _error(self.text, node.at, f"{node.head} takes an integer count first")
            args[0] = count.value
        return cls(*args)

    def _axiom(self, head: str, at: int, nodes: list) -> Axiom:
        """The statement's axiom, built argument by argument."""
        tag, order, _ = _PLANS[head]
        self.at = at
        try:
            args = [self._arg(a) for a in nodes]
            # a composite second class makes a definition (of the same arity
            # and order); a named body is Named
            if tag is AxiomTag.EQUIVALENT_CLASSES and len(args) == 2 and type(nodes[1]) is _Call:
                tag = AxiomTag.CLASS_DEFINITION
            if tag is AxiomTag.CLASS_DEFINITION and len(args) == 2 and isinstance(args[1], Entity):
                args[1] = Named(args[1])
            if len(args) != len(order):
                raise _error(self.text, at, f"{head} takes {len(order)} arguments")
            return model.AXIOM_FACTORIES[tag](*[args[j] for j in order])
        except (ParseError, model.UnknownEntity):
            raise
        except model.OntologyError as e:
            # the factories and expression classes are the kind checks
            raise _error(self.text, at, str(e)) from None


def parse(text: str) -> Ontology:
    return _Builder(text).build(*_Parser(text).parse_document())


def parse_file(path) -> Ontology:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def seed_path():
    """The packaged seed world, data/seed_world.onto beside this module."""
    from pathlib import Path  # not loaded by the time this module is, on 3.12 and 3.13

    return Path(__file__).with_name("data") / "seed_world.onto"


def load_seed() -> Ontology:
    return parse(seed_path().read_text(encoding="utf-8"))


def load_world(path: str | None) -> Ontology:
    """Parse the ontology at `path`, or the packaged seed when None."""
    if path is None:
        return load_seed()
    return parse_file(path)


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
    if isinstance(arg, (Entity, Literal)):
        return render_term(arg)
    if isinstance(arg, int):  # a Min / Max count
        return str(arg)
    return render_expression(arg)


def render_expression(expr: ClassExpression) -> str:
    if isinstance(expr, Named):
        return expr.cls.iri
    if isinstance(expr, (And, Or)):
        args = expr.members
    else:
        args = [getattr(expr, name) for name in expr.__slots__]
    return f"{type(expr).__name__}({' '.join(_render_arg(a) for a in args)})"


_BOX_ORDER = {box: i for i, box in enumerate(Box)}
# tag -> its head and '(', the axiom argument at each text position (None
# for axiom order), and the index of its box in _BOX_ORDER
_LINE_TEMPLATES = {t: (f"{t.value}(", _TEXT_ORDER.get(t), _BOX_ORDER[s.box]) for t, s in model.SHAPES.items()}


def render_axiom(axiom: Axiom) -> str:
    start, order, _ = _LINE_TEMPLATES[axiom.tag]
    args = axiom.args
    if order:
        args = [args[i] for i in order]
    # entities are most arguments; skip the dispatch for them
    return start + " ".join([a.iri if type(a) is Entity else _render_arg(a) for a in args]) + ")"


def _inferred_template(tag: AxiomTag) -> tuple[str, tuple, tuple, int]:
    """The text that opens an inferred axiom's line, the head arguments
    written before its last argument and those written after it, and
    the index of its box in _BOX_ORDER."""
    arity = _ARITY[tag]
    order = tuple(_TEXT_ORDER.get(tag, range(arity)))
    at = order.index(arity - 1)
    return f"# inferred: {tag.value}(", order[:at], order[at + 1 :], _LINE_TEMPLATES[tag][2]


_INFERRED_TEMPLATES = {tag: _inferred_template(tag) for tag in model.AXIOM_FACTORIES}


def _inferred_lines(closure) -> list[str]:
    """The `# inferred:` lines, box by box, each box sorted by line.

    Rendered from Closure.inferred_groups: each group's head text once,
    then one term per tail.  A head holds only entities.
    """
    boxes: list[list[str]] = [[] for _ in _BOX_ORDER]
    for tag, head, tails in closure.inferred_groups():
        prefix, before, after, box = _INFERRED_TEMPLATES[tag]
        suffix = ""
        for i in before:
            prefix += head[i].iri + " "
        for i in after:
            suffix += " " + head[i].iri
        suffix += ")"
        boxes[box].extend([
            prefix + (t.iri if type(t) is Entity else render_literal(t)) + suffix for t in tails
        ])
    return _by_box(boxes)


def _by_box(boxes: list[list[str]]) -> list[str]:
    """The lines box by box, each box sorted."""
    for lines in boxes:
        lines.sort()
    return [line for lines in boxes for line in lines]


def serialize(onto: Ontology, include_inferred: bool = False) -> str:
    """The canonical text; OntologyError for an IRI the parser would not
    read back as that one name.  One pass over the vocabulary's IRIs
    passes plain names; any other world is held to _reads_back, name by
    name."""
    if _PLAIN_NAMES.fullmatch("\n".join(onto._vocab) + "\n") is None:
        for iri in onto._vocab:
            if not _reads_back(iri):
                raise model.OntologyError(f"cannot write {iri!r}: the parser would not read it back as one name")
    lines: list[str] = []
    builtin = set(model.BUILTINS)
    for keyword, kind in _DECLARATIONS.items():
        names = sorted(e.iri for e in onto.entities_of_kind(kind) if e not in builtin)
        lines.extend(f"{keyword}({iri})" for iri in names)
    boxes: list[list[str]] = [[] for _ in _BOX_ORDER]
    for axiom in onto._asserted:
        boxes[_LINE_TEMPLATES[axiom.tag][2]].append(render_axiom(axiom))
    lines.extend(_by_box(boxes))
    if include_inferred:
        lines.extend(_inferred_lines(onto.current_closure()))
    return "\n".join(lines) + ("\n" if lines else "")
