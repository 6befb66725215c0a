"""Independent oracles the engine is checked against.

naive_reason reimplements the documented closure semantics in the most
straightforward way available: full rescans to fixpoint, no indexes, no
worklists, no shared code with the engine beyond the data model.  The
three phases (schema, property assertions, memberships in snapshot
rounds) are part of the semantics, so the oracle keeps them; everything
inside a phase is naive.

subsumption_reachability and transitive_fillers express two laws as
plain graph problems on networkx.

naive_violations runs the consistency checks as full scans over the same
saturation, and naive_stamps reports the round in which its membership
rounds add each class to each individual.  satisfies_reference is the
recursive test of one definition body in one snapshot round that the
reasoner's compiled definitions replaced.

The *_scan functions are the linear scans that the store's and the
Closure's query indexes replaced, kept as references for them.  They
read entailed_axioms, the asserted set plus Closure.inferred, not the
Closure's private maps.  read_reference is the axiom round trip that
descriptor reads replaced.
entailed_text_reference is the per-axiom rendering of the inferred set
that the entailed serializer replaced.  parse_reference is the parser
that flat-statement matching replaced: it builds a Token for every
lexeme of the text, then parses the token list.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import networkx as nx

from ontodesc import model
from ontodesc.descriptor import (
    TAG_SPECS,
    DescriptorTag,
    Intent,
    MappingError,
    from_axiom,
    from_definition,
    to_axiom,
)
from ontodesc.model import (
    And,
    AxiomTag,
    Box,
    ClassExpression,
    DATATYPES,
    Entity,
    Kind,
    Literal,
    Max,
    Min,
    NOTHING,
    Named,
    Only,
    Ontology,
    Or,
    Some,
    THING,
    class_assertion,
    property_assertion,
    mentions_at_ground,
    same_individual,
    sub_class,
)
from ontodesc.syntax import (
    _AXIOM_HEADS,
    _DECLARATIONS,
    _ESCAPE,
    _ESCAPES,
    _EXPRESSIONS,
    _MAX_DEPTH,
    _OPEN_STRING,
    _TEXT_ORDER,
    _TOKEN,
    ParseError,
    Token,
    render_axiom,
    serialize,
)


_EMPTY: dict = {}  # stands in for a missing map entry; never written


def _tagged(onto: Ontology, tag: AxiomTag):
    return [a for a in onto.axioms() if a.tag is tag]


def _pair_closure(pairs: set[tuple]) -> set[tuple]:
    """Transitive closure of a relation, by brute rescan."""
    closed = set(pairs)
    while True:
        extra = {
            (a, d)
            for (a, b) in closed
            for (c, d) in closed
            if b == c and (a, d) not in closed
        }
        if not extra:
            return closed
        closed |= extra


def _class_edges(onto: Ontology) -> set[tuple]:
    edges = set()
    for a in _tagged(onto, AxiomTag.SUB_CLASS):
        edges.add((a.args[0], a.args[1]))
    for a in _tagged(onto, AxiomTag.EQUIVALENT_CLASSES):
        edges.add((a.args[0], a.args[1]))
        edges.add((a.args[1], a.args[0]))
    for a in _tagged(onto, AxiomTag.CLASS_DEFINITION):
        subject, expr = a.args
        conjuncts = expr.members if isinstance(expr, And) else (expr,)
        for m in conjuncts:
            if isinstance(m, Named):
                edges.add((subject, m.cls))
    for cls in _named_classes(onto):
        if cls != THING:
            edges.add((cls, THING))
        if cls != NOTHING:
            edges.add((NOTHING, cls))
    return edges


def _named_classes(onto: Ontology) -> list[Entity]:
    return [c for c in onto.entities_of_kind(Kind.CLASS) if c not in DATATYPES]


def _same_groups(onto: Ontology) -> dict[Entity, frozenset]:
    graph = nx.Graph()
    graph.add_nodes_from(onto.individuals())
    for a in _tagged(onto, AxiomTag.SAME_INDIVIDUAL):
        graph.add_edge(a.args[0], a.args[1])
    membership = {}
    for component in nx.connected_components(graph):
        frozen = frozenset(component)
        for ind in component:
            membership[ind] = frozen
    return membership


def _rep(groups: dict, ind: Entity) -> Entity:
    group = groups.get(ind)
    if group is None:
        return ind
    return min(group, key=lambda e: e.iri)


def _naive_saturate(onto: Ontology):
    """The three phases; returns (class_pairs, prop_pairs, groups, facts, types).

    types maps each individual to class -> the snapshot round that added
    the class: 0 for its initial types, r for the additions made from the
    snapshot taken before round r.
    """
    # phase one: schema
    class_pairs = _pair_closure(_class_edges(onto))
    prop_edges = set()
    for a in _tagged(onto, AxiomTag.SUB_PROPERTY):
        prop_edges.add((a.args[0], a.args[1]))
    for a in _tagged(onto, AxiomTag.EQUIVALENT_PROPERTIES):
        prop_edges.add((a.args[0], a.args[1]))
        prop_edges.add((a.args[1], a.args[0]))
    prop_pairs = _pair_closure(prop_edges)
    groups = _same_groups(onto)

    # phase two: property assertions, brute fixpoint
    irreflexive = {a.args[0] for a in _tagged(onto, AxiomTag.IRREFLEXIVE_PROPERTY)}
    symmetric = {a.args[0] for a in _tagged(onto, AxiomTag.SYMMETRIC_PROPERTY)}
    transitive = {a.args[0] for a in _tagged(onto, AxiomTag.TRANSITIVE_PROPERTY)}
    reflexive = {a.args[0] for a in _tagged(onto, AxiomTag.REFLEXIVE_PROPERTY)}
    inverses = [(a.args[0], a.args[1]) for a in _tagged(onto, AxiomTag.INVERSE_PROPERTIES)]
    chains = [(a.args[0], a.args[1], a.args[2]) for a in _tagged(onto, AxiomTag.PROPERTY_CHAIN)]

    facts = {(a.args[0], a.args[1], a.args[2]) for a in _tagged(onto, AxiomTag.PROPERTY_ASSERTION)}
    while True:
        wanted = set()
        for p in reflexive:
            for ind in onto.individuals():
                wanted.add((ind, p, ind))
        for s, p, f in facts:
            for a, b in prop_pairs:
                if a == p and b != p:
                    wanted.add((s, b, f))
            for a, b in inverses:
                if isinstance(f, Entity):
                    if p == a:
                        wanted.add((f, b, s))
                    if p == b:
                        wanted.add((f, a, s))
            if p in symmetric and isinstance(f, Entity):
                wanted.add((f, p, s))
            if p in transitive and isinstance(f, Entity):
                for s2, q, f2 in facts:
                    if q == p and s2 == f:
                        wanted.add((s, p, f2))
            for sup, first, second in chains:
                if p == first and isinstance(f, Entity):
                    for s2, q, f2 in facts:
                        if q == second and s2 == f:
                            wanted.add((s, sup, f2))
            for other in groups.get(s, ()):
                wanted.add((other, p, f))
            if isinstance(f, Entity):
                for other in groups.get(f, ()):
                    wanted.add((s, p, other))
        wanted = {t for t in wanted if not (t[1] in irreflexive and t[0] == t[2])}
        if wanted <= facts:
            break
        facts |= wanted

    # phase three: memberships, snapshot rounds
    domains = {}
    ranges = {}
    for a in _tagged(onto, AxiomTag.PROPERTY_DOMAIN):
        domains.setdefault(a.args[0], set()).add(a.args[1])
    for a in _tagged(onto, AxiomTag.PROPERTY_RANGE):
        if a.args[1] not in DATATYPES:
            ranges.setdefault(a.args[0], set()).add(a.args[1])

    types = {ind: {THING: 0} for ind in onto.individuals()}
    for a in _tagged(onto, AxiomTag.CLASS_ASSERTION):
        types[a.args[0]][a.args[1]] = 0
    for s, p, f in facts:
        for cls in domains.get(p, ()):
            types[s][cls] = 0
        if isinstance(f, Entity):
            for cls in ranges.get(p, ()):
                types[f][cls] = 0

    definitions = [(a.args[0], a.args[1]) for a in _tagged(onto, AxiomTag.CLASS_DEFINITION)]
    for r in itertools.count(1):
        snapshot = {ind: frozenset(ts) for ind, ts in types.items()}
        additions = set()
        for ind, ts in snapshot.items():
            for cls in ts:
                for a, b in class_pairs:
                    if a == cls and b not in ts:
                        additions.add((ind, b))
            for other in groups.get(ind, ()):
                for cls in ts:
                    if cls not in snapshot[other]:
                        additions.add((other, cls))
        for subject, expr in definitions:
            for ind in snapshot:
                if subject not in snapshot[ind] and _holds(expr, ind, snapshot, facts, groups):
                    additions.add((ind, subject))
        if not additions:
            break
        for ind, cls in additions:
            types[ind][cls] = r
    return class_pairs, prop_pairs, groups, facts, types


def naive_stamps(onto: Ontology) -> tuple[dict, list]:
    """(individual -> class -> round, round -> individuals): the round in
    which the naive membership rounds add each class (0 for an initial
    type), and for each round r >= 1 up to the last that adds one, the
    individuals that entered a class in it; round 0 lists nobody."""
    types = _naive_saturate(onto)[4]
    entered = [set()]
    for ind, ts in types.items():
        for r in ts.values():
            while len(entered) <= r:
                entered.append(set())
            if r:
                entered[r].add(ind)
    return types, entered


def naive_reason(onto: Ontology):
    """Returns (inferred axiom frozenset, consistent flag)."""
    asserted = set(onto.axioms())
    class_pairs, prop_pairs, groups, facts, types = _naive_saturate(onto)

    # violations
    consistent = True
    for a in _tagged(onto, AxiomTag.DISJOINT_CLASSES):
        left, right = a.args
        for ind, ts in types.items():
            if left in ts and right in ts:
                consistent = False
    for a in _tagged(onto, AxiomTag.DISJOINT_PROPERTIES):
        left, right = a.args
        carried = {(s, f) for s, p, f in facts if p == left}
        if any((s, f) in carried for s, p, f in facts if p == right):
            consistent = False
    for a in _tagged(onto, AxiomTag.FUNCTIONAL_PROPERTY):
        p = a.args[0]
        for ind in onto.individuals():
            fillers = {f for s, q, f in facts if q == p and s == ind}
            keys = set()
            for f in fillers:
                keys.add(_rep(groups, f) if isinstance(f, Entity) else f)
            if len(keys) > 1:
                consistent = False
    for a in _tagged(onto, AxiomTag.DIFFERENT_INDIVIDUALS):
        if _rep(groups, a.args[0]) == _rep(groups, a.args[1]):
            consistent = False

    # materialize
    derived = set()
    for a, b in class_pairs:
        if a != b:
            derived.add(sub_class(a, b))
    for a, b in prop_pairs:
        if a != b:
            derived.add(model.AXIOM_FACTORIES[AxiomTag.SUB_PROPERTY](a, b))
    for group in {g for g in groups.values() if len(g) > 1}:
        for x, y in itertools.combinations(sorted(group, key=lambda e: e.iri), 2):
            derived.add(same_individual(x, y))
    for s, p, f in facts:
        derived.add(property_assertion(s, p, f))
    for ind, ts in types.items():
        for cls in ts:
            derived.add(class_assertion(ind, cls))
    return frozenset(derived - asserted), consistent


def naive_violations(onto: Ontology) -> set[tuple]:
    """The consistency checks as full scans: a set of (rule, axioms) pairs,
    each axiom set the checked axiom plus the facts that break it."""
    _, _, groups, facts, types = _naive_saturate(onto)
    found = set()
    for a in _tagged(onto, AxiomTag.DISJOINT_CLASSES):
        left, right = a.args
        for ind, ts in types.items():
            if left in ts and right in ts:
                clash = {a, class_assertion(ind, left), class_assertion(ind, right)}
                found.add(("disjoint-classes", frozenset(clash)))
    for a in _tagged(onto, AxiomTag.DISJOINT_PROPERTIES):
        left, right = a.args
        for s, p, f in facts:
            if p == left and (s, right, f) in facts:
                clash = {a, property_assertion(s, left, f), property_assertion(s, right, f)}
                found.add(("disjoint-properties", frozenset(clash)))
    for a in _tagged(onto, AxiomTag.FUNCTIONAL_PROPERTY):
        p = a.args[0]
        for s1, q1, f1 in facts:
            for s2, q2, f2 in facts:
                if q1 == q2 == p and s1 == s2 and _key(groups, f1) != _key(groups, f2):
                    clash = {a, property_assertion(s1, p, f1), property_assertion(s1, p, f2)}
                    found.add(("functional-property", frozenset(clash)))
    for a in _tagged(onto, AxiomTag.DIFFERENT_INDIVIDUALS):
        x, y = a.args
        if _rep(groups, x) == _rep(groups, y):
            found.add(("same-and-different", frozenset({a, same_individual(x, y)})))
    return found


def _key(groups: dict, filler):
    return _rep(groups, filler) if isinstance(filler, Entity) else filler


def _holds(expr, ind, types, facts, groups) -> bool:
    if isinstance(expr, Named):
        return expr.cls in types.get(ind, ())
    if isinstance(expr, And):
        return all(_holds(m, ind, types, facts, groups) for m in expr.members)
    if isinstance(expr, Or):
        return any(_holds(m, ind, types, facts, groups) for m in expr.members)
    fillers = [f for s, p, f in facts if s == ind and p == expr.prop and isinstance(f, Entity)]
    if isinstance(expr, Some):
        return any(expr.filler in types.get(f, ()) for f in fillers)
    if isinstance(expr, Only):
        return all(expr.filler in types.get(f, ()) for f in fillers)
    matching = {_rep(groups, f) for f in fillers if expr.filler in types.get(f, ())}
    if isinstance(expr, Min):
        return len(matching) >= expr.count
    return len(matching) <= expr.count


def satisfies_reference(expr, ind, types, links, same, r) -> bool:
    """Whether `ind` is an instance of `expr` in the snapshot before round r.

    The recursive walk over the body that phase three's compiled
    definitions (reasoner._compile, reasoner._recognise) replaced: `types`
    maps each individual to its class -> round stamps, `links` is the
    subject -> property -> fillers map and `same` the identity map.
    """
    if isinstance(expr, Named):
        return types[ind].get(expr.cls, r) < r
    if isinstance(expr, And):
        for member in expr.members:
            if not satisfies_reference(member, ind, types, links, same, r):
                return False
        return True
    if isinstance(expr, Or):
        for member in expr.members:
            if satisfies_reference(member, ind, types, links, same, r):
                return True
        return False
    fillers = links.get(ind, _EMPTY).get(expr.prop, ())
    named = [f for f in fillers if isinstance(f, Entity)]
    if isinstance(expr, Some):
        return any(types[f].get(expr.filler, r) < r for f in named)
    if isinstance(expr, Only):
        return all(types[f].get(expr.filler, r) < r for f in named)
    matching = {same.get(f, f) for f in named if types[f].get(expr.filler, r) < r}
    if isinstance(expr, Min):
        return len(matching) >= expr.count
    return len(matching) <= expr.count  # Max


# ---------------------------------------------------------------------------
# graph-problem oracles


def subsumption_reachability(onto: Ontology) -> set[tuple]:
    """Strict subsumption pairs as reachability over the edge graph."""
    graph = nx.DiGraph()
    graph.add_nodes_from(_named_classes(onto))
    graph.add_edges_from(_class_edges(onto))
    pairs = set()
    for cls in graph.nodes:
        for reached in nx.descendants(graph, cls):
            if reached != cls:
                pairs.add((cls, reached))
    return pairs


def transitive_fillers(onto: Ontology, prop: Entity) -> set[tuple]:
    """Entailed prop pairs for a world that only uses transitivity."""
    graph = nx.DiGraph()
    for a in _tagged(onto, AxiomTag.PROPERTY_ASSERTION):
        if a.args[1] == prop:
            graph.add_edge(a.args[0], a.args[2])
    closure = nx.transitive_closure(graph)
    return set(closure.edges)


# ---------------------------------------------------------------------------
# query scans


def entailed_axioms(onto: Ontology) -> frozenset:
    """The asserted axioms and the current Closure's inferred ones; raises
    StaleClosure while the store has changed since its last run."""
    return onto.axioms() | onto.current_closure().inferred


def axioms_about_scan(axioms, tag: AxiomTag, ground, at: int = 0) -> set:
    """Ontology.axioms_about over a set of axioms, by scanning them."""
    return {a for a in axioms if a.tag is tag and mentions_at_ground(a, ground, at)}


def entailed_links(onto: Ontology) -> set[tuple]:
    """Every entailed (subject, property, filler) triple."""
    return {
        tuple(a.args)
        for a in entailed_axioms(onto)
        if a.tag is AxiomTag.PROPERTY_ASSERTION
    }


def fillers_scan(links: set[tuple], individual: Entity, prop: Entity) -> set:
    return {f for s, p, f in links if s == individual and p == prop}


def links_of_scan(links: set[tuple], individual: Entity) -> set:
    return {(p, f) for s, p, f in links if s == individual}


def entailed_types(onto: Ontology) -> dict[Entity, set]:
    """Each individual's entailed classes."""
    types = {ind: set() for ind in onto.individuals()}
    for a in entailed_axioms(onto):
        if a.tag is AxiomTag.CLASS_ASSERTION:
            types[a.args[0]].add(a.args[1])
    return types


def instances_of_scan(types: dict, cls: Entity) -> set:
    return {ind for ind, ts in types.items() if cls in ts}


def entailed_reach(onto: Ontology) -> dict[Entity, set]:
    """Each named class's strict entailed superclasses, equivalents included."""
    reach = {c: set() for c in _named_classes(onto)}
    for a in entailed_axioms(onto):
        if a.tag is AxiomTag.SUB_CLASS and a.args[0] != a.args[1]:
            reach[a.args[0]].add(a.args[1])
    return reach


def direct_scan(onto: Ontology, reach: dict, cls: Entity, below: bool) -> set:
    """The taxonomy neighbours of `cls` on one side, by a double loop.

    (lo, hi) orients each comparison so one walk serves both sides:
    hi is strictly above lo when it is in lo's reach and lo is not in
    hi's.  A candidate is direct when no other candidate lies strictly
    between it and `cls`.
    """
    candidates = []
    for c in _named_classes(onto):
        lo, hi = (c, cls) if below else (cls, c)
        if hi in reach.get(lo, ()) and lo not in reach.get(hi, ()):
            candidates.append(c)
    direct = set()
    for c in candidates:
        for m in candidates:
            lo, hi = (c, m) if below else (m, c)
            if hi in reach.get(lo, ()) and lo not in reach.get(hi, ()):
                break
        else:
            direct.add(c)
    return direct


def most_specific_scan(reach: dict, types: set) -> set:
    """The classes in `types` with no strict subclass among them, by a
    double loop: o is strictly below t when t is in o's reach and o is not
    in t's."""
    return {
        t
        for t in types
        if not any(t in reach.get(o, ()) and o not in reach.get(t, ()) for o in types)
    }


# ---------------------------------------------------------------------------
# descriptor reads


def read_reference(onto: Ontology, entailed, tag: DescriptorTag, ground, old_items: list):
    """DescriptorState.read by the axiom round trip it replaced.

    Every entailed fact becomes a checked axiom - SUB_CLASSES,
    SUPER_CLASSES and INSTANCES from Closure queries, every other tag
    from a scan of `entailed`, an entailed_axioms set - and from_axiom
    maps each back to an item.  Returns the items and the intents a read of a
    descriptor holding `old_items` gives.
    """
    closure = onto.current_closure()
    spec = TAG_SPECS[tag]
    if tag is DescriptorTag.SUB_CLASSES:
        result = {sub_class(c, ground) for c in closure.direct_subclasses(ground)}
    elif tag is DescriptorTag.SUPER_CLASSES:
        result = {sub_class(ground, c) for c in closure.direct_superclasses(ground)}
    elif tag is DescriptorTag.INSTANCES:
        result = {class_assertion(i, ground) for i in closure.instances_of(ground)}
    else:
        result = axioms_about_scan(entailed, spec.axiom_tag, ground, spec.ground_at)
    if tag is DescriptorTag.DEFINITION:
        if len(result) > 1:
            raise MappingError(f"{ground.iri} has {len(result)} definitions")
        items = from_definition(ground, next(iter(result))) if result else []
    else:
        items = sorted({from_axiom(tag, ground, a) for a in result}, key=spec.item_type.sort_key)
    intents = [
        Intent("read", "remove", to_axiom(tag, ground, i), "descriptor")
        for i in old_items
        if i not in items
    ] + [
        Intent("read", "add", to_axiom(tag, ground, i), "descriptor")
        for i in items
        if i not in old_items
    ]
    return items, intents


# ---------------------------------------------------------------------------
# entailed text


def entailed_text_reference(onto: Ontology) -> str:
    """serialize(onto, include_inferred=True) by rendering every axiom of
    Closure.inferred: the asserted text, then one `# inferred:` line per
    axiom, sorted by box (RBox, TBox, ABox) and then by line."""
    boxes = (Box.RBOX, Box.TBOX, Box.ABOX)
    inferred = sorted(
        (boxes.index(a.tag.box), render_axiom(a)) for a in onto.current_closure().inferred
    )
    return serialize(onto) + "".join(f"# inferred: {text}\n" for _, text in inferred)


# ---------------------------------------------------------------------------
# parsing


def tokenize_reference(text: str) -> list[Token]:
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


@dataclass
class _Call:
    head: Token
    args: list  # Token | _Call


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize_reference(text)
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


# Arguments per statement head and per quantifier, written out here rather
# than read from model.SHAPES as the parser under test does, so that an
# arity slip there makes the two parsers disagree.
_ARITY = {
    "SubPropertyOf": 2,
    "EquivalentProperties": 2,
    "DisjointProperties": 2,
    "InverseProperties": 2,
    "PropertyDomain": 2,
    "PropertyRange": 2,
    "FunctionalProperty": 1,
    "ReflexiveProperty": 1,
    "SymmetricProperty": 1,
    "TransitiveProperty": 1,
    "IrreflexiveProperty": 1,
    "SubPropertyChain": 3,
    "SubClassOf": 2,
    "EquivalentClasses": 2,
    "DisjointClasses": 2,
    "DefineClass": 2,
    "ClassAssertion": 2,
    "PropertyAssertion": 3,
    "SameIndividual": 2,
    "DifferentIndividuals": 2,
    "Some": 2,
    "Only": 2,
    "Min": 3,
    "Max": 3,
}


def _check_arity(head: Token, args: list) -> None:
    arity = _ARITY[head.text]
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
        _check_arity(head, args)
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
            _check_arity(head, args)
            order = _TEXT_ORDER.get(tag)
            if order:
                args = [arg for _, arg in sorted(zip(order, args))]
            return model.AXIOM_FACTORIES[tag](*args)
        except (ParseError, model.UnknownEntity):
            raise
        except model.OntologyError as e:
            # the factories and expression classes are the kind checks
            raise ParseError(head.line, head.col, str(e)) from None


def parse_reference(text: str) -> Ontology:
    """syntax.parse by tokenizing the whole text first, then parsing the
    token list."""
    return _Builder(_Parser(text).parse_document()).build()
