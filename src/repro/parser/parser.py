"""Recursive-descent parser for dependencies, queries, and mappings."""

from __future__ import annotations

import itertools
import re

from repro.dependencies.egds import EGD
from repro.dependencies.mapping import SchemaMapping
from repro.dependencies.tgds import TGD
from repro.parser.lexer import TOKEN_SPEC, Token, tokenize
from repro.relational.queries import Atom, ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.relational.schema import RelationSymbol, Schema
from repro.relational.terms import Const, Variable

_anon_counter = itertools.count(1)


class ParseError(ValueError):
    """Raised on a syntax error, with line/column information."""


def _constant_value(text: str) -> str | int | float:
    """The value of a STRING or NUMBER token's text."""
    if text[0] in "'\"":
        return text[1:-1].replace("\\'", "'").replace('\\"', '"')
    return float(text) if "." in text else int(text)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(tokenize(text))
        self.pos = 0

    # --------------------------------------------------------------- stream

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.current
        if token.kind != kind:
            raise ParseError(
                f"line {token.line}, column {token.column}: "
                f"expected {kind}, found {token.kind} ({token.text!r})"
            )
        return self.advance()

    def accept(self, kind: str) -> Token | None:
        if self.current.kind == kind:
            return self.advance()
        return None

    # ---------------------------------------------------------------- terms

    def parse_term(self) -> Variable | Const:
        token = self.current
        if token.kind == "IDENT":
            self.advance()
            if token.text == "_":
                return Variable(f"_anon{next(_anon_counter)}")
            return Variable(token.text)
        if token.kind in ("STRING", "NUMBER"):
            self.advance()
            return Const(_constant_value(token.text))
        raise ParseError(
            f"line {token.line}, column {token.column}: "
            f"expected a term, found {token.kind} ({token.text!r})"
        )

    def parse_atom(self) -> Atom:
        name = self.expect("IDENT").text
        self.expect("LPAREN")
        terms: list[Variable | Const] = []
        if self.current.kind != "RPAREN":
            terms.append(self.parse_term())
            while self.accept("COMMA"):
                terms.append(self.parse_term())
        self.expect("RPAREN")
        return Atom(name, terms)

    def parse_atom_list(self) -> list[Atom]:
        atoms = [self.parse_atom()]
        while self.accept("COMMA"):
            atoms.append(self.parse_atom())
        return atoms

    # --------------------------------------------------------- dependencies

    def parse_dependency(self, label: str | None = None) -> TGD | EGD:
        """Parse ``body -> head.`` where head is atoms or an equality."""
        body = self.parse_atom_list()
        self.expect("ARROW")
        # Lookahead: equality head (var = term) vs atom head (ident lparen).
        if (
            self.current.kind == "IDENT"
            and self.tokens[self.pos + 1].kind == "EQ"
        ):
            lhs_tok = self.expect("IDENT")
            self.expect("EQ")
            rhs = self.parse_term()
            self.expect("PERIOD")
            return EGD(body, Variable(lhs_tok.text), rhs, label=label)
        head = self.parse_atom_list()
        self.expect("PERIOD")
        return TGD(body, head, label=label)

    # --------------------------------------------------------------- queries

    def parse_query_rule(self) -> ConjunctiveQuery:
        """Parse ``name(vars) :- atoms.`` (trailing period optional)."""
        head = self.parse_atom()
        head_vars: list[Variable] = []
        for term in head.terms:
            if not isinstance(term, Variable):
                raise ParseError(f"query head terms must be variables, got {term!r}")
            head_vars.append(term)
        self.expect("IMPLIEDBY")
        body = self.parse_atom_list()
        self.accept("PERIOD")
        return ConjunctiveQuery(head_vars, body, name=head.relation)

    # --------------------------------------------------------------- mapping

    def parse_schema_decl(self) -> list[RelationSymbol]:
        """Parse ``R/2, S/3.`` after a SOURCE/TARGET keyword."""
        rels: list[RelationSymbol] = []
        while True:
            name = self.expect("IDENT").text
            self.expect("SLASH")
            arity = int(self.expect("NUMBER").text)
            rels.append(RelationSymbol(name, arity))
            if not self.accept("COMMA"):
                break
        self.expect("PERIOD")
        return rels

    def parse_mapping(self) -> SchemaMapping:
        source = Schema()
        target = Schema()
        st_tgds: list[TGD] = []
        target_tgds: list[TGD] = []
        target_egds: list[EGD] = []
        seen_decl = False

        while self.current.kind != "EOF":
            if self.current.kind == "IDENT" and self.current.text in (
                "SOURCE",
                "TARGET",
            ):
                keyword = self.advance().text
                schema = source if keyword == "SOURCE" else target
                for rel in self.parse_schema_decl():
                    schema.add(rel)
                seen_decl = True
                continue
            dep = self.parse_dependency()
            if isinstance(dep, EGD):
                target_egds.append(dep)
            elif dep.body_relations() <= source.names():
                st_tgds.append(dep)
            elif dep.body_relations() <= target.names():
                target_tgds.append(dep)
            else:
                raise ParseError(
                    f"{dep.label}: body relations {sorted(dep.body_relations())} "
                    "are neither all-source nor all-target "
                    "(declare schemas with SOURCE/TARGET first)"
                )
        if not seen_decl:
            raise ParseError("a mapping file needs SOURCE and TARGET declarations")
        return SchemaMapping(source, target, st_tgds, target_tgds, target_egds)


def parse_dependency(text: str, label: str | None = None) -> TGD | EGD:
    """Parse a single tgd or egd, e.g. ``R(x,y) -> T(x).`` or
    ``T(x,y), T(x,z) -> y = z.``"""
    parser = _Parser(text)
    dep = parser.parse_dependency(label=label)
    parser.expect("EOF")
    return dep


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a conjunctive query, e.g. ``q(x) :- T(x, y).``"""
    parser = _Parser(text)
    query = parser.parse_query_rule()
    parser.expect("EOF")
    return query


def parse_program(text: str) -> UnionOfConjunctiveQueries:
    """Parse one or more query rules with the same head name into a UCQ."""
    parser = _Parser(text)
    disjuncts = []
    while parser.current.kind != "EOF":
        disjuncts.append(parser.parse_query_rule())
    names = {d.name for d in disjuncts}
    if len(names) > 1:
        raise ParseError(f"UCQ disjuncts must share a head name, got {names}")
    return UnionOfConjunctiveQueries(disjuncts, name=disjuncts[0].name)


def parse_mapping(text: str) -> SchemaMapping:
    """Parse a full schema mapping file (see package docstring for syntax)."""
    return _Parser(text).parse_mapping()


# The fact fast path of ``parse_instance``.  Its patterns are the
# lexer's own token patterns, so wherever it matches, the lexer would
# have produced the same tokens.  Every repetition in ``_FACT`` has one
# way to split its input (a comment runs to the end of its line) and no
# two whitespace gaps are adjacent (the gap before ``)`` sits inside the
# optional argument group, so ``R(`` plus blanks has one split too), so
# a failed match backtracks in linear time.
_TOKENS = dict(TOKEN_SPEC)
_GAP = r"[ \t\r\n]*"
_CONSTANT = f"{_TOKENS['STRING']}|{_TOKENS['NUMBER']}"
_FILLER = rf"(?:[ \t\r\n]|{_TOKENS['COMMENT']}(?![^\n]))*"
_FACT = re.compile(
    rf"{_FILLER}({_TOKENS['IDENT']}){_GAP}\({_GAP}"
    rf"(?:((?:{_CONSTANT})(?:{_GAP},{_GAP}(?:{_CONSTANT}))*){_GAP})?\){_GAP}\."
)
_FILLER_RE = re.compile(_FILLER)
_CONSTANT_RE = re.compile(_CONSTANT)


def _scan_instance(text: str) -> "Instance | None":
    """The instance of ``text`` if it is only constant-argument facts,
    whitespace and comments (no comment inside a fact); ``None`` if the
    scan stops anywhere before the end."""
    from repro.relational.instance import Fact, Instance

    instance = Instance()
    match_fact = _FACT.match
    constants = _CONSTANT_RE.findall
    pos = 0
    while (match := match_fact(text, pos)) is not None:
        relation, args = match.groups()
        instance.add(Fact(relation, map(_constant_value, constants(args or ""))))
        pos = match.end()
    if _FILLER_RE.match(text, pos).end() != len(text):
        return None
    return instance


def _parse_facts(text: str) -> "Instance":
    """The general parser's reading of a fact file: token by token, with
    every syntax error reported at its line and column."""
    from repro.relational.instance import Fact, Instance

    parser = _Parser(text)
    instance = Instance()
    while parser.current.kind != "EOF":
        atom = parser.parse_atom()
        parser.expect("PERIOD")
        args = []
        for term in atom.terms:
            if isinstance(term, Variable):
                raise ParseError(
                    f"fact {atom.relation}: argument {term.name!r} is not a "
                    "constant (quote strings, e.g. 'abc')"
                )
            args.append(term.value)
        instance.add(Fact(atom.relation, args))
    return instance


def parse_instance(text: str) -> "Instance":
    """Parse a list of ground facts, e.g. ``R('a', 1). S('b', 'c').``

    All atom arguments must be constants (quoted strings or numbers);
    bare identifiers are rejected to avoid silently reading variables.

    A text made only of such facts, whitespace and comments is read by
    one regex scan; any other text (every malformed one among them) is
    parsed again from the start by the general parser, so errors and
    their positions are the general parser's.
    """
    instance = _scan_instance(text)
    return _parse_facts(text) if instance is None else instance
