"""Differential tests for the fact scan of ``parse_instance``.

``parse_instance`` reads a fact file with one regex scan and hands any
text the scan cannot read whole to the general token-by-token parser
(``_parse_facts``).  The two must build the same instance — same facts,
same value types, same insertion order — on every text the scan reads,
and a malformed text must raise the general parser's error, type and
message, line and column included.
"""

import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.generator import DEFAULT_CONFIG, random_scenario
from repro.fuzz.render import render_instance
from repro.parser import ParseError, parse_instance
from repro.parser.lexer import LexError
from repro.parser.parser import _parse_facts, _scan_instance


def shape(instance):
    """Facts in iteration order, every value with its type."""
    return [
        (fact.relation, tuple((type(value), value) for value in fact.args))
        for fact in instance
    ]


def outcome(parse, text):
    try:
        return ("ok", shape(parse(text)))
    except (ParseError, LexError) as error:
        # Anonymous variables are numbered by a process-wide counter.
        return (type(error), re.sub(r"_anon\d+", "_anon", str(error)))


# ------------------------------------------------------------ generators

_PLAIN = list("ab Z09,.()%#-_;!\t\n") + ["é", "\r"]


@st.composite
def string_tokens(draw):
    quote = draw(st.sampled_from(["'", '"']))
    pieces = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_PLAIN + ['"' if quote == "'" else "'"]),
                st.sampled_from(["\\'", '\\"', "\\\\", "\\n", "\\%"]),
            ),
            max_size=6,
        )
    )
    return quote + "".join(pieces) + quote


numbers = st.one_of(
    st.integers(-10**9, 10**9).map(str),
    st.tuples(st.integers(-999, 999), st.integers(0, 10**6)).map(
        lambda parts: f"{parts[0]}.{parts[1]}"
    ),
    st.just("-0"),
)
constants = st.one_of(string_tokens(), numbers)
gaps = st.sampled_from(["", " ", "\t", "\n", "\r\n", "  \r\n\t"])
fillers = st.lists(
    st.one_of(gaps, st.sampled_from(["% note\n", "# note\r\n", "%\n", "#x%y#\n"])),
    max_size=3,
).map("".join)


@st.composite
def fact_texts(draw):
    relation = draw(st.sampled_from(["R", "S1", "Rel_b", "T"]))
    args = draw(st.lists(constants, max_size=4))
    gap = lambda: draw(gaps)  # noqa: E731
    inner = f"{gap()},{gap()}".join(args)
    return f"{relation}{gap()}({gap()}{inner}{gap()}){gap()}."


@st.composite
def instance_texts(draw):
    facts = draw(st.lists(fact_texts(), max_size=6))
    text = "".join(draw(fillers) + fact for fact in facts)
    # A comment may end the text without a newline.
    return text + draw(st.one_of(fillers, st.just("% last line")))


# ----------------------------------------------------------------- tests


@settings(max_examples=300, deadline=None)
@given(instance_texts())
def test_scan_builds_the_general_parsers_instance(text):
    scanned = _scan_instance(text)
    assert scanned is not None, text
    assert shape(scanned) == shape(_parse_facts(text))


_NOISE = list("x1.,()'\"\\%#!-@ \n\f\v")


@settings(max_examples=400, deadline=None)
@given(instance_texts(), st.integers(0, 10**6), st.sampled_from(_NOISE),
       st.booleans())
def test_edited_text_parses_like_the_general_parser(text, where, char, insert):
    """One inserted or deleted character: same instance or same error."""
    where %= len(text) + 1
    if insert:
        text = text[:where] + char + text[where:]
    else:
        text = text[:where] + text[where + 1:]
    assert outcome(parse_instance, text) == outcome(_parse_facts, text)


def test_the_scan_covers_every_listed_syntax():
    text = (
        "R('it\\'s', \"say \\\"hi\\\"\", -7, 2.5).\r\n"
        "% comment\n# another\r\n"
        "S().  T( ) . R('a', 'b', 0, -0.0). R('x',\n'y', 1, 1.0)."
    )
    scanned = _scan_instance(text)
    assert scanned is not None
    assert shape(scanned) == shape(_parse_facts(text))
    assert ("R", ((str, "it's"), (str, 'say "hi"'), (int, -7), (float, 2.5))) in (
        shape(scanned)
    )
    assert len(scanned) == 5


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("R(x).", ParseError,
         "fact R: argument 'x' is not a constant (quote strings, e.g. 'abc')"),
        ("R('a')", ParseError, "line 1, column 7: expected PERIOD, found EOF ('')"),
        ("R('a'). S('b')", ParseError,
         "line 1, column 15: expected PERIOD, found EOF ('')"),
        ("R('abc).", LexError, "line 1, column 3: unexpected character \"'\""),
        ('R("a).', LexError, "line 1, column 3: unexpected character '\"'"),
        ("R('a') ! .", LexError, "line 1, column 8: unexpected character '!'"),
        ("R('a'); S('b').", LexError,
         "line 1, column 7: unexpected character ';'"),
        ("R(('a')).", ParseError,
         "line 1, column 3: expected a term, found LPAREN ('(')"),
        ("R('a'.", ParseError,
         "line 1, column 6: expected RPAREN, found PERIOD ('.')"),
        ("R('a')).", ParseError,
         "line 1, column 7: expected PERIOD, found RPAREN (')')"),
        ("R('a'). S('b'). @@", LexError,
         "line 1, column 17: unexpected character '@'"),
        ("R('a'). S('b') T", ParseError,
         "line 1, column 16: expected PERIOD, found IDENT ('T')"),
        ("R('a'). 1", ParseError,
         "line 1, column 9: expected IDENT, found NUMBER ('1')"),
        ("R(1.).", ParseError,
         "line 1, column 4: expected RPAREN, found PERIOD ('.')"),
        ("R('a\\\nb').", LexError, "line 1, column 3: unexpected character \"'\""),
        ("R('a')\n\n  S(x, 'b').", ParseError,
         "line 3, column 3: expected PERIOD, found IDENT ('S')"),
        ("R\r\n('a')).", ParseError,
         "line 2, column 6: expected PERIOD, found RPAREN (')')"),
    ],
)
def test_malformed_text_raises_the_general_parsers_error(text, error, message):
    assert _scan_instance(text) is None
    with pytest.raises(error) as raised:
        parse_instance(text)
    assert type(raised.value) is error and str(raised.value) == message


def test_comment_inside_a_fact_falls_back_and_parses():
    text = "R('a', % why not\n 'b'). S(1)."
    assert _scan_instance(text) is None
    assert shape(parse_instance(text)) == shape(_parse_facts(text))
    assert len(parse_instance(text)) == 2


def test_long_comment_before_garbage_fails_fast():
    # Unambiguous repetitions: a failed scan backtracks linearly.
    text = "R('a'). " + "%" * 100_000 + "\n" + " " * 100_000 + "@"
    assert _scan_instance(text) is None
    with pytest.raises(LexError, match="column 100001: unexpected character '@'"):
        parse_instance(text)


@pytest.mark.parametrize("blank", [" ", "\n", "\r\n", "\t"])
@pytest.mark.parametrize(
    "head, tail",
    [
        ("R(", "x)."),
        ("R(", ""),
        ("R('a'", "x)."),
        ("R('a', ", "x)."),
        ("R('a', 1", "@"),
        ("R('a')", "x"),
        ("R", "x"),
    ],
)
def test_long_blank_run_inside_a_fact_fails_fast(blank, head, tail):
    # No two whitespace gaps of the fact pattern are adjacent, so a
    # failed scan splits a blank run one way only: a quadratic split
    # search over 100k blanks would take tens of seconds.
    text = head + blank * 100_000 + tail
    start = time.perf_counter()
    assert _scan_instance(text) is None
    assert time.perf_counter() - start < 2.0
    assert outcome(parse_instance, text) == outcome(_parse_facts, text)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_rendered_fuzz_instance_round_trips_through_the_scan(seed):
    scenario = random_scenario(seed, DEFAULT_CONFIG)
    text = render_instance(scenario.instance)
    scanned = _scan_instance(text)
    assert scanned is not None
    assert scanned == scenario.instance
    assert shape(scanned) == shape(_parse_facts(text))
    assert parse_instance(text) == scenario.instance


def test_rendered_mixed_instance_round_trips():
    from repro.relational.instance import Fact, Instance

    rng = random.Random("scan-roundtrip")
    facts = [
        Fact("R", (rng.choice(["a", "it's", "x y", ""]), rng.randint(-50, 50),
                   rng.choice([0.5, -2.25, 3.0])))
        for _ in range(60)
    ]
    instance = Instance(facts)
    text = render_instance(instance)
    assert shape(parse_instance(text)) == shape(_parse_facts(text))
    assert parse_instance(text) == instance
