"""Over-deep input gets a ParseError, from the library and the daemon.

The pattern and regex parsers share one nesting bound,
``repro.errors.MAX_NESTING_DEPTH``.  Input at the bound is served like
any other; one level past it is a structured ``ParseError`` (exit code
3, flight-recorded) instead of a ``RecursionError`` somewhere
downstream.
"""

from __future__ import annotations

import pytest

from repro.errors import MAX_NESTING_DEPTH, ParseError
from repro.patterns.parser import parse_pattern
from repro.regex.parser import parse_regex
from repro.service import EngineSession, ServiceServer, call_service
from repro.xmlmodel.dtd import parse_dtd


def nested_pattern(root: str, label: str, depth: int) -> str:
    """``root[label[label[...]]]`` with *depth* pattern nodes in a chain."""
    return root + f"[{label}" * (depth - 1) + "]" * (depth - 1)


def nested_regex(depth: int) -> str:
    """``((...(a)...))`` inside *depth* parentheses."""
    return "(" * depth + "a" + ")" * depth


def deep_std_mapping(depth: int) -> str:
    return (
        "source:\n    r -> a*\ntarget:\n    t -> b*\n"
        f"std: {nested_pattern('r', 'a', depth)} -> "
        f"{nested_pattern('t', 'b', depth)}\n"
    )


def deep_dtd_mapping(depth: int) -> str:
    return (
        f"source:\n    r -> {nested_regex(depth)}*\ntarget:\n    t -> b*\n"
        "std: r[a] -> t[b]\n"
    )


class TestParsers:
    def test_pattern_at_the_bound(self):
        pattern = parse_pattern(nested_pattern("r", "a", MAX_NESTING_DEPTH))
        assert pattern.size == MAX_NESTING_DEPTH

    @pytest.mark.parametrize(
        "text",
        [
            nested_pattern("r", "a", MAX_NESTING_DEPTH + 1),
            "r" + "/a" * MAX_NESTING_DEPTH,
            "r[a//" + "b/" * (MAX_NESTING_DEPTH - 2) + "c]",
            "r(" + "f(" * MAX_NESTING_DEPTH + "x" + ")" * (MAX_NESTING_DEPTH + 1),
            nested_pattern("r", "a", 2000),
        ],
        ids=["brackets", "child-path", "mixed-path", "skolem-terms", "2000"],
    )
    def test_pattern_past_the_bound(self, text):
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_pattern(text)

    def test_regex_at_the_bound(self):
        assert str(parse_regex(nested_regex(MAX_NESTING_DEPTH))) == "a"
        assert parse_regex("a" + "*" * (MAX_NESTING_DEPTH - 1))

    @pytest.mark.parametrize(
        "text",
        [
            nested_regex(MAX_NESTING_DEPTH + 1),
            "a" + "*" * MAX_NESTING_DEPTH,
            nested_regex(2000),
        ],
        ids=["parentheses", "postfix", "2000"],
    )
    def test_regex_past_the_bound(self, text):
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_regex(text)
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_dtd(f"r -> {text}")


#: The request body each command under test takes for one mapping text.
COMMANDS = {
    "check": lambda text: {"mappings": [text]},
    "lint": lambda text: {"mappings": [text]},
    "delta": lambda text: {"name": "deep", "mapping": text},
}

MAPPINGS = {"std": deep_std_mapping, "dtd": deep_dtd_mapping}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("shape", sorted(MAPPINGS))
class TestServedDepth:
    def test_session_at_and_past_the_bound(self, command, shape):
        session = EngineSession()
        build = MAPPINGS[shape]
        at_bound = session.handle(command, COMMANDS[command](build(MAX_NESTING_DEPTH)))
        assert at_bound["ok"], at_bound.get("error")
        assert at_bound["exit_code"] in (0, 1, 2)
        past = session.handle(
            command, COMMANDS[command](build(MAX_NESTING_DEPTH + 1))
        )
        assert past["ok"] is False
        assert past["exit_code"] == 3
        assert past["error"]["type"] == "ParseError"
        record = session.debug_request(past["trace_id"])
        assert record is not None and record["status"] == "error"

    def test_http_at_and_past_the_bound(self, command, shape):
        build = MAPPINGS[shape]
        with ServiceServer(EngineSession(), port=0) as server:
            at_bound = call_service(
                server.url, command, COMMANDS[command](build(MAX_NESTING_DEPTH))
            )
            assert at_bound["ok"], at_bound.get("error")
            past = call_service(
                server.url, command, COMMANDS[command](build(MAX_NESTING_DEPTH + 1))
            )
            assert past["exit_code"] == 3
            assert past["error"]["type"] == "ParseError"
            record = server.session.debug_request(past["trace_id"])
            assert record is not None and record["status"] == "error"
