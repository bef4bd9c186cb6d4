"""Parser for the DTD production syntax.

Grammar (standard precedence: postfix ``* + ?`` bind tightest, then
sequence, then ``|``)::

    expr   := seq ('|' seq)*
    seq    := item ((',')? item)*        -- comma optional between items
    item   := atom ('*' | '+' | '?')*
    atom   := IDENT | 'eps' | 'empty' | '(' expr ')'

Examples accepted (all appear in the paper)::

    prof*
    teach, supervise
    course, course
    b1 | b2
    c1? c2? c3?
    eps
"""

from __future__ import annotations

import re

from repro.errors import MAX_NESTING_DEPTH, ParseError
from repro.regex.ast import (
    EMPTY,
    EPSILON,
    Optional,
    Plus,
    Regex,
    Star,
    Symbol,
    concat,
    union,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_\-.]*)
  | (?P<punct>[()|,*+?])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        match = _TOKEN_RE.match(text, i)
        if match is None:
            raise ParseError("unexpected character in regex", text, i)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), i))
        i = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of regex", self.text, len(self.text))
        self.pos += 1
        return token

    # Each parse_* returns the expression with its height (nesting levels,
    # a symbol is 1); no height may exceed MAX_NESTING_DEPTH.
    def check_height(self, height: int) -> int:
        if height > MAX_NESTING_DEPTH:
            raise ParseError(
                f"regex nests deeper than {MAX_NESTING_DEPTH} levels",
                self.text, self.tokens[self.pos - 1][2],
            )
        return height

    def parse_expr(self, depth: int = 0) -> tuple[Regex, int]:
        parts = [self.parse_seq(depth)]
        while self.peek() is not None and self.peek()[1] == "|":
            self.next()
            parts.append(self.parse_seq(depth))
        height = max(h for __, h in parts) + (len(parts) > 1)
        return union([expr for expr, __ in parts]), self.check_height(height)

    def parse_seq(self, depth: int) -> tuple[Regex, int]:
        parts = [self.parse_item(depth)]
        while True:
            token = self.peek()
            if token is None or token[1] in ")|":
                break
            if token[1] == ",":
                self.next()
                token = self.peek()
                if token is None or token[1] in ")|,":
                    raise ParseError("dangling comma in regex", self.text,
                                     len(self.text) if token is None else token[2])
            parts.append(self.parse_item(depth))
        height = max(h for __, h in parts) + (len(parts) > 1)
        return concat([expr for expr, __ in parts]), self.check_height(height)

    def parse_item(self, depth: int) -> tuple[Regex, int]:
        expr, height = self.parse_atom(depth)
        while self.peek() is not None and self.peek()[1] in "*+?":
            __, op, __ = self.next()
            height = self.check_height(height + 1)
            if op == "*":
                expr = Star(expr)
            elif op == "+":
                expr = Plus(expr)
            else:
                expr = Optional(expr)
        return expr, height

    def parse_atom(self, depth: int) -> tuple[Regex, int]:
        kind, value, offset = self.next()
        if value == "(":
            # parenthesis levels bound the parser's own recursion
            self.check_height(depth + 1)
            result = self.parse_expr(depth + 1)
            kind, value, offset = self.next()
            if value != ")":
                raise ParseError(f"expected ')', got {value!r}", self.text, offset)
            return result
        if kind == "ident":
            if value == "eps":
                return EPSILON, 1
            if value == "empty":
                return EMPTY, 1
            return Symbol(value), 1
        raise ParseError(f"unexpected token {value!r} in regex", self.text, offset)


def parse_regex(text: str) -> Regex:
    """Parse a regular expression in DTD production syntax.

    The empty string parses to epsilon (an element with no children).
    """
    if not text.strip():
        return EPSILON
    parser = _Parser(text)
    expr, __ = parser.parse_expr()
    if parser.peek() is not None:
        __, value, offset = parser.peek()
        raise ParseError(f"trailing input {value!r} in regex", text, offset)
    return expr
