"""Tiny s-expression reader shared by the formula parser and catalog loader.

Tokens: ``(`` ``)``, double-quoted strings with ``\\n``, ``\\t`` and
``\\X`` (X itself) escapes, and bare atoms (an atom starts at any
non-blank character and runs to the next paren, quote, ``;``, space, tab,
CR or LF). ``;`` starts a comment running to end of line. One compiled
regex splits the text; lines and columns (1-based, counted in characters)
come from counting newlines between tokens, for error reporting.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import FormulaSyntaxError


class SAtom(NamedTuple):
    text: str
    line: int = 0
    column: int = 0


class SString(NamedTuple):
    value: str
    line: int = 0
    column: int = 0


class SList:
    __slots__ = ("items", "line", "column")

    def __init__(self, items: tuple = (), line: int = 0, column: int = 0) -> None:
        self.items = items
        self.line = line
        self.column = column

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __repr__(self) -> str:
        return f"SList(items={self.items!r}, line={self.line}, column={self.column})"


# blanks and comments, then at most one token: ( or ) or a string or a
# quote that opens no complete string or an atom; only the end of the
# text matches no token
_TOKEN = re.compile(
    r'(?:\s|;[^\n]*)*(?:(\()|(\))|("[^"\\]*(?:\\.[^"\\]*)*")|(")|([^()\s;"][^() \t\r\n;"]*))?',
    re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(m: re.Match) -> str:
    return _ESCAPES.get(m[1], m[1])


def _read(text: str, first_only: bool) -> list:
    """The top-level nodes of `text`; with `first_only`, exactly one."""
    out: list = []
    items = out
    open_lists: list = []  # (enclosing items, line, column) per unclosed '('
    line, line_start, counted = 1, 0, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        start = m.end() if kind is None else m.start(kind)
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        if first_only and out:
            if kind is None:
                break
            raise FormulaSyntaxError("unexpected trailing tokens", line, column)
        if kind is None:
            if open_lists:
                raise FormulaSyntaxError("missing ')'", *open_lists[-1][1:])
            if first_only:
                raise FormulaSyntaxError("unexpected end of input", line, column)
            break
        if kind == 1:
            open_lists.append((items, line, column))
            items = []
        elif kind == 2:
            if not open_lists:
                raise FormulaSyntaxError("unexpected ')'", line, column)
            enclosing, open_line, open_column = open_lists.pop()
            enclosing.append(SList(tuple(items), open_line, open_column))
            items = enclosing
        elif kind == 3:
            value = m[3][1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
            items.append(SString(value, line, column))
        elif kind == 4:
            raise FormulaSyntaxError("unterminated string", line, column)
        else:
            items.append(SAtom(m[5], line, column))
    return out


def read_one(text: str):
    """Read exactly one s-expression; trailing tokens are an error."""
    return _read(text, True)[0]


def read_all(text: str) -> list:
    """Read a sequence of top-level s-expressions."""
    return _read(text, False)
