"""Token definitions for the mini-Chapel frontend.

The token set covers the subset of Chapel exercised by the paper's
benchmarks (MiniMD, CLOMP, LULESH) and examples: declarations
(``var``/``const``/``param``/``config``), records, procs with intents,
rectangular domains and arrays, tuples, ``for``/``forall``/``coforall``
loops, zippered iteration, ``select``-``when``, and reductions.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    # Literals and identifiers
    IDENT = "ident"
    INT_LIT = "int_lit"
    REAL_LIT = "real_lit"
    STRING_LIT = "string_lit"
    BOOL_LIT = "bool_lit"

    # Keywords
    KW_VAR = "var"
    KW_CONST = "const"
    KW_PARAM = "param"
    KW_CONFIG = "config"
    KW_REF = "ref"
    KW_IN = "in"
    KW_OUT = "out"
    KW_INOUT = "inout"
    KW_PROC = "proc"
    KW_ITER = "iter"
    KW_YIELD = "yield"
    KW_RECORD = "record"
    KW_CLASS = "class"
    KW_RETURN = "return"
    KW_IF = "if"
    KW_THEN = "then"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_DO = "do"
    KW_FOR = "for"
    KW_FORALL = "forall"
    KW_COFORALL = "coforall"
    KW_ZIP = "zip"
    KW_SELECT = "select"
    KW_WHEN = "when"
    KW_OTHERWISE = "otherwise"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_DOMAIN = "domain"
    KW_SPARSE = "sparse"
    KW_SUBDOMAIN = "subdomain"
    KW_REDUCE = "reduce"
    KW_NEW = "new"
    KW_NIL = "nil"
    KW_USE = "use"
    KW_BY = "by"
    KW_WITH = "with"
    KW_ALIGN = "align"

    # Type keywords
    KW_INT = "int"
    KW_REAL = "real"
    KW_BOOL = "bool"
    KW_STRING = "string"
    KW_VOID = "void"
    KW_RANGE = "range"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOT = "."
    DOTDOT = ".."
    DOTDOTHASH = "..#"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    STARSTAR = "**"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"
    HASH = "#"
    QUESTION = "?"
    ARROW = "=>"
    EOF = "eof"


#: Reserved words mapped to their token kinds.
KEYWORDS: dict[str, TokenKind] = {
    "var": TokenKind.KW_VAR,
    "const": TokenKind.KW_CONST,
    "param": TokenKind.KW_PARAM,
    "config": TokenKind.KW_CONFIG,
    "ref": TokenKind.KW_REF,
    "in": TokenKind.KW_IN,
    "out": TokenKind.KW_OUT,
    "inout": TokenKind.KW_INOUT,
    "proc": TokenKind.KW_PROC,
    "iter": TokenKind.KW_ITER,
    "yield": TokenKind.KW_YIELD,
    "record": TokenKind.KW_RECORD,
    "class": TokenKind.KW_CLASS,
    "return": TokenKind.KW_RETURN,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "do": TokenKind.KW_DO,
    "for": TokenKind.KW_FOR,
    "forall": TokenKind.KW_FORALL,
    "coforall": TokenKind.KW_COFORALL,
    "zip": TokenKind.KW_ZIP,
    "select": TokenKind.KW_SELECT,
    "when": TokenKind.KW_WHEN,
    "otherwise": TokenKind.KW_OTHERWISE,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "domain": TokenKind.KW_DOMAIN,
    "sparse": TokenKind.KW_SPARSE,
    "subdomain": TokenKind.KW_SUBDOMAIN,
    "reduce": TokenKind.KW_REDUCE,
    "new": TokenKind.KW_NEW,
    "nil": TokenKind.KW_NIL,
    "use": TokenKind.KW_USE,
    "by": TokenKind.KW_BY,
    "with": TokenKind.KW_WITH,
    "align": TokenKind.KW_ALIGN,
    "int": TokenKind.KW_INT,
    "real": TokenKind.KW_REAL,
    "bool": TokenKind.KW_BOOL,
    "string": TokenKind.KW_STRING,
    "void": TokenKind.KW_VOID,
    "range": TokenKind.KW_RANGE,
    "true": TokenKind.BOOL_LIT,
    "false": TokenKind.BOOL_LIT,
}


class SourceLocation(NamedTuple):
    """A position in a source file (1-based line and column).

    A named tuple, so it is immutable and equal and hashed by value, and
    costs one ``tuple.__new__`` to build.
    """

    filename: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class Token(NamedTuple):
    """A single lexical token with its source location."""

    kind: TokenKind
    text: str
    loc: SourceLocation

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}, {self.loc})"
