"""Lexer for the mini-Chapel frontend: one compiled master regex.

Produces a flat list of :class:`~repro.chapel.tokens.Token` with precise
source locations (:func:`tokenize`), or the same tokens as parallel
kind, text, line and column lists (:func:`scan`, which the parser
reads).  Line numbers feed the IR debug info that the blame analysis
later uses to map samples back to source lines, so location accuracy
here is load-bearing for the whole pipeline.

Each step matches one alternative of ``_TOKEN`` where the last step
ended: trivia (whitespace and ``//`` comments), a ``/*`` opener, a
number, a word, a string, or an operator (longest first), each token
with the blanks after it.  Nested ``/* */`` comments and malformed
strings leave the regex for a short scan of their own.  Columns count
characters from the last newline, ``\\r`` and ``\\t`` included.

Character classes follow ``str`` semantics, not ASCII: a number starts
at any ``str.isdigit`` character, a word at any ``str.isalpha``
character or ``_``, and continues over ``str.isalnum`` characters and
``_`` (exactly what ``\\w`` matches).
"""

from __future__ import annotations

import re

from .errors import LexError
from .tokens import KEYWORDS, SourceLocation, Token, TokenKind

_OPERATORS: dict[str, TokenKind] = {
    "..#": TokenKind.DOTDOTHASH,
    "..": TokenKind.DOTDOT,
    "**": TokenKind.STARSTAR,
    "+=": TokenKind.PLUS_ASSIGN,
    "-=": TokenKind.MINUS_ASSIGN,
    "*=": TokenKind.STAR_ASSIGN,
    "/=": TokenKind.SLASH_ASSIGN,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "=>": TokenKind.ARROW,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "=": TokenKind.ASSIGN,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
    ".": TokenKind.DOT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    "%": TokenKind.PERCENT,
    "#": TokenKind.HASH,
    "?": TokenKind.QUESTION,
}

#: The characters ``str.isdigit`` accepts beyond the decimal digits
#: ``\d`` matches: superscripts, circled and parenthesized digits and
#: the like (Unicode 14.0, Python 3.11).  tests/chapel/test_lexer.py
#: checks the class against ``str.isdigit`` over every code point.
_NON_DECIMAL_DIGITS = (
    "\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    "\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    "\u2776-\u277e\u2780-\u2788\u278a-\u2792\U00010a40-\U00010a43"
    "\U00010e60-\U00010e68\U00011052-\U0001105a\U0001f100-\U0001f10a"
)
_DIGIT = rf"[\d{_NON_DECIMAL_DIGITS}]"
_DIGIT_RUN = rf"[\d{_NON_DECIMAL_DIGITS}_]*+"
_EXPONENT = rf"[eE][+-]?+{_DIGIT}++"
#: Per opening quote: characters and known escapes, up to the closing
#: quote (a raw newline ends a string unterminated).
_STRING_BODY = {q: rf"""(?:[^{q}\\\n]|\\[nt\\"'])*+""" for q in "\"'"}

# Possessive quantifiers keep a failed fraction or exponent from
# backtracking into the digits before it (``1.5E*`` is ``1.5 E *``).
# A fraction needs a digit after the dot, so ``0..9`` is a range.  A
# token match also takes the blanks after it (``[ \t\r]``, never a
# newline), so only line breaks and comments cost a step of their own;
# the last alternative takes any one character that starts no token.
_TOKEN = re.compile(
    r"(?P<trivia>(?:[ \t\r\n]++|//[^\n]*+)++)"
    r"|(?:(?P<comment>/\*)"
    rf"|(?P<real>{_DIGIT}{_DIGIT_RUN}"
    rf"(?:\.{_DIGIT}{_DIGIT_RUN}(?:{_EXPONENT})?+|{_EXPONENT}))"
    rf"|(?P<int>{_DIGIT}{_DIGIT_RUN})"
    r"|(?P<word>[^\W\d]\w*+)"
    + "|(?P<string>"
    + "|".join(f"{q}{body}{q}" for q, body in _STRING_BODY.items())
    + ")"
    + r"""|(?P<quote>["'])"""
    + "|(?P<op>"
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + "))[ \t\r]*+"
    + r"|(?P<bad>[\s\S])"
)
#: ``Match.lastindex`` of each alternative, in pattern order.
_TRIVIA, _COMMENT, _REAL, _INT, _WORD, _STRING, _QUOTE, _OP, _BAD = range(1, 10)
_COMMENT_DELIMITER = re.compile(r"/\*|\*/")
_STRING_PREFIX = {q: re.compile(body) for q, body in _STRING_BODY.items()}
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}
_IDENT = TokenKind.IDENT
_new = tuple.__new__


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    """Lexes ``source`` into a token list ending with EOF.

    Raises :class:`LexError` at the first character that starts no
    token, an unterminated string or block comment, or an unknown
    escape sequence.
    """
    kinds, texts, lines, columns = scan(source, filename)
    return [
        _new(Token, (kind, text, _new(SourceLocation, (filename, line, column))))
        for kind, text, line, column in zip(kinds, texts, lines, columns)
    ]


def scan(
    source: str, filename: str = "<string>"
) -> tuple[list[TokenKind], list[str], list[int], list[int]]:
    """:func:`tokenize` as four parallel columns: the kind, text, line
    and column of every token, EOF included.  The parser reads these,
    and builds a location only for the tokens a node or an error
    needs."""
    kinds: list[TokenKind] = []
    texts: list[str] = []
    lines: list[int] = []
    columns: list[int] = []
    add_kind = kinds.append
    add_text = texts.append
    add_line = lines.append
    add_column = columns.append
    keyword = KEYWORDS.get
    operator = _OPERATORS.__getitem__
    count = source.count
    pos = 0
    line = 1
    line_start = 0  # index of the first character of ``line``
    # One pass of ``finditer`` per stretch between block comments: the
    # matches tile the source, so each starts where the last one ended.
    while True:
        for m in _TOKEN.finditer(source, pos):
            group = m.lastindex
            if group == _TRIVIA:
                start, pos = m.span()
                newlines = count("\n", start, pos)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", start, pos) + 1
                continue
            start = m.start()
            text = m[group]
            if group == _WORD:
                kind = keyword(text, _IDENT)
                first = text[0]
                if first > "\x7f" and not first.isalpha():
                    # A numeric character that is not a digit (``Ⅷ``, ``½``)
                    # continues a word but cannot start one.
                    raise LexError(
                        f"unexpected character {first!r}",
                        SourceLocation(filename, line, start - line_start + 1),
                    )
            elif group == _OP:
                kind = operator(text)
            elif group == _INT:
                kind = TokenKind.INT_LIT
                text = text.replace("_", "")
            elif group == _REAL:
                kind = TokenKind.REAL_LIT
                text = text.replace("_", "")
            elif group == _STRING:
                kind = TokenKind.STRING_LIT
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text)
            elif group == _COMMENT:
                pos = _block_comment_end(
                    source, m.end(group), SourceLocation(filename, line, start - line_start + 1)
                )
                newlines = count("\n", start, pos)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", start, pos) + 1
                break  # resume after the comment
            elif group == _QUOTE:  # a string the ``string`` alternative rejected
                raise _string_error(source, start, filename, line, line_start)
            else:
                raise LexError(
                    f"unexpected character {text!r}",
                    SourceLocation(filename, line, start - line_start + 1),
                )
            add_kind(kind)
            add_text(text)
            add_line(line)
            add_column(start - line_start + 1)
        else:
            break
    add_kind(TokenKind.EOF)
    add_text("")
    add_line(line)
    add_column(len(source) - line_start + 1)
    return kinds, texts, lines, columns


def _block_comment_end(source: str, pos: int, start: SourceLocation) -> int:
    """Index just past the ``*/`` closing the comment opened before
    ``pos``; comments nest."""
    depth = 1
    search = _COMMENT_DELIMITER.search
    while depth:
        m = search(source, pos)
        if m is None:
            raise LexError("unterminated block comment", start)
        depth += 1 if m.group() == "/*" else -1
        pos = m.end()
    return pos


def _string_error(
    source: str, pos: int, filename: str, line: int, line_start: int
) -> LexError:
    """The error for the malformed string starting at ``pos``."""
    stop = _STRING_PREFIX[source[pos]].match(source, pos + 1).end()
    if stop < len(source) and source[stop] == "\\":
        # An escape the body pattern does not know (or ``\`` at the end).
        return LexError(
            f"unknown escape sequence '\\{source[stop + 1 : stop + 2]}'",
            SourceLocation(filename, line, stop + 1 - line_start + 1),
        )
    return LexError(
        "unterminated string literal",
        SourceLocation(filename, line, pos - line_start + 1),
    )
