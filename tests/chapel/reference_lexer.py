"""The character-at-a-time mini-Chapel scanner, kept as the reference.

``repro.chapel.lexer.tokenize`` replaced it with one master regex;
tests/chapel/test_lexer_reference.py requires the two to agree on every
token kind, text and location, and on every ``LexError`` message and
location.  Do not change this file to follow the new lexer.
"""

from __future__ import annotations

from repro.chapel.errors import LexError
from repro.chapel.tokens import KEYWORDS, SourceLocation, Token, TokenKind

_SINGLE_CHAR: dict[str, TokenKind] = {
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


class Lexer:
    """Converts mini-Chapel source text into tokens.

    Usage::

        tokens = Lexer(source, filename="prog.chpl").tokenize()
    """

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []

    # -- Low-level cursor helpers -------------------------------------------

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.filename, self.line, self.col)

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source):
                if self.source[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _emit(self, kind: TokenKind, text: str, loc: SourceLocation) -> None:
        self.tokens.append(Token(kind, text, loc))

    # -- Scanners ------------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skips whitespace and both comment styles (``//`` and ``/* */``)."""
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._loc()
                self._advance(2)
                depth = 1
                while depth > 0:
                    if self.pos >= len(self.source):
                        raise LexError("unterminated block comment", start)
                    if self._peek() == "/" and self._peek(1) == "*":
                        depth += 1
                        self._advance(2)
                    elif self._peek() == "*" and self._peek(1) == "/":
                        depth -= 1
                        self._advance(2)
                    else:
                        self._advance()
            else:
                return

    def _scan_number(self) -> None:
        loc = self._loc()
        start = self.pos
        while self._peek().isdigit() or self._peek() == "_":
            self._advance()
        is_real = False
        # A '.' begins a fraction only if not the start of a '..' range.
        if self._peek() == "." and self._peek(1).isdigit():
            is_real = True
            self._advance()
            while self._peek().isdigit() or self._peek() == "_":
                self._advance()
        if self._peek() in "eE" and (
            self._peek(1).isdigit()
            or (self._peek(1) in "+-" and self._peek(2).isdigit())
        ):
            is_real = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start : self.pos].replace("_", "")
        self._emit(TokenKind.REAL_LIT if is_real else TokenKind.INT_LIT, text, loc)

    def _scan_ident(self) -> None:
        loc = self._loc()
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        self._emit(kind, text, loc)

    def _scan_string(self) -> None:
        loc = self._loc()
        quote = self._peek()
        self._advance()
        chars: list[str] = []
        while True:
            if self.pos >= len(self.source) or self._peek() == "\n":
                raise LexError("unterminated string literal", loc)
            ch = self._peek()
            if ch == quote:
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                mapped = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "'": "'"}.get(esc)
                if mapped is None:
                    raise LexError(f"unknown escape sequence '\\{esc}'", self._loc())
                chars.append(mapped)
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        self._emit(TokenKind.STRING_LIT, "".join(chars), loc)

    def _scan_operator(self) -> None:
        loc = self._loc()
        three = self.source[self.pos : self.pos + 3]
        two = self.source[self.pos : self.pos + 2]
        one = self._peek()
        if three == "..#":
            self._emit(TokenKind.DOTDOTHASH, three, loc)
            self._advance(3)
            return
        two_map = {
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
        }
        if two in two_map:
            self._emit(two_map[two], two, loc)
            self._advance(2)
            return
        one_map = {
            "+": TokenKind.PLUS,
            "-": TokenKind.MINUS,
            "*": TokenKind.STAR,
            "/": TokenKind.SLASH,
            "=": TokenKind.ASSIGN,
            "<": TokenKind.LT,
            ">": TokenKind.GT,
            "!": TokenKind.NOT,
            ".": TokenKind.DOT,
        }
        if one in one_map:
            self._emit(one_map[one], one, loc)
            self._advance()
            return
        if one in _SINGLE_CHAR:
            self._emit(_SINGLE_CHAR[one], one, loc)
            self._advance()
            return
        raise LexError(f"unexpected character {one!r}", loc)

    # -- Entry point -----------------------------------------------------------

    def tokenize(self) -> list[Token]:
        """Scans the whole source and returns tokens ending with EOF."""
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                break
            ch = self._peek()
            if ch.isdigit():
                self._scan_number()
            elif ch.isalpha() or ch == "_":
                self._scan_ident()
            elif ch in "\"'":
                self._scan_string()
            else:
                self._scan_operator()
        self._emit(TokenKind.EOF, "", self._loc())
        return self.tokens

