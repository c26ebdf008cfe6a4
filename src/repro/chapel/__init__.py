"""Mini-Chapel frontend: lexer, parser, AST, types, and scopes.

This package is the substitute for the Chapel compiler frontend the
paper builds on (see DESIGN.md §2).  It covers the language subset the
paper's benchmarks exercise: records, tuples, domains/arrays with
aliasing slices, ``forall``/``coforall``, zippered iteration, domain
remapping, ``param`` loops, and ``select``-``when``.
"""

from .ast_nodes import Program
from .errors import ChapelError, LexError, NameError_, ParseError, TypeError_
from .lexer import tokenize
from .parser import Parser, parse
from .symbols import Scope, Symbol
from .tokens import SourceLocation, Token, TokenKind

__all__ = [
    "ChapelError",
    "LexError",
    "NameError_",
    "ParseError",
    "Parser",
    "Program",
    "Scope",
    "SourceLocation",
    "Symbol",
    "Token",
    "TokenKind",
    "TypeError_",
    "parse",
    "tokenize",
]
