"""Recursive-descent parser for the mini-Chapel frontend.

Statements descend one method per construct.  Binary expressions are
parsed by one precedence-climbing loop (``_parse_binary``) over the
levels below, so an operand costs one ``_parse_unary`` call instead of
a descent through every level; ``||``, ``&&``, ``+``/``-`` and
``*``/``/``/``%`` associate left, ``**`` right, and a comparison or a
range takes no second operator of its own level.

Grammar summary (precedence, loosest to tightest)::

    expr      := ifexpr | orexpr
    orexpr    := andexpr ('||' andexpr)*
    andexpr   := cmpexpr ('&&' cmpexpr)*
    cmpexpr   := rangeexpr (('=='|'!='|'<'|'<='|'>'|'>=') rangeexpr)?
    rangeexpr := addexpr (('..'|'..#') addexpr ('by' addexpr)?)?
    addexpr   := mulexpr (('+'|'-') mulexpr)*
    mulexpr   := powexpr (('*'|'/'|'%') powexpr)*
    powexpr   := unary ('**' powexpr)?          # right associative
    unary     := ('-'|'!'|'+') unary | reduce | postfix
    reduce    := ('+'|'*'|'min'|'max') 'reduce' unary
    postfix   := primary (call-args | '[' exprs ']' | '.' ident (args)?)*
    primary   := literal | ident | '(' exprs ')' | '{' ranges '}' | 'new' ...

Statements cover ``var/const/param/config`` declarations, assignment
(including ``+=`` family), ``if``/``while``/``for``/``forall``/
``coforall`` (with ``zip`` and ``param`` forms), ``select``-``when``,
``return``/``break``/``continue``, ``proc`` and ``record`` declarations.
Both brace-blocks and Chapel's ``then``/``do`` single-statement forms
are accepted.

The parser takes the token stream as the parallel columns (kinds,
texts, lines and columns) of the lexer's :func:`~repro.chapel.lexer.scan`,
without building a ``Token`` per token; a token's location is built the
first time a node or an error needs it.
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import scan
from .tokens import SourceLocation, TokenKind

_ASSIGN_OPS = {
    TokenKind.ASSIGN: "=",
    TokenKind.PLUS_ASSIGN: "+=",
    TokenKind.MINUS_ASSIGN: "-=",
    TokenKind.STAR_ASSIGN: "*=",
    TokenKind.SLASH_ASSIGN: "/=",
}

_CMP_OPS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}

#: Precedence levels of the binary operators, loosest first.
_OR, _AND, _CMP, _RANGE, _ADD, _MUL, _POW = range(1, 8)

#: Binary operator token → (precedence, operator text).
_BINARY: dict[TokenKind, tuple[int, str]] = {
    TokenKind.OR: (_OR, "||"),
    TokenKind.AND: (_AND, "&&"),
    **{kind: (_CMP, op) for kind, op in _CMP_OPS.items()},
    TokenKind.DOTDOT: (_RANGE, ".."),
    TokenKind.DOTDOTHASH: (_RANGE, "..#"),
    TokenKind.PLUS: (_ADD, "+"),
    TokenKind.MINUS: (_ADD, "-"),
    TokenKind.STAR: (_MUL, "*"),
    TokenKind.SLASH: (_MUL, "/"),
    TokenKind.PERCENT: (_MUL, "%"),
    TokenKind.STARSTAR: (_POW, "**"),
}

#: Tokens that continue a postfix expression.
_POSTFIX = frozenset({TokenKind.LBRACKET, TokenKind.DOT, TokenKind.LPAREN})

_SCALAR_TYPE_KWS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_REAL: "real",
    TokenKind.KW_BOOL: "bool",
    TokenKind.KW_STRING: "string",
    TokenKind.KW_VOID: "void",
}

_EOF = TokenKind.EOF
_IDENT = TokenKind.IDENT
_INT_LIT = TokenKind.INT_LIT
_REDUCE = TokenKind.KW_REDUCE
_LPAREN = TokenKind.LPAREN
_RPAREN = TokenKind.RPAREN
_LBRACKET = TokenKind.LBRACKET
_RBRACKET = TokenKind.RBRACKET
_LBRACE = TokenKind.LBRACE
_RBRACE = TokenKind.RBRACE
_COMMA = TokenKind.COMMA
_SEMI = TokenKind.SEMI
_DOT = TokenKind.DOT
_new = tuple.__new__


class Parser:
    """Parses mini-Chapel source into a :class:`~repro.chapel.ast_nodes.Program`.

    The parser reads the columns :func:`scan` lexes from ``source``.
    The stream ends with EOF, and the cursor never moves past it, so
    ``self.kinds[self.pos]`` is always in range.
    """

    def __init__(self, source: str, filename: str = "<string>") -> None:
        self.filename = filename
        self.pos = 0
        self.kinds, self.texts, self._lines, self._columns = scan(source, filename)
        self._locs: list[SourceLocation | None] = [None] * len(self.kinds)

    # -- Token helpers -------------------------------------------------------

    def _loc(self, i: int) -> SourceLocation:
        """The location of token ``i``, built once, on first use."""
        loc = self._locs[i]
        if loc is None:
            loc = self._locs[i] = _new(
                SourceLocation, (self.filename, self._lines[i], self._columns[i])
            )
        return loc

    def _peek_kind(self, offset: int) -> TokenKind:
        kinds = self.kinds
        idx = self.pos + offset
        return kinds[idx] if idx < len(kinds) else kinds[-1]

    def _at(self, kind: TokenKind) -> bool:
        return self.kinds[self.pos] is kind

    def _at_any(self, *kinds: TokenKind) -> bool:
        return self.kinds[self.pos] in kinds

    def _advance(self) -> int:
        """Consumes the current token; returns its index."""
        i = self.pos
        if self.kinds[i] is not _EOF:
            self.pos = i + 1
        return i

    def _expect(self, kind: TokenKind, what: str | None = None) -> int:
        """Consumes a ``kind`` token and returns its index, or raises."""
        i = self.pos
        if self.kinds[i] is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected!r}, found {self.texts[i] or self.kinds[i].value!r}",
                self._loc(i),
            )
        if kind is not _EOF:
            self.pos = i + 1
        return i

    def _accept(self, kind: TokenKind) -> bool:
        if self.kinds[self.pos] is kind:
            if kind is not _EOF:
                self.pos += 1
            return True
        return False

    # -- Program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        loc = self._loc(self.pos)
        decls: list[ast.Stmt] = []
        while self.kinds[self.pos] is not _EOF:
            decls.append(self.parse_statement())
        return ast.Program(loc=loc, decls=decls, filename=self.filename)

    # -- Statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        i = self.pos
        kind = self.kinds[i]
        if kind in (TokenKind.KW_VAR, TokenKind.KW_CONST, TokenKind.KW_PARAM):
            return self._parse_var_decl(is_config=False)
        if kind is TokenKind.KW_CONFIG:
            self._advance()
            if not self._at_any(
                TokenKind.KW_CONST, TokenKind.KW_VAR, TokenKind.KW_PARAM
            ):
                raise ParseError(
                    "expected 'const'/'var'/'param' after 'config'", self._loc(i)
                )
            return self._parse_var_decl(is_config=True)
        if kind is TokenKind.KW_PROC:
            return self._parse_proc()
        if kind is TokenKind.KW_ITER:
            return self._parse_proc(is_iter=True)
        if kind is TokenKind.KW_YIELD:
            self._advance()
            value = self.parse_expression()
            self._expect(_SEMI)
            return ast.Yield(loc=self._loc(i), value=value)
        if kind in (TokenKind.KW_RECORD, TokenKind.KW_CLASS):
            return self._parse_record()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind in (TokenKind.KW_FOR, TokenKind.KW_FORALL, TokenKind.KW_COFORALL):
            return self._parse_loop()
        if kind is TokenKind.KW_SELECT:
            return self._parse_select()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None if self._at(_SEMI) else self.parse_expression()
            self._expect(_SEMI)
            return ast.Return(loc=self._loc(i), value=value)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(_SEMI)
            return ast.Break(loc=self._loc(i))
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(_SEMI)
            return ast.Continue(loc=self._loc(i))
        if kind is TokenKind.KW_USE:
            self._advance()
            mod = self.texts[self._expect(_IDENT, "module name")]
            self._expect(_SEMI)
            return ast.Use(loc=self._loc(i), module=mod)
        if kind is _LBRACE:
            return self.parse_block()
        return self._parse_expr_or_assign()

    def parse_block(self) -> ast.Block:
        lbrace = self._expect(_LBRACE)
        kinds = self.kinds
        stmts: list[ast.Stmt] = []
        while kinds[self.pos] is not _RBRACE:
            if kinds[self.pos] is _EOF:
                raise ParseError("unterminated block", self._loc(lbrace))
            stmts.append(self.parse_statement())
        self._expect(_RBRACE)
        return ast.Block(loc=self._loc(lbrace), stmts=stmts)

    def _parse_body_or_single(self, intro_kind: TokenKind | None) -> ast.Block:
        """Parses either ``{ ... }`` or a ``then``/``do`` single statement."""
        if intro_kind is not None and self._at(intro_kind):
            i = self._advance()
            stmt = self.parse_statement()
            return ast.Block(loc=self._loc(i), stmts=[stmt])
        if self._at(_LBRACE):
            return self.parse_block()
        # Bare single statement (allowed after else).
        stmt = self.parse_statement()
        return ast.Block(loc=stmt.loc, stmts=[stmt])

    def _parse_var_decl(self, is_config: bool) -> ast.VarDecl:
        i = self._advance()  # var/const/param
        kind = self.texts[i]
        name = self.texts[self._expect(_IDENT, "variable name")]
        declared_type = None
        init = None
        if self._accept(TokenKind.COLON):
            declared_type = self.parse_type()
        if self._accept(TokenKind.ASSIGN):
            init = self.parse_expression()
        self._expect(_SEMI)
        if declared_type is None and init is None:
            raise ParseError(
                f"declaration of {name!r} needs a type or an initializer", self._loc(i)
            )
        return ast.VarDecl(
            loc=self._loc(i),
            kind=kind,
            name=name,
            declared_type=declared_type,
            init=init,
            is_config=is_config,
        )

    def _parse_proc(self, is_iter: bool = False) -> ast.ProcDecl:
        i = self._advance()  # proc / iter
        name = self.texts[self._expect(_IDENT, "procedure name")]
        self._expect(_LPAREN)
        params: list[ast.Param] = []
        while not self._at(_RPAREN):
            params.append(self._parse_param())
            if not self._accept(_COMMA):
                break
        self._expect(_RPAREN)
        return_type = None
        if self._accept(TokenKind.COLON):
            return_type = self.parse_type()
        body = self.parse_block()
        return ast.ProcDecl(
            loc=self._loc(i), name=name, params=params, return_type=return_type,
            body=body, is_iter=is_iter,
        )

    def _parse_param(self) -> ast.Param:
        kind = self.kinds[self.pos]
        intent = "in"
        if kind is TokenKind.KW_REF:
            intent = "ref"
            self._advance()
        elif kind is TokenKind.KW_IN:
            intent = "in"
            self._advance()
        elif kind is TokenKind.KW_OUT:
            intent = "out"
            self._advance()
        elif kind is TokenKind.KW_INOUT:
            intent = "inout"
            self._advance()
        elif kind is TokenKind.KW_CONST:
            # 'const ref' / 'const in' collapse to their base intent here.
            self._advance()
            if self._at(TokenKind.KW_REF):
                intent = "ref"
                self._advance()
            elif self._at(TokenKind.KW_IN):
                self._advance()
        elif kind is TokenKind.KW_PARAM:
            intent = "param"
            self._advance()
        name = self._expect(_IDENT, "parameter name")
        declared_type = None
        if self._accept(TokenKind.COLON):
            declared_type = self.parse_type()
        return ast.Param(
            name=self.texts[name],
            intent=intent,
            declared_type=declared_type,
            loc=self._loc(name),
        )

    def _parse_record(self) -> ast.RecordDecl:
        i = self._advance()  # record / class
        is_class = self.kinds[i] is TokenKind.KW_CLASS
        name = self.texts[self._expect(_IDENT, "record name")]
        self._expect(_LBRACE)
        fields: list[ast.FieldDecl] = []
        while not self._at(_RBRACE):
            f = self.pos
            if not self._at_any(TokenKind.KW_VAR, TokenKind.KW_CONST):
                raise ParseError("expected field declaration in record body", self._loc(f))
            self._advance()
            fname = self.texts[self._expect(_IDENT, "field name")]
            self._expect(TokenKind.COLON)
            ftype = self.parse_type()
            finit = None
            if self._accept(TokenKind.ASSIGN):
                finit = self.parse_expression()
            self._expect(_SEMI)
            fields.append(
                ast.FieldDecl(name=fname, declared_type=ftype, init=finit, loc=self._loc(f))
            )
        self._expect(_RBRACE)
        return ast.RecordDecl(loc=self._loc(i), name=name, fields=fields, is_class=is_class)

    def _parse_if(self) -> ast.If:
        i = self._expect(TokenKind.KW_IF)
        cond = self.parse_expression()
        then_body = self._parse_body_or_single(TokenKind.KW_THEN)
        else_body = None
        if self._accept(TokenKind.KW_ELSE):
            else_body = self._parse_body_or_single(None)
        return ast.If(loc=self._loc(i), cond=cond, then_body=then_body, else_body=else_body)

    def _parse_while(self) -> ast.While:
        i = self._expect(TokenKind.KW_WHILE)
        cond = self.parse_expression()
        body = self._parse_body_or_single(TokenKind.KW_DO)
        return ast.While(loc=self._loc(i), cond=cond, body=body)

    def _parse_loop(self) -> ast.For:
        i = self._advance()  # for / forall / coforall
        loop_kind = self.texts[i]
        is_param = False
        if self._at(TokenKind.KW_PARAM):
            self._advance()
            is_param = True

        indices: list[ast.LoopIndex] = []
        if self._accept(_LPAREN):
            while True:
                ix = self._expect(_IDENT, "loop index")
                indices.append(ast.LoopIndex(name=self.texts[ix], loc=self._loc(ix)))
                if not self._accept(_COMMA):
                    break
            self._expect(_RPAREN)
        else:
            ix = self._expect(_IDENT, "loop index")
            indices.append(ast.LoopIndex(name=self.texts[ix], loc=self._loc(ix)))

        self._expect(TokenKind.KW_IN)

        iterables: list[ast.Expr] = []
        zippered = False
        if self._at(TokenKind.KW_ZIP):
            zippered = True
            self._advance()
            self._expect(_LPAREN)
            while True:
                iterables.append(self.parse_expression())
                if not self._accept(_COMMA):
                    break
            self._expect(_RPAREN)
        else:
            iterables.append(self.parse_expression())

        if zippered and len(indices) != len(iterables):
            raise ParseError(
                f"zippered loop has {len(indices)} indices but "
                f"{len(iterables)} iterands",
                self._loc(i),
            )

        # Optional `with (+ reduce x, min reduce y, ...)` intent clause.
        reduce_intents: list[tuple[str, str]] = []
        if self._accept(TokenKind.KW_WITH):
            self._expect(_LPAREN)
            while True:
                o = self.pos
                op_kind = self.kinds[o]
                if op_kind in (TokenKind.PLUS, TokenKind.STAR) or (
                    op_kind is _IDENT and self.texts[o] in ("min", "max")
                ):
                    op = self.texts[self._advance()]
                else:
                    raise ParseError(
                        "expected a reduction operator (+, *, min, max) "
                        "in with-clause",
                        self._loc(o),
                    )
                self._expect(_REDUCE)
                name = self.texts[self._expect(_IDENT, "reduced variable")]
                reduce_intents.append((op, name))
                if not self._accept(_COMMA):
                    break
            self._expect(_RPAREN)
            if loop_kind == "for":
                raise ParseError(
                    "with-clauses apply to parallel loops only", self._loc(i)
                )

        body = self._parse_body_or_single(TokenKind.KW_DO)
        return ast.For(
            loc=self._loc(i),
            kind=loop_kind,
            indices=indices,
            iterables=iterables,
            body=body,
            is_param=is_param,
            zippered=zippered,
            reduce_intents=reduce_intents,
        )

    def _parse_select(self) -> ast.Select:
        i = self._expect(TokenKind.KW_SELECT)
        subject = self.parse_expression()
        self._expect(_LBRACE)
        whens: list[ast.When] = []
        otherwise: ast.Block | None = None
        while not self._at(_RBRACE):
            w = self.pos
            if self.kinds[w] is TokenKind.KW_WHEN:
                self._advance()
                values = [self.parse_expression()]
                while self._accept(_COMMA):
                    values.append(self.parse_expression())
                body = self._parse_body_or_single(TokenKind.KW_DO)
                whens.append(ast.When(values=values, body=body, loc=self._loc(w)))
            elif self.kinds[w] is TokenKind.KW_OTHERWISE:
                self._advance()
                otherwise = self._parse_body_or_single(TokenKind.KW_DO)
            else:
                raise ParseError(
                    "expected 'when' or 'otherwise' in select body", self._loc(w)
                )
        self._expect(_RBRACE)
        return ast.Select(
            loc=self._loc(i), subject=subject, whens=whens, otherwise=otherwise
        )

    def _parse_expr_or_assign(self) -> ast.Stmt:
        expr = self.parse_expression()
        op = _ASSIGN_OPS.get(self.kinds[self.pos])
        if op is not None:
            self._advance()
            value = self.parse_expression()
            self._expect(_SEMI)
            if not isinstance(expr, (ast.Ident, ast.Index, ast.FieldAccess)):
                raise ParseError("invalid assignment target", expr.loc)
            return ast.Assign(loc=expr.loc, target=expr, op=op, value=value)
        self._expect(_SEMI)
        return ast.ExprStmt(loc=expr.loc, expr=expr)

    # -- Types -----------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        i = self.pos
        kind = self.kinds[i]
        if kind in _SCALAR_TYPE_KWS:
            self._advance()
            width = None
            if self._at(_LPAREN):
                self._advance()
                width = int(self.texts[self._expect(_INT_LIT, "bit width")])
                self._expect(_RPAREN)
            return ast.NamedType(loc=self._loc(i), name=_SCALAR_TYPE_KWS[kind], width=width)
        if kind is TokenKind.KW_DOMAIN:
            self._advance()
            self._expect(_LPAREN)
            # `domain(N)` is a rectangular domain of rank N;
            # `domain(int)` is an associative domain keyed by int.
            if self._at(TokenKind.KW_INT):
                self._advance()
                self._expect(_RPAREN)
                return ast.AssocDomainTypeExpr(loc=self._loc(i))
            rank = int(self.texts[self._expect(_INT_LIT, "domain rank")])
            self._expect(_RPAREN)
            return ast.DomainTypeExpr(loc=self._loc(i), rank=rank)
        if kind is TokenKind.KW_SPARSE:
            self._advance()
            self._expect(TokenKind.KW_SUBDOMAIN, "subdomain")
            self._expect(_LPAREN)
            parent = self.parse_expression()
            self._expect(_RPAREN)
            return ast.SparseSubdomainTypeExpr(loc=self._loc(i), parent=parent)
        if kind is TokenKind.KW_RANGE:
            self._advance()
            return ast.RangeTypeExpr(loc=self._loc(i))
        if kind is _LBRACKET:
            self._advance()
            # Open array type '[?] T' / '[?, ?] T' (formals whose domain
            # is supplied by the actual, like Chapel's '[?D] T').
            if self._at(TokenKind.QUESTION):
                rank = 0
                while self._accept(TokenKind.QUESTION):
                    rank += 1
                    if not self._accept(_COMMA):
                        break
                self._expect(_RBRACKET)
                elem = self.parse_type()
                return ast.ArrayTypeExpr(
                    loc=self._loc(i), domain=None, elem=elem, open_rank=rank
                )
            # The bracket holds a domain-valued expression: an identifier,
            # or one or more ranges (an inline domain literal).
            dims = [self.parse_expression()]
            while self._accept(_COMMA):
                dims.append(self.parse_expression())
            self._expect(_RBRACKET)
            domain: ast.Expr
            if len(dims) == 1 and not isinstance(dims[0], ast.RangeLit):
                domain = dims[0]
            else:
                domain = ast.DomainLit(loc=self._loc(i), dims=dims)
            elem = self.parse_type()
            return ast.ArrayTypeExpr(loc=self._loc(i), domain=domain, elem=elem)
        if kind is _INT_LIT and self._peek_kind(1) is TokenKind.STAR:
            count = int(self.texts[self._advance()])
            self._expect(TokenKind.STAR)
            elem = self.parse_type()
            return ast.TupleTypeExpr(loc=self._loc(i), count=count, elem=elem)
        if kind is _LPAREN:
            self._advance()
            elems = [self.parse_type()]
            while self._accept(_COMMA):
                elems.append(self.parse_type())
            self._expect(_RPAREN)
            if len(elems) == 1:
                # Parenthesized grouping, e.g. the element of 8*(4*real).
                return elems[0]
            return ast.TupleTypeExpr(loc=self._loc(i), count=None, elem=None, elems=elems)
        if kind is _IDENT:
            self._advance()
            return ast.NamedType(loc=self._loc(i), name=self.texts[i])
        raise ParseError(f"expected a type, found {self.texts[i]!r}", self._loc(i))

    # -- Expressions -------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        if self.kinds[self.pos] is TokenKind.KW_IF:
            return self._parse_if_expr()
        return self._parse_binary(_OR)

    def _parse_if_expr(self) -> ast.Expr:
        i = self._expect(TokenKind.KW_IF)
        cond = self._parse_binary(_OR)
        self._expect(TokenKind.KW_THEN)
        then_expr = self.parse_expression()
        self._expect(TokenKind.KW_ELSE)
        else_expr = self.parse_expression()
        return ast.IfExpr(
            loc=self._loc(i), cond=cond, then_expr=then_expr, else_expr=else_expr
        )

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        """Operators of precedence ``min_prec`` and tighter, by
        precedence climbing.  After an operator of level ``p`` only
        operators of level ``p`` or looser may follow (looser than
        ``p`` for a comparison or a range), as in a descent through one
        method per level: the loop stops at an operator its right
        operand refused, and the whole expression ends there."""
        lhs = self._parse_unary()
        kinds = self.kinds
        limit = _POW
        while True:
            i = self.pos
            entry = _BINARY.get(kinds[i])
            if entry is None:
                return lhs
            prec, op = entry
            if prec < min_prec or prec > limit:
                return lhs
            self.pos = i + 1
            if prec == _RANGE:
                rhs = self._parse_binary(_ADD)
                step = None
                if kinds[self.pos] is TokenKind.KW_BY:
                    self.pos += 1
                    step = self._parse_binary(_ADD)
                lhs = ast.RangeLit(
                    loc=self._loc(i), lo=lhs, hi=rhs,
                    counted=kinds[i] is TokenKind.DOTDOTHASH, step=step,
                )
                limit = _CMP
                continue
            # ``**`` is right associative: its right operand takes the
            # rest of a ``**`` chain.
            rhs = self._parse_binary(prec if prec == _POW else prec + 1)
            lhs = ast.BinOp(loc=self._loc(i), op=op, lhs=lhs, rhs=rhs)
            limit = _AND if prec == _CMP else prec

    def _parse_unary(self) -> ast.Expr:
        kinds = self.kinds
        i = self.pos
        kind = kinds[i]
        if kind is _IDENT:
            name = self.texts[i]
            # Reductions: 'min reduce e', 'max reduce e'.
            if name in ("min", "max") and kinds[i + 1] is _REDUCE:
                return self._parse_reduce(i)
            self.pos = i + 1
            expr: ast.Expr = ast.Ident(loc=self._loc(i), name=name)
        elif kind is _INT_LIT:
            self.pos = i + 1
            expr = ast.IntLit(loc=self._loc(i), value=int(self.texts[i]))
        elif kind in (TokenKind.MINUS, TokenKind.NOT, TokenKind.PLUS, TokenKind.STAR):
            # Reductions: '+ reduce e', '* reduce e'.
            if kind is not TokenKind.MINUS and kind is not TokenKind.NOT and (
                kinds[i + 1] is _REDUCE
            ):
                return self._parse_reduce(i)
            if kind is TokenKind.STAR:
                return self._parse_postfix(self._parse_primary())
            self.pos = i + 1
            operand = self._parse_unary()
            return ast.UnOp(loc=self._loc(i), op=self.texts[i], operand=operand)
        else:
            expr = self._parse_primary()
        if kinds[self.pos] in _POSTFIX:
            return self._parse_postfix(expr)
        return expr

    def _parse_reduce(self, i: int) -> ast.Expr:
        """``op reduce e``, the operator at token ``i``."""
        self.pos = i + 2  # the operator and 'reduce'
        iterable = self._parse_unary()
        return ast.Reduce(loc=self._loc(i), op=self.texts[i], iterable=iterable)

    def _parse_args(self) -> list[ast.Expr]:
        """``expr, ...)`` after an opening parenthesis."""
        args: list[ast.Expr] = []
        while not self._at(_RPAREN):
            args.append(self.parse_expression())
            if not self._accept(_COMMA):
                break
        self._expect(_RPAREN)
        return args

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        kinds = self.kinds
        while True:
            i = self.pos
            kind = kinds[i]
            if kind is _LBRACKET:
                self.pos = i + 1
                indices = [self.parse_expression()]
                while self._accept(_COMMA):
                    indices.append(self.parse_expression())
                self._expect(_RBRACKET)
                expr = ast.Index(loc=self._loc(i), base=expr, indices=indices)
            elif kind is _DOT:
                self.pos = i + 1
                # `domain` is a keyword but also an array method name.
                if self._at(TokenKind.KW_DOMAIN):
                    name = self.texts[self._advance()]
                else:
                    name = self.texts[self._expect(_IDENT, "member name")]
                if self._at(_LPAREN):
                    self._advance()
                    expr = ast.MethodCall(
                        loc=self._loc(i), receiver=expr, method=name, args=self._parse_args()
                    )
                else:
                    expr = ast.FieldAccess(loc=self._loc(i), base=expr, field=name)
            elif kind is _LPAREN and isinstance(expr, ast.Ident):
                # Only a bare identifier can be called (no first-class procs).
                self.pos = i + 1
                expr = ast.Call(loc=expr.loc, callee=expr.name, args=self._parse_args())
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        i = self.pos
        kind = self.kinds[i]
        text = self.texts[i]
        if kind is _INT_LIT:
            self._advance()
            return ast.IntLit(loc=self._loc(i), value=int(text))
        if kind is TokenKind.REAL_LIT:
            self._advance()
            return ast.RealLit(loc=self._loc(i), value=float(text))
        if kind is TokenKind.BOOL_LIT:
            self._advance()
            return ast.BoolLit(loc=self._loc(i), value=(text == "true"))
        if kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLit(loc=self._loc(i), value=text)
        if kind is _IDENT:
            self._advance()
            return ast.Ident(loc=self._loc(i), name=text)
        if kind is TokenKind.KW_NEW:
            self._advance()
            name = self.texts[self._expect(_IDENT, "type name")]
            args: list[ast.Expr] = []
            if self._accept(_LPAREN):
                args = self._parse_args()
            return ast.New(loc=self._loc(i), type_name=name, args=args)
        if kind is _LPAREN:
            self._advance()
            first = self.parse_expression()
            if self._at(_COMMA):
                elems = [first]
                while self._accept(_COMMA):
                    elems.append(self.parse_expression())
                self._expect(_RPAREN)
                return ast.TupleLit(loc=self._loc(i), elems=elems)
            self._expect(_RPAREN)
            return first
        if kind is _LBRACE:
            self._advance()
            dims = [self.parse_expression()]
            while self._accept(_COMMA):
                dims.append(self.parse_expression())
            self._expect(_RBRACE)
            return ast.DomainLit(loc=self._loc(i), dims=dims)
        raise ParseError(
            f"unexpected token {text or kind.value!r} in expression", self._loc(i)
        )


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Lexes and parses ``source`` into a :class:`Program`."""
    return Parser(source, filename).parse_program()
