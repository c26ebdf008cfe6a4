"""The recursive-descent mini-Chapel parser, kept as the reference.

This is the parser as it ran before expressions moved to one
precedence-climbing loop: one method per precedence level, from
``_parse_or`` down to ``_parse_postfix``, and a ``_peek`` that clamps
every lookahead to the last token.  The AST node classes, tokens and
errors come from the product, so that ASTs compare equal with dataclass
equality.  ``tests/compiler/test_frontend_reference.py`` and the CI
``frontend-identity`` job compare the product parser against it.  Do
not change this file to follow the product parser.

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
"""

from __future__ import annotations

from repro.chapel import ast_nodes as ast
from repro.chapel.errors import ParseError
from repro.chapel.lexer import tokenize
from repro.chapel.tokens import Token, TokenKind

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

_ADD_OPS = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MUL_OPS = {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"}

_SCALAR_TYPE_KWS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_REAL: "real",
    TokenKind.KW_BOOL: "bool",
    TokenKind.KW_STRING: "string",
    TokenKind.KW_VOID: "void",
}


class Parser:
    """Parses a token stream into a :class:`~repro.chapel.ast_nodes.Program`."""

    def __init__(self, tokens: list[Token], filename: str = "<string>") -> None:
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    # -- Token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _at_any(self, *kinds: TokenKind) -> bool:
        return self._peek().kind in kinds

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: TokenKind, what: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            expected = what or kind.value
            raise ParseError(
                f"expected {expected!r}, found {tok.text or tok.kind.value!r}",
                tok.loc,
            )
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    # -- Program -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        loc = self._peek().loc
        decls: list[ast.Stmt] = []
        while not self._at(TokenKind.EOF):
            decls.append(self.parse_statement())
        return ast.Program(loc=loc, decls=decls, filename=self.filename)

    # -- Statements ----------------------------------------------------------

    def parse_statement(self) -> ast.Stmt:
        tok = self._peek()
        kind = tok.kind
        if kind in (TokenKind.KW_VAR, TokenKind.KW_CONST, TokenKind.KW_PARAM):
            return self._parse_var_decl(is_config=False)
        if kind is TokenKind.KW_CONFIG:
            self._advance()
            if not self._at_any(
                TokenKind.KW_CONST, TokenKind.KW_VAR, TokenKind.KW_PARAM
            ):
                raise ParseError("expected 'const'/'var'/'param' after 'config'", tok.loc)
            return self._parse_var_decl(is_config=True)
        if kind is TokenKind.KW_PROC:
            return self._parse_proc()
        if kind is TokenKind.KW_ITER:
            return self._parse_proc(is_iter=True)
        if kind is TokenKind.KW_YIELD:
            self._advance()
            value = self.parse_expression()
            self._expect(TokenKind.SEMI)
            return ast.Yield(loc=tok.loc, value=value)
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
            value = None if self._at(TokenKind.SEMI) else self.parse_expression()
            self._expect(TokenKind.SEMI)
            return ast.Return(loc=tok.loc, value=value)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.Break(loc=tok.loc)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMI)
            return ast.Continue(loc=tok.loc)
        if kind is TokenKind.KW_USE:
            self._advance()
            mod = self._expect(TokenKind.IDENT, "module name").text
            self._expect(TokenKind.SEMI)
            return ast.Use(loc=tok.loc, module=mod)
        if kind is TokenKind.LBRACE:
            return self.parse_block()
        return self._parse_expr_or_assign()

    def parse_block(self) -> ast.Block:
        lbrace = self._expect(TokenKind.LBRACE)
        stmts: list[ast.Stmt] = []
        while not self._at(TokenKind.RBRACE):
            if self._at(TokenKind.EOF):
                raise ParseError("unterminated block", lbrace.loc)
            stmts.append(self.parse_statement())
        self._expect(TokenKind.RBRACE)
        return ast.Block(loc=lbrace.loc, stmts=stmts)

    def _parse_body_or_single(self, intro_kind: TokenKind | None) -> ast.Block:
        """Parses either ``{ ... }`` or a ``then``/``do`` single statement."""
        if intro_kind is not None and self._at(intro_kind):
            tok = self._advance()
            stmt = self.parse_statement()
            return ast.Block(loc=tok.loc, stmts=[stmt])
        if self._at(TokenKind.LBRACE):
            return self.parse_block()
        # Bare single statement (allowed after else).
        stmt = self.parse_statement()
        return ast.Block(loc=stmt.loc, stmts=[stmt])

    def _parse_var_decl(self, is_config: bool) -> ast.VarDecl:
        tok = self._advance()  # var/const/param
        kind = tok.text
        name = self._expect(TokenKind.IDENT, "variable name").text
        declared_type = None
        init = None
        if self._accept(TokenKind.COLON):
            declared_type = self.parse_type()
        if self._accept(TokenKind.ASSIGN):
            init = self.parse_expression()
        self._expect(TokenKind.SEMI)
        if declared_type is None and init is None:
            raise ParseError(
                f"declaration of {name!r} needs a type or an initializer", tok.loc
            )
        return ast.VarDecl(
            loc=tok.loc,
            kind=kind,
            name=name,
            declared_type=declared_type,
            init=init,
            is_config=is_config,
        )

    def _parse_proc(self, is_iter: bool = False) -> ast.ProcDecl:
        tok = self._advance()  # proc / iter
        name = self._expect(TokenKind.IDENT, "procedure name").text
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        while not self._at(TokenKind.RPAREN):
            params.append(self._parse_param())
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        return_type = None
        if self._accept(TokenKind.COLON):
            return_type = self.parse_type()
        body = self.parse_block()
        return ast.ProcDecl(
            loc=tok.loc, name=name, params=params, return_type=return_type,
            body=body, is_iter=is_iter,
        )

    def _parse_param(self) -> ast.Param:
        tok = self._peek()
        intent = "in"
        if tok.kind is TokenKind.KW_REF:
            intent = "ref"
            self._advance()
        elif tok.kind is TokenKind.KW_IN:
            intent = "in"
            self._advance()
        elif tok.kind is TokenKind.KW_OUT:
            intent = "out"
            self._advance()
        elif tok.kind is TokenKind.KW_INOUT:
            intent = "inout"
            self._advance()
        elif tok.kind is TokenKind.KW_CONST:
            # 'const ref' / 'const in' collapse to their base intent here.
            self._advance()
            if self._at(TokenKind.KW_REF):
                intent = "ref"
                self._advance()
            elif self._at(TokenKind.KW_IN):
                self._advance()
        elif tok.kind is TokenKind.KW_PARAM:
            intent = "param"
            self._advance()
        name_tok = self._expect(TokenKind.IDENT, "parameter name")
        declared_type = None
        if self._accept(TokenKind.COLON):
            declared_type = self.parse_type()
        return ast.Param(
            name=name_tok.text,
            intent=intent,
            declared_type=declared_type,
            loc=name_tok.loc,
        )

    def _parse_record(self) -> ast.RecordDecl:
        tok = self._advance()  # record / class
        is_class = tok.kind is TokenKind.KW_CLASS
        name = self._expect(TokenKind.IDENT, "record name").text
        self._expect(TokenKind.LBRACE)
        fields: list[ast.FieldDecl] = []
        while not self._at(TokenKind.RBRACE):
            ftok = self._peek()
            if not self._at_any(TokenKind.KW_VAR, TokenKind.KW_CONST):
                raise ParseError("expected field declaration in record body", ftok.loc)
            self._advance()
            fname = self._expect(TokenKind.IDENT, "field name").text
            self._expect(TokenKind.COLON)
            ftype = self.parse_type()
            finit = None
            if self._accept(TokenKind.ASSIGN):
                finit = self.parse_expression()
            self._expect(TokenKind.SEMI)
            fields.append(
                ast.FieldDecl(name=fname, declared_type=ftype, init=finit, loc=ftok.loc)
            )
        self._expect(TokenKind.RBRACE)
        return ast.RecordDecl(loc=tok.loc, name=name, fields=fields, is_class=is_class)

    def _parse_if(self) -> ast.If:
        tok = self._expect(TokenKind.KW_IF)
        cond = self.parse_expression()
        then_body = self._parse_body_or_single(TokenKind.KW_THEN)
        else_body = None
        if self._accept(TokenKind.KW_ELSE):
            else_body = self._parse_body_or_single(None)
        return ast.If(loc=tok.loc, cond=cond, then_body=then_body, else_body=else_body)

    def _parse_while(self) -> ast.While:
        tok = self._expect(TokenKind.KW_WHILE)
        cond = self.parse_expression()
        body = self._parse_body_or_single(TokenKind.KW_DO)
        return ast.While(loc=tok.loc, cond=cond, body=body)

    def _parse_loop(self) -> ast.For:
        tok = self._advance()  # for / forall / coforall
        loop_kind = tok.text
        is_param = False
        if self._at(TokenKind.KW_PARAM):
            self._advance()
            is_param = True

        indices: list[ast.LoopIndex] = []
        if self._accept(TokenKind.LPAREN):
            while True:
                itok = self._expect(TokenKind.IDENT, "loop index")
                indices.append(ast.LoopIndex(name=itok.text, loc=itok.loc))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN)
        else:
            itok = self._expect(TokenKind.IDENT, "loop index")
            indices.append(ast.LoopIndex(name=itok.text, loc=itok.loc))

        self._expect(TokenKind.KW_IN)

        iterables: list[ast.Expr] = []
        zippered = False
        if self._at(TokenKind.KW_ZIP):
            zippered = True
            self._advance()
            self._expect(TokenKind.LPAREN)
            while True:
                iterables.append(self.parse_expression())
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN)
        else:
            iterables.append(self.parse_expression())

        if zippered and len(indices) != len(iterables):
            raise ParseError(
                f"zippered loop has {len(indices)} indices but "
                f"{len(iterables)} iterands",
                tok.loc,
            )

        # Optional `with (+ reduce x, min reduce y, ...)` intent clause.
        reduce_intents: list[tuple[str, str]] = []
        if self._accept(TokenKind.KW_WITH):
            self._expect(TokenKind.LPAREN)
            while True:
                op_tok = self._peek()
                if op_tok.kind in (TokenKind.PLUS, TokenKind.STAR) or (
                    op_tok.kind is TokenKind.IDENT
                    and op_tok.text in ("min", "max")
                ):
                    op = self._advance().text
                else:
                    raise ParseError(
                        "expected a reduction operator (+, *, min, max) "
                        "in with-clause",
                        op_tok.loc,
                    )
                self._expect(TokenKind.KW_REDUCE)
                name = self._expect(TokenKind.IDENT, "reduced variable").text
                reduce_intents.append((op, name))
                if not self._accept(TokenKind.COMMA):
                    break
            self._expect(TokenKind.RPAREN)
            if loop_kind == "for":
                raise ParseError(
                    "with-clauses apply to parallel loops only", tok.loc
                )

        body = self._parse_body_or_single(TokenKind.KW_DO)
        return ast.For(
            loc=tok.loc,
            kind=loop_kind,
            indices=indices,
            iterables=iterables,
            body=body,
            is_param=is_param,
            zippered=zippered,
            reduce_intents=reduce_intents,
        )

    def _parse_select(self) -> ast.Select:
        tok = self._expect(TokenKind.KW_SELECT)
        subject = self.parse_expression()
        self._expect(TokenKind.LBRACE)
        whens: list[ast.When] = []
        otherwise: ast.Block | None = None
        while not self._at(TokenKind.RBRACE):
            wtok = self._peek()
            if wtok.kind is TokenKind.KW_WHEN:
                self._advance()
                values = [self.parse_expression()]
                while self._accept(TokenKind.COMMA):
                    values.append(self.parse_expression())
                body = self._parse_body_or_single(TokenKind.KW_DO)
                whens.append(ast.When(values=values, body=body, loc=wtok.loc))
            elif wtok.kind is TokenKind.KW_OTHERWISE:
                self._advance()
                otherwise = self._parse_body_or_single(TokenKind.KW_DO)
            else:
                raise ParseError(
                    "expected 'when' or 'otherwise' in select body", wtok.loc
                )
        self._expect(TokenKind.RBRACE)
        return ast.Select(loc=tok.loc, subject=subject, whens=whens, otherwise=otherwise)

    def _parse_expr_or_assign(self) -> ast.Stmt:
        expr = self.parse_expression()
        tok = self._peek()
        if tok.kind in _ASSIGN_OPS:
            op = _ASSIGN_OPS[tok.kind]
            self._advance()
            value = self.parse_expression()
            self._expect(TokenKind.SEMI)
            if not isinstance(expr, (ast.Ident, ast.Index, ast.FieldAccess)):
                raise ParseError("invalid assignment target", expr.loc)
            return ast.Assign(loc=expr.loc, target=expr, op=op, value=value)
        self._expect(TokenKind.SEMI)
        return ast.ExprStmt(loc=expr.loc, expr=expr)

    # -- Types -----------------------------------------------------------------

    def parse_type(self) -> ast.TypeExpr:
        tok = self._peek()
        if tok.kind in _SCALAR_TYPE_KWS:
            self._advance()
            width = None
            if self._at(TokenKind.LPAREN):
                self._advance()
                width = int(self._expect(TokenKind.INT_LIT, "bit width").text)
                self._expect(TokenKind.RPAREN)
            return ast.NamedType(loc=tok.loc, name=_SCALAR_TYPE_KWS[tok.kind], width=width)
        if tok.kind is TokenKind.KW_DOMAIN:
            self._advance()
            self._expect(TokenKind.LPAREN)
            # `domain(N)` is a rectangular domain of rank N;
            # `domain(int)` is an associative domain keyed by int.
            if self._at(TokenKind.KW_INT):
                self._advance()
                self._expect(TokenKind.RPAREN)
                return ast.AssocDomainTypeExpr(loc=tok.loc)
            rank = int(self._expect(TokenKind.INT_LIT, "domain rank").text)
            self._expect(TokenKind.RPAREN)
            return ast.DomainTypeExpr(loc=tok.loc, rank=rank)
        if tok.kind is TokenKind.KW_SPARSE:
            self._advance()
            self._expect(TokenKind.KW_SUBDOMAIN, "subdomain")
            self._expect(TokenKind.LPAREN)
            parent = self.parse_expression()
            self._expect(TokenKind.RPAREN)
            return ast.SparseSubdomainTypeExpr(loc=tok.loc, parent=parent)
        if tok.kind is TokenKind.KW_RANGE:
            self._advance()
            return ast.RangeTypeExpr(loc=tok.loc)
        if tok.kind is TokenKind.LBRACKET:
            self._advance()
            # Open array type '[?] T' / '[?, ?] T' (formals whose domain
            # is supplied by the actual, like Chapel's '[?D] T').
            if self._at(TokenKind.QUESTION):
                rank = 0
                while self._accept(TokenKind.QUESTION):
                    rank += 1
                    if not self._accept(TokenKind.COMMA):
                        break
                self._expect(TokenKind.RBRACKET)
                elem = self.parse_type()
                return ast.ArrayTypeExpr(loc=tok.loc, domain=None, elem=elem, open_rank=rank)
            # The bracket holds a domain-valued expression: an identifier,
            # or one or more ranges (an inline domain literal).
            dims = [self.parse_expression()]
            while self._accept(TokenKind.COMMA):
                dims.append(self.parse_expression())
            self._expect(TokenKind.RBRACKET)
            domain: ast.Expr
            if len(dims) == 1 and not isinstance(dims[0], ast.RangeLit):
                domain = dims[0]
            else:
                domain = ast.DomainLit(loc=tok.loc, dims=dims)
            elem = self.parse_type()
            return ast.ArrayTypeExpr(loc=tok.loc, domain=domain, elem=elem)
        if tok.kind is TokenKind.INT_LIT and self._peek(1).kind is TokenKind.STAR:
            count = int(self._advance().text)
            self._expect(TokenKind.STAR)
            elem = self.parse_type()
            return ast.TupleTypeExpr(loc=tok.loc, count=count, elem=elem)
        if tok.kind is TokenKind.LPAREN:
            self._advance()
            elems = [self.parse_type()]
            while self._accept(TokenKind.COMMA):
                elems.append(self.parse_type())
            self._expect(TokenKind.RPAREN)
            if len(elems) == 1:
                # Parenthesized grouping, e.g. the element of 8*(4*real).
                return elems[0]
            return ast.TupleTypeExpr(loc=tok.loc, count=None, elem=None, elems=elems)
        if tok.kind is TokenKind.IDENT:
            self._advance()
            return ast.NamedType(loc=tok.loc, name=tok.text)
        raise ParseError(f"expected a type, found {tok.text!r}", tok.loc)

    # -- Expressions -------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        if self._at(TokenKind.KW_IF):
            return self._parse_if_expr()
        return self._parse_or()

    def _parse_if_expr(self) -> ast.Expr:
        tok = self._expect(TokenKind.KW_IF)
        cond = self._parse_or()
        self._expect(TokenKind.KW_THEN)
        then_expr = self.parse_expression()
        self._expect(TokenKind.KW_ELSE)
        else_expr = self.parse_expression()
        return ast.IfExpr(loc=tok.loc, cond=cond, then_expr=then_expr, else_expr=else_expr)

    def _parse_or(self) -> ast.Expr:
        lhs = self._parse_and()
        while self._at(TokenKind.OR):
            tok = self._advance()
            rhs = self._parse_and()
            lhs = ast.BinOp(loc=tok.loc, op="||", lhs=lhs, rhs=rhs)
        return lhs

    def _parse_and(self) -> ast.Expr:
        lhs = self._parse_cmp()
        while self._at(TokenKind.AND):
            tok = self._advance()
            rhs = self._parse_cmp()
            lhs = ast.BinOp(loc=tok.loc, op="&&", lhs=lhs, rhs=rhs)
        return lhs

    def _parse_cmp(self) -> ast.Expr:
        lhs = self._parse_range()
        tok = self._peek()
        if tok.kind in _CMP_OPS:
            self._advance()
            rhs = self._parse_range()
            return ast.BinOp(loc=tok.loc, op=_CMP_OPS[tok.kind], lhs=lhs, rhs=rhs)
        return lhs

    def _parse_range(self) -> ast.Expr:
        lhs = self._parse_add()
        tok = self._peek()
        if tok.kind in (TokenKind.DOTDOT, TokenKind.DOTDOTHASH):
            counted = tok.kind is TokenKind.DOTDOTHASH
            self._advance()
            rhs = self._parse_add()
            step = None
            if self._accept(TokenKind.KW_BY):
                step = self._parse_add()
            return ast.RangeLit(loc=tok.loc, lo=lhs, hi=rhs, counted=counted, step=step)
        return lhs

    def _parse_add(self) -> ast.Expr:
        lhs = self._parse_mul()
        while self._peek().kind in _ADD_OPS:
            tok = self._advance()
            rhs = self._parse_mul()
            lhs = ast.BinOp(loc=tok.loc, op=_ADD_OPS[tok.kind], lhs=lhs, rhs=rhs)
        return lhs

    def _parse_mul(self) -> ast.Expr:
        lhs = self._parse_pow()
        while self._peek().kind in _MUL_OPS:
            tok = self._advance()
            rhs = self._parse_pow()
            lhs = ast.BinOp(loc=tok.loc, op=_MUL_OPS[tok.kind], lhs=lhs, rhs=rhs)
        return lhs

    def _parse_pow(self) -> ast.Expr:
        lhs = self._parse_unary()
        if self._at(TokenKind.STARSTAR):
            tok = self._advance()
            rhs = self._parse_pow()  # right associative
            return ast.BinOp(loc=tok.loc, op="**", lhs=lhs, rhs=rhs)
        return lhs

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        # Reductions: '+ reduce e', '* reduce e', 'min reduce e', 'max reduce e'.
        if tok.kind in (TokenKind.PLUS, TokenKind.STAR) and (
            self._peek(1).kind is TokenKind.KW_REDUCE
        ):
            op = self._advance().text
            self._expect(TokenKind.KW_REDUCE)
            iterable = self._parse_unary()
            return ast.Reduce(loc=tok.loc, op=op, iterable=iterable)
        if (
            tok.kind is TokenKind.IDENT
            and tok.text in ("min", "max")
            and self._peek(1).kind is TokenKind.KW_REDUCE
        ):
            op = self._advance().text
            self._expect(TokenKind.KW_REDUCE)
            iterable = self._parse_unary()
            return ast.Reduce(loc=tok.loc, op=op, iterable=iterable)
        if tok.kind in (TokenKind.MINUS, TokenKind.NOT, TokenKind.PLUS):
            self._advance()
            operand = self._parse_unary()
            return ast.UnOp(loc=tok.loc, op=tok.text, operand=operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is TokenKind.LBRACKET:
                self._advance()
                indices = [self.parse_expression()]
                while self._accept(TokenKind.COMMA):
                    indices.append(self.parse_expression())
                self._expect(TokenKind.RBRACKET)
                expr = ast.Index(loc=tok.loc, base=expr, indices=indices)
            elif tok.kind is TokenKind.DOT:
                self._advance()
                # `domain` is a keyword but also an array method name.
                if self._at(TokenKind.KW_DOMAIN):
                    name = self._advance().text
                else:
                    name = self._expect(TokenKind.IDENT, "member name").text
                if self._at(TokenKind.LPAREN):
                    self._advance()
                    args: list[ast.Expr] = []
                    while not self._at(TokenKind.RPAREN):
                        args.append(self.parse_expression())
                        if not self._accept(TokenKind.COMMA):
                            break
                    self._expect(TokenKind.RPAREN)
                    expr = ast.MethodCall(loc=tok.loc, receiver=expr, method=name, args=args)
                else:
                    expr = ast.FieldAccess(loc=tok.loc, base=expr, field=name)
            elif (
                tok.kind is TokenKind.LPAREN
                and isinstance(expr, ast.Ident)
            ):
                # Only a bare identifier can be called (no first-class procs).
                self._advance()
                args = []
                while not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    if not self._accept(TokenKind.COMMA):
                        break
                self._expect(TokenKind.RPAREN)
                expr = ast.Call(loc=expr.loc, callee=expr.name, args=args)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        kind = tok.kind
        if kind is TokenKind.INT_LIT:
            self._advance()
            return ast.IntLit(loc=tok.loc, value=int(tok.text))
        if kind is TokenKind.REAL_LIT:
            self._advance()
            return ast.RealLit(loc=tok.loc, value=float(tok.text))
        if kind is TokenKind.BOOL_LIT:
            self._advance()
            return ast.BoolLit(loc=tok.loc, value=(tok.text == "true"))
        if kind is TokenKind.STRING_LIT:
            self._advance()
            return ast.StringLit(loc=tok.loc, value=tok.text)
        if kind is TokenKind.IDENT:
            self._advance()
            return ast.Ident(loc=tok.loc, name=tok.text)
        if kind is TokenKind.KW_NEW:
            self._advance()
            name = self._expect(TokenKind.IDENT, "type name").text
            args: list[ast.Expr] = []
            if self._accept(TokenKind.LPAREN):
                while not self._at(TokenKind.RPAREN):
                    args.append(self.parse_expression())
                    if not self._accept(TokenKind.COMMA):
                        break
                self._expect(TokenKind.RPAREN)
            return ast.New(loc=tok.loc, type_name=name, args=args)
        if kind is TokenKind.LPAREN:
            self._advance()
            first = self.parse_expression()
            if self._at(TokenKind.COMMA):
                elems = [first]
                while self._accept(TokenKind.COMMA):
                    elems.append(self.parse_expression())
                self._expect(TokenKind.RPAREN)
                return ast.TupleLit(loc=tok.loc, elems=elems)
            self._expect(TokenKind.RPAREN)
            return first
        if kind is TokenKind.LBRACE:
            self._advance()
            dims = [self.parse_expression()]
            while self._accept(TokenKind.COMMA):
                dims.append(self.parse_expression())
            self._expect(TokenKind.RBRACE)
            return ast.DomainLit(loc=tok.loc, dims=dims)
        raise ParseError(
            f"unexpected token {tok.text or tok.kind.value!r} in expression", tok.loc
        )


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Lexes and parses ``source`` into a :class:`Program`."""
    return Parser(tokenize(source, filename), filename).parse_program()
