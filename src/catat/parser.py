"""Recursive-descent parser for Catat.

Grammar notes:

* ``function name(static...)(dynamic...) block`` declares a two-level
  function; a single parameter list means all parameters are dynamic.
  Static parameters must carry at least one ``@``; dynamic parameters
  carry none.
* ``type name(params) block`` (C-style) is accepted so emitted residual
  programs are valid input again; the return type is stored on
  ``declared_return``.
* A statement starting with an identifier is disambiguated by a tentative
  parse: if a type followed by another identifier parses, it is a
  declaration (this makes ``T* p;`` a declaration, as in C once ``T`` is
  known to be a type), otherwise it is re-parsed as an expression
  statement.
* Statements are allowed at the top level alongside declarations; scripts
  are ordinary programs.
* Binary operators are parsed by precedence climbing over this table
  (higher binds tighter; every level is left-associative):

  ====  ======================
  6     ``*`` ``/`` ``%``
  5     ``+`` ``-``
  4     ``<`` ``>`` ``<=`` ``>=``
  3     ``==`` ``!=``
  2     ``&&``
  1     ``||``
  ====  ======================

  Prefix ``!``, ``-``, ``++`` and ``--`` and postfix ``[...]`` bind tighter
  than any binary operator; ``c ? a : b`` binds looser and nests to the
  right.

Residual programs are read back whole, so the rules that every statement
and every operand pass through (``parse_block``, ``parse_stmt``,
``parse_decl_or_simple``, ``parse_simple_stmt``, ``finish_var_decl``,
``parse_expr``, ``parse_binary`` and ``parse_unary``) read
``self.toks[self.pos]`` directly instead of through the lookahead
helpers.  ``parse_unary`` builds names, integers and parenthesized
expressions itself, and ``parse_expr`` has a leaf fast path: a lone name
or integer followed by punctuation that cannot go on an expression
(``;``, ``)``, ``]``, ``,``, ``:`` or an assignment operator) is built
without climbing the precedence ladder.  The tree, every span and every
error are those of the full route.
"""

from __future__ import annotations

from .errors import ParseError, Span
from .lexer import AT, FLOAT, IDENT, INT, KEYWORD, PUNCT, STRING, Token, tokenize
from . import nodes as n

_TYPE_KEYWORDS = ("int", "float", "char", "bool", "long", "double",
                  "typename", "ASTree", "void", "const")
_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%="})
# Punctuation that cannot go on an expression: a name or an integer just
# before one is a whole operand.
_LEAF_END = frozenset({";", ")", "]", ",", ":"}) | _ASSIGN_OPS
_BINARY_PRECEDENCE = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
_END = "end-of-input"


class _Parser:
    def __init__(self, tokens: list[Token]):
        # An end sentinel, placed just past the last token, saves a bounds
        # test on every lookahead.  Lookahead past the current token is
        # only made once the tokens before it have matched, so one suffices.
        last = tokens[-1] if tokens else Token(_END, "", 1, 1)
        self.toks = tokens + [Token(_END, "", last.line,
                                    last.col + len(last.text))]
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.toks[self.pos + k]

    def at_end(self) -> bool:
        return self.toks[self.pos].kind == _END

    def span(self) -> Span:
        return self.toks[self.pos].span

    def error(self, message: str) -> ParseError:
        t = self.toks[self.pos]
        found = "end of input" if t.kind == _END else f"'{t.text}'"
        return ParseError(f"{message}, found {found}", t.span)

    def guarded(self, rule):
        """Apply a grammar rule, reporting Python stack exhaustion as a
        parse error at the token reached."""
        try:
            return rule()
        except RecursionError:
            raise ParseError("expression nested too deeply",
                             self.span()) from None

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def check(self, kind: str, k: int = 0) -> bool:
        return self.toks[self.pos + k].kind == kind

    def check_punct(self, text: str, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t.text == text and t.kind == PUNCT

    def check_kw(self, text: str, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t.text == text and t.kind == KEYWORD

    def expect_punct(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text or t.kind != PUNCT:
            raise self.error(f"expected '{text}'")
        self.pos += 1
        return t

    def expect_kw(self, text: str) -> Token:
        t = self.toks[self.pos]
        if t.text != text or t.kind != KEYWORD:
            raise self.error(f"expected '{text}'")
        self.pos += 1
        return t

    def expect_ident(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != IDENT:
            raise self.error("expected identifier")
        self.pos += 1
        return t

    def take_at(self) -> int:
        if self.check(AT):
            return self.advance().at_count
        return 0

    def parse_list(self, item) -> list:
        """``item {',' item}`` or nothing, then the closing ``)``."""
        items = []
        if not self.check_punct(")"):
            items.append(item())
            while self.check_punct(","):
                self.pos += 1
                items.append(item())
        self.expect_punct(")")
        return items

    # -- program ------------------------------------------------------------

    def parse_program(self) -> n.Program:
        items = []
        seen: set = set()
        while not self.at_end():
            item = self.parse_top_item()
            if isinstance(item, n.FunctionDef):
                key = ("fn", item.name, item.static_arity)
                if key in seen:
                    raise ParseError(
                        f"redefinition of function '{item.name}' with "
                        f"{item.static_arity} static parameter(s)", item.span)
                seen.add(key)
            elif isinstance(item, n.ClassDef):
                key = ("class", item.name)
                if key in seen:
                    raise ParseError(f"redefinition of class '{item.name}'",
                                     item.span)
                seen.add(key)
            items.append(item)
        return n.Program(items)

    def parse_top_item(self):
        if self.check_kw("function"):
            return self.parse_function()
        if self.check_kw("class"):
            return self.parse_class()
        # C-style definition: type ident ( ... ) { ... }
        t = self.peek()
        if t.kind == KEYWORD and t.text in _TYPE_KEYWORDS:
            mark = self.pos
            try:
                rtype = self.parse_type()
                if self.check(IDENT) and self.check_punct("(", 1):
                    name_tok = self.advance()
                    self.advance()
                    params = self.parse_list(self.parse_param)
                    body = self.parse_block()
                    self._check_params(None, params)
                    return n.FunctionDef(name_tok.text, None, params, body,
                                         declared_return=rtype,
                                         span=name_tok.span)
            except ParseError:
                pass
            self.pos = mark
        return self.parse_stmt()

    # -- declarations -------------------------------------------------------

    def parse_function(self) -> n.FunctionDef:
        kw = self.expect_kw("function")
        name = self.expect_ident().text
        self.expect_punct("(")
        first = self.parse_list(self.parse_param)
        static_params = None
        params = first
        if self.check_punct("("):
            self.advance()
            static_params = first
            params = self.parse_list(self.parse_param)
        body = self.parse_block()
        self._check_params(static_params, params)
        return n.FunctionDef(name, static_params, params, body, span=kw.span)

    def _check_params(self, static_params, params) -> None:
        if static_params is not None:
            for p in static_params:
                if p.at_count < 1:
                    raise ParseError(
                        f"static parameter '{p.name}' must be annotated with @",
                        p.span)
        for p in params:
            if p.at_count >= 1:
                raise ParseError(
                    f"dynamic parameter '{p.name}' may not carry @", p.span)

    def parse_param(self) -> n.Param:
        start = self.span()
        dtype = self.parse_type()
        name = self.expect_ident()
        if self.check_punct("["):
            self.advance()
            size = self.parse_expr()
            self.expect_punct("]")
            dtype = n.ArrayType(dtype, size, span=start)
        return n.Param(name.text, dtype, span=name.span)

    def parse_class(self) -> n.ClassDef:
        kw = self.expect_kw("class")
        name = self.expect_ident().text
        static_params: list = []
        if self.check_punct("("):
            self.advance()
            static_params = self.parse_list(self.parse_param)
            for p in static_params:
                if p.at_count < 1:
                    raise ParseError(
                        f"static parameter '{p.name}' must be annotated with @",
                        p.span)
        self.expect_punct("{")
        items = []
        n_static_ctor = n_dynamic_ctor = 0
        while not self.check_punct("}"):
            if self.at_end():
                raise self.error("expected '}' to close class body")
            if (self.check_kw("public") or self.check_kw("private")) and \
                    self.check_punct(":", 1):
                tok = self.advance()
                self.advance()
                items.append(n.VisibilityLabel(tok.text, span=tok.span))
                continue
            # Constructor: ClassName [@...] ( )
            if self.check(IDENT) and self.peek().text == name:
                after = 1
                at = 0
                if self.check(AT, k=1):
                    at = self.peek(1).at_count
                    after = 2
                if self.check_punct("(", after) and self.check_punct(")", after + 1):
                    tok = self.advance()
                    self.pos += after + 1
                    body = self.parse_block()
                    if at >= 1:
                        n_static_ctor += 1
                    else:
                        n_dynamic_ctor += 1
                    items.append(n.CtorDef(at, body, span=tok.span))
                    continue
            items.append(self.parse_var_decl())
        self.advance()
        if n_static_ctor > 1 or n_dynamic_ctor > 1:
            raise ParseError(
                f"class '{name}' may have at most one static and one "
                "dynamic constructor", kw.span)
        return n.ClassDef(name, static_params, items, span=kw.span)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> n.TypeExpr:
        start = self.span()
        const_count = 0
        while self.check_kw("const"):
            self.advance()
            const_count += 1
        t = self.peek()
        if t.kind == KEYWORD and t.text in _TYPE_KEYWORDS:
            self.advance()
            name = t.text
            if name == "long":
                self.expect_kw("int")
                name = "long int"
            base: n.TypeExpr = n.PrimType(name, self.take_at() + const_count,
                                          span=start)
        elif t.kind == IDENT:
            self.advance()
            at = self.take_at()
            if self.check_punct("("):
                self.advance()
                args = self.parse_list(self.parse_expr)
                base = n.ClassAppType(t.text, args, ctime=at >= 1, span=start)
            else:
                base = n.NamedType(t.text, at + const_count, span=start)
        else:
            raise self.error("expected a type")
        while self.check_punct("*"):
            self.advance()
            base = n.PointerType(base, span=start)
        return base

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> n.Block:
        toks = self.toks
        start = toks[self.pos].span
        self.expect_punct("{")
        stmts = []
        while True:
            t = toks[self.pos]
            if t.text == "}" and t.kind == PUNCT:
                break
            if t.kind == _END:
                raise self.error("expected '}'")
            stmts.append(self.parse_stmt())
        self.pos += 1
        return n.Block(stmts, span=start)

    def parse_stmt(self) -> n.Stmt:
        t = self.toks[self.pos]
        kind = t.kind
        if kind == KEYWORD:
            text = t.text
            if text == "return":
                self.pos += 1
                value = None
                if not self.check_punct(";"):
                    value = self.parse_expr()
                self.expect_punct(";")
                return n.Return(value, span=t.span)
            if text == "if":
                return self.parse_if()
            if text == "for":
                return self.parse_for()
            if text == "switch":
                return self.parse_switch()
        elif kind == PUNCT and t.text == "{":
            return self.parse_block()
        return self.parse_decl_or_simple(True)

    def parse_decl_or_simple(self, consume_semi: bool) -> n.Stmt:
        """A declaration when one parses here, else a simple statement."""
        toks = self.toks
        pos = self.pos
        t = toks[pos]
        if t.kind == KEYWORD:
            if t.text in _TYPE_KEYWORDS or t.text == "static":
                return self.parse_var_decl(consume_semi)
        elif t.kind == IDENT:
            # After the identifier a type can go on only with '@', '(',
            # '*' or the declared name; anything else is not worth a
            # tentative parse.
            after = toks[pos + 1]
            kind = after.kind
            if kind == IDENT or kind == AT or kind == PUNCT and \
                    (after.text == "(" or after.text == "*"):
                try:
                    dtype = self.parse_type()
                    if toks[self.pos].kind == IDENT:
                        return self.finish_var_decl(dtype, False,
                                                    consume_semi)
                except ParseError:
                    pass
                self.pos = pos
        return self.parse_simple_stmt(consume_semi)

    def parse_var_decl(self, consume_semi: bool = True) -> n.VarDecl:
        static_kw = False
        if self.check_kw("static"):
            self.advance()
            static_kw = True
        dtype = self.parse_type()
        return self.finish_var_decl(dtype, static_kw, consume_semi)

    def finish_var_decl(self, dtype: n.TypeExpr, static_kw: bool,
                        consume_semi: bool) -> n.VarDecl:
        toks = self.toks
        declarators = []
        while True:
            name = self.expect_ident()
            t = toks[self.pos]
            size = None
            if t.text == "[" and t.kind == PUNCT:
                self.pos += 1
                size = self.parse_expr()
                self.expect_punct("]")
                t = toks[self.pos]
            init = None
            if t.text == "=" and t.kind == PUNCT:
                self.pos += 1
                init = self.parse_expr()
                t = toks[self.pos]
            declarators.append(n.Declarator(name.text, size, init,
                                            span=name.span))
            if t.text != "," or t.kind != PUNCT:
                break
            self.pos += 1
        if consume_semi:
            self.expect_punct(";")
        return n.VarDecl(dtype, declarators, static_kw,
                         span=declarators[0].span)

    def parse_simple_stmt(self, consume_semi: bool) -> n.Stmt:
        toks = self.toks
        start = toks[self.pos].span
        expr = self.parse_expr()
        stmt: n.Stmt
        t = toks[self.pos]
        if t.text in _ASSIGN_OPS and t.kind == PUNCT:
            self.pos += 1
            if not isinstance(expr, (n.VarRef, n.Subscript)):
                raise ParseError("invalid assignment target", start)
            value = self.parse_expr()
            stmt = n.Assign(expr, t.text, value, span=start)
        else:
            stmt = n.ExprStmt(expr, span=start)
        if consume_semi:
            self.expect_punct(";")
        return stmt

    def parse_for_clause(self) -> n.Stmt | None:
        """init/increment position: declaration, assignment, or expression."""
        if self.check_punct(";") or self.check_punct(")"):
            return None
        return self.parse_decl_or_simple(consume_semi=False)

    def parse_if(self) -> n.If:
        tok = self.expect_kw("if")
        at = self.take_at()
        self.expect_punct("(")
        cond = self.parse_expr()
        self.expect_punct(")")
        then_stmt = self.parse_stmt()
        else_stmt = None
        else_at = 0
        if self.check_kw("else"):
            self.advance()
            else_at = self.take_at()
            else_stmt = self.parse_stmt()
        return n.If(cond, then_stmt, else_stmt, at, else_at, span=tok.span)

    def parse_for(self) -> n.For:
        tok = self.expect_kw("for")
        at = self.take_at()
        self.expect_punct("(")
        init = self.parse_for_clause()
        self.expect_punct(";")
        cond = None
        if not self.check_punct(";"):
            cond = self.parse_expr()
        self.expect_punct(";")
        incr = self.parse_for_clause()
        self.expect_punct(")")
        body = self.parse_stmt()
        return n.For(init, cond, incr, body, at, span=tok.span)

    def parse_switch(self) -> n.Switch:
        tok = self.expect_kw("switch")
        at = self.take_at()
        self.expect_punct("(")
        subject = self.parse_expr()
        self.expect_punct(")")
        self.expect_punct("{")
        cases = []
        while not self.check_punct("}"):
            if self.check_kw("case"):
                ctok = self.advance()
                label = self.parse_case_label()
                self.expect_punct(":")
                cases.append(n.SwitchCase(label, self.parse_case_body(),
                                          span=ctok.span))
            elif self.check_kw("default"):
                ctok = self.advance()
                self.expect_punct(":")
                cases.append(n.SwitchCase(None, self.parse_case_body(),
                                          span=ctok.span))
            else:
                raise self.error("expected 'case' or 'default'")
        self.advance()
        return n.Switch(subject, cases, at, span=tok.span)

    def parse_case_label(self) -> n.Expr:
        t = self.peek()
        if t.kind == KEYWORD and t.text in _TYPE_KEYWORDS and t.text != "const":
            return n.TypeLit(self.parse_type(), span=t.span)
        return self.parse_expr()

    def parse_case_body(self) -> list:
        stmts = []
        while not (self.check_punct("}") or self.check_kw("case")
                   or self.check_kw("default")):
            if self.at_end():
                raise self.error("expected '}'")
            stmts.append(self.parse_stmt())
        return stmts

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> n.Expr:
        toks = self.toks
        pos = self.pos
        t = toks[pos]
        kind = t.kind
        if kind == IDENT or kind == INT:
            after = toks[pos + 1]
            if after.text in _LEAF_END and after.kind == PUNCT:
                self.pos = pos + 1
                if kind == IDENT:
                    return n.VarRef(t.text, span=t.span)
                return n.IntLit(int(t.text), span=t.span)
        expr = self.parse_unary()
        t = toks[self.pos]
        if t.text in _BINARY_PRECEDENCE and t.kind == PUNCT:
            expr = self.parse_binary(expr, 1)
            t = toks[self.pos]
        if t.text == "?" and t.kind == PUNCT:
            self.pos += 1
            then_e = self.parse_expr()
            self.expect_punct(":")
            else_e = self.parse_expr()
            return n.Cond(expr, then_e, else_e, span=t.span)
        return expr

    def parse_binary(self, lhs: n.Expr, min_prec: int) -> n.Expr:
        """``lhs`` joined with the operands after it by binary operators of
        precedence >= min_prec."""
        toks = self.toks
        op = toks[self.pos]
        prec = _BINARY_PRECEDENCE.get(op.text, 0)
        while prec >= min_prec and op.kind == PUNCT:
            self.pos += 1
            rhs = self.parse_binary(self.parse_unary(), prec + 1)
            lhs = n.Binary(op.text, lhs, rhs, span=op.span)
            op = toks[self.pos]
            prec = _BINARY_PRECEDENCE.get(op.text, 0)
        return lhs

    def parse_unary(self) -> n.Expr:
        toks = self.toks
        t = toks[self.pos]
        kind = t.kind
        if kind == IDENT:
            self.pos += 1
            after = toks[self.pos]
            if after.text == "(" and after.kind == PUNCT:
                expr = self.parse_call(t, 0)
            elif after.kind == AT and self.check_punct("(", 1):
                self.pos += 1
                expr = self.parse_call(t, after.at_count)
            else:
                expr = n.VarRef(t.text, span=t.span)
        elif kind == INT:
            self.pos += 1
            expr = n.IntLit(int(t.text), span=t.span)
        elif kind == PUNCT:
            text = t.text
            if text == "(":
                self.pos += 1
                expr = self.parse_expr()
                self.expect_punct(")")
            elif text == "!" or text == "-":
                self.pos += 1
                return n.Unary(text, self.parse_unary(), span=t.span)
            elif text == "++" or text == "--":
                self.pos += 1
                return n.Incr(text, self.parse_unary(), span=t.span)
            else:
                raise self.error("expected an expression")
        else:
            expr = self.parse_primary()
        t = toks[self.pos]
        while t.text == "[" and t.kind == PUNCT:
            self.pos += 1
            index = self.parse_expr()
            self.expect_punct("]")
            expr = n.Subscript(expr, index, span=t.span)
            t = toks[self.pos]
        return expr

    def parse_call(self, name: Token, at: int) -> n.Call:
        """The call of ``name`` whose argument list starts here."""
        args = self.parse_call_args()
        if at == 0 and self.check_punct("("):
            dyn_args = self.parse_call_args()
            return n.Call(name.text, dyn_args, static_args=args,
                          span=name.span)
        return n.Call(name.text, args, at_count=at, span=name.span)

    def parse_call_args(self) -> list:
        self.expect_punct("(")
        return self.parse_list(self.parse_expr)

    def parse_primary(self) -> n.Expr:
        """The leaves ``parse_unary`` does not build itself."""
        t = self.peek()
        kind = t.kind
        if kind == FLOAT:
            self.advance()
            return n.FloatLit(float(t.text), span=t.span)
        if kind == STRING:
            self.advance()
            return n.StringLit(t.text, span=t.span)
        if kind == KEYWORD and t.text in ("true", "false"):
            self.advance()
            return n.BoolLit(t.text == "true", span=t.span)
        if kind == KEYWORD and t.text in _TYPE_KEYWORDS and t.text != "const":
            return n.TypeLit(self.parse_type(), span=t.span)
        raise self.error("expected an expression")


def parse(source: str) -> n.Program:
    """Parse Catat source text into a Program AST."""
    return parse_tokens(tokenize(source))


def parse_tokens(tokens: list[Token]) -> n.Program:
    """Parse a program from the tokens ``tokenize`` returned for it."""
    p = _Parser(tokens)
    return p.guarded(p.parse_program)


def parse_expression(source: str) -> n.Expr:
    """Parse a single expression (testing and tooling convenience)."""
    p = _Parser(tokenize(source))
    expr = p.guarded(p.parse_expr)
    if not p.at_end():
        raise p.error("unexpected tokens after expression")
    return expr
