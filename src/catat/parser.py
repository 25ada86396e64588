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

Tokens are the lexer's ``(kind, text, line, col)`` tuples, read as
``t[0]`` and ``t[1]``.  A node's span is the slice ``t[2:]`` of its
token, an exact ``(line, col)`` tuple of ints, which the garbage collector
stops tracking at the first collection it survives; an error given one
turns it into a ``Span`` (see errors.py).
The token list ends in an end-of-input sentinel one past the last token's
source text (for a string literal, past its closing quote, not its
decoded body), where a parse error at the end of the input points.

Residual programs are read back whole, so the rules that every statement
and every operand pass through (``parse_block``, ``parse_stmt``,
``parse_decl_or_simple``, ``parse_simple_stmt``, ``finish_var_decl``,
``parse_expr``, ``parse_binary`` and ``parse_unary``) read
``self.toks[self.pos]`` directly instead of through the lookahead
helpers.  ``parse_unary`` builds names, integers and parenthesized
expressions itself, and ``parse_expr`` has a leaf fast path: a lone name
or integer followed by punctuation that cannot go on an expression
(``;``, ``)``, ``]``, ``,``, ``:`` or an assignment operator) is built
without climbing the precedence ladder.  Likewise ``parse_unary``'s
subscript loop builds ``a[<integer>]`` whole when an integer and ``]``
follow the ``[``; any other index goes through ``parse_expr`` and
``expect_punct``.  These hot rules build the nodes residuals are made of
(``VarRef``, ``IntLit``, ``Subscript``, ``Binary``, ``Assign`` and
``ExprStmt``) with positional fields and set ``span`` afterwards: passing
it as a keyword costs a node's ``__init__`` more than the store does.  The
tree, every span and every error are those of the full route.

Python's stack bounds how deep constructs nest.  Running out of it is a
``ParseError`` that names a statement or an expression, whichever rule
kind more of the frames that ran out belong to; telling them apart costs
only the error path.
"""

from __future__ import annotations

from .errors import ParseError
from .lexer import (
    AT, FLOAT, IDENT, INT, KEYWORD, PUNCT, STRING, STRING_LITERAL, tokenize,
)
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
# The rules a statement nested in a statement, and an expression nested in
# an expression, recurse through.
_STATEMENT_RULES = frozenset({"parse_stmt", "parse_block", "parse_if",
                              "parse_for", "parse_switch", "parse_case_body"})
_EXPRESSION_RULES = frozenset({"parse_expr", "parse_binary", "parse_unary",
                               "parse_call", "parse_primary"})

def _end(tokens: list, source: str) -> tuple[int, int]:
    """The line and column one past the source text of the last token."""
    if not tokens:
        return 1, 1
    kind, text, line, col = tokens[-1]
    if kind != STRING:
        return line, col + len(text)
    # A string literal's text is its decoded body: measure its source.
    from_line = source.split("\n", line - 1)[-1]
    literal = STRING_LITERAL.match(from_line, col - 1)[0]
    if "\n" in literal:
        return (line + literal.count("\n"),
                len(literal) - literal.rindex("\n"))
    return line, col + len(literal)


def _nested(tb) -> str:
    """What ran out of stack in traceback ``tb``: "statement" when more of
    its frames are statement rules than expression rules, else
    "expression"."""
    balance = 0
    while tb is not None:
        name = tb.tb_frame.f_code.co_name
        if name in _STATEMENT_RULES:
            balance += 1
        elif name in _EXPRESSION_RULES:
            balance -= 1
        tb = tb.tb_next
    return "statement" if balance > 0 else "expression"


class _Parser:
    def __init__(self, tokens: list, source: str):
        # An end sentinel, placed one past the last token's source text,
        # saves a bounds test on every lookahead.  Lookahead past the
        # current token is only made once the tokens before it have
        # matched, so one suffices.
        self.toks = tokens + [(_END, "", *_end(tokens, source))]
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    def peek(self, k: int = 0) -> tuple:
        return self.toks[self.pos + k]

    def at_end(self) -> bool:
        return self.toks[self.pos][0] == _END

    def span(self) -> tuple[int, int]:
        return self.toks[self.pos][2:]

    def error(self, message: str) -> ParseError:
        t = self.toks[self.pos]
        found = "end of input" if t[0] == _END else f"'{t[1]}'"
        return ParseError(f"{message}, found {found}", t[2:])

    def guarded(self, rule):
        """Apply a grammar rule, reporting Python stack exhaustion as a
        parse error at the token reached."""
        try:
            return rule()
        except RecursionError as e:
            raise ParseError(f"{_nested(e.__traceback__)} nested too deeply",
                             self.span()) from None

    def advance(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def check(self, kind: str, k: int = 0) -> bool:
        return self.toks[self.pos + k][0] == kind

    def check_punct(self, text: str, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t[1] == text and t[0] == PUNCT

    def check_kw(self, text: str, k: int = 0) -> bool:
        t = self.toks[self.pos + k]
        return t[1] == text and t[0] == KEYWORD

    def expect_punct(self, text: str) -> tuple:
        t = self.toks[self.pos]
        if t[1] != text or t[0] != PUNCT:
            raise self.error(f"expected '{text}'")
        self.pos += 1
        return t

    def expect_kw(self, text: str) -> tuple:
        t = self.toks[self.pos]
        if t[1] != text or t[0] != KEYWORD:
            raise self.error(f"expected '{text}'")
        self.pos += 1
        return t

    def expect_ident(self) -> tuple:
        t = self.toks[self.pos]
        if t[0] != IDENT:
            raise self.error("expected identifier")
        self.pos += 1
        return t

    def take_at(self) -> int:
        if self.check(AT):
            return len(self.advance()[1])
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
        if t[0] == KEYWORD and t[1] in _TYPE_KEYWORDS:
            mark = self.pos
            try:
                rtype = self.parse_type()
                if self.check(IDENT) and self.check_punct("(", 1):
                    name_tok = self.advance()
                    self.advance()
                    params = self.parse_list(self.parse_param)
                    body = self.parse_block()
                    self._check_params(None, params)
                    return n.FunctionDef(name_tok[1], None, params, body,
                                         declared_return=rtype,
                                         span=name_tok[2:])
            except ParseError:
                pass
            self.pos = mark
        return self.parse_stmt()

    # -- declarations -------------------------------------------------------

    def parse_function(self) -> n.FunctionDef:
        kw = self.expect_kw("function")
        name = self.expect_ident()[1]
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
        return n.FunctionDef(name, static_params, params, body, span=kw[2:])

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
        return n.Param(name[1], dtype, span=name[2:])

    def parse_class(self) -> n.ClassDef:
        kw = self.expect_kw("class")
        name = self.expect_ident()[1]
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
                items.append(n.VisibilityLabel(tok[1], span=tok[2:]))
                continue
            # Constructor: ClassName [@...] ( )
            if self.check(IDENT) and self.peek()[1] == name:
                after = 1
                at = 0
                if self.check(AT, k=1):
                    at = len(self.peek(1)[1])
                    after = 2
                if self.check_punct("(", after) and self.check_punct(")", after + 1):
                    tok = self.advance()
                    self.pos += after + 1
                    body = self.parse_block()
                    if at >= 1:
                        n_static_ctor += 1
                    else:
                        n_dynamic_ctor += 1
                    items.append(n.CtorDef(at, body, span=tok[2:]))
                    continue
            items.append(self.parse_var_decl())
        self.advance()
        if n_static_ctor > 1 or n_dynamic_ctor > 1:
            raise ParseError(
                f"class '{name}' may have at most one static and one "
                "dynamic constructor", kw[2:])
        return n.ClassDef(name, static_params, items, span=kw[2:])

    # -- types --------------------------------------------------------------

    def parse_type(self) -> n.TypeExpr:
        start = self.span()
        const_count = 0
        while self.check_kw("const"):
            self.advance()
            const_count += 1
        t = self.peek()
        if t[0] == KEYWORD and t[1] in _TYPE_KEYWORDS:
            self.advance()
            name = t[1]
            if name == "long":
                self.expect_kw("int")
                name = "long int"
            base: n.TypeExpr = n.PrimType(name, self.take_at() + const_count,
                                          span=start)
        elif t[0] == IDENT:
            self.advance()
            at = self.take_at()
            if self.check_punct("("):
                self.advance()
                args = self.parse_list(self.parse_expr)
                base = n.ClassAppType(t[1], args, ctime=at >= 1, span=start)
            else:
                base = n.NamedType(t[1], at + const_count, span=start)
        else:
            raise self.error("expected a type")
        while self.check_punct("*"):
            self.advance()
            base = n.PointerType(base, span=start)
        return base

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> n.Block:
        toks = self.toks
        start = toks[self.pos][2:]
        self.expect_punct("{")
        stmts = []
        while True:
            t = toks[self.pos]
            if t[1] == "}" and t[0] == PUNCT:
                break
            if t[0] == _END:
                raise self.error("expected '}'")
            stmts.append(self.parse_stmt())
        self.pos += 1
        return n.Block(stmts, span=start)

    def parse_stmt(self) -> n.Stmt:
        t = self.toks[self.pos]
        kind = t[0]
        if kind == KEYWORD:
            text = t[1]
            if text == "return":
                self.pos += 1
                value = None
                if not self.check_punct(";"):
                    value = self.parse_expr()
                self.expect_punct(";")
                return n.Return(value, span=t[2:])
            if text == "if":
                return self.parse_if()
            if text == "for":
                return self.parse_for()
            if text == "switch":
                return self.parse_switch()
        elif kind == PUNCT and t[1] == "{":
            return self.parse_block()
        return self.parse_decl_or_simple(True)

    def parse_decl_or_simple(self, consume_semi: bool) -> n.Stmt:
        """A declaration when one parses here, else a simple statement."""
        toks = self.toks
        pos = self.pos
        t = toks[pos]
        if t[0] == KEYWORD:
            if t[1] in _TYPE_KEYWORDS or t[1] == "static":
                return self.parse_var_decl(consume_semi)
        elif t[0] == IDENT:
            # After the identifier a type can go on only with '@', '(',
            # '*' or the declared name; anything else is not worth a
            # tentative parse.
            after = toks[pos + 1]
            kind = after[0]
            if kind == IDENT or kind == AT or kind == PUNCT and \
                    (after[1] == "(" or after[1] == "*"):
                try:
                    dtype = self.parse_type()
                    if toks[self.pos][0] == IDENT:
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
            if t[1] == "[" and t[0] == PUNCT:
                self.pos += 1
                size = self.parse_expr()
                self.expect_punct("]")
                t = toks[self.pos]
            init = None
            if t[1] == "=" and t[0] == PUNCT:
                self.pos += 1
                init = self.parse_expr()
                t = toks[self.pos]
            declarators.append(n.Declarator(name[1], size, init,
                                            span=name[2:]))
            if t[1] != "," or t[0] != PUNCT:
                break
            self.pos += 1
        if consume_semi:
            self.expect_punct(";")
        return n.VarDecl(dtype, declarators, static_kw,
                         span=declarators[0].span)

    def parse_simple_stmt(self, consume_semi: bool) -> n.Stmt:
        toks = self.toks
        start = toks[self.pos][2:]
        expr = self.parse_expr()
        stmt: n.Stmt
        t = toks[self.pos]
        if t[1] in _ASSIGN_OPS and t[0] == PUNCT:
            self.pos += 1
            if not isinstance(expr, (n.VarRef, n.Subscript)):
                raise ParseError("invalid assignment target", start)
            stmt = n.Assign(expr, t[1], self.parse_expr())
        else:
            stmt = n.ExprStmt(expr)
        stmt.span = start
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
        return n.If(cond, then_stmt, else_stmt, at, else_at, span=tok[2:])

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
        return n.For(init, cond, incr, body, at, span=tok[2:])

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
                                          span=ctok[2:]))
            elif self.check_kw("default"):
                ctok = self.advance()
                self.expect_punct(":")
                cases.append(n.SwitchCase(None, self.parse_case_body(),
                                          span=ctok[2:]))
            else:
                raise self.error("expected 'case' or 'default'")
        self.advance()
        return n.Switch(subject, cases, at, span=tok[2:])

    def parse_case_label(self) -> n.Expr:
        t = self.peek()
        if t[0] == KEYWORD and t[1] in _TYPE_KEYWORDS and t[1] != "const":
            return n.TypeLit(self.parse_type(), span=t[2:])
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
        kind = t[0]
        if kind == IDENT or kind == INT:
            after = toks[pos + 1]
            if after[1] in _LEAF_END and after[0] == PUNCT:
                self.pos = pos + 1
                leaf = n.VarRef(t[1]) if kind == IDENT else n.IntLit(int(t[1]))
                leaf.span = t[2:]
                return leaf
        expr = self.parse_unary()
        t = toks[self.pos]
        if t[1] in _BINARY_PRECEDENCE and t[0] == PUNCT:
            expr = self.parse_binary(expr, 1)
            t = toks[self.pos]
        if t[1] == "?" and t[0] == PUNCT:
            self.pos += 1
            then_e = self.parse_expr()
            self.expect_punct(":")
            else_e = self.parse_expr()
            return n.Cond(expr, then_e, else_e, span=t[2:])
        return expr

    def parse_binary(self, lhs: n.Expr, min_prec: int) -> n.Expr:
        """``lhs`` joined with the operands after it by binary operators of
        precedence >= min_prec."""
        toks = self.toks
        op = toks[self.pos]
        prec = _BINARY_PRECEDENCE.get(op[1], 0)
        while prec >= min_prec and op[0] == PUNCT:
            self.pos += 1
            lhs = n.Binary(op[1], lhs,
                           self.parse_binary(self.parse_unary(), prec + 1))
            lhs.span = op[2:]
            op = toks[self.pos]
            prec = _BINARY_PRECEDENCE.get(op[1], 0)
        return lhs

    def parse_unary(self) -> n.Expr:
        toks = self.toks
        t = toks[self.pos]
        kind = t[0]
        if kind == IDENT:
            self.pos += 1
            after = toks[self.pos]
            if after[1] == "(" and after[0] == PUNCT:
                expr = self.parse_call(t, 0)
            elif after[0] == AT and self.check_punct("(", 1):
                self.pos += 1
                expr = self.parse_call(t, len(after[1]))
            else:
                expr = n.VarRef(t[1])
                expr.span = t[2:]
        elif kind == INT:
            self.pos += 1
            expr = n.IntLit(int(t[1]))
            expr.span = t[2:]
        elif kind == PUNCT:
            text = t[1]
            if text == "(":
                self.pos += 1
                expr = self.parse_expr()
                self.expect_punct(")")
            elif text == "!" or text == "-":
                self.pos += 1
                return n.Unary(text, self.parse_unary(), span=t[2:])
            elif text == "++" or text == "--":
                self.pos += 1
                return n.Incr(text, self.parse_unary(), span=t[2:])
            else:
                raise self.error("expected an expression")
        else:
            expr = self.parse_primary()
        pos = self.pos
        t = toks[pos]
        while t[1] == "[" and t[0] == PUNCT:
            index = toks[pos + 1]
            if index[0] == INT and toks[pos + 2][1] == "]" and \
                    toks[pos + 2][0] == PUNCT:
                # ``a[<integer>]``, the residuals' own subscript
                leaf = n.IntLit(int(index[1]))
                leaf.span = index[2:]
                expr = n.Subscript(expr, leaf)
                self.pos = pos = pos + 3
            else:
                self.pos = pos + 1
                expr = n.Subscript(expr, self.parse_expr())
                self.expect_punct("]")
                pos = self.pos
            expr.span = t[2:]
            t = toks[pos]
        return expr

    def parse_call(self, name: tuple, at: int) -> n.Call:
        """The call of ``name`` whose argument list starts here."""
        args = self.parse_call_args()
        if at == 0 and self.check_punct("("):
            dyn_args = self.parse_call_args()
            return n.Call(name[1], dyn_args, static_args=args,
                          span=name[2:])
        return n.Call(name[1], args, at_count=at, span=name[2:])

    def parse_call_args(self) -> list:
        self.expect_punct("(")
        return self.parse_list(self.parse_expr)

    def parse_primary(self) -> n.Expr:
        """The leaves ``parse_unary`` does not build itself."""
        t = self.peek()
        kind = t[0]
        if kind == FLOAT:
            self.advance()
            return n.FloatLit(float(t[1]), span=t[2:])
        if kind == STRING:
            self.advance()
            return n.StringLit(t[1], span=t[2:])
        if kind == KEYWORD and t[1] in ("true", "false"):
            self.advance()
            return n.BoolLit(t[1] == "true", span=t[2:])
        if kind == KEYWORD and t[1] in _TYPE_KEYWORDS and t[1] != "const":
            return n.TypeLit(self.parse_type(), span=t[2:])
        raise self.error("expected an expression")


def parse(source: str) -> n.Program:
    """Parse Catat source text into a Program AST."""
    return parse_tokens(tokenize(source), source)


def parse_tokens(tokens: list, source: str) -> n.Program:
    """Parse a program from the tokens ``tokenize`` returned for
    ``source``."""
    p = _Parser(tokens, source)
    return p.guarded(p.parse_program)


def parse_expression(source: str) -> n.Expr:
    """Parse a single expression (testing and tooling convenience)."""
    p = _Parser(tokenize(source), source)
    expr = p.guarded(p.parse_expr)
    if not p.at_end():
        raise p.error("unexpected tokens after expression")
    return expr
