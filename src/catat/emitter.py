"""Deterministic pretty-printer for Catat ASTs.

``parse(emit(p))`` is structurally equal to ``p`` for every well-formed
program, annotation counts included.  Two emits of the same AST are
byte-identical.  Residual programs (which carry no annotations) therefore
emit with zero ``@`` characters and re-enter the toolchain as single-level
input.

The writer dispatches on the node's exact class, through ``_STMT`` and
``_EXPR``.  A statement handler appends its lines to ``lines``, each
prefixed with ``pad``, the indent precomputed as a string.  An expression
handler takes the precedence its parent asks for and returns finished
text: it parenthesizes itself when it binds more loosely.  Literals, names,
subscripts and calls bind tightest and are never parenthesized.

``assign``, ``binary`` and the declarator initializers of ``var_decl_text``
read a ``VarRef``, an ``IntLit`` or an ``a[<int literal>]`` operand
themselves, without dispatching it, and ``subscript`` reads a ``VarRef``
base and a ``VarRef`` or ``IntLit`` index.  These are the operands an
unrolled residual is made of (``acc += a[3] * b[3];``): a dispatch per
leaf, and a ``(text, precedence)`` pair per node, were most of what the
emitter cost on large residuals.  The text is the same as a dispatch
would give, so ``compress``, which sizes units by the text of
``emit_expr`` and ``emit_stmt``, decides as before.
"""

from __future__ import annotations

import sys

from . import nodes as n
from .errors import DepthExceeded
from .staticeval import raise_recursion_limit

_PREC = {
    "||": 3, "&&": 4,
    "==": 5, "!=": 5,
    "<": 6, ">": 6, "<=": 6, ">=": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "%": 8,
}
_UNARY_PREC = 9
_POSTFIX_PREC = 10
_COND_PREC = 2


def emit(program) -> str:
    """Render a Program, or a residual program, as source.

    A residual program's ``comments`` map unit names to provenance text,
    printed as ``// <text>`` immediately above the unit.
    """
    comments = {}
    if hasattr(program, "to_program_ast"):
        comments = program.comments
        program = program.to_program_ast()
    # the writer recurses once per operator, as the stage checker does
    old_limit = raise_recursion_limit()
    try:
        w = _Writer(comments)
        w.program(program)
        return w.text()
    except RecursionError:
        raise DepthExceeded("expression nested too deeply for the emitter's "
                            "stack") from None
    finally:
        sys.setrecursionlimit(old_limit)


def emit_function(fn: n.FunctionDef) -> str:
    w = _Writer({})
    w.function(fn)
    return w.text()


def emit_stmt(stmt: n.Stmt) -> str:
    w = _Writer({})
    w.stmt(stmt)
    return w.text()


def emit_expr(expr: n.Expr) -> str:
    return _Writer({}).expr(expr, 0)


class _Writer:
    def __init__(self, comments: dict):
        self.lines: list[str] = []
        self.pad = ""  # the indent of the next line
        self.comments = comments

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def line(self, s: str) -> None:
        self.lines.append(self.pad + s if s else "")

    def indented(self, stmts: list) -> None:
        """Write ``stmts`` one level deeper."""
        pad = self.pad
        self.pad = pad + "    "
        for s in stmts:
            handler = _STMT.get(s.__class__)
            if handler is None:
                raise TypeError(f"unknown statement node {s!r}")
            handler(self, s)
        self.pad = pad

    # -- program ------------------------------------------------------------

    def program(self, p: n.Program) -> None:
        for i, item in enumerate(p.items):
            is_def = isinstance(item, (n.FunctionDef, n.ClassDef))
            if i > 0 and (is_def or isinstance(p.items[i - 1],
                                               (n.FunctionDef, n.ClassDef))):
                self.line("")
            if is_def and item.name in self.comments:
                self.line(f"// {self.comments[item.name]}")
            if isinstance(item, n.FunctionDef):
                self.function(item)
            elif isinstance(item, n.ClassDef):
                self.classdef(item)
            else:
                self.stmt(item)

    def function(self, fn: n.FunctionDef) -> None:
        params = ", ".join(self.param(p) for p in fn.params)
        if fn.declared_return is not None:
            head = f"{self.type(fn.declared_return)} {fn.name}({params})"
        elif fn.static_params is not None:
            sparams = ", ".join(self.param(p) for p in fn.static_params)
            head = f"function {fn.name}({sparams})({params})"
        else:
            head = f"function {fn.name}({params})"
        self.line(head + " {")
        self.indented(fn.body.stmts)
        self.line("}")

    def classdef(self, cls: n.ClassDef) -> None:
        if cls.static_params:
            params = ", ".join(self.param(p) for p in cls.static_params)
            self.line(f"class {cls.name}({params}) {{")
        else:
            self.line(f"class {cls.name} {{")
        pad = self.pad
        for item in cls.items:
            if isinstance(item, n.VisibilityLabel):
                self.line(f"{item.name}:")
                continue
            self.pad = pad + "    "
            if isinstance(item, n.CtorDef):
                self.line(f"{cls.name}{'@' * item.at_count}() {{")
                self.indented(item.body.stmts)
                self.line("}")
            else:
                self.stmt(item)
            self.pad = pad
        self.line("}")

    def param(self, p: n.Param) -> str:
        if isinstance(p.dtype, n.ArrayType):
            return (f"{self.type(p.dtype.base)} {p.name}"
                    f"[{self.expr(p.dtype.size, 0)}]")
        return f"{self.type(p.dtype)} {p.name}"

    # -- types --------------------------------------------------------------

    def type(self, t: n.TypeExpr) -> str:
        if isinstance(t, n.PrimType):
            return t.name + "@" * t.at_count
        if isinstance(t, n.NamedType):
            return t.name + "@" * t.at_count
        if isinstance(t, n.ClassAppType):
            args = ", ".join(self.expr(a, 0) for a in t.args)
            return f"{t.name}{'@' if t.ctime else ''}({args})"
        if isinstance(t, n.PointerType):
            return self.type(t.base) + "*"
        if isinstance(t, n.ArrayType):
            return f"{self.type(t.base)}[{self.expr(t.size, 0)}]"
        raise TypeError(f"unknown type node {t!r}")

    # -- statements ---------------------------------------------------------

    def stmt(self, s: n.Stmt) -> None:
        handler = _STMT.get(s.__class__)
        if handler is None:
            raise TypeError(f"unknown statement node {s!r}")
        handler(self, s)

    def var_decl(self, s: n.VarDecl) -> None:
        self.lines.append(f"{self.pad}{self.var_decl_text(s)};")

    def assign(self, s: n.Assign) -> None:
        target, value = s.target, s.value
        cls = target.__class__
        if cls is n.VarRef:
            lhs = target.name
        elif cls is n.Subscript and target.base.__class__ is n.VarRef \
                and target.index.__class__ is n.IntLit:
            lhs = f"{target.base.name}[{target.index.value}]"
        else:
            lhs = self.expr(target, 0)
        cls = value.__class__
        if cls is n.VarRef:
            rhs = value.name
        elif cls is n.IntLit:
            rhs = str(value.value)
        elif cls is n.Subscript and value.base.__class__ is n.VarRef \
                and value.index.__class__ is n.IntLit:
            rhs = f"{value.base.name}[{value.index.value}]"
        else:
            rhs = self.expr(value, 0)
        self.lines.append(f"{self.pad}{lhs} {s.op} {rhs};")

    def expr_stmt(self, s: n.ExprStmt) -> None:
        self.lines.append(f"{self.pad}{self.expr(s.expr, 0)};")

    def return_stmt(self, s: n.Return) -> None:
        if s.value is None:
            self.lines.append(self.pad + "return;")
        else:
            self.lines.append(f"{self.pad}return {self.expr(s.value, 0)};")

    def block(self, s: n.Block) -> None:
        self.lines.append(self.pad + "{")
        self.indented(s.stmts)
        self.lines.append(self.pad + "}")

    def for_stmt(self, s: n.For) -> None:
        head = (f"for{'@' * s.at_count} ({self.clause(s.init)}; "
                f"{self.expr(s.cond, 0) if s.cond is not None else ''}; "
                f"{self.clause(s.incr)})")
        self.attach_body(head, s.body)

    def switch_stmt(self, s: n.Switch) -> None:
        self.line(f"switch{'@' * s.at_count} ({self.expr(s.subject, 0)}) {{")
        pad = self.pad
        self.pad = pad + "    "
        for case in s.cases:
            if case.label is None:
                self.line("default:")
            else:
                self.line(f"case {self.expr(case.label, 0)}:")
            self.indented(case.body)
        self.pad = pad
        self.line("}")

    def var_decl_text(self, s: n.VarDecl) -> str:
        parts = []
        for d in s.declarators:
            text = d.name
            if d.array_size is not None:
                text += f"[{self.expr(d.array_size, 0)}]"
            init = d.init
            if init is not None:
                cls = init.__class__
                if cls is n.VarRef:
                    text += " = " + init.name
                elif cls is n.IntLit:
                    text += f" = {init.value}"
                elif cls is n.Subscript and init.base.__class__ is n.VarRef \
                        and init.index.__class__ is n.IntLit:
                    text += f" = {init.base.name}[{init.index.value}]"
                else:
                    text += f" = {self.expr(init, 0)}"
            parts.append(text)
        prefix = "static " if s.static_kw else ""
        return f"{prefix}{self.type(s.dtype)} {', '.join(parts)}"

    def clause(self, s: n.Stmt | None) -> str:
        if s is None:
            return ""
        if isinstance(s, n.VarDecl):
            return self.var_decl_text(s)
        if isinstance(s, n.Assign):
            return f"{self.expr(s.target, 0)} {s.op} {self.expr(s.value, 0)}"
        if isinstance(s, n.ExprStmt):
            return self.expr(s.expr, 0)
        raise TypeError(f"bad for-clause {s!r}")

    def attach_body(self, head: str, body: n.Stmt) -> None:
        if isinstance(body, n.Block):
            self.line(head + " {")
            self.indented(body.stmts)
            self.line("}")
        else:
            self.line(head)
            self.indented((body,))

    def if_stmt(self, s: n.If) -> None:
        self.attach_body(f"if{'@' * s.at_count} ({self.expr(s.cond, 0)})",
                         s.then_stmt)
        if s.else_stmt is None:
            return
        else_head = f"else{'@' * s.else_at_count}"
        if isinstance(s.then_stmt, n.Block):
            self.lines.pop()  # the then-branch's "}" opens the else line
            else_head = "} " + else_head
        self.attach_body(else_head, s.else_stmt)

    # -- expressions ----------------------------------------------------------

    def expr(self, e: n.Expr, prec: int) -> str:
        handler = _EXPR.get(e.__class__)
        if handler is None:
            raise TypeError(f"unknown expression node {e!r}")
        return handler(self, e, prec)

    # A literal, a name, a subscript and a call bind tightest
    # (_POSTFIX_PREC), so they are never parenthesized and ignore ``prec``.

    def int_lit(self, e: n.IntLit, prec: int) -> str:
        return str(e.value)

    def float_lit(self, e: n.FloatLit, prec: int) -> str:
        # an infinity is spelt as a literal too large for a double, which
        # the lexer reads back as that infinity
        return repr(e.value).replace("inf", "1e999")

    def bool_lit(self, e: n.BoolLit, prec: int) -> str:
        return "true" if e.value else "false"

    def string_lit(self, e: n.StringLit, prec: int) -> str:
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"') \
                         .replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"'

    def type_lit(self, e: n.TypeLit, prec: int) -> str:
        return self.type(e.type_expr)

    def var_ref(self, e: n.VarRef, prec: int) -> str:
        return e.name

    def unary(self, e: n.Unary, prec: int) -> str:
        inner = self.expr(e.operand, _UNARY_PREC)
        if e.op == "-" and inner.startswith("-"):
            inner = " " + inner  # keep "- -x" from lexing as "--"
        if prec > _UNARY_PREC:
            return f"({e.op}{inner})"
        return e.op + inner

    def incr(self, e: n.Incr, prec: int) -> str:
        text = e.op + self.expr(e.target, _UNARY_PREC)
        return f"({text})" if prec > _UNARY_PREC else text

    def binary(self, e: n.Binary, prec: int) -> str:
        op = e.op
        own = _PREC[op]
        lhs, rhs = e.lhs, e.rhs
        cls = lhs.__class__
        if cls is n.VarRef:
            left = lhs.name
        elif cls is n.IntLit:
            left = str(lhs.value)
        elif cls is n.Subscript and lhs.base.__class__ is n.VarRef \
                and lhs.index.__class__ is n.IntLit:
            left = f"{lhs.base.name}[{lhs.index.value}]"
        else:
            left = self.expr(lhs, own)
        cls = rhs.__class__
        if cls is n.VarRef:
            right = rhs.name
        elif cls is n.IntLit:
            right = str(rhs.value)
        elif cls is n.Subscript and rhs.base.__class__ is n.VarRef \
                and rhs.index.__class__ is n.IntLit:
            right = f"{rhs.base.name}[{rhs.index.value}]"
        else:
            right = self.expr(rhs, own + 1)
        if own < prec:
            return f"({left} {op} {right})"
        return f"{left} {op} {right}"

    def cond(self, e: n.Cond, prec: int) -> str:
        text = (f"{self.expr(e.cond, _COND_PREC + 1)} ? "
                f"{self.expr(e.then_expr, 0)} : "
                f"{self.expr(e.else_expr, _COND_PREC)}")
        return f"({text})" if prec > _COND_PREC else text

    def subscript(self, e: n.Subscript, prec: int) -> str:
        base, index = e.base, e.index
        if base.__class__ is n.VarRef:
            base = base.name
        else:
            base = self.expr(base, _POSTFIX_PREC)
        if index.__class__ is n.IntLit:
            return f"{base}[{index.value}]"
        if index.__class__ is n.VarRef:
            return f"{base}[{index.name}]"
        return f"{base}[{self.expr(index, 0)}]"

    def call(self, e: n.Call, prec: int) -> str:
        args = ", ".join(self.expr(a, 0) for a in e.args)
        if e.static_args is not None:
            sargs = ", ".join(self.expr(a, 0) for a in e.static_args)
            return f"{e.callee}({sargs})({args})"
        return f"{e.callee}{'@' * e.at_count}({args})"


# Handlers by exact node class, as in ``staticeval``: a statement handler
# writes lines, an expression handler returns its text, parenthesized when
# it binds more loosely than the ``prec`` its parent asks for.
_STMT = {
    n.VarDecl: _Writer.var_decl,
    n.Assign: _Writer.assign,
    n.ExprStmt: _Writer.expr_stmt,
    n.Return: _Writer.return_stmt,
    n.Block: _Writer.block,
    n.If: _Writer.if_stmt,
    n.For: _Writer.for_stmt,
    n.Switch: _Writer.switch_stmt,
}

_EXPR = {
    n.IntLit: _Writer.int_lit,
    n.FloatLit: _Writer.float_lit,
    n.BoolLit: _Writer.bool_lit,
    n.StringLit: _Writer.string_lit,
    n.TypeLit: _Writer.type_lit,
    n.VarRef: _Writer.var_ref,
    n.Unary: _Writer.unary,
    n.Incr: _Writer.incr,
    n.Binary: _Writer.binary,
    n.Cond: _Writer.cond,
    n.Subscript: _Writer.subscript,
    n.Call: _Writer.call,
}
