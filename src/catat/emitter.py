"""Deterministic pretty-printer for Catat ASTs.

``parse(emit(p))`` is structurally equal to ``p`` for every well-formed
program, annotation counts included.  Two emits of the same AST are
byte-identical.  Residual programs (which carry no annotations) therefore
emit with zero ``@`` characters and re-enter the toolchain as single-level
input.
"""

from __future__ import annotations

from . import nodes as n

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
    w = _Writer(comments)
    w.program(program)
    return w.text()


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
        self.indent = 0
        self.comments = comments

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def line(self, s: str) -> None:
        self.lines.append("    " * self.indent + s if s else "")

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
        self.indent += 1
        for s in fn.body.stmts:
            self.stmt(s)
        self.indent -= 1
        self.line("}")

    def classdef(self, cls: n.ClassDef) -> None:
        if cls.static_params:
            params = ", ".join(self.param(p) for p in cls.static_params)
            self.line(f"class {cls.name}({params}) {{")
        else:
            self.line(f"class {cls.name} {{")
        for item in cls.items:
            if isinstance(item, n.VisibilityLabel):
                self.line(f"{item.name}:")
            elif isinstance(item, n.CtorDef):
                self.indent += 1
                self.line(f"{cls.name}{'@' * item.at_count}() {{")
                self.indent += 1
                for s in item.body.stmts:
                    self.stmt(s)
                self.indent -= 1
                self.line("}")
                self.indent -= 1
            else:
                self.indent += 1
                self.stmt(item)
                self.indent -= 1
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
        self.line(self.var_decl_text(s) + ";")

    def assign(self, s: n.Assign) -> None:
        self.line(f"{self.expr(s.target, 0)} {s.op} {self.expr(s.value, 0)};")

    def expr_stmt(self, s: n.ExprStmt) -> None:
        self.line(self.expr(s.expr, 0) + ";")

    def return_stmt(self, s: n.Return) -> None:
        if s.value is None:
            self.line("return;")
        else:
            self.line(f"return {self.expr(s.value, 0)};")

    def block(self, s: n.Block) -> None:
        self.line("{")
        self.indent += 1
        for sub in s.stmts:
            self.stmt(sub)
        self.indent -= 1
        self.line("}")

    def for_stmt(self, s: n.For) -> None:
        head = (f"for{'@' * s.at_count} ({self.clause(s.init)}; "
                f"{self.expr(s.cond, 0) if s.cond is not None else ''}; "
                f"{self.clause(s.incr)})")
        self.attach_body(head, s.body)

    def switch_stmt(self, s: n.Switch) -> None:
        self.line(f"switch{'@' * s.at_count} ({self.expr(s.subject, 0)}) {{")
        self.indent += 1
        for case in s.cases:
            if case.label is None:
                self.line("default:")
            else:
                self.line(f"case {self.expr(case.label, 0)}:")
            self.indent += 1
            for sub in case.body:
                self.stmt(sub)
            self.indent -= 1
        self.indent -= 1
        self.line("}")

    def var_decl_text(self, s: n.VarDecl) -> str:
        parts = []
        for d in s.declarators:
            text = d.name
            if d.array_size is not None:
                text += f"[{self.expr(d.array_size, 0)}]"
            if d.init is not None:
                text += f" = {self.expr(d.init, 0)}"
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
            self.indent += 1
            for sub in body.stmts:
                self.stmt(sub)
            self.indent -= 1
            self.line("}")
        else:
            self.line(head)
            self.indent += 1
            self.stmt(body)
            self.indent -= 1

    def if_stmt(self, s: n.If) -> None:
        head = f"if{'@' * s.at_count} ({self.expr(s.cond, 0)})"
        if isinstance(s.then_stmt, n.Block):
            self.line(head + " {")
            self.indent += 1
            for sub in s.then_stmt.stmts:
                self.stmt(sub)
            self.indent -= 1
            if s.else_stmt is None:
                self.line("}")
                return
            else_head = f"}} else{'@' * s.else_at_count}"
        else:
            self.line(head)
            self.indent += 1
            self.stmt(s.then_stmt)
            self.indent -= 1
            if s.else_stmt is None:
                return
            else_head = f"else{'@' * s.else_at_count}"
        if isinstance(s.else_stmt, n.Block):
            self.line(else_head + " {")
            self.indent += 1
            for sub in s.else_stmt.stmts:
                self.stmt(sub)
            self.indent -= 1
            self.line("}")
        else:
            self.line(else_head)
            self.indent += 1
            self.stmt(s.else_stmt)
            self.indent -= 1

    # -- expressions ----------------------------------------------------------

    def expr(self, e: n.Expr, parent_prec: int) -> str:
        handler = _EXPR.get(e.__class__)
        if handler is None:
            raise TypeError(f"unknown expression node {e!r}")
        text, prec = handler(self, e)
        if prec < parent_prec:
            return f"({text})"
        return text

    def int_lit(self, e: n.IntLit) -> tuple[str, int]:
        return str(e.value), _POSTFIX_PREC

    def float_lit(self, e: n.FloatLit) -> tuple[str, int]:
        return repr(e.value), _POSTFIX_PREC

    def bool_lit(self, e: n.BoolLit) -> tuple[str, int]:
        return ("true" if e.value else "false"), _POSTFIX_PREC

    def string_lit(self, e: n.StringLit) -> tuple[str, int]:
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"') \
                         .replace("\n", "\\n").replace("\t", "\\t")
        return f'"{escaped}"', _POSTFIX_PREC

    def type_lit(self, e: n.TypeLit) -> tuple[str, int]:
        return self.type(e.type_expr), _POSTFIX_PREC

    def var_ref(self, e: n.VarRef) -> tuple[str, int]:
        return e.name, _POSTFIX_PREC

    def unary(self, e: n.Unary) -> tuple[str, int]:
        inner = self.expr(e.operand, _UNARY_PREC)
        if e.op == "-" and inner.startswith("-"):
            inner = " " + inner  # keep "- -x" from lexing as "--"
        return f"{e.op}{inner}", _UNARY_PREC

    def incr(self, e: n.Incr) -> tuple[str, int]:
        return f"{e.op}{self.expr(e.target, _UNARY_PREC)}", _UNARY_PREC

    def binary(self, e: n.Binary) -> tuple[str, int]:
        prec = _PREC[e.op]
        lhs = self.expr(e.lhs, prec)
        rhs = self.expr(e.rhs, prec + 1)
        return f"{lhs} {e.op} {rhs}", prec

    def cond(self, e: n.Cond) -> tuple[str, int]:
        cond = self.expr(e.cond, _COND_PREC + 1)
        then_e = self.expr(e.then_expr, 0)
        else_e = self.expr(e.else_expr, _COND_PREC)
        return f"{cond} ? {then_e} : {else_e}", _COND_PREC

    def subscript(self, e: n.Subscript) -> tuple[str, int]:
        base = self.expr(e.base, _POSTFIX_PREC)
        return f"{base}[{self.expr(e.index, 0)}]", _POSTFIX_PREC

    def call(self, e: n.Call) -> tuple[str, int]:
        args = ", ".join(self.expr(a, 0) for a in e.args)
        if e.static_args is not None:
            sargs = ", ".join(self.expr(a, 0) for a in e.static_args)
            return f"{e.callee}({sargs})({args})", _POSTFIX_PREC
        return f"{e.callee}{'@' * e.at_count}({args})", _POSTFIX_PREC


# Handlers by exact node class, as in ``staticeval``: a statement handler
# writes lines, an expression handler returns its text and precedence.
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
