"""Transition compression: unfold the small units of a residual program.

Specialization keeps the call structure of the source: each residual call
names one unit, so a specialized interpreter is a chain of units that are
each called once.  A C++ compiler inlines the small instances it made;
``compress`` does the same after specialization, as ``mix``'s transition
compression does (Jones, Gomard & Sestoft 1993, ch. 4).  It unfolds a
function unit into its callers when the unit has one call site, or when
its body is one ``return e`` no larger than the call, and drops the units
that nothing calls any more.

The specializer counts every residual call as it names its callee
(``specializer.CallSites``), so the pass finds its candidates without a
walk.  It works top down, from the callers: units complete callees first,
so in reverse order of completion every caller of a unit comes before it,
and an unfolded body is rebuilt once, where it lands.  Each unit's body is
walked once (``_Compressor.body``), and only the statements that hold a
call, or that a renaming touches, are rebuilt.  The pass infers no types:
the name supply of the unit being compressed is seeded with the types its
names were drawn with (``ResidualFunction.types``), each hoisted local is
drawn from it with its type, and an expression is typed with the
specializer's ``residual_type``.  A rebuilt unit keeps that supply's
types.
"""

from __future__ import annotations

from dataclasses import replace

from . import nodes as n
from .emitter import emit_expr, emit_stmt
from .errors import TypeMismatch
from .flatten import NameSupply, type_value_to_decl
from .specializer import (
    CallSites, ResidualFunction, ResidualProgram, residual_type,
)
from .values import SCALAR_CELLS, TYPENAME


_LITERALS = (n.IntLit, n.FloatLit, n.BoolLit)
# the types of a parameter that may be bound to a fresh local
_BINDABLE = SCALAR_CELLS - {TYPENAME}


def _live(stmts: list) -> list:
    """``stmts`` up to and including its first ``return``."""
    for i, s in enumerate(stmts):
        if s.__class__ is n.Return:
            return stmts if i == len(stmts) - 1 else stmts[:i + 1]
    return stmts


def _text(e: n.Expr) -> str:
    """The emitted text of a variable or a literal."""
    return e.name if e.__class__ is n.VarRef else emit_expr(e)


def _calls_or_reads(e: n.Expr, name: str) -> bool:
    """Whether ``e`` makes a call or reads ``name``."""
    cls = e.__class__
    if cls is n.VarRef:
        return e.name == name
    if cls is n.Call:
        return True
    return cls not in _LITERALS and \
        any(_calls_or_reads(c, name) for c in n.children(e))


class _Body:
    """What unfolding needs to know of a function unit's body, from one
    walk of it."""

    returns = 0
    free: set = frozenset()  # the globals it uses
    value: n.Expr | None = None  # of its one, last, top-level return
    size: int | None = None  # nodes in ``value`` if that return is all
    text: int | None = None  # and the emitted length of ``value``

    def __init__(self, unit: ResidualFunction):
        self.unit = unit
        self.stmts: list = []  # the live top-level statements
        self.hot: set = set()  # ids of the nodes to rebuild
        self.locals: dict = {}  # declared name -> its type in ``unit.types``
        self.assigned: set = set()  # names assigned or stepped
        self.calls: list = []  # the callee of each call
        self.refs: dict = {}  # name -> occurrences
        self.top: set = set()  # the locals its top-level statements declare


class _Frame:
    """The body being rebuilt and the residual expression of each of its
    parameters and locals that changes; none for the unit being
    compressed."""

    __slots__ = ("body", "rename", "identity")

    def __init__(self, body: _Body, rename: dict):
        self.body = body
        self.rename = rename
        self.identity = not rename

    def name(self, name: str) -> str:
        new = self.rename.get(name)
        return name if new is None else new.name


class _Compressor:
    def __init__(self, rp: ResidualProgram, sites: CallSites):
        self.rp = rp
        self.counts = dict(sites.count)
        self.units = {u.name: u for u in rp.units
                      if isinstance(u, ResidualFunction)}
        self.globals = {d.name for s in rp.top_stmts
                        if s.__class__ is n.VarDecl for d in s.declarators}
        self.entry = rp.entry_name
        self.cyclic = sites.cyclic
        self.bodies: dict[str, _Body] = {}
        self.absorbed: set = set()  # unfolded where it was called
        self.dead: set = set()  # called only from dropped statements
        # the unit being compressed
        self.params: set = set()
        self.supply = NameSupply()

    def run(self) -> ResidualProgram:
        rp = self.rp
        kept = []
        for u in reversed(rp.units):
            name = u.name
            if isinstance(u, ResidualFunction):
                if name in self.absorbed or name in self.dead:
                    continue
                u = self.compress_unit(u)
            kept.append(u)
        kept.reverse()
        return ResidualProgram(kept, rp.top_stmts, rp.entry_name,
                               rp.static_bindings)

    def release(self, callees) -> None:
        """Forget calls of ``callees`` that no longer happen.  A unit that
        nothing calls any more is dead, and so are its own calls."""
        counts = self.counts
        for callee in callees:
            count = counts.get(callee)
            if count is None:
                continue
            counts[callee] = count - 1
            if count == 1 and callee != self.entry and \
                    callee not in self.absorbed and callee in self.units:
                self.dead.add(callee)
                self.release(self.body(self.units[callee]).calls)

    # -- what a body holds -----------------------------------------------------

    def body(self, u: ResidualFunction) -> _Body:
        """The body of ``u``, walked once: the statements that follow a
        ``return`` in any block are dropped, and their calls forgotten."""
        body = self.bodies.get(u.name)
        if body is not None:
            return body
        body = self.bodies[u.name] = _Body(u)
        refs, hot, locals_ = body.refs, body.hot, body.locals
        assigned, calls, types = body.assigned, body.calls, u.types
        returns = 0

        def scan(x: n.Node) -> bool:
            """Record what ``x`` declares, assigns, uses and calls; True if
            it holds a call or dead statements, which marks it hot."""
            nonlocal returns
            cls = x.__class__
            if cls is n.VarRef:
                refs[x.name] = refs.get(x.name, 0) + 1
                return False
            if cls in _LITERALS:
                return False
            if cls is n.Call:
                calls.append(x.callee)
                for a in x.args:
                    scan(a)
                hot.add(id(x))
                return True
            held = False
            if cls is n.VarDecl:
                for d in x.declarators:
                    locals_[d.name] = types[d.name]
                    refs[d.name] = refs.get(d.name, 0) + 1
                    if d.init is not None and scan(d.init):
                        held = True
            elif cls is n.Return:
                returns += 1
                held = x.value is not None and scan(x.value)
            else:
                if (cls is n.Assign or cls is n.Incr) and \
                        x.target.__class__ is n.VarRef:
                    assigned.add(x.target.name)
                for name in n.child_fields(cls):
                    v = getattr(x, name)
                    if v.__class__ is list:
                        if cls is n.Block or cls is n.SwitchCase:
                            live = _live(v)
                            if live is not v:
                                held = True
                                self.release_dead(v[len(live):])
                                v = live
                        for c in v:
                            if scan(c):
                                held = True
                    elif isinstance(v, n.Node) and \
                            not isinstance(v, n.TypeExpr) and scan(v):
                        held = True
            if held:
                hot.add(id(x))
            return held

        stmts = u.body
        for i, s in enumerate(stmts):
            scan(s)
            if s.__class__ is n.VarDecl:
                for d in s.declarators:
                    body.top.add(d.name)
            elif s.__class__ is n.Return:
                if i + 1 < len(stmts):
                    self.release_dead(stmts[i + 1:])
                    stmts = stmts[:i + 1]
                break
        body.stmts = stmts
        body.returns = returns
        last = stmts[-1] if stmts else None
        if returns == 1 and last.__class__ is n.Return and \
                last.value is not None:
            body.value = last.value
        if self.globals:
            params = {p for p, _ in u.params}
            body.free = {x for x in refs
                         if x not in locals_ and x not in params}
        return body

    def release_dead(self, stmts: list) -> None:
        """Forget the calls of statements that follow a ``return``."""
        self.release(x.callee for s in stmts for x in n.walk(s)
                     if x.__class__ is n.Call)

    # -- one unit ----------------------------------------------------------------

    def compress_unit(self, u: ResidualFunction) -> ResidualFunction:
        body = self.body(u)
        self.params = {p for p, _ in u.params}
        self.supply = NameSupply(u.types)
        frame = _Frame(body, {})
        out: list = []
        for s in body.stmts:
            self.stmt(s, frame, out, 1, False)
        if out and out[-1].__class__ is n.Return:
            ret = out.pop()
            value = self.forward(ret.value, out, 0)
            out.append(ret if value is ret.value
                       else n.Return(value, span=ret.span))
        if len(out) == len(u.body) and all(a is b for a, b in zip(out, u.body)):
            return u
        return replace(u, body=out, types=self.supply.types)

    def forward(self, value: n.Expr | None, out: list,
                start: int) -> n.Expr | None:
        """``e`` for ``value`` if ``value`` reads the local that the last
        statement of ``out[start:]``, ``T v = e;``, declares, and ``e`` makes
        no call and always has type T.  That declaration is dropped."""
        if value.__class__ is not n.VarRef or len(out) <= start:
            return value
        decl = out[-1]
        if decl.__class__ is not n.VarDecl or len(decl.declarators) != 1:
            return value
        d = decl.declarators[0]
        if d.name != value.name or d.array_size is not None or d.init is None:
            return value
        types = self.supply.types
        if residual_type(d.init, types, exact=True) != types[d.name] or \
                _calls_or_reads(d.init, d.name):
            return value
        out.pop()
        return d.init

    # -- statements --------------------------------------------------------------

    def stmt(self, s: n.Stmt, frame: _Frame, out: list, depth: int,
             bare: bool) -> None:
        """Rebuild ``s`` into ``out``, unfolding the calls it makes where
        they may be.  ``depth`` is its indentation and ``bare`` says it is
        the body of an ``if`` or ``for`` without braces."""
        if frame.identity and id(s) not in frame.body.hot:
            out.append(s)
            return
        cls = s.__class__
        if cls is n.VarDecl:
            decls = s.declarators
            if len(decls) == 1 and decls[0].array_size is None and \
                    decls[0].init is not None:
                d = decls[0]
                name = frame.name(d.name)
                self.site(self.expr(d.init, frame, True),
                          lambda e: n.VarDecl(
                              s.dtype, [n.Declarator(name, None, e,
                                                     span=d.span)],
                              s.static_kw, span=s.span),
                          out, depth, bare, (name, self.supply.types[name]))
                return
            out.append(self.decl(s, frame))
        elif cls is n.Assign:
            target = self.expr(s.target, frame)
            self.site(self.expr(s.value, frame, True),
                      lambda e: n.Assign(target, s.op, e, span=s.span),
                      out, depth, bare)
        elif cls is n.ExprStmt:
            self.site(self.expr(s.expr, frame, True),
                      lambda e: None if e.__class__ is n.VarRef or
                      e.__class__ in _LITERALS else n.ExprStmt(e, span=s.span),
                      out, depth, bare)
        elif cls is n.Return:
            if s.value is None:
                out.append(s)
                return
            self.site(self.expr(s.value, frame, True),
                      lambda e: n.Return(e, span=s.span), out, depth, bare)
        elif cls is n.Block:
            out.append(n.Block(self.block(s.stmts, frame, depth + 1),
                               span=s.span))
        elif cls is n.If:
            cond = self.expr(s.cond, frame)
            then = self.sub(s.then_stmt, frame, depth + 1)
            other = None if s.else_stmt is None \
                else self.sub(s.else_stmt, frame, depth + 1)
            out.append(n.If(cond, then, other, s.at_count, s.else_at_count,
                            span=s.span))
        elif cls is n.For:
            init = None if s.init is None else self.clause(s.init, frame)
            cond = None if s.cond is None else self.expr(s.cond, frame)
            incr = None if s.incr is None else self.clause(s.incr, frame)
            out.append(n.For(init, cond, incr,
                             self.sub(s.body, frame, depth + 1),
                             s.at_count, span=s.span))
        elif cls is n.Switch:
            cases = [n.SwitchCase(
                None if c.label is None else self.expr(c.label, frame),
                self.block(c.body, frame, depth + 2), span=c.span)
                for c in s.cases]
            out.append(n.Switch(self.expr(s.subject, frame), cases,
                                s.at_count, span=s.span))
        else:
            raise TypeMismatch(f"cannot compress {cls.__name__}", s.span)

    def block(self, stmts: list, frame: _Frame, depth: int) -> list:
        out: list = []
        for s in _live(stmts):
            self.stmt(s, frame, out, depth, False)
        return out

    def sub(self, s: n.Stmt, frame: _Frame, depth: int) -> n.Stmt:
        """The body of an ``if`` or ``for``: braced once it holds more than
        one statement."""
        out: list = []
        self.stmt(s, frame, out, depth, s.__class__ is not n.Block)
        return out[0] if len(out) == 1 else n.Block(out)

    def clause(self, s: n.Stmt, frame: _Frame) -> n.Stmt:
        """A ``for`` clause, whose calls are never hoisted."""
        if frame.identity and id(s) not in frame.body.hot:
            return s
        if s.__class__ is n.VarDecl:
            return self.decl(s, frame)
        if s.__class__ is n.Assign:
            return n.Assign(self.expr(s.target, frame), s.op,
                            self.expr(s.value, frame), span=s.span)
        return n.ExprStmt(self.expr(s.expr, frame), span=s.span)

    def decl(self, s: n.VarDecl, frame: _Frame) -> n.VarDecl:
        return n.VarDecl(s.dtype, [
            n.Declarator(frame.name(d.name),
                         None if d.array_size is None
                         else self.expr(d.array_size, frame),
                         None if d.init is None else self.expr(d.init, frame),
                         span=d.span)
            for d in s.declarators], s.static_kw, span=s.span)

    def expr(self, e: n.Expr, frame: _Frame, top: bool = False) -> n.Expr:
        """Rebuild ``e``, splicing the calls it makes where they may be.
        A ``top`` call is left to the statement it is the whole value of."""
        if frame.identity and id(e) not in frame.body.hot:
            return e
        cls = e.__class__
        if cls is n.VarRef:
            return frame.rename.get(e.name, e)
        if cls is n.Call:
            call = n.Call(e.callee, [self.expr(a, frame) for a in e.args],
                          span=e.span)
            if top:
                return call
            body = self.candidate(call.callee)
            if body is not None:
                plan = self.plan(body, call.args)
                if plan is not None:
                    spliced = self.splice(call, body, plan)
                    if spliced is not None:
                        return spliced
            return call
        if cls in _LITERALS or not isinstance(e, n.Expr):
            return e
        return n.map_children(e, lambda c: self.expr(c, frame))

    # -- unfolding ---------------------------------------------------------------

    def site(self, value: n.Expr, make, out: list, depth: int, bare: bool,
             into: tuple | None = None) -> None:
        """Append ``make(value)``, the statement whose whole value is
        ``value``, unfolding ``value`` first if it is a call that may be.
        ``into`` is the name and type value of the variable the statement
        declares, if it is a declaration."""
        if value.__class__ is n.Call and \
                self.unfold(value, make, out, depth, bare, into):
            return
        stmt = make(value)
        if stmt is not None:
            out.append(stmt)

    def candidate(self, name: str) -> _Body | None:
        """The body of unit ``name`` if a call of it may be unfolded
        into the unit being compressed: a function unit, not the entry,
        not on a cycle, whose one ``return`` ends its body, and that reads
        no global a parameter of this unit hides."""
        unit = self.units.get(name)
        if unit is None or name == self.entry or name in self.cyclic:
            return None
        body = self.bodies.get(name) or self.body(unit)
        if body.value is None or \
                (body.free and not body.free.isdisjoint(self.params)):
            return None
        return body

    def plan(self, body: _Body, args: list):
        """Which arguments replace their parameters, and which parameters
        are bound to a fresh local first, in order; None if one cannot be.
        An argument replaces its parameter if it is a variable or a literal
        of the parameter's type, the callee never assigns the parameter,
        and neither the callee nor another argument may change it."""
        params = body.unit.params
        if len(params) != len(args):
            return None
        types, assigned = self.supply.types, body.assigned
        substitute, bound = {}, []
        for (p, tv), a in zip(params, args):
            cls = a.__class__
            t = residual_type(a, types) \
                if cls is n.VarRef or cls in _LITERALS else None
            if t is not None and (t is tv or t == tv) and p not in assigned:
                substitute[p] = a
            elif tv in _BINDABLE:
                bound.append((p, tv, a))
            else:
                return None
        if not (bound or self.globals):
            return substitute, bound
        stepped: set = set()
        calls = bool(body.calls)
        for _, _, a in bound:
            for x in n.walk(a):
                if x.__class__ is n.Call:
                    calls = True
                elif x.__class__ is n.Incr and x.target.__class__ is n.VarRef:
                    stepped.add(x.target.name)
        changed = [p for p, a in substitute.items() if a.__class__ is n.VarRef
                   and (a.name in stepped or (
                       a.name in self.globals and a.name not in self.params
                       and (calls or a.name in assigned)))]
        if not changed:
            return substitute, bound
        for p in changed:
            del substitute[p]
        bound = [(p, tv, a) for (p, tv), a in zip(params, args)
                 if p not in substitute]
        if any(tv not in _BINDABLE for _, tv, _ in bound):
            return None
        return substitute, bound

    def consume(self, name: str, body: _Body) -> None:
        """Take one call site of ``name`` away.  The last one takes its
        calls along; any other copies them."""
        count = self.counts[name]
        self.counts[name] = count - 1
        if count == 1:
            self.absorbed.add(name)
            return
        for callee in body.calls:
            self.counts[callee] = self.counts.get(callee, 0) + 1

    def unfold(self, call: n.Call, make, out: list, depth: int, bare: bool,
               into: tuple | None) -> bool:
        body = self.candidate(call.callee)
        if body is None:
            return False
        plan = self.plan(body, call.args)
        if plan is None:
            return False
        if self.counts[call.callee] == 1 and \
                self.hoist(body, plan, make, out, depth, bare, into):
            return True
        spliced = self.splice(call, body, plan)
        if spliced is None:
            return False
        self.site(spliced, make, out, depth, bare, into)
        return True

    def splice(self, call: n.Call, body: _Body, plan) -> n.Expr | None:
        """The callee's ``e`` for a call of a unit whose body is one
        ``return e``, if every parameter is substituted and ``e`` is no
        larger than the call, in nodes and in text."""
        substitute, bound = plan
        if bound or len(body.stmts) != 1:
            return None
        if body.size is None:
            body.size = sum(1 for _ in n.walk(body.value))
            body.text = len(emit_expr(body.value))
        if body.size > 1 + len(call.args):
            return None
        grow = sum(body.refs.get(p, 0) * (len(_text(a)) - len(p))
                   for p, a in substitute.items())
        call_text = len(call.callee) + 2 * len(call.args) + \
            sum(len(_text(a)) for a in call.args)
        if body.text + grow + 2 > call_text:  # 2: parentheses it may need
            return None
        self.consume(call.callee, body)
        return self.expr(body.value, _Frame(body, {
            p: a for p, a in substitute.items()
            if a.__class__ is not n.VarRef or a.name != p}))

    def hoist(self, body: _Body, plan, make, out: list, depth: int,
              bare: bool, into: tuple | None) -> bool:
        """Unfold the one call of a unit at a statement whose whole value it
        is: bind the parameters that need it, then hoist the callee's
        statements, renamed apart, in front of that statement, whose value
        becomes the callee's ``e``.  When that statement declares ``into``
        and ``e`` is a top-level local of its type, the local becomes the
        declared variable instead.  Refused if it would add steps or text."""
        substitute, bound = plan
        rename = {}
        for p, a in substitute.items():
            if a.__class__ is not n.VarRef or a.name != p:
                rename[p] = a
        value = body.value
        if len(body.stmts) == 1 and not bound:  # the body is ``return e``
            if rename and not self.fits(body, rename, bound, [], substitute,
                                        1, False):
                return False
            self.consume(body.unit.name, body)
            self.site(self.expr(value, _Frame(body, rename), True),
                      make, out, depth, bare, into)
            return True
        if len(bound) + bare > 2 + len(substitute):
            return False
        result = None
        if into is not None and value.__class__ is n.VarRef and \
                value.name in body.top:
            tv = body.locals[value.name]
            if tv is not None and tv == into[1]:
                result = value.name
        draw = self.supply.draw
        names = []
        for p, tv, _ in bound:
            new = draw(p, tv)
            names.append(new)
            if new != p:
                rename[p] = n.VarRef(new)
        for name, tv in body.locals.items():
            new = into[0] if name == result else draw(name, tv)
            if new != name:
                rename[name] = n.VarRef(new)
        if (rename or bound or bare or depth > 1) and not self.fits(
                body, rename, bound, names, substitute, depth, bare):
            return False
        self.consume(body.unit.name, body)
        frame = _Frame(body, rename)
        for (p, tv, a), name in zip(bound, names):
            dtype, _ = type_value_to_decl(tv)
            self.site(a, lambda e, dtype=dtype, name=name: n.VarDecl(
                dtype, [n.Declarator(name, None, e)]), out, depth, bare,
                (name, tv))
        start = len(out)
        for s in body.stmts[:-1]:
            self.stmt(s, frame, out, depth, bare)
        if result is None:
            value = self.forward(self.expr(value, frame, True), out, start)
            self.site(value, make, out, depth, bare, into)
        return True

    def fits(self, body: _Body, rename: dict, bound: list, names: list,
             substitute: dict, depth: int, bare: bool) -> bool:
        """Whether unfolding the unit of ``body`` here leaves the emitted
        text no longer: a bound on what renaming, indentation, bindings and
        braces add, against what the unit's comment, head, ``return`` and
        call held."""
        refs = body.refs
        grow = 0
        for name, new in rename.items():
            occurs = refs.get(name)
            if occurs:
                grow += occurs * (len(_text(new)) - len(name))
        if depth > 1:
            grow += 4 * (depth - 1) * sum(  # the lines it indents deeper
                emit_stmt(s).count("\n") for s in body.stmts[:-1])
        for (_, tv, _), name in zip(bound, names):
            grow += 4 * depth + len(tv.name) + len(name) + 6
        if bare:
            grow += 4 * depth + 4
        unit = body.unit
        saved = 2 * len(unit.name) + 25
        if unit.comment:
            saved += len(unit.comment) + 4
        for p, _ in unit.params:
            saved += len(p) + 4
        for a in substitute.values():
            saved += len(_text(a))
        return grow <= saved


def compress(rp: ResidualProgram, sites: CallSites) -> ResidualProgram:
    """Transition compression of a two-level program's residual, as
    ``specialize_program`` leaves it: unfold each function unit that has
    one call site, or whose body is one ``return e`` no larger than the
    call, into its callers, and drop the units nothing calls any more.

    * A body with several statements is unfolded where the call is the
      whole initializer of a one-declarator declaration, the whole value
      of an assignment, of an expression statement or of a ``return``:
      its statements are hoisted in front of that statement.  A call in a
      condition, a ``for`` clause or an operand is only spliced.
    * Only a body whose one ``return`` is its last top-level statement is
      unfolded, after the statements that follow a ``return`` in any block
      are dropped.  The entry, class units, units on a call cycle and
      calls in top-level statements are never unfolded.
    * An argument replaces its parameter only if it is a variable or a
      literal of exactly the parameter's type that neither the callee nor
      another argument may change; otherwise it is bound to a fresh local
      first, which keeps its coercion and when it is evaluated.  The
      callee's locals are renamed apart from the caller's names.
    * ``T v = e; return v;`` becomes ``return e;`` when ``e`` makes no call.

    Each unfolding keeps the run's value, error and order of effects, and
    takes neither more steps nor more emitted text.  ``sites`` holds the
    call counts the specializer kept, so a residual in which no unit calls
    another is returned at once."""
    if not sites.callers:
        return rp
    return _Compressor(rp, sites).run()
