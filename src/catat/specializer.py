"""The offline partial evaluator.

Given a checked program, every static construct is evaluated and every
dynamic construct is residualized: static loops unroll (one residual copy
of the body per iteration, with static state threaded sequentially),
annotated conditionals and switches keep exactly one branch, static values
crossing into dynamic code are lifted as literals, typename-typed
declarations are replaced by concrete types, and nested calls carrying
static arguments become calls to recursively specialized residuals.

The specializer runs no binding-time analysis of its own: an expression,
declaration, assignment or expression statement is static when the stage
checker wrote ``stage == 0`` on it, so the input must come from
``check_stages``.  A static subtree goes whole to the compile-time
``Interpreter``; the handlers here residualize the dynamic rest.  Whether
``if@``/``for@``/``switch@`` unrolls is read from its annotation, because
a construct's stage is its guard's stage.  Two cases keep their own paths:
``Name@(...)`` compile-time instances, and typename declarations, which
are evaluated now even when annotated for a later stage.  A static
parameter the checker puts at a later stage (three or more levels) is
declared at that stage in the residual, holding its value.

One environment serves both stages, as in an offline partial evaluator:
a static variable's slot holds its value, and a dynamic variable's slot
holds no value and names the variable's residual (``Slot.residual``).
Shadowing and redeclaration therefore follow the same scope rules on
both stages, as they do in ``run_unstaged``.  A residualized expression
is plain residual syntax, an ``n.Expr``; a static one is its ``Value``.
Each residual name is typed once, where its unit draws it: a unit's
``NameSupply`` is its type environment, kept as ``ResidualFunction.types``
for ``compress`` to read, and residual syntax is typed under it in one
place, ``residual_type``.  One resolver, ``SpecializationCache.resolve``,
names every call on both routes, and infers the typename statics of a
call that has none.

One object holds a specialization run, the ``SpecializationCache``: the
compile-time interpreter, with the program's functions, classes and
depth guard, the units made so far, and the handlers that residualize a
unit's body.  Specializations are memoized per (definition,
static-argument tuple); each key yields exactly one residual entity per
run, named by a deterministic mangling scheme.  Every unit, a function on
either route or a class, opens and closes in ``SpecializationCache.unit``,
which fixes its name and provenance from the static arguments before the
body runs, as a C++ compiler names an instance when it first meets its
template-id.  The unit under way is one record, a ``Unit``: the cache
holds it under the unit's key until the unit completes, and the
interpreter holds it as ``unit`` while the body runs, so a static builder
call draws its names and resolves its calls in that unit, on both
routes.  A unit whose body raises leaves the cache, so the same cache
reports the same error again.  A ``return`` under static control ends
the unit's specialization, as it ends the unstaged run: the statements
after it are neither specialized nor run.  Completion order is
callees-first, so the residual program emits in one pass.
``SpecializationCache.order`` is the instantiation record: every unit, in
that order, with its name and provenance comment.

Specialization keeps the source's call structure, so a specialized
interpreter is a chain of one-use units.  ``specialize_program`` ends,
on both routes, with ``compress``, the transition compression of ``mix``:
a function unit with one call site, or whose body is one ``return e`` no
larger than its call, is unfolded into its callers, and a unit that no
residual statement calls is dropped.  ``compress`` counts the calls in
the residual it walks; the run records only whether some unit calls
another, so that the pass returns at once when none does, and which units
lie on a call cycle.  Unfolding keeps each run's value, error category
and order of effects, and adds neither steps nor emitted text.
"""

from __future__ import annotations

import sys

from . import flatten
from . import nodes as n
from .errors import (
    STACK_EXHAUSTED, DepthExceeded, FlattenUnsupported, Frozen, LiftError,
    MalformedFragment, Record, ReturnTypeMismatch, SelfRecursiveSpecialization,
    Span, StageLeak, TypeMismatch, UnboundVariable,
)
from .flatten import (NameSupply, lift, type_value_to_decl,
                      type_value_to_texpr)
from .staging import StagedAST
from .staticeval import (
    CallMemo, EvalLimits, Interpreter, loop_limit, matches,
    raise_recursion_limit,
)
from .values import (
    BOOL, BoolV, ClassTV, Env, FLOAT, FixedArrayTV, INT, InstanceV, PointerTV,
    Slot, TypeValue, VOID, Value, canonical_key, coerce,
    mangle_name, promote, render_static_arg, render_type, truth,
)

COMPARISONS = ("==", "!=", "<", ">", "<=", ">=", "&&", "||")


# ---------------------------------------------------------------------------
# Keys, residual entities, the unit under way


def key_args(static_args: list) -> tuple:
    return tuple(canonical_key(v) for v in static_args)


class SpecializationKey(Frozen):
    """Immutable and hashable, as a memo key must be."""

    __slots__ = _fields = ("kind", "name", "args")

    def __init__(self, kind: str, name: str, args: tuple):
        object.__setattr__(self, "kind", kind)  # "function" | "class"
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)  # canonical value keys

    @classmethod
    def for_function(cls, name: str, static_args: list) -> "SpecializationKey":
        return cls("function", name, key_args(static_args))


def mangle(base: str, key: SpecializationKey) -> str:
    """Deterministic residual name for a specialization key."""
    return mangle_name(base, key.args)


def key_comment(key: SpecializationKey, static_args: list) -> str:
    rendered = ", ".join(render_static_arg(v) for v in static_args)
    return f"specialized-from: {key.name}({rendered})"


class ResidualFunction(Record):
    __slots__ = ("name", "return_type", "params", "body", "key", "comment",
                 "types")
    _fields = ("name", "return_type", "params", "body", "key", "comment")

    def __init__(self, name: str, return_type: TypeValue, params: list,
                 body: list, key: SpecializationKey, comment: str = "",
                 types: dict = n.FRESH):
        self.name = name
        self.return_type = return_type
        self.params = params  # (name, TypeValue)
        self.body = body  # single-level statements
        self.key = key
        self.comment = comment
        # residual name -> type of each dynamic global, parameter and local
        # it may read: the unit's ``NameSupply.types``
        self.types = {} if types is n.FRESH else types

    def to_function_def(self) -> n.FunctionDef:
        params = [n.Param(name, type_value_to_texpr(tv))
                  for name, tv in self.params]
        return n.FunctionDef(self.name, None, params, n.Block(list(self.body)),
                             declared_return=type_value_to_texpr(
                                 self.return_type))


class ResidualClass(Record):
    __slots__ = _fields = ("name", "members", "static_members", "ctor_body",
                           "key", "comment")

    def __init__(self, name: str, members: list, static_members: dict,
                 ctor_body: list | None, key: SpecializationKey,
                 comment: str = ""):
        self.name = name
        # (visibility, name, TypeValue) for dynamic members
        self.members = members
        self.static_members = static_members  # name -> Value
        # residual dynamic-constructor statements
        self.ctor_body = ctor_body
        self.key = key
        self.comment = comment

    def to_class_def(self) -> n.ClassDef:
        items: list = []
        if self.ctor_body is not None:
            items.append(n.VisibilityLabel("public"))
            items.append(n.CtorDef(0, n.Block(list(self.ctor_body))))
        vis = None
        for visibility, name, tv in self.members:
            if visibility != vis:
                items.append(n.VisibilityLabel(visibility))
                vis = visibility
            dtype, size = type_value_to_decl(tv)
            items.append(n.VarDecl(dtype, [n.Declarator(name, size, None)]))
        return n.ClassDef(self.name, [], items)


class Unit:
    """The unit under way, from ``SpecializationCache.reserve`` to
    ``complete``: its residual ``name`` and provenance ``comment``; ``env``,
    which binds every source variable in scope, static or dynamic (see
    ``Slot``); and ``names``, its name supply.  A dynamic variable declared
    in ``root``, the outermost frame, keeps its name; any other draws one
    unique in the unit, so a declaration that an unrolled iteration or a
    selected branch splices into an enclosing block captures no variable.
    Builders draw names here too and resolve calls through ``cache``.
    ``outer`` is the unit under way when this one began.  ``returned``
    marks a ``return`` under static control, outside the ``dynamic``
    constructs: the unit's specialization ends there, as unstaged."""

    def __init__(self, name: str | None, comment: str, names: NameSupply,
                 env: Env, outer: "Unit | None" = None, cache=None):
        self.name = name
        self.comment = comment
        self.names = names
        self.env = self.root = env
        self.outer = outer
        self.cache = cache
        self.returned = False
        self.dynamic = 0

    def push_source(self) -> None:
        self.env = self.env.child()

    def pop_source(self) -> None:
        self.env = self.env.parent

    def declare_dyn(self, name: str, tv: TypeValue | None,
                    span: Span | None = None) -> str:
        residual = self.names.keep(name, tv) if self.env is self.root \
            else self.names.draw(name, tv)
        self.env.declare(name, Slot(None, tv, residual), span)
        return residual


class ResidualProgram(Record):
    """Single-level program plus the cache bookkeeping that produced it."""

    __slots__ = ("units", "top_stmts", "entry_name", "static_bindings",
                 "checked", "_program")
    _fields = ("units", "top_stmts", "entry_name", "static_bindings")

    def __init__(self, units: list = n.FRESH, top_stmts: list = n.FRESH,
                 entry_name: str | None = None,
                 static_bindings: list = n.FRESH):
        self.units = [] if units is n.FRESH else units
        self.top_stmts = [] if top_stmts is n.FRESH else top_stmts
        self.entry_name = entry_name
        # (name, Value)
        self.static_bindings = [] if static_bindings is n.FRESH \
            else static_bindings
        # set by dyninterp.run once the Program has passed
        # check_stages(levels=1); not compared
        self.checked = False
        self._program = None  # not compared, not shown

    def __repr__(self):
        # shows ``checked`` too, though ``==`` does not compare it
        return f"{super().__repr__()[:-1]}, checked={self.checked!r})"

    @property
    def comments(self) -> dict:
        """Unit name -> provenance text."""
        return {u.name: u.comment for u in self.units if u.comment}

    @property
    def is_pure_static(self) -> bool:
        return not self.units and not self.top_stmts

    def to_program_ast(self) -> n.Program:
        """The residual as a Program.  It is built on the first call, and
        every later call returns that same object, so the units and top
        statements must not change after it."""
        if self._program is None:
            items = list(self.top_stmts)
            items.extend(u.to_function_def()
                         if isinstance(u, ResidualFunction)
                         else u.to_class_def() for u in self.units)
            self._program = n.Program(items)
        return self._program

    def function(self, name: str) -> ResidualFunction:
        for u in self.units:
            if isinstance(u, ResidualFunction) and u.name == name:
                return u
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Residual typing


def residual_type(e: n.Expr, types: dict, callee_types=None,
                  exact: bool = False) -> TypeValue | None:
    """The type of residual expression ``e`` under ``types``, residual name
    -> type; a call's is ``callee_types(callee)``.  None if unknown.  An
    ``exact`` type is one whose value class every value of ``e`` has, so
    that a declaration of that type holds the value unchanged: a ``?:``
    whose arms differ in type, and a call, have none."""
    cls = e.__class__
    if cls is n.VarRef:
        return types.get(e.name)
    if cls is n.IntLit:
        return INT
    if cls is n.FloatLit:
        return FLOAT
    if cls is n.BoolLit:
        return BOOL
    if cls is n.Unary:
        return BOOL if e.op == "!" else \
            residual_type(e.operand, types, callee_types, exact)
    if cls is n.Incr:
        return residual_type(e.target, types, callee_types, exact)
    if cls is n.Binary:
        if e.op in COMPARISONS:
            return BOOL
        lhs = residual_type(e.lhs, types, callee_types, exact)
        rhs = residual_type(e.rhs, types, callee_types, exact)
        return None if lhs is None or rhs is None else promote(lhs, rhs)
    if cls is n.Cond:
        then = residual_type(e.then_expr, types, callee_types, exact)
        other = residual_type(e.else_expr, types, callee_types, exact)
        if exact:
            return then if then == other else None
        return None if then is None or other is None \
            else promote(then, other)
    if cls is n.Subscript:
        base = residual_type(e.base, types, callee_types, exact)
        return base.elem if isinstance(base, (PointerTV, FixedArrayTV)) \
            else None
    if cls is n.Call and not exact and callee_types is not None:
        return callee_types(e.callee)
    return None


def infer_return_type(body: list, types: dict, callee_types=None,
                      span: Span | None = None) -> TypeValue:
    """Unify the types of all return expressions in a residual body under
    numeric promotion; no returns means void.  ``types`` holds the type of
    each global, parameter and local the body may read: its unit's
    ``NameSupply.types``."""
    found: list = []
    for s in body:
        _type_stmt(s, types, callee_types, found)
    known = [tv for tv in found if tv is not None]
    if not known:
        if found:
            raise ReturnTypeMismatch(
                "return type depends only on unresolvable calls", span)
        return VOID
    result = known[0]
    for tv in known[1:]:
        unified = promote(result, tv)
        if unified is None:
            raise ReturnTypeMismatch(
                f"cannot unify return types {render_type(result)} and "
                f"{render_type(tv)}", span)
        result = unified
    return result


def _type_stmt(s: n.Stmt, types: dict, callee_types, found: list) -> None:
    """Add the type of each value ``s`` returns to ``found``."""
    cls = s.__class__
    if cls is n.Return:
        found.append(VOID if s.value is None
                     else residual_type(s.value, types, callee_types))
    elif cls is n.Block:
        for sub in s.stmts:
            _type_stmt(sub, types, callee_types, found)
    elif cls is n.If:
        _type_stmt(s.then_stmt, types, callee_types, found)
        if s.else_stmt is not None:
            _type_stmt(s.else_stmt, types, callee_types, found)
    elif cls is n.For:
        if s.init is not None:
            _type_stmt(s.init, types, callee_types, found)
        _type_stmt(s.body, types, callee_types, found)
    elif cls is n.Switch:
        for case in s.cases:
            for sub in case.body:
                _type_stmt(sub, types, callee_types, found)


# ---------------------------------------------------------------------------
# The specialization run


class SpecializationCache:
    """One specialization run: the interpreter that runs its static code
    and the units it makes, each kept under its key, from ``reserve`` to
    ``complete``, with the name and return type of each, and the handlers
    that residualize a unit's body.  ``resolve`` records the two facts of
    the residual call graph that ``compress`` cannot count itself: whether
    some call, from a unit or a top-level statement, resolved to a unit
    (``linked``) and which units lie on a call cycle (``cyclic``)."""

    def __init__(self, staged: StagedAST, limits: EvalLimits | None = None):
        self.staged = staged
        self.limits = limits or EvalLimits()
        self.interp = Interpreter(staged.program, self.limits)
        self.interp.memo = CallMemo(self.interp.functions)
        self.default = staged.levels - 1
        self.entries: dict[SpecializationKey, object] = {}
        self.order: list = []
        self.returns: dict[str, TypeValue] = {}  # function unit -> its type
        self.unit_names = NameSupply()
        self.linked = False
        self.cyclic: set = set()
        self.generators: dict = {}  # id(FunctionDef) -> its generator
        self.top_stmts: list | None = None  # set by ``run_top_level``

    def run_top_level(self) -> list:
        """The residual of the program's top-level statements, made on the
        first call and kept in ``top_stmts``: a reused cache runs them
        once.  They run in a nameless unit held as the interpreter's
        ``unit``, so a static builder call among them resolves through this
        cache.  When one raises, the globals they declared are taken back:
        a second try meets the same error."""
        if self.top_stmts is None:
            top = Unit(None, "", NameSupply(), self.globals, cache=self)
            out: list = []
            outer, self.interp.unit = self.interp.unit, top
            slots = self.globals.slots
            before = set(slots)
            try:
                for item in self.staged.program.items:
                    if isinstance(item, n.Stmt):
                        self.stmt(item, top, out)
            except BaseException:
                for name in slots.keys() - before:
                    del slots[name]
                raise
            finally:
                self.interp.unit = outer
            self.top_stmts = out
        return self.top_stmts

    def generator(self, fn: n.FunctionDef) -> n.FunctionDef:
        """``fn``'s generator, flattened and compiled to Python once per
        cache; the interpreter runs it compiled."""
        generator = self.generators.get(id(fn))
        if generator is None:
            # imported on the first flattening: a program that never
            # flattens does not load the translator
            from . import pyemit
            generator = flatten.flatten_function(fn, self.staged.levels)
            self.interp.compiled[id(generator)] = \
                pyemit.compile_function(generator)
            self.generators[id(fn)] = generator
        return generator

    @property
    def globals(self) -> Env:
        return self.interp.globals

    def lookup(self, key: SpecializationKey):
        entry = self.entries.get(key)
        if entry.__class__ is Unit:
            raise SelfRecursiveSpecialization(
                f"specialization of '{key.name}' recursively requires "
                "itself with identical static arguments")
        return entry

    def reserved_name(self, key: SpecializationKey) -> str | None:
        """The name of the unit of ``key`` if its body is under way."""
        entry = self.entries.get(key)
        return entry.name if entry.__class__ is Unit else None

    def reserve(self, key: SpecializationKey, static_args: list) -> Unit:
        """Open the unit of ``key`` inside the one under way: name it and
        render its provenance from ``static_args`` as they are before its
        body runs, which may store into them."""
        name = self.unit_names.draw(mangle(key.name, key))
        # seeded with the dynamic globals, which keep their names
        names = NameSupply({slot.residual: slot.tv
                            for slot in self.globals.slots.values()
                            if slot.residual is not None})
        unit = self.entries[key] = Unit(
            name, key_comment(key, static_args), names, self.globals.child(),
            self.interp.unit, self)
        return unit

    def complete(self, key: SpecializationKey, entity) -> None:
        self.entries[key] = entity
        self.order.append(entity)
        if entity.__class__ is ResidualFunction:
            self.returns[entity.name] = entity.return_type

    # -- specialization units -------------------------------------------------

    def unit(self, kind: str, defn, static_args: list, body,
             guarded: bool = True):
        """The one lifecycle of a specialization unit, a function on either
        route or a class: key and look it up, check the arity, take a depth
        level, open the unit's record, hold it as the interpreter's
        ``unit`` while ``body`` runs, type the returns and complete.
        ``body(defn, static_args, unit)`` gives a function's parameters and
        statements, or a class's members, static members and constructor
        body.  The generator body is not ``guarded``: its call takes the
        level itself.  A unit whose body or typing raises is removed
        before the error propagates."""
        key = SpecializationKey(kind, defn.name, key_args(static_args))
        cached = self.lookup(key)
        if cached is not None:
            return cached
        if len(static_args) != defn.static_arity:
            what = "class " if kind == "class" else ""
            raise TypeMismatch(
                f"{what}'{defn.name}' expects {defn.static_arity} static "
                f"argument(s), got {len(static_args)}", defn.span)
        interp = self.interp
        guard = interp.depth_guard
        if guarded:
            guard.enter(defn.span)
        try:
            unit = interp.unit = self.reserve(key, static_args)
            try:
                parts = body(defn, static_args, unit)
                if kind == "class":
                    entity = ResidualClass(unit.name, *parts, key,
                                           unit.comment)
                else:
                    params, stmts = parts
                    rtype = infer_return_type(stmts, unit.names.types,
                                              self.returns.get, defn.span)
                    entity = ResidualFunction(unit.name, rtype, params, stmts,
                                              key, unit.comment,
                                              unit.names.types)
            except BaseException:
                # the unit leaves the run: a second try meets the same error
                del self.entries[key]
                del self.unit_names.types[unit.name]
                raise
            finally:
                interp.unit = unit.outer
            self.complete(key, entity)
            return entity
        finally:
            if guarded:
                guard.exit()

    def specialize_function(self, fn: n.FunctionDef, static_args: list,
                            via_flatten: bool = False) -> ResidualFunction:
        if via_flatten:
            return self.unit("function", fn, static_args,
                             self.generator_body, guarded=False)
        return self.unit("function", fn, static_args, self.function_body)

    def specialize_class(self, cls: n.ClassDef,
                         static_args: list) -> ResidualClass:
        return self.unit("class", cls, static_args, self.class_body)

    def resolve(self, callee: str, statics: list, args: list, unit: Unit,
                span: Span | None) -> str:
        """The residual name of a call of ``callee`` on ``statics`` and the
        residual ``args`` of ``unit``, on either route: ``make_call`` calls
        it too.  A call without static arguments and no definition that
        takes none infers the statics of one that ``infers_statics`` from
        the element types of its pointer arguments.  A call without static
        arguments into a function whose specialization is under way is
        recursive: it takes the reserved name, and every unit under way
        from ``unit`` out to that one lies on a cycle."""
        functions = self.interp.functions
        fn = functions.get((callee, len(statics)))
        if fn is None:
            if statics:
                raise MalformedFragment(
                    f"no definition of '{callee}' with {len(statics)} "
                    "static argument(s)", span)
            fn = next((f for (name, _), f in functions.items()
                       if name == callee and f.infers_statics(len(args))),
                      None)
            if fn is None:
                raise UnboundVariable(f"unknown function '{callee}'", span)
            types = [residual_type(a, unit.names.types, self.returns.get)
                     for a in args]
            statics = n.inferred_statics(fn.static_params, fn.params, [
                tv.elem if isinstance(tv, (PointerTV, FixedArrayTV)) else None
                for tv in types])
            if None in statics:
                missing = fn.static_params[statics.index(None)].name
                raise TypeMismatch(
                    f"cannot infer static parameter '{missing}' of "
                    f"'{callee}' from the call's argument types", span)
        if not statics:
            name = self.reserved_name(
                SpecializationKey.for_function(fn.name, []))
            if name is not None:
                self.linked = True
                self.cyclic.add(name)
                while unit.name != name:
                    self.cyclic.add(unit.name)
                    unit = unit.outer
                return name
        name = self.specialize_function(fn, statics).name
        self.linked = True
        return name

    def function_body(self, fn: n.FunctionDef, static_args: list,
                      unit: Unit) -> tuple:
        """Residualize ``fn``'s body: the direct route."""
        body = self.bind_static_params(fn.static_params or [], static_args,
                                       unit)
        params = []
        for p in fn.params:
            tv = self.interp.resolve_type(p.dtype, unit.env, p.span)
            params.append((unit.declare_dyn(p.name, tv, p.span), tv))
        unit.push_source()  # the body may shadow a parameter
        body.extend(self.stmts(fn.body.stmts, unit))
        return params, body

    def generator_body(self, fn: n.FunctionDef, static_args: list,
                       unit: Unit) -> tuple:
        """Run ``fn``'s generator, compiled, on ``static_args`` and unpack
        the shell it returns: the flatten route.  Its builders name the
        unit's locals and resolve its calls through ``unit``."""
        interp = self.interp
        if interp.count_steps:
            raise TypeError("a compiled generator counts no steps")
        generator = self.generator(fn)
        for p in fn.params:
            unit.names.keep(p.name)
        return flatten.materialize(
            interp.call_function(generator, list(static_args), fn.span))

    def class_body(self, cls: n.ClassDef, static_args: list,
                   unit: Unit) -> tuple:
        env = unit.env
        later = self.bind_static_params(cls.static_params, static_args, unit)
        # Static members first (unset slots unless initialized), so the
        # compile-time constructor can assign them before sizes resolve.
        static_names: list[str] = []
        dynamic_decls: list[tuple[str, n.VarDecl, n.Declarator]] = []
        visibility = "private"
        for item in cls.items:
            if isinstance(item, n.VisibilityLabel):
                visibility = item.name
                continue
            if not isinstance(item, n.VarDecl):
                continue
            is_static = (n.annotation_count(item.dtype) >= self.default
                         or n.is_typename_type(item.dtype))
            for d in item.declarators:
                if is_static:
                    static_names.append(d.name)
                    tv = self.interp.resolve_type(item.dtype, env, item.span)
                    value = coerce(self.interp.eval_expr(d.init, env),
                                   tv, d.span) if d.init is not None else None
                    env.declare(d.name, Slot(value, tv), d.span)
                else:
                    dynamic_decls.append((visibility, item, d))
        ctor = cls.static_ctor()
        if ctor is not None:
            self.interp.exec_block(ctor.body, env.child())
        members = []
        for visibility, decl, d in dynamic_decls:
            dtype = decl.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            tv = self.interp.resolve_type(dtype, env, decl.span)
            unit.declare_dyn(d.name, tv, d.span)
            members.append((visibility, d.name, tv))
        ctor_body = None
        dyn_ctor = cls.dynamic_ctor()
        if dyn_ctor is not None:
            unit.push_source()
            ctor_body = later + self.stmts(dyn_ctor.body.stmts, unit)
        static_members = {m: env.slots[m].value for m in static_names}
        return members, static_members, ctor_body

    def bind_static_params(self, params: list, args: list,
                           unit: Unit) -> list:
        """Bind static parameters to their arguments in ``unit.env``.

        At three or more levels the checker may put a static parameter at
        a later stage.  The residual then declares it at that stage,
        holding its value; the returned list has those declarations.
        Typename parameters are always bound now, as typename
        declarations are."""
        decls = []
        for p, a in zip(params, args):
            tv = self.interp.resolve_type(p.dtype, unit.env, p.span)
            value = coerce(a, tv, p.span)
            if p.at_count >= self.default or n.is_typename_type(p.dtype):
                unit.env.declare(p.name, Slot(value, tv), p.span)
                continue
            init = lift(value, p.span)
            dtype = type_value_to_texpr(tv)  # a liftable type: a PrimType
            dtype.at_count = p.at_count
            res_name = unit.declare_dyn(p.name, tv, p.span)
            decls.append(n.VarDecl(
                dtype, [n.Declarator(res_name, None, init)], span=p.span))
        return decls

    def static_instance(self, cls: n.ClassDef, static_args: list,
                        span: Span | None):
        """The ``Name@(...) x;`` form: a fully compile-time instance.

        Requires every member (and hence the run-time constructor body) to
        be static.  The interpreter builds the instance as it builds one
        at run time; it is named after its key and leaves no residual."""
        for decl in cls.member_decls():
            if n.annotation_count(decl.dtype) >= self.default or \
                    n.is_typename_type(decl.dtype):
                continue
            names = ", ".join(d.name for d in decl.declarators)
            raise TypeMismatch(
                f"'{cls.name}' cannot be instantiated at compile time: "
                f"member(s) {names} are dynamic", span)
        guard = self.interp.depth_guard
        guard.enter(span)
        try:
            inst = self.interp.instantiate_class(cls, static_args, span)
        finally:
            guard.exit()
        return InstanceV(mangle_name(cls.name, key_args(static_args)),
                         inst.members)

    # -- statements -------------------------------------------------------------

    def stmts(self, source: list, unit: Unit,
              out: list | None = None) -> list:
        """Residualize ``source`` into ``out``, up to a return under static
        control."""
        out = [] if out is None else out
        for s in source:
            self.stmt(s, unit, out)
            if unit.returned:
                break
        return out

    def splice(self, body: n.Stmt, unit: Unit, out: list) -> None:
        """Inline a selected/unrolled region into the current residual block."""
        unit.push_source()
        self.stmts(body.stmts if body.__class__ is n.Block else [body], unit,
                   out)
        unit.pop_source()

    def sub_stmt(self, body: n.Stmt, unit: Unit) -> n.Stmt:
        """Residualize the body of a residual control construct.  As on
        the flatten route, only a dynamic assignment or expression
        statement, or a return, stays a bare statement."""
        out: list = []
        unit.dynamic += 1
        self.splice(body, unit, out)
        unit.dynamic -= 1
        if len(out) == 1 and (body.__class__ is n.Return or (
                body.__class__ in (n.Assign, n.ExprStmt) and body.stage != 0)):
            return out[0]
        return n.Block(out)

    def stmt(self, s: n.Stmt, unit: Unit, out: list) -> None:
        handler = _STMT.get(s.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot specialize {type(s).__name__}",
                               s.span)
        handler(self, s, unit, out)

    def var_decl(self, s: n.VarDecl, unit: Unit, out: list) -> None:
        is_class = isinstance(s.dtype, n.ClassAppType)
        if (s.stage == 0 or n.is_typename_type(s.dtype)) and \
                not (is_class and s.dtype.ctime):
            self.interp.exec_stmt(s, unit.env)
            return
        if is_class:
            cls = self.interp.classes.get(s.dtype.name)
            if cls is None:
                raise UnboundVariable(f"unknown class '{s.dtype.name}'",
                                      s.span)
            args = [self.interp.eval_expr(a, unit.env) for a in s.dtype.args]
            if s.dtype.ctime:
                for d in s.declarators:
                    inst = self.static_instance(cls, args, s.span)
                    unit.env.declare(d.name, Slot(inst, ClassTV(cls.name)),
                                     d.span)
                return
            rc = self.specialize_class(cls, args)
            for d in s.declarators:
                res_name = unit.declare_dyn(
                    d.name, ClassTV(cls.name, rc.key.args), d.span)
                out.append(n.VarDecl(n.NamedType(rc.name),
                                     [n.Declarator(res_name, None, None)],
                                     span=s.span))
            return
        k = n.annotation_count(s.dtype)
        for d in s.declarators:
            dtype = s.dtype
            if d.array_size is not None:
                dtype = n.ArrayType(dtype, d.array_size)
            tv = self.interp.resolve_type(dtype, unit.env, s.span)
            init_node = None
            if d.init is not None:
                init_node = self.as_node(self.rexpr(d.init, unit), d.span)
            res_name = unit.declare_dyn(d.name, tv, d.span)
            res_dtype, res_size = type_value_to_decl(tv)
            if k > 0 and isinstance(res_dtype, (n.PrimType, n.NamedType)):
                # deeper-staged declaration: the annotation run is relative,
                # so it carries into the (L-1)-level residual unchanged
                res_dtype.at_count = k
            out.append(n.VarDecl(res_dtype,
                                 [n.Declarator(res_name, res_size, init_node)],
                                 span=s.span))

    def assign(self, s: n.Assign, unit: Unit, out: list) -> None:
        if s.stage == 0:
            self.interp.exec_stmt(s, unit.env)
            return
        target = self.rexpr(s.target, unit)
        value = self.as_node(self.rexpr(s.value, unit), s.span)
        out.append(n.Assign(target, s.op, value, span=s.span))

    def expr_stmt(self, s: n.ExprStmt, unit: Unit, out: list) -> None:
        if s.stage == 0:
            self.interp.exec_stmt(s, unit.env)
            return
        r = self.rexpr(s.expr, unit)
        if isinstance(r, n.Expr):
            out.append(n.ExprStmt(r, span=s.span))

    def return_stmt(self, s: n.Return, unit: Unit, out: list) -> None:
        value = None
        if s.value is not None:
            value = self.as_node(self.rexpr(s.value, unit), s.span)
        out.append(n.Return(value, span=s.span))
        if not unit.dynamic:
            unit.returned = True

    def block(self, s: n.Block, unit: Unit, out: list) -> None:
        unit.push_source()
        inner = self.stmts(s.stmts, unit)
        unit.pop_source()
        out.append(n.Block(inner, span=s.span))

    def if_stmt(self, s: n.If, unit: Unit, out: list) -> None:
        if s.at_count >= self.default:
            if truth(self.interp.eval_expr(s.cond, unit.env), s.span):
                self.splice(s.then_stmt, unit, out)
            elif s.else_stmt is not None:
                self.splice(s.else_stmt, unit, out)
            return
        cond = self.rexpr(s.cond, unit)
        then_stmt = self.sub_stmt(s.then_stmt, unit)
        else_stmt = self.sub_stmt(s.else_stmt, unit) \
            if s.else_stmt is not None else None
        out.append(n.If(self.as_node(cond, s.span), then_stmt, else_stmt,
                        s.at_count, s.else_at_count, span=s.span))

    def for_stmt(self, s: n.For, unit: Unit, out: list) -> None:
        if s.at_count >= self.default:
            # the checker made the init, guard and step static
            interp = self.interp
            unit.push_source()
            env = unit.env
            if s.init is not None:
                interp.exec_stmt(s.init, env)
            iterations = 0
            while s.cond is None or \
                    truth(interp.eval_expr(s.cond, env), s.span):
                iterations += 1
                if iterations > self.limits.loop_cap:
                    raise loop_limit(self.limits.loop_cap, True, s.span)
                self.splice(s.body, unit, out)
                if unit.returned:
                    break
                if s.incr is not None:
                    interp.exec_stmt(s.incr, env)
            unit.pop_source()
            return
        unit.push_source()
        init_out: list = []
        if s.init is not None:
            self.stmt(s.init, unit, init_out)
        init = init_out[0] if init_out else None
        cond = None
        if s.cond is not None:
            cond = self.as_node(self.rexpr(s.cond, unit), s.span)
        incr_out: list = []
        if s.incr is not None:
            self.stmt(s.incr, unit, incr_out)
        incr = incr_out[0] if incr_out else None
        body = self.sub_stmt(s.body, unit)
        unit.pop_source()
        out.append(n.For(init, cond, incr, body, s.at_count, span=s.span))

    def switch_stmt(self, s: n.Switch, unit: Unit, out: list) -> None:
        if s.at_count >= self.default:
            subject = self.interp.eval_expr(s.subject, unit.env)
            default_case = None
            for case in s.cases:
                if case.label is None:
                    default_case = case
                    continue
                label = self.interp.eval_expr(case.label, unit.env)
                if matches(subject, label, case.span):
                    self.splice(n.Block(case.body), unit, out)
                    return
            if default_case is not None:
                self.splice(n.Block(default_case.body), unit, out)
            return
        subject = self.as_node(self.rexpr(s.subject, unit), s.span)
        cases = []
        unit.dynamic += 1
        for case in s.cases:
            unit.push_source()
            body = self.stmts(case.body, unit)
            unit.pop_source()
            label = None
            if case.label is not None:
                label = self.as_node(self.rexpr(case.label, unit), case.span)
            cases.append(n.SwitchCase(label, body, span=case.span))
        unit.dynamic -= 1
        out.append(n.Switch(subject, cases, s.at_count, span=s.span))

    # -- expressions --------------------------------------------------------

    def as_node(self, r: Value | n.Expr, span: Span | None) -> n.Expr:
        return r if isinstance(r, n.Expr) else lift(r, span)

    def rexpr(self, e: n.Expr, unit: Unit) -> Value | n.Expr:
        """The value of ``e`` if it is static, else its residual."""
        if e.stage == 0:
            return self.interp.eval_expr(e, unit.env)
        handler = _REXPR.get(e.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot specialize {type(e).__name__}",
                               e.span)
        return handler(self, e, unit)

    # The handlers below see dynamic expressions only.  An operand may still
    # come back static: a dynamic ``?:`` or ``&&`` with a static guard keeps
    # the one operand it selects.

    def var_ref(self, e: n.VarRef, unit: Unit) -> n.Expr:
        slot = unit.env.find(e.name)
        if slot is None or slot.residual is None:
            raise StageLeak(f"variable '{e.name}' reached the specializer "
                            "unresolved", e.span)
        return n.VarRef(slot.residual, span=e.span)

    def unary(self, e: n.Unary, unit: Unit) -> n.Expr:
        operand = self.as_node(self.rexpr(e.operand, unit), e.span)
        return n.Unary(e.op, operand, span=e.span)

    def incr(self, e: n.Incr, unit: Unit) -> n.Expr:
        if not isinstance(e.target, n.VarRef):
            raise TypeMismatch(f"'{e.op}' needs a variable", e.span)
        return n.Incr(e.op, self.var_ref(e.target, unit), span=e.span)

    def binary(self, e: n.Binary, unit: Unit) -> Value | n.Expr:
        lhs = self.rexpr(e.lhs, unit)
        if e.op in ("&&", "||") and not isinstance(lhs, n.Expr):
            # a static left operand that decides folds; one that does not
            # stays, so the right operand is still tested as a bool
            decided = truth(lhs, e.span)
            if decided == (e.op == "||"):
                return BoolV(decided)
        rhs = self.rexpr(e.rhs, unit)
        return n.Binary(e.op, self.as_node(lhs, e.span),
                        self.as_node(rhs, e.span), span=e.span)

    def cond(self, e: n.Cond, unit: Unit) -> Value | n.Expr:
        c = self.rexpr(e.cond, unit)
        if not isinstance(c, n.Expr):
            return self.rexpr(e.then_expr if truth(c, e.span)
                              else e.else_expr, unit)
        t = self.as_node(self.rexpr(e.then_expr, unit), e.span)
        f = self.as_node(self.rexpr(e.else_expr, unit), e.span)
        return n.Cond(c, t, f, span=e.span)

    def subscript(self, e: n.Subscript, unit: Unit) -> n.Expr:
        base = self.rexpr(e.base, unit)
        if not isinstance(base, n.Expr):
            raise LiftError(flatten.STATIC_BASE_MESSAGE, e.span)
        index = self.as_node(self.rexpr(e.index, unit), e.span)
        return n.Subscript(base, index, span=e.span)

    def call(self, e: n.Call, unit: Unit) -> n.Expr:
        """A dynamic call.  Its arguments are residualized before its
        callee is named, so the callees of a nested call come first."""
        statics = []
        if e.static_args is not None:
            statics = [self.interp.eval_expr(a, unit.env)
                       for a in e.static_args]
        elif e.at_count >= 1:
            # multi-level: executes at a later (still static) stage
            return n.Call(e.callee, self.residual_args(e, unit),
                          at_count=e.at_count, span=e.span)
        args = self.residual_args(e, unit)
        callee = self.resolve(e.callee, statics, args, unit, e.span)
        return n.Call(callee, args, span=e.span)

    def residual_args(self, e: n.Call, unit: Unit) -> list:
        return [self.as_node(self.rexpr(a, unit), e.span) for a in e.args]


# Handlers by exact node class; each takes (cache, node, unit) and a
# statement handler also the residual list it appends to.  ``rexpr``
# evaluates every stage-0 expression itself, so ``_REXPR`` holds the
# dynamic handlers only: literals and type literals are always stage 0.
_STMT = {
    n.VarDecl: SpecializationCache.var_decl,
    n.Assign: SpecializationCache.assign,
    n.ExprStmt: SpecializationCache.expr_stmt,
    n.Return: SpecializationCache.return_stmt,
    n.Block: SpecializationCache.block,
    n.If: SpecializationCache.if_stmt,
    n.For: SpecializationCache.for_stmt,
    n.Switch: SpecializationCache.switch_stmt,
}

_REXPR = {
    n.VarRef: SpecializationCache.var_ref,
    n.Unary: SpecializationCache.unary,
    n.Incr: SpecializationCache.incr,
    n.Binary: SpecializationCache.binary,
    n.Cond: SpecializationCache.cond,
    n.Subscript: SpecializationCache.subscript,
    n.Call: SpecializationCache.call,
}


# ---------------------------------------------------------------------------
# Public operations


def specialize_function(fn: n.FunctionDef, static_args: list,
                        cache: SpecializationCache,
                        via_flatten: bool = False) -> ResidualFunction:
    return cache.specialize_function(fn, list(static_args), via_flatten)


def specialize_class(cls: n.ClassDef, static_args: list,
                     cache: SpecializationCache) -> ResidualClass:
    return cache.specialize_class(cls, list(static_args))


def specialize_program(staged: StagedAST, entry: str | None = None,
                       entry_static_args: list | None = None,
                       limits: EvalLimits | None = None,
                       cache: SpecializationCache | None = None,
                       via_flatten: bool = False) -> ResidualProgram:
    """Specialize a whole program: global statements are processed in
    order (static ones evaluated, dynamic ones residualized) once per
    ``cache`` (``run_top_level``), then the entry function is specialized
    with the given static arguments; the residual contains the transitive
    closure of needed specializations, compressed (``compress``) when it
    is single-level code.  ``cache.order`` keeps every unit made."""
    cache = cache or SpecializationCache(staged, limits)
    old_limit = raise_recursion_limit(cache.limits.max_depth)
    try:
        top_res = list(cache.run_top_level())
        entry_name = None
        if entry is not None:
            static_args = list(entry_static_args or [])
            fn = cache.interp.functions.get((entry, len(static_args)))
            cls = cache.interp.classes.get(entry)
            if fn is not None:
                entry_name = cache.specialize_function(fn, static_args,
                                                       via_flatten).name
            elif cls is not None:
                if via_flatten:
                    raise FlattenUnsupported("class types do not flatten",
                                             cls.span)
                entry_name = cache.specialize_class(cls, static_args).name
            else:
                raise UnboundVariable(
                    f"no function '{entry}' taking {len(static_args)} static "
                    "argument(s) and no class of that name")
        bindings = [(name, slot.value)
                    for name, slot in cache.globals.slots.items()
                    if slot.residual is None]
        rp = ResidualProgram(list(cache.order), top_res, entry_name,
                             bindings)
        if staged.levels == 2:  # a deeper residual is specialized again
            from .compress import compress
            rp = compress(rp, cache)
        return rp
    except RecursionError:
        raise DepthExceeded(STACK_EXHAUSTED) from None
    finally:
        sys.setrecursionlimit(old_limit)


# ---------------------------------------------------------------------------
# Alpha-equivalence of residual functions


def alpha_equivalent(a: ResidualFunction, b: ResidualFunction) -> bool:
    """Equality up to renaming of bound (parameter and local) variables.

    Every field of every node takes part except spans and stages.  Type
    expressions are compared modulo annotations, and free names (residual
    globals, function references) must match exactly.  Annotation marks on
    statements do count: ``for@`` differs from ``for``, ``switch@`` from
    ``switch``, ``else@`` from ``else``, and a ``static`` declaration from
    a plain one.
    """
    if a.name != b.name or a.return_type != b.return_type:
        return False
    if len(a.params) != len(b.params):
        return False
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}
    for (an, atv), (bn, btv) in zip(a.params, b.params):
        if atv != btv:
            return False
        fwd[an] = bn
        rev[bn] = an
    return _alpha(a.body, b.body, fwd, rev)


def _alpha_bind(x: str, y: str, fwd: dict, rev: dict) -> bool:
    if fwd.get(x, y) != y or rev.get(y, x) != x:
        return False
    fwd[x] = y
    rev[y] = x
    return True


def _alpha(x, y, fwd: dict, rev: dict) -> bool:
    if isinstance(x, list):
        return isinstance(y, list) and len(x) == len(y) and \
            all(_alpha(a, b, fwd, rev) for a, b in zip(x, y))
    if not isinstance(x, n.Node):
        return x == y
    if type(x) is not type(y):
        return False
    if isinstance(x, n.TypeExpr):
        return n.strip_annotations(x) == n.strip_annotations(y)
    if isinstance(x, n.VarRef):
        if x.name in fwd or y.name in rev:
            return fwd.get(x.name) == y.name and rev.get(y.name) == x.name
        return x.name == y.name
    names = n.child_fields(type(x))
    if isinstance(x, n.Declarator):
        # the name is in scope in its own size and initializer
        if not _alpha_bind(x.name, y.name, fwd, rev):
            return False
        names = ("array_size", "init")
    return all(_alpha(getattr(x, f), getattr(y, f), fwd, rev) for f in names)
