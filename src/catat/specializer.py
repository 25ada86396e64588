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
place, ``residual_type``.  One resolver, ``_Specializer.resolve``, names
every call on both routes, and infers the typename statics of a call
that has none.

Specializations are memoized per (definition, static-argument tuple);
each key yields exactly one residual entity per run, named by a
deterministic mangling scheme.  Every unit, a function on either route or
a class, opens and closes in ``_Specializer.unit``, which fixes its name
and provenance from the static arguments before the body runs, as a C++
compiler names an instance when it first meets its template-id.
Completion order is callees-first, so the residual program emits in one
pass.  ``SpecializationCache.order`` is the instantiation record: every
unit, in that order, with its name and provenance comment.

Specialization keeps the source's call structure, so a specialized
interpreter is a chain of one-use units.  ``specialize_program`` ends,
on both routes, with ``compress``, the transition compression of ``mix``:
a function unit with one call site, or whose body is one ``return e`` no
larger than its call, is unfolded into its callers, and units that
nothing calls any more are dropped.  The specializer counts every
residual call as it names its callee (``CallSites``), so the pass finds
its candidates without walking the residual, and returns at once when no
unit calls another.  Unfolding keeps each run's value, error category
and order of effects, and adds neither steps nor emitted text.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from . import flatten
from . import nodes as n
from .errors import (
    STACK_EXHAUSTED, DepthExceeded, FlattenUnsupported, LiftError,
    MalformedFragment, ReturnTypeMismatch, SelfRecursiveSpecialization, Span,
    StageLeak, TypeMismatch, UnboundVariable,
)
from .flatten import (NameSupply, lift, type_value_to_decl,
                      type_value_to_texpr)
from .staging import StagedAST
from .staticeval import (
    CallMemo, DepthGuard, EvalLimits, Interpreter, loop_limit, matches,
    raise_recursion_limit,
)
from .values import (
    BOOL, BoolV, ClassTV, Env, FLOAT, FixedArrayTV, INT, InstanceV, PointerTV,
    Slot, TypeValue, VOID, Value, canonical_key, coerce,
    mangle_name, promote, render_static_arg, render_type, truth,
)

COMPARISONS = ("==", "!=", "<", ">", "<=", ">=", "&&", "||")


# ---------------------------------------------------------------------------
# Keys, residual entities, cache


def key_args(static_args: list) -> tuple:
    return tuple(canonical_key(v) for v in static_args)


@dataclass(frozen=True)
class SpecializationKey:
    kind: str  # "function" | "class"
    name: str
    args: tuple  # canonical value keys

    @classmethod
    def for_function(cls, name: str, static_args: list) -> "SpecializationKey":
        return cls("function", name, key_args(static_args))


def mangle(base: str, key: SpecializationKey) -> str:
    """Deterministic residual name for a specialization key."""
    return mangle_name(base, key.args)


def key_comment(key: SpecializationKey, static_args: list) -> str:
    rendered = ", ".join(render_static_arg(v) for v in static_args)
    return f"specialized-from: {key.name}({rendered})"


@dataclass
class ResidualFunction:
    name: str
    return_type: TypeValue
    params: list  # (name, TypeValue)
    body: list  # single-level statements
    key: SpecializationKey
    comment: str = ""
    # residual name -> type of each dynamic global, parameter and local it
    # may read: the unit's ``NameSupply.types``
    types: dict = field(default_factory=dict, compare=False, repr=False)

    def to_function_def(self) -> n.FunctionDef:
        params = [n.Param(name, type_value_to_texpr(tv))
                  for name, tv in self.params]
        return n.FunctionDef(self.name, None, params, n.Block(list(self.body)),
                             declared_return=type_value_to_texpr(
                                 self.return_type))


@dataclass
class ResidualClass:
    name: str
    members: list  # (visibility, name, TypeValue) for dynamic members
    static_members: dict  # name -> Value
    ctor_body: list | None  # residual dynamic-constructor statements
    key: SpecializationKey
    comment: str = ""

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


@dataclass
class _Reserved:
    """The entry of a unit whose body is being specialized: its residual
    name and provenance comment, fixed when the unit was met."""

    name: str
    comment: str


@dataclass
class CallSites:
    """The residual call graph, counted as the specializer builds each call:
    how many calls name each unit, which units call a unit, and which
    units lie on a call cycle.  ``compress`` reads it, so it needs no walk
    to find its candidates."""

    count: dict = field(default_factory=dict)  # unit name -> call sites
    callers: set = field(default_factory=set)  # units that call a unit
    cyclic: set = field(default_factory=set)
    building: list = field(default_factory=list)  # units under way

    def record(self, callee: str, recursive: bool) -> None:
        """Count a call of ``callee`` in the unit being built.  A
        recursive call closes a cycle through every unit under way from
        ``callee`` on."""
        self.count[callee] = self.count.get(callee, 0) + 1
        building = self.building
        if building:
            self.callers.add(building[-1])
        if recursive:
            self.cyclic.update(building[building.index(callee):])


class SpecializationCache:
    """Memoization table, name registry, and shared depth accounting."""

    def __init__(self, staged: StagedAST, limits: EvalLimits | None = None):
        self.staged = staged
        self.limits = limits or EvalLimits()
        self.guard = DepthGuard(self.limits.max_depth)
        self.interp = Interpreter(staged.program, self.limits,
                                  depth_guard=self.guard)
        self.interp.memo = CallMemo(self.interp.functions)
        self.functions = staged.functions_by_key()
        self.classes = staged.classes_by_name()
        self.entries: dict[SpecializationKey, object] = {}
        self.order: list = []
        self.names: dict[str, SpecializationKey] = {}
        self.unit_names = NameSupply()
        self.sites = CallSites()
        self.generators: dict = {}  # id(FunctionDef) -> its generator

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
        if entry.__class__ is _Reserved:
            raise SelfRecursiveSpecialization(
                f"specialization of '{key.name}' recursively requires "
                "itself with identical static arguments")
        return entry

    def reserved_name(self, key: SpecializationKey) -> str | None:
        """The name of the unit of ``key`` if its body is under way."""
        entry = self.entries.get(key)
        return entry.name if entry.__class__ is _Reserved else None

    def reserve(self, key: SpecializationKey, static_args: list) -> _Reserved:
        """Name the unit of ``key`` and render its provenance from
        ``static_args`` as they are before its body runs, which may store
        into them."""
        name = self.unit_names.draw(mangle(key.name, key))
        self.names[name] = key
        entry = self.entries[key] = _Reserved(
            name, key_comment(key, static_args))
        return entry

    def complete(self, key: SpecializationKey, entity) -> None:
        self.entries[key] = entity
        self.order.append(entity)

    def return_type_of(self, residual_name: str) -> TypeValue | None:
        key = self.names.get(residual_name)
        if key is None:
            return None
        entity = self.entries.get(key)
        if isinstance(entity, ResidualFunction):
            return entity.return_type
        return None


@dataclass
class ResidualProgram:
    """Single-level program plus the cache bookkeeping that produced it."""

    units: list = field(default_factory=list)
    top_stmts: list = field(default_factory=list)
    entry_name: str | None = None
    comments: dict = field(default_factory=dict)  # name -> provenance text
    static_bindings: list = field(default_factory=list)  # (name, Value)
    # set by dyninterp.run once the Program has passed check_stages(levels=1)
    checked: bool = field(default=False, init=False, compare=False)
    _program: n.Program | None = field(default=None, init=False,
                                       repr=False, compare=False)

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
# Residualization


class _SpecCtx:
    """The environment of one specialization.

    ``env`` binds every source variable in scope, static or dynamic (see
    ``Slot``).  ``names`` is the unit's name supply: a dynamic variable
    declared in ``root``, the unit's outermost frame, is a parameter, a
    class member or a global and keeps its name; any other draws a name
    unique in the unit, so a declaration that an unrolled iteration or a
    selected branch splices into an enclosing block captures no variable."""

    def __init__(self, env: Env, names: NameSupply):
        self.env = env
        self.root = env
        self.names = names

    # scope plumbing --------------------------------------------------------

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


class _Specializer:
    def __init__(self, cache: SpecializationCache):
        self.cache = cache
        self.interp = cache.interp
        self.default = cache.staged.levels - 1

    # -- specialization units -------------------------------------------------

    def unit(self, kind: str, defn, static_args: list, body,
             guarded: bool = True):
        """The one lifecycle of a specialization unit, a function on either
        route or a class: key and look it up, check the arity, take a depth
        level, reserve the name and provenance, run ``body``, type the
        returns and complete.  ``body(defn, static_args, names)``, with the
        unit's name supply, gives a function's parameters and statements,
        or a class's members, static members and constructor body.  The
        generator body is not ``guarded``: its call takes the level itself."""
        key = SpecializationKey(kind, defn.name, key_args(static_args))
        cached = self.cache.lookup(key)
        if cached is not None:
            return cached
        if len(static_args) != defn.static_arity:
            what = "class " if kind == "class" else ""
            raise TypeMismatch(
                f"{what}'{defn.name}' expects {defn.static_arity} static "
                f"argument(s), got {len(static_args)}", defn.span)
        guard = self.cache.guard
        if guarded:
            guard.enter(defn.span)
        building = self.cache.sites.building
        try:
            reserved = self.cache.reserve(key, static_args)
            # seeded with the dynamic globals, which keep their names
            names = NameSupply({slot.residual: slot.tv for slot
                                in self.cache.globals.slots.values()
                                if slot.residual is not None})
            building.append(reserved.name)
            try:
                parts = body(defn, static_args, names)
            finally:
                building.pop()
            if kind == "class":
                entity = ResidualClass(reserved.name, *parts, key,
                                       reserved.comment)
            else:
                params, stmts = parts
                rtype = infer_return_type(stmts, names.types,
                                          self.cache.return_type_of,
                                          defn.span)
                entity = ResidualFunction(reserved.name, rtype, params, stmts,
                                          key, reserved.comment, names.types)
            self.cache.complete(key, entity)
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

    def resolve(self, callee: str, statics: list, args: list, types: dict,
                span: Span | None) -> str:
        """The residual name of a call of ``callee`` on ``statics`` and the
        residual ``args``, whose names ``types`` types, on either route:
        the flatten route's ``make_call`` calls it too.  A call without
        static arguments and no definition that takes none infers the
        statics of one that ``infers_statics`` from the element types of
        its pointer arguments.  A call without static arguments into a
        function whose specialization is under way is recursive: it takes
        the reserved name.  Each call is counted in ``cache.sites``."""
        functions = self.cache.functions
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
            inferred: dict[str, TypeValue] = {}
            for p, a in zip(fn.params, args):
                tv = residual_type(a, types, self.cache.return_type_of)
                if isinstance(p.dtype, n.PointerType) and \
                        isinstance(p.dtype.base, n.NamedType) and \
                        isinstance(tv, (PointerTV, FixedArrayTV)):
                    inferred.setdefault(p.dtype.base.name, tv.elem)
            try:
                statics = [inferred[p.name] for p in fn.static_params]
            except KeyError as missing:
                raise TypeMismatch(
                    f"cannot infer static parameter {missing} of "
                    f"'{callee}' from the call's argument types", span)
        sites = self.cache.sites
        if not statics:
            name = self.cache.reserved_name(
                SpecializationKey.for_function(fn.name, []))
            if name is not None:
                sites.record(name, True)
                return name
        name = self.specialize_function(fn, statics).name
        sites.record(name, False)
        return name

    def function_body(self, fn: n.FunctionDef, static_args: list,
                      names: NameSupply) -> tuple:
        """Residualize ``fn``'s body: the direct route."""
        ctx = _SpecCtx(self.cache.globals.child(), names)
        body = self.bind_static_params(fn.static_params or [], static_args,
                                       ctx)
        params = []
        for p in fn.params:
            tv = self.interp.resolve_type(p.dtype, ctx.env, p.span)
            params.append((ctx.declare_dyn(p.name, tv, p.span), tv))
        ctx.push_source()  # the body may shadow a parameter
        body.extend(self.stmts(fn.body.stmts, ctx))
        return params, body

    def generator_body(self, fn: n.FunctionDef, static_args: list,
                       names: NameSupply) -> tuple:
        """Run ``fn``'s generator, compiled, on ``static_args`` and unpack
        the shell it returns: the flatten route.  During this run only,
        the cache names the calls it builds and ``names`` its locals."""
        interp = self.interp
        if interp.count_steps:
            raise TypeError("a compiled generator counts no steps")
        generator = self.cache.generator(fn)
        for p in fn.params:
            names.keep(p.name)
        interp.resolve_call = self.resolve
        interp.name_supply = names
        try:
            code = interp.call_function(generator, list(static_args), fn.span)
        finally:
            interp.resolve_call = None
            interp.name_supply = None
        return flatten.materialize(code)

    def class_body(self, cls: n.ClassDef, static_args: list,
                   names: NameSupply) -> tuple:
        env = self.cache.globals.child()
        ctx = _SpecCtx(env, names)
        later = self.bind_static_params(cls.static_params, static_args, ctx)
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
            ctx.declare_dyn(d.name, tv, d.span)
            members.append((visibility, d.name, tv))
        ctor_body = None
        dyn_ctor = cls.dynamic_ctor()
        if dyn_ctor is not None:
            ctx.push_source()
            ctor_body = later + self.stmts(dyn_ctor.body.stmts, ctx)
        static_members = {m: env.slots[m].value for m in static_names}
        return members, static_members, ctor_body

    def bind_static_params(self, params: list, args: list,
                           ctx: _SpecCtx) -> list:
        """Bind static parameters to their arguments in ``ctx.env``.

        At three or more levels the checker may put a static parameter at
        a later stage.  The residual then declares it at that stage,
        holding its value; the returned list has those declarations.
        Typename parameters are always bound now, as typename
        declarations are."""
        decls = []
        for p, a in zip(params, args):
            tv = self.interp.resolve_type(p.dtype, ctx.env, p.span)
            value = coerce(a, tv, p.span)
            if p.at_count >= self.default or n.is_typename_type(p.dtype):
                ctx.env.declare(p.name, Slot(value, tv), p.span)
                continue
            init = lift(value, p.span)
            dtype = type_value_to_texpr(tv)  # a liftable type: a PrimType
            dtype.at_count = p.at_count
            res_name = ctx.declare_dyn(p.name, tv, p.span)
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
        self.cache.guard.enter(span)
        try:
            inst = self.interp.instantiate_class(cls, static_args, span)
        finally:
            self.cache.guard.exit()
        return InstanceV(mangle_name(cls.name, key_args(static_args)),
                         inst.members)

    # -- statements -------------------------------------------------------------

    def stmts(self, source: list, ctx: _SpecCtx) -> list:
        out: list = []
        for s in source:
            self.stmt(s, ctx, out)
        return out

    def splice(self, body: n.Stmt, ctx: _SpecCtx, out: list) -> None:
        """Inline a selected/unrolled region into the current residual block."""
        ctx.push_source()
        if isinstance(body, n.Block):
            for s in body.stmts:
                self.stmt(s, ctx, out)
        else:
            self.stmt(body, ctx, out)
        ctx.pop_source()

    def sub_stmt(self, body: n.Stmt, ctx: _SpecCtx) -> n.Stmt:
        """Residualize the body of a residual control construct.  As on
        the flatten route, only a dynamic assignment or expression
        statement, or a return, stays a bare statement."""
        out: list = []
        self.splice(body, ctx, out)
        if len(out) == 1 and (body.__class__ is n.Return or (
                body.__class__ in (n.Assign, n.ExprStmt) and body.stage != 0)):
            return out[0]
        return n.Block(out)

    def stmt(self, s: n.Stmt, ctx: _SpecCtx, out: list) -> None:
        handler = _STMT.get(s.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot specialize {type(s).__name__}",
                               s.span)
        handler(self, s, ctx, out)

    def var_decl(self, s: n.VarDecl, ctx: _SpecCtx, out: list) -> None:
        is_class = isinstance(s.dtype, n.ClassAppType)
        if (s.stage == 0 or n.is_typename_type(s.dtype)) and \
                not (is_class and s.dtype.ctime):
            self.interp.exec_stmt(s, ctx.env)
            return
        if is_class:
            cls = self.cache.classes.get(s.dtype.name)
            if cls is None:
                raise UnboundVariable(f"unknown class '{s.dtype.name}'",
                                      s.span)
            args = [self.interp.eval_expr(a, ctx.env) for a in s.dtype.args]
            if s.dtype.ctime:
                for d in s.declarators:
                    inst = self.static_instance(cls, args, s.span)
                    ctx.env.declare(d.name, Slot(inst, ClassTV(cls.name)),
                                    d.span)
                return
            rc = self.specialize_class(cls, args)
            for d in s.declarators:
                res_name = ctx.declare_dyn(
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
            tv = self.interp.resolve_type(dtype, ctx.env, s.span)
            init_node = None
            if d.init is not None:
                init_node = self.as_node(self.rexpr(d.init, ctx), d.span)
            res_name = ctx.declare_dyn(d.name, tv, d.span)
            res_dtype, res_size = type_value_to_decl(tv)
            if k > 0 and isinstance(res_dtype, (n.PrimType, n.NamedType)):
                # deeper-staged declaration: the annotation run is relative,
                # so it carries into the (L-1)-level residual unchanged
                res_dtype.at_count = k
            out.append(n.VarDecl(res_dtype,
                                 [n.Declarator(res_name, res_size, init_node)],
                                 span=s.span))

    def assign(self, s: n.Assign, ctx: _SpecCtx, out: list) -> None:
        if s.stage == 0:
            self.interp.exec_stmt(s, ctx.env)
            return
        target = self.rexpr(s.target, ctx)
        value = self.as_node(self.rexpr(s.value, ctx), s.span)
        out.append(n.Assign(target, s.op, value, span=s.span))

    def expr_stmt(self, s: n.ExprStmt, ctx: _SpecCtx, out: list) -> None:
        if s.stage == 0:
            self.interp.exec_stmt(s, ctx.env)
            return
        r = self.rexpr(s.expr, ctx)
        if isinstance(r, n.Expr):
            out.append(n.ExprStmt(r, span=s.span))

    def return_stmt(self, s: n.Return, ctx: _SpecCtx, out: list) -> None:
        value = None
        if s.value is not None:
            value = self.as_node(self.rexpr(s.value, ctx), s.span)
        out.append(n.Return(value, span=s.span))

    def block(self, s: n.Block, ctx: _SpecCtx, out: list) -> None:
        ctx.push_source()
        inner = self.stmts(s.stmts, ctx)
        ctx.pop_source()
        out.append(n.Block(inner, span=s.span))

    def if_stmt(self, s: n.If, ctx: _SpecCtx, out: list) -> None:
        if s.at_count >= self.default:
            if truth(self.interp.eval_expr(s.cond, ctx.env), s.span):
                self.splice(s.then_stmt, ctx, out)
            elif s.else_stmt is not None:
                self.splice(s.else_stmt, ctx, out)
            return
        cond = self.rexpr(s.cond, ctx)
        then_stmt = self.sub_stmt(s.then_stmt, ctx)
        else_stmt = self.sub_stmt(s.else_stmt, ctx) \
            if s.else_stmt is not None else None
        out.append(n.If(self.as_node(cond, s.span), then_stmt, else_stmt,
                        s.at_count, s.else_at_count, span=s.span))

    def for_stmt(self, s: n.For, ctx: _SpecCtx, out: list) -> None:
        if s.at_count >= self.default:
            # the checker made the init, guard and step static
            interp = self.interp
            ctx.push_source()
            env = ctx.env
            if s.init is not None:
                interp.exec_stmt(s.init, env)
            iterations = 0
            while s.cond is None or \
                    truth(interp.eval_expr(s.cond, env), s.span):
                iterations += 1
                if iterations > self.cache.limits.loop_cap:
                    raise loop_limit(self.cache.limits.loop_cap, True, s.span)
                self.splice(s.body, ctx, out)
                if s.incr is not None:
                    interp.exec_stmt(s.incr, env)
            ctx.pop_source()
            return
        ctx.push_source()
        init_out: list = []
        if s.init is not None:
            self.stmt(s.init, ctx, init_out)
        init = init_out[0] if init_out else None
        cond = None
        if s.cond is not None:
            cond = self.as_node(self.rexpr(s.cond, ctx), s.span)
        incr_out: list = []
        if s.incr is not None:
            self.stmt(s.incr, ctx, incr_out)
        incr = incr_out[0] if incr_out else None
        body = self.sub_stmt(s.body, ctx)
        ctx.pop_source()
        out.append(n.For(init, cond, incr, body, s.at_count, span=s.span))

    def switch_stmt(self, s: n.Switch, ctx: _SpecCtx, out: list) -> None:
        if s.at_count >= self.default:
            subject = self.interp.eval_expr(s.subject, ctx.env)
            default_case = None
            for case in s.cases:
                if case.label is None:
                    default_case = case
                    continue
                label = self.interp.eval_expr(case.label, ctx.env)
                if matches(subject, label, case.span):
                    self.splice(n.Block(case.body), ctx, out)
                    return
            if default_case is not None:
                self.splice(n.Block(default_case.body), ctx, out)
            return
        subject = self.as_node(self.rexpr(s.subject, ctx), s.span)
        cases = []
        for case in s.cases:
            ctx.push_source()
            body = self.stmts(case.body, ctx)
            ctx.pop_source()
            label = None
            if case.label is not None:
                label = self.as_node(self.rexpr(case.label, ctx), case.span)
            cases.append(n.SwitchCase(label, body, span=case.span))
        out.append(n.Switch(subject, cases, s.at_count, span=s.span))

    # -- expressions --------------------------------------------------------

    def as_node(self, r: Value | n.Expr, span: Span | None) -> n.Expr:
        return r if isinstance(r, n.Expr) else lift(r, span)

    def rexpr(self, e: n.Expr, ctx: _SpecCtx) -> Value | n.Expr:
        """The value of ``e`` if it is static, else its residual."""
        if e.stage == 0:
            return self.interp.eval_expr(e, ctx.env)
        handler = _REXPR.get(e.__class__)
        if handler is None:
            raise TypeMismatch(f"cannot specialize {type(e).__name__}",
                               e.span)
        return handler(self, e, ctx)

    # The handlers below see dynamic expressions only.  An operand may still
    # come back static: a dynamic ``?:`` or ``&&`` with a static guard keeps
    # the one operand it selects.

    def var_ref(self, e: n.VarRef, ctx: _SpecCtx) -> n.Expr:
        slot = ctx.env.find(e.name)
        if slot is None or slot.residual is None:
            raise StageLeak(f"variable '{e.name}' reached the specializer "
                            "unresolved", e.span)
        return n.VarRef(slot.residual, span=e.span)

    def unary(self, e: n.Unary, ctx: _SpecCtx) -> n.Expr:
        operand = self.as_node(self.rexpr(e.operand, ctx), e.span)
        return n.Unary(e.op, operand, span=e.span)

    def incr(self, e: n.Incr, ctx: _SpecCtx) -> n.Expr:
        if not isinstance(e.target, n.VarRef):
            raise TypeMismatch(f"'{e.op}' needs a variable", e.span)
        return n.Incr(e.op, self.var_ref(e.target, ctx), span=e.span)

    def binary(self, e: n.Binary, ctx: _SpecCtx) -> Value | n.Expr:
        lhs = self.rexpr(e.lhs, ctx)
        if e.op in ("&&", "||") and not isinstance(lhs, n.Expr):
            # a static left operand that decides folds; one that does not
            # stays, so the right operand is still tested as a bool
            decided = truth(lhs, e.span)
            if decided == (e.op == "||"):
                return BoolV(decided)
        rhs = self.rexpr(e.rhs, ctx)
        return n.Binary(e.op, self.as_node(lhs, e.span),
                        self.as_node(rhs, e.span), span=e.span)

    def cond(self, e: n.Cond, ctx: _SpecCtx) -> Value | n.Expr:
        c = self.rexpr(e.cond, ctx)
        if not isinstance(c, n.Expr):
            return self.rexpr(e.then_expr if truth(c, e.span)
                              else e.else_expr, ctx)
        t = self.as_node(self.rexpr(e.then_expr, ctx), e.span)
        f = self.as_node(self.rexpr(e.else_expr, ctx), e.span)
        return n.Cond(c, t, f, span=e.span)

    def subscript(self, e: n.Subscript, ctx: _SpecCtx) -> n.Expr:
        base = self.rexpr(e.base, ctx)
        if not isinstance(base, n.Expr):
            raise LiftError(flatten.STATIC_BASE_MESSAGE, e.span)
        index = self.as_node(self.rexpr(e.index, ctx), e.span)
        return n.Subscript(base, index, span=e.span)

    def call(self, e: n.Call, ctx: _SpecCtx) -> n.Expr:
        """A dynamic call.  Its arguments are residualized before its
        callee is named, so the callees of a nested call come first."""
        statics = []
        if e.static_args is not None:
            statics = [self.interp.eval_expr(a, ctx.env)
                       for a in e.static_args]
        elif e.at_count >= 1:
            # multi-level: executes at a later (still static) stage
            return n.Call(e.callee, self.residual_args(e, ctx),
                          at_count=e.at_count, span=e.span)
        args = self.residual_args(e, ctx)
        callee = self.resolve(e.callee, statics, args, ctx.names.types, e.span)
        return n.Call(callee, args, span=e.span)

    def residual_args(self, e: n.Call, ctx: _SpecCtx) -> list:
        return [self.as_node(self.rexpr(a, ctx), e.span) for a in e.args]


# Handlers by exact node class; each takes (specializer, node, ctx) and a
# statement handler also the residual list it appends to.  ``rexpr``
# evaluates every stage-0 expression itself, so ``_REXPR`` holds the
# dynamic handlers only: literals and type literals are always stage 0.
_STMT = {
    n.VarDecl: _Specializer.var_decl,
    n.Assign: _Specializer.assign,
    n.ExprStmt: _Specializer.expr_stmt,
    n.Return: _Specializer.return_stmt,
    n.Block: _Specializer.block,
    n.If: _Specializer.if_stmt,
    n.For: _Specializer.for_stmt,
    n.Switch: _Specializer.switch_stmt,
}

_REXPR = {
    n.VarRef: _Specializer.var_ref,
    n.Unary: _Specializer.unary,
    n.Incr: _Specializer.incr,
    n.Binary: _Specializer.binary,
    n.Cond: _Specializer.cond,
    n.Subscript: _Specializer.subscript,
    n.Call: _Specializer.call,
}


# ---------------------------------------------------------------------------
# Public operations


def specialize_function(fn: n.FunctionDef, static_args: list,
                        cache: SpecializationCache) -> ResidualFunction:
    return _Specializer(cache).specialize_function(fn, list(static_args))


def specialize_class(cls: n.ClassDef, static_args: list,
                     cache: SpecializationCache) -> ResidualClass:
    return _Specializer(cache).specialize_class(cls, list(static_args))


def specialize_program(staged: StagedAST, entry: str | None = None,
                       entry_static_args: list | None = None,
                       limits: EvalLimits | None = None,
                       cache: SpecializationCache | None = None,
                       via_flatten: bool = False) -> ResidualProgram:
    """Specialize a whole program: global statements are processed in
    order (static ones evaluated, dynamic ones residualized), then the
    entry function is specialized with the given static arguments; the
    residual contains the transitive closure of needed specializations,
    compressed (``compress``) when it is single-level code.  ``cache.order``
    keeps every unit made."""
    cache = cache or SpecializationCache(staged, limits)
    old_limit = raise_recursion_limit(cache.limits.max_depth)
    try:
        spec = _Specializer(cache)
        ctx = _SpecCtx(cache.globals, NameSupply())
        top_res: list = []
        for item in staged.program.items:
            if isinstance(item, n.Stmt):
                spec.stmt(item, ctx, top_res)
        entry_name = None
        if entry is not None:
            static_args = list(entry_static_args or [])
            fn = cache.functions.get((entry, len(static_args)))
            if fn is not None:
                entry_name = spec.specialize_function(fn, static_args,
                                                      via_flatten).name
            elif entry in cache.classes:
                cls = cache.classes[entry]
                if via_flatten:
                    raise FlattenUnsupported("class types do not flatten",
                                             cls.span)
                entry_name = spec.specialize_class(cls, static_args).name
            else:
                raise UnboundVariable(
                    f"no function '{entry}' taking {len(static_args)} static "
                    "argument(s) and no class of that name")
        comments = {unit.name: unit.comment for unit in cache.order}
        bindings = [(name, slot.value)
                    for name, slot in cache.globals.slots.items()
                    if slot.residual is None]
        rp = ResidualProgram(list(cache.order), top_res, entry_name,
                             comments, bindings)
        if staged.levels == 2:  # a deeper residual is specialized again
            from .compress import compress
            rp = compress(rp, cache.sites)
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
