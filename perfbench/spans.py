"""In-memory span tracing installed from outside the library.

Wrappers replace the public functions at the module attributes their
callers look up, only for the traced phase, and are removed afterwards.
Each span records its name, job id, parent and clock readings; a layer's
self time is its span's duration minus the time covered by its child
spans.  Cheap, frequent calls (memo lookups, nested interpreter calls)
update counters instead of opening spans.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

clock = time.perf_counter

# Span names whose self time is reported as each per-layer metric.
LAYER_SPANS = {
    "lexer.self_s": ("lexer.tokenize",),
    "parser.self_s": ("parser.parse",),
    "staging.check_s": ("staging.check",),
    "staging.recheck_s": ("staging.recheck",),
    "specializer.self_s": ("specializer.specialize_program",),
    "staticeval.compile_time_s": ("staticeval.compile_call",),
    "staticeval.run_time_s": ("staticeval.run_call",),
    "dyninterp.run_self_s": ("dyninterp.run", "dyninterp.run_unstaged"),
    "dyninterp.erase_s": ("dyninterp.erase_stages",),
    "flatten.flatten_s": ("flatten.flatten_function",),
    "flatten.generator_s": ("flatten.generator",),
    "flatten.materialize_s": ("flatten.materialize",),
    "emitter.self_s": ("emitter.emit",),
    "harness.self_s": ("harness.job",),
}

_CALL_SPANS = ("staticeval.compile_call", "staticeval.run_call",
               "flatten.generator")


class Tracer:
    def __init__(self):
        self.spans: list = []       # [name, job, parent, start, end]
        self.stack: list = []       # indices of open spans
        self.phases: list = []      # "compile" / "run" of enclosing calls
        self.job = None
        self.counts: Counter = Counter()
        self.generators: dict = {}   # id -> flattened generator def
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.job, parent, clock(), None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = clock()
        self.stack.pop()

    def call(self, name, fn, args, kwargs, phase=None):
        index = self.open(name)
        if phase:
            self.phases.append(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            if phase:
                self.phases.pop()
            self.close(index)

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for i, (name, _, _, start, end) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def root_time(self) -> float:
        return sum(end - start for _, _, parent, start, end in self.spans
                   if parent is None)

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, cat) -> None:
        """Wrap the library's public entry points for the traced phase."""
        tr = self
        count = self.counts

        def spanned(name, fn, phase=None, after=None):
            def wrapper(*args, **kwargs):
                result = tr.call(name, fn, args, kwargs, phase)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper

        def tokens(args, kwargs, result):
            count["lexer.tokens"] += len(result)

        def parsed(args, kwargs, result):
            count["parser.bytes"] += len(args[0].encode())

        def emitted(args, kwargs, result):
            count["emitter.bytes"] += len(result.encode())

        def stepped(args, kwargs, result):
            count["dyninterp.steps"] += result.steps

        def flattened(args, kwargs, result):
            tr.generators[id(result)] = result   # keeps the id unique

        check_stages = cat.staging.check_stages

        def check_wrapper(program, levels=2):
            name = "staging.check" if levels >= 2 else "staging.recheck"
            return tr.call(name, check_stages, (program, levels), {})

        call_function = cat.staticeval.Interpreter.call_function

        def call_wrapper(interp, fn, args, span=None):
            phase = tr.phases[-1] if tr.phases else "run"
            count[phase + "_calls"] += 1
            if tr.stack and tr.spans[tr.stack[-1]][0] in _CALL_SPANS:
                # nested call: its time belongs to the outermost call span
                return call_function(interp, fn, args, span)
            if id(fn) in tr.generators:
                name = "flatten.generator"
            elif phase == "compile":
                name = "staticeval.compile_call"
            else:
                name = "staticeval.run_call"
            return tr.call(name, call_function, (interp, fn, args, span), {})

        cache = cat.specializer.SpecializationCache
        lookup, complete = cache.lookup, cache.complete

        def lookup_wrapper(self, key):
            entry = lookup(self, key)
            count["specializer.memo_lookups"] += 1
            count["specializer.memo_hits"] += entry is not None
            return entry

        def complete_wrapper(self, key, entity):
            count["specializer.units"] += 1
            return complete(self, key, entity)

        run = spanned("dyninterp.run", cat.dyninterp.run, "run", stepped)
        for owner, attr, wrapper in (
            (cat.parser, "tokenize",
             spanned("lexer.tokenize", cat.parser.tokenize, after=tokens)),
            (cat, "parse", spanned("parser.parse", cat.parse, after=parsed)),
            (cat, "check_stages", check_wrapper),
            (cat.dyninterp, "check_stages", check_wrapper),
            (cat, "specialize_program",
             spanned("specializer.specialize_program",
                     cat.specialize_program, "compile")),
            (cache, "lookup", lookup_wrapper),
            (cache, "complete", complete_wrapper),
            (cat.staticeval.Interpreter, "call_function", call_wrapper),
            (cat.flatten, "flatten_function",
             spanned("flatten.flatten_function", cat.flatten.flatten_function,
                     after=flattened)),
            (cat.flatten, "materialize",
             spanned("flatten.materialize", cat.flatten.materialize)),
            (cat, "emit", spanned("emitter.emit", cat.emit, after=emitted)),
            (cat, "run", run),
            (cat.dyninterp, "run", run),
            (cat, "run_unstaged",
             spanned("dyninterp.run_unstaged", cat.run_unstaged, "run")),
            (cat.dyninterp, "erase_stages",
             spanned("dyninterp.erase_stages", cat.dyninterp.erase_stages)),
        ):
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-layer metrics -----------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer figures, times and counts as means per job."""
        selfs = self.self_times()
        c = self.counts
        m = {name: sum(selfs.get(s, 0.0) for s in spans) / jobs
             for name, spans in LAYER_SPANS.items()}

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        lexer_s = selfs.get("lexer.tokenize", 0.0)
        parser_s = selfs.get("parser.parse", 0.0)
        emit_s = selfs.get("emitter.emit", 0.0)
        interp_s = selfs.get("staticeval.run_call", 0.0) + sum(
            selfs.get(s, 0.0) for s in LAYER_SPANS["dyninterp.run_self_s"])
        m.update({
            "lexer.tokens": c["lexer.tokens"] / jobs,
            "lexer.tokens_per_s": rate(c["lexer.tokens"], lexer_s),
            "parser.kb_per_s": rate(c["parser.bytes"] / 1e3, parser_s),
            "specializer.units": c["specializer.units"] / jobs,
            "specializer.memo_lookups": c["specializer.memo_lookups"] / jobs,
            "specializer.memo_hit_ratio": rate(
                c["specializer.memo_hits"], c["specializer.memo_lookups"]),
            "staticeval.compile_time_calls": c["compile_calls"] / jobs,
            "dyninterp.steps": c["dyninterp.steps"] / jobs,
            "dyninterp.steps_per_s": rate(c["dyninterp.steps"], interp_s),
            "emitter.kb_per_s": rate(c["emitter.bytes"] / 1e3, emit_s),
            "harness.job_wall_s": self.root_time() / jobs,
        })
        return m
