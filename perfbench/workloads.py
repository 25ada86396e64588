"""Seeded workloads and their compiler-independent oracles.

A workload turns ``(seed, pass index)`` into one *pass*: a list of jobs
whose mix of programs and sizes is the same on every seed, so that the
figures of two seeds are comparable, while the data (token streams, static
sizes within their stratum, array contents) come from the seed.  Every job
carries the outcome expected for each step, computed here in plain Python
or with ``dsl_reference_eval``; nothing here calls the compiler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Outcome kinds an oracle can expect.
INT_RESULT = "int"
FLOAT_RESULT = "float"
CATAT_ERROR = "catat-error"

FLOAT_REL_TOL = 1e-12

# Defects of the library that some workload inputs hit today.  Each entry
# names the step where it shows, the exception type and a part of its
# message.  A job marked with a defect still expects the correct outcome;
# producing this signature instead counts against ``fail_ratio`` but is not
# an unexpected failure.
KNOWN_DEFECTS = {
    # dsl_program's `if@ ... Catat_error@("...trailing tokens")` leaks the
    # message as a StrV into residual typing instead of raising CatatError.
    "dsl-trailing-tokens": ("compile", "TypeError", "untypable value StrV"),
    # The flattening route does not rename locals of unrolled bodies, so
    # the residual of `windowed` declares `int t` once per iteration.
    "flatten-redeclared-local": ("run", "TypeMismatch",
                                 "redeclaration of 't'"),
}


@dataclass
class Expect:
    kind: str                 # INT_RESULT, FLOAT_RESULT or CATAT_ERROR
    value: object = None      # the number for result kinds


@dataclass
class Job:
    label: str                # program and size, for messages
    source: str               # key into the sources read at set-up
    entry: str
    static: list              # static arguments (catat values)
    inputs: list              # dynamic argument lists (catat values)
    expect: list              # one Expect per input
    via_flatten: bool = False
    compile_error: bool = False   # specialization is expected to raise
    defect: str | None = None     # KNOWN_DEFECTS key this input hits today


@dataclass
class Workload:
    name: str
    sources: tuple            # corpus files the jobs compile
    make_pass: object         # (catat, corpus, seed, index, tiny) -> jobs


GOLDEN = (5 ** 0.5 - 1) / 2


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def pass_phase(seed: int, index: int) -> float:
    """Where in its stratum pass ``index`` draws each size: a seeded start
    advanced by the golden ratio each pass, so that the sizes of a few
    passes spread evenly over every stratum whatever the seed."""
    return (random.Random(seed).random() + index * GOLDEN) % 1.0


def stratified(phase: float, bounds: tuple, count: int,
               log: bool = False) -> list:
    """``count`` integer sizes from ``bounds``, one at ``phase`` within
    each of ``count`` equal strata (of the logarithm with ``log``), so
    every pass covers the whole range."""
    lo, hi = bounds
    out = []
    for i in range(count):
        u = (i + phase) / count
        out.append(round(lo * (hi / lo) ** u if log else lo + (hi - lo) * u))
    return out


# ---------------------------------------------------------------------------
# The expression-language interpreter (first Futamura projection)

DSL_OPS = (4, 18)              # range of binary operators per program
DSL_OPS_TINY = (2, 4)
DSL_PER_PASS = 9               # well-formed programs per pass
DSL_INPUTS = (-2, 1, 3)        # values of `in` each residual is run on
DSL_MALFORMED = ("trailing", "bad-factor", "unclosed")


def dsl_text(rng: random.Random, ops: int) -> str:
    """A random program with exactly ``ops`` binary operators.

    Splitting the operators at random between the two operands gives
    nesting of about 2 log2(ops) levels, deeper than the depth-4 programs
    of the acceptance suite.  With at most 18 operators and leaves of
    magnitude at most 9, no intermediate value leaves the 64-bit range
    (9**19 < 2**63)."""
    def gen(k: int, depth: int) -> str:
        if k == 0:
            return "in" if rng.random() < 0.5 else str(rng.randint(0, 9))
        left = rng.randint(0, k - 1)
        body = f"{gen(left, depth + 1)} {rng.choice('+*')} " \
               f"{gen(k - 1 - left, depth + 1)}"
        return f"({body})" if depth > 0 else body

    return gen(ops, 0)


def malform(rng: random.Random, text: str, kind: str) -> str:
    if kind == "trailing":
        return f"{text} {rng.choice(['in', str(rng.randint(0, 9))])}"
    if kind == "bad-factor":
        return f"* {text}"
    return f"({text}"          # unclosed parenthesis


def dsl_pass(cat, corpus, seed: int, index: int, tiny: bool) -> list:
    rng = pass_rng(seed, index)
    sizes = stratified(pass_phase(seed, index),
                       DSL_OPS_TINY if tiny else DSL_OPS,
                       3 if tiny else DSL_PER_PASS)
    texts = [(dsl_text(rng, ops), None) for ops in sizes]
    # A tenth of the streams must be rejected at specialization with a
    # CatatError; successive passes take the malformed kinds in turn.
    kind = DSL_MALFORMED[index % len(DSL_MALFORMED)]
    texts.append((malform(rng, dsl_text(rng, rng.choice(sizes)), kind),
                  kind))
    rng.shuffle(texts)
    jobs = []
    for text, kind in texts:
        toks, count = corpus.encode_dsl(text)
        inputs = [[cat.IntV(v)] for v in DSL_INPUTS]
        try:
            expect = [Expect(INT_RESULT, corpus.dsl_reference_eval(text, v))
                      for v in DSL_INPUTS]
            malformed = False
        except ValueError:
            expect = [Expect(CATAT_ERROR) for _ in DSL_INPUTS]
            malformed = True
        jobs.append(Job(
            f"dsl[{text}]", "dsl_interp.cat", "dsl_program", [toks, count],
            inputs, expect, compile_error=malformed,
            defect="dsl-trailing-tokens" if kind == "trailing" else None))
    return jobs


# ---------------------------------------------------------------------------
# Plain-Python oracles for the numeric corpus functions


def dot_oracle(a: list, b: list):
    result = 0
    for x, y in zip(a, b):
        result += x * y
    return result


def pow_oracle(x: float, n: int) -> float:
    result = 1.0
    for _ in range(n):
        result *= x
    return result


def windowed_oracle(a: list, n: int) -> int:
    return sum(a[i] * 2 for i in range(n))


def average_oracle(a: list) -> float:
    total = 0.0
    for x in a:
        total += x
    return total / len(a)


# ---------------------------------------------------------------------------
# Job builders shared by the numeric workloads

UNROLL_N = (200, 2500)             # range of the static N
UNROLL_N_TINY = (4, 12)
UNROLL_PER_PASS = 3                # jobs per function and pass
AVERAGE_LENGTHS = (1500, 2700)     # array length drawn in this range
AVERAGE_LENGTHS_TINY = (20, 40)
FLATTEN_AVERAGE_LENGTHS = (500, 1000)
RUNS_PER_JOB = 2


def _ints(cat, rng, count, lo=-1000, hi=1000):
    raw = [rng.randint(lo, hi) for _ in range(count)]
    return raw, [cat.IntV(x) for x in raw]


def _floats(cat, rng, count):
    raw = [rng.uniform(-1.0, 1.0) for _ in range(count)]
    return raw, [cat.FloatV(x) for x in raw]


def dot_job(cat, rng, n: int, tname: str, via_flatten: bool) -> Job:
    tv = {"int": cat.values.INT, "float": cat.values.FLOAT,
          "double": cat.values.DOUBLE}[tname]
    inputs, expect = [], []
    for _ in range(RUNS_PER_JOB):
        if tname == "int":
            (ra, a), (rb, b) = _ints(cat, rng, n), _ints(cat, rng, n)
        else:
            (ra, a), (rb, b) = _floats(cat, rng, n), _floats(cat, rng, n)
        inputs.append([cat.ArrayV(tv, a), cat.ArrayV(tv, b)])
        expect.append(Expect(INT_RESULT if tname == "int" else FLOAT_RESULT,
                             dot_oracle(ra, rb)))
    return Job(f"dot({n},{tname})", "dot.cat", "dot", [cat.IntV(n), tv],
               inputs, expect, via_flatten=via_flatten)


def pow_job(cat, rng, n: int, via_flatten: bool) -> Job:
    xs = [rng.uniform(0.999, 1.001) for _ in range(RUNS_PER_JOB)]
    return Job(f"pow({n})", "pow_two_level.cat", "pow", [cat.IntV(n)],
               [[cat.FloatV(x)] for x in xs],
               [Expect(FLOAT_RESULT, pow_oracle(x, n)) for x in xs],
               via_flatten=via_flatten)


def windowed_job(cat, rng, n: int, via_flatten: bool) -> Job:
    inputs, expect = [], []
    for _ in range(RUNS_PER_JOB):
        raw, a = _ints(cat, rng, n)
        inputs.append([cat.ArrayV(cat.values.INT, a)])
        expect.append(Expect(INT_RESULT, windowed_oracle(raw, n)))
    return Job(f"windowed({n})", "unroll_locals.cat", "windowed",
               [cat.IntV(n)], inputs, expect, via_flatten=via_flatten,
               defect="flatten-redeclared-local" if via_flatten else None)


def average_job(cat, rng, tname: str, lengths: tuple,
                via_flatten: bool) -> Job:
    tv = {"int": cat.values.INT, "float": cat.values.FLOAT,
          "long int": cat.values.LONG_INT}[tname]
    inputs, expect = [], []
    for _ in range(RUNS_PER_JOB):
        count = rng.randint(*lengths)
        if tname == "float":
            raw, cells = _floats(cat, rng, count)
        else:
            raw, cells = _ints(cat, rng, count, 0, 1000)
        inputs.append([cat.ArrayV(tv, cells), cat.IntV(count)])
        expect.append(Expect(FLOAT_RESULT, average_oracle(raw)))
    return Job(f"average({tname})", "average.cat", "average", [tv],
               inputs, expect, via_flatten=via_flatten)


def unroll_jobs(cat, rng, phase: float, tiny: bool,
                via_flatten: bool) -> list:
    span = UNROLL_N_TINY if tiny else UNROLL_N
    makers = [lambda n, t=t: dot_job(cat, rng, n, t, via_flatten)
              for t in ("int", "float", "double")]
    makers += [lambda n: pow_job(cat, rng, n, via_flatten),
               lambda n: windowed_job(cat, rng, n, via_flatten)]
    jobs = []
    for k, make in enumerate(makers):
        # each function gets its own phase within the strata
        sizes = stratified((phase + k / len(makers)) % 1.0, span,
                           UNROLL_PER_PASS, log=True)
        jobs += [make(n) for n in sizes]
    rng.shuffle(jobs)
    return jobs


def loop_pass(cat, corpus, seed: int, index: int, tiny: bool) -> list:
    rng = pass_rng(seed, index)
    lengths = AVERAGE_LENGTHS_TINY if tiny else AVERAGE_LENGTHS
    return [average_job(cat, rng, t, lengths, False)
            for t in ("int", "float", "long int")]


def unroll_pass(cat, corpus, seed: int, index: int, tiny: bool) -> list:
    return unroll_jobs(cat, pass_rng(seed, index), pass_phase(seed, index),
                       tiny, False)


def flatten_pass(cat, corpus, seed: int, index: int, tiny: bool) -> list:
    rng = pass_rng(seed, index)
    lengths = AVERAGE_LENGTHS_TINY if tiny else FLATTEN_AVERAGE_LENGTHS
    jobs = unroll_jobs(cat, rng, pass_phase(seed, index), tiny, True)
    jobs += [average_job(cat, rng, t, lengths, True)
             for t in ("int", "float", "long int")]
    rng.shuffle(jobs)
    return jobs


UNROLL_SOURCES = ("dot.cat", "pow_two_level.cat", "unroll_locals.cat")

# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("futamura_dsl", ("dsl_interp.cat",), dsl_pass),
    Workload("loop_residual", ("average.cat",), loop_pass),
    Workload("unroll_wide", UNROLL_SOURCES, unroll_pass),
    Workload("flatten_route", UNROLL_SOURCES + ("average.cat",),
             flatten_pass),
)}
