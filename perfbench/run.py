"""Benchmark of the check -> specialize -> emit -> run pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

One process, one thread, one caller in a closed loop: each job starts after
the previous one ends.  A job compiles (parse, check_stages, specialize,
emit), reloads the emitted text (parse, check_stages(levels=1)), runs the
residual on each dynamic input and runs the unstaged program on the same
inputs.  Every outcome is checked against a compiler-independent oracle.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it first runs untraced for half the time, then runs the same
passes again with wrappers installed around the library's layers and
reports per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
from spans import LAYER_SPANS, Tracer, clock  # noqa: E402
from workloads import (  # noqa: E402
    CATAT_ERROR, FLOAT_REL_TOL, FLOAT_RESULT, INT_RESULT, KNOWN_DEFECTS,
    WORKLOADS,
)

DEFAULT_SEED = 1
HOLDOUT_SEED = 7919      # kept out of tuning; use it to confirm a claim
SETUP_REPEATS = 15
TAIL_BEYOND = 10         # samples beyond the tail percentile

# Unit of every end-to-end metric in the JSON result.
END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s",
    "compile_ms_p50": "ms", "compile_ms_tail": "ms", "reload_ms_p50": "ms",
    "run_ms_p50": "ms", "run_ms_tail": "ms", "unstaged_ms_p50": "ms",
    "speedup": "ratio", "step_ratio": "ratio", "residual_kb": "kB",
    "peak_rss_mb": "MB", "pass_ratio": "ratio",
}

# Unit of every per-layer metric in the JSON result.
PER_LAYER = {
    "lexer.self_s": "s", "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.self_s": "s", "parser.kb_per_s": "kB/s",
    "staging.check_s": "s", "staging.recheck_s": "s",
    "specializer.self_s": "s", "specializer.units": "count",
    "specializer.memo_lookups": "count",
    "specializer.memo_hit_ratio": "ratio",
    "staticeval.compile_time_s": "s",
    "staticeval.compile_time_calls": "count",
    "staticeval.run_time_s": "s",
    "dyninterp.run_self_s": "s", "dyninterp.erase_s": "s",
    "dyninterp.steps": "count", "dyninterp.steps_per_s": "1/s",
    "flatten.flatten_s": "s", "flatten.generator_s": "s",
    "flatten.materialize_s": "s",
    "emitter.self_s": "s", "emitter.kb_per_s": "kB/s",
    "harness.self_s": "s", "harness.job_wall_s": "s",
    "harness.trace_overhead": "ratio",
}


class SetupError(Exception):
    pass


def import_catat():
    """Import the library from this checkout's ``src``, afresh each time
    (so that set-up time includes the import)."""
    package = ROOT / "src" / "catat" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no catat sources at {package.parent}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    for name in [m for m in sys.modules
                 if m == "catat" or m.startswith("catat.")]:
        del sys.modules[name]
    cat = importlib.import_module("catat")
    if Path(cat.__file__).resolve() != package.resolve():
        raise SetupError(f"imported catat from {cat.__file__}, "
                         f"not {package}")
    return cat


@dataclass
class Context:
    cat: object
    corpus: object
    sources: dict
    workload: object
    seed: int
    tiny: bool
    first_pass: list

    def make_pass(self, index: int) -> list:
        if index == 0:
            return self.first_pass
        return self.workload.make_pass(self.cat, self.corpus, self.seed,
                                       index, self.tiny)


def set_up(workload, seed: int, tiny: bool) -> Context:
    """Import catat, read the sources, generate the first pass's inputs
    and their oracle answers."""
    cat = import_catat()
    corpus = importlib.import_module("catat.corpus")
    sources = {name: corpus.corpus_path(name).read_text(encoding="utf-8")
               for name in workload.sources}
    first = workload.make_pass(cat, corpus, seed, 0, tiny)
    return Context(cat, corpus, sources, workload, seed, tiny, first)


# ---------------------------------------------------------------------------
# Running and checking jobs


@dataclass
class Stats:
    # latency samples as (job index, ms); job walls and kernel samples are
    # indexed by job
    compile_ms: list = field(default_factory=list)
    reload_ms: list = field(default_factory=list)
    run_ms: list = field(default_factory=list)
    unstaged_ms: list = field(default_factory=list)
    job_walls: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)  # taken before each job
    paired_run_s: float = 0.0        # residual and unstaged time over the
    paired_unstaged_s: float = 0.0   # inputs where both gave the answer
    attempted: int = 0
    failed: int = 0                  # wrong and not a known defect
    defects: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    passes: int = 0
    residual_bytes: int = 0
    residual_steps: int = 0          # over the inputs where both sides
    unstaged_steps: int = 0          # gave the answer
    # the determinism fingerprint: the first pass's residual texts, step
    # counts and error categories
    digest: object = field(default_factory=hashlib.sha256)
    first_steps: list = field(default_factory=lambda: [0, 0])

    def record(self, job, step: str, ok: bool, exc) -> bool:
        self.attempted += 1
        if ok:
            return True
        defect = KNOWN_DEFECTS.get(job.defect)
        if defect is not None and exc is not None and \
                defect[:2] == (step, type(exc).__name__) and \
                defect[2] in str(exc):
            self.defects[job.defect] = self.defects.get(job.defect, 0) + 1
        else:
            self.failed += 1
            if len(self.failures) < 10:
                got = f"{type(exc).__name__}: {exc}" if exc else "wrong value"
                self.failures.append(f"{job.label} {step}: {got}")
        return False

    @property
    def fail_ratio(self) -> float:
        return (self.failed + sum(self.defects.values())) / self.attempted


def matches(cat, expect, result, exc) -> bool:
    if expect.kind == CATAT_ERROR:
        return isinstance(exc, cat.CatatError)
    if exc is not None:
        return False
    value = result.value
    if expect.kind == INT_RESULT:
        return isinstance(value, cat.IntV) and value.value == expect.value
    assert expect.kind == FLOAT_RESULT
    return isinstance(value, cat.FloatV) and \
        math.isclose(value.value, expect.value, rel_tol=FLOAT_REL_TOL)


def timed(fn, *args, **kwargs):
    """(result, exception, seconds) of one call."""
    start = clock()
    try:
        result, exc = fn(*args, **kwargs), None
    except Exception as error:    # every outcome is checked by the caller
        result, exc = None, error
    return result, exc, clock() - start


def compile_job(cat, source: str, job, parts: list) -> None:
    """Appends the staged program, the residual and its text to ``parts``
    as each becomes available."""
    parts.append(cat.check_stages(cat.parse(source), 2))
    parts.append(cat.specialize_program(parts[0], job.entry, job.static,
                                        via_flatten=job.via_flatten))
    parts.append(cat.emit(parts[1]))


def reload(cat, text: str):
    return cat.check_stages(cat.parse(text), 1)


def run_job(ctx: Context, job, stats: Stats, first_pass: bool) -> None:
    cat = ctx.cat
    digest = stats.digest if first_pass else None
    index = len(stats.job_walls)
    started = clock()
    parts: list = []
    _, exc, seconds = timed(compile_job, cat, ctx.sources[job.source], job,
                            parts)
    ok = isinstance(exc, cat.CatatError) if job.compile_error \
        else exc is None
    if stats.record(job, "compile", ok, exc):
        stats.compile_ms.append((index, seconds * 1e3))
    if digest is not None:
        digest.update(f"{job.label}\0{type(exc).__name__}\0".encode())
    if not parts:                  # the two-level source did not check
        stats.job_walls.append(clock() - started)
        return
    staged, residual = parts[0], None
    if exc is None:
        residual, text = parts[1], parts[2]
        stats.residual_bytes += len(text.encode())
        if digest is not None:
            digest.update(text.encode())
        _, exc, seconds = timed(reload, cat, text)
        if stats.record(job, "reload", exc is None, exc):
            stats.reload_ms.append((index, seconds * 1e3))
    # without a residual the unstaged side still runs: its error category
    # is checked against the oracle
    for args, expect in zip(job.inputs, job.expect):
        run_ok = False
        if residual is not None:
            res, exc, run_s = timed(cat.run, residual, residual.entry_name,
                                    args)
            run_ok = stats.record(job, "run", matches(cat, expect, res, exc),
                                  exc)
            if run_ok:
                stats.run_ms.append((index, run_s * 1e3))
            if digest is not None:
                digest.update(f"{res.steps if res else exc!r}\0".encode())
                stats.first_steps[0] += res.steps if res else 0
        unst, exc, unst_s = timed(cat.run_unstaged, staged.program,
                                  job.entry, list(job.static) + list(args))
        unst_ok = stats.record(job, "unstaged",
                               matches(cat, expect, unst, exc), exc)
        if unst_ok:
            stats.unstaged_ms.append((index, unst_s * 1e3))
        if digest is not None:
            digest.update(f"{unst.steps if unst else exc!r}\0".encode())
            stats.first_steps[1] += unst.steps if unst else 0
        if run_ok and unst_ok:
            stats.paired_run_s += run_s
            stats.paired_unstaged_s += unst_s
            stats.residual_steps += res.steps
            stats.unstaged_steps += unst.steps
    stats.job_walls.append(clock() - started)


def run_pass(ctx: Context, jobs: list, stats: Stats, first_pass: bool,
             tracer: Tracer | None = None) -> None:
    for job in jobs:
        stats.kernel_s.append(calibrate.sample(clock))
        if tracer is None:
            run_job(ctx, job, stats, first_pass)
            continue
        tracer.job = len(stats.job_walls)
        root = tracer.open("harness.job")
        try:
            run_job(ctx, job, stats, first_pass)
        finally:
            tracer.close(root)


def measure(ctx: Context, seconds: float, stats: Stats,
            traced: Stats | None = None,
            tracer: Tracer | None = None) -> None:
    """Run whole passes until the next one would end after ``seconds``.
    With a tracer, each pass runs untraced into ``stats`` and then again
    traced into ``traced``, so that both sides see the same inputs at the
    same warmth."""
    start = clock()
    done = 0
    while True:
        pass_start = clock()
        # Collect the previous pass's garbage, then exempt the harness's own
        # data (modules, this pass's inputs) from later collections, so the
        # library's collector pauses do not scale with the harness's heap.
        gc.collect()
        jobs = ctx.make_pass(done)
        gc.freeze()
        run_pass(ctx, jobs, stats, done == 0)
        if tracer is not None:
            tracer.install(ctx.cat)
            try:
                run_pass(ctx, jobs, traced, done == 0, tracer)
            finally:
                tracer.uninstall()
        done += 1
        stats.passes = done
        if traced is not None:
            traced.passes = done
        if clock() - start + (clock() - pass_start) > seconds:
            return


# ---------------------------------------------------------------------------
# Metrics


def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND + 1)-th largest sample, or the
    maximum when there are too few samples for that to lie above the
    median."""
    xs = sorted(samples)
    if len(xs) < 2 * (TAIL_BEYOND + 1):
        return xs[-1], 100.0
    return xs[-(TAIL_BEYOND + 1)], 100 * (1 - TAIL_BEYOND / len(xs))


def latencies(stats: Stats, scale: list) -> tuple:
    """(metrics, tail percentiles): the latency metrics with each job's
    times multiplied by its entry of ``scale``."""
    def scaled(samples):
        return [ms * scale[job] for job, ms in samples]

    compile_ms, run_ms = scaled(stats.compile_ms), scaled(stats.run_ms)
    compile_tail, compile_p = tail(compile_ms)
    run_tail, run_p = tail(run_ms)
    walls = sum(wall * f for wall, f in zip(stats.job_walls, scale))
    return {
        "jobs_per_s": len(stats.job_walls) / walls,
        "compile_ms_p50": statistics.median(compile_ms),
        "compile_ms_tail": compile_tail,
        "reload_ms_p50": statistics.median(scaled(stats.reload_ms)),
        "run_ms_p50": statistics.median(run_ms),
        "run_ms_tail": run_tail,
        "unstaged_ms_p50": statistics.median(scaled(stats.unstaged_ms)),
    }, (compile_p, run_p)


def end_to_end(stats: Stats, setup_s: float, raw_setup_s: float) -> tuple:
    """(metrics, notes): metric name -> value, scaled to the reference
    host, and for each time metric its unscaled value, for each tail its
    percentile and sample count."""
    metrics, (compile_p, run_p) = latencies(
        stats, calibrate.factors(stats.kernel_s))
    raw, _ = latencies(stats, [1.0] * len(stats.job_walls))
    raw["setup_s"] = raw_setup_s
    metrics = {
        "setup_s": setup_s,
        **metrics,
        "speedup": stats.paired_unstaged_s / stats.paired_run_s,
        "step_ratio": stats.residual_steps / stats.unstaged_steps,
        "residual_kb": stats.residual_bytes / 1e3 / stats.passes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": 1 - stats.fail_ratio,
    }
    notes = {name: f"unscaled {value:.6f}" for name, value in raw.items()}
    notes["compile_ms_tail"] += f", p{compile_p:.1f} of " \
                                f"{len(stats.compile_ms)} samples"
    notes["run_ms_tail"] += f", p{run_p:.1f} of {len(stats.run_ms)} samples"
    notes["compile_ms_p50"] += f", {len(stats.compile_ms)} samples"
    notes["run_ms_p50"] += f", {len(stats.run_ms)} samples"
    notes["pass_ratio"] = f"fail_ratio {stats.fail_ratio:.6f}"
    return metrics, notes


def report(workload: str, seed: int, stats: Stats, metrics: dict,
           units: dict, notes: dict) -> None:
    print(f"workload {workload}  seed {seed}  passes {stats.passes}  "
          f"jobs {len(stats.job_walls)}  attempted {stats.attempted}")
    print(f"  fingerprint {stats.digest.hexdigest()[:16]}  "
          f"residual_steps {stats.first_steps[0]}  "
          f"unstaged_steps {stats.first_steps[1]}")
    print(f"  fail_ratio {stats.fail_ratio:.6f}  "
          f"(known defects {stats.defects or 'none'}, "
          f"unexpected failures {stats.failed})")
    for line in stats.failures:
        print(f"  FAILED {line}")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6f} {units[name]}{note}")
    kernel_ms = statistics.median(stats.kernel_s) * 1e3
    print(f"  reference kernel: median {kernel_ms:.4f} ms "
          f"over {len(stats.kernel_s)} samples, scaled to "
          f"{calibrate.REFERENCE_S * 1e3:.4f} ms")
    print("  wait time: none in any layer (one caller, no queues)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; confirm "
                    f"claims on the hold-out seed {HOLDOUT_SEED})")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the smoke test")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        setups, kernels = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()           # each set-up starts from the same heap
            kernels.append(calibrate.sample(clock))
            start = clock()
            ctx = set_up(workload, args.seed, args.tiny)
            setups.append(clock() - start)
    except (SetupError, ImportError, OSError) as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2

    stats = Stats()
    if not args.trace:
        measure(ctx, args.seconds, stats)
        setup_s = statistics.median(
            s * f for s, f in zip(setups, calibrate.factors(kernels)))
        metrics, notes = end_to_end(stats, setup_s, statistics.median(setups))
        units = END_TO_END
        report(args.workload, args.seed, stats, metrics, units, notes)
        correct = stats.failed == 0
    else:
        traced = Stats()
        tracer = Tracer()
        measure(ctx, args.seconds, stats, traced, tracer)
        metrics = tracer.layer_metrics(len(traced.job_walls))
        metrics["harness.trace_overhead"] = \
            sum(traced.job_walls) / sum(stats.job_walls) - 1
        units = PER_LAYER
        share = sum(metrics[name] for name in LAYER_SPANS) \
            / metrics["harness.job_wall_s"]
        report(args.workload, args.seed, traced, metrics, units,
               {"harness.job_wall_s":
                f"layer self times sum to {share:.6f} of it"})
        same = traced.digest.hexdigest() == stats.digest.hexdigest()
        print(f"  untraced and traced fingerprints "
              f"{'agree' if same else 'DISAGREE'}")
        correct = stats.failed == traced.failed == 0 and same
        stats.attempted += traced.attempted
        stats.failed += traced.failed
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
