"""A fixed pure-Python reference kernel that tracks the host's speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, in CPU time as well as in wall time.  Every
wall-time figure of a run moves with that drift, and seeds hardly change
the work, so run-to-run spreads come from the host.  The harness
therefore times this kernel just before every job and reports times
scaled to a host on which one kernel call takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / mean(kernel times near the job)

The kernel does the kind of work the library does (tokenize a text, parse
it into a tree, walk the tree with an environment, allocate small objects)
but shares no code with it, so a change to the library moves the scaled
figures and a change of host speed does not.
"""

from __future__ import annotations

import gc
import statistics
import time

# One kernel call on a 2.1 GHz Xeon VM (Python 3.11.7) at a quiet time.
REFERENCE_S = 0.0025

WINDOW = 5      # kernel samples on each side of a job that set its scale

_TEXT = " ; ".join(
    f"x{i % 7} = ( x{(3 * i) % 7} + {i} ) * ( x{(5 * i) % 7} - {i % 11} )"
    for i in range(24))


class _Value:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v


def _tokenize(text: str) -> list:
    return [(word, word.isdigit()) for word in text.split()]


class _Parser:
    """Recursive descent over the tokens; no closures, so no cycles."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.position = 0

    def atom(self):
        word, number = self.tokens[self.position]
        self.position += 1
        if word == "(":
            node = self.expr()
            self.position += 1        # ")"
            return node
        return ("num", int(word)) if number else ("var", word)

    def expr(self):
        node = self.atom()
        while self.position < len(self.tokens) and \
                self.tokens[self.position][0] in "+-*":
            op = self.tokens[self.position][0]
            self.position += 1
            node = (op, node, self.atom())
        return node

    def statements(self) -> list:
        result = []
        while self.position < len(self.tokens):
            target = self.tokens[self.position][0]
            self.position += 2        # name, "="
            result.append((target, self.expr()))
            self.position += 1        # ";"
        return result


def _eval(node, env: dict) -> _Value:
    kind = node[0]
    if kind == "num":
        return _Value(node[1])
    if kind == "var":
        return env[node[1]]
    left, right = _eval(node[1], env).v, _eval(node[2], env).v
    if kind == "+":
        return _Value(left + right)
    if kind == "-":
        return _Value(left - right)
    return _Value(left * right % 1000003)


def kernel() -> int:
    """One unit of fixed reference work; returns a checksum."""
    total = 0
    for _ in range(3):
        env = {f"x{i}": _Value(i) for i in range(7)}
        for _ in range(4):
            for target, tree in _Parser(_tokenize(_TEXT)).statements():
                env[target] = _eval(tree, env)
        total += sum(value.v for value in env.values())
    return total


_CHECKSUM = kernel()


def sample(clock=time.perf_counter) -> float:
    """Seconds that one kernel call takes now.  The collector is off while
    it runs, so the time does not depend on the size of the heap around
    it; the kernel leaves no cycles behind."""
    gc.disable()
    try:
        start = clock()
        checksum = kernel()
        elapsed = clock() - start
    finally:
        gc.enable()
    assert checksum == _CHECKSUM
    return elapsed


def factors(samples: list) -> list:
    """For each kernel sample, the scale of the work timed next to it:
    REFERENCE_S over the mean of the samples within WINDOW of it.  The
    mean, not the median: when the host takes the CPU away in slices, a
    short sample is either hit or not, and only the mean follows the share
    of time lost."""
    return [REFERENCE_S / statistics.fmean(
                samples[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(samples))]
