"""Spans and scalar counters for the traced run, recorded from outside
the package.

``Tracer.install`` rebinds the public functions listed in ``LAYERS`` in
every adjreal module that imports them, and wraps ``GaussRat``'s
arithmetic so each scalar operation is counted and its result's bit
length recorded, both credited to the innermost open span.  ``uninstall``
restores the originals.  Spans (name, start, end, parent, element) are
kept in memory; ``self_times`` turns them into per-layer self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of each public function it covers
LAYERS = {
    "matrix.mul": [("adjreal.matrix", "ExactMatrix.__mul__")],
    "matrix.solve": [
        ("adjreal.matrix", "solve_linear"),
        ("adjreal.matrix", "kernel"),
        ("adjreal.matrix", "rank"),
    ],
    "matrix.inverse": [("adjreal.matrix", "inverse")],
    "matrix.det": [("adjreal.matrix", "det")],
    "matrix.eval_poly": [("adjreal.matrix", "eval_poly")],
    "matrix.char_poly": [("adjreal.matrix", "char_poly")],
    "matrix.invariant_factors": [("adjreal.matrix", "invariant_factors")],
    "polynomial.linear_roots": [("adjreal.polynomial", "linear_roots")],
    "polynomial.squarefree": [
        ("adjreal.polynomial", "squarefree_part"),
        ("adjreal.polynomial", "squarefree_decomposition"),
    ],
    "liecore.algebra_member": [("adjreal.liecore", "algebra_member")],
    "jordan.jordan_chevalley": [("adjreal.jordan", "jordan_chevalley")],
    "semisimple.decide_semisimple": [("adjreal.semisimple", "decide_semisimple")],
    "semisimple.witness_general_semisimple": [
        ("adjreal.semisimple", "witness_general_semisimple")
    ],
    "symplectic.sl2_triple": [("adjreal.symplectic", "sl2_triple")],
    "symplectic.chain_decomposition": [("adjreal.symplectic", "chain_decomposition")],
    "symplectic.build_sigma": [("adjreal.symplectic", "build_sigma")],
    "symplectic.build_tau": [("adjreal.symplectic", "build_tau")],
    "symplectic.reverse_full": [("adjreal.symplectic", "reverse_full")],
    "oracle.rcf_invariant_factors": [("adjreal.oracle", "rcf_invariant_factors")],
    "certificates.verify_certificate": [("adjreal.certificates", "verify_certificate")],
    "cli.decide": [("adjreal.cli", "_cmd_decide")],
    "cli.witness": [("adjreal.cli", "_cmd_witness")],
    "cli.verify": [("adjreal.cli", "_cmd_verify")],
    "cli.reverse": [("adjreal.cli", "_cmd_reverse")],
    "cli.parse": [
        ("adjreal.cli", "_load_json_arg"),
        ("adjreal.matrix", "ExactMatrix.from_json"),
        ("adjreal.certificates", "ReverserCertificate.from_json"),
    ],
    "cli.emit": [
        ("adjreal.cli", "_emit"),
        ("adjreal.matrix", "ExactMatrix.to_json"),
    ],
}

# GaussRat methods counted per operation kind.  __rsub__, __rtruediv__,
# inverse and __pow__ reach these through the operators, so they count
# as the operations they perform.
SCALAR_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__sub__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__truediv__": "div",
}

ROOT = "root"
SAMPLE_EVERY = 997
SAMPLE_CAP = 256


def _bits(g) -> int:
    re, im = g.re, g.im
    return max(
        re.numerator.bit_length(),
        re.denominator.bit_length(),
        im.numerator.bit_length(),
        im.denominator.bit_length(),
    )


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, element id]
        self.stack = []
        self.element = None
        self.size_class = None
        self.op_counts = defaultdict(int)  # op kind -> count
        self.max_bits = defaultdict(int)  # (size class, span name) -> bits
        self.calls = defaultdict(int)  # span name -> calls
        self.solve_entries = 0
        self.solve_nonzeros = 0
        self.samples = []  # scalar results sampled for the micro-timing
        self._ops_seen = 0
        self._saved = []
        self._paused = False

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent, self.element])
        self.stack.append(idx)
        self.calls[name] += 1
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = self.clock()
        self.stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside run through unrecorded (the benchmark's checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def current(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ROOT

    def wrap(self, name: str, fn):
        tracer = self
        solve = name == "matrix.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if solve:
                a = args[0]
                tracer.solve_entries += len(a.entries)
                tracer.solve_nonzeros += sum(1 for e in a.entries if not e.is_zero())
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def _scalar(self, kind: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, b):
            out = fn(a, b)
            if out is NotImplemented or tracer._paused:
                return out
            tracer.op_counts[kind] += 1
            key = (tracer.size_class, tracer.current())
            bits = _bits(out)
            if bits > tracer.max_bits[key]:
                tracer.max_bits[key] = bits
            tracer._ops_seen += 1
            if tracer._ops_seen % SAMPLE_EVERY == 0 and len(tracer.samples) < SAMPLE_CAP:
                tracer.samples.append(out)
            return out

        return counted

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Rebind every listed function wherever an adjreal module holds it."""
        for targets in LAYERS.values():
            for modname, _attr in targets:
                importlib.import_module(modname)
        modules = [m for n, m in sys.modules.items() if n.startswith("adjreal") and m]
        for name, targets in LAYERS.items():
            for modname, attr in targets:
                module = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        self._set(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
                    else:
                        self._set(cls, meth, self.wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original)
                for m in modules:
                    for key, value in list(m.__dict__.items()):
                        if value is original:
                            self._set(m, key, wrapped)
        from adjreal.gaussian import GaussRat

        for meth, kind in SCALAR_OPS.items():
            self._set(GaussRat, meth, self._scalar(kind, GaussRat.__dict__[meth]))

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- element bookkeeping -------------------------------------------------------

    def start_element(self, element_id, size_class):
        self.element = element_id
        self.size_class = size_class


def self_times(spans):
    """Per span index: its duration minus the part of it covered by its
    child spans (the union of the children's intervals, clipped)."""
    children = defaultdict(list)
    for idx, (_name, _start, _end, parent, _elem) in enumerate(spans):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (_name, start, end, _parent, _elem) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda k: spans[k][1]):
            cs, ce = max(spans[c][1], reach), min(spans[c][2], end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Span name -> (self seconds, inclusive seconds), summed.

    Inclusive time counts only outermost spans of a name, so recursion
    or nesting of one layer inside itself is not counted twice."""
    selfs = self_times(spans)
    self_sum = defaultdict(float)
    total = defaultdict(float)
    for idx, (name, start, end, parent, _elem) in enumerate(spans):
        self_sum[name] += selfs[idx]
        p = parent
        nested = False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total[name] += end - start
    return self_sum, total


def inclusive_within(spans):
    """(ancestor name, span name) -> seconds spent in outermost spans of
    that name below an ancestor of that name."""
    out = defaultdict(float)
    for name, start, end, parent, _elem in spans:
        ancestors = set()
        p = parent
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        if name in ancestors:
            continue
        for a in ancestors:
            out[(a, name)] += end - start
    return out
