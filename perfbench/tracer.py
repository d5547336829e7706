"""Span tracer for freeabcat, installed from outside the library.

`Tracer.install()` replaces the public functions of each package module by
wrappers that record a span per call.  The package imports names directly
(`from .linalg import kron`), so every binding of a wrapped function in every
`freeabcat.*` module and in the package namespace is rebound.  `_snf_int` is
wrapped as a module global of `linalg`, which is the single integer
elimination that `snf`, `solve_linear` and `kernel_gens` all reach.

A span is `[name, parent index, op id, start, end]`.  Spans stay in memory;
`summary()` folds them into per-layer metrics and `write()` dumps them.
Counts recorded next to the spans (bit sizes, cells, repeats) depend only on
the inputs, so two traced runs with the same seed report identical counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from functools import cached_property

# span name -> (module, attribute); the attribute is a function
FUNCTION_SPANS = {
    "linalg.snf": ("linalg", "_snf_int"),
    "linalg.kernel_gens": ("linalg", "kernel_gens"),
    "linalg.solve_linear": ("linalg", "solve_linear"),
    "linalg.preimage_gens": ("linalg", "preimage_gens"),
    "linalg.kron": ("linalg", "kron"),
    "linalg.det": ("linalg", "det"),
    "fpmodules.present_quotient": ("fpmodules", "present_quotient"),
    "fpmodules.kernel_of_action": ("fpmodules", "kernel_of_action"),
    "fpmodules.snake_sequence": ("fpmodules", "snake_sequence"),
    "chains.hom_group": ("chains", "hom_group"),
    "chains.kernel": ("chains", "kernel"),
    "chains.cokernel": ("chains", "cokernel"),
    "chains.image_factorization": ("chains", "image_factorization"),
    "chains.homotopy_witness": ("chains", "homotopy_witness"),
    "chains.is_isomorphism": ("chains", "is_isomorphism"),
    "squares.evaluate_chain": ("squares", "evaluate_chain"),
    "squares.evaluate_square": ("squares", "evaluate_square"),
    "definable.chain_member": ("definable", "chain_member"),
    "definable.family_member": ("definable", "family_member"),
    "workspace.load_workspace": ("workspace", "load_workspace"),
    "workspace.resolve_ref": ("workspace", "resolve_ref"),
    "cli.main": ("cli", "main"),
}

# spans on class attributes, installed separately
CLASS_SPANS = ("linalg.matmul", "fpmodules.invariant_factors")

SPAN_NAMES = tuple(sorted([*FUNCTION_SPANS, *CLASS_SPANS]))

# metrics that must repeat exactly for a fixed seed
COUNT_METRICS = tuple(
    [f"{name}.calls" for name in SPAN_NAMES]
    + [
        "linalg.snf.in_bits_max",
        "linalg.snf.out_bits_max",
        "linalg.snf.in_cells",
        "linalg.snf.repeat_ratio",
        "linalg.kernel_gens.out_bits_max",
        "linalg.matrix.built",
        "linalg.matmul.mults",
        "definable.chain_member.solves_per_call",
        "squares.summands",
        "squares.distinct_summand_ratio",
        "workspace.load_workspace.bytes",
    ]
)

MODULES = ("linalg", "fpmodules", "chains", "squares", "definable", "serialize",
           "workspace", "randgen", "suites", "cli")


def _bits(entries) -> int:
    return max(map(abs, entries), default=0).bit_length()


def _cyclic_orders(m):
    """Orders of the cyclic summands of a diagonal presentation, else None."""
    rel = m.relations
    orders = []
    for i in range(rel.rows):
        for j in range(rel.cols):
            if i != j and rel.entry(i, j):
                return None
        d = rel.entry(i, i) if i < rel.cols else 0
        if not m.ring.is_unit(d):
            orders.append(d)
    return orders


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._seen: set = set()

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op = op_id
        self._seen = set()

    def _wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, self.op, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][4] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _observe_snf(self, args, res):
        m = args[0]
        self.maxima["linalg.snf.in_bits_max"] = max(self.maxima["linalg.snf.in_bits_max"],
                                                    _bits(m.entries))
        out = max(_bits(res.S.entries), _bits(res.P.entries), _bits(res.Q.entries))
        self.maxima["linalg.snf.out_bits_max"] = max(self.maxima["linalg.snf.out_bits_max"], out)
        self.counts["linalg.snf.in_cells"] += m.rows * m.cols
        key = (m.rows, m.cols, m.entries)
        if key in self._seen:
            self.counts["linalg.snf.repeats"] += 1
        else:
            self._seen.add(key)

    def _observe_kernel_gens(self, args, res):
        key = "linalg.kernel_gens.out_bits_max"
        self.maxima[key] = max(self.maxima[key], _bits(res.entries))

    def _observe_solve(self, args, res):
        if self._inside("definable.chain_member"):
            self.counts["definable.chain_member.solves"] += 1

    def _observe_matmul(self, args, res):
        a, b = args
        self.counts["linalg.matmul.mults"] += a.rows * a.cols * b.cols

    def _observe_module(self, args, res):
        orders = _cyclic_orders(args[1])
        if orders is not None:
            self.counts["squares.summands"] += len(orders)
            self.counts["squares.distinct_summands"] += len(set(orders))

    def _observe_load(self, args, res):
        self.counts["workspace.load_workspace.bytes"] += os.path.getsize(args[0])

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every span target and rebind it wherever the package holds it."""
        for mod in MODULES:
            importlib.import_module(f"freeabcat.{mod}")
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "freeabcat" or n.startswith("freeabcat.")]
        observers = {
            "linalg.snf": self._observe_snf,
            "linalg.kernel_gens": self._observe_kernel_gens,
            "linalg.solve_linear": self._observe_solve,
            "squares.evaluate_chain": self._observe_module,
            "squares.evaluate_square": self._observe_module,
            "definable.chain_member": self._observe_module,
            "workspace.load_workspace": self._observe_load,
        }
        for name, (mod, attr) in FUNCTION_SPANS.items():
            original = getattr(sys.modules[f"freeabcat.{mod}"], attr)
            wrapped = self._wrap(name, original, observers.get(name))
            for owner in package:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapped)

        linalg = sys.modules["freeabcat.linalg"]
        fpmodules = sys.modules["freeabcat.fpmodules"]
        matrix = linalg.Matrix
        matrix.__matmul__ = self._wrap("linalg.matmul", matrix.__matmul__, self._observe_matmul)
        post_init, counts = matrix.__post_init__, self.counts

        def counted_post_init(m):
            counts["linalg.matrix.built"] += 1
            post_init(m)

        matrix.__post_init__ = counted_post_init
        module_cls = fpmodules.FpModule
        prop = cached_property(self._wrap("fpmodules.invariant_factors",
                                          module_cls.__dict__["invariant_factors"].func))
        prop.__set_name__(module_cls, "invariant_factors")
        module_cls.invariant_factors = prop

    # -- merging and reporting -----------------------------------------------

    def merge(self, data: dict):
        """Fold in the spans and counts a traced child process dumped during the current op."""
        base = len(self.spans)
        for name, parent, _op, t0, t1 in data["spans"]:
            self.spans.append([name, parent + base if parent >= 0 else -1, self.op, t0, t1])
        self.counts.update(data["counts"])
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def summary(self, timed_wall_s: float) -> dict[str, float]:
        """Per-span calls, self and total seconds, plus the layer counts.

        Self time is a span's duration minus its direct children's durations.
        Total time sums only spans with no ancestor of the same name, so a
        recursive call is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, _op, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for idx, (name, parent, _op, t0, t1) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[idx]
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][1]
            if up < 0:
                total_s[name] += t1 - t0

        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total_s[name]
        c = self.counts
        snf_calls = calls["linalg.snf"]
        out.update({
            "linalg.snf.in_bits_max": self.maxima["linalg.snf.in_bits_max"],
            "linalg.snf.out_bits_max": self.maxima["linalg.snf.out_bits_max"],
            "linalg.snf.in_cells": c["linalg.snf.in_cells"],
            "linalg.snf.repeat_ratio": c["linalg.snf.repeats"] / snf_calls if snf_calls else 0.0,
            "linalg.kernel_gens.out_bits_max": self.maxima["linalg.kernel_gens.out_bits_max"],
            "linalg.matrix.built": c["linalg.matrix.built"],
            "linalg.matmul.mults": c["linalg.matmul.mults"],
            "definable.chain_member.solves_per_call":
                c["definable.chain_member.solves"] / calls["definable.chain_member"]
                if calls["definable.chain_member"] else 0.0,
            "squares.summands": c["squares.summands"],
            "squares.distinct_summand_ratio":
                c["squares.distinct_summands"] / c["squares.summands"]
                if c["squares.summands"] else 0.0,
            "workspace.load_workspace.bytes": c["workspace.load_workspace.bytes"],
            "bench.span_coverage": sum(self_s.values()) / timed_wall_s if timed_wall_s else 0.0,
        })
        return out

    def write(self, path: str):
        """One tab-separated line per span: id, name, parent, op, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\top\tstart\tend\n")
            for idx, (name, parent, op, t0, t1) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{parent}\t{op}\t{t0:.9f}\t{t1:.9f}\n")
