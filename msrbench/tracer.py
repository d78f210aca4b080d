"""Outside-in tracer for msrlab's layers.

The tracer replaces msrlab's public functions and methods with wrappers
that record one span per call (name, start, end, parent span) and exact
work counts derived from argument and result shapes. No source file of
the package changes: module functions are replaced at every module attribute
that binds them, so calls made through `from`-imports are caught too, and
methods are replaced on their class (including aliases such as
`Subspace.__add__ = sum`), so calls from inside the package are caught as
well. `restore()` puts every original back.

Spans stay in memory; `dump()` writes them out once a run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction


# ----------------------------------------------------------------------
# work counts, computed from argument and result shapes only

def _rref_counts(args, kwargs, result):
    rows, cols = args[0].shape
    return {"matrix.rref.cells": rows * cols, "matrix.rref.work": rows * cols * result[1]}


def _matmul_counts(args, kwargs, result):
    left, right = args
    if result is NotImplemented:
        return {}
    return {"matrix.matmul.macs": left.rows * left.cols * right.cols}


def _kron_counts(args, kwargs, result):
    return {"matrix.kron.cells_out": result.rows * result.cols}


def _from_lists_counts(args, kwargs, result):
    rows, cols = args[0].shape
    return {"matrix.from_lists.cells": rows * cols}


def _verify_counts(args, kwargs, result):
    checks = len(result.invertible) + len(result.direct_sum) + len(result.alignment)
    return {"msr_family.verify.checks": checks}


def _equation_counts(args, kwargs, result):
    """Rows of the stacked a (x) n system: sum of dim A * codim B."""
    from msrlab.subspace import Subspace

    constraints = args[0] if args else kwargs["constraints"]
    if not isinstance(constraints, (list, tuple)):
        return {}  # an iterator was consumed by the call; nothing to count
    rows = 0
    ambient = kwargs.get("ambient")
    for c in constraints:
        source, target = (c, c) if isinstance(c, Subspace) else (c.source, c.target)
        ambient = source.ambient_dim if ambient is None else ambient
        rows += source.dim * (target.ambient_dim - target.dim)
    ell_sq = 0 if ambient is None else ambient * ambient
    return {"invariant.equations.rows": rows, "invariant.equations.cells": rows * ell_sq}


def _repair_counts(args, kwargs, result):
    return {
        "repair.symbols": result.bandwidth.total,
        "repair.cutset_symbols": result.bandwidth.cutset,
    }


# (span name, module, attribute path, count function). Several entries may
# share a span name; their calls and times add up under it.
TARGETS = (
    ("field.spec", "msrlab.field", "FieldSpec.__post_init__", None),
    ("matrix.from_lists", "msrlab.matrix", "Matrix.__init__", _from_lists_counts),
    ("matrix.rref", "msrlab.matrix", "Matrix.rref", _rref_counts),
    ("matrix.matmul", "msrlab.matrix", "Matrix.__matmul__", _matmul_counts),
    ("matrix.invert", "msrlab.matrix", "Matrix.invert", None),
    ("matrix.kernel", "msrlab.matrix", "Matrix.kernel", None),
    ("matrix.solve_left", "msrlab.matrix", "Matrix.solve_left", None),
    ("matrix.kron", "msrlab.matrix", "Matrix.kron", _kron_counts),
    ("subspace.span", "msrlab.subspace", "Subspace.__init__", None),
    ("subspace.apply_map", "msrlab.subspace", "Subspace.apply_map", None),
    ("subspace.eq", "msrlab.subspace", "Subspace.__eq__", None),
    ("subspace.contains", "msrlab.subspace", "Subspace.contains", None),
    ("subspace.contains", "msrlab.subspace", "Subspace.contains_vector", None),
    ("subspace.sum", "msrlab.subspace", "Subspace.sum", None),
    ("subspace.annihilator", "msrlab.subspace", "Subspace.annihilator", None),
    ("subspace.intersect", "msrlab.subspace", "Subspace.intersect", None),
    ("subspace.direct_sum", "msrlab.subspace", "is_direct_sum_full", None),
    ("msr_family.construct", "msrlab.msr_family", "construct_tensor_family", None),
    ("msr_family.verify", "msrlab.msr_family", "MsrSubspaceFamily.verify", _verify_counts),
    ("msr_family.bound", "msrlab.msr_family", "MsrSubspaceFamily.bound_check", None),
    ("msr_family.bound", "msrlab.msr_family", "compare_to_log_multiple", None),
    ("msr_family.json", "msrlab.msr_family", "MsrSubspaceFamily.to_json_dict", None),
    ("msr_family.json", "msrlab.msr_family", "MsrSubspaceFamily.from_json_dict", None),
    ("invariant.decay", "msrlab.invariant", "decay_trace", None),
    ("invariant.dim", "msrlab.invariant", "invariant_dim", _equation_counts),
    ("repair.instance", "msrlab.repair", "random_constant_instance", None),
    ("repair.check", "msrlab.repair", "check_msr_scheme", None),
    ("repair.node", "msrlab.repair", "repair_node", _repair_counts),
    ("repair.extract", "msrlab.repair", "extract_family", None),
    ("repair.encode", "msrlab.repair", "VectorCodeSystematic.encode", None),
    ("cli.main", "msrlab.cli", "main", None),
)

# Work counts reported per op next to each span's calls and self time.
COUNT_KEYS = (
    "matrix.rref.cells",
    "matrix.rref.work",
    "matrix.matmul.macs",
    "matrix.kron.cells_out",
    "matrix.from_lists.cells",
    "msr_family.verify.checks",
    "invariant.equations.rows",
    "invariant.equations.cells",
    "repair.symbols",
    "cli.stdout_bytes",
)

ROOT = -1  # parent id of a span that no other span encloses


class Tracer:
    """Records spans and counts while `recording` is set and the wrappers
    are installed. Single-threaded: one call stack, strictly nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # (span id, parent id, name, start, end)
        self.counts: dict = defaultdict(int)
        self.recording = False
        self._stack = [ROOT]
        self._patches: list = []

    # -- spans --------------------------------------------------------

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        kwargs = kwargs or {}
        if not self.recording:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end)
            self.counts[name + ".calls"] += 1
        if count is not None:
            for key, value in count(args, kwargs, result).items():
                self.counts[key] += value
        return result

    def _wrapper(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)

        return traced

    # -- installation -------------------------------------------------

    def install(self):
        """Wrap every target at every binding site in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "msrlab" or key.startswith("msrlab."))
        ]
        for name, module, path, count in TARGETS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(name, raw.__func__, count))
                else:
                    wrapped = self._wrapper(name, raw, count)
                sites = [(owner, key) for key, value in vars(owner).items() if value is raw]
            else:
                raw = getattr(owner, attr)
                wrapped = self._wrapper(name, raw, count)
                sites = [
                    (mod, key) for mod in modules for key, value in vars(mod).items()
                    if value is raw
                ]
            for site, key in sites:
                self._patches.append((site, key, raw))
                setattr(site, key, wrapped)

    def restore(self):
        """Put every original function back."""
        while self._patches:
            site, key, raw = self._patches.pop()
            setattr(site, key, raw)

    # -- results ------------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, handle)
            handle.write("\n")


def self_times(spans) -> dict:
    """Per span name: summed duration minus its direct children's durations.

    A span's id is its position in `spans`. Spans come from one thread and
    nest strictly, so children never overlap and their durations add up to
    the time they cover."""
    totals: dict = defaultdict(float)
    for _, parent, name, start, end in spans:
        totals[name] += end - start
        if parent != ROOT:
            totals[spans[parent][2]] -= end - start
    return dict(totals)


def cutset_ratio(counts) -> float:
    """Symbols downloaded over the cutset bound, summed over all repairs."""
    cutset = Fraction(counts.get("repair.cutset_symbols", 0))
    if cutset == 0:
        return 0.0
    return float(Fraction(counts.get("repair.symbols", 0)) / cutset)
