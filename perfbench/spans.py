"""Span tracing of dualcech from outside the package.

``Tracer.install`` wraps the public functions of every layer module in
place, so the program runs unchanged while each call records a span.
A function re-bound in another module by ``from ... import`` is the same
object, and every module attribute that holds it is patched, so calls
through that name are seen too.  ``uninstall`` restores the originals.

Spans live in flat arrays (op, name, parent, start, end) and are written
out once, at the end of the run.  Counters that need a call's arguments
or result (nonzeros fed to ``rank``, cells ``kernel_basis`` densifies)
are taken at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter

LAYERS = ("formats", "cli", "toric", "snc", "presheaf", "simplicial", "localmodel", "bicomplex", "exactla")

# called once per matrix entry or stratum; a span there would mostly time the tracer
SKIP = {"exactla.as_fraction", "simplicial.check_vertex_tuple"}

# names that modules re-bind with ``from ... import``; the install check
# makes sure each of them ends up wrapped
REBOUND = (
    ("bicomplex", "rank"),
    ("bicomplex", "kernel_basis"),
    ("snc", "presheaf_cohomology"),
    ("snc", "betti_numbers"),
    ("toric", "combinatorial_cohomology_check"),
)


def _count_rank(counters, args, result):
    counters["exactla.rank.nnz_in"] += len(args[0]._entries)
    counters["exactla.rank.rank_out"] += result


def _count_kernel(counters, args, result):
    counters["exactla.kernel_basis.dense_cells"] += args[0].rows * args[0].cols


def _count_quotient(counters, args, result):
    spec, degree = args[0], args[2]
    counters["localmodel.monomials_kept"] += len(result.exponents)
    counters["localmodel.monomials_enumerated"] += comb(spec.ambient + degree - 1, degree)


def _count_cohomology(counters, args, result):
    counters["presheaf.presheaf_cohomology.zero_layers"] += args[0].is_zero()


COUNTERS = {
    "exactla.rank": _count_rank,
    "exactla.kernel_basis": _count_kernel,
    "localmodel.quotient_basis": _count_quotient,
    "presheaf.presheaf_cohomology": _count_cohomology,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.current_op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        count = COUNTERS.get(name)
        stack, counters = self._stack, self.counters
        op, names, parents, starts, ends = self.op, self.name, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            op.append(self.current_op)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"dualcech.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith("dualcech.") or home not in modules:
                    continue
                span = f"{home}.{obj.__name__}"
                if span in SKIP:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(span, obj)
                self._set(module, attr, wrappers[id(obj)])
        matrix = modules["exactla"].RationalMatrix
        self._set(matrix, "__matmul__", self.wrap("exactla.matmul", matrix.__matmul__))
        cochain = modules["presheaf"].CochainComplex
        self._set(cochain, "__post_init__", self.wrap("presheaf.CochainComplex", cochain.__post_init__))
        self._set(cochain, "cohomology", self.wrap("presheaf.cohomology", cochain.cohomology))
        for module, attr in REBOUND:
            if not getattr(getattr(modules[module], attr), "__wrapped_by_perfbench__", False):
                raise RuntimeError(f"{module}.{attr} was not wrapped")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Calls, self seconds and total seconds per span name over every recorded span.

        Self time is a span's duration minus the durations of its child
        spans; total time includes them.
        """
        total_s = [e - s for s, e in zip(self.start, self.end)]
        self_s = total_s[:]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                self_s[parent] -= total_s[index]
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for index, name_id in enumerate(self.name):
            name = self.names[name_id]
            calls[name] += 1
            own[name] += self_s[index]
            total[name] += total_s[index]
        return calls, own, total

    def write(self, handle) -> None:
        """One line per span: op, name, parent span index, start and end in seconds."""
        handle.write("op\tname\tparent\tstart\tend\n")
        for index in range(len(self.start)):
            handle.write(
                f"{self.op[index]}\t{self.names[self.name[index]]}\t{self.parent[index]}"
                f"\t{self.start[index]:.9f}\t{self.end[index]:.9f}\n"
            )
