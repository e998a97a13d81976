"""Outside-in tracer: spans around calls into the library's public functions.

The program is not modified. While a ``Tracer`` is entered, every binding of
a traced function, in every ``hypersym`` module namespace that holds it (a
function imported into another module is bound there as well), is replaced
by a wrapper that records a span; on exit the original objects are put
back. numpy.linalg's eigensolver entry points are wrapped the same way; their
span is named after the caller: ``spectral.block_eig`` under a decompose
span and ``oracle.dense_eig`` under ``oracle.dense_spectrum``.

Spans stay in memory (name, start, end, parent, op) until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# module -> {function: span name}. Several functions may share a span name.
TRACED = {
    "hypersym.cli": {"main": "cli.main"},
    "hypersym.jsonutil": {"canonical_json": "jsonutil.canonical_json"},
    "hypersym.hypergraph": {
        "parse_hypergraph": "hypergraph.parse_hypergraph",
        "compute_units": "hypergraph.compute_units",
    },
    "hypersym.matrices": {"build_matrix": "matrices.build_matrix"},
    "hypersym.symmetry": {
        "validate_automorphism": "symmetry.validate_automorphism",
        "compatibility_deviation": "symmetry.compatibility_deviation",
        "orbit_quotient": "symmetry.orbit_quotient",
        "equitable_witness": "symmetry.equitable_witness",
    },
    "hypersym.spectral": {
        "rotation_matrix": "spectral.rotation_matrix",
        "lift_rotation_vector": "spectral.lift_vector",
        "lift_orbit_vector": "spectral.lift_vector",
        "decompose_automorphism": "spectral.decompose_automorphism",
    },
    "hypersym.unit_symmetry": {
        "validate_unit_automorphism": "unit_symmetry.validate_unit_automorphism",
        "profile_unit_compatibility": "unit_symmetry.profile_unit_compatibility",
        "unit_quotient": "unit_symmetry.unit_quotient",
        "blow_up": "unit_symmetry.blow_up",
        "decompose_unit_automorphism": "unit_symmetry.decompose_unit_automorphism",
    },
    "hypersym.oracle": {
        "dense_spectrum": "oracle.dense_spectrum",
        "match_multisets": "oracle.match_multisets",
        "verify_decomposition": "oracle.verify_decomposition",
    },
}
EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
DECOMPOSE_SPANS = frozenset(
    {"spectral.decompose_automorphism", "unit_symmetry.decompose_unit_automorphism"}
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int


class Tracer:
    """Context manager that records spans while entered. Set ``op`` before
    each operation so its spans share one identifier."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.restored: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        originals: dict[int, object] = {}
        for modname, functions in TRACED.items():
            module = importlib.import_module(modname)
            for attr, span_name in functions.items():
                fn = getattr(module, attr)
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(fn, span_name)
        for name, module in list(sys.modules.items()):
            if name != "hypersym" and not name.startswith("hypersym."):
                continue
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    self._patch(module, attr, wrappers[id(value)])
        for attr in EIGENSOLVERS:
            self._patch(np.linalg, attr, self._wrap(getattr(np.linalg, attr), self._solver_span))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self.restored, self._patched = self._patched, []

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def unrestored(self) -> list[str]:
        """Bindings replaced on the last entry that do not hold their
        original object now; empty after a clean exit."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self.restored
            if getattr(module, attr) is not original
        ]

    def _solver_span(self) -> str:
        for idx in reversed(self._stack):
            name = self.spans[idx].name
            if name in DECOMPOSE_SPANS:
                return "spectral.block_eig"
            if name == "oracle.dense_spectrum":
                return "oracle.dense_eig"
        return "numpy.linalg.eig"

    def _wrap(self, fn, span_name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span_name if isinstance(span_name, str) else span_name()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """Per op: span name -> [self seconds, calls]. Self time is a span's
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        per_op: dict[int, dict[str, list[float]]] = {}
        for i, span in enumerate(self.spans):
            entry = per_op.setdefault(span.op, {}).setdefault(span.name, [0.0, 0])
            entry[0] += span.end - span.start - child[i]
            entry[1] += 1
        return per_op

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")
