"""Self-test of the benchmark harness, on small instances of each workload.

    python3 bench/selftest.py

Checks that the same seed writes byte-identical input documents; that a
traced and an untraced CLI operation write byte-identical reports and both
pass the benchmark's correctness gate (negative controls refused naming the
predicted edge); that after each traced operation every wrapped binding is
the original object again; and that the traced spans reach the layers the
workload is meant to exercise. Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import sys

import numpy as np

import run  # noqa: F401  (sets the BLAS environment and the import path first)
from tracer import EIGENSOLVERS, TRACED, Tracer
from workloads import WORKLOADS, generate

SMALL = {"rot2-decompose": 24, "rot12-verify": 24, "units-verify": 24}
# Spans each shape must produce on a positive instance.
REACHED = {
    "rot2-decompose": {"symmetry.orbit_quotient", "spectral.block_eig", "jsonutil.canonical_json"},
    "rot12-verify": {"spectral.rotation_matrix", "spectral.lift_vector", "oracle.dense_eig"},
    "units-verify": {"unit_symmetry.unit_quotient", "unit_symmetry.blow_up", "spectral.block_eig"},
}


def bindings() -> dict[tuple[str, str], object]:
    """Every traced binding in every hypersym namespace, plus numpy.linalg's
    eigensolvers, by (namespace, attribute)."""
    traced = {id(getattr(importlib.import_module(m), a)) for m, fns in TRACED.items() for a in fns}
    found = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "hypersym" or name.startswith("hypersym.")
        for attr, value in vars(module).items()
        if id(value) in traced
    }
    found.update({("numpy.linalg", a): getattr(np.linalg, a) for a in EIGENSOLVERS})
    return found


def main() -> int:
    problems: list[str] = []
    base = run.WORK / "selftest"
    before = bindings()
    try:
        for name, n in SMALL.items():
            w = dataclasses.replace(WORKLOADS[name], base_n=n)
            positives, negatives = generate(w, 7, base / name / "a")
            generate(w, 7, base / name / "b")
            for path in sorted((base / name / "a").iterdir()):
                if path.read_bytes() != (base / name / "b" / path.name).read_bytes():
                    problems.append(f"{name}: seed 7 wrote {path.name} differently twice")
            bench = run.Run(w, base / name)
            tracer = Tracer()
            for i, inst in enumerate(positives + negatives):
                bench.traced_pair(i, inst, base / name / "plain.json", base / name / "traced.json", tracer)
            problems += [f"{name}: {f}" for f in bench.failures]
            if bench.attempted != len(positives) + len(negatives):
                problems.append(f"{name}: {bench.attempted} operations recorded")
            missing = REACHED[name] - {s.name for s in tracer.spans}
            if missing:
                problems.append(f"{name}: traced operations never reached {sorted(missing)}")
            if bindings() != before:
                problems.append(f"{name}: bindings differ from the originals after tracing")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for line in problems:
        print("FAIL", line)
    print(f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
