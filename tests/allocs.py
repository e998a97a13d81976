"""Print the page faults and the traced peak of one CLI operation on the
seed-11 positives of each benchmark workload.

    python3 tests/allocs.py [WORKLOAD ...]

For each workload (all three when none is named), the seed-11 instances
written by bench/workloads.generate are run through `hypersym.cli.main`
in-process, each report written to a file, as in the CLI phase of
bench/run.py: after one warm-up operation, ROUNDS passes over the eight
positives, with the bench's reference kernel between operations. Printed:

- the median minor page faults per operation, `getrusage(RUSAGE_SELF)
  .ru_minflt` read just before and just after `cli.main`, with the
  quartiles;
- the `tracemalloc` peak of one more operation on the p0 positive, in MB
  and in real n x n arrays (8 n^2 bytes).

The faults depend on the process's history, so compare figures of one
script on two checkouts, not of different loops. The package is imported
from the src/ beside this file, so a copy of the script placed in another
checkout measures that checkout's code. BLAS runs on one thread, as in the
bench. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import resource  # noqa: E402
import statistics  # noqa: E402
import tracemalloc  # noqa: E402

from hypersym.cli import main  # noqa: E402
from run import reference  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 11
ROUNDS = 5  # passes over the eight positives


def _argv(w, inst, out: Path) -> list[str]:
    return [w.command, str(inst.hypergraph), str(inst.symmetry), "--kind", w.kind, "--out", str(out)]


def probe(w, work: Path) -> str:
    """One line: the workload's faults per operation and traced peak."""
    positives, _ = generate(w, SEED, work / w.name)
    out = work / f"{w.name}-report.json"
    main(_argv(w, positives[0], out))  # warm-up, not counted
    reference()
    faults = []
    for _ in range(ROUNDS):
        for inst in positives:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            rc = main(_argv(w, inst, out))
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            if rc != 0:
                sys.exit(f"error: {w.name} {inst.symmetry.name} exited {rc}")
            reference()
    tracemalloc.start()
    main(_argv(w, positives[0], out))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    q1, median, q3 = statistics.quantiles(faults, n=4)
    square = 8 * positives[0].n ** 2
    return (f"{w.name}: {median:.0f} minor faults per operation [{q1:.0f}, {q3:.0f}] over {len(faults)}; "
            f"traced peak {peak / 1e6:.2f} MB = {peak / square:.1f} real n x n (n = {positives[0].n})")


if __name__ == "__main__":
    names = sys.argv[1:] or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        sys.exit(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            print(probe(WORKLOADS[name], Path(tmp)), flush=True)
