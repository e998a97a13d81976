"""Write the byte-parity report set of a checkout.

    python3 tests/parity.py DIR

Runs the `decompose` and `verify` commands on

- the seed-11 and seed-12 instances of the three benchmark workloads
  (8 positives and 2 negative controls each, written by
  bench/workloads.generate), and
- the rot10 and units18 fixtures in the 7 unweighted matrix kinds, under
  the rot10 vertex map and the two units18 unit maps,

162 reports in all. Each report goes to DIR/reports/<case>-<command>.json;
each exit code, with any stderr text, to a line of DIR/exit_codes.txt. Two
checkouts are at byte parity when `diff -r` finds no difference between
their DIRs. The package is imported from the src/ beside this file, so a
copy of the script placed in another checkout runs that checkout's code.
BLAS runs on one thread, because float results can depend on the thread
count. Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP  # noqa: E402
from hypersym.cli import main  # noqa: E402
from hypersym.matrices import MATRIX_KINDS, WEIGHTED_KINDS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (11, 12)
COMMANDS = ("decompose", "verify")
FIXTURES = (
    ("rot10", ROT10_DOC, "rot10_map", {"map": ROT10_MAP}),
    ("units18", UNITS18_DOC, "unit_map", {"unit_map": UNITS18_UNIT_MAP}),
    ("units18", UNITS18_DOC, "swap_map", {"unit_map": UNITS18_SWAP_MAP}),
)


def cases(inputs: Path):
    """(case name, hypergraph path, symmetry path, kind) of every report."""
    for w in WORKLOADS.values():
        for seed in SEEDS:
            positives, negatives = generate(w, seed, inputs / f"{w.name}-seed{seed}")
            for inst in positives + negatives:
                yield f"{w.name}-seed{seed}-{inst.symmetry.stem}", inst.hypergraph, inst.symmetry, w.kind
    for hname, hdoc, sname, sdoc in FIXTURES:
        hpath, spath = inputs / f"{hname}.json", inputs / f"{sname}.json"
        hpath.write_text(json.dumps(hdoc))
        spath.write_text(json.dumps(sdoc))
        for kind in MATRIX_KINDS:
            if kind not in WEIGHTED_KINDS:
                yield f"{hname}-{sname}-{kind}", hpath, spath, kind


def write_parity_set(out: Path) -> int:
    """Write the reports and exit codes under out; return the report count."""
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, hpath, spath, kind in cases(Path(tmp)):
            for command in COMMANDS:
                target = reports / f"{name}-{command}.json"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main([command, str(hpath), str(spath), "--kind", kind, "--out", str(target)])
                lines.append(f"{name}-{command} {rc} {err.getvalue().strip()}".rstrip())
    (out / "exit_codes.txt").write_text("\n".join(lines) + "\n")
    return len(lines)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_parity_set(Path(sys.argv[1]))} reports written")
