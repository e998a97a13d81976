"""Write the byte-parity report set of a checkout, or compare two sets.

    python3 tests/parity.py DIR
    python3 tests/parity.py --compare DIR_A DIR_B

Runs the `decompose` and `verify` commands on

- the seed-11 and seed-12 instances of the three benchmark workloads
  (8 positives and 2 negative controls each, written by
  bench/workloads.generate), and
- the rot10 and units18 fixtures in the 7 unweighted matrix kinds, under
  the rot10 vertex map and the two units18 unit maps, and
- the MIXED13 fixture in the same 7 kinds under its vertex map, of cycle
  type (2, 4, 4) with three fixed points, so that its w = -1 block couples
  the 2-cycle with the 4-cycles, and
- the LONG74 fixture in the same 7 kinds under its vertex map, of cycle
  type (24, 24, 24) with two fixed points, so that eleven complex blocks
  of one order are solved together, and
- the rot10 fixture in the 3 general_* kinds under its vertex map, with
  the fixed rot10-invariant weights document ROT10_WEIGHTS passed through
  --weights,

196 reports in all. Each report goes to DIR/reports/<case>-<command>.json;
each exit code, with any stderr text, to a line of DIR/exit_codes.txt. Two
checkouts are at byte parity when `diff -r` finds no difference between
their DIRs. The package is imported from the src/ beside this file, so a
copy of the script placed in another checkout runs that checkout's code.
BLAS runs on one thread, because float results can depend on the thread
count.

--compare prints, for each report of two such DIRs, "byte-identical" or the
largest float move outside the lifted vectors, divided by max(1, ||M||_inf)
of the case's matrix, and, where lifted vectors differ, the largest
principal angle between the old and new vectors of one eigenvalue cluster
(tests/golden.py's measure), then a summary line with the count of
byte-identical reports. It exits 1 on any difference in an exit code,
stderr, key, string, integer or verdict, or in the set of reports, on a
scaled float move above FLOAT_TOL and on an angle above ANGLE_TOL: the
parity rule. Not a test module: pytest does not collect it.
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

from golden import largest_angle  # noqa: E402
from conftest import (  # noqa: E402
    LONG74_DOC,
    LONG74_MAP,
    MIXED13_DOC,
    MIXED13_MAP,
    ROT10_DOC,
    ROT10_MAP,
    UNITS18_DOC,
    UNITS18_SWAP_MAP,
    UNITS18_UNIT_MAP,
)
import numpy as np  # noqa: E402

from hypersym import MATCH_TOL, build_matrix, parse_hypergraph  # noqa: E402
from hypersym.cli import main  # noqa: E402
from hypersym.matrices import MATRIX_KINDS, WEIGHTED_KINDS, WeightFunctions  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (11, 12)
FLOAT_TOL = 1e-12  # largest float move, divided by max(1, ||M||_inf)
ANGLE_TOL = 1e-10  # largest principal angle of a cluster's lifted vectors, in rad
COMMANDS = ("decompose", "verify")
FIXTURES = (
    ("rot10", ROT10_DOC, "rot10_map", {"map": ROT10_MAP}),
    ("units18", UNITS18_DOC, "unit_map", {"unit_map": UNITS18_UNIT_MAP}),
    ("units18", UNITS18_DOC, "swap_map", {"unit_map": UNITS18_SWAP_MAP}),
    ("mixed13", MIXED13_DOC, "mixed13_map", {"map": MIXED13_MAP}),
    ("long74", LONG74_DOC, "long74_map", {"map": LONG74_MAP}),
)
# constant on the rot10 map's vertex orbits {1}, {2 5 8}, {3 6 9}, {4 7 10}
# and edge orbits {e f g}, {h i j}, delta_V spread over three decades
ROT10_WEIGHTS = {
    "delta_V": {"1": 0.5, **dict.fromkeys("258", 3.0), **dict.fromkeys("369", 40.0), **dict.fromkeys(("4", "7", "10"), 1000.0)},
    "delta_E": {**dict.fromkeys("efg", 2.0), **dict.fromkeys("hij", 0.75)},
}


def cases(inputs: Path):
    """(case name, hypergraph path, symmetry path, kind, weights path or
    None) of every report."""
    for w in WORKLOADS.values():
        for seed in SEEDS:
            positives, negatives = generate(w, seed, inputs / f"{w.name}-seed{seed}")
            for inst in positives + negatives:
                yield f"{w.name}-seed{seed}-{inst.symmetry.stem}", inst.hypergraph, inst.symmetry, w.kind, None
    wpath = inputs / "rot10_weights.json"
    wpath.write_text(json.dumps(ROT10_WEIGHTS))
    for hname, hdoc, sname, sdoc in FIXTURES:
        hpath, spath = inputs / f"{hname}.json", inputs / f"{sname}.json"
        hpath.write_text(json.dumps(hdoc))
        spath.write_text(json.dumps(sdoc))
        for kind in MATRIX_KINDS:
            if kind not in WEIGHTED_KINDS:
                yield f"{hname}-{sname}-{kind}", hpath, spath, kind, None
            elif sname == "rot10_map":
                yield f"{hname}-{sname}-{kind}", hpath, spath, kind, wpath


def write_parity_set(out: Path) -> int:
    """Write the reports and exit codes under out; return the report count."""
    reports = out / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, hpath, spath, kind, wpath in cases(Path(tmp)):
            weights = ["--weights", str(wpath)] if wpath else []
            for command in COMMANDS:
                target = reports / f"{name}-{command}.json"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main([command, str(hpath), str(spath), "--kind", kind, *weights, "--out", str(target)])
                lines.append(f"{name}-{command} {rc} {err.getvalue().strip()}".rstrip())
    (out / "exit_codes.txt").write_text("\n".join(lines) + "\n")
    return len(lines)


def _float_moves(a, b, path: str = "", moves=None) -> list:
    """(path, |a - b|) of every float of b against a, the lifted vectors
    apart; raises ValueError naming the first path at which a key, string,
    integer or verdict differs."""
    moves = [] if moves is None else moves
    if isinstance(a, dict) and isinstance(b, dict) and sorted(a) == sorted(b):
        for key in a:
            if key != "vector":
                _float_moves(a[key], b[key], f"{path}.{key}", moves)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _float_moves(x, y, f"{path}[{i}]", moves)
    elif all(type(x) in (int, float) for x in (a, b)) and float in (type(a), type(b)):
        # a float that happens to be integral is printed as an integer
        moves.append((path, abs(a - b)))
    elif isinstance(a, (dict, list)) and type(a) is type(b):
        what = f"keys {sorted(a)} vs {sorted(b)}" if isinstance(a, dict) else f"lengths {len(a)} vs {len(b)}"
        raise ValueError(f"{path or 'report'}: {what}")
    elif type(a) is not type(b) or a != b:
        raise ValueError(f"{path or 'report'}: {a!r} vs {b!r}")
    return moves


def compare(a: Path, b: Path) -> int:
    """Print how each report of b differs from a's; 1 on any difference a
    float move cannot explain, else 0."""
    status = 0
    codes_a, codes_b = ((d / "exit_codes.txt").read_text().splitlines() for d in (a, b))
    for line_a, line_b in zip(codes_a, codes_b):
        if line_a != line_b:
            print(f"exit code or stderr: {line_a!r} vs {line_b!r}")
            status = 1
    names_a, names_b = ({p.name for p in (d / "reports").iterdir()} for d in (a, b))
    if len(codes_a) != len(codes_b) or names_a != names_b:
        print(f"report sets differ: {sorted(names_a ^ names_b)}")
        status = 1
    scales = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, hpath, _, kind, wpath in cases(Path(tmp)):
            weights = WeightFunctions.parse(wpath.read_text()) if wpath else None
            M = build_matrix(parse_hypergraph(hpath.read_text()), kind, weights=weights).entries
            scales[name] = max(1.0, float(np.abs(M).sum(axis=1).max()))
    worst, worst_angle, identical = 0.0, 0.0, 0
    for name in sorted(names_a & names_b):
        old, new = ((d / "reports" / name).read_bytes() for d in (a, b))
        if old == new:
            print(f"{name}: byte-identical")
            identical += 1
            continue
        scale = scales[name.rsplit("-", 1)[0]]
        old, new = json.loads(old), json.loads(new)
        try:
            moves = _float_moves(old, new)
        except ValueError as exc:
            print(f"{name}: DIFFERS at {exc}")
            status = 1
            continue
        path, move = max(moves, key=lambda m: m[1], default=("", 0.0))
        worst = max(worst, move / scale)
        line = f"{name}: largest float move {move / scale:.3e} (scaled) at {path}"
        if [p["vector"] for p in old.get("lifted", [])] != [p["vector"] for p in new.get("lifted", [])]:
            angle = largest_angle(old, new, MATCH_TOL * scale)
            worst_angle = max(worst_angle, angle)
            line += f"; largest angle {angle:.3e} rad"
        print(line)
    beyond = not (worst <= FLOAT_TOL and worst_angle <= ANGLE_TOL)  # NaN is beyond
    print(
        f"{identical} of {len(names_a & names_b)} reports byte-identical; largest scaled float move "
        f"{worst:.3e}, largest angle {worst_angle:.3e} rad; "
        + ("structural differences" if status else "no structural difference")
        + (f"; beyond the parity rule ({FLOAT_TOL:g} scaled, {ANGLE_TOL:g} rad)" if beyond else "")
    )
    return 1 if beyond else status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_parity_set(Path(sys.argv[1]))} reports written")
