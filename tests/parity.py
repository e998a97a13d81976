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
(tests/golden.py's measure). It exits 1 on any difference in an exit code,
stderr, key, string, integer or verdict, or in the set of reports. Not a
test module: pytest does not collect it.
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
from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP  # noqa: E402
import numpy as np  # noqa: E402

from hypersym import MATCH_TOL, build_matrix, parse_hypergraph  # noqa: E402
from hypersym.cli import main  # noqa: E402
from hypersym.matrices import MATRIX_KINDS, WEIGHTED_KINDS, WeightFunctions  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEEDS = (11, 12)
# permutation_with_type(rng, 13, (2, 4, 4)) and invariant_hypergraph(rng,
# perm, seed_edges=4) with rng = np.random.default_rng(8), written out: the
# cycles (1 11) (2 4 8 9) (6 12 7 13) and the fixed points 3, 5, 10
MIXED13_DOC = {
    "vertices": [str(v) for v in range(1, 14)],
    "edges": [
        {"id": f"e{j}", "members": members.split()}
        for j, members in enumerate([
            "3 6 12", "3 6 13", "3 7 12", "3 7 13", "1 2 5 9", "1 4 5 8", "2 4 5 11",
            "2 4 6 10", "2 9 10 13", "4 8 10 12", "5 8 9 11", "7 8 9 10", "1 2 3 8 11", "1 3 4 9 11",
        ])
    ],
}
MIXED13_MAP = {
    "1": "11", "2": "4", "3": "3", "4": "8", "5": "5", "6": "12", "7": "13",
    "8": "9", "9": "2", "10": "10", "11": "1", "12": "7", "13": "6",
}
# permutation_with_type(rng, 74, (24, 24, 24)) and invariant_hypergraph(rng,
# perm, seed_edges=3) with rng = np.random.default_rng(26), written out: the
# three 24-cycles below and the fixed points 58 and 69
LONG74_DOC = {
    "vertices": [str(v) for v in range(1, 75)],
    "edges": [
        {"id": f"e{j}", "members": members.split()}
        for j, members in enumerate([
            "2 58", "7 58", "11 58", "13 58", "14 58", "15 58", "16 58", "18 58", "22 58", "28 58", "34 58",
            "35 58", "43 58", "44 58", "45 58", "46 58", "49 58", "52 58", "53 58", "55 58", "57 58", "58 60",
            "58 63", "58 65", "2 16 30", "2 49 73", "5 18 63", "7 25 35", "7 52 59", "8 52 55", "10 15 44",
            "11 22 29", "11 60 71", "13 43 62", "13 46 68", "14 40 63", "14 41 57", "15 46 54", "16 28 39",
            "18 23 35", "20 55 57", "21 34 44", "22 26 45", "24 45 49", "28 60 74", "34 42 53", "43 47 65",
            "53 65 70", "1 5 47 50 69", "1 20 54 56 69", "3 8 10 61 69", "3 12 23 69 70", "4 10 33 39 69",
            "4 29 37 69 70", "5 9 64 69 74", "6 30 48 54 69", "6 32 42 69 71", "8 24 38 67 69", "9 20 26 69 72",
            "12 27 41 68 69", "17 21 36 69 74", "17 37 68 69 73", "19 29 41 51 69", "19 59 64 69 73",
            "21 27 50 59 69", "23 38 39 51 69", "24 32 33 62 69", "25 30 31 69 72", "25 42 56 66 69",
            "26 36 47 48 69", "31 40 67 69 71", "40 61 62 66 69",
        ])
    ],
}
LONG74_MAP = {
    **{str(v): str(v) for v in (58, 69)},
    **{
        cycle[t]: cycle[(t + 1) % 24]
        for cycle in (
            "1 38 36 61 64 32 27 31 37 56 51 48 3 9 33 50 67 17 66 19 6 12 72 4".split(),
            "2 53 57 16 65 55 28 43 52 60 13 7 11 46 35 22 15 18 45 44 63 49 34 14".split(),
            "5 24 21 40 73 42 41 30 70 20 39 47 8 74 62 59 71 68 25 29 54 23 26 10".split(),
        )
        for t in range(24)
    },
}
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
    worst = 0.0
    for name in sorted(names_a & names_b):
        old, new = ((d / "reports" / name).read_bytes() for d in (a, b))
        if old == new:
            print(f"{name}: byte-identical")
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
            line += f"; largest angle {largest_angle(old, new, MATCH_TOL * scale):.3e} rad"
        print(line)
    print(f"largest scaled float move {worst:.3e}; " + ("structural differences" if status else "no structural difference"))
    return status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(f"{write_parity_set(Path(sys.argv[1]))} reports written")
