"""Rewrite the golden reports under tests/golden whose bytes the current
code no longer reproduces.

    python3 tests/golden.py

Runs every case of test_golden.py and writes each report whose bytes differ
from the committed tests/golden/<hypergraph>-<symmetry>-<kind>-<command>.json
over it, so the committed files reproduce byte for byte and a change's
effect on them, rounding included, shows as a diff. For each such report it
prints whether it still passes the test's own rule (exact keys, strings,
integers and verdicts, floats within 1e-12 * max(1, ||M||_inf)), and

- the largest eigenvalue move: each block's eigenvalues, the lifted values
  and the oracle's spectrum, each matched as a multiset against the
  committed file's;
- the largest principal angle between the old and the new lifted vectors of
  one eigenvalue cluster (values within the verification threshold of one
  another), over the clusters;
- the largest new lifted residual, beside that threshold,
  1e-8 * max(1, ||M||_inf).

Review the printed figures, and the diff, before committing the files.
BLAS runs on one thread, as in parity.py. Not a test module: pytest does
not collect it.
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from hypersym import MATCH_TOL, Hypergraph, build_matrix, match_multisets  # noqa: E402
from hypersym.cli import main  # noqa: E402
from test_golden import CASES, GOLDEN, HYPERGRAPHS, SYMMETRIES, assert_matches  # noqa: E402


def _values(pairs) -> list[complex]:
    return [complex(re, im) for re, im in pairs]


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def eigenvalue_move(old: dict, new: dict) -> float:
    """Largest distance between matched old and new eigenvalues."""
    groups = [(b["eigenvalues"], c["eigenvalues"]) for b, c in zip(old.get("blocks", []), new.get("blocks", []))]
    groups.append(([p["lambda"] for p in old.get("lifted", [])], [p["lambda"] for p in new.get("lifted", [])]))
    groups.append((old["verification"]["eigenvalues"], new["verification"]["eigenvalues"]))
    move = 0.0
    for a, b in groups:
        pairs, extra, missing = match_multisets(_values(a), _values(b), np.inf)
        if extra or missing:
            return np.inf
        move = max([move] + [err for _, _, err in pairs])
    return move


def _clusters(values: list[complex], tol: float) -> list[list[int]]:
    """Indices of values joined by chains of distances within tol."""
    parent = list(range(len(values)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, a in enumerate(values):
        for j in range(i):
            if abs(a - values[j]) <= tol:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(values)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _basis(V: np.ndarray) -> np.ndarray:
    """An orthonormal basis of V's column span."""
    U, s, _ = np.linalg.svd(V, full_matrices=False)
    return U[:, s > s[0] * 1e-12] if s.size else U


def largest_angle(old: dict, new: dict, tol: float) -> float:
    """Largest principal angle (radians) between the spans of the old and
    new lifted vectors of one eigenvalue cluster; pi / 2 when a cluster's
    dimension changed."""
    lifted = old["lifted"] + new["lifted"]
    split = len(old["lifted"])
    worst = 0.0
    for group in _clusters(_values([p["lambda"] for p in lifted]), tol):
        U = [_vector(lifted[i]["vector"]) for i in group if i < split]
        W = [_vector(lifted[i]["vector"]) for i in group if i >= split]
        if len(U) != len(W):
            return np.pi / 2
        U, W = _basis(np.array(U).T), _basis(np.array(W).T)
        if U.shape[1] != W.shape[1]:
            return np.pi / 2
        # sin of the largest angle: the part of span W outside span U
        sine = np.linalg.norm(W - U @ (U.conj().T @ W), 2)
        worst = max(worst, float(np.arcsin(min(1.0, sine))))
    return worst


def rewrite() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for hypergraph, symmetry, kind, code in CASES:
            h_path, s_path = Path(tmp) / "h.json", Path(tmp) / "s.json"
            h_path.write_text(json.dumps(HYPERGRAPHS[hypergraph]))
            s_path.write_text(json.dumps(SYMMETRIES[symmetry]))
            A = build_matrix(Hypergraph.from_dict(HYPERGRAPHS[hypergraph]), kind).entries
            threshold = MATCH_TOL * max(1.0, float(np.abs(A).sum(axis=1).max()))
            for command in ("decompose", "verify"):
                name = f"{hypergraph}-{symmetry}-{kind}-{command}.json"
                out = Path(tmp) / name
                with contextlib.redirect_stderr(io.StringIO()):
                    rc = main([command, str(h_path), str(s_path), "--kind", kind, "--out", str(out)])
                if rc != code:
                    sys.exit(f"{name}: exit code {rc}, expected {code}")
                target = GOLDEN / name
                if target.read_bytes() == out.read_bytes():
                    print(f"{name}: unchanged")
                    continue
                old, new = json.loads(target.read_text()), json.loads(out.read_text())
                try:
                    assert_matches(new, old, 1e-12 * max(1.0, float(np.abs(A).sum(axis=1).max())))
                    verdict = "rewritten, within tolerance"
                except AssertionError:
                    verdict = "rewritten, BEYOND tolerance"
                target.write_bytes(out.read_bytes())
                line = f"{name}: {verdict}; eigenvalue move {eigenvalue_move(old, new):.3e}"
                if "lifted" in new:
                    residual = max((p["residual"] for p in new["lifted"]), default=0.0)
                    line += (
                        f", largest angle {largest_angle(old, new, threshold):.3e} rad"
                        f", largest residual {residual:.3e} (threshold {threshold:.1e})"
                    )
                print(line)


if __name__ == "__main__":
    rewrite()
