"""Command line interface.

Subcommands operate on JSON documents and print canonical JSON (sorted
keys, 17 significant digits) so runs are byte-for-byte reproducible.

decompose and verify solve the dense oracle on a thread of their own,
started once the symmetry has validated and joined on every path, while
the calling thread decomposes: an operation's wall time is parse +
validate + max(decompose, oracle) + match + emit, and its CPU time what it
is with the two in sequence. Only a solve that met no floating-point event
or error numpy would report is used; otherwise the calling thread solves
again after the decomposition, so warnings and errors come as they would
without the thread, and a refused decomposition shows none of the oracle's.

Exit codes: 0 when the requested computation or verification succeeds,
1 when a semantic check fails (invalid symmetry, incompatible matrix,
failed verification, lost synchronization, an overflowed trajectory), 2
for malformed documents or usage errors.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys
import threading

import numpy as np

from .dynamics import SYNC_TOL, check_orbit_synchronization, iterate
from .errors import DocumentError, HypersymError, NotUnitAutomorphismError
from .generators import compatible_matrix, invariant_weights, random_instance
from .hypergraph import Hypergraph, parse_hypergraph, unit_contraction
from .jsonutil import canonical_json, complex_pair, parse_json, require_key, require_object
from .matrices import MATRIX_KINDS, WeightFunctions, build_matrix, prepared, row_sum_check
from .oracle import MATCH_TOL, SpectrumReport, dense_spectrum, verify_decomposition
from .spectral import (
    COMPAT_TOL,
    SpectralDecomposition,
    decompose_automorphism,
    spectral_radius_via_quotient,
)
from .symmetry import check_commutation, is_equitable, orbits, validate_automorphism
from .unit_symmetry import (
    decompose_unit_automorphism,
    lift_cardinality_preserving,
    validate_unit_automorphism,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc


def _emit(doc: dict, out: str | None) -> None:
    text = canonical_json(doc) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_hypergraph(path: str) -> Hypergraph:
    return parse_hypergraph(_read(path))


def _load_symmetry(path: str, mode: str) -> tuple[str, dict]:
    doc = require_object(parse_json(_read(path), "symmetry document"), "symmetry document")
    has_vertex = "map" in doc
    has_unit = "unit_map" in doc
    if mode == "auto":
        if has_vertex == has_unit:
            raise DocumentError(
                "symmetry document must carry exactly one of 'map' (vertex "
                "automorphism) or 'unit_map' (unit bijection); pass --mode to force"
            )
        mode = "automorphism" if has_vertex else "unit"
    key = "map" if mode == "automorphism" else "unit_map"
    table = require_object(require_key(doc, key, "symmetry document"), key)
    for src, dst in table.items():
        if not isinstance(dst, str):
            raise DocumentError(f"{key}[{src!r}] must be a string label")
    return mode, table


def _load_matrix(h: Hypergraph, args) -> "HypergraphMatrix":
    weights = None
    if args.weights is not None:
        weights = WeightFunctions.parse(_read(args.weights))
    return build_matrix(h, args.kind, weights=weights)


def _load_state(path: str, h: Hypergraph) -> np.ndarray:
    doc = require_object(parse_json(_read(path), "state document"), "state document")
    values = require_object(require_key(doc, "values", "state document"), "values")
    x = np.zeros(h.n, dtype=np.complex128)
    for lab in h.labels:
        if lab not in values:
            raise DocumentError(f"state document missing value for vertex {lab!r}")
        x[h.index[lab]] = _as_complex(values[lab], f"values[{lab!r}]")
    for lab in values:
        if lab not in h.index:
            raise DocumentError(f"state document names unknown vertex {lab!r}")
    return x


def _as_complex(value, what: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise DocumentError(f"{what} must be a number or [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        raise DocumentError(f"{what} is too large for a float") from None
    if not cmath.isfinite(z):  # NaN, Infinity or a float literal beyond the float range
        raise DocumentError(f"{what} is not finite")
    return z


def cmd_units(args) -> int:
    h = _load_hypergraph(args.hypergraph)
    result = unit_contraction(h)
    doc = {
        "count": len(result.units),
        "units": [
            {
                "key": u.key,
                "members": list(u.members),
                "size": u.size,
                "generating_edges": list(u.generating_edges),
            }
            for u in result.units.units
        ],
        "vertex_map": dict(result.vertex_map),
        "contracted": result.contracted.to_dict(),
    }
    _emit(doc, args.out)
    return 0


def cmd_matrix(args) -> int:
    h = _load_hypergraph(args.hypergraph)
    M = _load_matrix(h, args)
    report = row_sum_check(M)
    doc = M.to_document()
    doc["kind"] = M.kind
    doc["row_sums"] = {
        "expected": report.expected,
        "sums": complex_pair(report.sums),
        "violations": [
            {"row": i, "label": h.labels[i], "sum": complex_pair(s)}
            for i, s in report.violations
        ],
        "tol": report.tol,
    }
    _emit(doc, args.out)
    return 0


def cmd_validate_symmetry(args) -> int:
    h = _load_hypergraph(args.hypergraph)
    mode, table = _load_symmetry(args.symmetry, args.mode)
    doc: dict = {"mode": mode}
    if mode == "automorphism":
        try:
            aut = validate_automorphism(h, table)
        except HypersymError as exc:
            _emit({**doc, "valid": False, "reason": str(exc)}, args.out)
            return CHECK_FAILED
        doc.update(
            valid=True,
            order=aut.order,
            edge_map=dict(aut.edge_map),
            orbits=orbits(aut).label_cells(h.labels),
        )
    else:
        try:
            ua = validate_unit_automorphism(h, table)
        except HypersymError as exc:
            _emit({**doc, "valid": False, "reason": str(exc)}, args.out)
            return CHECK_FAILED
        doc.update(
            valid=True,
            order=ua.order,
            edge_map=dict(ua.edge_map),
            unit_map=ua.unit_key_map(),
            cardinality_preserving=ua.cardinality_preserving,
        )
        try:
            doc["lift"] = lift_cardinality_preserving(ua).perm.to_label_map(h.labels)
        except NotUnitAutomorphismError as exc:
            doc.update(lift=None, lift_error=str(exc))
    _emit(doc, args.out)
    return 0


def _dense_beside(M):
    """Start dense_spectrum(M) on a thread of its own and return the function
    that joins it. That function gives the report, or None when the solve
    raised or met a floating-point event numpy's settings here would report;
    the caller's verify_decomposition then solves again itself. M's balance
    decision is taken first, in the calling thread, so that the two threads
    never both make it; both then solve the one read-only array M holds
    (matrices.prepared), which neither copies or writes."""
    prepared(M)  # decides the balance here, kept by M before the thread starts
    modes = {kind: "ignore" if mode == "ignore" else "call" for kind, mode in np.geterr().items()}
    done: list[SpectrumReport] = []

    def solve() -> None:
        events: list[str] = []
        try:
            with np.errstate(**modes, call=lambda kind, flag: events.append(kind)):
                report = dense_spectrum(M)
        except Exception:  # raised again by the calling thread's own solve
            return
        if not events:
            done.append(report)

    thread = threading.Thread(target=solve, name="hypersym-dense-oracle")
    thread.start()

    def join() -> SpectrumReport | None:
        thread.join()
        return done[0] if done else None

    return join


def _decomposition_report(args, match_tol: float, body) -> int:
    """Decompose, check against the dense oracle and emit the report head,
    body(dec) and the verification; a refused decomposition emits a fail
    verdict with the refusal. The oracle's dense solve runs beside the
    decomposition (_dense_beside), from the symmetry's validation on."""
    try:
        h = _load_hypergraph(args.hypergraph)
        mode, table = _load_symmetry(args.symmetry, args.mode)
        M = _load_matrix(h, args)
        if mode == "automorphism":
            decompose, symmetry = decompose_automorphism, validate_automorphism(h, table)
        else:
            decompose, symmetry = decompose_unit_automorphism, validate_unit_automorphism(h, table)
        join = _dense_beside(M)
        try:
            dec = decompose(M, symmetry, tol=args.tol)
        finally:
            dense = join()
    except HypersymError as exc:
        if isinstance(exc, DocumentError):
            raise
        _emit({"verdict": "fail", "error": str(exc)}, args.out)
        return CHECK_FAILED
    report = verify_decomposition(M, dec, tol=match_tol, dense=dense)
    doc = {"mode": mode, "kind": args.kind, "order": h.n, **body(dec), "verification": report.to_document()}
    _emit(doc, args.out)
    return 0 if report.verdict else CHECK_FAILED


def cmd_decompose(args) -> int:
    return _decomposition_report(args, MATCH_TOL, SpectralDecomposition.to_document)


def cmd_verify(args) -> int:
    return _decomposition_report(
        args, args.tol_match, lambda dec: {"claimed": len(dec.eigenvalues()), "skipped": list(dec.skipped)}
    )


def cmd_dynamics(args) -> int:
    h = _load_hypergraph(args.hypergraph)
    mode, table = _load_symmetry(args.symmetry, args.mode)
    if mode != "automorphism":
        raise DocumentError("dynamics runs on vertex automorphisms ('map' documents)")
    M = _load_matrix(h, args)
    aut = validate_automorphism(h, table)
    x0 = _load_state(args.x0, h)
    orbs = orbits(aut)
    traj = iterate(M, x0, steps=args.steps, orbs=orbs, normalize=args.normalize)
    report = check_orbit_synchronization(traj, tol=args.tol)
    doc = {
        "kind": args.kind,
        "orbits": orbs.label_cells(h.labels),
        "synchronized": report.synchronized,
        "first_violation_step": report.first_violation_step,
        "max_scaled_deviation": report.max_scaled_deviation,
        "tol": report.tol,
    }
    if report.first_nonfinite_step is not None:  # JSON has no inf or nan: no trajectory
        doc["error"] = (
            f"the state at step {report.first_nonfinite_step} is not finite: the run overflowed; "
            "pass --normalize to rescale each state"
        )
    else:
        doc["trajectory"] = traj.to_document()
    _emit(doc, args.out)
    return 0 if report.synchronized else CHECK_FAILED  # a state that is not finite is a violation


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    for trial in range(args.count):
        h, aut = random_instance(rng, n_max=12)
        M = compatible_matrix(rng, aut.perm, symmetric=bool(trial % 2))
        if check_commutation(M, aut) > 1e-12:
            failures.append(f"trial {trial}: commutation broke")
        if not is_equitable(M, orbits(aut)):
            failures.append(f"trial {trial}: orbit partition not equitable")
        dec = decompose_automorphism(M, aut)
        report = verify_decomposition(M, dec)
        if not report.verdict:
            failures.append(f"trial {trial}: {report.failures[0]}")
        N = compatible_matrix(rng, aut.perm, nonnegative=True)
        rho_full, rho_quot = spectral_radius_via_quotient(N, aut)
        if abs(rho_full - rho_quot) > 1e-8 * max(1.0, rho_full):
            failures.append(f"trial {trial}: spectral radius mismatch")
        weights = invariant_weights(rng, h, aut)
        G = build_matrix(h, "general_adjacency", weights=weights)
        decg = decompose_automorphism(G, aut)
        if not verify_decomposition(G, decg).verdict:
            failures.append(f"trial {trial}: general_adjacency decomposition failed")
    for line in failures:
        print("FAIL", line)
    print(f"selftest: {args.count - len(set(f.split(':')[0] for f in failures))}"
          f"/{args.count} trials clean (seed {args.seed})")
    return CHECK_FAILED if failures else 0


def _number(convert, low: int):
    """argparse type of a numeric flag: convert(text), finite and at least low."""
    what = "a finite number" if convert is float else "an integer"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"expected {what} >= {low}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersym",
        description="Spectra of hypergraph matrices through rotation and unit symmetries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, symmetry=True, matrix=True):
        p.add_argument("hypergraph", help="hypergraph JSON document")
        if symmetry:
            p.add_argument("symmetry", help="symmetry JSON document ('map' or 'unit_map')")
            p.add_argument(
                "--mode",
                choices=["auto", "automorphism", "unit"],
                default="auto",
                help="force how the symmetry document is read",
            )
        if matrix:
            p.add_argument("--kind", required=True, choices=MATRIX_KINDS)
            p.add_argument("--weights", help="weights JSON (general_* kinds only)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("units", help="unit partition and contraction")
    add_common(p, symmetry=False, matrix=False)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("matrix", help="build a matrix and report row sums")
    add_common(p, symmetry=False)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("validate-symmetry", help="check a symmetry document")
    add_common(p, matrix=False)
    p.set_defaults(func=cmd_validate_symmetry)

    p = sub.add_parser("decompose", help="block decomposition with lifted eigenpairs")
    add_common(p)
    p.add_argument("--tol", type=_number(float, 0), default=COMPAT_TOL, help="compatibility tolerance")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="decompose and check against the dense spectrum")
    add_common(p)
    p.add_argument("--tol", type=_number(float, 0), default=COMPAT_TOL, help="compatibility tolerance")
    p.add_argument(
        "--tol-match", type=_number(float, 0), default=MATCH_TOL, help="eigenvalue match tolerance"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dynamics", help="iterate x -> Mx and track orbit synchronization")
    add_common(p)
    p.add_argument("--x0", required=True, help="initial state JSON document")
    p.add_argument("--steps", type=_number(int, 0), required=True)
    p.add_argument("--normalize", action="store_true", help="sup-normalize each state")
    p.add_argument("--tol", type=_number(float, 0), default=SYNC_TOL, help="synchronization tolerance")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("selftest", help="random instances through the full pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_number(int, 1), default=25)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of main rather than at import;
    parse_args leaves it as it was, so every call shares it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HypersymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
