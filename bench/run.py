"""Benchmark of the hypersym CLI and library on seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload rot2-decompose --seed 1 --seconds 20 --trace 0

One run, with tracing off (``--trace 0``):

1. set-up: a fresh interpreter imports ``hypersym.cli``, eleven times;
2. the CLI phase (the first 70% of ``--seconds``): one client calls
   ``hypersym.cli.main`` in-process in a closed loop, each report written to
   a file, over the seed's instances; every eighth operation is a negative
   control that must be refused naming the broken edge;
3. the library phase (the rest): ``decompose_automorphism`` or
   ``decompose_unit_automorphism`` on the already-built matrix and validated
   symmetry, each followed by a dense ``np.linalg.eig`` of the same matrix;
   ``speedup_vs_dense`` is the median over these pairs of dense time over
   decompose time.

With ``--trace 1`` every CLI operation runs twice on the same instance,
once untraced and once under the outside-in tracer (``tracer.py``), and
the two reports must be byte-identical; the per-layer metrics come from the
traced operations and the spans are written to ``.bench_work/``.

Every operation is checked (exit code, verdict, eigenvalue count, refusal
witness). The metrics are printed by name with their units, then one JSON
line; the exit code is 1 if any check failed. BLAS runs with a fixed thread
count and ``HSPEC_THREADS`` is unset, so the library runs at its default.

Times are in reference seconds. The host's speed drifts by up to a fifth
over tens of seconds, for wall and CPU time alike, which no run length
here averages out. So every timed interval is followed by a fixed
reference kernel (a LAPACK solve plus an interpreter-bound loop, code of
this benchmark only) and scaled by REF_S over the mean of the reference
times on either side. On a host where the kernel takes REF_S seconds the
figures are wall seconds; the raw wall medians are printed beside them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1  # fixed, and at most nproc; a second BLAS thread adds noise on small boxes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("HSPEC_THREADS", None)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hypersym" / "cli.py").is_file():
    sys.exit(f"error: {SRC / 'hypersym'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from hypersym import cli  # noqa: E402
from hypersym.errors import HypersymError  # noqa: E402
from hypersym.hypergraph import parse_hypergraph  # noqa: E402
from hypersym.matrices import build_matrix  # noqa: E402
from hypersym.oracle import MATCH_TOL  # noqa: E402
from hypersym.spectral import decompose_automorphism  # noqa: E402
from hypersym.symmetry import validate_automorphism  # noqa: E402
from hypersym.unit_symmetry import decompose_unit_automorphism, validate_unit_automorphism  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Workload, generate, schedule  # noqa: E402

DENSE_EIG = np.linalg.eig  # the baseline, bound before any tracing
REF_S = 0.01  # nominal time of the reference kernel
REF_MATRIX = np.random.default_rng(0).normal(size=(90, 90))
REF_LOOP = 50_000
SETUP_RUNS = 11
CLI_SHARE = 0.7  # share of --seconds given to the CLI phase
MIN_SAMPLES = 40  # accepted operations per run, so the p75 tail has ten beyond it
TAIL_PERCENTILE = 75
WORK = ROOT / ".bench_work"

# Per-layer metrics: "<span>.self_s" for every span below, and "<span>.calls"
# for the spans whose call count an optimisation is likely to change.
SELF_SPANS = (
    "cli.main",
    "jsonutil.canonical_json",
    "hypergraph.parse_hypergraph",
    "hypergraph.compute_units",
    "matrices.build_matrix",
    "symmetry.validate_automorphism",
    "unit_symmetry.validate_unit_automorphism",
    "symmetry.compatibility_deviation",
    "symmetry.orbit_quotient",
    "symmetry.equitable_witness",
    "spectral.rotation_matrix",
    "spectral.lift_vector",
    "spectral.decompose_automorphism",
    "spectral.block_eig",
    "unit_symmetry.profile_unit_compatibility",
    "unit_symmetry.unit_quotient",
    "unit_symmetry.blow_up",
    "unit_symmetry.decompose_unit_automorphism",
    "oracle.dense_eig",
    "oracle.dense_spectrum",
    "oracle.match_multisets",
    "oracle.verify_decomposition",
)
COUNTED_SPANS = (
    "symmetry.compatibility_deviation",
    "symmetry.orbit_quotient",
    "symmetry.equitable_witness",
    "spectral.rotation_matrix",
    "spectral.lift_vector",
    "spectral.block_eig",
    "unit_symmetry.profile_unit_compatibility",
    "unit_symmetry.unit_quotient",
)


def reference() -> float:
    """Seconds taken by the reference kernel. It allocates no containers, so
    the program's heap cannot slow it through garbage collection."""
    t0 = perf_counter()
    DENSE_EIG(REF_MATRIX)
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


class Clock:
    """Scales intervals to reference seconds by the reference kernel timed
    before and after each one."""

    def __init__(self) -> None:
        self.last = reference()
        self.refs: list[float] = [self.last]

    def scale(self, seconds: float) -> tuple[float, float]:
        """(reference seconds, factor applied); runs the kernel once."""
        after = reference()
        factor = REF_S / ((self.last + after) / 2)
        self.last = after
        self.refs.append(after)
        return seconds * factor, factor


class Run:
    """Samples and check failures of one benchmark run."""

    def __init__(self, workload: Workload, work: Path) -> None:
        self.w = workload
        self.work = work
        self.clock = Clock()
        self.raw: dict[str, list[float]] = {"op_s": [], "lib_s": [], "dense_s": [], "setup_s": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.op_s: list[float] = []  # accepted positive operations
        self.busy_s = 0.0  # reference seconds spent inside cli.main, all operations
        # Per accepted positive report: (instance, skipped pairs, max match error).
        # Only these are kept, so the harness's heap stays small and constant.
        self.reports: list[tuple[Instance, int, float]] = []
        self.report_bytes: list[int] = []
        self.traced_ops: list[tuple[int, Instance, float, float]] = []  # (op id, instance, seconds, factor)
        self.lib_s: list[float] = []
        self.dense_s: list[float] = []
        self.speedup: list[float] = []  # dense / decompose wall time, per adjacent pair
        self.scale: dict[Path, float] = {}  # symmetry document -> oracle scale of its matrix
        self.block_cost: dict[Path, float] = {}  # symmetry document -> sum b_i^3 / n^3
        self.lift_slack = 0.0  # max lifted residual / match threshold

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    # -- CLI phase -----------------------------------------------------------

    def cli_op(self, inst: Instance, out: Path) -> tuple[float, float, int]:
        """(reference seconds, scale factor, exit code) of one CLI call."""
        argv = [self.w.command, str(inst.hypergraph), str(inst.symmetry), "--kind", self.w.kind, "--out", str(out)]
        t0 = perf_counter()
        rc = cli.main(argv)
        return (*self.clock.scale(perf_counter() - t0), rc)

    def check(self, inst: Instance, rc: int, raw: bytes) -> dict | None:
        """The report if the operation had the expected outcome, else None
        (after recording why)."""
        label = f"{inst.symmetry.name} on {inst.hypergraph.name}"
        try:
            doc = json.loads(raw)
        except ValueError:
            self.fail(f"{label}: report is not JSON")
            return None
        if inst.refused_edge is not None:
            if rc != 1:
                self.fail(f"{label}: negative control exited {rc}, expected 1")
            elif f"image of edge {inst.refused_edge!r}" not in doc.get("error", ""):
                self.fail(f"{label}: refusal does not name edge {inst.refused_edge!r}: {doc.get('error')!r}")
            else:
                return doc
            return None
        if rc != 0:
            self.fail(f"{label}: exited {rc}, expected 0")
        elif doc.get("verification", {}).get("verdict") != "pass":
            self.fail(f"{label}: verdict is not pass: {doc.get('verification', {}).get('failures')}")
        elif self._claimed(doc) != inst.n:
            self.fail(f"{label}: {self._claimed(doc)} eigenvalues claimed for order {inst.n}")
        else:
            return doc
        return None

    def _claimed(self, doc: dict) -> int:
        if self.w.command == "verify":
            return doc.get("claimed", -1)
        return sum(len(b["eigenvalues"]) for b in doc.get("blocks", []))

    def record(self, inst: Instance, dt: float, factor: float, rc: int, out: Path) -> bytes:
        """Count one untraced operation and check its report."""
        raw = out.read_bytes()
        self.attempted += 1
        self.busy_s += dt
        doc = self.check(inst, rc, raw)
        if doc is not None and inst.refused_edge is None:
            self.op_s.append(dt)
            self.raw["op_s"].append(dt / factor)
            self.reports.append(
                (inst, len(doc["skipped"]), doc["verification"]["max_match_error"])
            )
            self.report_bytes.append(len(raw))
        return raw

    def cli_phase(self, positives, negatives, deadline: float, tracer: Tracer | None) -> None:
        out = self.work / "report.json"
        traced_out = self.work / "report-traced.json"
        self.cli_op(positives[0], out)  # warm-up, not counted
        # A traced run needs no tail, and each of its operations runs twice.
        min_samples = MIN_SAMPLES if tracer is None else MIN_SAMPLES // 4
        i = 0
        while perf_counter() < deadline or (len(self.op_s) < min_samples and not self.failures):
            inst = schedule(i, positives, negatives)
            if tracer is None:
                self.record(inst, *self.cli_op(inst, out), out)
            else:
                self.traced_pair(i, inst, out, traced_out, tracer)
            i += 1

    def traced_pair(self, i: int, inst: Instance, out: Path, traced_out: Path, tracer: Tracer) -> None:
        """The operation untraced and traced, in alternating order; the two
        reports must be byte-identical."""
        results = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.op = i
                with tracer:
                    results[traced] = self.cli_op(inst, traced_out)
                if tracer.unrestored():
                    self.fail(f"tracer left wrappers bound: {tracer.unrestored()}")
            else:
                results[traced] = self.cli_op(inst, out)
        raw = self.record(inst, *results[False], out)
        self.traced_ops.append((i, inst, *results[True][:2]))
        if traced_out.read_bytes() != raw:
            self.fail(f"{inst.symmetry.name}: traced and untraced reports differ")

    # -- library phase -------------------------------------------------------

    def lib_phase(self, positives, deadline: float) -> None:
        prepared = [self._prepare(inst) for inst in positives]
        self._lib_op(*prepared[0])  # warm-up, not counted
        j = 0
        while perf_counter() < deadline or j < 2 * len(prepared):
            self._lib_op(*prepared[j % len(prepared)], record=True)
            j += 1

    def _prepare(self, inst: Instance):
        h = parse_hypergraph(inst.hypergraph.read_text())
        M = build_matrix(h, self.w.kind)
        table = json.loads(inst.symmetry.read_text())
        if self.w.copies == 1:
            return inst, M, validate_automorphism(h, table["map"]), decompose_automorphism
        return inst, M, validate_unit_automorphism(h, table["unit_map"]), decompose_unit_automorphism

    def _lib_op(self, inst: Instance, M, symmetry, decompose, record: bool = False) -> None:
        t0 = perf_counter()
        try:
            dec = decompose(M, symmetry)
        except HypersymError as exc:
            self.fail(f"library decompose of {inst.hypergraph.name} refused: {exc}")
            return
        lib = perf_counter() - t0
        lib_ref, _ = self.clock.scale(lib)
        t0 = perf_counter()
        DENSE_EIG(M.entries)
        dense = perf_counter() - t0
        dense_ref, _ = self.clock.scale(dense)
        if not record:
            return
        self.lib_s.append(lib_ref)
        self.dense_s.append(dense_ref)
        self.speedup.append(dense / lib)
        self.raw["lib_s"].append(lib)
        self.raw["dense_s"].append(dense)
        orders = [b.order for b in dec.blocks]
        if sum(orders) != inst.n or len(dec.eigenvalues()) != inst.n:
            self.fail(f"library decompose of {inst.hypergraph.name}: block orders sum to {sum(orders)}, expected {inst.n}")
        scale = self.scale[inst.symmetry] = _scale(M.entries)
        self.block_cost[inst.symmetry] = sum(b**3 for b in orders) / inst.n**3
        worst = max((p.residual for p in dec.lifted), default=0.0)
        self.lift_slack = max(self.lift_slack, worst / (MATCH_TOL * scale))


def _scale(A: np.ndarray) -> float:
    """max(1, ||A||_inf), the oracle's scale for its match threshold."""
    return max(1.0, float(np.abs(A).sum(axis=1).max()))


def measure_setup(run: Run) -> list[float]:
    """Reference seconds of a fresh interpreter importing hypersym.cli."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import hypersym.cli"], env=env, check=True, cwd=ROOT)
        wall = perf_counter() - t0
        run.raw["setup_s"].append(wall)
        times.append(run.clock.scale(wall)[0])
    return times


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypersym").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "HSPEC_THREADS": os.environ.get("HSPEC_THREADS"),
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        return ref_path.read_text().strip() if ref_path.is_file() else ref
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}-pid{os.getpid()}"
    run = Run(w, work)
    env = environment()
    print("env", json.dumps(env, sort_keys=True))
    try:
        setup = measure_setup(run) if args.trace == 0 else []
        positives, negatives = generate(w, args.seed, work)
        tracer = Tracer() if args.trace else None
        start = perf_counter()
        run.cli_phase(positives, negatives, start + CLI_SHARE * args.seconds, tracer)
        run.lib_phase(positives, start + args.seconds)
        if tracer is not None:
            tracer.write(WORK / f"spans-{w.name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not run.op_s or not run.lib_s:
        print(f"error: no accepted operation; {len(run.failures)} checks failed", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics = end_to_end(run, setup)
    else:
        metrics = per_layer(run, tracer)
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:16.6g} {unit}")
    raw = ", ".join(f"{k} {statistics.median(v):.6g} s" for k, v in run.raw.items() if v)
    print(f"raw wall medians: {raw}; reference kernel median {statistics.median(run.clock.refs):.6g} s "
          f"(REF_S {REF_S} s)")
    print(f"op_s.tail is p{TAIL_PERCENTILE} of {len(run.op_s)} accepted operations; "
          f"{run.attempted} attempted, {len(run.failures)} failed "
          f"(fail_ratio {len(run.failures) / max(1, run.attempted):.6g})")
    correct = not run.failures and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end(run: Run, setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(run.op_s), "s"),
        "op_s.tail": (float(np.percentile(run.op_s, TAIL_PERCENTILE)), "s"),
        "ops_per_s": (run.attempted / run.busy_s, "1/s"),
        "lib_decompose_s.p50": (statistics.median(run.lib_s), "s"),
        "speedup_vs_dense": (statistics.median(run.speedup), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(run: Run, tracer: Tracer) -> dict[str, tuple[float, str]]:
    per_op = tracer.self_times()
    ops = [(per_op.get(i, {}), factor) for i, inst, _, factor in run.traced_ops if inst.refused_edge is None]
    traced_s = [dt for _, inst, dt, _ in run.traced_ops if inst.refused_edge is None]
    metrics: dict[str, tuple[float, str]] = {}
    for span in SELF_SPANS:
        values = [op.get(span, [0.0, 0])[0] * factor for op, factor in ops]
        metrics[f"{span}.self_s"] = (statistics.median(values), "s")
    for span in COUNTED_SPANS:
        values = [op.get(span, [0.0, 0])[1] for op, _ in ops]
        metrics[f"{span}.calls"] = (float(statistics.median(values)), "count")
    metrics["jsonutil.report_bytes"] = (float(statistics.median(run.report_bytes)), "bytes")
    metrics["spectral.block_cost_ratio"] = (statistics.median(run.block_cost.values()), "ratio")
    metrics["spectral.skipped_pairs"] = (
        float(max(skipped for _, skipped, _ in run.reports)), "count")
    metrics["spectral.max_lift_residual_slack"] = (run.lift_slack, "ratio")
    metrics["oracle.max_match_slack"] = (
        max(err / (MATCH_TOL * run.scale[inst.symmetry]) for inst, _, err in run.reports),
        "ratio",
    )
    metrics["baseline.dense_eig_s.p50"] = (statistics.median(run.dense_s), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s) / statistics.median(run.op_s) - 1, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
