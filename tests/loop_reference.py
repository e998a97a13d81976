"""Loop reference versions of the vectorised quotient, check, unit pair,
cycle layout, rotation gather and lift, matching and synchronization code, the
one-shot compatibility deviation, the complex-only dense oracle, the
out-list JSON emitter and the member-by-member hypergraph code.

These are the original per-cell-pair, per-unit, per-element and per-step
loops the library replaced with whole-array numpy passes. They are kept
here, outside the package, so test_loop_equivalence.py can require the
library to give the same witnesses, messages, quotients, matchings and
synchronization verdicts, and the same bytes for the unit pairs (one pass
over the unit arrays in the library, one unit at a time here) and for the
rotation columns and lifts (one gather and one scatter in the library, one
per component here). cycles, orbits and rotation_decomposition walk a
permutation's cycles on every call and write the orbits and rotation
factors cycle by cycle and vertex by vertex, where the library walks them
once and reads both off that one layout; test_loop_equivalence.py requires
the same cycles, order, cells, cell indices and factors.
match_multisets_argmin is the matching that took
one argmin per value over the whole distance array, before the library
searched only a window of real parts; test_loop_equivalence.py requires the
same pairs, lists and order from both, non-finite values included.
compatibility_deviation takes the deviation of the whole matrix at once,
where the library takes a block of rows at a time; test_loop_equivalence.py
requires the same value and witness bit for bit. dense_spectrum is the oracle that solved every
matrix as complex128 (LAPACK zgeev); test_oracle.py requires the real
drivers to give the same verdicts and failures. canonical_json is the
emitter that appended every token to one out-list and formatted floats with
format(x, ".17g"), and complex_pairs the per-entry [re, im] conversion;
test_loop_equivalence.py requires the library's encoder and whole-array
conversion to give the same bytes and the same errors. The emitter expands
each row node (jsonutil._Rows) in a list into the documents it stands for,
one per line of its values, and prints each of them float by float.

The hypergraph loops come last: the class that built and checked every
edge as a frozenset and every star as a set, member by member, and the
build, unit, cover and symmetry checks that read those sets, with the dense
n x m incidence matrix behind every matrix kind. test_loop_equivalence.py
requires the CSR library to give the same attributes, the same matrices
(bitwise for the unweighted kinds) and the same refusals, word for word.
"""

import json
import math

import numpy as np

from hypersym import (
    DocumentError,
    HypersymError,
    Hyperedge,
    NotAutomorphismError,
    NotEquitableError,
    NotUnitAutomorphismError,
    NotUnitCompatibleError,
    Permutation,
    Rotation,
    Unit,
    UnitPartition,
    sort_labels,
    unit_key,
)
from hypersym.jsonutil import _ENTRIES, _HOLE, _Rows, require_key, require_object
from hypersym.matrices import RECIPROCAL_KINDS, WEIGHTED_KINDS, as_array
from hypersym.oracle import MATCH_TOL, SpectrumReport
from hypersym.spectral import residual_norms


def equitable_witness(M, cells, tol):
    A = as_array(M)
    covered = sorted(v for cell in cells for v in cell)
    if covered != list(range(A.shape[0])):
        raise HypersymError("partition does not cover the index set exactly once")
    for i, cell in enumerate(cells):
        if len(cell) == 1:
            continue
        for j, other in enumerate(cells):
            sums = A[np.ix_(cell, other)].sum(axis=1)
            dev = np.abs(sums - sums[0])
            k = int(np.argmax(dev))
            if dev[k] > tol:
                return (i, cell[0], cell[k], j, complex(sums[0]), complex(sums[k]))
    return None


def orbit_quotient(M, cells, tol):
    A = as_array(M)
    witness = equitable_witness(A, cells, tol)
    if witness is not None:
        i, u, u2, j, s1, s2 = witness
        raise NotEquitableError(
            f"partition is not equitable: rows {u} and {u2} of cell {i} sum to "
            f"{s1} and {s2} over cell {j}"
        )
    q = len(cells)
    Q = np.zeros((q, q), dtype=np.complex128)
    for i, cell in enumerate(cells):
        rep = cell[0]
        for j, other in enumerate(cells):
            Q[i, j] = A[rep, list(other)].sum()
    return Q


def profile_unit_compatibility(M, units, tol):
    """(d, r, rows) of a unit-compatible matrix, or NotUnitCompatibleError."""
    A = as_array(M)
    d = []
    r = []
    rows = np.zeros((len(units.units), units.n), dtype=np.complex128)
    for i, unit in enumerate(units.units):
        mem = list(unit.member_indices)
        key = unit.key
        rows[i] = A[mem[0]]
        diag = A[mem, mem]
        if np.abs(diag - diag[0]).max() > tol:
            k = int(np.argmax(np.abs(diag - diag[0])))
            raise NotUnitCompatibleError(
                f"unit {key!r}: diagonal entries differ: {diag[0]} at {mem[0]} "
                f"vs {diag[k]} at {mem[k]}"
            )
        d.append(complex(diag[0]))
        if len(mem) == 1:
            r.append(None)
        else:
            sub = A[np.ix_(mem, mem)]
            off = sub[~np.eye(len(mem), dtype=bool)]
            if np.abs(off - off[0]).max() > tol:
                raise NotUnitCompatibleError(
                    f"unit {key!r}: off-diagonal entries within the unit are not "
                    f"constant: {off[0]} vs {off[np.argmax(np.abs(off - off[0]))]}"
                )
            r.append(complex(off[0]))
            outside = [w for w in range(units.n) if w not in unit.member_indices]
            if outside:
                block = A[np.ix_(mem, outside)]
                dev = np.abs(block - block[0]).max(axis=0)
                if dev.max() > tol:
                    w = outside[int(np.argmax(dev))]
                    raise NotUnitCompatibleError(
                        f"unit {key!r}: rows toward outside vertex {w} differ "
                        f"(max deviation {dev.max():.3e})"
                    )
                blockT = A[np.ix_(outside, mem)]
                devc = np.abs(blockT - blockT[:, :1]).max(axis=1)
                if devc.max() > tol:
                    w = outside[int(np.argmax(devc))]
                    raise NotUnitCompatibleError(
                        f"unit {key!r}: columns from outside vertex {w} differ "
                        f"(max deviation {devc.max():.3e})"
                    )
    return tuple(d), tuple(r), rows


def unit_quotient(M, units, tol):
    A = as_array(M)
    profile_unit_compatibility(A, units, tol)
    q = len(units.units)
    N = np.zeros((q, q), dtype=np.complex128)
    for i, unit in enumerate(units.units):
        rep = unit.member_indices[0]
        for j, other in enumerate(units.units):
            N[i, j] = A[rep, list(other.member_indices)].sum()
    return N


def unit_lifts(A, units):
    """(index, values, vectors, residuals) of every unit of size at least 2,
    one unit at a time: d - r |W| - 1 times, the columns chi_v - chi_v0 and
    their residuals. The vectors are built as rows and transposed, as the
    library lays them out: a column's norm sums its squares pairwise when
    the column is contiguous, in another order when it is not."""
    out = []
    for i, unit in enumerate(units.units):
        mem = list(unit.member_indices)
        if len(mem) < 2:
            continue
        rows = np.zeros((len(mem) - 1, units.n))
        for j, w in enumerate(mem[1:]):
            rows[j, w] = 1.0
            rows[j, mem[0]] = -1.0
        values = np.full(len(mem) - 1, A[mem[0], mem[0]] - A[mem[0], mem[1]])
        AV = A[:, mem[1:]] - A[:, [mem[0]] * (len(mem) - 1)]
        out.append((i, values, rows.T, residual_norms(AV, rows.T, values)))
    return out


def cycles(perm):
    """All cycles (fixed points included), each starting at its smallest
    element, listed in order of that element: one walk per call."""
    seen = [False] * perm.n
    out = []
    for start in range(perm.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = perm.mapping[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = perm.mapping[v]
        out.append(tuple(cyc))
    return out


def order(perm):
    return math.lcm(*(len(c) for c in cycles(perm))) if perm.n else 1


def orbits(perm):
    """(cells, cell_index): each cycle sorted, and the cell of each vertex
    written vertex by vertex."""
    cells = tuple(tuple(sorted(c)) for c in cycles(perm))
    index = [0] * perm.n
    for i, cell in enumerate(cells):
        for v in cell:
            index[v] = i
    return cells, tuple(index)


def rotation_decomposition(perm):
    """One Rotation per nontrivial cycle length, ascending, its components
    and underlying permutation written cycle by cycle."""
    by_length = {}
    for cyc in cycles(perm):
        if len(cyc) > 1:
            by_length.setdefault(len(cyc), []).append(cyc)
    factors = []
    for length in sorted(by_length):
        cycs = sorted(by_length[length], key=lambda c: c[0])
        mapping = list(range(perm.n))
        for c in cycs:
            for t, v in enumerate(c):
                mapping[v] = c[(t + 1) % length]
        factors.append(
            Rotation(
                order_n=length,
                components=tuple(tuple(c[i] for c in cycs) for i in range(length)),
                underlying=Permutation(tuple(mapping)),
            )
        )
    return tuple(factors)


def rotation_columns(A, rows, cols, omega):
    """sum_i omega^i A[rows.u0, f^i(cols.u0)], one gather per component."""
    terms = [omega.pow(i) * A[np.ix_(rows.u0, comp)] for i, comp in enumerate(cols.components)]
    return sum(terms[1:], terms[0])


def lift_rotation_vector(x, rot, omega, n_full):
    """omega^i x written at component i, one scatter per component."""
    x = np.asarray(x)
    full = np.zeros((n_full,) + x.shape[1:], dtype=np.result_type(x, omega.value))
    for i, comp in enumerate(rot.components):
        full[list(comp)] = omega.pow(i) * x
    return full


def compatibility_deviation(A, perm):
    """Max |A[u, v] - A[f(u), f(v)]| and its entry, from one n x n deviation
    array and one argmax (the library takes a block of rows at a time)."""
    idx = np.array(perm.mapping)
    D = np.abs(A - A[np.ix_(idx, idx)])
    u, v = np.unravel_index(int(np.argmax(D)), D.shape)
    return float(D[u, v]), (int(u), int(v))


def match_multisets(a, b, tol):
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = sorted((complex(z) for z in b), key=lambda z: (z.real, z.imag))
    used = [False] * len(b)
    pairs = []
    unmatched_a = []
    for x in a:
        best, best_err = -1, np.inf
        for j, y in enumerate(b):
            if used[j]:
                continue
            err = abs(x - y)
            if err < best_err:
                best, best_err = j, err
        if best >= 0 and best_err <= tol:
            used[best] = True
            pairs.append((x, b[best], float(best_err)))
        else:
            unmatched_a.append(x)
    unmatched_b = [y for j, y in enumerate(b) if not used[j]]
    return pairs, unmatched_a, unmatched_b


def match_multisets_argmin(a, b, tol):
    """The matching as one argmin per element of a over the whole row of an
    n x n distance array, which the windowed search of the library
    replaced: err[i, j] = hypot of the parts of a_i - b_j, NaN taken as inf,
    a used column set to inf."""
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = sorted((complex(z) for z in b), key=lambda z: (z.real, z.imag))
    if not a or not b:
        return [], a, b
    diff = np.array(a)[:, None] - np.array(b)[None, :]
    err = np.hypot(diff.real, diff.imag)
    err[np.isnan(err)] = np.inf
    used = np.zeros(len(b), dtype=bool)
    pairs = []
    unmatched_a = []
    for i, x in enumerate(a):
        j = int(np.argmin(err[i]))  # the first of equally near elements
        best_err = float(err[i, j])
        if best_err < np.inf and best_err <= tol:
            used[j] = True
            err[:, j] = np.inf
            pairs.append((x, b[j], best_err))
        else:
            unmatched_a.append(x)
    unmatched_b = [y for y, u in zip(b, used) if not u]
    return pairs, unmatched_a, unmatched_b


def cell_deviations(x, cells):
    """Max in-cell deviation from the cell mean of one state, per cell."""
    out = np.zeros(len(cells))
    for i, cell in enumerate(cells):
        if len(cell) > 1:
            vals = x[list(cell)]
            out[i] = float(np.abs(vals - vals.mean()).max())
    return out


def check_orbit_synchronization(states, error_scale, cells, tol):
    """(synchronized, first_violation_step, max_scaled_deviation), deciding
    step by step against tol * max(1, s_k)."""
    first = None
    max_scaled = 0.0
    for k, x in enumerate(states):
        scale = max(1.0, float(error_scale[k]))
        log = cell_deviations(x, cells)
        dev = float(log.max()) if len(log) else 0.0
        max_scaled = max(max_scaled, dev / scale)
        if dev > tol * scale and first is None:
            first = k
    return first is None, first, max_scaled


def dense_spectrum(M):
    """Full spectrum by complex eig of the complex128 matrix, whatever its
    entries, sorted by (real, imag), with complex residuals."""
    A = as_array(M)
    if not np.all(np.isfinite(A)):
        raise HypersymError("matrix has non-finite entries")
    vals, vecs = np.linalg.eig(A)
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]
    scale = max(1.0, float(np.abs(A).sum(axis=1).max())) if A.size else 1.0
    residuals = residual_norms(A @ vecs, vecs, vals)
    failures = tuple(
        f"dense eigenpair {i} residual {residuals[i]:.3e}"
        for i in np.flatnonzero(residuals > MATCH_TOL * scale)
    )
    return SpectrumReport(
        eigenvalues=vals, residuals=residuals, verdict=not failures, scale=scale, failures=failures
    )


def format_float(x):
    if math.isnan(x) or math.isinf(x):
        raise DocumentError(f"non-finite number {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj):
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, complex):
        raise DocumentError("complex values must be encoded as [re, im] pairs")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DocumentError(f"object key {key!r} is not a string")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(doc for item in obj for doc in (expand(item) if type(item) is _Rows else [item])):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise DocumentError(f"cannot serialize value of type {type(obj).__name__}")


def expand(node):
    """The documents of a row node: its row with the holes, in document
    order (keys sorted), filled from one line of its values each, and its
    repeated list the entry count times."""
    docs = []
    for line in node.values.tolist():
        floats = iter(line)
        docs.append(_fill(node, node.row, floats))
        assert next(floats, None) is None, "more values than holes"
    return docs


def _fill(node, obj, floats):
    if obj is _HOLE:
        return next(floats)
    if obj is _ENTRIES:
        return [_fill(node, node.entry, floats) for _ in range(node.count)]
    if isinstance(obj, dict):
        return {key: _fill(node, obj[key], floats) for key in sorted(obj)}
    if isinstance(obj, list):
        return [_fill(node, item, floats) for item in obj]
    return obj


def complex_pairs(z):
    """[re, im] per entry of a 1-d array, or the pair of a 0-d one."""
    if np.ndim(z) == 0:
        return [float(z.real), float(z.imag)]
    return [[float(w.real), float(w.imag)] for w in z]


class Hypergraph:
    """The hypergraph that checked and stored every edge member by member."""

    def __init__(self, vertices, edges):
        labels = [str(v) for v in vertices]
        if not labels:
            raise DocumentError("hypergraph needs at least one vertex")
        if len(set(labels)) != len(labels):
            dup = next(lab for lab in labels if labels.count(lab) > 1)
            raise DocumentError(f"duplicate vertex label {dup!r}")
        self.labels = tuple(sort_labels(labels))
        self.index = {lab: i for i, lab in enumerate(self.labels)}

        seen_ids = {}
        seen_sets = {}
        built = []
        member_sets = []
        for eid, members in edges:
            eid = str(eid)
            if eid in seen_ids:
                raise DocumentError(f"duplicate edge id {eid!r}")
            seen_ids[eid] = len(built)
            mem = [str(v) for v in members]
            if not mem:
                raise DocumentError(f"edge {eid!r} has no members")
            idxs = []
            for v in mem:
                if v not in self.index:
                    raise DocumentError(f"edge {eid!r} names unknown vertex {v!r}")
                idxs.append(self.index[v])
            if len(set(idxs)) != len(idxs):
                raise DocumentError(f"edge {eid!r} repeats a member")
            mset = frozenset(idxs)
            if mset in seen_sets:
                raise DocumentError(
                    f"edges {seen_sets[mset]!r} and {eid!r} have the same member set"
                )
            seen_sets[mset] = eid
            ordered = tuple(self.labels[i] for i in sorted(idxs))
            built.append(Hyperedge(eid, ordered))
            member_sets.append(mset)

        self.edges = tuple(built)
        self.edge_ids = tuple(e.id for e in built)
        self.edge_index = seen_ids
        self.member_sets = tuple(member_sets)
        stars = [set() for _ in self.labels]
        for j, mset in enumerate(member_sets):
            for i in mset:
                stars[i].add(j)
        self.stars = tuple(frozenset(s) for s in stars)

    @classmethod
    def from_dict(cls, doc):
        doc = require_object(doc, "hypergraph document")
        vertices = require_key(doc, "vertices", "hypergraph document")
        edges = require_key(doc, "edges", "hypergraph document")
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise DocumentError("hypergraph 'vertices' must be a list of strings")
        if not isinstance(edges, list):
            raise DocumentError("hypergraph 'edges' must be a list")
        pairs = []
        for entry in edges:
            entry = require_object(entry, "edge entry")
            eid = require_key(entry, "id", "edge entry")
            members = require_key(entry, "members", "edge entry")
            if not isinstance(eid, str):
                raise DocumentError("edge 'id' must be a string")
            if not isinstance(members, list) or not all(isinstance(v, str) for v in members):
                raise DocumentError(f"edge {eid!r} 'members' must be a list of strings")
            pairs.append((eid, members))
        return cls(vertices, pairs)


def _incidence(h):
    B = np.zeros((len(h.labels), len(h.edges)))
    for j, mset in enumerate(h.member_sets):
        for i in mset:
            B[i, j] = 1.0
    return B


def build_matrix(h, kind, weights=None):
    """The entries of the matrix of one kind, from (B * g) @ B.T over the
    dense incidence matrix B."""
    n = len(h.labels)
    if kind in RECIPROCAL_KINDS:
        for e in h.edges:
            if len(e) < 2:
                raise HypersymError(f"kind {kind!r} is undefined with singleton edge {e.id!r}")
    if kind == "transition":
        for i, s in enumerate(h.stars):
            if not s:
                raise HypersymError(
                    f"transition matrix undefined: vertex {h.labels[i]!r} has empty star"
                )
    B = _incidence(h)
    sizes = np.array([len(e) for e in h.edges], dtype=float)
    star_sizes = B.sum(axis=1)
    if kind == "adjacency_r":
        M = B @ B.T
        np.fill_diagonal(M, 0.0)
    elif kind in RECIPROCAL_KINDS:
        C = (B * (1.0 / (sizes - 1.0))) @ B.T if len(h.edges) else np.zeros((n, n))
        np.fill_diagonal(C, 0.0)
        if kind == "adjacency_b":
            M = C
        elif kind == "transition":
            M = C / star_sizes[:, None]
        elif kind == "laplacian_b":
            M = -C
            np.fill_diagonal(M, star_sizes)
        else:  # signless_q
            M = C.copy()
            np.fill_diagonal(M, star_sizes)
    elif kind == "laplacian_r":
        C = B @ B.T
        np.fill_diagonal(C, 0.0)
        M = -C
        np.fill_diagonal(M, C.sum(axis=1))
    elif kind in WEIGHTED_KINDS:
        dv = np.array([weights.delta_V[lab] for lab in h.labels])
        de = np.array([weights.delta_E[eid] for eid in h.edge_ids])
        C2 = (B * (de / sizes**2)) @ B.T if len(h.edges) else np.zeros((n, n))
        scaled = C2 / dv[:, None]
        if kind == "general_adjacency":
            M = scaled.copy()
            np.fill_diagonal(M, 0.0)
        elif kind == "general_laplacian":
            M = -scaled
            np.fill_diagonal(M, (B @ (de / sizes)) / dv)
        else:  # general_signless
            M = scaled
    else:  # unit_normalized
        units = compute_units(h)
        nsize = np.array([units.units[units.unit_of[i]].size for i in range(n)], dtype=float)
        C = B @ B.T
        np.fill_diagonal(C, 0.0)
        M = C / nsize[None, :]
        np.fill_diagonal(M, star_sizes / nsize)
    return M.astype(np.complex128)


def compute_units(h):
    """Units grouped by their star frozensets, ordered by smallest member."""
    n = len(h.labels)
    groups = {}
    for i in range(n):
        groups.setdefault(h.stars[i], []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    units = []
    unit_of = [0] * n
    for ui, (star_set, idxs) in enumerate(ordered):
        idxs = sorted(idxs)
        members = tuple(h.labels[i] for i in idxs)
        gen = tuple(h.edge_ids[j] for j in sorted(star_set))
        units.append(Unit(unit_key(members), members, tuple(idxs), gen, star_set))
        for i in idxs:
            unit_of[i] = ui
    return UnitPartition(units=tuple(units), unit_of=tuple(unit_of), n=n)


def edge_unit_covers(h, units):
    covers = []
    for j, mset in enumerate(h.member_sets):
        seen = sorted({units.unit_of[i] for i in mset})
        if sum(units.units[ui].size for ui in seen) != len(mset):
            raise AssertionError(
                f"edge {h.edge_ids[j]!r} splits a unit; star computation is broken"
            )
        covers.append(tuple(seen))
    return tuple(covers)


def validate_automorphism(h, perm):
    """The edge map of a vertex permutation, from each edge's image set
    looked up among the member sets; NotAutomorphismError otherwise."""
    set_to_edge = {s: j for j, s in enumerate(h.member_sets)}
    edge_map = {}
    for j, mset in enumerate(h.member_sets):
        image = frozenset(perm(i) for i in mset)
        k = set_to_edge.get(image)
        if k is None:
            labels = sorted(h.labels[i] for i in image)
            raise NotAutomorphismError(
                f"image of edge {h.edge_ids[j]!r} is {labels}, which is not an edge"
            )
        edge_map[h.edge_ids[j]] = h.edge_ids[k]
    if len(set(edge_map.values())) != len(edge_map):
        raise NotAutomorphismError("induced edge map is not a bijection")
    return edge_map


def validate_unit_automorphism(h, units, perm):
    """The edge map of a unit permutation, from each edge's image cover
    looked up among the covers; NotUnitAutomorphismError otherwise."""
    covers = edge_unit_covers(h, units)
    cover_to_edge = {cover: j for j, cover in enumerate(covers)}
    edge_map = {}
    for j, cover in enumerate(covers):
        image = tuple(sorted(perm(ui) for ui in cover))
        k = cover_to_edge.get(image)
        if k is None:
            keys = [units.units[ui].key for ui in image]
            raise NotUnitAutomorphismError(
                f"image of edge {h.edge_ids[j]!r} covers units {keys}, which is not an edge"
            )
        edge_map[h.edge_ids[j]] = h.edge_ids[k]
    if len(set(edge_map.values())) != len(edge_map):
        raise NotUnitAutomorphismError("induced edge map is not a bijection")
    return edge_map
