"""Linear dynamics x_{k+1} = M x_k and orbit synchronization.

When M is compatible with an automorphism, the subspace of vectors
constant on every orbit is invariant: states that start synchronized
across an orbit stay synchronized. In floating point the computed
states leave the orbits by rounding errors, and those errors grow with
||M||, not with the state: when the blocks of M other than the orbit
quotient have the larger spectral radius, the errors outgrow the
synchronized state. The check therefore scales its tolerance with
s_k = max(||x_k||, ||M|| s_{k-1}), a bound on how far the rounding
errors of the earlier steps can have grown by step k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypersymError
from .jsonutil import complex_pair
from .matrices import as_array
from .symmetry import OrbitPartition

SYNC_TOL = 1e-10


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (steps + 1, n), states[0] = x0
    steps: int
    normalized: bool
    orbit_cells: tuple[tuple[int, ...], ...] | None
    sync_log: np.ndarray | None  # (steps + 1, n_cells) max in-cell deviation
    error_scale: np.ndarray  # (steps + 1,) s_k, see the module docstring

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_document(self) -> dict:
        log = [] if self.sync_log is None else [
            [float(d) for d in row] for row in self.sync_log
        ]
        return {
            "steps": self.steps,
            "sync_log": log,
            "final_state": [complex_pair(z) for z in self.final_state],
        }


def _cell_deviations(x: np.ndarray, cells) -> np.ndarray:
    out = np.zeros(len(cells))
    for i, cell in enumerate(cells):
        if len(cell) > 1:
            vals = x[list(cell)]
            out[i] = float(np.abs(vals - vals.mean()).max())
    return out


def iterate(M, x0, steps: int, orbs: OrbitPartition | None = None, normalize: bool = False) -> Trajectory:
    """Run x_{k+1} = M x_k for the given number of steps.

    With orbs given, sync_log records the max in-orbit deviation from the
    orbit mean at every step. normalize rescales each state to unit
    sup-norm (useful when ||M|| > 1 over long runs); s_k is rescaled with
    the state.
    """
    A = as_array(M)
    x = np.asarray(x0, dtype=np.complex128)
    if x.shape != (A.shape[0],):
        raise HypersymError(
            f"initial state has shape {x.shape}, matrix order is {A.shape[0]}"
        )
    if not np.all(np.isfinite(x)):
        raise HypersymError("initial state has non-finite entries")
    if steps < 0:
        raise HypersymError(f"steps must be non-negative, got {steps}")
    cells = orbs.cells if orbs is not None else None
    states = np.zeros((steps + 1, A.shape[0]), dtype=np.complex128)
    states[0] = x
    norm = float(np.abs(A).sum(axis=1).max(initial=0.0))
    scale = np.zeros(steps + 1)
    scale[0] = float(np.abs(x).max(initial=0.0))
    log = np.zeros((steps + 1, len(cells))) if cells is not None else None
    if log is not None:
        log[0] = _cell_deviations(x, cells)
    for k in range(1, steps + 1):
        x = A @ x
        grown = norm * scale[k - 1]
        if normalize:
            peak = float(np.abs(x).max())
            if peak > 0:
                x = x / peak
                grown /= peak
        states[k] = x
        scale[k] = max(float(np.abs(x).max(initial=0.0)), grown)
        if log is not None:
            log[k] = _cell_deviations(x, cells)
    return Trajectory(
        states=states,
        steps=steps,
        normalized=normalize,
        orbit_cells=cells,
        sync_log=log,
        error_scale=scale,
    )


@dataclass(frozen=True)
class SyncReport:
    synchronized: bool
    first_violation_step: int | None
    max_scaled_deviation: float
    tol: float


def check_orbit_synchronization(traj: Trajectory, orbs: OrbitPartition | None = None, tol: float = SYNC_TOL) -> SyncReport:
    """Decide whether every state is constant on every orbit.

    The per-step threshold is tol * max(1, s_k), where s_k (from iterate)
    bounds the growth of the rounding errors of every earlier step, so
    neither growth under ||M|| > 1 nor errors amplified in the blocks other
    than the orbit quotient produce false alarms. Reports the first
    violating step (0 means the initial state was already desynchronized).
    """
    if orbs is not None:
        cells = orbs.cells
        log = np.stack([_cell_deviations(x, cells) for x in traj.states])
    elif traj.sync_log is not None:
        log = traj.sync_log
    else:
        raise HypersymError("trajectory has no sync log; pass the orbit partition")
    first: int | None = None
    max_scaled = 0.0
    for k in range(log.shape[0]):
        scale = max(1.0, float(traj.error_scale[k]))
        dev = float(log[k].max()) if log.shape[1] else 0.0
        max_scaled = max(max_scaled, dev / scale)
        if dev > tol * scale and first is None:
            first = k
    return SyncReport(
        synchronized=first is None,
        first_violation_step=first,
        max_scaled_deviation=max_scaled,
        tol=tol,
    )
