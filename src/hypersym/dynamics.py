"""Linear dynamics x_{k+1} = M x_k and orbit synchronization.

When M is compatible with an automorphism, the subspace of vectors
constant on every orbit is invariant: states that start synchronized
across an orbit stay synchronized. In floating point the computed
states leave the orbits by rounding errors, and those errors grow with
||M||, not with the state: when the blocks of M other than the orbit
quotient have the larger spectral radius, the errors outgrow the
synchronized state. The check therefore scales its tolerance with
s_k = max(||x_k||, ||M|| s_{k-1}), a bound on how far the rounding
errors of the earlier steps can have grown by step k. On normalised runs
the growth term is capped at the largest float, so s_k stays finite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import HypersymError
from .jsonutil import complex_pair
from .matrices import as_array
from .symmetry import OrbitPartition, _cell_layout

SYNC_TOL = 1e-10
# the cap of s_k's growth term on normalised runs, where tol * s_k exceeds
# every deviation of a state of sup-norm 1 long before it, so the cap changes
# no verdict; a plain run's state may itself approach the largest float, and
# a capped s_k would then understate the bound, so there s_k may reach inf
_LARGEST = sys.float_info.max


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (steps + 1, n), states[0] = x0
    steps: int
    sync_log: np.ndarray | None  # (steps + 1, n_cells) max in-cell deviation
    error_scale: np.ndarray  # (steps + 1,) s_k, see the module docstring

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_document(self) -> dict:
        return {
            "steps": self.steps,
            "sync_log": [] if self.sync_log is None else self.sync_log.tolist(),
            "final_state": complex_pair(self.final_state),
        }


def _sync_log(states: np.ndarray, orbs: OrbitPartition) -> np.ndarray:
    """log[k, i] = max over cell i of |x_k - mean of x_k over cell i|, for
    every state at once, from one grouped pass over the columns in cell
    order; singleton cells log 0."""
    order, starts, sizes = _cell_layout(orbs.cells)
    X = states[:, order]  # a copy, so the means are subtracted in place
    X -= np.repeat(np.add.reduceat(X, starts, axis=1) / sizes, sizes, axis=1)
    log = np.maximum.reduceat(np.abs(X), starts, axis=1)
    log[:, sizes == 1] = 0.0  # also when the state has overflowed to inf or nan
    return log


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
    if orbs is not None and orbs.n != A.shape[0]:
        raise HypersymError(
            f"orbit partition covers {orbs.n} indices, matrix order is {A.shape[0]}"
        )
    states = np.zeros((steps + 1, A.shape[0]), dtype=np.complex128)
    states[0] = x
    norm = float(np.abs(A).sum(axis=1).max(initial=0.0))
    scale = np.zeros(steps + 1)
    s = scale[0] = float(np.abs(x).max(initial=0.0))
    for k in range(1, steps + 1):
        x = A @ x
        grown = norm * s  # Python floats: an overflow gives inf, with no warning
        if normalize:
            peak = float(np.abs(x).max())
            if peak > 0:
                x = x / peak
                grown /= peak
            grown = min(grown, _LARGEST)
        states[k] = x
        s = scale[k] = max(float(np.abs(x).max(initial=0.0)), grown)
    return Trajectory(
        states=states,
        steps=steps,
        sync_log=None if orbs is None else _sync_log(states, orbs),
        error_scale=scale,
    )


@dataclass(frozen=True)
class SyncReport:
    synchronized: bool
    first_violation_step: int | None
    max_scaled_deviation: float
    tol: float


def check_orbit_synchronization(traj: Trajectory, tol: float = SYNC_TOL) -> SyncReport:
    """Decide from the trajectory's sync log whether every state is
    constant on every orbit.

    The per-step threshold is tol * max(1, s_k), where s_k (from iterate)
    bounds the growth of the rounding errors of every earlier step, so
    neither growth under ||M|| > 1 nor errors amplified in the blocks other
    than the orbit quotient produce false alarms. Reports the first
    violating step (0 means the initial state was already desynchronized).
    """
    if traj.sync_log is None:
        raise HypersymError("trajectory has no sync log; iterate with the orbit partition")
    scale = np.maximum(1.0, traj.error_scale)
    dev = traj.sync_log.max(axis=1, initial=0.0)
    violations = np.flatnonzero(dev > tol * scale)
    return SyncReport(
        synchronized=violations.size == 0,
        first_violation_step=int(violations[0]) if violations.size else None,
        # fmax skips the nan of an overflowed state
        max_scaled_deviation=float(np.fmax.reduce(dev / scale, initial=0.0)),
        tol=tol,
    )
