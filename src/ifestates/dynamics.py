"""Time evolution tracers: deviation from free evolution, subsystem
energies, and covariance of free-invariant observable pairs.

All propagation is exact spectral propagation of time-independent
Hamiltonians (units with hbar = 1).  ``H`` and ``H_0`` are diagonalized
once per system (the spectra are cached on it); :func:`trace_pure_states`
then evolves each state once per generator and sweeps the time grid with
phase factors.  The single-trace functions are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteSystem, _eig
from .linalg import as_operator, kron, propagator, require_hermitian, spectral_norm

__all__ = [
    "FreeInvarianceError",
    "EvolutionReport",
    "time_grid",
    "evolve_pure",
    "trace_pure_states",
    "ife_deviation_trace",
    "energy_trace",
    "covariance_trace",
]

# Each evolved expectation of a Hermitian observable must be real up to this
# imaginary residue.
_IMAG_TOL = 1e-10


class FreeInvarianceError(ValueError):
    """An observable fails to commute with its free Hamiltonian.

    The constancy of the covariance only holds for observables invariant
    under the free evolution of their own subsystem, so the trace refuses
    to run rather than report a meaningless curve.
    """


@dataclass(frozen=True)
class EvolutionReport:
    """Per-time-step traces; fields not computed by a tracer stay None."""

    times: np.ndarray
    deviation: np.ndarray | None = None
    energy_a: np.ndarray | None = None
    energy_b: np.ndarray | None = None
    covariance: np.ndarray | None = None
    max_deviation: float | None = None


def time_grid(t_max: float = 10.0, steps: int = 101) -> np.ndarray:
    """Uniform grid of ``steps`` points on [0, t_max], endpoints included."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return np.linspace(0.0, float(t_max), int(steps))


def evolve_pure(h, psi, t: float) -> np.ndarray:
    """exp(-i h t) |psi> for a Hermitian generator and a unit vector."""
    h = as_operator(h)
    psi = _unit_columns(_one_state(psi), h.shape[0])[:, 0]
    return propagator(h, t) @ psi


def _one_state(psi) -> np.ndarray:
    return np.asarray(psi, dtype=complex).reshape(-1)


def _unit_columns(states, dim: int) -> np.ndarray:
    """``states`` as a ``dim x m`` complex block of unit columns; 1-d is one column."""
    states = np.asarray(states, dtype=complex)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise ValueError(f"expected a state vector or a block of state columns, got shape {states.shape}")
    if states.shape[0] != dim:
        raise ValueError(f"state has dimension {states.shape[0]}, expected {dim}")
    norms = np.linalg.norm(states, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"state is not normalized: ||psi|| = {float(norms[bad[0]])!r}")
    return states


def _propagation(w, v, times):
    """``(v^H, v, exp(-i w t_k))`` of a generator ``h = v diag(w) v^H`` on a grid."""
    return v.conj().T, v, np.exp(-1j * np.outer(w, times))


def _evolved_columns(propagation, psi) -> np.ndarray:
    """Columns exp(-i h t_k) psi, one per grid time."""
    vh, v, phases = propagation
    coeff = vh @ psi
    return v @ (phases * coeff[:, None])


def _real_expectations(states: np.ndarray, op: np.ndarray, what: str) -> np.ndarray:
    vals = np.einsum("ik,ij,jk->k", states.conj(), op, states)
    imag = float(np.abs(vals.imag).max()) if vals.size else 0.0
    if imag > _IMAG_TOL * max(1.0, float(np.abs(vals).max())):
        raise FloatingPointError(
            f"{what} expectation has imaginary residue {imag:.3e}"
        )
    return vals.real


def _free_invariant_pair(sys: BipartiteSystem, o_a, o_b):
    """Validated observables; raises :class:`FreeInvarianceError` unless both are free-invariant."""
    o_a = require_hermitian(o_a, name="o_a")
    o_b = require_hermitian(o_b, name="o_b")
    for name, op, h_free in (("o_a", o_a, sys.h_a), ("o_b", o_b, sys.h_b)):
        if op.shape != h_free.shape:
            raise ValueError(f"{name} has shape {op.shape}, expected {h_free.shape}")
        defect = spectral_norm(op @ h_free - h_free @ op)
        scale = max(1.0, spectral_norm(op) * spectral_norm(h_free))
        if defect > 1e-10 * scale:
            raise FreeInvarianceError(
                f"{name} does not commute with its free Hamiltonian "
                f"(relative defect {defect / scale:.3e}); covariance constancy does not apply"
            )
    return o_a, o_b


def trace_pure_states(sys: BipartiteSystem, states, times, *, alphas=None,
                      energies: bool = False, observables=None) -> list[EvolutionReport]:
    """Evolution traces of every column of a ``d x m`` block of unit states.

    Each column is evolved once under ``H`` and, when ``alphas`` are
    given, once under ``H_0``.  Both spectra come from the system's cache,
    so only the first call on a system pays for an eigensolve.  One report
    per column carries the traces requested:

    * ``alphas`` (one per column): ``deviation[k] = || exp(-iHt_k) psi -
      exp(-i alpha t_k) exp(-iH_0 t_k) psi ||`` and its maximum, ~0
      exactly for members of the sector at ``alpha``;
    * ``energies``: ``<H_A (x) I>`` and ``<I (x) H_B>``;
    * ``observables = (o_a, o_b)``: the covariance
      ``<O_A O_B> - <O_A><O_B>``.  Both must be Hermitian and commute with
      their subsystem's free Hamiltonian (free invariance), else
      :class:`FreeInvarianceError`; checked once per call.  When an
      observable is the system's own ``h_a`` (``h_b``) and ``energies``
      is set, its mean is the energy trace, not a second expectation.

    Every column is propagated and measured on its own, with the same
    products as a one-state trace, so the traces are bit-identical to
    tracing the states one at a time.
    """
    times = np.asarray(times, dtype=float)
    states = _unit_columns(states, sys.dim)
    if alphas is not None and len(alphas) != states.shape[1]:
        raise ValueError(f"expected {states.shape[1]} alphas (one per state), got {len(alphas)}")
    if observables is not None:
        o_a, o_b = _free_invariant_pair(sys, *observables)

    full_propagation = _propagation(*_eig(sys), times)
    if alphas is not None:
        free_propagation = _propagation(*_eig(sys, free=True), times)

    eye_a = np.eye(sys.dim_a)
    eye_b = np.eye(sys.dim_b)
    ops = {}  # trace key -> (operator, description), in evaluation order
    if energies:
        ops["energy_a"] = (kron(sys.h_a, eye_b), "subsystem-a energy")
        ops["energy_b"] = (kron(eye_a, sys.h_b), "subsystem-b energy")
    if observables is not None:
        ops["joint"] = (kron(o_a, o_b), "joint observable")
        mean_a = "energy_a" if energies and o_a is sys.h_a else "mean_a"
        mean_b = "energy_b" if energies and o_b is sys.h_b else "mean_b"
        if mean_a == "mean_a":
            ops["mean_a"] = (kron(o_a, eye_b), "subsystem-a observable")
        if mean_b == "mean_b":
            ops["mean_b"] = (kron(eye_a, o_b), "subsystem-b observable")

    reports = []
    for j in range(states.shape[1]):
        psi = states[:, j]
        full = _evolved_columns(full_propagation, psi)
        fields = {}
        if alphas is not None:
            phase = np.exp(-1j * float(alphas[j]) * times)
            free = _evolved_columns(free_propagation, psi) * phase[None, :]
            fields["deviation"] = np.linalg.norm(full - free, axis=0)
            fields["max_deviation"] = float(fields["deviation"].max())
        values = {key: _real_expectations(full, op, what) for key, (op, what) in ops.items()}
        if energies:
            fields["energy_a"] = values["energy_a"]
            fields["energy_b"] = values["energy_b"]
        if observables is not None:
            fields["covariance"] = values["joint"] - values[mean_a] * values[mean_b]
        reports.append(EvolutionReport(times=times, **fields))
    return reports


def ife_deviation_trace(sys: BipartiteSystem, psi, alpha: float, times) -> EvolutionReport:
    """Norm distance between full evolution and phased free evolution.

    deviation[k] = || exp(-iHt_k) psi - exp(-i alpha t_k) exp(-iH_0 t_k) psi ||;
    identically ~0 exactly for members of the sector at ``alpha``.
    """
    return trace_pure_states(sys, _one_state(psi), times, alphas=[alpha])[0]


def energy_trace(sys: BipartiteSystem, psi, times) -> EvolutionReport:
    """Subsystem energies <H_A (x) I> and <I (x) H_B> under full evolution."""
    return trace_pure_states(sys, _one_state(psi), times, energies=True)[0]


def covariance_trace(sys: BipartiteSystem, psi, o_a, o_b, times) -> EvolutionReport:
    """Covariance <O_A O_B> - <O_A><O_B> along the full evolution.

    Both observables must be Hermitian and commute with their subsystem's
    free Hamiltonian (free invariance); otherwise the constancy statement
    does not apply and :class:`FreeInvarianceError` is raised.
    """
    return trace_pure_states(sys, _one_state(psi), times, observables=(o_a, o_b))[0]
