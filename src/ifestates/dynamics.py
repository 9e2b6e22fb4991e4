"""Time evolution tracers: deviation from free evolution, subsystem
energies, and covariance of free-invariant observable pairs.

All propagation is exact spectral propagation of time-independent
Hamiltonians (units with hbar = 1).  ``H = V diag(w) V^H`` is
diagonalized once per system; the spectrum of ``H_0`` is built from those
of ``h_a`` and ``h_b`` (``core._eig``: sums ``e_i + f_j`` in ascending
order, exact ties in Kronecker ``(i, j)`` order).  Both are cached on the
system.
:func:`trace_pure_states` evolves a whole block of states at once: the
eigenbasis coefficients ``V^H S`` are phased for every grid time and
mapped back with one matrix product per block of columns, and local
observables act on the ``dim_a x dim_b`` factors of that block, never
through a Kronecker product.  One state is a block of one column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteSystem, _apply_local, _cached, _eig
from .linalg import require_hermitian, require_unit_states, spectral_norm

__all__ = [
    "FreeInvarianceError",
    "EvolutionReport",
    "time_grid",
    "trace_pure_states",
]

# Each evolved expectation of a Hermitian observable must be real up to this
# imaginary residue.
_IMAG_TOL = 1e-10
# Complex entries of one evolved ``d x m_chunk x T`` block: the pure-state
# tracer takes as many columns per matrix product as fit, at least one, so
# its working set stays a few MB whatever the number of states.  The
# density-matrix deviation sizes its stacks by the same rule: the dense
# form's ``c x d x d`` stacks of grid times, and the frequency form's slabs
# of rows (at most four of these per slab) and their stacks of grid times.
# Where one time fills a dense stack (``d >= 91``) the frequency form may
# take over.
_CHUNK_ENTRIES = 2**14


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


def _checked_times(times) -> np.ndarray:
    """``times`` as a float array, raising unless it is a non-empty, finite 1-D grid.

    Both tracers call it first, so a malformed grid is named before any
    factorization or product.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-D grid, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return times


def _eig_overlap(sys: BipartiteSystem) -> np.ndarray:
    """``W = V^H V0``: the eigenbasis of ``H_0`` in that of ``H``, once per system."""
    return _cached(sys, "eig_overlap", lambda: _eig(sys)[1].conj().T @ _eig(sys, free=True)[1])


def _real_expectations(bra: np.ndarray, applied: np.ndarray, shape, what: str) -> np.ndarray:
    """``<x|O|x>`` of each column ``x`` of a block, given ``bra = conj(x)`` and ``applied = O x``.

    ``applied`` is overwritten.  The values come back as an ``m x T``
    array (``shape``); each row is one state's trace and must be real up
    to ``_IMAG_TOL`` relative to its largest value.
    """
    vals = np.multiply(bra, applied, out=applied).sum(axis=0).reshape(shape)
    if vals.size:
        imag = np.abs(vals.imag).max(axis=1)
        bad = np.flatnonzero(imag > _IMAG_TOL * np.maximum(1.0, np.abs(vals).max(axis=1)))
        if bad.size:
            raise FloatingPointError(
                f"{what} expectation has imaginary residue {imag[bad[0]]:.3e}"
            )
    return vals.real


def _free_invariant_pair(sys: BipartiteSystem, o_a, o_b):
    """Validated observables; raises :class:`FreeInvarianceError` unless both are free-invariant.

    The system's own ``h_a`` (``h_b``) was checked when the system was built
    and commutes with itself, so it is passed through as is.
    """
    pair = []
    for name, op, h_free in (("o_a", o_a, sys.h_a), ("o_b", o_b, sys.h_b)):
        if op is not h_free:
            op = require_hermitian(op, name=name)
            if op.shape != h_free.shape:
                raise ValueError(f"{name} has shape {op.shape}, expected {h_free.shape}")
            defect = spectral_norm(op @ h_free - h_free @ op)
            scale = max(1.0, spectral_norm(op) * spectral_norm(h_free))
            if defect > 1e-10 * scale:
                raise FreeInvarianceError(
                    f"{name} does not commute with its free Hamiltonian "
                    f"(relative defect {defect / scale:.3e}); covariance constancy does not apply"
                )
        pair.append(op)
    return pair


def trace_pure_states(sys: BipartiteSystem, states, times, *, alphas=None,
                      energies: bool = False, observables=None) -> list[EvolutionReport]:
    """Evolution traces of every column of a ``d x m`` block of unit states.

    The block is evolved under ``H`` and, when ``alphas`` are given, under
    ``H_0``.  Both spectra come from the system's cache, so only the first
    call on a system pays for an eigensolve: one of ``H``, and those of
    ``h_a`` and ``h_b``, from which the spectrum of ``H_0`` is built.  One
    report per column carries the traces requested:

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

    With ``H = V diag(w) V^H``, ``H_0 = V0 diag(w0) V0^H`` and the
    eigenbasis coefficients ``C = V^H S``, ``C0 = V0^H S``, the evolved
    states of a block of columns at every grid time are the one product
    ``X = V @ A`` with ``A[:, (j, k)] = C[:, j] * exp(-i w t_k)``, a
    ``d x (m_chunk T)`` matrix.  The deviation is taken in the eigenbasis
    of ``H``: the norm of each column of ``A - W @ A0``, where ``W = V^H
    V0`` (cached per system) and ``A0[:, (j, k)] = C0[:, j] * exp(-i (w0 +
    alpha_j) t_k)``.  Observables act on ``X`` through its ``dim_a x
    dim_b`` factors, and each expectation is a column sum of ``conj(X) *
    (O X)``.  Columns are taken ``m_chunk`` at a time, as many as keep
    the ``d x m_chunk x T`` block within ``_CHUNK_ENTRIES`` complex
    entries (at least one).  Blocked products round differently from one
    state at a time: the traces agree with one-state traces to about
    ``1e-13 * max(1, ||h_a||) * max(1, ||h_b||)``, not to the last bit.
    """
    times = _checked_times(times)
    states = require_unit_states(states, sys.dim)
    m = states.shape[1]
    if alphas is not None:
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (m,):
            raise ValueError(f"expected {m} alphas (one per state), got shape {alphas.shape}")
        if not np.isfinite(alphas).all():
            raise ValueError("alphas must be finite")
    if observables is not None:
        o_a, o_b = _free_invariant_pair(sys, *observables)

    w, v = _eig(sys)
    coeff = v.conj().T @ states
    phases = np.exp(-1j * np.outer(w, times))
    if alphas is not None:
        w0, v0 = _eig(sys, free=True)
        overlap = _eig_overlap(sys)
        coeff0 = v0.conj().T @ states
        phases0 = np.exp(-1j * np.outer(w0, times))
        alpha_phases = np.exp(-1j * np.outer(alphas, times))
    # an observable that is the system's own h_a (h_b) reuses the energy product
    share_a = energies and observables is not None and o_a is sys.h_a
    share_b = energies and observables is not None and o_b is sys.h_b

    keys = (["deviation"] if alphas is not None else []) \
        + (["energy_a", "energy_b"] if energies else []) \
        + (["covariance"] if observables is not None else [])
    traces = {key: np.empty((m, times.size)) for key in keys}

    def trace_chunk(cols: slice) -> None:
        # a function, so that each chunk's blocks are freed before the next
        shape = (cols.stop - cols.start, times.size)
        # eigenbasis coefficients of the evolved states, one column per (state, time)
        amp = (coeff[:, cols, None] * phases[:, None, :]).reshape(sys.dim, -1)
        if alphas is not None:
            free = coeff0[:, cols, None] * phases0[:, None, :]
            free *= alpha_phases[None, cols, :]
            free = overlap @ free.reshape(sys.dim, -1)
            free -= amp
            traces["deviation"][cols] = np.linalg.norm(free, axis=0).reshape(shape)
            del free
        full = v @ amp
        del amp
        if not (energies or observables is not None):
            return
        # O x for every observable, then conj(x) in place of x; each
        # expectation overwrites its O x, so at most four blocks are live
        if energies:
            h_a_x = _apply_local(sys, full, op_a=sys.h_a)
            h_b_x = _apply_local(sys, full, op_b=sys.h_b)
        if observables is not None:
            o_a_x = None if share_a else _apply_local(sys, full, op_a=o_a)
            o_b_x = h_b_x if share_b else _apply_local(sys, full, op_b=o_b)
            joint_x = _apply_local(sys, o_b_x, op_a=o_a)
        bra = np.conj(full, out=full)
        if energies:
            traces["energy_a"][cols] = _real_expectations(bra, h_a_x, shape, "subsystem-a energy")
            traces["energy_b"][cols] = _real_expectations(bra, h_b_x, shape, "subsystem-b energy")
        if observables is not None:
            joint = _real_expectations(bra, joint_x, shape, "joint observable")
            mean_a = traces["energy_a"][cols] if share_a else \
                _real_expectations(bra, o_a_x, shape, "subsystem-a observable")
            mean_b = traces["energy_b"][cols] if share_b else \
                _real_expectations(bra, o_b_x, shape, "subsystem-b observable")
            traces["covariance"][cols] = joint - mean_a * mean_b

    chunk = max(1, _CHUNK_ENTRIES // (sys.dim * times.size))
    for lo in range(0, m, chunk):
        trace_chunk(slice(lo, min(lo + chunk, m)))

    reports = []
    for j in range(m):
        fields = {key: values[j] for key, values in traces.items()}
        if alphas is not None:
            fields["max_deviation"] = float(fields["deviation"].max())
        reports.append(EvolutionReport(times=times, **fields))
    return reports

