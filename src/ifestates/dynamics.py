"""Time evolution tracers: deviation from free evolution, subsystem
energies, and covariance of free-invariant observable pairs.

All propagation is exact spectral propagation of time-independent
Hamiltonians (units with hbar = 1).  ``H = V diag(w) V^H`` is
diagonalized once per system (``core._total_eig``); the spectrum of
``H_0`` is built from those of ``h_a`` and ``h_b`` (``core._free_eig``:
sums ``e_i + f_j`` in ascending order, exact ties in Kronecker ``(i, j)``
order).  Both are cached on the system.
:func:`trace_pure_states` traces the same outputs for every state (the
deviation, both energies and one covariance) and evolves a whole block of
states at once: the eigenbasis coefficients ``V^H S`` are phased for
every grid time and mapped back with one matrix product per block of
columns, and local observables act on the ``dim_a x dim_b`` factors of
that block, never through a Kronecker product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteSystem, _apply_local, _eig_overlap, _free_eig, _total_eig
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
# density-matrix tracer sizes its stacks by the same rule (see ``mixed``).
_CHUNK_ENTRIES = 2**14


class FreeInvarianceError(ValueError):
    """An observable fails to commute with its free Hamiltonian.

    The constancy of the covariance only holds for observables invariant
    under the free evolution of their own subsystem, so the trace refuses
    to run rather than report a meaningless curve.
    """


@dataclass(frozen=True)
class EvolutionReport:
    """Per-time-step traces; the density-matrix tracer leaves ``covariance`` and unasked energies None."""

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


def _float_array(values, name: str) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, with ``name`` in the error for ragged or non-numeric input."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _checked_times(times) -> np.ndarray:
    """``times`` as a float array, raising unless it is a non-empty, finite 1-D grid.

    Both tracers call it first, so a malformed grid is named before any
    factorization or product.
    """
    times = _float_array(times, "times")
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"times must be a non-empty 1-D grid, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return times


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


def _free_invariant_pair(sys: BipartiteSystem, observables):
    """Validated ``(o_a, o_b)``; raises :class:`FreeInvarianceError` unless both are free-invariant."""
    size = len(observables) if hasattr(observables, "__len__") else None
    if size != 2 or isinstance(observables, (str, bytes)):
        of_size = "" if size is None else f" of length {size}"
        raise ValueError(f"observables must be a pair (o_a, o_b), got {type(observables).__name__}{of_size}")
    o_a, o_b = observables
    pair = []
    for name, op, h_free in (("o_a", o_a, sys.h_a), ("o_b", o_b, sys.h_b)):
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


def trace_pure_states(sys: BipartiteSystem, states, times, alphas, *,
                      observables=None) -> list[EvolutionReport]:
    """Evolution traces of every column of a ``d x m`` block of unit states.

    The block is evolved under ``H`` and under ``H_0``.  Both spectra come
    from the system's cache, so only the first call on a system pays for
    an eigensolve: one of ``H``, and those of ``h_a`` and ``h_b``, from
    which the spectrum of ``H_0`` is built.  One report per column carries
    every trace:

    * ``deviation[k] = || exp(-iHt_k) psi - exp(-i alpha t_k) exp(-iH_0
      t_k) psi ||`` and its maximum, with ``alphas`` one per column; ~0
      exactly for members of the sector at ``alpha``;
    * ``energy_a`` and ``energy_b``: ``<H_A (x) I>`` and ``<I (x) H_B>``;
    * ``covariance``: ``<O_A O_B> - <O_A><O_B>`` of ``observables = (o_a,
      o_b)``.  By default the pair is the system's own ``(h_a, h_b)``,
      whose means are the energy traces.  ``observables`` must hold
      exactly two operators, else ValueError; each must be Hermitian
      and commute with its subsystem's free Hamiltonian (free
      invariance), else :class:`FreeInvarianceError`; checked once per
      call, before anything is factorized or evolved.

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
    alphas = _float_array(alphas, "alphas")
    if alphas.shape != (m,):
        raise ValueError(f"expected {m} alphas (one per state), got shape {alphas.shape}")
    if not np.isfinite(alphas).all():
        raise ValueError("alphas must be finite")
    if observables is not None:
        o_a, o_b = _free_invariant_pair(sys, observables)

    w, v = _total_eig(sys)
    coeff = v.conj().T @ states
    phases = np.exp(-1j * np.outer(w, times))
    w0, v0 = _free_eig(sys)
    overlap = _eig_overlap(sys)
    coeff0 = v0.conj().T @ states
    phases0 = np.exp(-1j * np.outer(w0, times))
    alpha_phases = np.exp(-1j * np.outer(alphas, times))
    deviation, energy_a, energy_b, covariance = np.empty((4, m, times.size))

    def trace_chunk(cols: slice) -> None:
        # a function, so that each chunk's blocks are freed before the next
        shape = (cols.stop - cols.start, times.size)
        # eigenbasis coefficients of the evolved states, one column per (state, time)
        amp = (coeff[:, cols, None] * phases[:, None, :]).reshape(sys.dim, -1)
        free = coeff0[:, cols, None] * phases0[:, None, :]
        free *= alpha_phases[None, cols, :]
        free = overlap @ free.reshape(sys.dim, -1)
        free -= amp
        deviation[cols] = np.linalg.norm(free, axis=0).reshape(shape)
        del free
        full = v @ amp
        del amp
        # O x for every observable, then conj(x) in place of x; each
        # expectation overwrites its O x, so at most four blocks are live
        # for the default pair, whose O_B x is H_B x
        h_a_x = _apply_local(sys, full, op_a=sys.h_a)
        h_b_x = _apply_local(sys, full, op_b=sys.h_b)
        if observables is None:
            joint_x = _apply_local(sys, h_b_x, op_a=sys.h_a)
        else:
            o_a_x = _apply_local(sys, full, op_a=o_a)
            o_b_x = _apply_local(sys, full, op_b=o_b)
            joint_x = _apply_local(sys, o_b_x, op_a=o_a)
        bra = np.conj(full, out=full)
        energy_a[cols] = _real_expectations(bra, h_a_x, shape, "subsystem-a energy")
        energy_b[cols] = _real_expectations(bra, h_b_x, shape, "subsystem-b energy")
        joint = _real_expectations(bra, joint_x, shape, "joint observable")
        if observables is None:
            mean_a, mean_b = energy_a[cols], energy_b[cols]
        else:
            mean_a = _real_expectations(bra, o_a_x, shape, "subsystem-a observable")
            mean_b = _real_expectations(bra, o_b_x, shape, "subsystem-b observable")
        covariance[cols] = joint - mean_a * mean_b

    chunk = max(1, _CHUNK_ENTRIES // (sys.dim * times.size))
    for lo in range(0, m, chunk):
        trace_chunk(slice(lo, min(lo + chunk, m)))

    return [EvolutionReport(times=times, deviation=deviation[j], energy_a=energy_a[j],
                            energy_b=energy_b[j], covariance=covariance[j],
                            max_deviation=float(deviation[j].max()))
            for j in range(m)]
