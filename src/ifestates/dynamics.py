"""Time evolution tracers: deviation from free evolution, subsystem
energies, and covariance of free-invariant observable pairs.

All propagation is exact spectral propagation of time-independent
Hamiltonians (units with hbar = 1).  ``H = V diag(w) V^H`` is
diagonalized once per system (``core._total_eig``); the spectrum of
``H_0`` is built from those of ``h_a`` and ``h_b`` (``core._free_eig``).
Both are cached on the system.  :func:`trace_pure_states` traces the
deviation, both energies and one covariance of a whole block of states
in the eigenbasis of ``H_0``, where the free evolution and the
subsystem energies are diagonal: one matrix product per block of
columns maps the phased coefficients ``V^H S`` there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .core import (
    BipartiteSystem,
    _apply_local,
    _eig_overlap,
    _factor_eig,
    _free_eig,
    _free_factors,
    _total_eig,
)
from .linalg import require_hermitian, require_unit_states, spectral_norm

__all__ = [
    "FreeInvarianceError",
    "EvolutionReport",
    "time_grid",
    "trace_pure_states",
]

# Each mean of a given observable pair must be real up to this imaginary
# residue; the energies and the default pair's means are real by construction.
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
    """Per-time-step traces; the density-matrix tracer leaves ``covariance`` None."""

    times: np.ndarray
    deviation: np.ndarray | None = None
    energy_a: np.ndarray | None = None
    energy_b: np.ndarray | None = None
    covariance: np.ndarray | None = None
    max_deviation: float | None = None


def time_grid(t_max: float = 10.0, steps: int = 101) -> np.ndarray:
    """Uniform grid of ``steps`` points on [0, t_max]: ``steps`` an integer ``>= 1``, ``t_max`` finite."""
    if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    if not (isinstance(t_max, Real) and math.isfinite(t_max)):
        raise ValueError(f"t_max must be a finite number, got {t_max!r}")
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

    The block is evolved under ``H`` and under ``H_0``, whose spectra come
    from the system's cache: only the first call on a system pays for the
    eigensolves of ``H``, ``h_a`` and ``h_b``, from which the spectrum of
    ``H_0`` is built.  One report per column carries every trace:

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

    With ``H = V diag(w) V^H``, ``H_0 = V0 diag(w0) V0^H``, ``W = V^H V0``
    (cached per system), ``C = V^H S`` and ``C0 = V0^H S``, a block of
    columns is traced from one product ``X0 = W^H @ A`` with ``A[:, (j, k)]
    = C[:, j] * exp(-i w t_k)``: column ``(j, k)`` of ``X0`` is ``V0^H
    psi_j(t_k)``.  The deviation is the column norm of ``X0 - A0``, with
    ``A0[:, (j, k)] = C0[:, j] * exp(-i (w0 + alpha_j) t_k)``.  ``V0``'s
    columns are products of eigenvectors of ``h_a`` and ``h_b``
    (``core._free_factors``), so ``h_a (x) I``, ``I (x) h_b`` and ``h_a
    (x) h_b`` are diagonal there, and the energies and the default pair's
    joint mean are one real product of their eigenvalues with ``|X0|^2``.
    A given pair acts as ``V_a^H o_a V_a`` and ``V_b^H o_b V_b`` on the
    ``dim_a x dim_b`` factors of ``X0`` in Kronecker order; each of its
    means is a column sum of ``conj(X0) * (O X0)``.  Columns go
    ``m_chunk`` at a time, as many as keep the ``d x m_chunk x T`` block
    within ``_CHUNK_ENTRIES`` complex entries (at least one).  Blocked
    products round differently from one state at a time: the traces agree
    with one-state traces to about ``1e-13 * max(1, ||h_a||) * max(1,
    ||h_b||)``, not to the last bit.
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
    # complex once per call: a real system's W would otherwise be cast for every chunk's product
    overlap_h = np.asarray(_eig_overlap(sys).conj().T, dtype=complex)
    coeff0 = v0.conj().T @ states
    phases0 = np.exp(-1j * np.outer(w0, times))
    alpha_phases = np.exp(-1j * np.outer(alphas, times))
    order, level_a, level_b = _free_factors(sys)
    levels = np.stack([level_a, level_b, level_a * level_b])  # h_a (x) I, I (x) h_b, h_a (x) h_b
    if observables is not None:
        _, v_a, _, v_b = _factor_eig(sys)
        o_a, o_b = v_a.conj().T @ o_a @ v_a, v_b.conj().T @ o_b @ v_b
    deviation, energy_a, energy_b, covariance = np.empty((4, m, times.size))

    def trace_chunk(cols: slice) -> None:
        # a function, so that each chunk's blocks are freed before the next
        shape = (cols.stop - cols.start, times.size)
        # V0^H psi(t), one column per (state, time)
        x0 = overlap_h @ (coeff[:, cols, None] * phases[:, None, :]).reshape(sys.dim, -1)
        free = (coeff0[:, cols, None] * phases0[:, None, :] * alpha_phases[cols]).reshape(sys.dim, -1)
        free -= x0
        deviation[cols] = np.linalg.norm(free, axis=0).reshape(shape)
        energy_a[cols], energy_b[cols], joint = (levels @ (x0.real**2 + x0.imag**2)).reshape(3, *shape)
        if observables is None:
            covariance[cols] = joint - energy_a[cols] * energy_b[cols]
            return
        x = x0[np.argsort(order)]  # X0 in Kronecker order, where the pair acts on the factors
        o_a_x = _apply_local(sys, x, op_a=o_a)
        o_b_x = _apply_local(sys, x, op_b=o_b)
        joint_x = _apply_local(sys, o_b_x, op_a=o_a)
        bra = np.conj(x, out=x)
        joint = _real_expectations(bra, joint_x, shape, "joint observable")
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
