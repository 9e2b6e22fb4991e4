"""Input checks, norms, the Kronecker product and principal angles.

Everything operates on plain numpy arrays.  Operators are square matrices,
checked as complex ones; a subspace is represented by a matrix whose
orthonormal columns span it (a ``(dim, 0)`` array is the empty subspace).
The kernels (``kron``, ``spectral_norm``, ``orthonormal_columns`` and the
principal angles) keep the dtype of their inputs, so real operands stay
in real arithmetic.  All routines are pure functions and never mutate
their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "HERMITIAN_RTOL",
    "SUBSPACE_ANGLE_TOL",
    "as_operator",
    "hermiticity_defect",
    "require_hermitian",
    "require_rel_tol",
    "require_unit_states",
    "spectral_norm",
    "kron",
    "orthonormal_columns",
    "max_principal_angle",
    "subspace_residual",
]

# Relative singular-value cutoff used by every kernel computation.
DEFAULT_REL_TOL = 1e-10
# Hermiticity check: max|A - A^H| <= HERMITIAN_RTOL * max(1, ||A||_F).
HERMITIAN_RTOL = 1e-12
# Largest principal angle (radians) at which a subspace_residual claim
# passes: two computations of one subspace agree.
SUBSPACE_ANGLE_TOL = 1e-7


def as_operator(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(a) -> float:
    """Entrywise deviation from A = A^H, relative to max(1, ||A||_F)."""
    a = as_operator(a)
    if a.size == 0:
        return 0.0
    return float(np.abs(a - a.conj().T).max() / max(1.0, np.linalg.norm(a)))


def require_hermitian(a, rel_tol: float = HERMITIAN_RTOL, name: str = "operator") -> np.ndarray:
    """The Hermitian part ``(a + a^H) / 2`` of ``a``, raising unless ``a`` is finite and Hermitian.

    The error names the operator by ``name``.  Non-finite entries are
    rejected first: they would turn the defect into NaN, which passes any
    threshold comparison.  Exactly Hermitian input comes back with the same
    bits; otherwise the result is exactly Hermitian (``x + y`` and ``y + x``
    round alike), so no later check or factorization sees the defect.
    """
    a = as_operator(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    defect = hermiticity_defect(a)
    if defect > rel_tol:
        raise ValueError(
            f"{name} is not Hermitian: relative defect {defect:.3e} exceeds {rel_tol:.1e}"
        )
    return a if defect == 0.0 else 0.5 * (a + a.conj().T)


def require_rel_tol(rel_tol) -> None:
    """Raise unless the kernel cutoff ``rel_tol`` is a positive finite number.

    ``NaN <= 0`` is False, so a plain sign check would let NaN through and
    every singular value would then count as zero.
    """
    if not (rel_tol > 0 and math.isfinite(rel_tol)):
        raise ValueError("rel_tol must be a positive finite number")


def _require_dimension(state: np.ndarray, dim: int) -> np.ndarray:
    """``state``, raising unless its first axis, the state space, has length ``dim``."""
    if state.shape[0] != dim:
        raise ValueError(f"state has dimension {state.shape[0]}, expected {dim}")
    return state


def require_unit_states(states, dim: int) -> np.ndarray:
    """``states`` as a ``dim x m`` complex block of unit columns; a 1-d vector is one column.

    Each column's norm must be within ``1e-10`` of 1.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2:
        raise ValueError(f"expected a state vector or a block of state columns, got shape {states.shape}")
    _require_dimension(states, dim)
    norms = np.linalg.norm(states, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-10)
    if bad.size:
        raise ValueError(f"state is not normalized: ||psi|| = {float(norms[bad[0]])!r}")
    return states


def spectral_norm(a) -> float:
    """Largest singular value of a matrix, from one values-only SVD; 0 for empty input.

    The bits equal those of ``np.linalg.norm(a, 2)``, which takes the same
    ``svd(a, compute_uv=False)`` and returns its maximum, the first value.
    A vector gives its Euclidean norm, as ``np.linalg.norm`` does; any other
    non-empty shape raises ``ValueError``.  The SVD runs in the dtype of
    ``a``: a real matrix takes the real routine.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    if a.ndim == 1:
        return float(np.linalg.norm(a))
    if a.ndim != 2:
        raise ValueError(f"expected a vector or a matrix, got shape {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False)[0])


def kron(a, b) -> np.ndarray:
    """Kronecker product with a-index major, b-index minor ordering.

    One broadcast product: each axis of ``a`` is paired with the matching
    axis of ``b`` (the shorter shape padded with leading 1s) and the pairs
    are merged.  Every entry is the one multiply ``np.kron`` makes, in the
    result dtype of the two inputs (real times real is real), so the bits,
    dtype, shape and layout equal those of ``np.kron`` for any ndim.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim == 0 or b.ndim == 0:
        return a * b
    nd = max(a.ndim, b.ndim)
    a = a.reshape((1,) * (nd - a.ndim) + a.shape)
    b = b.reshape((1,) * (nd - b.ndim) + b.shape)
    product = a[(slice(None), None) * nd] * b[(None, slice(None)) * nd]
    return product.reshape([m * n for m, n in zip(a.shape, b.shape)])


def orthonormal_columns(m) -> np.ndarray:
    """Orthonormal basis for the column span of ``m`` via thin QR.

    Phases are fixed so the R factor has a real positive diagonal, which
    makes the result deterministic for full-column-rank input.  The QR runs
    in the dtype of ``m``, so a real matrix gives real columns (its phases
    are signs).
    """
    m = np.asarray(m)
    if m.shape[1] == 0:
        return m.copy()
    q, r = np.linalg.qr(m)
    d = np.diagonal(r).copy()
    d = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * d.conj()


def _check_same_ambient(b1, b2):
    b1 = np.asarray(b1)
    b2 = np.asarray(b2)
    if b1.ndim != 2 or b2.ndim != 2:
        raise ValueError("subspace bases must be 2-d arrays of column vectors")
    if b1.shape[0] != b2.shape[0]:
        raise ValueError(
            f"ambient dimension mismatch: {b1.shape[0]} vs {b2.shape[0]}"
        )
    return b1, b2


def max_principal_angle(b1, b2) -> float:
    """Largest principal angle between the spans of two orthonormal bases.

    Computed from the sine-based residual sigma_max((I - P1) B2), which
    stays accurate for tiny angles where the cosine formula saturates.
    For equal dimensions ``(I - P1) B2`` and ``(I - P2) B1`` have the same
    singular values, the sines of the principal angles, so one residual
    suffices.  For unequal dimensions this is the largest angle by which
    one span leaves the other, symmetrized.  Both empty: 0.  One empty:
    pi/2.
    """
    b1, b2 = _check_same_ambient(b1, b2)
    if b1.shape[1] == 0 and b2.shape[1] == 0:
        return 0.0
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return float(np.pi / 2)

    def one_way(p, q):
        resid = q - p @ (p.conj().T @ q)
        return spectral_norm(resid)

    s = one_way(b1, b2)
    if b1.shape[1] != b2.shape[1]:
        s = max(s, one_way(b2, b1))
    return float(np.arcsin(min(1.0, s)))


def subspace_residual(b1, b2) -> float:
    """Largest principal angle between two spans, or 1.0 when their dimensions differ.

    The score of a claim that two computations found the same subspace.
    """
    b1, b2 = _check_same_ambient(b1, b2)
    return max_principal_angle(b1, b2) if b1.shape[1] == b2.shape[1] else 1.0
