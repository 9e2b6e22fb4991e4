"""Seeded generators for test systems and random linear-algebra objects.

Also the dense references the package's routes are checked against: the
product-basis commutator, SVD null spaces and sectors, the Kronecker-built
spin star, and generic subspace and clustering tools that only the tests
use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from unittest import mock

import numpy as np
import orjson

from ifestates import BipartiteSystem
from ifestates import core
from ifestates.core import (
    NUMERICAL_ZERO_RTOL,
    IfeDecomposition,
    IfeSector,
    _cluster_ranges,
    _eig,
    build_h0,
    build_total,
)
from ifestates.dynamics import _eig_overlap
from ifestates.spin_star import (
    PAULI_Z,
    DressedBasis,
    _check_r,
    _site_sz_signs,
    admissible_r,
    dressing_operator,
)
from ifestates.linalg import (
    DEFAULT_REL_TOL,
    HERMITIAN_RTOL,
    _check_same_ambient,
    as_operator,
    kron,
    orthonormal_columns,
    require_hermitian,
    require_rel_tol,
    spectral_norm,
)

# Dimension pairs with product <= 16, mixed shapes.
DIM_PAIRS = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 6), (3, 5), (2, 8), (2, 5), (4, 3)]


def record_eigensolves(monkeypatch) -> list:
    """Patch ``np.linalg.eigh`` and ``eigvalsh`` to record a copy of every matrix they factorize."""
    seen = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, fn=original, **kwargs:
                            seen.append(np.array(a)) or fn(a, *args, **kwargs))
    return seen


def factorized_operators(seen, sys_) -> list[str]:
    """Name each recorded matrix after the operator of ``sys_`` it equals bit for bit.

    The names are ``"H_0"`` (checked first, so a factorization of the dense
    free Hamiltonian is never mistaken for another), ``"H"``, ``"h_a"``,
    ``"h_b"`` and ``"h_i"``; anything else is ``"other"``.
    """
    named = {"H_0": build_h0(sys_), "H": build_total(sys_),
             "h_a": sys_.h_a, "h_b": sys_.h_b, "h_i": sys_.h_i}
    return [next((name for name, op in named.items()
                  if op.shape == a.shape and np.array_equal(op, a)), "other") for a in seen]


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_hermitian(dim, rng, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (z + z.conj().T)


def random_state(dim, rng):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def hermitian_eig(a, rel_tol=HERMITIAN_RTOL):
    """Eigendecomposition of a checked Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  A reference for the tests: the
    package factorizes only operators it has already checked.
    """
    return np.linalg.eigh(require_hermitian(a, rel_tol))


def commutator(a, b) -> np.ndarray:
    """ab - ba for equal-dimension square matrices."""
    a = as_operator(a)
    b = as_operator(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in commutator: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def null_space(a, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``a``.

    A right singular vector belongs to the kernel when its singular value
    is at or below ``rel_tol * sigma_max``.  A zero matrix (sigma_max = 0)
    has the full space as its kernel.  ``a`` may be rectangular.
    """
    require_rel_tol(rel_tol)
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    m, n = a.shape
    if m == 0 or n == 0:
        return np.eye(n, dtype=complex)
    # Rows >= cols: the thin SVD already has every right singular vector.
    _, s, vh = np.linalg.svd(a, full_matrices=m < n)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(n, dtype=complex)
    rank = int(np.sum(s > rel_tol * smax))
    return vh[rank:].conj().T


def subspace_equal(b1, b2, tol: float = 1e-8) -> bool:
    """True iff the two orthonormal bases span the same subspace.

    Requires equal dimension and every singular value of the cross-Gram
    matrix ``B1^H B2`` (the cosines of the principal angles) within ``tol``
    of 1.
    """
    b1, b2 = _check_same_ambient(b1, b2)
    if b1.shape[1] != b2.shape[1]:
        return False
    if b1.shape[1] == 0:
        return True
    s = np.linalg.svd(b1.conj().T @ b2, compute_uv=False)
    return bool(np.all(np.abs(1.0 - s) <= tol))


def cluster_values(values, tol: float) -> list[float]:
    """Single-linkage clustering of a 1-d real array; returns cluster means.

    Values whose sorted gaps are at most ``tol`` merge into one cluster, so
    a degenerate eigenvalue split by roundoff yields a single candidate.
    """
    values = np.sort(np.asarray(values, dtype=float))
    return [float(values[lo:hi].mean()) + 0.0 for lo, hi in _cluster_ranges(values, tol)]


def intersect_kernels(ops, rel_tol=1e-10):
    """Orthonormal basis of the common kernel of all operators in ``ops``.

    The operators are stacked vertically, each block scaled by
    ``1 / max(1, sigma_max(op))`` so that no single operator dominates the
    cutoff, and the kernel of the stack is returned.  A stacked-SVD
    reference for the sector routes.
    """
    ops = [as_operator(op) for op in ops]
    if not ops:
        raise ValueError("intersect_kernels needs at least one operator")
    dim = ops[0].shape[0]
    for op in ops[1:]:
        if op.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch in intersect_kernels: {op.shape[0]} vs {dim}"
            )
    blocks = [op / max(1.0, spectral_norm(op)) for op in ops]
    return null_space(np.vstack(blocks), rel_tol)


def propagator(h, t):
    """Unitary exp(-i h t) of a Hermitian generator, via eigendecomposition.

    A one-time reference for the tracers, which never form a propagator.
    """
    w, v = hermitian_eig(h)
    return (v * np.exp(-1j * w * float(t))) @ v.conj().T


def evolve_pure(h, psi, t):
    """exp(-i h t) |psi> for a Hermitian generator and a unit vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: ||psi|| = {nrm!r}")
    return propagator(h, t) @ psi


def agreement_tol(sys_):
    """Blocked products change only the last bits of a trace: its roundoff
    scales with the observables, whose largest is ``h_a (x) h_b``."""
    return 1e-13 * max(1.0, spectral_norm(sys_.h_a)) * max(1.0, spectral_norm(sys_.h_b))


def per_step_mixed_deviation(sys_, rho, times):
    """``||rho(t) - rho_0(t)||_F`` one grid time at a time.

    ``= ||P(t) o rho~ - W (P0(t) o rho~0) W^H||_F`` with ``rho~ = V^H rho V``,
    ``rho~0 = V0^H rho V0``, ``W = V^H V0`` and the phase matrices
    ``P(t) = p p^H``, ``p = exp(-i w t)`` (``P0`` from ``w0``), on the
    system's cached spectra: two ``d x d`` products per step.  The
    reference for the blocked deviation of ``trace_density_matrix``.
    """
    w, v = _eig(sys_)
    w0, v0 = _eig(sys_, free=True)
    rho = as_operator(rho)
    rho_eig = v.conj().T @ rho @ v
    rho0_eig = v0.conj().T @ rho @ v0
    overlap = _eig_overlap(sys_)
    deviation = []
    for t in np.asarray(times, dtype=float):
        p, p0 = np.exp(-1j * w * t), np.exp(-1j * w0 * t)
        free = overlap @ (np.outer(p0, p0.conj()) * rho0_eig) @ overlap.conj().T
        deviation.append(float(np.linalg.norm(np.outer(p, p.conj()) * rho_eig - free)))
    return np.array(deviation)


def snapped_coupling(sys_):
    """``V diag(w_bar) V^H``: ``H_I`` with each eigenvalue snapped to its cluster's alpha.

    Built from the system's cached ``eigh(H_I)`` and clusters; it is
    ``sys_.h_i`` itself when no eigenvalue moves.  The package never forms
    it: both sector routes work in the eigenbasis of ``H_I``.
    """
    w, v = core._coupling_eig(sys_)
    w_bar = core._snapped_spectrum(sys_)
    return sys_.h_i if np.array_equal(w_bar, w) else (v * w_bar) @ v.conj().T


def commutator_with_zero_flag(sys_):
    """``[H_0, H_bar_I]`` in the product basis and its numerical-zero flag."""
    comm = commutator(build_h0(sys_), snapped_coupling(sys_))
    scale = 2.0 * (spectral_norm(sys_.h_a) + spectral_norm(sys_.h_b)) * spectral_norm(sys_.h_i)
    return comm, spectral_norm(comm) <= NUMERICAL_ZERO_RTOL * max(1.0, scale)


def product_basis_sectors(sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference: the direct route with ``C = [H_0, H_bar_I]`` formed in the product basis.

    ``C V / max(1, ||C||)`` is formed once and each cluster's sector is
    ``V[:, lo:hi]`` times the kernel of its ``d x m`` block, at the cutoff
    of ``ife_sectors``; a numerically zero ``C`` leaves every cluster's
    whole eigenspace.
    """
    comm, is_zero = commutator_with_zero_flag(sys_)
    w, v = core._coupling_eig(sys_)
    norm = spectral_norm(comm)
    scale = max(1.0, norm)
    comm_v = comm @ v / scale
    sectors = []
    for alpha, (lo, hi) in core._coupling_clusters(sys_):
        if is_zero:
            basis = v[:, lo:hi].copy()
        else:
            a = max(abs(w[0] - alpha), abs(w[-1] - alpha))
            cutoff = rel_tol * max(a / max(1.0, a), norm / scale)
            _, s, vh = np.linalg.svd(comm_v[:, lo:hi], full_matrices=False)
            basis = v[:, lo:hi] @ vh[np.sum(s > cutoff):].conj().T
        if basis.shape[1] > 0:
            sectors.append(IfeSector(alpha, basis))
    return IfeDecomposition(tuple(sectors), sys_.dim)


def product_basis_classify(psi, sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference for ``classify_pure`` in the product basis: ``(alpha or None, well_posed)``.

    ``alpha = <psi|H_bar_I|psi>`` is accepted when ``||H_bar_I psi - alpha psi||``
    is at most ``rel_tol ||H_I||`` and ``||C psi||`` at most ``rel_tol ||C||``.
    ``well_posed`` is False when either residual lies within a factor of two
    of its cutoff, where roundoff may decide.
    """
    h_psi = snapped_coupling(sys_) @ psi
    alpha = float(np.vdot(psi, h_psi).real)
    comm, is_zero = commutator_with_zero_flag(sys_)
    hi_norm = core._coupling_norm(sys_)
    checks = []
    if not core._is_numerically_zero(hi_norm, 1.0):
        checks.append((float(np.linalg.norm(h_psi - alpha * psi)), rel_tol * hi_norm))
    if not is_zero:
        checks.append((float(np.linalg.norm(comm @ psi)), rel_tol * spectral_norm(comm)))
    accepted = all(r <= cutoff for r, cutoff in checks)
    well_posed = not any(cutoff / 2.0 < r < 2.0 * cutoff for r, cutoff in checks)
    return (alpha if accepted else None), well_posed


def per_eigenspace_oracle(sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference: the oracle as one thin SVD of ``(H_bar_I - alpha I) V0_k`` per pair.

    For every coupling cluster ``alpha`` and eigenspace ``V0_k`` of ``H_0``
    the ``d x n_k`` block ``B_k = (H_bar_I - alpha I) V0_k`` (the
    cluster-snapped coupling, :func:`snapped_coupling`) is factorized, with
    eigenspaces of equal size in one batched call.  A direction is kept when
    its singular value, scaled by ``1 / max(1, sigma_max(B_k))``, is at or
    below ``rel_tol`` times the largest scaled ``sigma_max`` over all
    blocks: the cutoff of the stacked kernel of every ``(H_bar_I - alpha I) P_k``.
    The whole space is the sector when ``max_k sigma_max(B_k)`` is at
    roundoff level.  Commutator-free, like the principal-angle oracle it
    checks.
    """
    w0, v0 = _eig(sys_, free=True)
    smax0 = float(np.abs(w0).max()) if w0.size else 0.0
    by_size = {}
    for lo, hi in core._cluster_ranges(w0, core.CLUSTER_TOL * max(1.0, smax0)):
        by_size.setdefault(hi - lo, []).append(np.arange(lo, hi))
    groups = [np.array(g) for g in by_size.values()]
    hv = snapped_coupling(sys_) @ v0
    hi_norm = core._coupling_norm(sys_)
    sectors = []
    for alpha, _ in core._coupling_clusters(sys_):
        shifted_v0 = hv - alpha * v0
        svds = [np.linalg.svd(np.moveaxis(shifted_v0[:, g], 0, 1), full_matrices=False)[1:]
                for g in groups]
        if core._is_numerically_zero(max(s[:, 0].max() for s, _ in svds), max(hi_norm, abs(alpha))):
            basis = np.eye(sys_.dim, dtype=complex)
        else:
            scaled = [s / np.maximum(1.0, s[:, :1]) for s, _ in svds]
            cutoff = rel_tol * max(s[:, 0].max() for s in scaled)
            kernels = [
                v0[:, cols] @ vh_k[rank:].conj().T
                for g, s, (_, vh) in zip(groups, scaled, svds)
                for cols, vh_k, rank in zip(g, vh, (s > cutoff).sum(axis=1))
                if rank < len(cols)
            ]
            basis = np.hstack(kernels) if kernels else np.zeros((sys_.dim, 0), dtype=complex)
        if basis.shape[1] > 0:
            sectors.append(IfeSector(alpha, basis))
    return IfeDecomposition(tuple(sectors), sys_.dim)


def conjugated_near_commuting_system(dim_a, dim_b, rng, strength):
    """A conjugated commuting system whose coupling gets a random Hermitian term of norm ``strength``.

    Integer spectra make every degeneracy exact; local unitaries hide the
    common eigenbasis.  The perturbation tilts the coupling's eigenvectors
    out of the free eigenspaces by about ``strength``, so at ``1e-12`` to
    ``1e-10`` the kept directions have residuals up to about the default
    ``1e-10`` cutoff.
    """
    base = commuting_system(dim_a, dim_b, rng)
    h = random_hermitian(dim_a * dim_b, rng)
    return BipartiteSystem(dim_a, dim_b, base.h_a, base.h_b, base.h_i + strength / spectral_norm(h) * h)


@dataclass(frozen=True)
class SectorBlockForm:
    """Compression of a state onto the sector bases.

    ``blocks[k]`` is the coefficient matrix of sector ``alphas[k]``;
    ``residual_weight`` is the trace weight outside the union of sectors
    and ``cross_norm`` the largest Frobenius norm among cross-sector
    coherence blocks.
    """

    alphas: tuple[float, ...]
    blocks: tuple[np.ndarray, ...]
    residual_weight: float
    cross_norm: float

    @property
    def block_traces(self) -> tuple[float, ...]:
        return tuple(float(np.trace(b).real) for b in self.blocks)


def project_to_sectors(rho, dec):
    """Sector coefficient matrices ``B_k^H rho B_k`` plus residual diagnostics.

    One product per sector and one per pair of sectors: the reference for
    the single compression of ``mixed.block_structure_residuals``.
    """
    rho = as_operator(rho)
    dim = dec.dim
    if rho.shape[0] != dim:
        raise ValueError(f"state has dimension {rho.shape[0]}, expected {dim}")
    bases = [s.basis for s in dec.sectors]
    blocks = tuple(b.conj().T @ rho @ b for b in bases)
    inside = sum((float(np.trace(p).real) for p in blocks), 0.0)
    cross = 0.0
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            cross = max(cross, float(np.linalg.norm(bases[i].conj().T @ rho @ bases[j])))
    return SectorBlockForm(
        alphas=dec.alphas,
        blocks=blocks,
        residual_weight=1.0 - inside,
        cross_norm=cross,
    )


def matrix_to_pairs(m):
    """Nested ``[re, im]`` list form of a complex matrix, entry by entry.

    The list-form reference for the array leaves of the canonical emitter.
    """
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def vector_to_pairs(v):
    """``[re, im]`` list form of a complex vector, entry by entry."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


# Malformed numeric fields, each an edit of a file under tests/data:
# (case id, file, field, index, value) sets ``doc[field][index...] = value``,
# or the whole field when ``index`` is empty.  Each must be rejected on load
# with the file and the field named.  A boolean 1 or 0 stands where the
# number 1 or 0 is, so only its type is wrong.
MALFORMED_FIELDS = [
    ("ragged_pair", "system_spin_star_n2.json", "h_i", (0, 0), [0.0, 0.0, 0.0]),
    ("ragged_row", "system_spin_star_n2.json", "h_i", (1,), [[0.0, 0.0]]),
    ("string_entry", "system_spin_star_n2.json", "h_a", (0, 0, 0), "a"),
    ("true_entry", "system_spin_star_n2.json", "h_a", (0, 0, 0), True),
    ("false_entry", "system_spin_star_n2.json", "h_a", (0, 1, 0), False),
    ("integer_beyond_float", "system_spin_star_n2.json", "h_a", (0, 1, 0), 10 ** 400),
    ("true_dim_a", "system_spin_star_n2.json", "dim_a", (), True),
    ("true_dim_b", "system_spin_star_n2.json", "dim_b", (), True),
    ("pair_shape", "system_spin_star_n2.json", "h_b", (), [[1.0, 0.0]]),
    ("vector_string", "state_ife_n2.json", "vector", (1, 0), "a"),
    ("vector_ragged", "state_ife_n2.json", "vector", (1,), [0.6, 0.0, 0.0]),
    ("vector_false", "state_ife_n2.json", "vector", (0, 0), False),
    ("vector_shape", "state_ife_n2.json", "vector", (), [[[0.6, 0.0]]]),
    ("rho_ragged", "rho_ife_n2.json", "rho", (0,), [[0.0, 0.0]]),
]


def edited_copy(src, dst, field, index, value):
    """Write the JSON file ``src`` to ``dst`` with one field edited; return ``dst``."""
    doc = json.loads(Path(src).read_text(encoding="utf-8"))
    if index:
        target = doc[field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    else:
        doc[field] = value
    Path(dst).write_text(json.dumps(doc), encoding="utf-8")
    return dst


def stdlib_decoded(load, path):
    """``load(path)`` with orjson rejecting every document, so ``json`` decodes it.

    The standard-library reference for the file loaders, which read with
    orjson and fall back to ``json`` only for what orjson rejects.
    """
    def reject(data):
        raise orjson.JSONDecodeError("rejected for the reference", "", 0)

    with mock.patch.object(orjson, "loads", reject):
        return load(path)


def assert_same_bits(a, b):
    """Equal shapes, dtypes, values and signs of zero: the same bits for finite floats."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if np.iscomplexobj(a):
        a, b = np.ascontiguousarray(a).view(np.float64), np.ascontiguousarray(b).view(np.float64)
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def commuting_system(dim_a, dim_b, rng, conjugate=True):
    """System with [H_0, H_I] = 0: all pieces share one product eigenbasis.

    Spectra are small integers so degeneracies are exact and sectors are
    multi-dimensional.
    """
    d_a = rng.integers(-2, 3, dim_a).astype(float)
    d_b = rng.integers(-2, 3, dim_b).astype(float)
    d_i = rng.integers(-2, 3, dim_a * dim_b).astype(float)
    if not conjugate:
        return BipartiteSystem(dim_a, dim_b, np.diag(d_a), np.diag(d_b), np.diag(d_i))
    u_a = random_unitary(dim_a, rng)
    u_b = random_unitary(dim_b, rng)
    u = np.kron(u_a, u_b)
    return BipartiteSystem(
        dim_a, dim_b,
        (u_a * d_a) @ u_a.conj().T,
        (u_b * d_b) @ u_b.conj().T,
        (u * d_i) @ u.conj().T,
    )


def subspace_zero_system(dim_a, dim_b, rng, n_zero=None):
    """Coupling that vanishes on a product-basis subspace.

    The free parts are diagonal, so the zeroed rows/columns of the coupling
    give a guaranteed alpha = 0 sector while [H_0, H_I] stays nonzero.
    """
    dim = dim_a * dim_b
    if n_zero is None:
        n_zero = int(rng.integers(1, max(2, dim // 2) + 1))
    h_i = random_hermitian(dim, rng)
    idx = rng.permutation(dim)[:n_zero]
    h_i[idx, :] = 0.0
    h_i[:, idx] = 0.0
    return BipartiteSystem(
        dim_a, dim_b,
        np.diag(rng.standard_normal(dim_a)),
        np.diag(rng.standard_normal(dim_b)),
        h_i,
    )


def generic_system(dim_a, dim_b, rng):
    """Fully random Hermitian pieces; almost surely admits no IFE states."""
    return BipartiteSystem(
        dim_a, dim_b,
        random_hermitian(dim_a, rng),
        random_hermitian(dim_b, rng),
        random_hermitian(dim_a * dim_b, rng),
    )


def acceptance_systems(seed=1234):
    """The seeded battery: 30 commuting, 30 subspace-zero, 40 generic."""
    rng = np.random.default_rng(seed)
    systems = []
    for k in range(30):
        da, db = DIM_PAIRS[k % len(DIM_PAIRS)]
        systems.append(("commuting", commuting_system(da, db, rng, conjugate=k % 2 == 0)))
    for k in range(30):
        da, db = DIM_PAIRS[k % len(DIM_PAIRS)]
        systems.append(("subspace_zero", subspace_zero_system(da, db, rng)))
    for k in range(40):
        da, db = DIM_PAIRS[k % len(DIM_PAIRS)]
        systems.append(("generic", generic_system(da, db, rng)))
    return systems


def diagonal_multisector_system(rng, dim_a=2, dim_b=3, values=(-1.0, 0.5, 2.0)):
    """Plain-diagonal commuting system whose coupling has >= 2 eigenvalues.

    Sector gaps are at least 0.5 so cross-sector coherences dephase well
    inside the default time grid.
    """
    dim = dim_a * dim_b
    d_i = rng.choice(values, dim)
    while np.unique(d_i).size < 2:
        d_i = rng.choice(values, dim)
    return BipartiteSystem(
        dim_a, dim_b,
        np.diag(rng.integers(-2, 3, dim_a).astype(float)),
        np.diag(rng.integers(-2, 3, dim_b).astype(float)),
        np.diag(d_i),
    )


PAULI_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PAULI_MINUS = PAULI_PLUS.conj().T
_I2 = np.eye(2, dtype=complex)


def pauli_site(op, i, n):
    """Embed a single-spin operator at site ``i`` (0-based) of an n-spin chain.

    A dense Kronecker-chain reference: the package builds its spin-star
    operators by flipping bits of the product-state index.
    """
    if not 0 <= i < n:
        raise ValueError(f"site index {i} out of range for {n} spins")
    mats = [_I2] * n
    mats[i] = np.asarray(op, dtype=complex)
    return reduce(np.kron, mats)


def total_sz(n):
    """z component of the total spin of n spin-1/2 particles."""
    return 0.5 * sum(pauli_site(PAULI_Z, i, n) for i in range(n))


def total_splus(n):
    return sum(pauli_site(PAULI_PLUS, i, n) for i in range(n))


def total_sminus(n):
    return sum(pauli_site(PAULI_MINUS, i, n) for i in range(n))


def total_s_squared(n):
    """Total spin squared; eigenvalues r(r+1)."""
    sz = total_sz(n)
    sp = total_splus(n)
    sm = total_sminus(n)
    return sz @ sz + 0.5 * (sp @ sm + sm @ sp)


def kron_spin_star(p):
    """The spin-star system summed from Kronecker chains: a reference for ``build_spin_star``."""
    n = p.n_spins
    h_a = p.omega0 * PAULI_Z
    h_b = p.omega * sum(pauli_site(PAULI_Z, i, n) for i in range(n))
    h_i = sum(
        g * (kron(PAULI_PLUS, pauli_site(PAULI_MINUS, i, n))
             + kron(PAULI_MINUS, pauli_site(PAULI_PLUS, i, n)))
        for i, g in enumerate(p.gammas)
    )
    return BipartiteSystem(2, p.bath_dim, h_a, h_b, h_i)


def kron_dressed_blocks(p):
    """``dressed_blocks`` from the dense ladders and a dense dressing matrix.

    Each weight basis is the kernel of ``total_splus(n)[:, sector]`` (or
    ``total_sminus``) embedded in the full bath space, and each block is
    ``np.diag(d)`` times that kernel, re-orthonormalized.  The kernel's
    representative is whatever the SVD gives, so compare spans, not bits.
    """
    n = p.n_spins
    sz2 = _site_sz_signs(n).sum(axis=1)
    blocks = []
    for branch, ladder, sign in (("plus", total_splus(n), 1), ("minus", total_sminus(n), -1)):
        dressing = np.diag(dressing_operator(p, branch)).astype(complex)
        for r in admissible_r(n):
            sector = np.flatnonzero(sz2 == sign * _check_r(n, r))
            inner = null_space(ladder[:, sector])
            full = np.zeros((2 ** n, inner.shape[1]), dtype=complex)
            full[sector, :] = inner
            blocks.append(DressedBasis(branch, r, orthonormal_columns(dressing @ full)))
    return blocks
