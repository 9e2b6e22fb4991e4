"""Interaction-free evolving (IFE) pure states of a bipartite system.

A state is IFE when its evolution under the full Hamiltonian
``H = H_A + H_B + H_I`` coincides, up to a global phase ``exp(-i alpha t)``,
with the free evolution under ``H_0 = H_A + H_B``.  The IFE states form
mutually orthogonal sectors, one per interaction eigenvalue ``alpha``:

    N_alpha = Ker(H_I - alpha I)  intersect  Ker [H_0, H_I]

Both routes start from one eigendecomposition ``H_I = V diag(w) V^H``, which
fixes the clusters of the coupling spectrum and their means, the alphas,
and both work on the cluster-snapped coupling ``V diag(w_bar) V^H``.
:func:`ife_sectors` evaluates the intersection directly: the first kernel
is spanned by a cluster's eigenvectors ``V_alpha``, so
``N_alpha = V_alpha Ker([H_0, H_I] V_alpha)``, one thin kernel per cluster.
:func:`ife_sectors_oracle` recomputes the sectors from the independent
power-chain characterization ``N_alpha = cap_n Ker((H_I - alpha I) H_0^n)``
so the two routes can be cross-checked against each other.  The oracle
never forms the commutator: the chain's stacked constraint matrix is block
diagonal in the eigenbasis of ``H_0``, so it takes one thin SVD of
``(H_I - alpha I) V0_k`` per eigenspace ``k`` of ``H_0`` and keeps the
stack's global cutoff ``rel_tol * sigma_max``.

Factorizations that several routines need (``eigh`` of ``H``, ``H_0`` and
``H_I``, the commutator and its kernel) are computed once per system and
cached read-only on it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_REL_TOL,
    HERMITIAN_RTOL,
    as_operator,
    commutator,
    kron,
    null_space,
    require_hermitian,
    require_rel_tol,
    require_unit_states,
    spectral_norm,
)

__all__ = [
    "CLUSTER_TOL",
    "BipartiteSystem",
    "IfeSector",
    "IfeDecomposition",
    "build_h0",
    "build_total",
    "cluster_values",
    "ife_sectors",
    "ife_sectors_oracle",
    "ife_exists",
    "classify_pure",
]

# Eigenvalues closer than CLUSTER_TOL * max(1, sigma_max) are treated as one
# degenerate value; roundoff-split degeneracies must land in a single sector.
CLUSTER_TOL = 1e-8

# An operator whose norm is below NUMERICAL_ZERO_RTOL relative to its natural
# scale is treated as exactly zero.  A commutator of commuting matrices built
# by conjugation comes out at roundoff level, not exactly zero, and a cutoff
# relative to its own sigma_max would then see a full-rank matrix.
NUMERICAL_ZERO_RTOL = 1e-12


def _is_numerically_zero(norm: float, scale: float) -> bool:
    return norm <= NUMERICAL_ZERO_RTOL * max(1.0, scale)


@dataclass(frozen=True)
class BipartiteSystem:
    """Two finite subsystems with free parts ``h_a``, ``h_b`` and coupling ``h_i``.

    ``h_a`` acts on the first factor (dimension ``dim_a``), ``h_b`` on the
    second (``dim_b``), and ``h_i`` on the full ``dim_a * dim_b`` product
    space.  All three must be finite and Hermitian within ``hermitian_rtol``;
    this is the only check of a system's matrices.  The system keeps
    read-only copies of their Hermitian parts, so every operator built from
    them is Hermitian without a further check, and factorizations computed
    from it can be cached on it and shared by every routine that takes it.
    """

    dim_a: int
    dim_b: int
    h_a: np.ndarray
    h_b: np.ndarray
    h_i: np.ndarray
    hermitian_rtol: InitVar[float] = HERMITIAN_RTOL
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, hermitian_rtol):
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("subsystem dimensions must be positive")
        for name, op, dim in (
            ("h_a", self.h_a, self.dim_a),
            ("h_b", self.h_b, self.dim_b),
            ("h_i", self.h_i, self.dim_a * self.dim_b),
        ):
            op = as_operator(op)
            if op.shape[0] != dim:
                raise ValueError(f"field {name!r} has dimension {op.shape[0]}, expected {dim}")
            op = require_hermitian(op, hermitian_rtol, name=f"field {name!r}").copy(order="K")
            op.flags.writeable = False
            object.__setattr__(self, name, op)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def build_h0(sys: BipartiteSystem) -> np.ndarray:
    """Free Hamiltonian h_a (x) I + I (x) h_b on the product space."""
    return kron(sys.h_a, np.eye(sys.dim_b)) + kron(np.eye(sys.dim_a), sys.h_b)


def build_total(sys: BipartiteSystem) -> np.ndarray:
    """Full Hamiltonian: free part plus coupling."""
    return build_h0(sys) + sys.h_i


@dataclass(frozen=True)
class IfeSector:
    """One IFE sector: interaction eigenvalue and an orthonormal basis."""

    alpha: float
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class IfeDecomposition:
    """All IFE sectors of a system plus the commutator kernel Ker[H_0, H_I].

    ``sectors`` is sorted by strictly increasing ``alpha``; an empty tuple
    means the system admits no IFE states.
    """

    sectors: tuple[IfeSector, ...]
    commutator_kernel: np.ndarray = field(repr=False)

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(s.alpha for s in self.sectors)

    def total_basis(self) -> np.ndarray:
        """Concatenated sector bases, spanning the whole IFE subspace."""
        dim = self.commutator_kernel.shape[0]
        if not self.sectors:
            return np.zeros((dim, 0), dtype=complex)
        return np.hstack([s.basis for s in self.sectors])


def _cluster_ranges(values, tol: float) -> list[tuple[int, int]]:
    """Index ranges of the single-linkage clusters of an ascending 1-d array."""
    if len(values) == 0:
        return []
    cuts = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    return list(zip(cuts[:-1], cuts[1:]))


def cluster_values(values, tol: float) -> list[float]:
    """Single-linkage clustering of a 1-d real array; returns cluster means.

    Values whose sorted gaps are at most ``tol`` merge into one cluster, so
    a degenerate eigenvalue split by roundoff yields a single candidate.
    """
    values = np.sort(np.asarray(values, dtype=float))
    return [float(values[lo:hi].mean()) + 0.0 for lo, hi in _cluster_ranges(values, tol)]


def _cached(sys: BipartiteSystem, key, compute):
    """``compute()`` once per system and key; cached arrays are read-only.

    A tuple result has each of its arrays made read-only.  Every routine
    that takes the same system then shares one result of the same call on
    the same array, so sharing changes no bits.
    """
    if key not in sys._cache:
        value = compute()
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
        sys._cache[key] = value
    return sys._cache[key]


def _coupling_eig(sys: BipartiteSystem):
    """``eigh(H_I)`` as ``(w, v)``: the one factorization of the coupling, once per system."""
    return _cached(sys, "coupling_eig", lambda: tuple(np.linalg.eigh(sys.h_i)))


def _coupling_norm(sys: BipartiteSystem) -> float:
    """``||H_I|| = max|w|``, read off the cached spectrum."""
    return float(np.abs(_coupling_eig(sys)[0]).max())


def _coupling_clusters(sys: BipartiteSystem) -> list[tuple[float, tuple[int, int]]]:
    """``(alpha, (lo, hi))`` for each cluster of the cached coupling spectrum ``w``.

    Eigenvalues closer than ``CLUSTER_TOL * max(1, ||H_I||)`` share a
    cluster; ``alpha`` is the mean of ``w[lo:hi]`` and ``V[:, lo:hi]`` spans
    its eigenspace.  Both sector routes take their alphas from here.
    """
    w, _ = _coupling_eig(sys)
    tol = CLUSTER_TOL * max(1.0, _coupling_norm(sys))
    return [(float(w[lo:hi].mean()) + 0.0, (lo, hi)) for lo, hi in _cluster_ranges(w, tol)]


def _snapped_coupling(sys: BipartiteSystem) -> np.ndarray:
    """``V diag(w_bar) V^H``: ``H_I`` with each eigenvalue snapped to its cluster's alpha.

    Every sector decision uses it, so a split below ``CLUSTER_TOL`` is one
    eigenvalue everywhere.  It is ``sys.h_i`` when no eigenvalue moves.
    """
    def compute():
        w, v = _coupling_eig(sys)
        clusters = _coupling_clusters(sys)
        w_bar = np.concatenate([np.full(hi - lo, alpha) for alpha, (lo, hi) in clusters])
        return sys.h_i if np.array_equal(w_bar, w) else (v * w_bar) @ v.conj().T

    return _cached(sys, "coupling_snapped", compute)


def _free_norm(sys: BipartiteSystem) -> float:
    """``||H_0||`` from the subsystem spectra ``a`` of ``h_a`` and ``b`` of ``h_b``.

    The eigenvalues of ``h_a (x) I + I (x) h_b`` are the sums ``a_i + b_j``,
    so the norm is ``max(|a_max + b_max|, |a_min + b_min|)``: two small
    ``eigvalsh`` calls instead of a values-only SVD of the ``d x d`` ``H_0``.
    """
    a = np.linalg.eigvalsh(sys.h_a)
    b = np.linalg.eigvalsh(sys.h_b)
    return float(max(abs(a[-1] + b[-1]), abs(a[0] + b[0])))


@dataclass(frozen=True)
class _Commutator:
    """[H_0, H_I] of one system with its norm, numerical-zero flag and kernel."""

    h0: np.ndarray
    comm: np.ndarray
    norm: float
    is_zero: bool
    kernel: np.ndarray


def _commutator_and_kernel(sys: BipartiteSystem, rel_tol: float) -> _Commutator:
    """Commutator [H_0, H_I] (snapped coupling) and its kernel, once per (system, rel_tol).

    The result is cached on ``sys`` with read-only arrays, so every routine
    that takes the same system shares one commutator and one kernel SVD.
    """
    key = ("commutator", rel_tol)
    if key not in sys._cache:
        h0 = build_h0(sys)
        comm = commutator(h0, _snapped_coupling(sys))
        norm = spectral_norm(comm)
        is_zero = _is_numerically_zero(norm, 2.0 * _free_norm(sys) * _coupling_norm(sys))
        kernel = np.eye(sys.dim, dtype=complex) if is_zero else null_space(comm, rel_tol)
        for array in (h0, comm, kernel):
            array.flags.writeable = False
        sys._cache[key] = _Commutator(h0, comm, norm, is_zero, kernel)
    return sys._cache[key]


def _eig(sys: BipartiteSystem, free: bool = False):
    """``eigh`` of ``H`` (or of ``H_0`` when ``free``), once per system.

    Cached on ``sys`` with read-only arrays, so the tracers and the oracle
    share one factorization of each Hamiltonian.  No commutator is
    involved, so the oracle's sectors stay independent of the direct route.
    """
    return _cached(sys, ("eig", free),
                   lambda: tuple(np.linalg.eigh(build_h0(sys) if free else build_total(sys))))


def ife_sectors(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> IfeDecomposition:
    """IFE sectors via the kernel-intersection characterization.

    With ``H_I = V diag(w) V^H``, ``Ker(H_I - alpha I)`` is spanned by the
    eigenvectors ``V[:, lo:hi]`` of the coupling cluster at ``alpha``, so the
    sector is ``V[:, lo:hi] Ker(C V[:, lo:hi])`` with ``C = [H_0, H_I]`` of
    the snapped coupling: one thin SVD of the ``d x m`` block of
    ``C V / max(1, ||C||)`` per cluster, with ``C V`` formed once.  A
    direction is kept when its singular value is at or below
    ``rel_tol * sigma_ref``, where
    ``sigma_ref = max(a / max(1, a), ||C|| / max(1, ||C||))`` and
    ``a = ||H_I - alpha I|| = max(|w_0 - alpha|, |w_{d-1} - alpha|)``
    (README, "Numerical conventions").  A numerically zero commutator
    imposes no constraint, so the sector is the whole cluster eigenspace.
    Clusters with an empty kernel are dropped.
    """
    require_rel_tol(rel_tol)
    com = _commutator_and_kernel(sys, rel_tol)
    w, v = _coupling_eig(sys)
    if not com.is_zero:
        scale = max(1.0, com.norm)
        comm_v = com.comm @ v / scale
    sectors = []
    for alpha, (lo, hi) in _coupling_clusters(sys):
        if com.is_zero:
            basis = v[:, lo:hi].copy()
        else:
            a = max(abs(w[0] - alpha), abs(w[-1] - alpha))
            cutoff = rel_tol * max(a / max(1.0, a), com.norm / scale)
            _, s, vh = np.linalg.svd(comm_v[:, lo:hi], full_matrices=False)
            basis = v[:, lo:hi] @ vh[np.sum(s > cutoff):].conj().T
        if basis.shape[1] > 0:
            sectors.append(IfeSector(alpha, basis))
    return IfeDecomposition(tuple(sectors), com.kernel)


def ife_sectors_oracle(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> IfeDecomposition:
    """IFE sectors via the power-chain characterization, commutator-free.

    The defining intersection ``cap_n Ker((H_I - alpha I) H_0^n)`` is
    evaluated by replacing the powers of ``H_0`` with its distinct
    eigenprojectors: with ``H_0 = sum_k mu_k P_k`` the chain generated by
    ``(H_I - alpha I) H_0^n`` spans exactly the blocks
    ``(H_I - alpha I) P_k`` (the Vandermonde matrix of the distinct
    ``mu_k`` is invertible), which avoids forming ill-scaled matrix powers.

    ``H_I`` here is the cluster-snapped coupling, as in :func:`ife_sectors`.

    The sector is the kernel of the stack ``S = [(H_I - alpha I) P_k / s_k]_k``
    with ``s_k = max(1, ||(H_I - alpha I) P_k||)``.  The ``P_k`` are
    orthogonal and sum to ``I``, so ``S^H S = sum_k P_k (H_I - alpha I)^2 P_k
    / s_k^2`` is block diagonal in the eigenbasis ``V0`` of ``H_0``.  With
    ``V0_k`` the columns of eigenspace ``k`` and ``B_k = (H_I - alpha I) V0_k``
    (``d x n_k``, and ``||B_k|| = ||(H_I - alpha I) P_k||``):

    * the singular values of ``S`` are the union of those of ``B_k / s_k``;
    * ``Ker S`` is the direct sum of the ``V0_k Ker(B_k / s_k)``.

    So each eigenspace takes one thin SVD of ``B_k`` (eigenspaces of equal
    size share one batched ``numpy.linalg.svd`` call).  The cutoff is the
    one a kernel of the stack would use: a direction is kept when its
    singular value is at or below ``rel_tol * max_k sigma_max(B_k / s_k)``.
    ``H_I - alpha I`` counts as numerically zero, and the whole space is
    the sector, when ``max_k sigma_max(B_k) = ||H_I - alpha I||`` (``V0`` is
    unitary) is at roundoff level.  ``eigh(H_0)`` and ``eigh(H_I)`` come
    from the per-system cache and ``[H_0, H_I]`` is never formed; only the
    reported commutator kernel comes from the commutator.
    """
    require_rel_tol(rel_tol)
    w0, v0 = _eig(sys, free=True)
    smax0 = float(np.abs(w0).max()) if w0.size else 0.0
    # w0 is ascending, so degenerate clusters are contiguous index ranges.
    # Eigenspaces of equal size n form one (K, n) array of column indices,
    # so a single batched SVD call factorizes all K of their blocks.
    by_size = {}
    for lo, hi in _cluster_ranges(w0, CLUSTER_TOL * max(1.0, smax0)):
        by_size.setdefault(hi - lo, []).append(np.arange(lo, hi))
    groups = [np.array(g) for g in by_size.values()]
    hv = _snapped_coupling(sys) @ v0
    hi_norm = _coupling_norm(sys)
    sectors = []
    for alpha, _ in _coupling_clusters(sys):
        shifted_v0 = hv - alpha * v0
        svds = [np.linalg.svd(np.moveaxis(shifted_v0[:, g], 0, 1), full_matrices=False)[1:]
                for g in groups]
        if _is_numerically_zero(max(s[:, 0].max() for s, _ in svds), max(hi_norm, abs(alpha))):
            basis = np.eye(sys.dim, dtype=complex)
        else:
            scaled = [s / np.maximum(1.0, s[:, :1]) for s, _ in svds]
            cutoff = rel_tol * max(s[:, 0].max() for s in scaled)
            kernels = [
                v0[:, cols] @ vh_k[rank:].conj().T
                for g, s, (_, vh) in zip(groups, scaled, svds)
                for cols, vh_k, rank in zip(g, vh, (s > cutoff).sum(axis=1))
                if rank < len(cols)
            ]
            basis = np.hstack(kernels) if kernels else np.zeros((sys.dim, 0), dtype=complex)
        if basis.shape[1] > 0:
            sectors.append(IfeSector(alpha, basis))
    return IfeDecomposition(tuple(sectors), _commutator_and_kernel(sys, rel_tol).kernel)


def ife_exists(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """True iff Ker[H_0, H_I] is nontrivial (existence of IFE states)."""
    return _commutator_and_kernel(sys, rel_tol).kernel.shape[1] > 0


def classify_pure(psi, sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL):
    """Interaction eigenvalue of an IFE pure state, or None.

    The candidate ``alpha = <psi|H_I|psi>`` is accepted when psi is an
    eigenvector of the coupling at that value and lies in the commutator
    kernel, both within ``rel_tol`` relative to the operator norms.  ``H_I``
    is the snapped coupling, as in :func:`ife_sectors`.  For systems whose
    commutator is nonzero only through roundoff, membership via
    :func:`ife_sectors` is the more robust test.
    """
    psi = require_unit_states(np.asarray(psi).reshape(-1), sys.dim)[:, 0]
    h_psi = _snapped_coupling(sys) @ psi
    alpha = float(np.vdot(psi, h_psi).real)
    com = _commutator_and_kernel(sys, rel_tol)
    hi_norm = _coupling_norm(sys)

    if _is_numerically_zero(hi_norm, 1.0):
        eig_ok = True
    else:
        eig_ok = float(np.linalg.norm(h_psi - alpha * psi)) <= rel_tol * hi_norm
    if com.is_zero:
        comm_ok = True
    else:
        comm_ok = float(np.linalg.norm(com.comm @ psi)) <= rel_tol * com.norm
    return alpha if (eig_ok and comm_ok) else None
