"""Interaction-free evolving (IFE) pure states of a bipartite system.

A state is IFE when its evolution under the full Hamiltonian
``H = H_A + H_B + H_I`` coincides, up to a global phase ``exp(-i alpha t)``,
with the free evolution under ``H_0 = H_A + H_B``.  The IFE states form
mutually orthogonal sectors, one per interaction eigenvalue ``alpha``:

    N_alpha = Ker(H_I - alpha I)  intersect  Ker [H_0, H_I]

Both routes start from one eigendecomposition ``H_I = V diag(w) V^H``, which
fixes the clusters of the coupling spectrum and their means, the alphas,
and both work on ``w_bar``, each eigenvalue snapped to its cluster's mean.
:func:`ife_sectors` evaluates the intersection directly in that eigenbasis,
where a cluster's eigenspace is the coordinate block ``lo:hi`` and the
commutator is ``C~ = H0~ o M`` (``H0~ = V^H H_0 V``,
``M_ij = w_bar_j - w_bar_i``): ``N_alpha = V[:, lo:hi] Ker(C~[:, lo:hi])``.
:func:`ife_sectors_oracle` recomputes the sectors from the independent
characterization as the largest ``H_0``-invariant subspace of
``Ker(H_I - alpha I)``, so the two routes can be cross-checked against each
other.  That subspace is the direct sum over the eigenspaces ``V0_k`` of
``H_0`` of ``Ran V_alpha cap Ran V0_k``: the principal vectors at angle 0
between the cluster and each eigenspace.  The oracle never forms the
commutator: one gemm ``G = V^H V0`` holds every pair, the Frobenius norms
of its blocks prune the pairs that cannot meet, and the exact residual
``diag(w_bar - alpha) G[:, k]`` decides the rank.

``H_0 = h_a (x) I + I (x) h_b`` is a Kronecker sum, and no ``d x d``
eigensolve of it is ever taken: its eigenvalues are the sums ``e_i + f_j``
of the eigenvalues of ``h_a`` and ``h_b`` and its eigenvectors the
products ``V_a[:, i] (x) V_b[:, j]`` (Horn & Johnson, Topics in Matrix
Analysis, 1991, sec. 4.4), sorted by a stable argsort of the sums, so
exactly equal sums keep the Kronecker ``(i, j)`` order.  Where ``H_0``
multiplies a block it acts through ``h_a`` and ``h_b`` on the factors of
the block (:func:`_apply_local`).  The dense ``H_0`` is built only for
``H = H_0 + H_I`` and for the spin-star eigenvector claim.

Everything that several routines read (the block partition, ``eigh`` of
``h_a``, ``h_b``, ``H_I`` and ``H``, the coupling clusters and snapped
spectrum, the spectrum of ``H_0``, ``C~`` with its singular values, zero
flag and eigenvectors, ``W = V^H V0`` and the Bohr frequencies of ``H_0``)
is one function of the system, decorated by :func:`_per_system`: it is
computed on first call and cached read-only on the system, so each is
taken at most once per system.  The partition (:func:`_partition`) is the
connected components of the graph with an edge wherever the stored
``H_0`` or ``H_I`` has a nonzero entry; ``H_I``, ``H`` and ``[H_0, H_I]``
are block diagonal on it, and ``C~`` on each block's eigenvalue
positions.  Every eigensolve of a ``d x d`` operator goes through
:func:`_eigh_on` or :func:`_eigvalsh_on` on these index sets: on a system
of at least :data:`BLOCK_MIN_DIM` dimensions that splits, ``eigh(H_I)``,
``eigh(H)``, ``eigvalsh(i C~)`` and ``eigh(i C~)`` are taken block by
block, blocks of one size in one stacked call, and merged into the dense
``d x d`` results every consumer reads.  Cluster means, of the coupling
spectrum and of the levels and Bohr frequencies of ``H_0``, have one rule
too (:func:`_cluster_means`).
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_REL_TOL,
    HERMITIAN_RTOL,
    as_operator,
    kron,
    require_hermitian,
    require_rel_tol,
    require_unit_states,
)

__all__ = [
    "CLUSTER_TOL",
    "BipartiteSystem",
    "IfeSector",
    "IfeDecomposition",
    "build_h0",
    "build_total",
    "commutator_kernel",
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

# Systems of smaller dimension are factorized whole, whatever their blocks.
# The per-block chain of eigh(H_I), eigvalsh(i C~) and eigh(i C~) pays for
# its gathers and stacked calls from here on: on the spin star, one BLAS
# thread, it took 0.39 ms against 0.23 ms dense at d = 32 (N = 4), and
# 0.87 ms against 1.69 ms at d = 64 (N = 5).  eigh(H) follows the same
# partition, and so the same floor.
BLOCK_MIN_DIM = 64


def _is_numerically_zero(norm: float, scale: float) -> bool:
    return norm <= NUMERICAL_ZERO_RTOL * max(1.0, scale)


def _positive_dimension(value, name: str) -> int:
    """The rule for ``dim_a`` and ``dim_b``: ``value`` as an ``int`` if a positive integer, else raise."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"field {name!r} must be a positive integer")
    return int(value)


@dataclass(frozen=True)
class BipartiteSystem:
    """Two finite subsystems with free parts ``h_a``, ``h_b`` and coupling ``h_i``.

    ``h_a`` acts on the first factor (dimension ``dim_a``), ``h_b`` on the
    second (``dim_b``), and ``h_i`` on the full ``dim_a * dim_b`` product
    space.  The dimensions must be positive integers (numpy integers are
    stored as ``int``; a bool is no dimension).  All three matrices must be
    finite and Hermitian within ``hermitian_rtol``; this is the only check
    of a system's matrices.  The system keeps read-only copies of their
    Hermitian parts, so every operator built from them is Hermitian without
    a further check, and factorizations computed from it can be cached on
    it and shared by every routine that takes it.

    The dtype is decided here, once: when the imaginary parts of all three
    Hermitian parts are exactly zero the copies are float64, otherwise
    complex128.  A real system's operators, eigenvectors, ``C~`` and
    sector bases are then float64, and every ``eigh`` and ``svd`` of them
    runs in real arithmetic; only the Hermitian ``i C~`` is complex, so the
    commutator's singular values and :func:`commutator_kernel` come from a
    complex factorization.  A real system's results match those of the same
    matrices factorized as complex128 at roundoff; its sector bases may
    differ from those by column signs, but span the same subspaces.
    """

    dim_a: int
    dim_b: int
    h_a: np.ndarray
    h_b: np.ndarray
    h_i: np.ndarray
    hermitian_rtol: InitVar[float] = HERMITIAN_RTOL
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, hermitian_rtol):
        for name in ("dim_a", "dim_b"):
            object.__setattr__(self, name, _positive_dimension(getattr(self, name), name))
        parts = {}
        for name, op, dim in (
            ("h_a", self.h_a, self.dim_a),
            ("h_b", self.h_b, self.dim_b),
            ("h_i", self.h_i, self.dim_a * self.dim_b),
        ):
            op = as_operator(op)
            if op.shape[0] != dim:
                raise ValueError(f"field {name!r} has dimension {op.shape[0]}, expected {dim}")
            parts[name] = require_hermitian(op, hermitian_rtol, name=f"field {name!r}")
        real = not any(op.imag.any() for op in parts.values())
        for name, op in parts.items():
            op = op.real.copy() if real else op.copy(order="K")
            op.flags.writeable = False
            object.__setattr__(self, name, op)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def build_h0(sys: BipartiteSystem) -> np.ndarray:
    """Free Hamiltonian h_a (x) I + I (x) h_b on the product space, as a fresh array."""
    return kron(sys.h_a, np.eye(sys.dim_b)) + kron(np.eye(sys.dim_a), sys.h_b)


def build_total(sys: BipartiteSystem) -> np.ndarray:
    """Full Hamiltonian: free part plus coupling, as a fresh array."""
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
    """All IFE sectors of a system whose product space has dimension ``dim``.

    ``sectors`` is sorted by strictly increasing ``alpha``; an empty tuple
    means the system admits no IFE states.
    """

    sectors: tuple[IfeSector, ...]
    dim: int

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(s.alpha for s in self.sectors)

    def total_basis(self) -> np.ndarray:
        """Concatenated sector bases, spanning the whole IFE subspace."""
        if not self.sectors:
            return np.zeros((self.dim, 0), dtype=complex)
        return np.hstack([s.basis for s in self.sectors])


def _cluster_bounds(values, tol: float) -> np.ndarray:
    """Single-linkage clusters of an ascending 1-d array, cut wherever a gap exceeds ``tol``: ``b[k]:b[k + 1]``.

    The one clustering rule: of the coupling spectrum, the oracle's
    eigenspaces of ``H_0`` and the levels and Bohr frequencies of ``H_0``.
    """
    return np.concatenate(([0], np.flatnonzero(np.diff(values) > tol) + 1, [len(values)]))


def _cluster_ranges(values, tol: float) -> list[tuple[int, int]]:
    """``(lo, hi)`` of each cluster of :func:`_cluster_bounds`."""
    bounds = _cluster_bounds(values, tol).tolist()
    return list(zip(bounds[:-1], bounds[1:])) if len(values) else []


def _cluster_means(values, tol: float):
    """``(bounds, means)``: :func:`_cluster_bounds` and each cluster's mean, the one mean rule.

    The means are taken per cluster width, one ``mean(axis=1)`` over the
    gathered ``(count, width)`` rows, which sums each row as
    ``values[lo:hi].mean()`` does, so they have its bits.  It gives the
    alphas of the coupling and the levels and Bohr frequencies of ``H_0``.
    """
    bounds = _cluster_bounds(values, tol)
    lo, width = bounds[:-1], np.diff(bounds)
    means = np.empty(width.size)
    for m in set(width.tolist()):
        same = width == m
        means[same] = values[lo[same, None] + np.arange(m)].mean(axis=1)
    return bounds, means


def _per_system(compute):
    """``compute(sys)`` on first call, then cached on ``sys`` under ``compute``, its arrays read-only.

    Arrays inside a tuple are made read-only too.  Every routine shares one
    result of the same call on the same arrays, so sharing changes no bits.
    ``SpinStarParams`` has a ``_cache`` too, for its analytic basis.
    """
    @functools.wraps(compute)
    def entry(sys: BipartiteSystem):
        if compute not in sys._cache:
            value = compute(sys)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    item.flags.writeable = False
            sys._cache[compute] = value
        return sys._cache[compute]

    return entry


@_per_system
def _factor_eig(sys: BipartiteSystem):
    """``(e_a, V_a, e_b, V_b)``: ``eigh`` of ``h_a`` and of ``h_b``.

    The two small factorizations from which the spectrum of ``H_0``
    (:func:`_free_eig`) and the bound ``||h_a|| + ||h_b||``
    (:func:`_free_norm`) are read.
    """
    return (*np.linalg.eigh(sys.h_a), *np.linalg.eigh(sys.h_b))


def _apply_local(sys: BipartiteSystem, block: np.ndarray, op_a=None, op_b=None) -> np.ndarray:
    """``(op_a (x) op_b) @ block`` without forming the Kronecker product.

    ``block`` has ``d = dim_a * dim_b`` rows, a-index major, and is viewed
    as ``x[a, b, n]``; an operator left as None is the identity on its
    factor.  ``op_b`` acts as one ``dim_b x dim_b`` product per ``a`` and
    ``op_a`` as one ``dim_a x dim_a`` product on the ``a`` rows, so a
    column costs ``O(d (dim_a + dim_b))`` instead of ``O(d^2)``.
    """
    x = block.reshape(sys.dim_a, sys.dim_b, block.shape[1])
    if op_b is not None:
        x = op_b @ x
    if op_a is not None:
        x = (op_a @ x.reshape(sys.dim_a, -1)).reshape(x.shape)
    return x.reshape(block.shape)


def _components(pattern: np.ndarray) -> np.ndarray:
    """Each vertex's connected component of the symmetric boolean adjacency ``pattern``, as its smallest vertex.

    Label propagation with pointer jumping: each round, every vertex takes
    the smallest label among itself and its neighbours, and then labels
    follow labels until none moves.  Labels only fall and always name a
    vertex of the same component, so the rounds stop at each component's
    smallest vertex.
    """
    rows, cols = np.nonzero(pattern | np.eye(len(pattern), dtype=bool))
    starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each row holds its diagonal
    label = np.arange(len(pattern))
    while True:
        new = np.minimum.reduceat(label[cols], starts)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


@_per_system
def _partition(sys: BipartiteSystem) -> tuple[np.ndarray, ...]:
    """The index sets on which ``H_0`` and ``H_I`` are both block diagonal, each ascending, by smallest index.

    They are the connected components of the graph with an edge ``(i, j)``
    wherever the stored ``H_0`` or ``H_I`` has a nonzero entry: exact
    zeros, with no tolerance.  Off the diagonal, ``H_0 = h_a (x) I + I (x)
    h_b`` is nonzero exactly where ``h_a (x) I`` or ``I (x) h_b`` is, so its
    pattern is read from ``h_a != 0`` and ``h_b != 0``.  A system below
    :data:`BLOCK_MIN_DIM` or whose coupling has no zero entry is one block,
    ``arange(d)``, and builds no graph.
    """
    if sys.dim < BLOCK_MIN_DIM or sys.h_i.all():
        return (np.arange(sys.dim),)
    pattern = (sys.h_i != 0) | kron(sys.h_a != 0, np.eye(sys.dim_b, dtype=bool))
    pattern |= kron(np.eye(sys.dim_a, dtype=bool), sys.h_b != 0)
    label = _components(pattern)
    order = np.argsort(label, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(label[order])) + 1))


def _stacked_blocks(op: np.ndarray, groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(index, blocks)`` per block size: the ``(count, size)`` index sets of ``groups`` of that size and ``op`` on them."""
    by_size = {}
    for group in groups:
        by_size.setdefault(group.size, []).append(group)
    return [(index, op[index[:, :, None], index[:, None, :]]) for index in map(np.stack, by_size.values())]


def _eigvalsh_on(op: np.ndarray, groups) -> np.ndarray:
    """The eigenvalues of Hermitian ``op``, block diagonal on the index sets ``groups``, in block order.

    One group is one ``eigvalsh`` of ``op``; more take one stacked
    ``eigvalsh`` per block size.
    """
    if len(groups) == 1:
        return np.linalg.eigvalsh(op)
    return np.concatenate([np.linalg.eigvalsh(blocks).ravel() for _, blocks in _stacked_blocks(op, groups)])


def _eigh_on(op: np.ndarray, groups):
    """``(w, v, columns)``: ``eigh`` of Hermitian ``op``, block diagonal on the index sets ``groups``.

    One group is one ``eigh`` of ``op``.  More take one stacked ``eigh``
    per block size; their eigenvalues are merged by one stable argsort into
    the ascending ``w``, and ``v`` is the ``d x d`` eigenvector matrix,
    exactly zero outside each block.  ``columns`` holds, for each block,
    the ascending positions of its eigenvalues in ``w``, so that
    ``v[:, columns[j]]`` is supported on one block.
    """
    if len(groups) == 1:
        return (*np.linalg.eigh(op), (np.arange(len(op)),))
    stacked = [(index, *np.linalg.eigh(blocks)) for index, blocks in _stacked_blocks(op, groups)]
    w = np.concatenate([values.ravel() for _, values, _ in stacked])
    order = np.argsort(w, kind="stable")
    position = np.empty_like(order)  # position[k]: where eigenvalue k of the block order lands in w
    position[order] = np.arange(w.size)
    v = np.zeros(op.shape, dtype=stacked[0][2].dtype)
    columns, start = [], 0
    for index, _, vectors in stacked:
        cols = position[start:start + index.size].reshape(index.shape)
        v[index[:, :, None], cols[:, None, :]] = vectors
        columns.extend(cols)
        start += index.size
    return w[order], v, tuple(columns)


@_per_system
def _coupling_blocks(sys: BipartiteSystem):
    """``(w, v, columns)``: :func:`_eigh_on` of ``H_I`` over :func:`_partition`, the one factorization of the coupling."""
    return _eigh_on(sys.h_i, _partition(sys))


def _coupling_eig(sys: BipartiteSystem):
    """``eigh(H_I)`` as ``(w, v)``, from :func:`_coupling_blocks`."""
    return _coupling_blocks(sys)[:2]


def _coupling_norm(sys: BipartiteSystem) -> float:
    """``||H_I|| = max|w|``, read off the cached spectrum."""
    return float(np.abs(_coupling_eig(sys)[0]).max())


def _alpha_tol(sys: BipartiteSystem) -> float:
    """``CLUSTER_TOL * max(1, ||H_I||)``: coupling eigenvalues and alphas closer than this are one."""
    return CLUSTER_TOL * max(1.0, _coupling_norm(sys))


@_per_system
def _coupling_clusters(sys: BipartiteSystem) -> tuple[tuple[float, tuple[int, int]], ...]:
    """``(alpha, (lo, hi))`` for each cluster of the coupling spectrum ``w``.

    Eigenvalues closer than :func:`_alpha_tol` share a cluster; ``alpha``
    is the mean of ``w[lo:hi]`` and ``V[:, lo:hi]`` spans its eigenspace.
    Both sector routes take their alphas from here, by :func:`_cluster_means`,
    which has the bits of ``w[lo:hi].mean()``.
    """
    bounds, alphas = _cluster_means(_coupling_eig(sys)[0], _alpha_tol(sys))
    return tuple(zip((alphas + 0.0).tolist(), zip(bounds[:-1].tolist(), bounds[1:].tolist())))


@_per_system
def _snapped_spectrum(sys: BipartiteSystem) -> np.ndarray:
    """``w_bar``: each coupling eigenvalue snapped to its cluster's alpha, for every sector decision."""
    clusters = _coupling_clusters(sys)
    return np.repeat([alpha for alpha, _ in clusters], [hi - lo for _, (lo, hi) in clusters])


def _free_norm(sys: BipartiteSystem) -> float:
    """``||h_a|| + ||h_b||``, read off the cached factor spectra (:func:`_factor_eig`).

    It bounds ``||H_0||`` from above and sets the scale of the roundoff in
    ``[H_0, H_I]``.  ``||H_0||`` itself can cancel: ``h_a = -I`` and
    ``h_b = I`` give ``H_0 = 0``, yet a commutator formed from them carries
    roundoff of ``||h_a|| + ||h_b||`` times ``||H_I||``.
    """
    a, _, b, _ = _factor_eig(sys)
    return float(max(-a[0], a[-1]) + max(-b[0], b[-1]))


@_per_system
def _commutator(sys: BipartiteSystem) -> np.ndarray:
    """``C~ = V^H [H_0, H_bar_I] V = H0~ o M``, the commutator in the eigenbasis of ``H_I``.

    ``H0~ = V^H (H_0 V)`` is one gemm: ``H_0 V`` is applied through ``h_a``
    and ``h_b`` (:func:`_apply_local`, ``O(d^2 (dim_a + dim_b))``), never
    through the dense ``H_0``.  It is made exactly Hermitian, so ``C~`` is
    exactly anti-Hermitian; ``M_ij = w_bar_j - w_bar_i`` is 0 inside a
    cluster.
    """
    _, v = _coupling_eig(sys)
    w_bar = _snapped_spectrum(sys)
    h0 = v.conj().T @ (_apply_local(sys, v, op_a=sys.h_a) + _apply_local(sys, v, op_b=sys.h_b))
    return 0.5 * (h0 + h0.conj().T) * (w_bar - w_bar[:, None])


@_per_system
def _commutator_values(sys: BipartiteSystem) -> np.ndarray:
    """The singular values of ``C``, ``|eigvalsh(i C~)|``, descending: ``||C||`` first, a rank is a count.

    ``C~`` is block diagonal on the eigenvalue positions of each block of
    :func:`_partition` (:func:`_coupling_blocks`), so a split system takes
    them block by block (:func:`_eigvalsh_on`).
    """
    return np.sort(np.abs(_eigvalsh_on(1j * _commutator(sys), _coupling_blocks(sys)[2])))[::-1]


@_per_system
def _commutator_is_zero(sys: BipartiteSystem) -> bool:
    """Whether ``||C|| <= NUMERICAL_ZERO_RTOL * max(1, 2 (||h_a|| + ||h_b||) ||H_I||)``.

    ``||C||_2 <= ||C~||_F``, so a Frobenius norm at or below the threshold
    settles the test with no eigensolve; only a larger one reads
    :func:`_commutator_values`.
    """
    frobenius = float(np.linalg.norm(_commutator(sys)))
    scale = 2.0 * _free_norm(sys) * _coupling_norm(sys)
    return _is_numerically_zero(frobenius, scale) or _is_numerically_zero(float(_commutator_values(sys)[0]), scale)


@_per_system
def _commutator_eig(sys: BipartiteSystem):
    """``eigh(i C~)`` as ``(lambda, q)``: the commutator kernel's vectors, block by block as in :func:`_commutator_values`."""
    return _eigh_on(1j * _commutator(sys), _coupling_blocks(sys)[2])[:2]


def _commutator_kernel_dimension(sys: BipartiteSystem, rel_tol: float) -> int:
    """``dim Ker[H_0, H_I]``: ``d`` minus the count of singular values above ``rel_tol * ||C||``.

    A numerically zero commutator has rank 0.
    """
    require_rel_tol(rel_tol)
    if _commutator_is_zero(sys):
        return sys.dim
    s = _commutator_values(sys)
    return int(np.sum(s <= rel_tol * s[0]))


def commutator_kernel(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Orthonormal ``d x k`` basis of ``Ker[H_0, H_I]`` (snapped coupling) at ``rel_tol``.

    The columns are the eigenvectors of ``i C~`` with the ``k`` smallest
    ``|lambda|``, ``k`` from the values-only count, mapped back by ``V``.
    ``eigh(i C~)`` runs on the first call for a system and is cached on it;
    a numerically zero commutator has the whole space as its kernel and
    takes no factorization.  The result is a fresh array.
    """
    k = _commutator_kernel_dimension(sys, rel_tol)
    if _commutator_is_zero(sys):
        return np.eye(sys.dim, dtype=complex)
    lam, q = _commutator_eig(sys)
    return _coupling_eig(sys)[1] @ q[:, np.argsort(np.abs(lam), kind="stable")[:k]]


@_per_system
def _total_eig(sys: BipartiteSystem):
    """``eigh(H)`` as ``(w, V)``, ``V diag(w) V^H = H``: the one eigensolve of the full Hamiltonian.

    ``H = H_0 + H_I`` is block diagonal on :func:`_partition`, so it is
    factorized as ``H_I`` is (:func:`_eigh_on`): ``w`` ascending and ``V``
    dense, each column exactly zero outside its block.
    """
    return _eigh_on(build_total(sys), _partition(sys))[:2]


def _free_factors(sys: BipartiteSystem):
    """``(order, level_a, level_b)`` for the columns of ``V0`` (:func:`_free_eig`).

    ``order`` is the stable argsort of the sums ``e_a[i] + e_b[j]``
    (:func:`_factor_eig`) in Kronecker order, so exactly equal sums keep
    the ``(i, j)`` order: ``V0``'s column ``k`` is ``V_a[:, i] (x) V_b[:,
    j]`` with ``i * dim_b + j = order[k]``, and ``level_a[k] = e_a[i]``
    and ``level_b[k] = e_b[j]`` are its eigenvalues of ``h_a (x) I`` and
    ``I (x) h_b``.
    """
    e_a, _, e_b, _ = _factor_eig(sys)
    order = np.argsort(np.add.outer(e_a, e_b).ravel(), kind="stable")
    return order, e_a[order // e_b.size], e_b[order % e_b.size]


@_per_system
def _free_eig(sys: BipartiteSystem):
    """``(w0, V0)`` with ``V0 diag(w0) V0^H = H_0``, built from the factors' spectra with no eigensolve.

    ``w0`` holds the sums ``e_a[i] + e_b[j]`` in ascending order and ``V0``
    the matching columns ``V_a[:, i] (x) V_b[:, j]`` of ``kron(V_a, V_b)``,
    in the order of :func:`_free_factors`.  No commutator is involved, so
    the oracle's sectors stay independent of the direct route.
    """
    _, v_a, _, v_b = _factor_eig(sys)
    order, level_a, level_b = _free_factors(sys)
    return level_a + level_b, kron(v_a, v_b)[:, order]


@_per_system
def _eig_overlap(sys: BipartiteSystem) -> np.ndarray:
    """``W = V^H V0``: the eigenbasis of ``H_0`` in that of ``H``, for both tracers."""
    return _total_eig(sys)[1].conj().T @ _free_eig(sys)[1]


class _FreeFrequencies(NamedTuple):
    """The levels of ``H_0`` and the Bohr frequencies between them."""

    bounds: np.ndarray  # level a is eigenvalues bounds[a]:bounds[a + 1] of _free_eig(sys)
    nu: np.ndarray  # the Q Bohr frequencies
    pair: np.ndarray  # K x K: e_a - e_b is the frequency nu[pair[a, b]]
    spread: float  # bound on |w0_i - w0_j - nu[pair[a, b]]| for i in level a, j in level b


@_per_system
def _free_frequencies(sys: BipartiteSystem) -> _FreeFrequencies:
    """Levels ``e_a`` of ``H_0`` and Bohr frequencies ``nu_q``, for the mixed deviation's frequency form.

    Eigenvalues of ``H_0`` whose sorted gaps are at most ``tol =
    NUMERICAL_ZERO_RTOL * max(1, ||h_a|| + ||h_b||)`` (the scale of the
    commutator's zero test) form one level, at their mean; the differences
    ``e_a - e_b`` are grouped into frequencies at the same ``tol``.  Both
    means are :func:`_cluster_means`, the rule of the coupling's alphas.
    Should a chain of differences closer than ``tol`` give one level two
    partners at one frequency, every difference is kept as a frequency of
    its own, so that ``pair[:, b]`` never repeats a frequency; the repeat
    is found by a sort, since ``numpy.unique`` would import ``numpy.ma``.
    The oracle's eigenspaces of ``H_0`` are cut at ``CLUSTER_TOL``
    instead: they decide sector ranks, while these levels only snap phase
    rates, which moves the deviation by at most ``spread * max|t| *
    ||rho||_F``.
    """
    w0 = _free_eig(sys)[0]
    tol = NUMERICAL_ZERO_RTOL * max(1.0, _free_norm(sys))
    bounds, levels = _cluster_means(w0, tol)
    k = levels.size
    diffs = np.subtract.outer(levels, levels).ravel()  # entry a * k + b is e_a - e_b
    order = np.argsort(diffs, kind="stable")
    freq_bounds, nu = _cluster_means(diffs[order], tol)
    freq = np.empty(k * k, dtype=np.intp)
    freq[order] = np.repeat(np.arange(nu.size), np.diff(freq_bounds))
    if not np.diff(np.sort(freq * k + np.arange(k * k) % k)).all():  # a repeat in a column
        freq[order], nu = np.arange(k * k), diffs[order]
    spread = 2.0 * np.abs(w0 - np.repeat(levels, np.diff(bounds))).max() + np.abs(diffs - nu[freq]).max()
    return _FreeFrequencies(bounds, nu, freq.reshape(k, k), float(spread))


def _kernel_cutoff(sys: BipartiteSystem, alpha, rel_tol: float):
    """The cutoff on ``||C~ x|| / max(1, ||C||)`` of :func:`ife_sectors` and :func:`classify_pure` at each ``alpha``.

    ``rel_tol * max(a / max(1, a), ||C|| / max(1, ||C||))`` with ``a = max(|w_0 - alpha|, |w_{d-1} - alpha|)``.
    """
    w, norm = _coupling_eig(sys)[0], float(_commutator_values(sys)[0])
    a = np.maximum(np.abs(w[0] - alpha), np.abs(w[-1] - alpha))
    return rel_tol * np.maximum(a / np.maximum(1.0, a), norm / max(1.0, norm))


def ife_sectors(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> IfeDecomposition:
    """IFE sectors via the kernel-intersection characterization.

    With ``H_I = V diag(w) V^H``, ``Ker(H_I - alpha I)`` is spanned by the
    eigenvectors ``V[:, lo:hi]`` of the coupling cluster at ``alpha``, so the
    sector is ``V[:, lo:hi] Ker(C~[:, lo:hi])`` with ``C~`` the commutator of
    the snapped coupling in the eigenbasis of ``H_I``: the kernel of the
    ``d x m`` block of ``C~ / max(1, ||C||)``.  A direction is kept when its
    singular value is at or below :func:`_kernel_cutoff` (README, "Numerical
    conventions").

    A cluster whose whole eigenspace is its kernel keeps ``V[:, lo:hi]`` as
    the coupling store holds it, unrotated: on a split system each of its
    vectors then lies on one block of :func:`_partition`.  That is every
    cluster of a numerically zero commutator, which reads no singular
    value, and every cluster whose block has a Frobenius norm at or below
    its cutoff, since ``sigma_max <= ||block||_F``; one column-norm pass
    over ``C~`` gives all of them.  The blocks of the other clusters take a
    thin SVD, those of one width ``m`` in one batched ``numpy.linalg.svd``
    call, each block once.  Only a partial kernel is rotated, to
    ``V[:, lo:hi] vh[rank:]^H``; a rank of 0 keeps ``V[:, lo:hi]`` too, and
    a full rank drops the cluster before any basis product is formed.
    """
    require_rel_tol(rel_tol)
    v = _coupling_eig(sys)[1]
    clusters = _coupling_clusters(sys)
    kernels = dict.fromkeys(range(len(clusters)))  # cluster -> rotation of a partial kernel, None if whole
    if not _commutator_is_zero(sys):
        c, scale = _commutator(sys), max(1.0, float(_commutator_values(sys)[0]))
        cutoff = _kernel_cutoff(sys, np.array([alpha for alpha, _ in clusters]), rel_tol)
        starts = np.array([lo for _, (lo, _) in clusters])
        frobenius = np.sqrt(np.add.reduceat((c.real**2 + c.imag**2).sum(axis=0), starts)) / scale
        by_width = {}  # cluster width -> indices of the clusters that wide and above their cutoff
        for j in np.flatnonzero(frobenius > cutoff).tolist():
            lo, hi = clusters[j][1]
            by_width.setdefault(hi - lo, []).append(j)
        for width, same in by_width.items():
            blocks = np.stack([c[:, slice(*clusters[j][1])] for j in same])
            _, s, vh = np.linalg.svd(blocks / scale, full_matrices=False)
            for j, rank, rows in zip(same, (s > cutoff[same, None]).sum(axis=1).tolist(), vh):
                if rank == width:
                    del kernels[j]
                elif rank:
                    kernels[j] = rows[rank:].conj().T
    sectors = (IfeSector(alpha, v[:, lo:hi].copy() if kernels[j] is None else v[:, lo:hi] @ kernels[j])
               for j, (alpha, (lo, hi)) in enumerate(clusters) if j in kernels)
    return IfeDecomposition(tuple(sectors), sys.dim)


def ife_sectors_oracle(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> IfeDecomposition:
    """IFE sectors as the largest ``H_0``-invariant subspaces of ``Ker(H_I - alpha I)``.

    That subspace is the power chain ``cap_n Ker((H_I - alpha I) H_0^n)``,
    and it equals ``+_k (Ran V_alpha cap Ran V0_k)``, where ``V_alpha``
    holds the coupling cluster's eigenvectors and ``V0_k`` spans the
    ``k``-th eigenspace of ``H_0``: the principal vectors at angle 0
    between each cluster and each eigenspace (Björck & Golub, Math. Comp.
    27, 1973).  ``H_I`` is the cluster-snapped coupling
    ``H_bar_I = V diag(w_bar) V^H``, as in :func:`ife_sectors`.

    Every pair is read off one gemm ``G = V^H V0``: the singular values of
    the ``m x n`` block ``G[alpha, k]`` are the cosines of the principal
    angles, and ``diag(w_bar - alpha) G[:, k]`` is ``(H_bar_I - alpha I) V0_k``
    in the eigenbasis of ``H_I``.  A direction ``y`` of ``V0_k`` is kept
    when its singular value in that exact residual is at or below
    ``cutoff = max(rel_tol * min(1, a), NUMERICAL_ZERO_RTOL * a)``, with
    ``a = ||H_bar_I - alpha I|| = max(|w_bar_0 - alpha|, |w_bar_{d-1} - alpha|)``.
    The first term is the direct route's ``rel_tol * sigma_ref``; the
    second keeps the cutoff above the roundoff of the residual, which grows
    with ``a`` (it takes over at ``a > rel_tol / NUMERICAL_ZERO_RTOL``).
    When ``a`` is at roundoff level the whole space is the sector.  The
    cosines decide no rank, since a sine taken as
    ``sqrt(1 - cos^2)`` is accurate only to about ``sqrt(eps)`` (Knyazev &
    Argentati, SIAM J. Sci. Comput. 23, 2002); they only prune.  A unit
    ``x = V0_k y`` has ``||(H_bar_I - alpha I) x|| >= gap * sin`` (Davis–Kahan),
    ``gap`` being the distance from ``alpha`` to the nearest other cluster,
    so a direction within the cutoff has a sine at most ``cutoff / gap``.  A
    block whose squared Frobenius norm, an upper bound on its largest
    squared cosine, is below ``1 - (cutoff / gap)^2`` by more than its
    roundoff holds no such direction and is skipped unfactorized.

    The residuals of all surviving blocks with ``n`` columns share one
    batched ``numpy.linalg.svd`` call.  ``eigh(H_I)`` and the spectrum of
    ``H_0`` (built from ``eigh(h_a)`` and ``eigh(h_b)``) come from the
    per-system cache and ``[H_0, H_I]`` is never formed.
    """
    require_rel_tol(rel_tol)
    _, v = _coupling_eig(sys)
    w0, v0 = _free_eig(sys)
    clusters = _coupling_clusters(sys)
    # at CLUSTER_TOL, for these eigenspaces decide ranks (see _free_frequencies)
    spaces = _cluster_ranges(w0, CLUSTER_TOL * max(1.0, float(np.abs(w0).max())))
    # Clusters (rows of G) and eigenspaces of H_0 (columns) are contiguous index
    # ranges: block (j, k) is the rows of cluster j, columns col_lo[k] + arange(n[k]).
    row_lo = np.array([lo for _, (lo, hi) in clusters])
    col_lo, col_hi = np.array(spaces).T
    n = col_hi - col_lo
    alphas = np.array([alpha for alpha, _ in clusters])
    w_bar = _snapped_spectrum(sys)
    a = np.maximum(alphas - alphas[0], alphas[-1] - alphas)  # alphas ascend
    cutoff = np.maximum(rel_tol * np.minimum(1.0, a), NUMERICAL_ZERO_RTOL * a)
    steps = np.diff(alphas)
    max_sine = cutoff / np.minimum(np.append(np.inf, steps), np.append(steps, np.inf))
    hi_norm = _coupling_norm(sys)
    zero = np.array([_is_numerically_zero(a_j, max(hi_norm, abs(alpha)))
                     for a_j, alpha in zip(a, alphas)])

    g = v.conj().T @ v0
    # sigma_max <= ||block||_F: a block whose squared Frobenius norm is below
    # 1 - max_sine^2 (less 1e-8 for its roundoff) holds no sector direction.
    weight = np.add.reduceat(np.add.reduceat(g.real**2 + g.imag**2, row_lo, axis=0), col_lo, axis=1)
    pj, pk = np.nonzero((weight >= (1.0 - max_sine**2 - 1e-8)[:, None]) & ~zero[:, None])
    kernels = {}  # cluster -> [(eigenspace, kernel columns)]
    for n_k in set(n[pk].tolist()):
        same = n[pk] == n_k
        j, k = pj[same], pk[same]
        cols = col_lo[k, None] + np.arange(n_k)
        residual = (w_bar - alphas[j, None])[:, :, None] * np.moveaxis(g[:, cols], 1, 0)
        s, wh = np.linalg.svd(residual, full_matrices=False)[1:]
        rank = (s > cutoff[j, None]).sum(axis=1)
        for r in set(rank[rank < n_k].tolist()):
            sel = rank == r
            kernel = np.moveaxis(v0[:, cols[sel]], 1, 0) @ wh[sel, r:].conj().swapaxes(1, 2)
            for j_b, k_b, columns in zip(j[sel].tolist(), k[sel].tolist(), kernel):
                kernels.setdefault(j_b, []).append((k_b, columns))
    sectors = []
    for j, (alpha, _) in enumerate(clusters):
        if zero[j]:
            sectors.append(IfeSector(alpha, np.eye(sys.dim, dtype=sys.h_i.dtype)))
        elif j in kernels:
            ordered = sorted(kernels[j], key=lambda kc: kc[0])  # by eigenspace of H_0
            sectors.append(IfeSector(alpha, np.hstack([columns for _, columns in ordered])))
    return IfeDecomposition(tuple(sectors), sys.dim)


def ife_exists(sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """True iff the system has an IFE state: :func:`ife_sectors` finds at least one sector.

    A nontrivial ``Ker[H_0, H_I]`` is not enough: a vector of it need not be
    an eigenvector of ``H_I``.
    """
    return ife_sectors(sys, rel_tol).n_sectors > 0


def classify_pure(psi, sys: BipartiteSystem, rel_tol: float = DEFAULT_REL_TOL):
    """Interaction eigenvalue of an IFE pure state, or None.

    The candidate ``alpha = <psi|H_I|psi>`` is accepted when ``||H_I c -
    alpha c|| <= rel_tol ||H_I||`` and ``||C~ c|| / max(1, ||C||)`` is at
    most :func:`_kernel_cutoff` at ``alpha``, the rule of :func:`ife_sectors`,
    whose sector vectors it so accepts.  ``H_I`` is the snapped coupling and
    ``c = V^H psi`` is ``psi`` in its eigenbasis.
    """
    require_rel_tol(rel_tol)
    psi = require_unit_states(np.asarray(psi).reshape(-1), sys.dim)[:, 0]
    c = _coupling_eig(sys)[1].conj().T @ psi
    h_c = _snapped_spectrum(sys) * c
    alpha = float(np.vdot(c, h_c).real)
    hi_norm = _coupling_norm(sys)
    eig_ok = _is_numerically_zero(hi_norm, 1.0) or np.linalg.norm(h_c - alpha * c) <= rel_tol * hi_norm
    comm_ok = _commutator_is_zero(sys) or (np.linalg.norm(_commutator(sys) @ c)
                                           / max(1.0, float(_commutator_values(sys)[0]))
                                           <= _kernel_cutoff(sys, alpha, rel_tol))
    return alpha if (eig_ok and comm_ok) else None
