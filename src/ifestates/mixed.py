"""IFE mixed states: sector-block structure tests and generators.

A density matrix evolves identically under the full and the free
Hamiltonian exactly when it is block diagonal across the IFE sectors:
supported on the union of the sector subspaces with no coherence between
different sectors.  This module recognizes that structure, draws random
states that have it, and measures the dynamical deviation directly.

The dynamical traces work in the eigenbases of ``H = V diag(w) V^H`` and
``H_0 = V0 diag(w0) V0^H``, cached on the system: ``rho(t)`` is
``V (P(t) o rho~) V^H`` with ``rho~ = V^H rho V`` and the phase matrix
``P(t) = p p^H``, ``p = exp(-i w t)`` (``o`` is the entrywise product).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import BipartiteSystem, IfeDecomposition, _eig
from .dynamics import _apply_local, _eig_overlap, time_grid
from .linalg import as_operator, require_hermitian

__all__ = [
    "check_density_matrix",
    "SectorBlockForm",
    "project_to_sectors",
    "block_structure_residuals",
    "is_ife_mixed",
    "random_ife_mixed",
    "mixed_deviation_trace",
    "mixed_deviation",
    "mixed_energy_trace",
]


def check_density_matrix(rho, hermitian_rtol: float = 1e-12,
                         trace_tol: float = 1e-10, psd_tol: float = 1e-10) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positive semidefiniteness."""
    rho = require_hermitian(rho, hermitian_rtol, name="density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def _state_operator(rho, dim: int) -> np.ndarray:
    """``rho`` as a complex matrix, raising unless it acts on a ``dim``-dimensional space."""
    rho = as_operator(rho)
    if rho.shape[0] != dim:
        raise ValueError(f"state has dimension {rho.shape[0]}, expected {dim}")
    return rho


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


def project_to_sectors(rho, dec: IfeDecomposition) -> SectorBlockForm:
    """Sector coefficient matrices B_k^H rho B_k plus residual diagnostics."""
    rho = _state_operator(rho, dec.commutator_kernel.shape[0])
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


def block_structure_residuals(rho, dec: IfeDecomposition) -> tuple[float, float]:
    """(outside_norm, cross_norm) measuring departure from sector-block form.

    ``outside_norm`` is the Frobenius norm of everything rho carries
    outside the union of the sectors, coherences included.
    """
    total = dec.total_basis()
    rho = _state_operator(rho, total.shape[0])
    compressed = total.conj().T @ rho @ total
    inside = total @ compressed @ total.conj().T
    outside = float(np.linalg.norm(rho - inside))
    return outside, project_to_sectors(rho, dec).cross_norm


def is_ife_mixed(rho, dec: IfeDecomposition, tol: float | None = None) -> bool:
    """True iff rho is supported inside the sectors with no cross coherence.

    Default tolerance is 1e-8 * ||rho||_F, matching the sector
    orthogonality tolerance.
    """
    rho = check_density_matrix(rho)
    if tol is None:
        tol = 1e-8 * float(np.linalg.norm(rho))
    outside, cross = block_structure_residuals(rho, dec)
    return outside <= tol and cross <= tol


def random_ife_mixed(dec: IfeDecomposition, weights, seed: int) -> np.ndarray:
    """Random sector-block state: one Wishart block per sector.

    Each sector receives an n_k x n_k positive semidefinite coefficient
    matrix G^H G from a seeded complex Gaussian, normalized to trace
    ``weights[k]``; the weights must be nonnegative and sum to 1.
    Deterministic for a fixed seed.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dec.n_sectors,):
        raise ValueError(
            f"expected {dec.n_sectors} weights (one per sector), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")

    rng = np.random.default_rng(seed)
    dim = dec.commutator_kernel.shape[0]
    rho = np.zeros((dim, dim), dtype=complex)
    for sector, weight in zip(dec.sectors, weights):
        n = sector.dimension
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        block = g.conj().T @ g
        if weight == 0.0:
            continue
        block *= weight / float(np.trace(block).real)
        rho += sector.basis @ block @ sector.basis.conj().T
    return 0.5 * (rho + rho.conj().T)


def _eigenbasis_state(rho, sys: BipartiteSystem, free: bool = False):
    """``(w, rho~)``: the spectrum of ``H`` (``H_0`` when ``free``) and ``V^H rho V``."""
    w, v = _eig(sys, free)
    return w, v.conj().T @ rho @ v


def _phase_matrix(w, t: float) -> np.ndarray:
    """``P(t) = p p^H`` with ``p = exp(-i w t)``."""
    p = np.exp(-1j * w * t)
    return np.outer(p, p.conj())


def mixed_deviation_trace(rho, sys: BipartiteSystem, times=None) -> np.ndarray:
    """Frobenius distance between full and free conjugation at each time.

    ``||rho(t) - rho_0(t)||_F = ||P(t) o rho~ - W (P0(t) o rho~0) W^H||_F``
    in the eigenbasis of ``H``, with ``rho~0 = V0^H rho V0`` and
    ``W = V^H V0``: two matrix products per time step.
    """
    times = time_grid() if times is None else np.asarray(times, dtype=float)
    rho = _state_operator(rho, sys.dim)
    w, rho_eig = _eigenbasis_state(rho, sys)
    w0, rho0_eig = _eigenbasis_state(rho, sys, free=True)
    overlap = _eig_overlap(sys)
    overlap_h = overlap.conj().T
    return np.array([
        float(np.linalg.norm(_phase_matrix(w, t) * rho_eig
                             - overlap @ (_phase_matrix(w0, t) * rho0_eig) @ overlap_h))
        for t in times
    ])


def mixed_deviation(rho, sys: BipartiteSystem, times=None) -> float:
    """Largest deviation over the grid; ~0 exactly for IFE mixed states."""
    return float(mixed_deviation_trace(rho, sys, times).max())


def mixed_energy_trace(rho, sys: BipartiteSystem, times=None) -> tuple[np.ndarray, np.ndarray]:
    """Subsystem energies Tr(rho(t) H_A (x) I), Tr(rho(t) I (x) H_B).

    ``Tr(rho(t) O) = p(t)^T (rho~ o O~^T) p(t)^*`` with ``O~ = V^H O V``,
    so the whole grid is one ``T x d x d`` product per observable.
    """
    times = time_grid() if times is None else np.asarray(times, dtype=float)
    rho = _state_operator(rho, sys.dim)
    w, rho_eig = _eigenbasis_state(rho, sys)
    v = _eig(sys)[1]
    phases = np.exp(-1j * np.outer(times, w))  # row k is p(t_k)
    energies = []
    for op_v in (_apply_local(sys, v, op_a=sys.h_a), _apply_local(sys, v, op_b=sys.h_b)):
        weights = rho_eig * (v.conj().T @ op_v).T
        energies.append(((phases @ weights) * phases.conj()).sum(axis=1).real)
    return energies[0], energies[1]
