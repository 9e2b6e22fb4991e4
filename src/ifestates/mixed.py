"""IFE mixed states: sector-block structure tests and generators.

A density matrix that is block diagonal across the IFE sectors (supported
on the union of the sector subspaces, with no coherence between different
sectors) evolves identically under the full and the free Hamiltonian.
The condition is sufficient, not necessary: ``I / d`` commutes with both
Hamiltonians and so evolves interaction-free, yet it carries weight
outside the sectors whenever they do not span the whole space.  This
module recognizes the sector-block structure, draws random states that
have it, and measures the dynamical deviation directly, which decides
interaction-free evolution for any state.

:func:`block_structure_residuals` compresses ``rho`` onto the concatenated
sector bases once and reads both residuals off that one matrix.  The one
tracer, :func:`trace_density_matrix`, works in the eigenbases of
``H = V diag(w) V^H`` and ``H_0 = V0 diag(w0) V0^H``, cached on the system
(``H_0``'s is built from the factors' spectra, ``core._free_eig``, so its
levels and Bohr frequencies are sums and differences of ``e_i + f_j``):
``rho(t)`` is ``V (P(t) o rho~) V^H`` with ``rho~ = V^H rho V`` and the
phase matrix ``P(t) = p p^H``, ``p = exp(-i w t)`` (``o`` is the entrywise
product).  It takes one state and returns one report.  Both entry points
check their state and hand it to a private core that takes it as checked,
so a file's state is checked once, by ``serialize.load_state``, and a
sample never: :func:`_sampled_checks`, the sampling self-check of the
CLI's ``mixed``, draws its states a group of at most ``max(1,
_CHUNK_ENTRIES // d^2)`` at a time (one state from ``d = 91`` on), each
drawn once, as the exact state and, for the dense form, its sector factor
``F`` (``rho = F F^H``, ``d x n`` for the ``n`` dimensions of the
sectors).  The
deviation has two forms.  The dense form works in the interaction frame:
the diagonal unitaries ``diag(p(t))^*`` and ``diag(p(t))`` leave
the Frobenius norm unchanged, so the deviation is ``||Y(t) rho~0 Y(t)^H -
rho~||_F`` with ``Y(t)_ij = conj(p_i(t)) W_ij p0_j(t)``, ``W = V^H V0``,
``rho~0 = V0^H rho V0``, and ``rho~`` constant in time.  It is evaluated
as ``||G G'^H - rho~||_F``, ``G = Y F0`` and ``G' = Y F0'``, from a
splitting ``rho~0 = F0 F0'^H``: ``F0 = F0' = V0^H F`` for a sample (two
``d^2 n`` products per step), ``F0 = rho~0`` and ``F0' = I`` for any
other state (two ``d^3`` ones).  The grid goes in blocks of times sized
by the pure-state tracer's ``_CHUNK_ENTRIES`` rule; per block, ``Y`` is
built once and applied to every state of a group.  The frequency form expands
the free evolution over the Bohr frequencies of ``H_0``, one ``d x d``
term per frequency, and phases the terms for all grid times with one
``(times x frequencies) @ (frequencies x entries)`` product, taken in slabs
of rows; it runs at ``d >= 91`` when a flop count says it is cheaper (see
:func:`_deviation`).
"""

from __future__ import annotations

import numpy as np

from .core import (
    BipartiteSystem,
    IfeDecomposition,
    _apply_local,
    _eig_overlap,
    _free_eig,
    _free_frequencies,
    _total_eig,
)
from .dynamics import _CHUNK_ENTRIES, EvolutionReport, _checked_times
from .linalg import HERMITIAN_RTOL, _require_dimension, as_operator, require_hermitian

__all__ = [
    "check_density_matrix",
    "block_structure_residuals",
    "is_ife_mixed",
    "random_ife_mixed",
    "trace_density_matrix",
]

# A density matrix's trace must be within this of 1, and no eigenvalue below its negative.
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10


def check_density_matrix(rho, hermitian_rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """The Hermitian part of ``rho``, raising unless it has unit trace and is positive semidefinite.

    Hermiticity is checked at ``hermitian_rtol`` (files use the looser
    ``serialize.FILE_HERMITIAN_RTOL``), as for the system matrices.
    """
    rho = require_hermitian(rho, hermitian_rtol, name="density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    lo = float(np.linalg.eigvalsh(rho).min())
    if lo < -_PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
    return rho


def _hermitian_state(rho, dim: int) -> np.ndarray:
    """The Hermitian part of ``rho``, raising unless it is a finite Hermitian ``dim x dim`` matrix.

    The state contract of both entry points, :func:`block_structure_residuals`
    and :func:`trace_density_matrix`: the dimension is checked first, then
    :func:`~ifestates.linalg.require_hermitian` at ``HERMITIAN_RTOL``.  Trace
    and positivity are left to :func:`check_density_matrix`: its eigensolve
    would add a factorization to every sampled state.
    """
    return require_hermitian(_require_dimension(as_operator(rho), dim), name="density matrix")


def _block_size(dim: int) -> int:
    """``max(1, _CHUNK_ENTRIES // d^2)``: grid times per dense block, and states per group.

    A ``c x d x d`` stack of grid times and each ``m x d x d`` stack of a
    group (the states, ``rho~`` and ``rho~0``) stay within
    ``_CHUNK_ENTRIES`` entries.  From ``d = 91`` on a block is one time and
    a group one state.
    """
    return max(1, _CHUNK_ENTRIES // dim**2)


def block_structure_residuals(rho, dec: IfeDecomposition) -> tuple[float, float]:
    """(outside_norm, cross_norm) measuring departure from sector-block form.

    With ``T`` the concatenated sector bases, ``C = T^H rho T`` is formed
    once.  ``outside_norm`` is the Frobenius norm of everything rho
    carries outside the union of the sectors, coherences included:
    ``||rho - T C T^H||_F``.  ``cross_norm`` is the largest Frobenius norm
    among the off-diagonal blocks ``B_i^H rho B_j`` of ``C``; ``rho`` is
    Hermitian, so block ``(j, i)`` is the adjoint of block ``(i, j)`` and
    the blocks above the diagonal (``i < j``) suffice.
    """
    return _block_residuals(_hermitian_state(rho, dec.dim), dec)


def _block_residuals(rho: np.ndarray, dec: IfeDecomposition) -> tuple[float, float]:
    """:func:`block_structure_residuals` of a Hermitian ``rho`` of the decomposition's dimension."""
    total = dec.total_basis()
    compressed = total.conj().T @ rho @ total
    inside = total @ compressed @ total.conj().T
    outside = float(np.linalg.norm(rho - inside))
    edges = np.cumsum([0] + [s.dimension for s in dec.sectors])
    blocks = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    cross = max((float(np.linalg.norm(compressed[row, col]))
                 for i, row in enumerate(blocks) for col in blocks[i + 1:]), default=0.0)
    return outside, cross


def _block_tol(rho: np.ndarray) -> float:
    """Default block-structure tolerance, ``1e-8 * ||rho||_F``."""
    return 1e-8 * float(np.linalg.norm(rho))


def _deviation_tol(dim: int) -> float:
    """Default tolerance ``1e-8 * d`` on the maximal deviation of a density matrix."""
    return 1e-8 * dim


def _is_real_number(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float: no bool, and no string numpy would parse."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, (bool, np.bool_))


def is_ife_mixed(rho, dec: IfeDecomposition, tol: float | None = None) -> bool:
    """True iff rho is supported inside the sectors with no cross coherence.

    ``tol``, a finite number >= 0, bounds both residuals of
    :func:`block_structure_residuals`; by default it is ``1e-8 *
    ||rho||_F``, matching the sector orthogonality tolerance.
    """
    if tol is not None and not (_is_real_number(tol) and tol >= 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    rho = _require_dimension(check_density_matrix(rho), dec.dim)
    if tol is None:
        tol = _block_tol(rho)
    outside, cross = _block_residuals(rho, dec)
    return outside <= tol and cross <= tol


def random_ife_mixed(dec: IfeDecomposition, weights, seed: int) -> np.ndarray:
    """Random sector-block state: one Wishart block per sector.

    Each sector receives an n_k x n_k positive semidefinite coefficient
    matrix G^H G from a seeded complex Gaussian, normalized to trace
    ``weights[k]``; the weights must be real numbers (no ``bool`` or
    string), nonnegative and summing to 1, and the seed must be an integer
    >= 0 (a ``bool`` is not one).  Deterministic for a fixed seed.
    """
    if not all(map(_is_real_number, np.asarray(weights, dtype=object).ravel().tolist())):
        raise ValueError(f"weights must be real numbers, got {weights!r}")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (dec.n_sectors,):
        raise ValueError(
            f"expected {dec.n_sectors} weights (one per sector), got {weights.shape}"
        )
    if not np.isfinite(weights).all() or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    return _sector_sample(dec, weights, int(seed), factor=False)[1]


def _sector_sample(dec: IfeDecomposition, weights: np.ndarray, seed: int, factor: bool = True):
    """``(F, rho)`` of the :func:`random_ife_mixed` state of checked weights and seed.

    One draw of the Wishart blocks gives both: ``rho``, with the bits
    :func:`random_ife_mixed` returns, and its sector factor ``F = [B_k
    G_k^H sqrt(w_k / ||G_k||_F^2)]_k``, ``d x n`` for the ``n`` sector
    dimensions, with ``F F^H = rho`` to roundoff (a sector of weight 0
    gives zero columns).  The dense deviation of a sample takes ``F``;
    without ``factor`` it is not formed and ``F`` is None, for the callers
    that take ``rho`` alone (:func:`random_ife_mixed`, and the samples of
    the frequency form).
    """
    rng = np.random.default_rng(seed)
    dim = dec.dim
    rho = np.zeros((dim, dim), dtype=complex)
    pieces = []  # (B_k, G_k^H sqrt(w_k / ||G_k||_F^2)): F = [B_k @ piece]_k
    for sector, weight in zip(dec.sectors, weights):
        n = sector.dimension
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if weight == 0.0:  # g is still drawn, so the later sectors keep their draws
            pieces.append((sector.basis, np.zeros((n, n))))
            continue
        block = g.conj().T @ g
        scale = weight / float(np.trace(block).real)
        block *= scale
        rho += sector.basis @ block @ sector.basis.conj().T
        pieces.append((sector.basis, np.sqrt(scale) * g.conj().T))
    rho = 0.5 * (rho + rho.conj().T)
    return (np.hstack([basis @ piece for basis, piece in pieces]) if factor else None), rho


def _uses_frequencies(sys: BipartiteSystem, steps: int) -> bool:
    """Whether :func:`_deviation` takes the frequency form for a grid of ``steps`` times.

    Only where the dense form takes one time per block (``d >= 91``) and
    the flop count of the frequency form, ``d^3`` for the products ``Z_a``,
    ``Q d^3 / 2`` for the terms ``S_q`` and ``T Q d^2 / 2`` for phasing them
    (see :func:`_hermitian_deviation_squares`), is below the dense form's
    ``2 T d^3``.
    """
    d = sys.dim
    if _block_size(d) > 1:
        return False
    n_freq = _free_frequencies(sys).nu.size
    return 2 * d + n_freq * d + steps * n_freq < 4 * steps * d


def _hermitian_deviation_squares(sys: BipartiteSystem, rho, rho_eig, times) -> np.ndarray:
    """``||rho(t) - rho_0(t)||_F^2`` at each time for a Hermitian ``rho``, by frequencies.

    The free side is ``W (P0(t) o rho~0) W^H = sum_q exp(-i nu_q t) S_q``
    with ``S_q = sum over e_a - e_b = nu_q of W_a rho~0_ab W_b^H``
    (``W_a`` the columns of ``W`` of level ``a``).  The difference from
    ``P(t) o rho~`` is Hermitian, so each slab of rows ``R`` of it is
    formed from column ``R[0]`` on: the diagonal block counts once, the
    block to its right twice.  Per slab, ``Z_a = W_a[R] rho~0[a, :]`` (one
    product per level, ``d^3`` in all); ``X_q``, the column blocks ``b`` of
    ``Z_a`` with ``e_a - e_b = nu_q``, gathered for every ``q``; ``S_q[R] =
    X_q W^H`` as one ``Q |R| x d`` product (``Q d^3 / 2`` in all); then, for
    each row, the grid as ``(c x Q) @ (Q x d)`` products with ``c`` times
    per product, as many as keep the slab's ``c x |R| x d`` stack within
    ``_CHUNK_ENTRIES``.  The slab height keeps the ``(K + 1 + 2 Q) |R| d``
    entries of ``Z``, ``X`` and ``S`` within ``4 * _CHUNK_ENTRIES``.
    """
    w = _total_eig(sys)[0]
    v0 = _free_eig(sys)[1]
    rho0_eig = v0.conj().T @ rho @ v0
    overlap = _eig_overlap(sys)
    overlap_h = overlap.conj().T
    freq = _free_frequencies(sys)
    d, levels, n_freq = sys.dim, freq.pair.shape[0], freq.nu.size
    blocks = [slice(lo, hi) for lo, hi in zip(freq.bounds[:-1], freq.bounds[1:])]
    # partner[q, b]: the level a with e_a - e_b = nu_q, else levels (a zero block)
    partner = np.full((n_freq, levels), levels)
    partner[freq.pair, np.arange(levels)] = np.arange(levels)[:, None]
    # entry q * d + j: where column j of X_q sits in a slab's [Z_0 ... Z_{K-1}, 0]
    level = np.repeat(np.arange(levels), np.diff(freq.bounds))
    source = (partner[:, level] * d + np.arange(d)).ravel()
    free_phases = np.exp(-1j * np.outer(times, freq.nu))  # row k is exp(-i nu t_k)
    p = np.exp(-1j * np.outer(times, w))
    squares = np.zeros(times.size)

    def add_slab(lo: int, hi: int) -> None:
        # a function, so that each slab's stacks are freed before the next;
        # the stacks are ordered (row, frequency or time, column)
        height, width = hi - lo, d - lo
        left = np.zeros((height, levels + 1, d), dtype=complex)
        for a, block in enumerate(blocks):
            np.matmul(overlap[lo:hi, block], rho0_eig[block], out=left[:, a])
        terms = np.take(left.reshape(height, -1), source, axis=1).reshape(-1, d)
        del left
        terms = (terms @ overlap_h[:, lo:]).reshape(height, n_freq, width)
        chunk = max(1, _CHUNK_ENTRIES // terms[:, 0].size)
        for t in range(0, times.size, chunk):
            step = slice(t, t + chunk)
            diff = free_phases[step] @ terms
            full = p[step, lo:hi].T[:, :, None] * rho_eig[lo:hi, None, lo:]
            full *= p[step, lo:].conj()
            diff -= full
            del full
            sq = np.square(diff.view(float), out=diff.view(float))
            squares[step] += sq[:, :, :2 * height].sum(axis=(0, 2)) \
                + 2.0 * sq[:, :, 2 * height:].sum(axis=(0, 2))

    rows = max(1, 4 * _CHUNK_ENTRIES // ((levels + 1 + 2 * n_freq) * d))
    for lo in range(0, d, rows):
        add_slab(lo, min(d, lo + rows))
    return squares


def _deviation(sys: BipartiteSystem, rho, rho_eig, times, factor=None) -> np.ndarray:
    """``||rho(t) - rho_0(t)||_F`` of each state of a group at each time, given ``rho~ = V^H rho V``.

    ``rho`` and ``rho_eig`` are ``m x d x d`` stacks of at most
    :func:`_block_size` states; the result is ``m x T``.  ``factor``, for
    sampled states, is the ``m x d x n`` stack of their sector factors
    (``F F^H = rho``, see :func:`_sector_sample`), else None.  In the
    eigenbasis of ``H`` the deviation is ``||P(t) o rho~ - W (P0(t) o
    rho~0) W^H||_F``, with ``rho~0 = V0^H rho V0`` and ``W = V^H V0``.

    Dense form, in the interaction frame: ``P(t) o X = diag(p) X
    diag(p)^*``, and multiplying by the diagonal unitaries ``diag(p)^*``
    on the left and ``diag(p)`` on the right does not change the Frobenius
    norm, so the deviation is ``||Y(t) rho~0 Y(t)^H - rho~||_F`` with
    ``Y(t)_ij = conj(p_i(t)) W_ij p0_j(t)``; ``rho~`` does not depend on
    time.  With a splitting ``rho~0 = F0 F0'^H`` it is ``||G G'^H -
    rho~||_F`` for ``G = Y F0`` and ``G' = Y F0'``, the one evaluation for
    every state: a sample takes ``F0 = F0' = V0^H F``, so ``G' = G`` and a
    step costs two ``d^2 n`` products; any other state takes ``F0 =
    rho~0`` and ``F0' = I``, so ``G' = Y`` and a step costs two ``d^3``
    products.  The grid is taken in blocks of ``c = max(1, _CHUNK_ENTRIES
    // d^2)`` times.  Per block, the ``c x d x d`` stack of ``Y`` is built
    once and applied to every state of the group, a state at a time: ``G``
    as one ``cd x d`` by ``d x n`` product, the stacked ``G G'^H``, its
    difference from ``rho~`` and its norms, in three stacks allocated once
    per call.  A state's deviation so has the same bits in any group.  At
    ``d >= 91`` a block is one time and a group one state.

    Frequency form, where :func:`_uses_frequencies` selects it (``d >= 91``
    and ``d^3 + Q d^3 / 2 + T Q d^2 / 2 < 2 T d^3`` for the ``Q`` Bohr
    frequencies of ``H_0``), one state at a time: see
    :func:`_hermitian_deviation_squares`; ``rho`` is Hermitian by the
    state contract.  Snapping each eigenvalue to its level and each level
    difference to its frequency moves every phase rate by at most
    ``spread``, so the result differs from the dense form by at most
    ``spread * max|t| * ||rho||_F`` beyond roundoff.

    A function of its own, so that ``rho~0`` and the last block are freed
    before the energies are traced.
    """
    if _uses_frequencies(sys, times.size):
        return np.sqrt([_hermitian_deviation_squares(sys, state, state_eig, times)
                        for state, state_eig in zip(rho, rho_eig)])
    w = _total_eig(sys)[0]
    w0, v0 = _free_eig(sys)
    # the splitting rho~0 = F0 F0'^H: F0 = F0' = V0^H F for samples, else F0 = rho~0 and F0' = I
    left = v0.conj().T @ rho @ v0 if factor is None else v0.conj().T @ factor
    overlap = _eig_overlap(sys)
    d, chunk = sys.dim, _block_size(sys.dim)
    # three stacks for the whole call: Y (c x d x d), G = Y F0 (c x d x n) and G G'^H - rho~
    frame = np.empty((min(chunk, times.size), d, d), dtype=complex)
    gram = np.empty(frame.shape[:2] + left.shape[2:], dtype=complex)
    diff = np.empty_like(frame)
    deviation = np.empty((rho.shape[0], times.size))
    for lo in range(0, times.size, chunk):
        t = times[lo:lo + chunk]
        y, g, out = frame[:t.size], gram[:t.size], diff[:t.size]
        p, p0 = np.exp(-1j * np.outer(t, w)), np.exp(-1j * np.outer(t, w0))  # row k is p(t_k)
        np.multiply(overlap, p0[:, None, :], out=y)
        y *= p.conj()[:, :, None]  # Y(t_k)
        for j in range(rho.shape[0]):  # a state at a time, so that the stacks stay in cache
            np.matmul(y.reshape(-1, d), left[j], out=g.reshape(-1, g.shape[2]))  # G = Y F0, one product
            np.matmul(g, (y if factor is None else g).conj().swapaxes(1, 2), out=out)  # G G'^H
            out -= rho_eig[j]
            sq = np.square(out.view(float), out=out.view(float))
            deviation[j, lo:lo + chunk] = np.sqrt(sq.sum(axis=(1, 2)))
    return deviation


def trace_density_matrix(sys: BipartiteSystem, rho, times) -> EvolutionReport:
    """Evolution traces of a density matrix ``rho`` on the grid ``times``.

    The report carries the deviation ``||rho(t) - rho_0(t)||_F`` of the
    full from the free conjugation at each time and its maximum (~0
    exactly for IFE mixed states), and the subsystem energies
    ``Tr(rho(t) H_A (x) I)`` and ``Tr(rho(t) I (x) H_B)``.  The
    grid is checked, then the state, which must be a finite Hermitian
    ``d x d`` matrix of the system's dimension (its exact Hermitian part
    is traced); the spectra come from the system's cache.  See
    :func:`_trace_states`.
    """
    times = _checked_times(times)
    return _trace_states(sys, _hermitian_state(rho, sys.dim), times)


def _trace_states(sys: BipartiteSystem, rho: np.ndarray, times: np.ndarray) -> EvolutionReport:
    """The report of one Hermitian ``d x d`` state on a checked grid.

    The core of :func:`trace_density_matrix`, which the CLI calls directly
    on a file's density matrix, checked once by ``serialize.load_state``.
    The energies are ``Tr(rho(t) O) = p(t)^T (rho~ o O~^T) p(t)^*`` with
    ``rho~ = V^H rho V`` and ``O~ = V^H O V``, one ``T x d x d`` product per
    observable for the whole grid, taken after the deviation has freed its
    stacks.
    """
    w, v = _total_eig(sys)
    rho_eig = v.conj().T @ rho @ v
    deviation = _deviation(sys, rho[None], rho_eig[None], times)[0]
    phases = np.exp(-1j * np.outer(times, w))  # row k is p(t_k)
    energies = {}
    for key, op_v in (("energy_a", _apply_local(sys, v, op_a=sys.h_a)),
                      ("energy_b", _apply_local(sys, v, op_b=sys.h_b))):
        op_eig_t = (v.conj().T @ op_v).T
        energies[key] = ((phases @ (rho_eig * op_eig_t)) * phases.conj()).sum(axis=1).real
    return EvolutionReport(times=times, deviation=deviation, max_deviation=float(deviation.max()),
                           **energies)


def _sampled_checks(sys: BipartiteSystem, dec: IfeDecomposition, seeds, times):
    """``(seed, outside, cross, max_deviation)`` of each seed's equal-weight :func:`random_ife_mixed` state.

    The sampling self-check of ``mixed``, on a checked grid.  Each state is
    drawn once, by :func:`_sector_sample`, as the exact state and, where the
    deviation takes the dense form, its sector factor; the states are
    exactly Hermitian, so they go to the cores unchecked, a group of
    :func:`_block_size` at a time, the residuals from the state and the
    dense deviation from the factor; a state's numbers are the same in any
    group.
    """
    weights = np.full(dec.n_sectors, 1.0 / dec.n_sectors)
    v, group = _total_eig(sys)[1], _block_size(sys.dim)
    dense = not _uses_frequencies(sys, times.size)  # only the dense form takes the factors
    for lo in range(0, len(seeds), group):
        batch = seeds[lo:lo + group]
        factors, rhos = zip(*(_sector_sample(dec, weights, seed, dense) for seed in batch))
        rhos = np.array(rhos)
        residuals = [_block_residuals(rho, dec) for rho in rhos]
        deviation = _deviation(sys, rhos, v.conj().T @ rhos @ v, times,
                               np.array(factors) if dense else None)
        for seed, (outside, cross), dev in zip(batch, residuals, deviation):
            yield seed, outside, cross, float(dev.max())
