import json
import tempfile
import warnings
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ifestates.core as core
from ifestates import (
    BipartiteSystem,
    SpinStarParams,
    build_h0,
    build_spin_star,
    build_total,
    classify_pure,
    commutator_kernel,
    ife_exists,
    ife_sectors,
    ife_sectors_oracle,
    spin_star_ife_basis,
    verify_spin_star_claims,
)
from ifestates.core import CLUSTER_TOL, NUMERICAL_ZERO_RTOL
from ifestates.linalg import (
    DEFAULT_REL_TOL,
    HERMITIAN_RTOL,
    SUBSPACE_ANGLE_TOL,
    hermiticity_defect,
    max_principal_angle,
    spectral_norm,
)

from helpers import (
    DIM_PAIRS,
    FAMILIES,
    assert_same_bits,
    cluster_values,
    commutator,
    commutator_with_zero_flag,
    commuting_system,
    conjugated_near_commuting_system,
    diagonal_multisector_system,
    factorized_operators,
    family_system,
    generic_system,
    intersect_kernels,
    locally_rotated,
    null_space,
    per_cluster_sectors,
    per_eigenspace_oracle,
    product_basis_classify,
    product_basis_sectors,
    propagator,
    random_hermitian,
    random_state,
    random_unitary,
    record_eigensolves,
    snapped_coupling,
    star_system,
    subspace_equal,
    subspace_zero_system,
)

SZ = np.diag([1.0, -1.0]).astype(complex)


def brute_force_zero_sector(sys_):
    """Independent oracle: scipy null spaces of the stacked constraints."""
    h0 = build_h0(sys_)
    stack = np.vstack([sys_.h_i, h0 @ sys_.h_i - sys_.h_i @ h0])
    return scipy.linalg.null_space(stack)


class TestBuilders:
    def test_h0_diagonal_sum(self):
        sys_ = BipartiteSystem(2, 2, SZ, SZ, np.zeros((4, 4)))
        assert np.allclose(build_h0(sys_), np.diag([2.0, 0.0, 0.0, -2.0]))

    def test_h0_zero(self):
        sys_ = BipartiteSystem(2, 3, np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((6, 6)))
        assert np.allclose(build_h0(sys_), 0.0)

    def test_h0_spectrum_is_sumset(self):
        rng = np.random.default_rng(0)
        d_a = rng.standard_normal(3)
        d_b = rng.standard_normal(4)
        sys_ = BipartiteSystem(3, 4, np.diag(d_a), np.diag(d_b), np.zeros((12, 12)))
        expected = np.sort(np.add.outer(d_a, d_b).ravel())
        assert np.allclose(np.linalg.eigvalsh(build_h0(sys_)), expected)

    def test_total_without_coupling(self):
        rng = np.random.default_rng(1)
        sys_ = generic_system(2, 3, rng)
        free = BipartiteSystem(2, 3, sys_.h_a, sys_.h_b, np.zeros((6, 6)))
        assert np.allclose(build_total(free), build_h0(free))

    def test_total_hermitian(self):
        rng = np.random.default_rng(2)
        sys_ = generic_system(2, 4, rng)
        h = build_total(sys_)
        assert np.allclose(h, h.conj().T)

    def test_spin_star_n1_coupling_entries(self):
        # flip-flop with unit strength couples |+,down> and |-,up> only
        from ifestates import SpinStarParams, build_spin_star

        sys_ = build_spin_star(SpinStarParams(1, 0.0, 0.0, (1.0,)))
        h = build_total(sys_)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(h, expected)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            BipartiteSystem(2, 2, SZ, SZ, np.zeros((6, 6)))
        one = np.eye(1)
        for dims, ops, field in [((2.0, 2.0), (SZ, SZ, np.zeros((4, 4))), "dim_a"),
                                 ((True, True), (one, one, one), "dim_a"),
                                 ((0, 2), (one, SZ, SZ), "dim_a"),
                                 ((2, "2"), (SZ, SZ, np.zeros((4, 4))), "dim_b")]:
            with pytest.raises(ValueError, match=f"field '{field}' must be a positive integer"):
                BipartiteSystem(*dims, *ops)

    def test_numpy_integer_dimensions_stored_as_int(self):
        sys_ = BipartiteSystem(np.int64(2), np.uint8(2), SZ, SZ, np.zeros((4, 4)))
        assert type(sys_.dim_a) is int and type(sys_.dim_b) is int
        assert ife_sectors(sys_).n_sectors == 1

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            BipartiteSystem(2, 2, bad, SZ, np.zeros((4, 4)))

    @pytest.mark.parametrize("fields, message", [
        ((SZ, SZ, np.zeros((6, 6))), "field 'h_i' has dimension 6, expected 4"),
        ((SZ, np.array([[0, 1], [0, 0]]), np.zeros((4, 4))), "field 'h_b' is not Hermitian"),
        ((np.diag([np.nan, 0.0]), SZ, np.zeros((4, 4))), "field 'h_a' has non-finite entries"),
    ])
    def test_defect_names_the_field(self, fields, message):
        with pytest.raises(ValueError, match=message):
            BipartiteSystem(2, 2, *fields)

    @settings(max_examples=40, deadline=None, database=None)
    @given(dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           signed_zeros=st.booleans())
    def test_exactly_hermitian_input_stored_bit_identical(self, dims, seed, signed_zeros):
        rng = np.random.default_rng(seed)
        fields = [random_hermitian(d, rng) for d in (dims[0], dims[1], dims[0] * dims[1])]
        if signed_zeros:
            # -0.0 entries must keep their sign bit
            for m in fields:
                m[0, -1] = complex(-0.0, 0.0)
                m[-1, 0] = np.conj(m[0, -1])
        sys_ = BipartiteSystem(*dims, *fields)
        for stored, given_ in zip((sys_.h_a, sys_.h_b, sys_.h_i), fields):
            assert stored.tobytes() == given_.tobytes()

    @settings(max_examples=40, deadline=None, database=None)
    @given(dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(1e-6, 0.99), rtol=st.sampled_from([HERMITIAN_RTOL, 1e-10]))
    def test_defect_within_tolerance_stored_exactly_hermitian(self, dims, seed, fraction, rtol):
        rng = np.random.default_rng(seed)
        fields = []
        for d in (dims[0], dims[1], dims[0] * dims[1]):
            m = random_hermitian(d, rng)
            skew = 1j * random_hermitian(d, rng)
            # relative defect max|2 eps K| / max(1, ||m + eps K||_F) near fraction * rtol
            eps = fraction * rtol * max(1.0, np.linalg.norm(m)) / (2.0 * np.abs(skew).max())
            fields.append(m + eps * skew)
        assume(all(hermiticity_defect(m) <= rtol for m in fields))
        sys_ = BipartiteSystem(*dims, *fields, hermitian_rtol=rtol)
        for stored, given_ in zip((sys_.h_a, sys_.h_b, sys_.h_i), fields):
            assert np.array_equal(stored, stored.conj().T)
            assert np.array_equal(stored, 0.5 * (given_ + given_.conj().T))


class TestClusterValues:
    def test_merges_roundoff_splits(self):
        values = [1.0, 1.0 + 1e-12, 2.0, 2.0 - 1e-12, 5.0]
        assert cluster_values(values, 1e-8) == [pytest.approx(1.0), pytest.approx(2.0), 5.0]

    def test_empty(self):
        assert cluster_values([], 1e-8) == []

    def test_no_negative_zero(self):
        out = cluster_values([-1e-16, 1e-16], 1e-8)
        assert str(out[0]) != "-0.0"


class TestIfeSectors:
    def test_zero_coupling_full_space(self):
        rng = np.random.default_rng(3)
        sys_ = BipartiteSystem(
            2, 3,
            np.diag(rng.standard_normal(2)),
            np.diag(rng.standard_normal(3)),
            np.zeros((6, 6)),
        )
        dec = ife_sectors(sys_)
        assert dec.n_sectors == 1
        assert dec.sectors[0].alpha == pytest.approx(0.0, abs=1e-12)
        assert dec.sectors[0].dimension == 6

    def test_diagonal_sectors_are_coupling_eigenspaces(self):
        rng = np.random.default_rng(4)
        sys_ = diagonal_multisector_system(rng, 2, 3)
        dec = ife_sectors(sys_)
        d_i = np.diagonal(sys_.h_i).real
        expected = sorted(set(d_i))
        assert list(dec.alphas) == pytest.approx(expected)
        total = sum(s.dimension for s in dec.sectors)
        assert total == 6
        for sector in dec.sectors:
            idx = np.flatnonzero(np.abs(d_i - sector.alpha) < 1e-9)
            assert sector.dimension == idx.size
            assert subspace_equal(sector.basis, np.eye(6)[:, idx], 1e-8)

    def test_spin_star_n2_single_sector(self, star_system_n2):
        dec = ife_sectors(star_system_n2)
        assert dec.n_sectors == 1
        assert dec.sectors[0].alpha == pytest.approx(0.0, abs=1e-10)
        assert dec.sectors[0].dimension == 4
        brute = brute_force_zero_sector(star_system_n2)
        assert brute.shape[1] == 4
        assert subspace_equal(dec.sectors[0].basis, brute, 1e-8)

    def test_generic_system_is_empty(self):
        rng = np.random.default_rng(5)
        sys_ = generic_system(2, 3, rng)
        dec = ife_sectors(sys_)
        assert dec.n_sectors == 0
        assert commutator_kernel(sys_).shape[1] == 0

    def test_alphas_strictly_increasing(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            dec = ife_sectors(commuting_system(2, 3, rng))
            alphas = np.array(dec.alphas)
            assert np.all(np.diff(alphas) > 0)

    def test_sector_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            dec = ife_sectors(commuting_system(2, 4, rng))
            for i in range(dec.n_sectors):
                for j in range(i + 1, dec.n_sectors):
                    gram = dec.sectors[i].basis.conj().T @ dec.sectors[j].basis
                    assert np.linalg.norm(gram, 2) <= 1e-8

    def test_sectors_inside_commutator_kernel(self):
        rng = np.random.default_rng(8)
        for k in range(10):
            maker = [subspace_zero_system, commuting_system][k % 2]
            sys_ = maker(2, 3, rng)
            dec = ife_sectors(sys_)
            kernel = commutator_kernel(sys_)
            proj = kernel @ kernel.conj().T
            total = dec.total_basis()
            if total.shape[1]:
                assert np.linalg.norm(total - proj @ total, 2) <= 1e-8

    def test_sector_vectors_satisfy_defining_residuals(self):
        rng = np.random.default_rng(20)
        for k in range(6):
            maker = [commuting_system, subspace_zero_system][k % 2]
            sys_ = maker(2, 4, rng)
            h0 = build_h0(sys_)
            comm = commutator(h0, sys_.h_i)
            hi_scale = max(1.0, np.linalg.norm(sys_.h_i, 2))
            comm_scale = max(1.0, np.linalg.norm(comm, 2))
            for sector in ife_sectors(sys_).sectors:
                shifted = sys_.h_i - sector.alpha * np.eye(8)
                assert np.linalg.norm(shifted @ sector.basis, 2) <= 1e-8 * hi_scale
                assert np.linalg.norm(comm @ sector.basis, 2) <= 1e-8 * comm_scale
                gram = sector.basis.conj().T @ sector.basis
                assert np.abs(gram - np.eye(sector.dimension)).max() <= 1e-10

    def test_one_dimensional_subsystem(self):
        # a trivial factor: sectors reduce to those of the nontrivial side
        sys_ = BipartiteSystem(
            1, 3,
            np.array([[0.7]], dtype=complex),
            np.diag([1.0, 2.0, 3.0]).astype(complex),
            np.diag([0.5, 0.5, -0.5]).astype(complex),
        )
        dec = ife_sectors(sys_)
        assert dec.alphas == pytest.approx((-0.5, 0.5))
        assert [s.dimension for s in dec.sectors] == [1, 2]

    def test_conjugated_commuting_sectors_tile_space(self):
        # the commutator is only roundoff-level nonzero here; the kernel must
        # still be recognized as the whole space
        rng = np.random.default_rng(19)
        sys_ = commuting_system(2, 3, rng, conjugate=True)
        dec = ife_sectors(sys_)
        assert commutator_kernel(sys_).shape[1] == 6
        assert sum(s.dimension for s in dec.sectors) == 6


def coupling_alphas(sys_):
    """Cluster means of ``eigh(H_I)``, the documented source of both routes' alphas."""
    w = np.linalg.eigh(sys_.h_i)[0]
    return cluster_values(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))


def stacked_route_sectors(sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference: the stacked kernel intersection run on every coupling cluster.

    Each cluster's sector is the kernel of ``[(H_I - alpha I); [H_0, H_I]]``,
    each block scaled by ``1 / max(1, sigma_max)``, with numerically zero
    blocks left out.  Both blocks use the cluster-snapped coupling, so a
    cluster's eigenvalue spread below ``CLUSTER_TOL`` counts as zero.
    """
    comm, comm_is_zero = commutator_with_zero_flag(sys_)
    hi_norm = spectral_norm(sys_.h_i)
    h_bar = snapped_coupling(sys_)
    eye = np.eye(sys_.dim)
    out = []
    for alpha in coupling_alphas(sys_):
        shifted = h_bar - alpha * eye
        ops = []
        if spectral_norm(shifted) > NUMERICAL_ZERO_RTOL * max(1.0, hi_norm, abs(alpha)):
            ops.append(shifted)
        if not comm_is_zero:
            ops.append(comm)
        basis = intersect_kernels(ops, rel_tol) if ops else eye.astype(complex)
        if basis.shape[1]:
            out.append((alpha, basis))
    return out


def rank_decisions_well_posed(sys_, rel_tol=DEFAULT_REL_TOL):
    """True when roundoff cannot move a cluster's kernel by more than about 1e-11.

    The stacked constraint of each cluster has its singular values either at
    most a tenth of the block route's cutoff ``rel_tol * sigma_ref`` or at
    least ``1e-5``: the gaps to the other clusters (over ``max(1, a)``) and
    the singular values of the block ``C V_c / max(1, ||C||)``.  Kernel
    dimensions then have a margin of ten on both rank rules (which differ
    by at most sqrt(2)), and a kept subspace is separated from the dropped
    directions by enough that the SVD's roundoff (about 1e-16) turns it by
    at most about 1e-11.  Closer to the cutoff, two correct kernel
    computations may differ in dimension or by large angles: the stack
    mixes ``V_c`` with neighbouring eigenvectors through ``C``, so its
    singular values are not the block's.  Near-commuting couplings at
    strength 1e-11 to 1e-6 are such cases; there the kernels were seen to
    turn apart by up to 1.6e-6.
    """
    comm, comm_is_zero = commutator_with_zero_flag(sys_)
    w, v = np.linalg.eigh(sys_.h_i)
    scale = max(1.0, spectral_norm(comm))
    ranges = core._cluster_ranges(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))
    for alpha, (lo, hi) in zip(coupling_alphas(sys_), ranges):
        a = max(abs(w[0] - alpha), abs(w[-1] - alpha))
        others = np.abs(np.delete(w, np.arange(lo, hi)) - alpha) / max(1.0, a)
        s = others if comm_is_zero else np.concatenate(
            [others, np.linalg.svd(comm @ v[:, lo:hi] / scale, compute_uv=False)])
        cutoff = rel_tol * max(a / max(1.0, a), spectral_norm(comm) / scale)
        if np.any((s > cutoff / 10.0) & (s < 1e-5)):
            return False
    return True


def assert_matches_stacked_route(sys_, rel_tol=DEFAULT_REL_TOL):
    dec = ife_sectors(sys_, rel_tol)
    reference = stacked_route_sectors(sys_, rel_tol)
    assert dec.alphas == tuple(alpha for alpha, _ in reference)
    for sector, (_, basis) in zip(dec.sectors, reference):
        assert sector.dimension == basis.shape[1]
        assert max_principal_angle(sector.basis, basis) <= 1e-10
    return dec


def near_commuting_system(dim_a, dim_b, rng, strength):
    """Commuting system plus a coupling perturbation of the given strength."""
    base = commuting_system(dim_a, dim_b, rng, conjugate=False)
    h_i = base.h_i + strength * random_hermitian(dim_a * dim_b, rng)
    return BipartiteSystem(dim_a, dim_b, base.h_a, base.h_b, h_i)


def near_cutoff_system(k, seed, gap, alpha=0.5, rel_tol=DEFAULT_REL_TOL):
    """System whose coupling cluster at ``alpha`` sits near the kernel cutoff.

    The cluster is the single coupling eigenvector
    ``v = cos(theta) e0 + sin(theta) e1`` over diagonal free parts.  With
    ``v_perp`` the rotated ``e1``, ``[H_0, H_I] v`` is
    ``-(mu1 - mu0) sin(theta) cos(theta) (H_I - alpha) v_perp``, whose norm is
    linear in ``theta`` for small angles; theta is tuned so that
    ``||[H_0, H_I] v|| = 10**k * rel_tol * ||[H_0, H_I]||``.  The rest of the
    coupling has its spectrum at ``alpha + gap`` and above, so
    ``||H_I - alpha I|| >= 1`` and, with ``||[H_0, H_I]|| >= 1``, the block
    route's cutoff is exactly ``rel_tol``: k = 0 sits on it.
    """
    rng = np.random.default_rng(seed)
    h_a, h_b = np.diag([0.0, 1.3]), np.diag([0.0, 0.4, 0.9])
    rest = random_hermitian(5, rng, scale=2.0)
    rest += (alpha + gap - np.linalg.eigvalsh(rest).min()) * np.eye(5)
    e = np.eye(6, dtype=complex)

    def build(theta):
        v = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 1]
        others = np.column_stack([-np.sin(theta) * e[:, 0] + np.cos(theta) * e[:, 1], e[:, 2:]])
        h_i = alpha * np.outer(v, v.conj()) + others @ rest @ others.conj().T
        return BipartiteSystem(2, 3, h_a, h_b, 0.5 * (h_i + h_i.conj().T)), v

    theta = 1e-6
    for _ in range(4):
        sys_, v = build(theta)
        comm = commutator(build_h0(sys_), sys_.h_i)
        theta *= 10.0 ** k * rel_tol * spectral_norm(comm) / np.linalg.norm(comm @ v)
    return build(theta)[0]


class TestEmptinessCertificate:
    """The block-kernel direct route against the stacked intersection.

    The route replaced an emptiness certificate in front of the stacked
    SVD; the class keeps its name so its test ids stay stable.
    """

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from(["commuting", "conjugated", "subspace_zero", "generic", "near"]),
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        strength_exp=st.integers(-14, -2),
    )
    def test_matches_stacked_route(self, family, dims, seed, strength_exp):
        """Same alphas and dimensions, angles <= 1e-10, where the rank decisions are well posed.

        The filter skips every system with a singular value between a
        tenth of the cutoff and 1e-5.  For the ``near`` family that removes
        nearly all draws at strengths 1e-11 to 1e-6, most at 1e-5 and about
        a third at 1e-12; on 40 draws a decade it kept none at 1e-11 to
        1e-6.  The cutoff itself is probed by
        ``test_near_cutoff_cluster_never_dropped``.
        """
        rng = np.random.default_rng(seed)
        if family == "near":
            sys_ = near_commuting_system(*dims, rng, 10.0 ** strength_exp)
        else:
            sys_ = family_system(family, dims, rng)
        assume(rank_decisions_well_posed(sys_))
        assert_matches_stacked_route(sys_)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gap", [2.0, 100.0])
    @pytest.mark.parametrize("k", [-1, -0.3, 0, 1, 2, 3, 4])
    def test_near_cutoff_cluster_never_dropped(self, k, gap, seed):
        sys_ = near_cutoff_system(k, seed, gap)
        if k == 0:
            # on the cutoff: the block route's sigma_ref and the stack's
            # sigma_max differ by up to sqrt(2), so either decision is allowed
            dec = ife_sectors(sys_)
            assert [s.dimension for s in dec.sectors] in ([], [1])
            return
        dec = assert_matches_stacked_route(sys_)
        if k < 0:
            # inside the cutoff: the cluster is kept
            assert dec.alphas == pytest.approx((0.5,))
            assert dec.sectors[0].dimension == 1
        else:
            # outside it: every cluster is dropped
            assert dec.n_sectors == 0

    def test_spin_star_factorizes_one_thin_block_per_cluster(self, monkeypatch):
        p = SpinStarParams(5, 1.0, 0.7, (1.0, 1.37, 1.74, 2.11, 2.48))
        sys_ = build_spin_star(p)
        c_eig = core._commutator(sys_)  # the commutator in the coupling eigenbasis
        matrices = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: matrices.extend(
            np.array(a).reshape(-1, *a.shape[-2:])) or original(a, *args, **kw))
        dec = ife_sectors(sys_)
        clusters = core._coupling_clusters(sys_)
        assert len(clusters) > 1
        # each cluster's d x m block is factorized exactly once, however the calls batch them
        assert len(matrices) == len(clusters)
        scale = max(1.0, float(core._commutator_values(sys_)[0]))
        for _, (lo, hi) in clusters:
            block = c_eig[:, lo:hi] / scale
            assert sum(m.shape == block.shape and np.array_equal(m, block) for m in matrices) == 1
        assert dec.alphas == pytest.approx((0.0,), abs=1e-12)
        assert dec.sectors[0].dimension == 2 * comb(5, 2)

    def test_spin_star_n7(self):
        p = SpinStarParams(7, 1.0, 0.7, tuple(1.0 + 0.37 * i for i in range(7)))
        dec = ife_sectors(build_spin_star(p))
        assert dec.n_sectors == 1
        assert dec.sectors[0].alpha == pytest.approx(0.0, abs=1e-10)
        assert dec.sectors[0].dimension == 70 == 2 * comb(7, 3)
        analytic = spin_star_ife_basis(p).sectors[0].basis
        assert max_principal_angle(analytic, dec.sectors[0].basis) <= 1e-7


class TestEigenbasisRoute:
    """The direct route in the eigenbasis of ``H_I`` against the same route in the product basis."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from(["commuting", "conjugated", "subspace_zero", "generic", "star", "near"]),
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        strength_exp=st.integers(-14, -2),
    )
    def test_matches_product_basis_route(self, family, dims, seed, strength_exp):
        """Same sectors and the same ``classify_pure`` decisions where roundoff cannot decide them."""
        rng = np.random.default_rng(seed)
        if family == "near":
            sys_ = near_commuting_system(*dims, rng, 10.0 ** strength_exp)
        else:
            sys_ = family_system(family, dims, rng)
        assume(rank_decisions_well_posed(sys_))
        dec, reference = ife_sectors(sys_), product_basis_sectors(sys_)
        assert dec.alphas == reference.alphas
        assert dimensions(dec) == dimensions(reference)
        for sector, expected in zip(dec.sectors, reference.sectors):
            assert max_principal_angle(sector.basis, expected.basis) <= 1e-10
        states = [s.basis @ random_state(s.dimension, rng) for s in reference.sectors]
        for psi in [*states, random_state(sys_.dim, rng)]:
            alpha, well_posed = product_basis_classify(psi, sys_)
            if well_posed:
                got = classify_pure(psi, sys_)
                assert (got is None) == (alpha is None)
                if alpha is not None:
                    assert got == pytest.approx(alpha, rel=0.0, abs=1e-12 * max(1.0, abs(alpha)))


class TestSharedFactorization:
    def test_commutator_formed_once_per_system(self, monkeypatch):
        sys_ = subspace_zero_system(2, 3, np.random.default_rng(30))
        product = commutator_with_zero_flag(sys_)[0]
        calls = []
        for name in ("svd", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, name=name, fn=original, **kw: (
                np.shape(a) == (sys_.dim, sys_.dim) and calls.append((name, np.array(a))))
                or fn(a, *args, **kw))
        dec = ife_sectors(sys_)
        oracle = ife_sectors_oracle(sys_)
        assert ife_exists(sys_)
        assert classify_pure(dec.sectors[0].basis[:, 0], sys_) == pytest.approx(0.0, abs=1e-12)
        # every cutoff counts over the same singular values
        ife_sectors(sys_, 1e-9)
        assert ife_exists(sys_, 1e-2)
        kernels = [commutator_kernel(sys_, rel_tol) for rel_tol in (1e-10, 1e-6, 1e-2, 1e-10)]
        c_eig = core._commutator(sys_)
        assert core._commutator(sys_) is c_eig
        # one eigvalsh of i C~ for the values, one eigh for the kernels, and
        # no SVD of the commutator in either basis
        assert [name for name, a in calls if np.array_equal(a, 1j * c_eig)] == ["eigvalsh", "eigh"]
        assert not [name for name, a in calls if name == "svd"
                    and (np.allclose(a, c_eig, atol=1e-12) or np.allclose(a, product, atol=1e-12))]
        assert oracle.dim == dec.dim == sys_.dim
        assert np.array_equal(kernels[0], kernels[3]) and kernels[0] is not kernels[3]

    def test_oracle_shares_the_cached_free_spectrum(self, monkeypatch):
        from ifestates import time_grid, trace_pure_states

        factorized = record_eigensolves(monkeypatch)
        sys_ = subspace_zero_system(2, 3, np.random.default_rng(31))
        psi = np.eye(6, dtype=complex)[:, 0]
        # caches eigh(H) and the spectrum of H_0, built from eigh(h_a) and eigh(h_b)
        trace_pure_states(sys_, psi, time_grid(1.0, 3), alphas=[0.0])
        assert factorized_operators(factorized, sys_) == ["H", "h_a", "h_b"]
        oracle = ife_sectors_oracle(sys_)
        # the oracle adds only the coupling's one factorization
        assert factorized_operators(factorized, sys_) == ["H", "h_a", "h_b", "h_i"]
        assert oracle.sectors and oracle.alphas == pytest.approx(ife_sectors(sys_).alphas)
        _, v0 = core._free_eig(sys_)
        with pytest.raises(ValueError):
            v0[0, 0] = 7.0

    def test_free_hamiltonian_built_once_per_system(self, data_dir, tmp_path, monkeypatch):
        from ifestates.cli import main as cli_main

        built = []
        original = core.build_h0
        monkeypatch.setattr(core, "build_h0", lambda sys_: built.append(sys_) or original(sys_))
        path = data_dir / "system_spin_star_n2.json"
        # only H = H_0 + H_I, factorized once, reads the dense H_0; the spectrum of
        # H_0 and the commutator apply it through h_a and h_b
        assert cli_main(["mixed", str(path), "--samples", "2", "--out", str(tmp_path / "r.json")]) == 0
        assert len(built) == 1
        sys_ = built[0]
        h0, total = build_h0(sys_), build_total(sys_)
        assert h0.flags.writeable and total.flags.writeable
        assert np.array_equal(total, h0 + sys_.h_i)

    def test_coupling_clusters_computed_once_per_system(self, monkeypatch):
        sys_ = subspace_zero_system(2, 3, np.random.default_rng(32))
        clusters = core._coupling_clusters(sys_)
        monkeypatch.setattr(core, "_cluster_ranges", None)
        assert isinstance(clusters, tuple) and core._coupling_clusters(sys_) is clusters
        ife_sectors(sys_)
        core._snapped_spectrum(sys_)
        classify_pure(ife_sectors(sys_).sectors[0].basis[:, 0], sys_)

    def test_operators_are_private_read_only_copies(self):
        h_i = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        sys_ = BipartiteSystem(2, 2, SZ, SZ, h_i)
        h_i[0, 0] = 7.0
        assert sys_.h_i[0, 0] == 1.0
        with pytest.raises(ValueError):
            sys_.h_i[0, 0] = 7.0
        for array, index in ((core._commutator(sys_), (0, 0)), (core._commutator_values(sys_), 0)):
            with pytest.raises(ValueError):
                array[index] = 7.0
        # the kernel is a fresh array: writing to it leaves the cache alone
        kernel = commutator_kernel(sys_)
        kernel[0, 0] = 7.0
        assert commutator_kernel(sys_)[0, 0] == 1.0


class TestOracle:
    def test_zero_coupling(self):
        sys_ = BipartiteSystem(2, 2, SZ, 0.5 * SZ, np.zeros((4, 4)))
        dec = ife_sectors_oracle(sys_)
        assert dec.n_sectors == 1
        assert dec.sectors[0].dimension == 4

    def test_matches_direct_on_random_two_by_two(self):
        rng = np.random.default_rng(9)
        for k in range(10):
            sys_ = [commuting_system, subspace_zero_system, generic_system][k % 3](2, 2, rng)
            direct = ife_sectors(sys_)
            oracle = ife_sectors_oracle(sys_)
            assert direct.n_sectors == oracle.n_sectors
            for s1, s2 in zip(direct.sectors, oracle.sectors):
                assert s1.alpha == pytest.approx(s2.alpha, abs=1e-8)
                assert subspace_equal(s1.basis, s2.basis, 1e-7)

    def test_spin_star_n2(self, star_system_n2):
        dec = ife_sectors_oracle(star_system_n2)
        assert dec.n_sectors == 1
        assert dec.sectors[0].alpha == pytest.approx(0.0, abs=1e-10)
        assert dec.sectors[0].dimension == 4
        assert subspace_equal(dec.sectors[0].basis, brute_force_zero_sector(star_system_n2), 1e-8)


class TestLiteralPowerChain:
    """Third route: the defining intersection with matrix powers written out."""

    @staticmethod
    def literal_sectors(sys_, rel_tol=1e-10):
        h0 = build_h0(sys_)
        nrm = np.linalg.norm(h0, 2)
        h0n = h0 / nrm if nrm > 0 else h0  # scaling leaves every kernel unchanged
        dim = sys_.dim
        alphas = sorted(set(np.round(np.linalg.eigvalsh(sys_.h_i), 9)))
        out = []
        for alpha in alphas:
            shifted = sys_.h_i - alpha * np.eye(dim)
            blocks, power = [], np.eye(dim)
            for _ in range(dim):
                blocks.append(shifted @ power)
                power = power @ h0n
            basis = intersect_kernels(blocks, rel_tol)
            if basis.shape[1]:
                out.append((float(alpha), basis))
        return out

    def test_agrees_with_both_routes(self):
        for k in range(9):
            rng = np.random.default_rng(5000 + k)
            maker = [commuting_system, subspace_zero_system, generic_system][k % 3]
            sys_ = maker(2, 4, rng)
            literal = self.literal_sectors(sys_)
            for dec in (ife_sectors(sys_), ife_sectors_oracle(sys_)):
                assert dec.n_sectors == len(literal)
                for sector, (alpha, basis) in zip(dec.sectors, literal):
                    assert sector.alpha == pytest.approx(alpha, abs=1e-8)
                    assert subspace_equal(sector.basis, basis, 1e-7)


class TestIfeExists:
    def test_zero_coupling(self):
        sys_ = BipartiteSystem(2, 2, SZ, SZ, np.zeros((4, 4)))
        assert ife_exists(sys_)

    def test_generic_system_has_none(self):
        rng = np.random.default_rng(10)
        sys_ = generic_system(2, 3, rng)
        comm = commutator(build_h0(sys_), sys_.h_i)
        # self-check that this draw is genuinely non-singular
        assert np.linalg.svd(comm, compute_uv=False)[-1] > 1e-6
        assert not ife_exists(sys_)

    def test_spin_star_always_allows(self, star_system_n2):
        assert ife_exists(star_system_n2)

    def test_kernel_without_coupling_eigenvector(self):
        # Ker[H_0, H_I] is e_1, which H_I maps to (0.7, -0.2, 0.5): a nontrivial
        # kernel holding no H_I eigenvector, so no IFE state
        sys_ = BipartiteSystem(1, 3, [[0.0]], np.diag([0.0, 0.0, 1.0]),
                               [[0.3, 0.7, 0.0], [0.7, -0.2, 0.5], [0.0, 0.5, 0.9]])
        kernel = commutator_kernel(sys_)
        assert kernel.shape == (3, 1) and abs(abs(kernel[0, 0]) - 1.0) < 1e-12
        assert ife_sectors(sys_).n_sectors == ife_sectors_oracle(sys_).n_sectors == 0
        assert not ife_exists(sys_)

    def test_agrees_with_sectors(self):
        rng = np.random.default_rng(11)
        for k in range(12):
            maker = [commuting_system, subspace_zero_system, generic_system][k % 3]
            sys_ = maker(2, 3, rng)
            assert ife_exists(sys_) == (ife_sectors(sys_).n_sectors > 0)


class TestClassifyPure:
    def test_spin_star_top_state(self, star_system_n2):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0  # |+, up up>
        assert classify_pure(psi, star_system_n2) == pytest.approx(0.0, abs=1e-12)

    def test_haar_random_state_rejected(self, star_system_n2):
        rng = np.random.default_rng(12)
        assert classify_pure(random_state(8, rng), star_system_n2) is None

    def test_coupling_eigenvector_outside_kernel(self, star_system_n2):
        # an eigenvector at nonzero alpha fails the commutator condition
        w, v = np.linalg.eigh(star_system_n2.h_i)
        psi = v[:, -1]
        assert w[-1] > 1.0
        comm = commutator(build_h0(star_system_n2), star_system_n2.h_i)
        assert np.linalg.norm(comm @ psi) > 1e-3
        assert classify_pure(psi, star_system_n2) is None

    def test_nonzero_alpha_sector_member(self):
        rng = np.random.default_rng(13)
        sys_ = diagonal_multisector_system(rng)
        dec = ife_sectors(sys_)
        sector = dec.sectors[-1]
        alpha = classify_pure(sector.basis[:, 0], sys_)
        assert alpha == pytest.approx(sector.alpha, abs=1e-9)

    def test_rejects_unnormalized(self, star_system_n2):
        with pytest.raises(ValueError, match="not normalized"):
            classify_pure(np.ones(8), star_system_n2)

    def test_rejects_wrong_dimension(self, star_system_n2):
        with pytest.raises(ValueError, match="dimension"):
            classify_pure(np.ones(4) / 2.0, star_system_n2)


class TestEvolutionIdentity:
    times = np.linspace(0.0, 10.0, 101)

    def deviation(self, sys_, psi, alpha):
        h = build_total(sys_)
        h0 = build_h0(sys_)
        worst = 0.0
        for t in self.times[::10]:
            full = propagator(h, t) @ psi
            free = np.exp(-1j * alpha * t) * (propagator(h0, t) @ psi)
            worst = max(worst, np.linalg.norm(full - free))
        return worst

    def test_forward_for_sector_vectors(self):
        rng = np.random.default_rng(14)
        for maker in (commuting_system, subspace_zero_system):
            sys_ = maker(2, 3, rng)
            for sector in ife_sectors(sys_).sectors:
                for j in range(sector.dimension):
                    dev = self.deviation(sys_, sector.basis[:, j], sector.alpha)
                    assert dev <= 1e-9 * np.sqrt(sys_.dim)

    def test_converse_deviation_for_orthogonal_states(self, star_system_n2):
        # statistical check: states orthogonal to every sector must deviate
        rng = np.random.default_rng(15)
        total = ife_sectors(star_system_n2).total_basis()
        proj = total @ total.conj().T
        for _ in range(5):
            psi = random_state(8, rng)
            psi = psi - proj @ psi
            psi /= np.linalg.norm(psi)
            assert self.deviation(star_system_n2, psi, 0.0) > 1e-3

    def test_phase_freedom_at_nonzero_alpha(self):
        rng = np.random.default_rng(16)
        sys_ = diagonal_multisector_system(rng)
        dec = ife_sectors(sys_)
        sector = next(s for s in dec.sectors if abs(s.alpha) > 0.1)
        psi = sector.basis[:, 0]
        h = build_total(sys_)
        h0 = build_h0(sys_)
        for t in (0.3, 1.7, 9.2):
            overlap = np.vdot(propagator(h0, t) @ psi, propagator(h, t) @ psi)
            assert abs(overlap - np.exp(-1j * sector.alpha * t)) <= 1e-9


class TestCommutatorKernelInvarianceProbe:
    def test_probe_reports_only(self):
        # open question: is Ker[H_0,H_I] invariant under H_0 and H_I?
        # report candidates, never assert
        rng = np.random.default_rng(17)
        candidates = []
        for k in range(20):
            maker = [commuting_system, subspace_zero_system, generic_system][k % 3]
            sys_ = maker(2, 3, rng)
            kernel = commutator_kernel(sys_)
            if kernel.shape[1] in (0, sys_.dim):
                continue
            proj = kernel @ kernel.conj().T
            eye = np.eye(sys_.dim)
            for name, op in (("h0", build_h0(sys_)), ("h_i", sys_.h_i)):
                leak = np.linalg.norm((eye - proj) @ op @ kernel, 2)
                if leak > 1e-8 * max(1.0, np.linalg.norm(op, 2)):
                    candidates.append((k, name, float(leak)))
        if candidates:
            warnings.warn(
                f"commutator kernel not invariant in {len(candidates)} cases: "
                f"{candidates[:3]}",
                stacklevel=1,
            )


def free_eigenspaces(sys_):
    """Eigenvector blocks V0_k of H_0, clustered as in the oracle."""
    w0, v0 = np.linalg.eigh(build_h0(sys_))
    ranges = core._cluster_ranges(w0, CLUSTER_TOL * max(1.0, float(np.abs(w0).max())))
    return [v0[:, lo:hi] for lo, hi in ranges]


def oracle_stack(sys_, alpha):
    """The stacked matrix ``[(H_I - alpha) P_k / s_k]_k`` that the oracle avoids forming."""
    shifted = snapped_coupling(sys_) - alpha * np.eye(sys_.dim)
    return np.vstack([
        shifted @ v @ v.conj().T / max(1.0, spectral_norm(shifted @ v)) for v in free_eigenspaces(sys_)
    ])


def stacked_projector_sectors(sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference: the oracle as a stacked kernel of every ``(H_I - alpha) P_k``.

    ``H_I`` is the cluster-snapped coupling, as in the oracle.
    """
    projectors = [v @ v.conj().T for v in free_eigenspaces(sys_)]
    hi_norm = spectral_norm(sys_.h_i)
    h_bar = snapped_coupling(sys_)
    eye = np.eye(sys_.dim)
    out = []
    for alpha in coupling_alphas(sys_):
        shifted = h_bar - alpha * eye
        if spectral_norm(shifted) <= NUMERICAL_ZERO_RTOL * max(1.0, hi_norm, abs(alpha)):
            basis = eye.astype(complex)
        else:
            basis = intersect_kernels([shifted @ p for p in projectors], rel_tol)
        if basis.shape[1]:
            out.append((alpha, basis))
    return out


def oracle_near_cutoff_system(k, seed, gap, alpha=0.5, rel_tol=DEFAULT_REL_TOL):
    """Nondegenerate ``H_0`` with a coupling eigenvector near ``e0`` at ``alpha``.

    The coupling eigenvector ``v = cos(theta) e0 + sin(theta) e1`` leaves
    the first eigenspace of ``H_0`` by an angle ``theta``; theta is tuned so
    that the stacked oracle matrix has ``sigma_min / sigma_max = 10**k rel_tol``,
    which puts the sector's one direction just inside (k < 0) or just
    outside (k > 0) the kernel cutoff.
    """
    rng = np.random.default_rng(seed)
    h_a, h_b = np.diag([0.0, 1.3]), np.diag([0.0, 0.4, 0.9])
    rest = random_hermitian(5, rng, scale=2.0)
    rest += (alpha + gap - np.linalg.eigvalsh(rest).min()) * np.eye(5)
    e = np.eye(6, dtype=complex)

    def build(theta):
        v = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, 1]
        others = np.column_stack([-np.sin(theta) * e[:, 0] + np.cos(theta) * e[:, 1], e[:, 2:]])
        h_i = alpha * np.outer(v, v.conj()) + others @ rest @ others.conj().T
        return BipartiteSystem(2, 3, h_a, h_b, 0.5 * (h_i + h_i.conj().T))

    theta = 1e-6
    for _ in range(4):
        s = np.linalg.svd(oracle_stack(build(theta), alpha), compute_uv=False)
        theta *= 10.0 ** k * rel_tol * s[0] / s[-1]
    return build(theta)


class TestBlockDiagonalOracle:
    """The oracle takes one thin SVD per H_0 eigenspace instead of the stack."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from(["conjugated", "commuting", "subspace_zero", "generic", "star"]),
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stacked_projector_route(self, family, dims, seed):
        rng = np.random.default_rng(seed)
        if family == "star":
            sys_ = star_system(1 + seed % 4, rng)
        elif family in ("commuting", "conjugated"):
            sys_ = commuting_system(*dims, rng, conjugate=family == "conjugated")
        else:
            sys_ = {"subspace_zero": subspace_zero_system, "generic": generic_system}[family](*dims, rng)
        dec = ife_sectors_oracle(sys_)
        reference = stacked_projector_sectors(sys_)
        assert dec.alphas == tuple(alpha for alpha, _ in reference)
        for sector, (_, basis) in zip(dec.sectors, reference):
            assert sector.dimension == basis.shape[1]
            assert max_principal_angle(sector.basis, basis) <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_block_singular_values_are_those_of_the_stack(self, seed):
        rng = np.random.default_rng(700 + seed)
        maker = [commuting_system, subspace_zero_system, generic_system][seed % 3]
        sys_ = maker(*DIM_PAIRS[seed], rng)
        blocks = free_eigenspaces(sys_)
        h_bar = snapped_coupling(sys_)
        for alpha in coupling_alphas(sys_):
            shifted = h_bar - alpha * np.eye(sys_.dim)
            union = np.concatenate([
                np.linalg.svd(shifted @ v, compute_uv=False) / max(1.0, spectral_norm(shifted @ v))
                for v in blocks
            ])
            want = np.linalg.svd(oracle_stack(sys_, alpha), compute_uv=False)
            assert union.size == want.size == sys_.dim
            assert np.allclose(np.sort(union), np.sort(want), rtol=0.0, atol=1e-12 * want[0])

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("gap", [2.0, 100.0])
    @pytest.mark.parametrize("k", [-1, -0.3, 0.3, 1])
    def test_global_cutoff_near_the_boundary(self, k, gap, seed):
        sys_ = oracle_near_cutoff_system(k, seed, gap)
        dec = ife_sectors_oracle(sys_)
        reference = stacked_projector_sectors(sys_)
        assert dec.alphas == tuple(alpha for alpha, _ in reference)
        assert [s.dimension for s in dec.sectors] == [b.shape[1] for _, b in reference]
        if k < 0:
            assert dec.alphas == pytest.approx((0.5,)) and dec.sectors[0].dimension == 1
        else:
            assert dec.n_sectors == 0

    def test_never_factorizes_more_than_d_rows(self, monkeypatch):
        shapes = []
        original = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or original(a, *args, **kw),
        )
        rng = np.random.default_rng(41)
        for sys_ in (star_system(3, rng), commuting_system(2, 4, rng), subspace_zero_system(3, 3, rng)):
            shapes.clear()
            dec = ife_sectors_oracle(sys_)
            assert dec.n_sectors > 0
            # a batched call factorizes a stack of matrices with shape[-2] rows each
            assert shapes and max(shape[-2] for shape in shapes) <= sys_.dim

    def test_bases_never_use_the_commutator(self, monkeypatch):
        def forbidden(*_):
            raise AssertionError("the oracle formed [H_0, H_I]")

        monkeypatch.setattr(core, "_commutator", forbidden)
        systems = [
            [commuting_system, subspace_zero_system, generic_system][k % 3](2, 4, np.random.default_rng(5000 + k))
            for k in range(9)
        ]
        systems.append(star_system(2, np.random.default_rng(42)))
        for sys_ in systems:
            literal = TestLiteralPowerChain.literal_sectors(sys_)
            dec = ife_sectors_oracle(sys_)
            assert dec.n_sectors == len(literal)
            for sector, (alpha, basis) in zip(dec.sectors, literal):
                assert sector.alpha == pytest.approx(alpha, abs=1e-8)
                assert subspace_equal(sector.basis, basis, 1e-7)


class TestCouplingCache:
    """eigh(H_I) is the only factorization of the coupling, once per system."""

    def test_each_coupling_factorization_runs_once(self, monkeypatch):
        sys_ = subspace_zero_system(2, 3, np.random.default_rng(30))
        calls = []

        def counting(name, fn):
            return lambda a, *args, **kw: (a is sys_.h_i and calls.append(name)) or fn(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        dec = ife_sectors(sys_)
        ife_sectors_oracle(sys_)
        classify_pure(dec.sectors[0].basis[:, 0], sys_)
        assert calls == ["eigh"]

    def test_spin_star_claims_take_no_svd_of_the_coupling(self, monkeypatch):
        params = SpinStarParams(2, 1.0, 0.7, (3.0, 4.0))
        h_i = build_spin_star(params).h_i
        calls = []

        def counting(name, fn):
            return lambda a, *args, **kw: (np.array_equal(a, h_i) and calls.append(name)) or fn(a, *args, **kw)

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        claims = verify_spin_star_claims(params)
        assert all(c.passed for c in claims)
        assert calls == ["eigh"]

    def test_cached_values_are_read_only_and_unchanged(self):
        sys_ = subspace_zero_system(3, 3, np.random.default_rng(31))
        ife_sectors(sys_)
        w, v = core._coupling_eig(sys_)
        fresh_w, fresh_v = np.linalg.eigh(sys_.h_i)
        assert np.array_equal(w, fresh_w) and np.array_equal(v, fresh_v)
        assert core._coupling_norm(sys_) == float(np.abs(w).max())
        assert core._coupling_norm(sys_) == pytest.approx(spectral_norm(sys_.h_i), rel=1e-12)
        clusters = core._coupling_clusters(sys_)
        assert [alpha for alpha, _ in clusters] == coupling_alphas(sys_)
        assert [w[lo:hi].mean() for _, (lo, hi) in clusters] == coupling_alphas(sys_)
        for array in (w, v):
            with pytest.raises(ValueError):
                array[0] = 7.0

    def test_oracle_diff_cli_factorizes_the_coupling_once(self, data_dir, tmp_path, monkeypatch):
        from ifestates.cli import main as cli_main

        h_i = build_spin_star(SpinStarParams(2, 1.0, 0.7, (3.0, 4.0))).h_i
        calls = []

        def counting(name, fn):
            return lambda a, *args, **kw: (np.array_equal(a, h_i) and calls.append(name)) or fn(a, *args, **kw)

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        path = data_dir / "system_spin_star_n2.json"
        assert cli_main(["oracle-diff", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert calls == ["eigh"]


def dimensions(dec):
    return [s.dimension for s in dec.sectors]


def mixing_split_system(split, seed, alpha=0.5):
    """A coupling degeneracy split by ``split`` whose eigenvectors mix eigenspaces of H_0.

    On ``span{e0, e1}`` (free energies 0 and 0.4) the coupling has
    eigenvalues ``alpha`` and ``alpha + split`` with rotated eigenvectors,
    so ``[H_0, H_I]`` mixes ``e0`` and ``e1`` at order ``split``; a generic
    coupling on the rest keeps the commutator well away from zero.
    """
    rng = np.random.default_rng(seed)
    pair = random_unitary(2, rng)
    h_i = np.zeros((6, 6), dtype=complex)
    h_i[:2, :2] = (pair * [alpha, alpha + split]) @ pair.conj().T
    rest = random_hermitian(4, rng)
    h_i[2:, 2:] = rest + (alpha + 2.0 - np.linalg.eigvalsh(rest).min()) * np.eye(4)
    return BipartiteSystem(2, 3, np.diag([0.0, 1.3]), np.diag([0.0, 0.4, 0.9]), h_i)


ROUTES = pytest.mark.parametrize("route", [ife_sectors, ife_sectors_oracle])


def unpruned_sectors(sys_, rel_tol=DEFAULT_REL_TOL):
    """Reference: the principal-angle oracle's rank rule on every pair, no pruning.

    Each eigenspace ``V0_k`` of ``H_0`` takes one SVD of
    ``(H_bar_I - alpha I) V0_k`` and keeps the directions at or below
    ``max(rel_tol * min(1, a), NUMERICAL_ZERO_RTOL * a)``,
    ``a = ||H_bar_I - alpha I||``.  Returns the sectors and whether every
    decision is well posed: no singular value within a factor of ten of its
    cutoff.
    """
    alphas = coupling_alphas(sys_)
    h_bar = snapped_coupling(sys_)
    out, well_posed = [], True
    for alpha in alphas:
        a = max(alpha - alphas[0], alphas[-1] - alpha)
        if a <= NUMERICAL_ZERO_RTOL * max(1.0, spectral_norm(sys_.h_i), abs(alpha)):
            out.append((alpha, np.eye(sys_.dim, dtype=complex)))
            continue
        cutoff = max(rel_tol * min(1.0, a), NUMERICAL_ZERO_RTOL * a)
        kernels = []
        for v0 in free_eigenspaces(sys_):
            _, s, vh = np.linalg.svd((h_bar - alpha * np.eye(sys_.dim)) @ v0, full_matrices=False)
            well_posed &= not np.any((s > cutoff / 10) & (s < 10 * cutoff))
            kernels.append(v0 @ vh[np.sum(s > cutoff):].conj().T)
        basis = np.hstack(kernels)
        if basis.shape[1]:
            out.append((alpha, basis))
    return out, well_posed


def tilted_direction_system(gap_factor, k, alpha=0.5, rel_tol=DEFAULT_REL_TOL):
    """A coupling eigenvector ``cos(theta) e0 + sin(theta) e2`` at ``alpha``, ``e0`` in a degenerate eigenspace.

    ``H_0 = diag(0, 0, 0.9, 1.3, 1.3, 2.2)``, so the one-row cluster at
    ``alpha`` meets the two-column eigenspace ``{e0, e1}``.  The partner
    ``-sin(theta) e0 + cos(theta) e2`` is the nearest other cluster,
    ``gap = gap_factor * CLUSTER_TOL * ||H_I||`` above it; the coupling is
    ``alpha + 2, ..., alpha + 3.5`` on ``e1, e3, e4, e5``, so
    ``||H_I|| = alpha + 3.5``, ``a = 3.5`` and the cutoff is ``rel_tol``.  The residual of ``e0`` is ``gap * sin(theta)``, set
    to ``10**k`` times the cutoff: for ``k < 0`` ``e0`` spans the sector at
    ``alpha`` with a sine near ``cutoff / gap``, the widest the Frobenius
    pruning has to admit.
    """
    gap = gap_factor * CLUSTER_TOL * (alpha + 3.5)
    theta = np.arcsin(10.0**k * rel_tol / gap)
    h_i = np.diag(alpha + np.array([0.0, 2.0, gap, 2.5, 3.0, 3.5])).astype(complex)
    rot = np.eye(6)
    rot[np.ix_([0, 2], [0, 2])] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    return BipartiteSystem(2, 3, np.diag([0.0, 1.3]), np.diag([0.0, 0.0, 0.9]), rot @ h_i @ rot.T)


class TestPrincipalAngleOracle:
    """The oracle reads every cluster-eigenspace pair off ``G = V^H V0`` and prunes by Frobenius norm."""

    @pytest.mark.parametrize("chunk", range(10))
    def test_matches_per_eigenspace_reference_near_commuting(self, chunk):
        for seed in range(30 * chunk, 30 * chunk + 30):
            rng = np.random.default_rng(9000 + seed)
            sys_ = conjugated_near_commuting_system(
                *DIM_PAIRS[seed % len(DIM_PAIRS)], rng, 10.0 ** rng.uniform(-12, -10))
            dec, reference = ife_sectors_oracle(sys_), per_eigenspace_oracle(sys_)
            assert dec.alphas == reference.alphas
            assert dimensions(dec) == dimensions(reference)
            for s1, s2 in zip(dec.sectors, reference.sectors):
                assert max_principal_angle(s1.basis, s2.basis) <= 1e-8

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_agrees_with_direct_route_at_large_coupling(self, scale):
        # a conjugated commuting system: the residuals of true sector
        # directions grow with ||H_bar_I - alpha||, and so must the cutoff
        for seed in range(20):
            rng = np.random.default_rng(9500 + seed)
            base = commuting_system(*DIM_PAIRS[seed % len(DIM_PAIRS)], rng)
            sys_ = BipartiteSystem(base.dim_a, base.dim_b, base.h_a, base.h_b, scale * base.h_i)
            dec, direct = ife_sectors_oracle(sys_), ife_sectors(sys_)
            assert dec.alphas == direct.alphas
            assert dimensions(dec) == dimensions(direct)
            for s1, s2 in zip(dec.sectors, direct.sectors):
                assert max_principal_angle(s1.basis, s2.basis) <= 1e-8

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        family=FAMILIES,
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        rel_tol=st.sampled_from([1e-10, 1e-6, 1e-2]),
    )
    def test_pruning_drops_no_direction_of_the_rank_rule(self, family, dims, seed, rel_tol):
        # the larger rel_tol, the fewer blocks the Frobenius norm can rule out
        sys_ = family_system(family, dims, np.random.default_rng(seed))
        reference, well_posed = unpruned_sectors(sys_, rel_tol)
        assume(well_posed)
        dec = ife_sectors_oracle(sys_, rel_tol)
        assert dec.alphas == tuple(alpha for alpha, _ in reference)
        assert dimensions(dec) == [basis.shape[1] for _, basis in reference]
        for sector, (_, basis) in zip(dec.sectors, reference):
            assert max_principal_angle(sector.basis, basis) <= 1e-8

    @pytest.mark.parametrize("gap_factor", [10, 100, 1000])
    @pytest.mark.parametrize("k", [-0.1, 0.1])
    def test_pruning_admits_a_direction_just_inside_the_cutoff(self, gap_factor, k):
        sys_ = tilted_direction_system(gap_factor, k)
        w = np.linalg.eigvalsh(sys_.h_i)
        assert w[1] - w[0] == pytest.approx(gap_factor * CLUSTER_TOL * abs(w).max(), rel=1e-6)
        assert np.array_equal(np.diag(build_h0(sys_)), [0.0, 0.0, 0.9, 1.3, 1.3, 2.2])
        dec = ife_sectors_oracle(sys_)
        at_alpha = [s for s in dec.sectors if s.alpha == pytest.approx(0.5, abs=1e-12)]
        if k < 0:
            assert len(at_alpha) == 1 and at_alpha[0].dimension == 1
            assert max_principal_angle(at_alpha[0].basis, np.eye(6)[:, :1]) <= 1e-12
        else:
            assert at_alpha == []
        reference, _ = unpruned_sectors(sys_)
        assert dec.alphas == tuple(alpha for alpha, _ in reference)
        assert dimensions(dec) == [basis.shape[1] for _, basis in reference]

    def test_pruning_admits_every_block_when_the_cutoff_exceeds_the_gap(self):
        # H_0 = 0 is one eigenspace of dimension 3 against clusters of one row;
        # at rel_tol = 0.5 the clusters at 0.5 and 0.501 each keep the
        # other's eigenvector (residual 1e-3) too.
        sys_ = BipartiteSystem(1, 3, np.zeros((1, 1)), np.zeros((3, 3)), np.diag([0.5, 0.501, 3.0]))
        dec = ife_sectors_oracle(sys_, rel_tol=0.5)
        reference, _ = unpruned_sectors(sys_, rel_tol=0.5)
        assert dimensions(dec) == [basis.shape[1] for _, basis in reference] == [2, 2, 1]
        for sector, (_, basis) in zip(dec.sectors, reference):
            assert max_principal_angle(sector.basis, basis) <= 1e-12

    def test_one_svd_call_per_eigenspace_size(self, monkeypatch):
        sys_ = build_spin_star(SpinStarParams(5, 1.0, 1.3, (1.0, 1.1, 1.2, 1.25, 1.3)))
        shapes = []
        original = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or original(a, *args, **kw),
        )
        per_eigenspace_oracle(sys_)
        per_pair = len(shapes)
        shapes.clear()
        dec = ife_sectors_oracle(sys_)
        assert dec.alphas == pytest.approx((0.0,)) and dimensions(dec) == [2 * comb(5, 2)]
        # one batched call of d x n residuals per eigenspace size n
        assert len(shapes) == len({shape[-2:] for shape in shapes})
        assert all(shape[-2] == sys_.dim for shape in shapes)
        assert per_pair >= 90 and len(shapes) <= per_pair // 10


class TestFreeNorm:
    @settings(max_examples=60, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_is_the_sum_of_the_subsystem_norms(self, family, dims, seed):
        sys_ = family_system(family, dims, np.random.default_rng(seed))
        value = core._free_norm(sys_)
        # both sides carry the backward error of a dense eigensolver or SVD,
        # O(d eps) of the subsystem scale
        scale = spectral_norm(sys_.h_a) + spectral_norm(sys_.h_b)
        tol = 4 * sys_.dim * np.finfo(float).eps * scale
        assert abs(value - scale) <= tol
        # an upper bound on ||H_0||, which may be 0 up to roundoff
        assert spectral_norm(build_h0(sys_)) <= value + tol


class TestFreeSpectrumFromFactors:
    """The spectrum of ``H_0``, built from ``eigh(h_a)`` and ``eigh(h_b)``, against a dense ``eigh``."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(family=st.sampled_from(["commuting", "conjugated", "subspace_zero", "generic", "star",
                                   "commuting_4x32"]),
           dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_eigensolve(self, family, dims, seed):
        rng = np.random.default_rng(seed)
        if family == "commuting_4x32":
            sys_ = commuting_system(4, 32, rng)
        else:
            sys_ = family_system(family, dims, rng)
        w0, v0 = core._free_eig(sys_)
        h0 = build_h0(sys_)
        w_ref, v_ref = np.linalg.eigh(h0)
        scale = max(1.0, spectral_norm(sys_.h_a) + spectral_norm(sys_.h_b))
        assert np.all(np.diff(w0) >= 0)
        assert np.abs(w0 - w_ref).max() <= 1e-13 * scale
        assert np.abs(v0.conj().T @ v0 - np.eye(sys_.dim)).max() <= 1e-13
        assert spectral_norm(h0 @ v0 - v0 * w0) <= 1e-13 * scale
        tol = CLUSTER_TOL * max(1.0, float(np.abs(w0).max()))
        spaces = core._cluster_ranges(w0, tol)
        assert spaces == core._cluster_ranges(w_ref, tol)
        for lo, hi in spaces:
            projector = v0[:, lo:hi] @ v0[:, lo:hi].conj().T
            reference = v_ref[:, lo:hi] @ v_ref[:, lo:hi].conj().T
            assert np.abs(projector - reference).max() <= 1e-10

    def test_exact_ties_keep_kronecker_order(self):
        # e = f = (0, 1), with f_0 the eigenvalue of |1> and f_1 that of |0>:
        # e_0 + f_1 and e_1 + f_0 tie at exactly 1
        sys_ = BipartiteSystem(2, 2, np.diag([0.0, 1.0]), np.diag([1.0, 0.0]), np.zeros((4, 4)))
        w0, v0 = core._free_eig(sys_)
        assert w0.tolist() == [0.0, 1.0, 1.0, 2.0]
        # (i, j) = (0, 1), the product state |0>|0>, before (1, 0), the state |1>|1>
        assert np.array_equal(np.abs(v0[:, 1:3]), np.eye(4)[:, [0, 3]])

    def test_no_command_factorizes_the_dense_free_hamiltonian(self, tmp_path, monkeypatch):
        from ifestates import random_ife_mixed
        from ifestates.cli import main as cli_main
        from ifestates.mixed import _uses_frequencies
        from ifestates.serialize import save_density_matrix, save_system

        star_args = ["--n", "3", "--omega0", "1.0", "--omega", "0.4", "--gammas", "1.0,1.2,1.4"]
        star = build_spin_star(SpinStarParams(3, 1.0, 0.4, (1.0, 1.2, 1.4)))
        commuting = commuting_system(4, 32, np.random.default_rng(7))
        assert _uses_frequencies(commuting, 101)  # the mixed deviation's frequency form runs too
        factorized = record_eigensolves(monkeypatch)
        out = str(tmp_path / "report.json")
        assert cli_main(["spin-star", *star_args, "--check-all", "--out", out]) == 0
        for name, sys_ in (("star", star), ("commuting", commuting)):
            path, rho_path = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}_rho.json")
            save_system(sys_, path)
            dec = ife_sectors(sys_)
            save_density_matrix(random_ife_mixed(dec, np.full(dec.n_sectors, 1.0 / dec.n_sectors), 3),
                                rho_path)
            for args in (["sectors", path], ["oracle-diff", path],
                         ["verify", path, "--sector", "0", "--steps", "5"],
                         ["verify", path, "--state", rho_path], ["mixed", path, "--samples", "2"],
                         ["mixed", path, "--state", rho_path]):
                assert cli_main([*args, "--out", out]) == 0, args
        assert len(factorized) > 10
        assert "H_0" not in factorized_operators(factorized, star) + factorized_operators(factorized, commuting)


def cancelling_commuting_system(scale=1e4):
    """A conjugated commuting system with ``h_a = -I`` and ``h_b = I``, every matrix times ``scale``.

    ``H_0`` cancels to roundoff, but ``[H_0, H_I]`` keeps roundoff of about
    ``eps (||h_a|| + ||h_b||) ||H_I||``: ``||C|| = 9.9e-8`` at ``scale = 1e4``.
    """
    base = commuting_system(2, 2, np.random.default_rng(250))
    return BipartiteSystem(2, 2, scale * base.h_a, scale * base.h_b, scale * base.h_i)


class TestCommutatorZeroThreshold:
    """``[H_0, H_I]`` is zero below ``1e-12 * 2 (||h_a|| + ||h_b||) ||H_I||``, which never cancels."""

    def test_cancelling_free_part_keeps_every_sector(self, tmp_path):
        from ifestates.cli import main as cli_main
        from ifestates.serialize import save_system

        sys_ = cancelling_commuting_system()
        assert np.allclose(sys_.h_a, -1e4 * np.eye(2), atol=1e-8)
        assert np.allclose(sys_.h_b, 1e4 * np.eye(2), atol=1e-8)
        threshold = NUMERICAL_ZERO_RTOL * 2.0 * core._free_norm(sys_) * core._coupling_norm(sys_)
        assert 1e-8 < core._commutator_values(sys_)[0] < 1e-6 and threshold == pytest.approx(8.0e-4, rel=1e-9)
        assert core._commutator_is_zero(sys_) and commutator_with_zero_flag(sys_)[1]
        direct, oracle = ife_sectors(sys_), ife_sectors_oracle(sys_)
        assert direct.alphas == oracle.alphas == pytest.approx((-2e4, -1e4, 1e4))
        assert dimensions(direct) == dimensions(oracle) == [2, 1, 1]
        assert commutator_kernel(sys_).shape[1] == 4
        path = tmp_path / "cancel.json"
        save_system(sys_, path)
        assert cli_main(["oracle-diff", str(path), "--out", str(tmp_path / "r.json")]) == 0


def assert_same_decomposition(dec, reference):
    assert dec.alphas == reference.alphas and dec.dim == reference.dim
    assert dimensions(dec) == dimensions(reference)
    for sector, expected in zip(dec.sectors, reference.sectors):
        assert_same_bits(sector.basis, expected.basis)


def assert_matches_per_cluster_reference(sys_):
    """Zero flag, kernel dimension and sector bases as in the route that always runs ``eigvalsh``."""
    is_zero, kernel_dimension, reference = per_cluster_sectors(sys_)
    assert core._commutator_is_zero(sys_) == is_zero
    assert core._commutator_kernel_dimension(sys_, DEFAULT_REL_TOL) == kernel_dimension
    assert_same_decomposition(ife_sectors(sys_), reference)
    return is_zero


class TestFrobeniusZeroTest:
    """``||C~||_F`` within the zero threshold settles ``is_zero`` with no eigensolve of ``i C~``.

    Every answer equals the reference that always runs ``eigvalsh(i C~)``
    and takes one SVD per cluster (``helpers.per_cluster_sectors``), bit
    for bit, also where the clusters' SVDs are batched by width.
    """

    @settings(max_examples=80, deadline=None, database=None)
    @given(family=st.sampled_from(["commuting", "conjugated", "subspace_zero", "generic", "star", "near"]),
           dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           strength_exp=st.floats(-12.0, -10.0))
    def test_matches_eigvalsh_reference(self, family, dims, seed, strength_exp):
        rng = np.random.default_rng(seed)
        if family == "near":
            sys_ = conjugated_near_commuting_system(*dims, rng, 10.0 ** strength_exp)
        else:
            sys_ = family_system(family, dims, rng)
        assert_matches_per_cluster_reference(sys_)

    def test_fixed_near_commuting_draw(self):
        # 300 systems straddling the zero threshold: both branches are taken
        rng = np.random.default_rng(2024)
        zero = 0
        for i in range(300):
            dims = DIM_PAIRS[i % len(DIM_PAIRS)]
            sys_ = conjugated_near_commuting_system(*dims, rng, 10 ** rng.uniform(-12, -10))
            zero += assert_matches_per_cluster_reference(sys_)
        assert 0 < zero < 300

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stars_batch_bit_identical(self, n):
        sys_ = star_system(n, np.random.default_rng(60 + n))
        assert not assert_matches_per_cluster_reference(sys_)
        assert len({hi - lo for _, (lo, hi) in core._coupling_clusters(sys_)}) > 1

    def test_zero_commutator_takes_no_eigensolve(self, monkeypatch):
        sys_ = commuting_system(2, 4, np.random.default_rng(61))
        calls = record_eigensolves(monkeypatch)
        dec = ife_sectors(sys_)
        assert ife_exists(sys_) and commutator_kernel(sys_).shape == (8, 8)
        assert classify_pure(dec.sectors[0].basis[:, 0], sys_) == pytest.approx(dec.alphas[0])
        c_eig = core._commutator(sys_)
        assert core._commutator_is_zero(sys_) and np.linalg.norm(c_eig) > 0.0
        assert factorized_operators(calls, sys_) == ["h_i", "h_a", "h_b"]
        # the singular values are still there to read, computed once on demand
        s = core._commutator_values(sys_)
        assert s is core._commutator_values(sys_)
        assert len(calls) == 4 and np.array_equal(calls[3], 1j * c_eig)


class TestCommutatorKernel:
    """One ``eigvalsh`` of ``i C~`` decides the rank; the vectors come from one ``eigh`` on demand."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           rel_tol=st.sampled_from([1e-10, 1e-6, 1e-2]))
    def test_every_reading_of_the_kernel_agrees(self, family, dims, seed, rel_tol):
        from ifestates.cli import main as cli_main
        from ifestates.serialize import save_system

        sys_ = family_system(family, dims, np.random.default_rng(seed))
        kernel = commutator_kernel(sys_, rel_tol)
        is_zero, s = core._commutator_is_zero(sys_), core._commutator_values(sys_)
        product, product_is_zero = commutator_with_zero_flag(sys_)
        assert is_zero == product_is_zero
        rank = 0 if is_zero else int(np.sum(s > rel_tol * s[0]))
        assert kernel.shape == (sys_.dim, sys_.dim - rank)
        # existence is a sector, which lies in the kernel; a nontrivial kernel
        # alone is not enough, since its vectors need not be H_I eigenvectors
        assert ife_exists(sys_, rel_tol) == (ife_sectors(sys_, rel_tol).n_sectors > 0)
        assert rank < sys_.dim or not ife_exists(sys_, rel_tol)
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "system.json", Path(tmp) / "r.json"
            save_system(sys_, path)
            cli_main(["sectors", str(path), "--tol", repr(rel_tol), "--out", str(out)])
            assert json.loads(out.read_text())["commutator_kernel_dimension"] == kernel.shape[1]
        reference = np.eye(sys_.dim) if product_is_zero else null_space(product, rel_tol)
        assert reference.shape == kernel.shape
        assert max_principal_angle(kernel, reference) <= 1e-12
        for route in (ife_sectors, ife_sectors_oracle):
            total = route(sys_, rel_tol).total_basis()
            assert spectral_norm(total - kernel @ (kernel.conj().T @ total)) <= 1e-8


class TestSectorInvariants:
    """Properties the paper implies, checked on both routes."""

    @ROUTES
    @settings(max_examples=30, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_dimensions_invariant_under_local_unitaries(self, route, family, dims, seed):
        rng = np.random.default_rng(seed)
        sys_ = family_system(family, dims, rng)
        before, after = route(sys_), route(locally_rotated(sys_, rng)[0])
        assert dimensions(after) == dimensions(before)
        scale = max(1.0, spectral_norm(sys_.h_i))
        assert after.alphas == pytest.approx(before.alphas, rel=0.0, abs=1e-9 * scale)

    @ROUTES
    @settings(max_examples=30, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           c=st.floats(0.1, 20.0))
    def test_alphas_scale_linearly(self, route, family, dims, seed, c):
        sys_ = family_system(family, dims, np.random.default_rng(seed))
        scaled = BipartiteSystem(sys_.dim_a, sys_.dim_b, c * sys_.h_a, c * sys_.h_b, c * sys_.h_i)
        before, after = route(sys_), route(scaled)
        assert dimensions(after) == dimensions(before)
        scale = c * max(1.0, spectral_norm(sys_.h_i))
        assert after.alphas == pytest.approx([c * a for a in before.alphas], rel=0.0, abs=1e-9 * scale)

    @settings(max_examples=30, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_routes_agree_on_orthogonal_sectors_inside_the_kernel(self, family, dims, seed):
        sys_ = family_system(family, dims, np.random.default_rng(seed))
        direct, oracle = ife_sectors(sys_), ife_sectors_oracle(sys_)
        assert direct.alphas == oracle.alphas
        for s1, s2 in zip(direct.sectors, oracle.sectors):
            assert s1.dimension == s2.dimension
            assert max_principal_angle(s1.basis, s2.basis) <= 1e-7
        total = direct.total_basis()
        assert np.allclose(total.conj().T @ total, np.eye(total.shape[1]), rtol=0.0, atol=1e-10)
        kernel = commutator_kernel(sys_)
        assert spectral_norm(total - kernel @ (kernel.conj().T @ total)) <= 1e-8

    @settings(max_examples=40, deadline=None, database=None)
    @given(dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           split_exp=st.floats(-13.0, np.log10(3e-9)), conjugate=st.booleans())
    def test_split_degeneracy_lands_in_one_sector(self, dims, seed, split_exp, conjugate):
        # a commuting system whose coupling has a doubly degenerate eigenvalue
        # split by far less than CLUSTER_TOL: every cluster is one whole sector
        from ifestates.cli import main as cli_main
        from ifestates.serialize import save_system

        rng = np.random.default_rng(seed)
        dim_a, dim_b = dims
        d_i = rng.integers(-2, 3, dim_a * dim_b).astype(float)
        d_i[1] = d_i[0]
        multiplicities = sorted(Counter(d_i.tolist()).items())
        d_i[1] += 10.0 ** split_exp
        u_a, u_b = (random_unitary(n, rng) if conjugate else np.eye(n) for n in dims)
        u = np.kron(u_a, u_b)
        sys_ = BipartiteSystem(
            dim_a, dim_b,
            (u_a * rng.integers(-2, 3, dim_a)) @ u_a.conj().T,
            (u_b * rng.integers(-2, 3, dim_b)) @ u_b.conj().T,
            (u * d_i) @ u.conj().T,
        )
        for route in (ife_sectors, ife_sectors_oracle):
            dec = route(sys_)
            assert dimensions(dec) == [m for _, m in multiplicities]
            assert dec.alphas == pytest.approx([value for value, _ in multiplicities], abs=1e-8)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.json"
            save_system(sys_, path)
            assert cli_main(["oracle-diff", str(path), "--out", str(Path(tmp) / "r.json")]) == 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("split", [1e-13, 1e-11, 3e-10, 1e-9, 3e-9])
    def test_split_mixing_free_eigenspaces_lands_in_one_sector(self, split, seed, tmp_path):
        # the split cluster spans {e0, e1} in both routes, inside the
        # reported commutator kernel, and classify_pure accepts any state in it
        from ifestates.cli import main as cli_main
        from ifestates.serialize import save_system

        sys_ = mixing_split_system(split, seed)
        pair = np.eye(6, dtype=complex)[:, :2]
        for route in (ife_sectors, ife_sectors_oracle):
            dec = route(sys_)
            assert dec.alphas == pytest.approx((0.5,), abs=1e-8)
            assert dimensions(dec) == [2]
            assert subspace_equal(dec.sectors[0].basis, pair, 1e-7)
            kernel = commutator_kernel(sys_)
            assert spectral_norm(pair - kernel @ (kernel.conj().T @ pair)) <= 1e-8
        psi = pair @ np.array([1.0, 1.0j]) / np.sqrt(2.0)
        assert classify_pure(psi, sys_) == pytest.approx(dec.alphas[0], abs=1e-12)
        save_system(sys_, tmp_path / "split.json")
        assert cli_main(["oracle-diff", str(tmp_path / "split.json"), "--out", str(tmp_path / "r.json")]) == 0


def real_system(kind, dims, rng):
    """A seeded system whose three matrices are real: a star or one of three real families.

    ``"star"`` is the seeded star of ``N = dims[0]`` bath spins from
    ``scripts/bench_sweep.py``; ``"subspace_zero"`` a real coupling with a
    guaranteed alpha = 0 sector and a nonzero commutator; ``"conjugated"``
    a commuting system conjugated by a real orthogonal ``O_A (x) O_B``;
    ``"generic"`` random real symmetric parts.
    """
    if kind == "star":
        n = dims[0]
        gammas = tuple(1.0 + 0.3 * np.random.default_rng(n).uniform(0.0, 1.0, n))
        return build_spin_star(SpinStarParams(n, 1.0, 1.3, gammas))
    dim_a, dim_b = dims

    def symmetric(d):
        m = rng.standard_normal((d, d))
        return 0.5 * (m + m.T)

    if kind == "subspace_zero":
        h_i = symmetric(dim_a * dim_b)
        zero = rng.permutation(dim_a * dim_b)[:max(1, dim_a * dim_b // 3)]
        h_i[zero, :] = h_i[:, zero] = 0.0
        return BipartiteSystem(dim_a, dim_b, np.diag(rng.standard_normal(dim_a)),
                               np.diag(rng.standard_normal(dim_b)), h_i)
    if kind == "conjugated":
        o_a, o_b = (np.linalg.qr(rng.standard_normal((d, d)))[0] for d in dims)
        o = np.kron(o_a, o_b)
        levels = [rng.integers(-2, 3, d).astype(float) for d in (dim_a, dim_b, dim_a * dim_b)]
        return BipartiteSystem(dim_a, dim_b, *((u * e) @ u.T for u, e in zip((o_a, o_b, o), levels)))
    return BipartiteSystem(dim_a, dim_b, symmetric(dim_a), symmetric(dim_b), symmetric(dim_a * dim_b))


def phase_twin(sys_, rng):
    """``(twin, d)``: ``sys_`` conjugated by the diagonal local phase unitary ``D = D_A (x) D_B = diag(d)``."""
    d_a, d_b = (np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n)) for n in (sys_.dim_a, sys_.dim_b))
    d = np.kron(d_a, d_b)
    twin = BipartiteSystem(sys_.dim_a, sys_.dim_b, *(
        (phases[:, None] * op) * phases.conj() for phases, op in ((d_a, sys_.h_a), (d_b, sys_.h_b),
                                                                   (d, sys_.h_i))))
    return twin, d


class TestRealSystems:
    """A system whose Hermitian parts are real is stored and factorized real.

    Its complex twin under a diagonal local phase unitary ``D = D_A (x)
    D_B`` has the same sectors, mapped by ``D``, and the same traces, but
    every factorization in complex arithmetic.
    """

    @settings(max_examples=40, deadline=None, database=None)
    @given(kind=st.sampled_from(["star", "subspace_zero", "conjugated", "generic"]),
           dims=st.sampled_from(DIM_PAIRS), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_phase_twin_has_the_same_sectors_and_traces(self, kind, dims, n, seed):
        from ifestates import time_grid, trace_pure_states

        rng = np.random.default_rng(seed)
        sys_ = real_system(kind, (n, None) if kind == "star" else dims, rng)
        twin, d = phase_twin(sys_, rng)
        for route in (ife_sectors, ife_sectors_oracle):
            real_dec, twin_dec = route(sys_), route(twin)
            assert dimensions(real_dec) == dimensions(twin_dec)
            assert real_dec.alphas == pytest.approx(twin_dec.alphas, rel=0.0, abs=core._alpha_tol(sys_))
            for real_sector, twin_sector in zip(real_dec.sectors, twin_dec.sectors):
                assert real_sector.basis.dtype == np.float64
                assert max_principal_angle(d[:, None] * real_sector.basis, twin_sector.basis) \
                    <= SUBSPACE_ANGLE_TOL
        # a sector vector, if there is one, and a random real state
        states = [random_state(sys_.dim, rng).real]
        states[0] /= np.linalg.norm(states[0])
        if real_dec.sectors:
            states.append(real_dec.sectors[0].basis[:, 0])
        psi = np.stack(states, axis=1)
        alphas = np.einsum("ij,ij->j", psi, sys_.h_i @ psi)
        times = time_grid(5.0, 11)
        for real_report, twin_report in zip(trace_pure_states(sys_, psi, times, alphas),
                                            trace_pure_states(twin, d[:, None] * psi, times, alphas)):
            for key in ("deviation", "energy_a", "energy_b"):
                assert np.abs(getattr(real_report, key) - getattr(twin_report, key)).max() <= 1e-12
        for system, dtype in ((sys_, np.float64), (twin, np.complex128)):
            assert system.h_i.dtype == dtype
            w, v = core._coupling_eig(system)
            total_w, total_v = core._total_eig(system)
            assert w.dtype == total_w.dtype == np.float64  # eigenvalues are real either way
            assert v.dtype == total_v.dtype == dtype

    def test_real_parts_of_complex_input_are_stored_real(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        coupling = np.kron(sz, sz) * complex(1.0, -0.0)  # -0.0 imaginary parts are zero
        sys_ = BipartiteSystem(2, 2, sz, sz, coupling)
        for stored, given_ in zip((sys_.h_a, sys_.h_b, sys_.h_i), (sz, sz, coupling)):
            assert stored.dtype == np.float64 and not stored.flags.writeable
            assert stored.tobytes() == np.ascontiguousarray(given_.real).tobytes()
        assert build_total(sys_).dtype == np.float64
        # one imaginary entry anywhere keeps all three complex
        tilted = sz + 1e-3j * np.array([[0.0, 1.0], [-1.0, 0.0]])
        mixed = BipartiteSystem(2, 2, sz, tilted, coupling)
        assert {op.dtype for op in (mixed.h_a, mixed.h_b, mixed.h_i)} == {np.dtype(np.complex128)}


class TestRelTolValidation:
    @pytest.mark.parametrize("route", [ife_sectors, ife_sectors_oracle, ife_exists, commutator_kernel])
    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1e-10])
    @pytest.mark.parametrize("maker", [commuting_system, generic_system])
    def test_routes_reject_bad_rel_tol(self, route, rel_tol, maker):
        # a commuting system takes no vectors SVD of its commutator
        sys_ = maker(2, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rel_tol must be a positive finite number"):
            route(sys_, rel_tol)

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_classify_pure_rejects_bad_rel_tol(self, rel_tol, star_system_n2):
        # at rel_tol = inf a random unit state would pass as IFE
        psi = random_state(star_system_n2.dim, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rel_tol must be a positive finite number"):
            classify_pure(psi, star_system_n2, rel_tol)


class TestThinNullSpace:
    @pytest.mark.parametrize("shape", [(4, 4), (8, 3), (3, 8), (32, 16), (16, 32), (48, 48), (96, 24), (5, 1)])
    @pytest.mark.parametrize("rank_drop", [0, 1, 3])
    def test_bit_identical_to_full_svd(self, shape, rank_drop):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1] * 10 + rank_drop)
        m, n = shape
        r = max(1, min(m, n) - rank_drop)
        a = (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n)))
        _, s, vh = np.linalg.svd(a)
        want = vh[int(np.sum(s > DEFAULT_REL_TOL * s[0])):].conj().T
        got = null_space(a)
        assert np.array_equal(got, want)
        assert got.shape[1] == n - r
