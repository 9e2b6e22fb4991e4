from functools import reduce

import numpy as np
import pytest

from ifestates import (
    ResonanceError,
    SpinStarParams,
    build_h0,
    build_spin_star,
    build_total,
    dressing_operator,
    gamma_norm,
    ife_sectors,
    multiplicity,
    spin_star_ife_basis,
    time_grid,
    trace_density_matrix,
    trace_pure_states,
    verify_spin_star_claims,
    weight_basis,
)
from ifestates.linalg import kron, max_principal_angle, spectral_norm
from ifestates.spin_star import PAULI_Z, admissible_r, dressed_blocks

from helpers import (
    PAULI_PLUS,
    commutator,
    kron_dressed_blocks,
    kron_spin_star,
    pauli_site,
    subspace_equal,
    total_s_squared,
    total_sminus,
    total_splus,
    total_sz,
)


class TestParams:
    def test_rejects_wrong_coupling_count(self):
        with pytest.raises(ValueError, match="couplings"):
            SpinStarParams(3, 1.0, 0.5, (1.0, 2.0))

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError, match="zero couplings"):
            SpinStarParams(2, 1.0, 0.5, (1.0, 0.0))

    def test_rejects_empty_bath(self):
        with pytest.raises(ValueError, match="n_spins"):
            SpinStarParams(0, 1.0, 0.5, ())

    @pytest.mark.parametrize("bad", [2.0, 2.5, "2", True, False, np.float64(2.0), np.bool_(True)])
    def test_rejects_non_integer_bath_size(self, bad):
        with pytest.raises(ValueError, match="^n_spins must be an integer"):
            SpinStarParams(bad, 1.0, 0.5, (1.0, 2.0))

    def test_accepts_numpy_integer_bath_size(self):
        params = SpinStarParams(np.int64(2), 1.0, 0.5, (1.0, 2.0))
        reference = SpinStarParams(2, 1.0, 0.5, (1.0, 2.0))
        assert params == reference and type(params.n_spins) is int
        assert np.array_equal(build_spin_star(params).h_i, build_spin_star(reference).h_i)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", ["omega0", "omega", "gammas"])
    def test_rejects_non_finite(self, name, bad):
        fields = {"omega0": 1.0, "omega": 0.5, "gammas": (1.0, 2.0)}
        fields[name] = (1.0, bad) if name == "gammas" else bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            SpinStarParams(2, **fields)


class TestBuildSpinStar:
    def test_n1_zero_splittings(self):
        sys_ = build_spin_star(SpinStarParams(1, 0.0, 0.0, (1.0,)))
        h = build_total(sys_)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0  # |+,down> <-> |-,up>
        assert np.allclose(h, expected)

    def test_excitation_number_conserved(self, star_system_n2):
        n_op = kron(PAULI_Z, np.eye(4)) + kron(np.eye(2), 2.0 * total_sz(2))
        h = build_total(star_system_n2)
        assert spectral_norm(commutator(h, n_op)) <= 1e-12 * spectral_norm(h)

    def test_pieces_hermitian(self, star_system_n2):
        for op in (star_system_n2.h_a, star_system_n2.h_b, star_system_n2.h_i):
            assert np.allclose(op, op.conj().T)


def _seeded_stars():
    rng = np.random.default_rng(13)
    stars = [SpinStarParams(2, 1.0, 0.7, (3.0, 4.0))]
    for n in range(1, 8):
        omega0, omega = rng.uniform(-2.0, 2.0, 2)
        stars.append(SpinStarParams(n, float(omega0), float(omega), tuple(rng.uniform(0.2, 2.0, n))))
    return stars


def _same_bits(a, b):
    """Equal values, and equal signs of every zero (a -0 is written as "-0")."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


class TestBitFlipOperators:
    """The bit-flip builders give the Kronecker-chain references bit for bit."""

    @pytest.mark.parametrize("p", _seeded_stars(), ids=lambda p: f"n{p.n_spins}")
    def test_system_matches_kronecker_reference(self, p):
        built, reference = build_spin_star(p), kron_spin_star(p)
        for name in ("h_a", "h_b", "h_i"):
            assert _same_bits(getattr(built, name), getattr(reference, name)), name

    def test_signed_zeros_of_negative_parameters(self):
        p = SpinStarParams(3, -0.0, -1.3, (-0.5, 1.0, -0.25))
        built, reference = build_spin_star(p), kron_spin_star(p)
        assert np.signbit(reference.h_b.real).any()
        for name in ("h_a", "h_b", "h_i"):
            assert _same_bits(getattr(built, name), getattr(reference, name)), name

    @pytest.mark.parametrize("p", _seeded_stars(), ids=lambda p: f"n{p.n_spins}")
    def test_dressed_blocks_match_kronecker_reference(self, p):
        # the reference takes whatever kernel representative its SVD gives: compare spans
        built, reference = dressed_blocks(p), kron_dressed_blocks(p)
        assert [(b.branch, b.r) for b in built] == [(b.branch, b.r) for b in reference]
        for b, ref in zip(built, reference):
            assert b.count == ref.count, (b.branch, b.r)
            assert max_principal_angle(b.vectors, ref.vectors) <= 1e-12, (b.branch, b.r)


class TestGammaNorm:
    def test_pythagorean(self):
        assert gamma_norm((3.0, 4.0)) == pytest.approx(5.0)

    def test_single(self):
        assert gamma_norm((-2.5,)) == pytest.approx(2.5)

    def test_four_units(self):
        assert gamma_norm((1.0, 1.0, 1.0, 1.0)) == pytest.approx(2.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            gamma_norm((0.0, 0.0))


class TestDressingOperator:
    def test_n1_is_identity(self):
        p = SpinStarParams(1, 1.0, 0.5, (0.7,))
        assert np.allclose(np.diag(dressing_operator(p, "plus")), np.eye(2))
        assert np.allclose(np.diag(dressing_operator(p, "minus")), np.eye(2))

    def test_exponent_value(self, star_params_n2):
        a_plus = np.diag(dressing_operator(star_params_n2, "plus"))
        # |up down> entry carries exp(g1 - g2) with g_i = ln(gamma_i/gamma)/2
        g1 = 0.5 * np.log(3.0 / 5.0)
        g2 = 0.5 * np.log(4.0 / 5.0)
        assert g1 == pytest.approx(-0.25541281188299536, abs=1e-15)
        assert a_plus[1, 1] == pytest.approx(np.exp(g1 - g2), abs=1e-15)

    def test_branches_mutually_inverse(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 6):
            p = SpinStarParams(n, 1.0, 0.3, tuple(rng.uniform(0.1, 2.0, n)))
            prod = np.diag(dressing_operator(p, "plus")) @ np.diag(dressing_operator(p, "minus"))
            assert np.abs(prod - np.eye(2 ** n)).max() <= 1e-12

    def test_conjugation_rescales_ladder_operators(self):
        rng = np.random.default_rng(1)
        n = 3
        p = SpinStarParams(n, 1.0, 0.3, tuple(rng.uniform(0.1, 2.0, n)))
        gamma = gamma_norm(p.gammas)
        a_plus = np.diag(dressing_operator(p, "plus"))
        a_minus = np.diag(dressing_operator(p, "minus"))
        for i, g_i in enumerate(p.gammas):
            lhs = a_minus @ pauli_site(PAULI_PLUS, i, n) @ a_plus
            rhs = pauli_site(PAULI_PLUS, i, n) * (gamma / g_i)
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_commutes_with_total_sz(self, star_params_n2):
        a_plus = np.diag(dressing_operator(star_params_n2, "plus"))
        assert np.abs(commutator(a_plus, total_sz(2))).max() == 0.0

    def test_rejects_negative_coupling(self):
        p = SpinStarParams(2, 1.0, 0.5, (1.0, -1.0))
        with pytest.raises(ValueError, match="> 0"):
            dressing_operator(p, "plus")

    def test_rejects_unknown_branch(self, star_params_n2):
        with pytest.raises(ValueError, match="branch"):
            dressing_operator(star_params_n2, "up")


class TestMultiplicity:
    def test_known_values(self):
        assert multiplicity(2, 1) == 1
        assert multiplicity(2, 0) == 1
        assert multiplicity(3, 0.5) == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sum_rule(self, n):
        total = sum(int(2 * r + 1) * multiplicity(n, r) for r in admissible_r(n))
        assert total == 2 ** n

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_numerical_highest_weight_count(self, n):
        for r in admissible_r(n):
            assert weight_basis(n, r, "highest").shape[1] == multiplicity(n, r)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError, match="not admissible"):
            multiplicity(2, 0.5)
        with pytest.raises(ValueError, match="not admissible"):
            multiplicity(3, 2.0)


class TestWeightBasis:
    def test_n2_top_state(self):
        basis = weight_basis(2, 1, "highest")
        assert basis.shape == (4, 1)
        assert abs(basis[0, 0]) == pytest.approx(1.0)

    def test_n2_singlet(self):
        basis = weight_basis(2, 0, "highest")
        assert basis.shape == (4, 1)
        target = np.zeros(4)
        target[1] = 1 / np.sqrt(2)
        target[2] = -1 / np.sqrt(2)
        assert abs(abs(np.vdot(target, basis[:, 0])) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_simultaneous_eigenvectors(self, n):
        s2 = total_s_squared(n)
        sz = total_sz(n)
        for r in admissible_r(n):
            for which, m in (("highest", r), ("lowest", -r)):
                basis = weight_basis(n, r, which)
                assert np.allclose(s2 @ basis, r * (r + 1) * basis, atol=1e-10)
                assert np.allclose(sz @ basis, m * basis, atol=1e-10)

    def test_lowest_is_spin_flip_of_highest(self):
        n = 3
        flip = pauli_site(np.array([[0, 1], [1, 0]], dtype=complex), 0, n)
        for i in range(1, n):
            flip = flip @ pauli_site(np.array([[0, 1], [1, 0]], dtype=complex), i, n)
        for r in admissible_r(n):
            hi = weight_basis(n, r, "highest")
            lo = weight_basis(n, r, "lowest")
            assert subspace_equal(flip @ hi, lo, 1e-10)

    def test_annihilation(self):
        for n in (2, 3, 4):
            s_plus = total_splus(n)
            s_minus = total_sminus(n)
            for r in admissible_r(n):
                hi = weight_basis(n, r, "highest")
                lo = weight_basis(n, r, "lowest")
                assert spectral_norm(s_plus @ hi) <= 1e-10
                assert spectral_norm(s_minus @ lo) <= 1e-10

    def test_deterministic(self):
        assert np.array_equal(weight_basis(4, 1, "highest"), weight_basis(4, 1, "highest"))

    def test_n3_doublets_are_the_coupling_paths(self):
        # |uud> = 1, |udu> = 2, |duu> = 4; first the path through S_2 = 0, then S_2 = 1
        expected = np.zeros((8, 2))
        expected[[2, 4], 0] = np.array([1.0, -1.0]) / np.sqrt(2.0)
        expected[[1, 2, 4], 1] = np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0)
        basis = weight_basis(3, 0.5, "highest")
        assert basis.dtype == np.float64  # constructed real, and kept real
        assert np.abs(basis - expected).max() <= 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lowest_is_the_rotated_highest(self, n):
        # exp(-i pi S_y) = (-i sigma_y)^(x n): |up> -> |down>, |down> -> -|up>
        rotation = reduce(np.kron, [np.array([[0.0, -1.0], [1.0, 0.0]])] * n)
        for r in admissible_r(n):
            hi = weight_basis(n, r, "highest")
            lo = weight_basis(n, r, "lowest")
            assert np.array_equal(lo, (-1) ** round((n - 2 * r) / 2) * hi[::-1])
            assert np.array_equal(lo, rotation @ hi)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_orthonormal_and_annihilated_by_raising(self, n):
        index = np.arange(2 ** n)
        for r in admissible_r(n):
            hw = weight_basis(n, r, "highest")
            assert hw.shape == (2 ** n, multiplicity(n, r))
            assert np.abs(hw.conj().T @ hw - np.eye(hw.shape[1])).max() <= 1e-13
            # S_+ by bit flips: each down spin (bit 1) of an index is raised to up
            raised = np.zeros_like(hw)
            for bit in 2 ** np.arange(n):
                down = index[(index & bit) != 0]
                raised[down - bit] += hw[down]
            assert np.abs(raised).max() <= 1e-13


class TestSpinStarIfeBasis:
    def test_n2_dimension_and_vectors(self, star_params_n2, star_system_n2):
        dec = spin_star_ife_basis(star_params_n2)
        assert dec.n_sectors == 1
        assert dec.sectors[0].alpha == 0.0
        basis = dec.sectors[0].basis
        assert basis.shape == (8, 4)
        # every vector annihilated by the coupling
        assert spectral_norm(star_system_n2.h_i @ basis) <= 1e-10 * spectral_norm(star_system_n2.h_i)
        # dressed plus-branch singlet carries amplitudes gamma_1, -gamma_2
        target = np.zeros(8)
        target[1] = 3.0 / 5.0
        target[2] = -4.0 / 5.0
        overlaps = np.abs(target @ basis.conj())
        assert overlaps.max() == pytest.approx(1.0, abs=1e-12)

    def test_n1_undressed_pair(self):
        dec = spin_star_ife_basis(SpinStarParams(1, 1.0, 0.3, (0.9,)))
        basis = dec.sectors[0].basis
        assert basis.shape == (4, 2)
        expected = np.zeros((4, 2), dtype=complex)
        expected[0, 0] = 1.0  # |+, up>
        expected[3, 1] = 1.0  # |-, down>
        assert subspace_equal(basis, expected, 1e-12)

    def test_dimension_formula(self):
        for n in (1, 2, 3, 4, 5):
            p = SpinStarParams(n, 1.0, 0.4, tuple(np.linspace(0.5, 1.5, n)))
            dim = spin_star_ife_basis(p).sectors[0].basis.shape[1]
            assert dim == 2 * sum(multiplicity(n, r) for r in admissible_r(n))

    def test_resonance_refused(self):
        with pytest.raises(ResonanceError, match="omega0 == omega"):
            spin_star_ife_basis(SpinStarParams(2, 1.0, 1.0, (3.0, 4.0)))

    def test_homogeneous_reduction(self):
        # equal couplings: dressing is trivial on every magnetization sector
        p = SpinStarParams(3, 1.0, 0.4, (0.8, 0.8, 0.8))
        dec = spin_star_ife_basis(p)
        undressed = []
        for branch, which, central in (("plus", "highest", 0), ("minus", "lowest", 1)):
            e = np.zeros((2, 1), dtype=complex)
            e[central] = 1.0
            for r in admissible_r(3):
                undressed.append(kron(e, weight_basis(3, r, which)))
        assert subspace_equal(dec.sectors[0].basis, np.hstack(undressed), 1e-10)

    def test_blocks_are_sz_eigenvectors(self, star_params_n2):
        for block in dressed_blocks(star_params_n2):
            sz = total_sz(2)
            sign = 1.0 if block.branch == "plus" else -1.0
            resid = sz @ block.vectors - sign * block.r * block.vectors
            assert np.abs(resid).max() <= 1e-10
            assert block.count == multiplicity(2, block.r)

    def test_basis_orthonormal(self):
        for n in (2, 3, 4):
            p = SpinStarParams(n, 1.0, 0.4, tuple(np.linspace(0.3, 1.8, n)))
            basis = spin_star_ife_basis(p).sectors[0].basis
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(basis.shape[1])).max() <= 1e-10

    def test_cross_pipeline_equality(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 3, 4):
            p = SpinStarParams(n, *sorted(rng.uniform(0.2, 1.5, 2), reverse=True),
                               tuple(rng.uniform(0.1, 2.0, n)))
            analytic = spin_star_ife_basis(p).sectors[0].basis
            numeric = ife_sectors(build_spin_star(p))
            assert numeric.n_sectors == 1
            assert subspace_equal(analytic, numeric.sectors[0].basis, 1e-7)


class TestVerifyClaims:
    def test_n2_reference_case(self, star_params_n2):
        claims = verify_spin_star_claims(star_params_n2)
        assert len(claims) == 4
        for claim in claims:
            assert claim.passed, claim
            assert claim.residual <= claim.tolerance

    def test_n3_dimensions(self):
        p = SpinStarParams(3, 0.3, 1.1, (0.5, 1.0, 0.25))
        claims = verify_spin_star_claims(p)
        assert all(c.passed for c in claims)
        dec = spin_star_ife_basis(p)
        assert dec.sectors[0].basis.shape[1] == 6  # 2 * (1 + 2)

    def test_commutator_shared_with_sector_computation(self, monkeypatch):
        import ifestates.core as core

        read = []
        original = core._commutator
        monkeypatch.setattr(core, "_commutator", lambda sys_: read.append(original(sys_)) or read[-1])
        claims = verify_spin_star_claims(SpinStarParams(3, 0.3, 1.1, (0.5, 1.0, 0.25)))
        assert all(c.passed for c in claims)
        # the kernel and the sectors read one cached commutator
        assert len(read) >= 2 and all(com is read[0] for com in read)

    def test_basis_cached_read_only_on_params(self):
        p = SpinStarParams(4, 1.0, 0.7, (1.0, 1.2, 0.8, 1.5))
        basis = spin_star_ife_basis(p).sectors[0].basis
        assert spin_star_ife_basis(p).sectors[0].basis is basis
        assert not basis.flags.writeable
        claims = verify_spin_star_claims(p)
        assert spin_star_ife_basis(p).sectors[0].basis is basis
        # a fresh parameter set builds its own basis, with the same bits and the same claims
        fresh = SpinStarParams(4, 1.0, 0.7, (1.0, 1.2, 0.8, 1.5))
        assert fresh == p
        assert verify_spin_star_claims(fresh) == claims
        assert spin_star_ife_basis(fresh).sectors[0].basis is not basis
        assert spin_star_ife_basis(fresh).sectors[0].basis.tobytes() == basis.tobytes()

    def test_h0_eigenvalue_of_top_state(self, star_params_n2, star_system_n2):
        # |+> (x) A_+|1,1> is an H_0 eigenvector at omega0 + 2 omega
        block = next(
            b for b in dressed_blocks(star_params_n2) if b.branch == "plus" and b.r == 1
        )
        vec = kron(np.array([[1.0], [0.0]], dtype=complex), block.vectors)[:, 0]
        h0 = build_h0(star_system_n2)
        energy = 1.0 + 2 * 0.7
        assert np.linalg.norm(h0 @ vec - energy * vec) <= 1e-10

    def test_resonance_refused(self):
        with pytest.raises(ResonanceError):
            verify_spin_star_claims(SpinStarParams(2, 0.5, 0.5, (1.0, 2.0)))


class TestEntangledIfeStates:
    """The paper's headline: the sector holds entangled states, pure and mixed, that evolve interaction-free.

    On the stars of ``scripts/bench_sweep.py`` (``omega0 = 1``, ``omega =
    1.3``, ``gammas = 1 + 0.3 U(0, 1)`` from ``default_rng(N)``), the sum
    of one analytic column of each branch is maximally entangled across
    central spin | bath, and a mixture of it with the sector's maximally
    mixed state keeps a negative partial transpose.  Both follow the free
    evolution up to the phase ``exp(-i 0 t)``.
    """

    @pytest.mark.parametrize("n", range(1, 7))
    def test_branch_superposition(self, n):
        gammas = tuple(float(g) for g in 1.0 + 0.3 * np.random.default_rng(n).uniform(0.0, 1.0, n))
        p = SpinStarParams(n, 1.0, 1.3, gammas)
        system = build_spin_star(p)
        basis = spin_star_ife_basis(p).sectors[0].basis
        k, d = basis.shape[1], system.dim
        psi = (basis[:, 0] + basis[:, k // 2]) / np.sqrt(2.0)  # the plus branch, then the minus branch
        schmidt = np.linalg.svd(psi.reshape(2, d // 2), compute_uv=False)
        assert np.abs(schmidt - np.sqrt(0.5)).max() <= 1e-12

        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * (basis @ basis.conj().T) / k
        partial_transpose = rho.reshape(2, d // 2, 2, d // 2).transpose(2, 1, 0, 3).reshape(d, d)
        assert np.linalg.eigvalsh(partial_transpose).min() < -0.4

        times = time_grid(10.0, 51)
        assert trace_pure_states(system, psi[:, None], times, [0.0])[0].max_deviation <= 1e-9 * np.sqrt(d)
        assert trace_density_matrix(system, rho, times).max_deviation <= 1e-8 * d
