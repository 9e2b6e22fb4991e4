import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifestates.linalg import (
    kron,
    max_principal_angle,
    orthonormal_columns,
    require_hermitian,
    require_unit_states,
    spectral_norm,
    subspace_residual,
)

from helpers import (
    commutator,
    hermitian_eig,
    intersect_kernels,
    null_space,
    propagator,
    random_hermitian,
    random_unitary,
    subspace_equal,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_sigma_z_identity(self):
        assert np.array_equal(kron(SZ, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex))

    def test_dimension_product(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        assert kron(a, b).shape == (6, 6)

    def test_associative_exact_on_integers(self):
        # triple products of small integers are exact in doubles
        rng = np.random.default_rng(8)
        a, b, c = (rng.integers(-4, 5, (d, d)).astype(complex) for d in (2, 3, 2))
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    def test_associative_generic(self):
        rng = np.random.default_rng(8)
        a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 2))
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), rtol=1e-15, atol=0)


# Entries with signed zeros in either part, so a product that differs from
# np.kron's only in the sign of a zero shows in the bytes.
_ENTRIES = st.builds(complex, st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3),
                     st.sampled_from([0.0, -0.0, 0.5]) | st.floats(-1e3, 1e3))
# 1-D and 2-D shapes with 1-row and 1-column ones among them
_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple)


def _complex_arrays(shape):
    size = int(np.prod(shape))
    return st.lists(_ENTRIES, min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=complex).reshape(shape))


def _real_arrays(shape):
    size = int(np.prod(shape))
    return st.lists(_ENTRIES.map(lambda z: z.real), min_size=size, max_size=size).map(
        lambda values: np.array(values, dtype=float).reshape(shape))


class TestKernelsMatchNumpy:
    """``kron`` and ``spectral_norm`` return the bits of ``np.kron`` and ``np.linalg.norm(., 2)``.

    Both keep the dtype of their operands: real operands stay real.
    """

    @given(_SHAPES.flatmap(_complex_arrays), _SHAPES.flatmap(_complex_arrays))
    @settings(max_examples=300, deadline=None, database=None)
    def test_kron_bytes(self, a, b):
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(_SHAPES.flatmap(_real_arrays), _SHAPES.flatmap(_real_arrays) | _SHAPES.flatmap(_complex_arrays),
           st.booleans())
    @settings(max_examples=300, deadline=None, database=None)
    def test_kron_bytes_with_a_real_operand(self, a, b, swap):
        if swap:
            a, b = b, a
        got, want = kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype == np.result_type(a, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None, database=None)
    def test_spectral_norm_of_a_real_matrix(self, rows, cols, data):
        a = data.draw(_real_arrays((rows, cols)))
        assert spectral_norm(a) == float(np.linalg.norm(a, 2))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (5, 1), (6, 3), (8, 8)])
    def test_orthonormal_columns_of_a_real_matrix_are_real(self, rows, cols):
        m = np.random.default_rng(rows * cols).standard_normal((rows, cols))
        q = orthonormal_columns(m)
        assert q.dtype == np.float64
        assert np.allclose(q.T @ q, np.eye(cols), rtol=0.0, atol=1e-14)
        r = q.T @ m  # the R factor, upper triangular with a positive diagonal
        assert np.allclose(np.tril(r, -1), 0.0, rtol=0.0, atol=1e-13)
        assert (np.diagonal(r) > 0).all()

    @given(st.integers(1, 6), st.sampled_from(["column", "row", "matrix", "vector"]), st.data())
    @settings(max_examples=200, deadline=None, database=None)
    def test_spectral_norm_value(self, d, kind, data):
        shape = {"column": (d, 1), "row": (1, d), "matrix": (d, data.draw(st.integers(2, 6))),
                 "vector": (d,)}[kind]
        a = data.draw(_complex_arrays(shape))
        assert spectral_norm(a) == float(np.linalg.norm(a, 2))

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0)])
    def test_spectral_norm_of_empty_is_zero(self, shape):
        assert spectral_norm(np.zeros(shape, dtype=complex)) == 0.0


class TestCommutator:
    def test_self_commutes(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(5, rng)
        assert np.allclose(commutator(a, a), 0.0)

    def test_pauli_algebra(self):
        assert np.allclose(commutator(SZ, SP), 2 * SP)

    def test_diagonals_commute(self):
        d1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
        d2 = np.diag([-1.0, 0.0, 5.0]).astype(complex)
        assert np.allclose(commutator(d1, d2), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(np.eye(2), np.eye(3))


class TestHermitianEig:
    def test_sigma_z(self):
        w, _ = hermitian_eig(SZ)
        assert np.allclose(w, [-1.0, 1.0])

    def test_identity(self):
        w, _ = hermitian_eig(np.eye(5))
        assert np.allclose(w, 1.0)

    def test_sigma_x_eigenvectors(self):
        w, v = hermitian_eig(SX)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(abs(np.vdot(minus, v[:, 0])) - 1) < 1e-12
        assert abs(abs(np.vdot(plus, v[:, 1])) - 1) < 1e-12

    @pytest.mark.parametrize("dim", [2, 7, 16, 64])
    def test_reconstruction(self, dim):
        rng = np.random.default_rng(dim)
        a = random_hermitian(dim, rng)
        w, v = hermitian_eig(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(a @ v - v * w) <= 1e-10 * np.linalg.norm(a)
        assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-12 * dim

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eig(SP)


class TestNullSpace:
    def test_identity_empty(self):
        assert null_space(np.eye(4)).shape == (4, 0)

    def test_zero_full(self):
        basis = null_space(np.zeros((3, 3)))
        assert basis.shape == (3, 3)
        assert np.allclose(basis.conj().T @ basis, np.eye(3))

    def test_eigenspace(self):
        basis = null_space(SZ - np.eye(2))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1) < 1e-12

    def test_residual_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_hermitian(8, rng)
            a = a @ np.diag([0, 0, 1, 1, 1, 1, 1, 1]) @ a.conj().T  # rank 6
            basis = null_space(a)
            assert basis.shape[1] == 2
            assert spectral_norm(a @ basis) <= 1e-9 * spectral_norm(a)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="rel_tol"):
            null_space(np.eye(2), rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -1e-10])
    def test_rejects_non_finite_or_negative_tol(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be a positive finite number"):
            null_space(np.eye(3), rel_tol)


class TestIntersectKernels:
    def test_identity_empty(self):
        assert intersect_kernels([np.eye(3)]).shape == (3, 0)

    def test_zeros_full(self):
        basis = intersect_kernels([np.zeros((3, 3)), np.zeros((3, 3))])
        assert basis.shape == (3, 3)

    def test_incompatible_eigenvectors(self):
        basis = intersect_kernels([SZ - np.eye(2), SX - np.eye(2)])
        assert basis.shape == (2, 0)

    def test_single_matches_null_space(self):
        rng = np.random.default_rng(12)
        a = random_hermitian(6, rng)
        a = a - np.linalg.eigvalsh(a)[2] * np.eye(6)  # force a kernel direction
        assert subspace_equal(intersect_kernels([a]), null_space(a), 1e-8)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            intersect_kernels([])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            intersect_kernels([np.eye(2), np.eye(3)])

    def test_badly_scaled_blocks(self):
        # one operator 1e6 times larger must not swallow the other's kernel
        rng = np.random.default_rng(13)
        small = SZ - np.eye(2)
        big = 1e6 * (SZ - np.eye(2))
        basis = intersect_kernels([small, big])
        assert basis.shape == (2, 1)


class TestSubspaceEqual:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(14)
        b = orthonormal_columns(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        u = random_unitary(3, rng)
        assert subspace_equal(b, b @ u, 1e-8)

    def test_distinct_axes(self):
        e0 = np.eye(3)[:, :1]
        e1 = np.eye(3)[:, 1:2]
        assert not subspace_equal(e0, e1, 1e-8)

    def test_cardinality_mismatch(self):
        assert not subspace_equal(np.eye(3)[:, :1], np.eye(3)[:, :2], 1e-8)

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            subspace_equal(np.eye(2), np.eye(3))

    def test_empty_bases_equal(self):
        assert subspace_equal(np.zeros((3, 0)), np.zeros((3, 0)))


class TestPrincipalAngle:
    def test_same_span(self):
        rng = np.random.default_rng(15)
        b = orthonormal_columns(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        assert max_principal_angle(b, b @ random_unitary(3, rng)) < 1e-12

    def test_orthogonal_spans(self):
        assert max_principal_angle(np.eye(4)[:, :1], np.eye(4)[:, 1:2]) == pytest.approx(np.pi / 2)

    def test_empty_conventions(self):
        empty = np.zeros((4, 0))
        assert max_principal_angle(empty, empty) == 0.0
        assert max_principal_angle(empty, np.eye(4)[:, :1]) == pytest.approx(np.pi / 2)


def _residual_sine(p, q):
    """``sigma_max((I - P) Q)``: the largest sine by which ``Ran Q`` leaves ``Ran P``."""
    return spectral_norm(q - p @ (p.conj().T @ q))


def _random_basis_pair(seed, equal):
    """Two orthonormal bases of a random ambient space; equal-dimension spans are near on odd seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 33))
    k1 = int(rng.integers(1, n + 1))
    k2 = k1 if equal else int(rng.choice([k for k in range(1, n + 1) if k != k1]))
    b1 = orthonormal_columns(rng.standard_normal((n, k1)) + 1j * rng.standard_normal((n, k1)))
    noise = rng.standard_normal((n, k2)) + 1j * rng.standard_normal((n, k2))
    if equal and seed % 2:  # a nearby span: angles from 1e-14 to 1e-1
        return b1, orthonormal_columns(b1 + 10 ** rng.uniform(-14, -1) * noise)
    return b1, orthonormal_columns(noise)


class TestPrincipalAngleOnePass:
    """Equal dimensions take one residual; unequal dimensions keep the symmetrized max."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, database=None)
    def test_equal_dimensions_match_the_symmetrized_residual(self, seed):
        b1, b2 = _random_basis_pair(seed, equal=True)
        n = b1.shape[0]
        symmetrized = max(_residual_sine(b1, b2), _residual_sine(b2, b1))
        # both residuals have the sines of the principal angles as singular values,
        # so they agree to roundoff of the n-row products
        assert abs(np.sin(max_principal_angle(b1, b2)) - symmetrized) <= 4 * n * np.finfo(float).eps
        if symmetrized <= 0.1:  # arcsin is flat there, so the angles agree as closely
            assert abs(max_principal_angle(b1, b2) - np.arcsin(symmetrized)) <= 4 * n * np.finfo(float).eps

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None, database=None)
    def test_unequal_dimensions_unchanged(self, seed):
        b1, b2 = _random_basis_pair(seed, equal=False)
        symmetrized = max(_residual_sine(b1, b2), _residual_sine(b2, b1))
        assert max_principal_angle(b1, b2) == float(np.arcsin(min(1.0, symmetrized)))

    def test_equal_dimensions_take_one_residual(self, monkeypatch):
        import ifestates.linalg as linalg

        calls = []
        monkeypatch.setattr(linalg, "spectral_norm", lambda a: calls.append(a.shape) or spectral_norm(a))
        b = np.eye(6, dtype=complex)
        linalg.max_principal_angle(b[:, :3], b[:, 1:4])
        assert calls == [(6, 3)]
        linalg.max_principal_angle(b[:, :3], b[:, 1:3])
        assert calls[1:] == [(6, 2), (6, 3)]


class TestSubspaceResidual:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=50, deadline=None, database=None)
    def test_angle_for_equal_dimensions_else_one(self, seed, equal):
        b1, b2 = _random_basis_pair(seed, equal=equal)
        want = max_principal_angle(b1, b2) if equal else 1.0
        assert subspace_residual(b1, b2) == want

    def test_both_empty_is_zero(self):
        assert subspace_residual(np.zeros((4, 0)), np.zeros((4, 0))) == 0.0


class TestPropagator:
    def test_zero_time(self):
        rng = np.random.default_rng(16)
        h = random_hermitian(5, rng)
        assert np.allclose(propagator(h, 0.0), np.eye(5))

    def test_sigma_z_quarter_period(self):
        u = propagator(SZ, np.pi / 2)
        assert np.allclose(u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]))

    def test_group_property(self):
        rng = np.random.default_rng(17)
        h = random_hermitian(6, rng)
        u = propagator(h, 0.37) @ propagator(h, -0.37)
        assert np.linalg.norm(u - np.eye(6)) <= 1e-9 * 6
        lhs = propagator(h, 0.4) @ propagator(h, 1.1)
        assert np.linalg.norm(lhs - propagator(h, 1.5)) <= 1e-9 * 6

    def test_unitarity(self):
        rng = np.random.default_rng(18)
        h = random_hermitian(8, rng, scale=3.0)
        u = propagator(h, 2.5)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10 * 8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            propagator(SP, 1.0)


class TestHermitianCheck:
    def test_accepts_tiny_defect(self):
        a = SZ.copy()
        a[0, 1] = 1e-15
        require_hermitian(a)

    def test_exact_input_returned_unchanged(self):
        a = random_hermitian(4, np.random.default_rng(19))
        assert require_hermitian(a) is a

    def test_returns_hermitian_part(self):
        a = SZ.copy()
        a[0, 1] = 1e-15
        part = require_hermitian(a)
        assert np.array_equal(part, part.conj().T)
        assert np.array_equal(part, 0.5 * (a + a.conj().T))
        assert part[0, 1] == 5e-16 and np.array_equal(a[0, 1], 1e-15)

    def test_rejects_visible_defect(self):
        a = SZ.copy()
        a[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN would pass a plain `defect > tol` comparison; inf - inf is NaN
        a = SZ.copy()
        a[1, 1] = bad
        with pytest.raises(ValueError, match="h_x has non-finite entries"):
            require_hermitian(a, name="h_x")


class TestUnitStates:
    def test_vector_becomes_one_column(self):
        psi = np.array([0.6, 0.8j])
        states = require_unit_states(psi, 2)
        assert states.shape == (2, 1) and np.array_equal(states[:, 0], psi)

    def test_block_of_columns(self):
        block = random_unitary(4, np.random.default_rng(20))[:, :3]
        assert np.array_equal(require_unit_states(block, 4), block)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="state has dimension 3, expected 4"):
            require_unit_states(np.ones(3) / np.sqrt(3), 4)

    def test_names_first_unnormalized_column(self):
        block = np.eye(3, dtype=complex)
        block[:, 1] *= 2.0
        with pytest.raises(ValueError, match=r"state is not normalized: \|\|psi\|\| = 2\.0"):
            require_unit_states(block, 3)

    def test_rejects_higher_rank_arrays(self):
        with pytest.raises(ValueError, match="expected a state vector"):
            require_unit_states(np.ones((2, 1, 1)), 2)
