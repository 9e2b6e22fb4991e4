import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifestates import (
    BipartiteSystem,
    FreeInvarianceError,
    SpinStarParams,
    build_h0,
    build_spin_star,
    build_total,
    ife_sectors,
    spin_star_ife_basis,
    time_grid,
    trace_density_matrix,
    trace_pure_states,
)
from ifestates.dynamics import _CHUNK_ENTRIES
from ifestates.linalg import kron
from ifestates.spin_star import PAULI_Z

from helpers import (
    DIM_PAIRS,
    FAMILIES,
    agreement_tol,
    commuting_system,
    diagonal_multisector_system,
    evolve_pure,
    factorized_operators,
    family_system,
    generic_system,
    locally_rotated,
    random_hermitian,
    random_state,
    record_eigensolves,
    total_sz,
)


class TestTimeGrid:
    def test_default(self):
        grid = time_grid()
        assert grid.shape == (101,)
        assert grid[0] == 0.0
        assert grid[-1] == 10.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            time_grid(steps=0)

    @pytest.mark.parametrize("steps", [0, -3, 2.7, 3.0, True, False, np.bool_(True), "3", None])
    def test_rejects_bad_steps(self, steps):
        with pytest.raises(ValueError, match="^steps must be an integer >= 1"):
            time_grid(1.0, steps)

    @pytest.mark.parametrize("t_max", [np.nan, np.inf, -np.inf, "oops", None])
    def test_rejects_bad_t_max(self, t_max):
        with pytest.raises(ValueError, match="^t_max must be a finite number"):
            time_grid(t_max, 3)

    def test_accepts_numpy_integer_steps(self):
        assert np.array_equal(time_grid(2.0, np.int64(5)), time_grid(2.0, 5))


class TestTimesValidation:
    """Both tracers check the grid first, with ``times`` named."""

    @pytest.mark.parametrize("tracer", ["pure", "density_matrix"])
    @pytest.mark.parametrize("times, match", [
        ([], "a non-empty 1-D grid"),
        ([np.nan, 1.0], "finite"),
        ([0.0, np.inf], "finite"),
        ([[0.0, 1.0], [2.0, 3.0]], "a non-empty 1-D grid"),
        ([0.0, [1.0, 2.0]], "an array of numbers"),
    ], ids=["empty", "nan", "inf", "two_dimensional", "ragged"])
    def test_rejects_malformed_grid(self, star_system_n2, tracer, times, match):
        psi = np.eye(star_system_n2.dim, dtype=complex)[:, :1]
        with pytest.raises(ValueError, match=f"times must be {match}"):
            if tracer == "pure":
                trace_pure_states(star_system_n2, psi, times, [0.0])
            else:
                trace_density_matrix(star_system_n2, psi @ psi.conj().T, times)


class TestEvolvePure:
    def test_zero_time(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(5, rng)
        psi = random_state(5, rng)
        assert np.allclose(evolve_pure(h, psi, 0.0), psi)

    def test_eigenvector_picks_up_phase(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(4, rng)
        w, v = np.linalg.eigh(h)
        evolved = evolve_pure(h, v[:, 2], 1.3)
        assert np.allclose(evolved, np.exp(-1j * w[2] * 1.3) * v[:, 2])

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(6, rng, scale=2.0)
        psi = random_state(6, rng)
        for t in (0.1, 3.7, 10.0):
            assert abs(np.linalg.norm(evolve_pure(h, psi, t)) - 1.0) <= 1e-10

    def test_time_reversal(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(6, rng)
        psi = random_state(6, rng)
        back = evolve_pure(h, evolve_pure(h, psi, 2.2), -2.2)
        assert np.linalg.norm(back - psi) <= 1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            evolve_pure(np.eye(2), np.array([1.0, 1.0]), 0.5)


class TestDeviationTrace:
    def test_sector_member_stays_small(self, star_params_n2, star_system_n2):
        basis = spin_star_ife_basis(star_params_n2).sectors[0].basis
        (report,) = trace_pure_states(star_system_n2, basis[:, 1], time_grid(), alphas=[0.0])
        assert report.max_deviation <= 1e-9 * np.sqrt(8)
        assert report.deviation.shape == report.times.shape

    def test_single_time_zero(self, star_system_n2):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        (report,) = trace_pure_states(star_system_n2, psi, [0.0], alphas=[0.0])
        assert report.max_deviation == pytest.approx(0.0, abs=1e-14)

    def test_excitation_exchanging_state_deviates(self, star_system_n2):
        psi = np.zeros(8, dtype=complex)
        psi[3] = 1.0  # |+, down down>
        (report,) = trace_pure_states(star_system_n2, psi, time_grid(), alphas=[0.0])
        assert report.max_deviation > 0.1


class TestEnergyTrace:
    def test_ife_state_has_flat_energies(self, star_params_n2, star_system_n2):
        basis = spin_star_ife_basis(star_params_n2).sectors[0].basis
        (report,) = trace_pure_states(star_system_n2, basis[:, 2], time_grid(), [0.0])
        assert np.ptp(report.energy_a) <= 1e-9
        assert np.ptp(report.energy_b) <= 1e-9

    def test_full_hamiltonian_eigenvector_is_stationary(self, star_system_n2):
        # stationary states conserve every mean value without being IFE
        _, v = np.linalg.eigh(build_total(star_system_n2))
        (report,) = trace_pure_states(star_system_n2, v[:, 0], time_grid(), [0.0])
        assert np.ptp(report.energy_a) <= 1e-9
        assert np.ptp(report.energy_b) <= 1e-9

    def test_flip_flop_state_oscillates(self, star_system_n2):
        psi = np.zeros(8, dtype=complex)
        psi[3] = 1.0
        (report,) = trace_pure_states(star_system_n2, psi, time_grid(), [0.0])
        assert np.ptp(report.energy_a) > 0.1 * 1.0  # omega0 = 1


class TestCovarianceTrace:
    def test_ife_state_energy_covariance_flat(self, star_params_n2, star_system_n2):
        basis = spin_star_ife_basis(star_params_n2).sectors[0].basis
        (report,) = trace_pure_states(
            star_system_n2, basis[:, 1], time_grid(), [0.0],
            observables=(star_system_n2.h_a, star_system_n2.h_b),
        )
        assert np.ptp(report.covariance) <= 1e-9

    def test_identity_observable_gives_zero(self, star_system_n2):
        rng = np.random.default_rng(4)
        psi = random_state(8, rng)
        (report,) = trace_pure_states(
            star_system_n2, psi, time_grid(0.5, 6), [0.0], observables=(np.eye(2), star_system_n2.h_b),
        )
        assert np.abs(report.covariance).max() <= 1e-12

    def test_mixed_branch_state_constant_nonzero(self, star_params_n2, star_system_n2):
        # superpose the two dressing branches so sigma_z actually fluctuates
        basis = spin_star_ife_basis(star_params_n2).sectors[0].basis
        psi = (basis[:, 0] + basis[:, 2]) / np.sqrt(2)
        (report,) = trace_pure_states(star_system_n2, psi, time_grid(), [0.0],
                                      observables=(PAULI_Z, total_sz(2)))
        assert np.ptp(report.covariance) <= 1e-9
        assert np.abs(report.covariance).max() > 1e-3

    def test_sector_across_superposition_still_conserves_energy(self):
        # IFE sectors at different alpha: any single-sector member conserves
        rng = np.random.default_rng(5)
        sys_ = diagonal_multisector_system(rng)
        dec = ife_sectors(sys_)
        psi = dec.sectors[0].basis[:, 0]
        (report,) = trace_pure_states(sys_, psi, time_grid(), [dec.sectors[0].alpha])
        assert np.ptp(report.energy_a) <= 1e-9

    def test_random_free_invariant_observables_flat(self, star_params_n2, star_system_n2):
        # any pair diagonal in the free eigenbases qualifies; covariance of an
        # IFE state must stay flat for all of them
        rng = np.random.default_rng(8)
        basis = spin_star_ife_basis(star_params_n2).sectors[0].basis
        psi = (basis[:, 0] + basis[:, 2] + basis[:, 1]) / np.sqrt(3)
        for _ in range(5):
            o_a = np.diag(rng.standard_normal(2)).astype(complex)
            o_b = np.diag(rng.standard_normal(4)).astype(complex)
            (report,) = trace_pure_states(star_system_n2, psi, time_grid(), [0.0],
                                          observables=(o_a, o_b))
            assert np.ptp(report.covariance) <= 1e-8

    def test_free_invariance_enforced(self, star_system_n2):
        rng = np.random.default_rng(6)
        psi = random_state(8, rng)
        bad = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # fails [o_a, sigma_z] = 0
        with pytest.raises(FreeInvarianceError, match="does not commute"):
            trace_pure_states(star_system_n2, psi, time_grid(1, 3), [0.0],
                              observables=(bad, star_system_n2.h_b))

    def test_own_free_hamiltonians_not_checked_again(self, star_system_n2, monkeypatch):
        import ifestates.dynamics as dynamics

        checked = []
        original = dynamics.require_hermitian
        monkeypatch.setattr(dynamics, "require_hermitian",
                            lambda op, **kw: checked.append(kw["name"]) or original(op, **kw))
        psi = random_state(8, np.random.default_rng(9))
        h_a, h_b = star_system_n2.h_a, star_system_n2.h_b
        # the default pair is the system's own (h_a, h_b): its means are the energies
        shared = trace_pure_states(star_system_n2, psi, time_grid(1.0, 4), [0.0])[0]
        assert not checked
        # a given pair is a user observable, checked, and its means are expectations of
        # their own, taken through its factor-eigenbasis matrices: the same covariance
        # to roundoff, not to the bit
        copied = trace_pure_states(star_system_n2, psi, time_grid(1.0, 4), [0.0],
                                   observables=(h_a, h_b.copy()))[0]
        assert checked == ["o_a", "o_b"]
        assert_allclose(copied.covariance, shared.covariance, rtol=0, atol=agreement_tol(star_system_n2))

    def test_unitarity_along_grid(self, star_system_n2):
        rng = np.random.default_rng(7)
        psi = random_state(8, rng)
        h = build_total(star_system_n2)
        for t in time_grid(10.0, 11):
            assert abs(np.linalg.norm(evolve_pure(h, psi, t)) - 1.0) <= 1e-10


def reference_traces(sys_, psi, alpha, times, observables=None):
    """Deviation, energies and covariance as three one-state tracers computed
    them: each tracer diagonalizes its generators and evolves psi again.  The
    covariance is that of ``observables``, by default ``(h_a, h_b)``."""

    def evolved(h):
        w, v = np.linalg.eigh(h)
        coeff = v.conj().T @ psi
        return v @ (np.exp(-1j * np.outer(w, times)) * coeff[:, None])

    def expectation(states, op):
        return np.einsum("ik,ij,jk->k", states.conj(), op, states).real

    eye_a, eye_b = np.eye(sys_.dim_a), np.eye(sys_.dim_b)
    free = evolved(build_h0(sys_)) * np.exp(-1j * float(alpha) * times)[None, :]
    deviation = np.linalg.norm(evolved(build_total(sys_)) - free, axis=0)
    states = evolved(build_total(sys_))
    energy_a = expectation(states, kron(sys_.h_a, eye_b))
    energy_b = expectation(states, kron(eye_a, sys_.h_b))
    states = evolved(build_total(sys_))
    o_a, o_b = (sys_.h_a, sys_.h_b) if observables is None else observables
    covariance = (expectation(states, kron(o_a, o_b))
                  - expectation(states, kron(o_a, eye_b))
                  * expectation(states, kron(eye_a, o_b)))
    return deviation, energy_a, energy_b, covariance


def drawn_system(family, dims, rng):
    if family == "commuting":
        return commuting_system(*dims, rng, conjugate=True)
    if family == "star":
        n = int(rng.integers(1, 4))
        return build_spin_star(SpinStarParams(
            n, 1.0, float(rng.uniform(0.3, 2.0)), tuple(rng.uniform(0.5, 4.0, n)),
        ))
    return generic_system(*dims, rng)


def random_unit_columns(dim, m, rng):
    z = rng.standard_normal((dim, m)) + 1j * rng.standard_normal((dim, m))
    return z / np.linalg.norm(z, axis=0)


def assert_agrees_with_references(sys_, states, times, alphas, reports, observables=None):
    atol = agreement_tol(sys_)
    assert len(reports) == states.shape[1]
    for j, report in enumerate(reports):
        deviation, energy_a, energy_b, covariance = reference_traces(
            sys_, states[:, j], alphas[j], times, observables)
        assert_allclose(report.deviation, deviation, rtol=0, atol=atol)
        assert report.max_deviation == report.deviation.max()
        assert_allclose(report.energy_a, energy_a, rtol=0, atol=atol)
        assert_allclose(report.energy_b, energy_b, rtol=0, atol=atol)
        assert_allclose(report.covariance, covariance, rtol=0, atol=atol)


class TestTracePureStates:
    """The one-factorization tracer against the three-tracer composition."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from(["commuting", "star", "generic"]),
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        t_max=st.sampled_from([0.0, 0.7, 10.0]),
        steps=st.integers(1, 12),
        fortran=st.booleans(),
    )
    @example(family="star", dims=(2, 2), seed=0, m=3, t_max=10.0, steps=1, fortran=True)
    def test_agrees_with_three_tracers(self, family, dims, seed, m, t_max, steps, fortran):
        rng = np.random.default_rng(seed)
        sys_ = drawn_system(family, dims, rng)
        states = random_unit_columns(sys_.dim, m, rng)
        if fortran:  # the layout of sector bases
            states = np.asfortranarray(states)
        times = time_grid(t_max, steps)
        alphas = [float(np.vdot(psi, sys_.h_i @ psi).real) for psi in states.T]

        reports = trace_pure_states(sys_, states, times, alphas, observables=(sys_.h_a, sys_.h_b))
        assert_agrees_with_references(sys_, states, times, alphas, reports)
        atol = agreement_tol(sys_)
        for j in range(m):
            psi = states[:, j]
            deviation, energy_a, energy_b, covariance = reference_traces(sys_, psi, alphas[j], times)
            # one-column calls with the default pair agree with the references too
            (single,) = trace_pure_states(sys_, psi, times, [alphas[j]])
            assert_allclose(single.deviation, deviation, rtol=0, atol=atol)
            assert_allclose(single.energy_a, energy_a, rtol=0, atol=atol)
            assert_allclose(single.energy_b, energy_b, rtol=0, atol=atol)
            assert_allclose(single.covariance, covariance, rtol=0, atol=atol)

    def test_agrees_with_three_tracers_across_chunks(self):
        # two full chunks of columns under the budget and a partial third
        rng = np.random.default_rng(14)
        sys_ = commuting_system(4, 4, rng)
        times = time_grid(10.0, 101)
        per_chunk = _CHUNK_ENTRIES // (sys_.dim * times.size)
        assert per_chunk >= 2
        states = random_unit_columns(sys_.dim, 2 * per_chunk + per_chunk // 2, rng)
        assert sys_.dim * states.shape[1] * times.size > 2 * _CHUNK_ENTRIES
        alphas = [float(np.vdot(psi, sys_.h_i @ psi).real) for psi in states.T]
        reports = trace_pure_states(sys_, states, times, alphas)
        assert_agrees_with_references(sys_, states, times, alphas, reports)

    @pytest.mark.parametrize("family", ["commuting", "star", "generic"])
    def test_one_state_wrappers_agree_with_batch_columns(self, family):
        rng = np.random.default_rng(15)
        sys_ = drawn_system(family, (2, 4), rng)
        times = time_grid(4.0, 9)
        states = random_unit_columns(sys_.dim, 5, rng)
        alphas = rng.uniform(-1.0, 1.0, 5)
        batch = trace_pure_states(sys_, states, times, alphas)
        atol = agreement_tol(sys_)
        # one-column calls: blocked products round differently, so the
        # columns agree to roundoff, not to the bit
        for j, psi in enumerate(states.T):
            (single,) = trace_pure_states(sys_, psi, times, [alphas[j]])
            assert_allclose(single.deviation, batch[j].deviation, rtol=0, atol=atol)
            assert_allclose(single.energy_a, batch[j].energy_a, rtol=0, atol=atol)
            assert_allclose(single.energy_b, batch[j].energy_b, rtol=0, atol=atol)
            assert_allclose(single.covariance, batch[j].covariance, rtol=0, atol=atol)

    def test_every_report_carries_every_trace(self, star_system_n2):
        states = random_unit_columns(8, 2, np.random.default_rng(9))
        for report in trace_pure_states(star_system_n2, states, time_grid(1.0, 4), [0.0, 0.5]):
            for trace in (report.deviation, report.energy_a, report.energy_b, report.covariance):
                assert trace.shape == (4,) and np.isfinite(trace).all()
            assert report.max_deviation == report.deviation.max()

    def test_alphas_are_required(self, star_system_n2):
        with pytest.raises(TypeError, match="alphas"):
            trace_pure_states(star_system_n2, np.eye(8, 1, dtype=complex), time_grid(1.0, 3))

    def test_rejects_unnormalized_column(self, star_system_n2):
        states = np.zeros((8, 2), dtype=complex)
        states[0, 0] = 1.0
        states[1, 1] = 2.0
        with pytest.raises(ValueError, match="not normalized"):
            trace_pure_states(star_system_n2, states, time_grid(1.0, 3), [0.0, 0.0])

    def test_rejects_alpha_count_mismatch(self, star_system_n2):
        states = np.eye(8, 2, dtype=complex)
        with pytest.raises(ValueError, match="alphas"):
            trace_pure_states(star_system_n2, states, time_grid(1.0, 3), alphas=[0.0])

    @pytest.mark.parametrize("alphas, message", [
        (np.zeros((2, 2)), r"expected 2 alphas \(one per state\), got shape \(2, 2\)"),
        ([0.0, float("nan")], "alphas must be finite"),
        ([float("inf"), 0.0], "alphas must be finite"),
        ([[0.0], [1.0, 2.0]], "alphas must be an array of numbers"),
    ], ids=["matrix", "nan", "inf", "ragged"])
    def test_rejects_malformed_alphas(self, star_system_n2, alphas, message):
        # a (2, 2) array would pass a length check and np.outer would flatten it
        states = np.eye(8, 2, dtype=complex)
        with pytest.raises(ValueError, match=message):
            trace_pure_states(star_system_n2, states, time_grid(1.0, 3), alphas=alphas)

    def test_free_invariance_checked_before_evolving(self, star_system_n2, monkeypatch):
        bad = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or original(a))
        with pytest.raises(FreeInvarianceError):
            trace_pure_states(star_system_n2, np.eye(8, 3, dtype=complex), time_grid(1.0, 3),
                              [0.0] * 3, observables=(bad, star_system_n2.h_b))
        assert not calls

    @pytest.mark.parametrize("pair", [
        lambda h_a, h_b: (h_a,),
        lambda h_a, h_b: (h_a, h_b, h_b),
        lambda h_a, h_b: "ab",
    ], ids=["one", "three", "string"])
    def test_observables_must_be_a_pair(self, star_params_n2, monkeypatch, pair):
        sys_ = build_spin_star(star_params_n2)  # a fresh system: nothing factorized yet
        calls = record_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=r"observables must be a pair \(o_a, o_b\)"):
            trace_pure_states(sys_, np.eye(8, 1, dtype=complex), time_grid(1.0, 3), [0.0],
                              observables=pair(sys_.h_a, sys_.h_b))
        assert not calls

    def test_spectra_factorized_once_per_system(self, monkeypatch):
        calls = record_eigensolves(monkeypatch)
        sys_ = commuting_system(2, 3, np.random.default_rng(11))
        times = time_grid(2.0, 5)
        states = np.eye(6, 4, dtype=complex)
        for _ in range(3):
            trace_pure_states(sys_, states, times, [0.0] * 4, observables=(sys_.h_a, sys_.h_b))
            trace_pure_states(sys_, states[:, 0], times, alphas=[0.0])
        # H, and the factors from which the spectrum of H_0 is built, shared by every later trace
        assert factorized_operators(calls, sys_) == ["H", "h_a", "h_b"]


class TestTiedFreeLevels:
    """``H_0`` with exactly tied sums ``e_a[i] + e_b[j]``: the tracer weights
    ``V0``'s columns with their factor eigenvalues, so it must pair each column
    with the eigenvalues that ``_free_eig`` sorted it by, ties included."""

    # the sort of the sums is no involution here, so a Kronecker layout read
    # through the sort instead of its inverse shows too
    @pytest.mark.parametrize("levels_b", [(1.5, 0.0, 0.5, 2.0), (1.0, 0.0, 2.5, 1.0)],
                             ids=["tied_sums", "degenerate_h_b"])
    def test_every_trace_agrees_with_references(self, levels_b):
        rng = np.random.default_rng(16)
        h_a, h_b = np.diag([0.0, 1.0]), np.diag(levels_b)
        sys_ = BipartiteSystem(2, 4, h_a, h_b, random_hermitian(8, rng))
        sums = np.add.outer([0.0, 1.0], np.sort(levels_b)).ravel()  # the eigenvalues ascend
        order = np.argsort(sums, kind="stable")
        assert np.unique(sums).size < sums.size  # exact ties between distinct (i, j)
        assert not np.array_equal(order[order], np.arange(8))
        # o_b mixes the eigenvectors of each eigenvalue of h_b: for the degenerate
        # h_b, the eigenpair at 1, so V_b^H o_b V_b is not diagonal
        o_a = random_hermitian(2, rng) * np.eye(2)
        o_b = random_hermitian(4, rng) * np.equal.outer(levels_b, levels_b)
        states = random_unit_columns(8, 4, rng)
        times = time_grid(10.0, 21)
        alphas = [float(np.vdot(psi, sys_.h_i @ psi).real) for psi in states.T]
        reports = trace_pure_states(sys_, states, times, alphas)
        assert_agrees_with_references(sys_, states, times, alphas, reports)
        reports = trace_pure_states(sys_, states, times, alphas, observables=(o_a, o_b))
        assert_agrees_with_references(sys_, states, times, alphas, reports, (o_a, o_b))


class TestLocalUnitaryInvariance:
    """A local unitary ``U = U_A (x) U_B`` applied to the system and the
    states leaves every trace of both tracers unchanged: it maps ``H`` and
    ``H_0`` to ``U H U^H`` and ``U H_0 U^H``, and ``h_a``, ``h_b`` to their
    conjugates by ``U_A`` and ``U_B``."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(family=FAMILIES, dims=st.sampled_from(DIM_PAIRS), seed=st.integers(0, 2**32 - 1),
           t_max=st.sampled_from([0.7, 10.0]))
    def test_traces_invariant(self, family, dims, seed, t_max):
        rng = np.random.default_rng(seed)
        sys_ = family_system(family, dims, rng)
        rotated, u = locally_rotated(sys_, rng)
        states = random_unit_columns(sys_.dim, 3, rng)
        times = time_grid(t_max, 9)
        alphas = [float(np.vdot(psi, sys_.h_i @ psi).real) for psi in states.T]
        atol = agreement_tol(sys_)
        before = trace_pure_states(sys_, states, times, alphas)
        after = trace_pure_states(rotated, u @ states, times, alphas)
        for original, turned in zip(before, after):
            for key in ("deviation", "energy_a", "energy_b", "covariance"):
                assert_allclose(getattr(turned, key), getattr(original, key),
                                rtol=0, atol=atol, err_msg=key)

        rho = (states * rng.dirichlet(np.ones(3))) @ states.conj().T
        original = trace_density_matrix(sys_, rho, times)
        turned = trace_density_matrix(rotated, u @ rho @ u.conj().T, times)
        for key in ("deviation", "energy_a", "energy_b"):
            assert_allclose(getattr(turned, key), getattr(original, key),
                            rtol=0, atol=atol, err_msg=key)
