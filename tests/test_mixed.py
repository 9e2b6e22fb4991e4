import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ifestates import (
    BipartiteSystem,
    SpinStarParams,
    build_h0,
    build_spin_star,
    build_total,
    check_density_matrix,
    classify_pure,
    ife_sectors,
    is_ife_mixed,
    random_ife_mixed,
    spin_star_ife_basis,
    time_grid,
    trace_density_matrix,
)
from ifestates.dynamics import _CHUNK_ENTRIES
from ifestates.linalg import kron
from ifestates import mixed
from ifestates.core import _free_frequencies, _total_eig
from ifestates.mixed import (
    _block_size,
    _uses_frequencies,
    block_structure_residuals,
)

from helpers import (
    DIM_PAIRS,
    agreement_tol,
    commuting_system,
    diagonal_multisector_system,
    factorized_operators,
    generic_system,
    locally_rotated,
    per_step_mixed_deviation,
    project_to_sectors,
    random_hermitian,
    random_state,
    random_unitary,
    record_eigensolves,
    subspace_zero_system,
)


@pytest.fixture(scope="module")
def diag_system():
    return diagonal_multisector_system(np.random.default_rng(100), 2, 3)


@pytest.fixture(scope="module")
def diag_dec(diag_system):
    dec = ife_sectors(diag_system)
    assert dec.n_sectors >= 2
    return dec


class TestDensityMatrixValidation:
    def test_accepts_valid(self):
        check_density_matrix(np.eye(4) / 4.0)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4))

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            check_density_matrix(rho)

    def test_rejects_non_hermitian(self):
        rho = np.eye(3) / 3.0
        rho[0, 1] = 0.1
        with pytest.raises(ValueError, match="not Hermitian"):
            check_density_matrix(rho)

    def test_hermitian_tolerance_is_a_parameter(self):
        # a 3e-11 relative defect: above the library default, below the file gate
        rho = (np.eye(3) / 3.0).astype(complex)
        rho[0, 1] += 3e-11j
        with pytest.raises(ValueError, match="exceeds 1.0e-12"):
            check_density_matrix(rho)
        checked = check_density_matrix(rho, 1e-10)
        assert np.array_equal(checked, checked.conj().T)
        assert_allclose(checked, np.eye(3) / 3.0, rtol=0, atol=2e-11)


class TestProjectToSectors:
    def test_single_basis_vector_projector(self, diag_system, diag_dec):
        psi = diag_dec.sectors[0].basis[:, 0]
        form = project_to_sectors(np.outer(psi, psi.conj()), diag_dec)
        assert form.block_traces[0] == pytest.approx(1.0, abs=1e-12)
        diag = np.diagonal(form.blocks[0]).real
        assert diag.max() == pytest.approx(1.0, abs=1e-12)
        assert form.residual_weight == pytest.approx(0.0, abs=1e-12)
        assert form.cross_norm == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_trace_split(self, star_system_n2):
        dec = ife_sectors(star_system_n2)
        rho = np.eye(8) / 8.0
        form = project_to_sectors(rho, dec)
        inside = sum(form.block_traces)
        assert inside == pytest.approx(dec.total_basis().shape[1] / 8.0, abs=1e-12)
        assert form.residual_weight == pytest.approx(1.0 - inside, abs=1e-12)

    def test_cross_sector_superposition(self, diag_dec):
        psi_a = diag_dec.sectors[0].basis[:, 0]
        psi_b = diag_dec.sectors[1].basis[:, 0]
        chi = psi_a + psi_b
        rho = 0.5 * np.outer(chi, chi.conj())
        form = project_to_sectors(rho, diag_dec)
        assert form.cross_norm == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self, diag_dec):
        with pytest.raises(ValueError, match="dimension"):
            project_to_sectors(np.eye(4) / 4.0, diag_dec)


def mixed_test_state(dec, rng, p_coherent):
    """A density matrix with sector blocks, cross-sector coherences and weight outside.

    ``(1 - p) rho_ife + p |chi><chi|``, where ``rho_ife`` is a random
    sector-block state and ``chi`` superposes one random vector from each
    sector with a random vector of the whole space.
    """
    weights = rng.dirichlet(np.ones(dec.n_sectors))
    rho = random_ife_mixed(dec, weights, int(rng.integers(2**31)))
    chi = random_state(dec.dim, rng)
    for sector in dec.sectors:
        chi = chi + sector.basis @ random_state(sector.dimension, rng)
    chi /= np.linalg.norm(chi)
    return (1.0 - p_coherent) * rho + p_coherent * np.outer(chi, chi.conj())


class TestBlockStructureResiduals:
    @settings(max_examples=60, deadline=None, database=None)
    @given(
        family=st.sampled_from(["diagonal", "commuting"]),
        dims=st.sampled_from(DIM_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        p_coherent=st.sampled_from([0.0, 1e-6, 0.3, 1.0]),
        scale=st.sampled_from([1.0, 1e3]),
    )
    def test_cross_norm_matches_pairwise_products(self, family, dims, seed, p_coherent, scale):
        rng = np.random.default_rng(seed)
        if family == "diagonal":
            sys_ = diagonal_multisector_system(rng, *dims)
        else:
            sys_ = commuting_system(*dims, rng)
        dec = ife_sectors(sys_)
        assume(dec.n_sectors >= 2)
        rho = scale * mixed_test_state(dec, rng, p_coherent)
        outside, cross = block_structure_residuals(rho, dec)
        reference = project_to_sectors(rho, dec)
        atol = 1e-14 * max(1.0, float(np.linalg.norm(rho)))
        assert cross == pytest.approx(reference.cross_norm, rel=0, abs=atol)
        inside = dec.total_basis() @ dec.total_basis().conj().T
        assert outside == pytest.approx(float(np.linalg.norm(rho - inside @ rho @ inside)),
                                        rel=0, abs=atol)

    def test_single_sector_has_no_cross_norm(self, star_system_n2):
        dec = ife_sectors(star_system_n2)
        assert dec.n_sectors == 1
        assert block_structure_residuals(np.eye(8) / 8.0, dec)[1] == 0.0

    def test_dimension_mismatch(self, diag_dec):
        with pytest.raises(ValueError, match="state has dimension 4, expected 6"):
            block_structure_residuals(np.eye(4) / 4.0, diag_dec)


class TestIsIfeMixed:
    def test_sector_projector_accepted(self, diag_system, diag_dec):
        psi = diag_dec.sectors[1].basis[:, 0]
        assert is_ife_mixed(np.outer(psi, psi.conj()), diag_dec)

    def test_uniform_on_zero_sector(self, star_system_n2):
        dec = ife_sectors(star_system_n2)
        basis = dec.sectors[0].basis
        rho = basis @ basis.conj().T / basis.shape[1]
        assert is_ife_mixed(rho, dec)

    def test_cross_sector_coherence_rejected(self, diag_system, diag_dec):
        psi_a = diag_dec.sectors[0].basis[:, 0]
        psi_b = diag_dec.sectors[1].basis[:, 0]
        chi = (psi_a + psi_b) / np.sqrt(2)
        rho = np.outer(chi, chi.conj())
        assert not is_ife_mixed(rho, diag_dec)
        assert trace_density_matrix(diag_system, rho, time_grid()).max_deviation > 1e-3

    def test_sector_block_form_is_sufficient_not_necessary(self, star_system_n2):
        # I/8 commutes with H and H_0, so it evolves interaction-free, yet
        # three quarters of it lie outside the 4-dimensional sector
        dec = ife_sectors(star_system_n2)
        rho = np.eye(8) / 8.0
        assert trace_density_matrix(star_system_n2, rho, time_grid()).max_deviation < 1e-12
        assert block_structure_residuals(rho, dec) == (0.25, 0.0)
        assert not is_ife_mixed(rho, dec)

    # True would count as 1.0, and a string meets numpy's TypeError
    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), True, "1e-3"],
                             ids=["nan", "negative", "inf", "bool", "string"])
    def test_rejects_malformed_tol(self, star_system_n2, tol):
        dec = ife_sectors(star_system_n2)
        psi = dec.sectors[0].basis[:, 0]
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            is_ife_mixed(np.outer(psi, psi.conj()), dec, tol=tol)

    def test_dimension_mismatch(self, diag_dec):
        # checked after the density-matrix axioms, before the residuals
        with pytest.raises(ValueError, match="state has dimension 4, expected 6"):
            is_ife_mixed(np.eye(4) / 4.0, diag_dec)


class TestRandomIfeMixed:
    def test_single_sector_rank_one(self, diag_dec, diag_system):
        # weight concentrated on a 1-dimensional sector gives a pure projector
        dims = [s.dimension for s in diag_dec.sectors]
        if 1 not in dims:
            pytest.skip("no 1-dimensional sector in this draw")
        k = dims.index(1)
        weights = np.zeros(len(dims))
        weights[k] = 1.0
        rho = random_ife_mixed(diag_dec, weights, seed=5)
        psi = diag_dec.sectors[k].basis[:, 0]
        assert np.allclose(rho, np.outer(psi, psi.conj()), atol=1e-12)

    def test_output_is_ife(self, diag_dec):
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        for seed in range(5):
            rho = random_ife_mixed(diag_dec, weights, seed)
            assert is_ife_mixed(rho, diag_dec, tol=1e-9)

    def test_deterministic(self, diag_dec):
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        assert np.array_equal(
            random_ife_mixed(diag_dec, weights, 42),
            random_ife_mixed(diag_dec, weights, 42),
        )

    def test_zero_weight_sector_is_skipped_with_its_draw(self, diag_dec):
        # the sector bases of diag_dec are exact permutation columns, so the
        # blocks of T^H rho T carry the drawn blocks bit for bit
        assert [s.dimension for s in diag_dec.sectors] == [3, 1, 2]
        edges = np.cumsum([0] + [s.dimension for s in diag_dec.sectors])
        total = diag_dec.total_basis()

        def blocks(weights):
            compressed = total.conj().T @ random_ife_mixed(diag_dec, weights, 17) @ total
            return [compressed[lo:hi, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])]

        skipped = blocks([0.5, 0.0, 0.5])
        drawn = blocks([0.5, 0.25, 0.25])
        assert not skipped[1].any()
        assert np.array_equal(skipped[0], drawn[0])
        assert np.array_equal(skipped[2], 2.0 * drawn[2])  # weights 0.5 and 0.25

    def test_valid_density_matrix(self, diag_dec):
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        rho = random_ife_mixed(diag_dec, weights, 7)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_weight_count_mismatch(self, diag_dec):
        with pytest.raises(ValueError, match="weights"):
            random_ife_mixed(diag_dec, np.ones(diag_dec.n_sectors + 1), 0)

    def test_weight_sum_enforced(self, diag_dec):
        with pytest.raises(ValueError, match="sum to 1"):
            random_ife_mixed(diag_dec, np.full(diag_dec.n_sectors, 0.9), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, star_params_n2, bad):
        # nan < 0 and |nan - 1| > 1e-9 are both False: checked explicitly
        dec = spin_star_ife_basis(star_params_n2)
        with pytest.raises(ValueError, match="weights must be finite"):
            random_ife_mixed(dec, [bad], 0)


class TestTraceDensityMatrix:
    def test_requested_fields(self, diag_system, diag_dec):
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        rho = random_ife_mixed(diag_dec, weights, 3)
        times = time_grid(2.0, 5)
        full = trace_density_matrix(diag_system, rho, times)
        assert full.covariance is None
        assert full.energy_a.shape == full.energy_b.shape == (5,)
        assert np.array_equal(full.times, times)
        assert full.max_deviation == float(full.deviation.max())
        # the samples of mixed read no energies: the sampler takes the deviation alone, with its bits
        (_, _, _, sampled), = mixed._sampled_checks(diag_system, diag_dec, [3], times)
        assert sampled == full.max_deviation

    def test_one_compression_per_call(self, diag_system, diag_dec, monkeypatch):
        # rho~ = V^H rho V and rho~0 = V0^H rho V0: one conj().T @ rho each
        import ifestates.mixed as mixed

        rho = random_ife_mixed(diag_dec, np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors), 4)
        trace_density_matrix(diag_system, rho, time_grid(1.0, 3))  # warm the cache

        class Counted(np.ndarray):
            calls = 0

            def __rmatmul__(self, other):
                Counted.calls += 1
                return np.asarray(other) @ np.asarray(self)

        monkeypatch.setattr(mixed, "_hermitian_state",
                            lambda r, dim: np.asarray(r, dtype=complex).view(Counted))
        trace_density_matrix(diag_system, rho, time_grid(1.0, 3))
        assert Counted.calls == 2


class TestMixedDeviation:
    def test_random_ife_state_static(self, diag_system, diag_dec):
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        rho = random_ife_mixed(diag_dec, weights, 11)
        report = trace_density_matrix(diag_system, rho, time_grid())
        assert report.max_deviation <= 1e-9 * diag_system.dim

    def test_zero_grid(self, diag_system):
        rho = np.eye(6) / 6.0
        assert trace_density_matrix(diag_system, rho, [0.0]).max_deviation == 0.0

    def test_cross_coherence_peak_near_pi_over_gap(self, diag_system, diag_dec):
        psi_a = diag_dec.sectors[0].basis[:, 0]
        psi_b = diag_dec.sectors[1].basis[:, 0]
        delta = diag_dec.sectors[1].alpha - diag_dec.sectors[0].alpha
        chi = (psi_a + psi_b) / np.sqrt(2)
        rho = np.outer(chi, chi.conj())
        t_star = np.pi / delta
        dev = trace_density_matrix(diag_system, rho, [t_star]).deviation
        # the coherence pair (block + adjoint), weight 1/2 each, dephases by
        # exp(-i delta t) relative to the free evolution
        expected = abs(np.exp(-1j * delta * t_star) - 1.0) * np.sqrt(2) * 0.5
        assert dev[0] == pytest.approx(expected, rel=1e-9)
        assert dev[0] > 1e-3


class TestConsistencyInvariants:
    def test_dynamical_consistency(self, diag_system, diag_dec):
        rng = np.random.default_rng(12)
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        grid = time_grid()
        for k in range(10):
            if k % 2 == 0:
                rho = random_ife_mixed(diag_dec, weights, 100 + k)
            else:
                base = random_ife_mixed(diag_dec, weights, 100 + k)
                psi = random_state(diag_system.dim, rng)
                rho = 0.7 * base + 0.3 * np.outer(psi, psi.conj())
            flagged = is_ife_mixed(rho, diag_dec)
            dev = trace_density_matrix(diag_system, rho, grid).max_deviation
            deviated = dev <= 1e-8 * diag_system.dim
            assert flagged == deviated

    def test_pure_state_consistency(self, diag_system, diag_dec):
        rng = np.random.default_rng(13)
        states = [diag_dec.sectors[0].basis[:, 0], random_state(diag_system.dim, rng)]
        mix = (diag_dec.sectors[0].basis[:, 0] + diag_dec.sectors[1].basis[:, 0]) / np.sqrt(2)
        states.append(mix)
        for psi in states:
            as_mixed = is_ife_mixed(np.outer(psi, psi.conj()), diag_dec)
            as_pure = classify_pure(psi, diag_system) is not None
            assert as_mixed == as_pure

    def test_energy_conserved_for_ife_mixed(self, star_params_n2, star_system_n2):
        dec = spin_star_ife_basis(star_params_n2)
        rho = random_ife_mixed(dec, [1.0], seed=21)
        report = trace_density_matrix(star_system_n2, rho, time_grid())
        e_a, e_b = report.energy_a, report.energy_b
        assert np.abs(e_a - e_a[0]).max() <= 1e-9
        assert np.abs(e_b - e_b[0]).max() <= 1e-9


def random_density_matrix(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def reference_phase_conjugations(h, rho, times):
    """exp(-iht) rho exp(iht) with h diagonalized on every call, as before
    the spectra were cached."""
    w, v = np.linalg.eigh(h)
    rho_eig = v.conj().T @ rho @ v
    for t in times:
        phases = np.exp(-1j * w * t)
        yield v @ (np.outer(phases, phases.conj()) * rho_eig) @ v.conj().T


class TestSharedSpectra:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_per_call_factorization(self, seed):
        rng = np.random.default_rng(seed)
        sys_ = commuting_system(2, 3, rng)
        rho = random_density_matrix(6, rng)
        times = time_grid(3.0, 7)
        full = list(reference_phase_conjugations(build_total(sys_), rho, times))
        free = list(reference_phase_conjugations(build_h0(sys_), rho, times))
        expected = np.array([float(np.linalg.norm(a - b)) for a, b in zip(full, free)])
        # the eigenbasis formulas change only the last bits
        atol = agreement_tol(sys_)
        report = trace_density_matrix(sys_, rho, times)
        assert_allclose(report.deviation, expected, rtol=0, atol=atol)
        op_a = kron(sys_.h_a, np.eye(3))
        op_b = kron(np.eye(2), sys_.h_b)
        e_a, e_b = report.energy_a, report.energy_b
        assert_allclose(e_a, [float(np.trace(r @ op_a).real) for r in full], rtol=0, atol=atol)
        assert_allclose(e_b, [float(np.trace(r @ op_b).real) for r in full], rtol=0, atol=atol)

    def test_samples_share_one_factorization(self, diag_dec, monkeypatch):
        # a fresh copy of diag_system, whose spectra other tests may have cached
        sys_ = diagonal_multisector_system(np.random.default_rng(100), 2, 3)
        calls = record_eigensolves(monkeypatch)
        weights = np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors)
        for seed in range(4):
            rho = random_ife_mixed(diag_dec, weights, seed)
            trace_density_matrix(sys_, rho, time_grid(1.0, 3))
        # H, and the factors from which the spectrum of H_0 is built
        assert factorized_operators(calls, sys_) == ["H", "h_a", "h_b"]

    def test_energy_trace_checks_dimension(self, diag_system):
        with pytest.raises(ValueError, match="state has dimension 4, expected 6"):
            trace_density_matrix(diag_system, np.eye(4) / 4.0, time_grid(1.0, 3))


class TestBlockedDeviation:
    """The deviation, a block of grid times at a time, against the per-step formula."""

    @pytest.mark.parametrize("dims, steps", [
        ((2, 3), 101), ((4, 8), 101), ((8, 16), 101), ((2, 3), 1), ((4, 8), 1),
    ])
    def test_agrees_with_per_step_formula(self, dims, steps):
        rng = np.random.default_rng(60)
        sys_ = generic_system(*dims, rng)
        rho = random_density_matrix(sys_.dim, rng)
        times = np.linspace(0.5, 10.0, steps)  # one step is at t = 0.5, not 0
        chunk = max(1, _CHUNK_ENTRIES // sys_.dim**2)
        if sys_.dim == 32 and steps == 101:
            assert (times.size // chunk, times.size % chunk) == (6, 5)  # six full blocks, one partial
        report = trace_density_matrix(sys_, rho, times)
        expected = per_step_mixed_deviation(sys_, rho, times)
        assert expected.max() > 1e-2
        assert_allclose(report.deviation, expected, rtol=0, atol=agreement_tol(sys_))
        assert report.max_deviation == report.deviation.max()

    @pytest.mark.parametrize("dims, family", [
        pytest.param((4, 8), generic_system, id="dims0"),
        pytest.param((8, 16), generic_system, id="dims1"),
        pytest.param((4, 32), commuting_system, id="frequency_form"),
    ])
    def test_working_set_is_a_few_blocks(self, dims, family):
        # a full T x d x d stack would be 26 MiB at d = 128, and so would the
        # frequency form's T x Q x d x d stack of phased terms
        rng = np.random.default_rng(61)
        sys_ = family(*dims, rng)
        rho = random_density_matrix(sys_.dim, rng)
        times = time_grid(10.0, 101)
        assert _uses_frequencies(sys_, times.size) == (family is commuting_system)
        trace_density_matrix(sys_, rho, times)  # warm the spectra cache
        tracemalloc.start()
        try:
            trace_density_matrix(sys_, rho, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (8 * sys_.dim**2 + 6 * _CHUNK_ENTRIES) * 16


def stack_test_system(case):
    """A spin star with ``N`` spins, or a ``DIM_PAIRS`` system of one of the three families."""
    rng = np.random.default_rng(80)
    if case[0] == "star":
        n = case[1]
        return build_spin_star(SpinStarParams(n, 1.0, 1.3, tuple(1.0 + 0.3 * rng.random(n))))
    family, (dim_a, dim_b) = case
    return {"commuting": commuting_system, "subspace_zero": subspace_zero_system,
            "generic": generic_system}[family](dim_a, dim_b, rng)


STACK_CASES = [("star", n) for n in range(1, 6)] + [
    (family, dims) for family in ("commuting", "subspace_zero", "generic") for dims in DIM_PAIRS]


class TestStackedStates:
    """The deviation takes a group of states, each with the bits it gives alone."""

    @pytest.mark.parametrize("case", STACK_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    def test_stack_gives_the_bits_of_each_state_alone(self, case):
        sys_ = stack_test_system(case)
        rng = np.random.default_rng(81)
        # at d = 64 a group is four states, so five states go in as two groups,
        # as the samples of mixed do; the deviation takes its states as
        # checked, so they go in as Hermitian parts
        rhos = np.stack([check_density_matrix(random_density_matrix(sys_.dim, rng))
                         for _ in range(5)])
        times = np.linspace(0.5, 10.0, 101)
        group, v = _block_size(sys_.dim), _total_eig(sys_)[1]
        grouped = np.concatenate([
            mixed._deviation(sys_, rhos[lo:lo + group], v.conj().T @ rhos[lo:lo + group] @ v, times)
            for lo in range(0, 5, group)])
        for rho, deviation in zip(rhos, grouped):
            assert np.array_equal(deviation, trace_density_matrix(sys_, rho, times).deviation)
            assert_allclose(deviation, per_step_mixed_deviation(sys_, rho, times),
                            rtol=0, atol=agreement_tol(sys_))

    @pytest.mark.parametrize("case", [c for c in STACK_CASES if c[0] != "generic"],
                             ids=lambda c: f"{c[0]}-{c[1]}")
    def test_sampler_gives_the_numbers_of_each_sample_alone(self, case):
        # generic systems have no sector to sample
        sys_ = stack_test_system(case)
        dec = ife_sectors(sys_)
        weights = np.full(dec.n_sectors, 1.0 / dec.n_sectors)
        times = np.linspace(0.5, 10.0, 101)
        seeds = range(40, 45)
        checks = list(mixed._sampled_checks(sys_, dec, seeds, times))
        assert [seed for seed, *_ in checks] == list(seeds)
        for seed, outside, cross, max_deviation in checks:
            rho = random_ife_mixed(dec, weights, seed)
            assert (outside, cross) == block_structure_residuals(rho, dec)
            assert max_deviation == trace_density_matrix(sys_, rho, times).max_deviation

    def test_block_size(self):
        assert [_block_size(d) for d in (2, 8, 32, 64, 90, 91, 128, 512)] \
            == [4096, 256, 16, 4, 2, 1, 1, 1]


# H_0 has 14 levels and 31 Bohr frequencies.
STAR_N6 = SpinStarParams(6, 1.0, 0.4, (1.0, 1.1, 1.2, 1.3, 1.4, 1.5))


@pytest.fixture(scope="module")
def commuting_128():
    """A d = 128 commuting system, whose ``H_0`` is degenerate, and its five sectors."""
    sys_ = commuting_system(4, 32, np.random.default_rng(70))
    return sys_, ife_sectors(sys_)


@pytest.fixture(scope="module", params=["commuting", "star"])
def degenerate_128(request):
    """A d = 128 system with a degenerate ``H_0`` and its sectors."""
    if request.param == "commuting":
        return request.getfixturevalue("commuting_128")
    return build_spin_star(STAR_N6), spin_star_ife_basis(STAR_N6)


def frequency_test_states(dec, rng):
    """An IFE sample and a full-rank non-IFE state."""
    ife = random_ife_mixed(dec, np.full(dec.n_sectors, 1.0 / dec.n_sectors), 7)
    return {"ife": ife, "full_rank": random_density_matrix(dec.dim, rng)}


class TestFrequencyForm:
    """The deviation through the Bohr frequencies of a degenerate ``H_0`` (d >= 91)."""

    @pytest.mark.parametrize("steps", [26, 101])
    def test_agrees_with_per_step_formula(self, degenerate_128, steps):
        sys_, dec = degenerate_128
        assert _uses_frequencies(sys_, steps)
        times = np.linspace(0.5, 10.0, steps)
        for name, rho in frequency_test_states(dec, np.random.default_rng(71)).items():
            report = trace_density_matrix(sys_, rho, times)
            expected = per_step_mixed_deviation(sys_, rho, times)
            assert_allclose(report.deviation, expected, rtol=0, atol=agreement_tol(sys_),
                            err_msg=name)
            if name == "ife":
                assert report.max_deviation <= agreement_tol(sys_)
            else:
                assert expected.max() > 1e-2

    def test_local_unitary_invariance(self, degenerate_128):
        # (U_a (x) U_b) rho (U_a (x) U_b)^H on the locally rotated system
        # evolves as rho does on the original, so the deviation is the same
        sys_, dec = degenerate_128
        rng = np.random.default_rng(72)
        rotated, u = locally_rotated(sys_, rng)
        times = time_grid(10.0, 26)
        assert _uses_frequencies(rotated, times.size)
        for name, rho in frequency_test_states(dec, rng).items():
            original = trace_density_matrix(sys_, rho, times).deviation
            turned = trace_density_matrix(rotated, u @ rho @ u.conj().T, times).deviation
            assert_allclose(turned, original, rtol=0, atol=agreement_tol(sys_), err_msg=name)

    @pytest.mark.parametrize("make, steps", [
        pytest.param(lambda rng: generic_system(8, 16, rng), 101, id="generic_128"),
        pytest.param(lambda rng: commuting_system(3, 30, rng), 101, id="commuting_90"),
        pytest.param(lambda rng: build_spin_star(SpinStarParams(4, 1.0, 0.4, (1.0, 1.1, 1.2, 1.3))),
                     101, id="star_32"),
        pytest.param(lambda rng: build_spin_star(STAR_N6), 1, id="star_128_one_step"),
        *(pytest.param(lambda rng, dims=dims: diagonal_multisector_system(rng, *dims), 101,
                       id=f"diagonal_{dims[0]}x{dims[1]}") for dims in DIM_PAIRS),
    ])
    def test_dense_form_elsewhere(self, make, steps, monkeypatch):
        # a nondegenerate H_0, d < 91, and a grid too short to pay for the terms
        rng = np.random.default_rng(73)
        sys_ = make(rng)
        assert not _uses_frequencies(sys_, steps)

        def refuse(*args):
            raise AssertionError("frequency form taken")

        monkeypatch.setattr(mixed, "_hermitian_deviation_squares", refuse)
        rho = random_density_matrix(sys_.dim, rng)
        times = time_grid(10.0, steps)
        report = trace_density_matrix(sys_, rho, times)
        assert_allclose(report.deviation, per_step_mixed_deviation(sys_, rho, times),
                        rtol=0, atol=agreement_tol(sys_))

    def test_count_includes_the_terms(self):
        # h_a with two levels and h_b with six: 12 levels of H_0 and 3 * 31 = 93
        # frequencies, whose terms S_q (Q d^3 / 2) cost more than 26 dense steps
        rng = np.random.default_rng(77)
        h_b = np.diag(np.repeat(rng.standard_normal(6), [11, 11, 11, 11, 10, 10]))
        sys_ = BipartiteSystem(2, 64, np.diag([0.0, 0.37]), h_b, random_hermitian(128, rng))
        freq = _free_frequencies(sys_)
        assert (freq.pair.shape[0], freq.nu.size) == (12, 93)
        assert not _uses_frequencies(sys_, 26)

    def test_snapping_error_within_spread_bound(self):
        # one eigenvalue of h_a moved by a third of the level tolerance: H_0's
        # levels are split, and snapping them to their means moves each phase
        # rate by at most spread, so the deviation by at most spread * max|t| * ||rho||_F
        rng = np.random.default_rng(74)
        base = commuting_system(4, 32, rng)
        w_a, u_a = np.linalg.eigh(base.h_a)
        scale = np.abs(w_a).max() + np.abs(np.linalg.eigvalsh(base.h_b)).max()
        w_a[0] += 1e-12 * scale / 3
        sys_ = BipartiteSystem(4, 32, (u_a * w_a) @ u_a.conj().T, base.h_b, base.h_i)
        times = time_grid(10.0, 101)
        assert _uses_frequencies(sys_, times.size)
        spread = _free_frequencies(sys_).spread
        rho = random_density_matrix(sys_.dim, rng)
        bound = spread * times.max() * float(np.linalg.norm(rho))
        assert bound > agreement_tol(sys_)  # the split, not roundoff, sets the bound
        error = trace_density_matrix(sys_, rho, times).deviation \
            - per_step_mixed_deviation(sys_, rho, times)
        assert np.abs(error).max() <= bound + agreement_tol(sys_)

    def test_chained_frequencies_are_kept_apart(self):
        # level gaps of 1.3, 1.3 and 1.8 tolerances: the differences 1.3, 1.8,
        # 2.6 and 3.1 chain into one group holding both e_1 - e_0 and e_2 - e_0,
        # so every difference is kept as a frequency of its own
        levels = np.array([0.0, 1.3, 2.6, 4.4]) * 1e-12
        rng = np.random.default_rng(75)
        u_a = random_unitary(4, rng)
        sys_ = BipartiteSystem(4, 32, (u_a * levels) @ u_a.conj().T, np.zeros((32, 32)),
                               1e-12 * random_hermitian(128, rng))
        freq = _free_frequencies(sys_)
        assert freq.nu.size == 16 and np.unique(freq.pair).size == 16
        times = time_grid(1e12, 26)  # phases of order ten
        assert _uses_frequencies(sys_, times.size)
        rho = random_density_matrix(128, rng)
        assert_allclose(trace_density_matrix(sys_, rho, times).deviation,
                        per_step_mixed_deviation(sys_, rho, times), rtol=0,
                        atol=agreement_tol(sys_))


def contract_test_state(case, dec):
    """A matrix that breaks the state contract of the ``mixed`` entry points."""
    if case == "wrong_dimension":  # named before its NaN
        return np.full((4, 4), np.nan)
    if case == "nan":
        rho = random_ife_mixed(dec, np.full(dec.n_sectors, 1.0 / dec.n_sectors), 7)
        rho[3, 5] = np.nan
        return rho
    if case == "stack":  # the entry points take one state
        return np.stack([np.eye(dec.dim) / dec.dim] * 2)
    if case == "non_hermitian":
        rng = np.random.default_rng(76)
        z = rng.standard_normal((dec.dim,) * 2) + 1j * rng.standard_normal((dec.dim,) * 2)
        return z / np.linalg.norm(z)
    # B_1[:, 0] B_0[:, 0]^H: a coherence in the lower block triangle of T^H rho T only
    return np.outer(dec.sectors[1].basis[:, 0], dec.sectors[0].basis[:, 0].conj())


ENTRY_POINTS = {
    "trace_density_matrix": lambda sys_, dec, rho: trace_density_matrix(sys_, rho, time_grid(1.0, 3)),
    "block_structure_residuals": lambda sys_, dec, rho: block_structure_residuals(rho, dec),
}


class TestStateContract:
    """Both entry points take a finite Hermitian matrix of the system's dimension."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("case, message", [
        pytest.param("wrong_dimension", "state has dimension 4, expected 128", id="wrong_dimension"),
        pytest.param("stack", "expected a square matrix, got shape \\(2, 128, 128\\)", id="stack"),
        pytest.param("nan", "density matrix has non-finite entries", id="nan"),
        pytest.param("non_hermitian", "density matrix is not Hermitian", id="non_hermitian"),
        # only the blocks above the diagonal are summed, so without the
        # contract its cross norm would read ~5e-16 and its adjoint's 1.0
        pytest.param("lower_coherence", "density matrix is not Hermitian", id="lower_coherence"),
    ])
    def test_rejects(self, commuting_128, entry, case, message):
        sys_, dec = commuting_128
        rho = contract_test_state(case, dec)
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](sys_, dec, rho)

    def test_near_hermitian_input_is_traced_as_its_hermitian_part(self, diag_system, diag_dec):
        rho = random_ife_mixed(diag_dec, np.full(diag_dec.n_sectors, 1.0 / diag_dec.n_sectors), 8)
        skewed = rho.copy()
        skewed[0, 1] += 1e-14j  # a defect below HERMITIAN_RTOL
        hermitian = 0.5 * (skewed + skewed.conj().T)
        times = time_grid(2.0, 5)
        assert np.array_equal(trace_density_matrix(diag_system, skewed, times).deviation,
                              trace_density_matrix(diag_system, hermitian, times).deviation)
        assert block_structure_residuals(skewed, diag_dec) \
            == block_structure_residuals(hermitian, diag_dec)
