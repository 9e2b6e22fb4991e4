"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines as they print).  Every tolerance is pinned here; the
randomized batteries are fully seeded.
"""

import json
import time

import numpy as np
import pytest

from ifestates import (
    SpinStarParams,
    build_h0,
    build_spin_star,
    build_total,
    ife_sectors,
    ife_sectors_oracle,
    multiplicity,
    random_ife_mixed,
    spin_star_ife_basis,
    time_grid,
    trace_density_matrix,
    trace_pure_states,
    verify_spin_star_claims,
)
from ifestates.cli import main as cli_main
from ifestates.linalg import max_principal_angle
from ifestates.serialize import canonical_dumps
from ifestates.spin_star import PAULI_Z, admissible_r, dressing_operator, gamma_norm

from helpers import PAULI_PLUS, acceptance_systems, diagonal_multisector_system, pauli_site, total_sz

GRID = time_grid(10.0, 101)


def _verdict(number, name, problems, budget=None, elapsed=None):
    ok = not problems
    if budget is not None and elapsed is not None and elapsed > budget:
        ok = False
        problems = list(problems) + [f"runtime {elapsed:.1f}s exceeded budget {budget}s"]
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}): {problems[:5]}"


@pytest.fixture(scope="module")
def battery():
    systems = acceptance_systems(seed=1234)
    kinds = [k for k, _ in systems]
    assert kinds.count("commuting") == 30
    assert kinds.count("subspace_zero") == 30
    assert kinds.count("generic") == 40
    return systems


@pytest.fixture(scope="module")
def star_parameter_sets():
    rng = np.random.default_rng(777)
    sets = []
    for n in range(1, 6):
        for _ in range(20):
            while True:
                omega0, omega = rng.uniform(-1.5, 1.5, 2)
                if abs(omega0 - omega) >= 0.1:
                    break
            gammas = tuple(rng.uniform(0.1, 2.0, n))
            sets.append(SpinStarParams(n, float(omega0), float(omega), gammas))
    return sets


def test_criterion_1_oracle_equivalence(battery):
    started = time.perf_counter()
    problems = []
    for idx, (kind, system) in enumerate(battery):
        direct = ife_sectors(system)
        oracle = ife_sectors_oracle(system)
        if direct.n_sectors != oracle.n_sectors:
            problems.append(f"#{idx} {kind}: {direct.n_sectors} vs {oracle.n_sectors} sectors")
            continue
        for s1, s2 in zip(direct.sectors, oracle.sectors):
            if s1.dimension != s2.dimension:
                problems.append(f"#{idx} {kind} alpha={s1.alpha}: dims {s1.dimension} vs {s2.dimension}")
            elif max_principal_angle(s1.basis, s2.basis) > 1e-7:
                problems.append(f"#{idx} {kind} alpha={s1.alpha}: angle too large")
    _verdict(1, "oracle equivalence on 100 systems", problems,
             budget=30.0, elapsed=time.perf_counter() - started)


def test_criterion_2_evolution_identity(battery):
    started = time.perf_counter()
    problems = []
    for idx, (kind, system) in enumerate(battery):
        dec = ife_sectors(system)
        if dec.n_sectors == 0:
            continue
        w_h, v_h = np.linalg.eigh(build_total(system))
        w_0, v_0 = np.linalg.eigh(build_h0(system))
        bound = 1e-9 * np.sqrt(system.dim)
        for sector in dec.sectors:
            coeff_h = v_h.conj().T @ sector.basis
            coeff_0 = v_0.conj().T @ sector.basis
            worst = 0.0
            for t in GRID:
                full = v_h @ (np.exp(-1j * w_h * t)[:, None] * coeff_h)
                free = v_0 @ (np.exp(-1j * w_0 * t)[:, None] * coeff_0)
                free *= np.exp(-1j * sector.alpha * t)
                worst = max(worst, float(np.linalg.norm(full - free, axis=0).max()))
            if worst > bound:
                problems.append(f"#{idx} {kind} alpha={sector.alpha}: deviation {worst:.2e} > {bound:.2e}")
    _verdict(2, "evolution identity for every sector vector", problems,
             budget=60.0, elapsed=time.perf_counter() - started)


def test_criterion_3_spin_star_claims(star_parameter_sets):
    started = time.perf_counter()
    problems = []
    for params in star_parameter_sets:
        expected_dim = 2 * sum(multiplicity(params.n_spins, r) for r in admissible_r(params.n_spins))
        analytic = spin_star_ife_basis(params)
        if analytic.sectors[0].dimension != expected_dim:
            problems.append(f"{params}: analytic dim {analytic.sectors[0].dimension} != {expected_dim}")
        for claim in verify_spin_star_claims(params):
            if not claim.passed:
                problems.append(f"{params}: {claim.name} residual {claim.residual:.2e}")
    _verdict(3, "spin-star structural claims, N=1..5 x 20 seeds", problems,
             budget=300.0, elapsed=time.perf_counter() - started)


def test_criterion_4_conservation_laws(star_parameter_sets):
    started = time.perf_counter()
    problems = []
    oscillation_seen = False
    for params in star_parameter_sets:
        system = build_spin_star(params)
        basis = spin_star_ife_basis(params).sectors[0].basis
        s_z = total_sz(params.n_spins)
        for j in range(basis.shape[1]):
            psi = basis[:, j]
            (report,) = trace_pure_states(system, psi, GRID, [0.0], observables=(PAULI_Z, s_z))
            if np.abs(report.energy_a - report.energy_a[0]).max() > 1e-9:
                problems.append(f"{params}: vector {j} energy_a drifts")
            if np.abs(report.energy_b - report.energy_b[0]).max() > 1e-9:
                problems.append(f"{params}: vector {j} energy_b drifts")
            cov = report.covariance
            if np.abs(cov - cov[0]).max() > 1e-8:
                problems.append(f"{params}: vector {j} covariance drifts")
        # counter-check: the fully flipped product state exchanges energy
        flipped = np.zeros(system.dim, dtype=complex)
        flipped[2 ** params.n_spins - 1] = 1.0  # |+, down...down>
        (report,) = trace_pure_states(system, flipped, GRID, [0.0])
        swing = float(np.ptp(report.energy_a))
        if swing > 0.05:
            oscillation_seen = True
    if not oscillation_seen:
        problems.append("no parameter set shows energy_a oscillation > 0.05 for |+, down...down>")
    _verdict(4, "energy and covariance conservation", problems,
             elapsed=time.perf_counter() - started)


def test_criterion_5_mixed_state_criterion(star_params_n2):
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(4242)

    multi = [diagonal_multisector_system(np.random.default_rng(9000 + k), 2, 3) for k in range(3)]
    multi += [diagonal_multisector_system(np.random.default_rng(9100 + k), 2, 4) for k in range(2)]
    star_system = build_spin_star(star_params_n2)
    star_dec = spin_star_ife_basis(star_params_n2)

    # 50 sector-block states must evolve freely
    checked = 0
    for sys_idx, system in enumerate(multi):
        dec = ife_sectors(system)
        weights = np.full(dec.n_sectors, 1.0 / dec.n_sectors)
        for k in range(8):
            rho = random_ife_mixed(dec, weights, seed=100 * sys_idx + k)
            dev = trace_density_matrix(system, rho, GRID).max_deviation
            if dev > 1e-8 * system.dim:
                problems.append(f"multi#{sys_idx} sample {k}: IFE deviation {dev:.2e}")
            checked += 1
    for k in range(10):
        rho = random_ife_mixed(star_dec, [1.0], seed=500 + k)
        dev = trace_density_matrix(star_system, rho, GRID).max_deviation
        if dev > 1e-8 * star_system.dim:
            problems.append(f"spin-star sample {k}: IFE deviation {dev:.2e}")
        checked += 1
    if checked != 50:
        problems.append(f"expected 50 IFE samples, ran {checked}")

    # 50 perturbed states with coherence weight 0.15 >= 0.1 must deviate
    weight = 0.15
    checked = 0
    for sys_idx, system in enumerate(multi):
        dec = ife_sectors(system)
        weights = np.full(dec.n_sectors, 1.0 / dec.n_sectors)
        for k in range(8):
            base = random_ife_mixed(dec, weights, seed=700 + 100 * sys_idx + k)
            pick = rng.choice(dec.n_sectors, 2, replace=False)
            psi_a = dec.sectors[pick[0]].basis[:, 0]
            psi_b = dec.sectors[pick[1]].basis[:, 0]
            chi = (psi_a + psi_b) / np.sqrt(2)
            rho = (1 - 2 * weight) * base + 2 * weight * np.outer(chi, chi.conj())
            dev = trace_density_matrix(system, rho, GRID).max_deviation
            if dev <= 1e-3:
                problems.append(f"multi#{sys_idx} perturbed {k}: deviation {dev:.2e} too small")
            checked += 1
    star_total = star_dec.total_basis()
    proj_out = np.eye(star_system.dim) - star_total @ star_total.conj().T
    for k in range(10):
        base = random_ife_mixed(star_dec, [1.0], seed=900 + k)
        psi = star_dec.sectors[0].basis[:, k % 4]
        out = rng.standard_normal(star_system.dim) + 1j * rng.standard_normal(star_system.dim)
        out = proj_out @ out
        out /= np.linalg.norm(out)
        chi = (psi + out) / np.sqrt(2)
        rho = (1 - 2 * weight) * base + 2 * weight * np.outer(chi, chi.conj())
        dev = trace_density_matrix(star_system, rho, GRID).max_deviation
        if dev <= 1e-3:
            problems.append(f"spin-star perturbed {k}: deviation {dev:.2e} too small")
        checked += 1
    if checked != 50:
        problems.append(f"expected 50 perturbed samples, ran {checked}")

    _verdict(5, "mixed-state block criterion vs dynamics", problems,
             elapsed=time.perf_counter() - started)


def test_criterion_6_dressing_identities():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(31415)
    for case in range(20):
        n = int(rng.integers(1, 7))
        params = SpinStarParams(n, 1.0, 0.5, tuple(rng.uniform(0.1, 2.0, n)))
        a_plus = np.diag(dressing_operator(params, "plus"))
        a_minus = np.diag(dressing_operator(params, "minus"))
        eye = np.eye(2 ** n)
        defect = np.abs(a_plus @ a_minus - eye).max()
        if defect > 1e-12:
            problems.append(f"case {case} (N={n}): inverse defect {defect:.2e}")
        gamma = gamma_norm(params.gammas)
        for i, g_i in enumerate(params.gammas):
            site_plus = pauli_site(PAULI_PLUS, i, n)
            lhs = a_minus @ site_plus @ a_plus
            rhs = site_plus * (gamma / g_i)
            defect = np.abs(lhs - rhs).max()
            if defect > 1e-12:
                problems.append(f"case {case} (N={n}) site {i}: conjugation defect {defect:.2e}")
    _verdict(6, "dressing operator identities", problems,
             elapsed=time.perf_counter() - started)


def test_criterion_7_multiplicity():
    started = time.perf_counter()
    problems = []
    for n in range(1, 11):
        total = sum(int(2 * r + 1) * multiplicity(n, r) for r in admissible_r(n))
        if total != 2 ** n:
            problems.append(f"N={n}: sum rule gives {total}")
    from ifestates import weight_basis

    for n in range(1, 7):
        for r in admissible_r(n):
            counted = weight_basis(n, r, "highest").shape[1]
            if counted != multiplicity(n, r):
                problems.append(f"N={n} r={r}: counted {counted}, formula {multiplicity(n, r)}")
    _verdict(7, "multiplicity sum rule and counts", problems,
             elapsed=time.perf_counter() - started)


def test_criterion_8_cli_contract(data_dir, tmp_path):
    started = time.perf_counter()
    problems = []

    def normalized(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["timing_ms"] = 0.0
        return canonical_dumps(doc)

    star = str(data_dir / "system_spin_star_n2.json")
    goldens = {
        "report_sectors_n2.json": (0, ["sectors", star]),
        "report_spin_star_n2.json": (0, ["spin-star", "--n", "2", "--omega0", "1.0",
                                         "--omega", "0.7", "--gammas", "3,4", "--check-all"]),
        "report_spin_star_n3.json": (0, ["spin-star", "--n", "3", "--omega0", "1.0", "--omega",
                                         "0.4", "--gammas", "1.0,1.2,1.4", "--check-all"]),
        "report_oracle_diff_n2.json": (0, ["oracle-diff", star]),
        "report_verify_ife_n2.json": (0, ["verify", star, "--state",
                                          str(data_dir / "state_ife_n2.json")]),
        "report_mixed_rho_ife_n2.json": (0, ["mixed", star, "--state",
                                             str(data_dir / "rho_ife_n2.json")]),
    }
    for name, (want, argv) in goldens.items():
        out = tmp_path / name
        code = cli_main(argv + ["--out", str(out)])
        if code != want:
            problems.append(f"{argv[0]}: exit {code} != {want}")
        elif normalized(out) != (data_dir / name).read_text(encoding="utf-8"):
            problems.append(f"{argv[0]}: report differs from golden {name}")

    # remaining exit-code paths
    paths = [
        (3, ["sectors", str(data_dir / "system_no_ife.json"),
             "--out", str(tmp_path / "p3.json")]),
        (4, ["verify", star, "--state", str(data_dir / "state_plus_down_down_n2.json"),
             "--out", str(tmp_path / "p4.json")]),
        (5, ["spin-star", "--n", "2", "--omega0", "1.0", "--omega", "1.0", "--gammas", "3,4"]),
        (1, ["sectors", str(data_dir / "system_bad_hermitian.json")]),
    ]
    for want, argv in paths:
        code = cli_main(argv)
        if code != want:
            problems.append(f"{argv[:2]}: exit {code} != {want}")

    # canonical input files survive parse -> serialize byte-identically
    for name in ("system_spin_star_n2.json", "state_ife_n2.json", "rho_ife_n2.json",
                 "system_two_sectors.json", "rho_cross_two_sectors.json"):
        text = (data_dir / name).read_text(encoding="utf-8")
        if canonical_dumps(json.loads(text)) != text:
            problems.append(f"{name}: round trip not byte-identical")

    _verdict(8, "CLI contract and golden files", problems,
             elapsed=time.perf_counter() - started)
