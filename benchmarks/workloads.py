"""Seeded inputs, CLI job lists and output checks for the three workloads.

Every input file is generated here from the workload seed with plain
numpy and written as JSON in the system/state file format the CLI reads
(complex entries as ``[re, im]`` pairs).  The program under test sees
only those files.  Each job carries the exit code it must return and a
check of its report, built from what the generator knows about the
system it constructed, not from the program's own answers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

# Dimension pairs (dim_a, dim_b) cycled through by the battery: dim 4..16.
# Sizes, sector counts and degeneracies depend on a system's index, not on
# the seed, so every seed asks for the same amount of work.
BATTERY_DIMS = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 6), (3, 5), (2, 8), (2, 5), (4, 3)]
BATTERY_FAMILIES = (("commuting", 30), ("subspace_zero", 30), ("generic", 40))
BATTERY_SAMPLES = 3
BATTERY_STAR_SIZES = (1, 2, 3, 1, 2, 3, 1, 2, 3)

# Odd job counts per command and pass keep each per-command median on one
# call instead of between two unlike ones.
STAR_SIZES = (4, 5, 6)
STAR_ORACLE_SIZES = (3, 4, 5)
STAR_DYNAMICS_N = 4

DYN_DIM_A, DYN_DIM_B = 4, 32
DYN_MULTIPLICITIES = (43, 43, 42)
DYN_STAR_N = 3
DYN_STAR_JOBS = 7
DYN_SHORT_MIXED_JOBS = 3
# A coarser time grid than the CLI default of 101 points keeps a pass short.
DYN_STEPS = 26

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = SIGMA_PLUS.T.copy()

# Matrix residuals a correct sector basis must meet in the independent
# checks below, relative to the operator scale.
BASIS_RTOL = 1e-8


@dataclass
class Job:
    """One CLI invocation, its expected exit code and its report check.

    ``command`` names the per-command metric the call is timed under,
    ``kind`` the (command, mode) pair the warm-up covers.  ``check``
    returns a problem description, or None when the report is right.
    """

    command: str
    kind: str
    argv: list[str]
    expect_exit: int
    check: Callable[[dict], str | None]
    out: Path | None = None


# ----------------------------------------------------------------------
# random objects


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def levels(n, count, rng):
    """``n`` small integers cycling through ``count`` values, shuffled.

    Degeneracies, and so the work the program does, depend on ``n`` and
    ``count`` only, not on the seed.
    """
    return rng.permutation(np.resize(np.arange(count) - count // 2, n)).astype(float)


def hermitize(m):
    return 0.5 * (m + m.conj().T)


def conjugate_diag(u, d):
    return hermitize((u * d) @ u.conj().T)


def _pairs(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return [[float(x.real), float(x.imag)] for x in m]
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def write_system(path: Path, dim_a, dim_b, h_a, h_b, h_i, label) -> None:
    doc = {"dim_a": dim_a, "dim_b": dim_b, "h_a": _pairs(h_a), "h_b": _pairs(h_b),
           "h_i": _pairs(h_i), "label": label}
    path.write_text(json.dumps(doc), encoding="utf-8")


def write_state(path: Path, key: str, value, label) -> None:
    path.write_text(json.dumps({key: _pairs(value), "label": label}), encoding="utf-8")


def h0_of(dim_a, dim_b, h_a, h_b):
    return np.kron(h_a, np.eye(dim_b)) + np.kron(np.eye(dim_a), h_b)


# ----------------------------------------------------------------------
# report checks


def _claims_pass(report) -> str | None:
    claims = report.get("claims", [])
    failed = [c["name"] for c in claims if not c["pass"]]
    return f"claims failed: {failed}" if failed else None


def _claims_fail(report) -> str | None:
    if all(c["pass"] for c in report.get("claims", [])):
        return "expected a failing claim, all passed"
    return None


def _sector_dims(report, dims, alphas=None) -> str | None:
    sectors = report.get("sectors", [])
    got = [s["dimension"] for s in sectors]
    if got != list(dims):
        return f"sector dimensions {got}, expected {list(dims)}"
    if alphas:
        worst = max((abs(s["alpha"] - a) for s, a in zip(sectors, alphas)), default=0.0)
        if worst > 1e-7 * max(1.0, max(abs(a) for a in alphas)):
            return f"sector alphas off by {worst:.2e}"
    return None


def _all(*checks):
    def run(report):
        for check in checks:
            problem = check(report)
            if problem:
                return problem
        return None
    return run


def _traces(count, steps):
    def run(report):
        traces = report.get("traces", [])
        if len(traces) != count:
            return f"{len(traces)} traces, expected {count}"
        if any(len(t["times"]) != steps for t in traces):
            return "trace length differs from the time grid"
        return None
    return run


def _samples(count):
    def run(report):
        got = len(report.get("samples", []))
        return None if got == count else f"{got} samples, expected {count}"
    return run


def _basis_check(h_0, h_i, dim):
    """The alpha = 0 sector must be orthonormal, in Ker H_I and in Ker [H_0, H_I]."""
    scale = max(1.0, float(np.linalg.norm(h_i, 2))) * max(1.0, float(np.linalg.norm(h_0, 2)))

    def run(report):
        pairs = np.asarray(report["sectors"][0]["basis"], dtype=float)
        basis = pairs[..., 0] + 1j * pairs[..., 1]
        if basis.shape != (h_i.shape[0], dim):
            return f"basis shape {basis.shape}"
        gram = basis.conj().T @ basis - np.eye(dim)
        hib = h_i @ basis
        resid = max(float(np.abs(gram).max()),
                    float(np.abs(hib).max()) / scale,
                    float(np.abs(h_0 @ hib - h_i @ (h_0 @ basis)).max()) / scale)
        return None if resid <= BASIS_RTOL else f"sector basis residual {resid:.2e}"
    return run


# ----------------------------------------------------------------------
# spin star


def star_params(n, rng):
    """Off-resonance spin-star parameters with distinct positive couplings."""
    omega0 = float(rng.uniform(0.8, 1.6))
    omega = float(rng.uniform(0.2, 0.6))
    gammas = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    return omega0, omega, [float(g) for g in gammas]


def star_dimension(n):
    """Dimension of the single alpha = 0 IFE sector of an N-spin star."""
    return 2 * comb(n, n // 2)


def _site(op, i, n):
    out = np.eye(1, dtype=complex)
    for k in range(n):
        out = np.kron(out, op if k == i else np.eye(2))
    return out


def star_matrices(n, omega0, omega, gammas):
    h_a = omega0 * SIGMA_Z
    h_b = omega * sum(_site(SIGMA_Z, i, n) for i in range(n))
    h_i = sum(g * (np.kron(SIGMA_PLUS, _site(SIGMA_MINUS, i, n))
                   + np.kron(SIGMA_MINUS, _site(SIGMA_PLUS, i, n)))
              for i, g in enumerate(gammas))
    return h_a, h_b, h_i


def spin_star_job(n, params) -> Job:
    omega0, omega, gammas = params
    argv = ["spin-star", "--n", str(n), "--omega0", repr(omega0), "--omega", repr(omega),
            "--gammas", ",".join(repr(g) for g in gammas), "--check-all"]
    return Job("spin_star", "spin-star", argv, 0,
               _all(_claims_pass, lambda r: _sector_dims(r, [star_dimension(n)], [0.0])))


# ----------------------------------------------------------------------
# workloads


def battery(root: Path, seed: int, tiny: bool = False) -> list[Job]:
    """100 small systems in three families, plus small spin stars."""
    rng = np.random.default_rng(seed)
    jobs = []
    index = 0
    for family, count in BATTERY_FAMILIES:
        for k in range(count if not tiny else 2):
            dim_a, dim_b = BATTERY_DIMS[k % len(BATTERY_DIMS)]
            dim = dim_a * dim_b
            path = root / f"battery_{index:03d}_{family}.json"
            if family == "commuting":
                d_a = levels(dim_a, 5, rng)
                d_b = levels(dim_b, 5, rng)
                d_i = levels(dim, 2 + k % 4, rng)
                if k % 2 == 0:
                    u_a, u_b = random_unitary(dim_a, rng), random_unitary(dim_b, rng)
                    mats = (conjugate_diag(u_a, d_a), conjugate_diag(u_b, d_b),
                            conjugate_diag(np.kron(u_a, u_b), d_i))
                else:
                    mats = (np.diag(d_a), np.diag(d_b), np.diag(d_i))
                alphas, dims = np.unique(d_i, return_counts=True)
                alphas, dims = [float(a) for a in alphas], [int(m) for m in dims]
            elif family == "subspace_zero":
                n_zero = 1 + (7 * k) % max(1, dim // 2)
                h_i = random_hermitian(dim, rng)
                idx = rng.permutation(dim)[:n_zero]
                h_i[idx, :] = 0.0
                h_i[:, idx] = 0.0
                mats = (np.diag(rng.standard_normal(dim_a)), np.diag(rng.standard_normal(dim_b)), h_i)
                alphas, dims = [0.0], [n_zero]
            else:
                mats = (random_hermitian(dim_a, rng), random_hermitian(dim_b, rng),
                        random_hermitian(dim, rng))
                alphas, dims = [], []
            write_system(path, dim_a, dim_b, *mats, label=f"{family}_{index}")
            src = str(path)
            sector_check = lambda r, d=dims, a=alphas: _sector_dims(r, d, a)
            jobs.append(Job("sectors", "sectors", ["sectors", src], 0 if dims else 3, sector_check))
            jobs.append(Job("oracle_diff", "oracle-diff", ["oracle-diff", src], 0,
                            _all(_claims_pass, sector_check)))
            if dims:
                k_sec = index % len(dims)
                jobs.append(Job("verify", "verify-sector", ["verify", src, "--sector", str(k_sec)], 0,
                                _all(_claims_pass, _traces(dims[k_sec], 101))))
                jobs.append(Job("mixed", "mixed-sample",
                                ["mixed", src, "--samples", str(BATTERY_SAMPLES)], 0,
                                _all(_claims_pass, _samples(BATTERY_SAMPLES), sector_check)))
            index += 1
    for n in BATTERY_STAR_SIZES[: 3 if tiny else None]:
        jobs.append(spin_star_job(n, star_params(n, rng)))
    return jobs


def star(root: Path, seed: int, tiny: bool = False) -> list[Job]:
    """Non-homogeneous spin stars: sectors with bases, claims, oracle."""
    rng = np.random.default_rng(seed)
    jobs = []
    sizes, oracle_sizes, traced_n = (((2, 3), (1, 2, 3), 3) if tiny
                                     else (STAR_SIZES, STAR_ORACLE_SIZES, STAR_DYNAMICS_N))
    for n in sorted(set(sizes) | set(oracle_sizes)):
        params = star_params(n, rng)
        h_a, h_b, h_i = star_matrices(n, *params)
        path = root / f"star_n{n}.json"
        write_system(path, 2, 2 ** n, h_a, h_b, h_i, label=f"star_n{n}")
        src = str(path)
        dim = star_dimension(n)
        sector_check = lambda r, d=dim: _sector_dims(r, [d], [0.0])
        if n in sizes:
            jobs.append(Job("sectors", "sectors", ["sectors", src, "--include-bases"], 0,
                            _all(sector_check, _basis_check(h0_of(2, 2 ** n, h_a, h_b), h_i, dim))))
            jobs.append(spin_star_job(n, params))
        if n in oracle_sizes:
            jobs.append(Job("oracle_diff", "oracle-diff", ["oracle-diff", src], 0,
                            _all(_claims_pass, sector_check)))
        if n == traced_n:
            jobs.append(Job("verify", "verify-sector", ["verify", src, "--sector", "0"], 0,
                            _all(_claims_pass, _traces(dim, 101))))
            jobs.append(Job("mixed", "mixed-sample", ["mixed", src], 0,
                            _all(_claims_pass, _samples(10), sector_check)))
    return jobs


def dynamics(root: Path, seed: int, tiny: bool = False) -> list[Job]:
    """One commuting dim-128 system with three coupling values: tracer-bound."""
    rng = np.random.default_rng(seed)
    dim_a, dim_b = (2, 4) if tiny else (DYN_DIM_A, DYN_DIM_B)
    mults = (3, 3, 2) if tiny else DYN_MULTIPLICITIES
    dim = dim_a * dim_b
    values = np.array([-3.0, 0.0, 3.0]) + rng.uniform(-0.5, 0.5, 3)
    d_i = rng.permutation(np.repeat(values, mults))
    # Fixed free spectra, shuffled: every seed has the same degeneracy pattern,
    # so the same amount of work.
    d_a = rng.permutation(np.linspace(-1.5, 1.5, dim_a))
    d_b = rng.permutation(np.resize([-2.0, -1.0, 0.0, 1.0, 2.0], dim_b))
    u_a, u_b = random_unitary(dim_a, rng), random_unitary(dim_b, rng)
    u = np.kron(u_a, u_b)
    path = root / "dynamics_system.json"
    write_system(path, dim_a, dim_b, conjugate_diag(u_a, d_a), conjugate_diag(u_b, d_b),
                 conjugate_diag(u, d_i), label="dynamics")
    src = str(path)
    alphas = [float(v) for v in values]
    bases = [u[:, d_i == v] for v in values]

    # A sector-block density matrix (IFE) and a two-sector superposition (not IFE).
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((dim, dim), dtype=complex)
    for b, w in zip(bases, weights):
        g = rng.standard_normal((b.shape[1],) * 2) + 1j * rng.standard_normal((b.shape[1],) * 2)
        block = g.conj().T @ g
        rho += w / np.trace(block).real * (b @ block @ b.conj().T)
    rho = hermitize(rho)
    rho /= np.trace(rho).real
    rho_path = root / "dynamics_rho.json"
    write_state(rho_path, "rho", rho, "sector_block")
    psi = bases[0][:, 0] + bases[2][:, 0]
    psi_path = root / "dynamics_cross.json"
    write_state(psi_path, "vector", psi / np.linalg.norm(psi), "two_sectors")

    sector_check = lambda r: _sector_dims(r, list(mults), alphas)
    grid = ["--steps", str(DYN_STEPS)]
    jobs = [
        Job("sectors", "sectors", ["sectors", src], 0, sector_check),
        Job("oracle_diff", "oracle-diff", ["oracle-diff", src], 0, _all(_claims_pass, sector_check)),
    ]
    for k, m in enumerate(mults):
        jobs.append(Job("verify", "verify-sector", ["verify", src, "--sector", str(k)] + grid, 0,
                        _all(_claims_pass, _traces(m, DYN_STEPS))))
    jobs += [
        Job("verify", "verify-rho", ["verify", src, "--state", str(rho_path)] + grid, 0,
            _all(_claims_pass, _traces(1, DYN_STEPS))),
        Job("verify", "verify-vector", ["verify", src, "--state", str(psi_path)] + grid, 4,
            _all(_claims_fail, _traces(1, DYN_STEPS))),
        Job("mixed", "mixed-sample", ["mixed", src] + grid, 0,
            _all(_claims_pass, _samples(10), sector_check)),

        Job("mixed", "mixed-rho", ["mixed", src, "--state", str(rho_path)] + grid, 0,
            _all(_claims_pass, sector_check)),
    ]
    # Several like-sized short jobs, so that each of these medians lies among
    # like calls and one noisy call cannot move it.
    jobs += [Job("mixed", "mixed-sample",
                 ["mixed", src, "--samples", "3", "--seed", str(seed + j)] + grid,
                 0, _all(_claims_pass, _samples(3), sector_check))
             for j in range(DYN_SHORT_MIXED_JOBS)]
    jobs += [spin_star_job(DYN_STAR_N, star_params(DYN_STAR_N, rng)) for _ in range(DYN_STAR_JOBS)]
    return jobs


WORKLOADS = {"battery": battery, "star": star, "dynamics": dynamics}
