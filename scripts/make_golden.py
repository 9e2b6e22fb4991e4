#!/usr/bin/env python3
"""Regenerate the golden files under tests/data.

Inputs are rebuilt from fixed seeds and literals; report goldens are then
produced by running the CLI on those inputs and zeroing the timing field.
Run from the repository root:

    python scripts/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from ifestates import BipartiteSystem, SpinStarParams, build_spin_star, random_ife_mixed, spin_star_ife_basis
from ifestates.cli import main as cli_main
from ifestates.serialize import (
    canonical_dumps,
    save_density_matrix,
    save_state_vector,
    save_system,
    write_canonical,
)

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z + z.conj().T)


def normalize_report(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["timing_ms"] = 0.0
    path.write_text(canonical_dumps(doc), encoding="utf-8")


def run(argv, out: Path) -> None:
    code = cli_main(argv + ["--out", str(out)])
    print(f"  {' '.join(argv)} -> exit {code}")
    normalize_report(out)


def main() -> int:
    DATA.mkdir(parents=True, exist_ok=True)

    # --- inputs ---------------------------------------------------------
    params = SpinStarParams(2, 1.0, 0.7, (3.0, 4.0))
    star = build_spin_star(params)
    star_path = DATA / "system_spin_star_n2.json"
    save_system(star, star_path, label="spin-star N=2")

    rng = np.random.default_rng(1000)
    no_ife = BipartiteSystem(
        2, 3, random_hermitian(2, rng), random_hermitian(3, rng), random_hermitian(6, rng),
    )
    no_ife_path = DATA / "system_no_ife.json"
    save_system(no_ife, no_ife_path, label="generic 2x3, no IFE states")

    two_sectors = BipartiteSystem(
        2, 3,
        np.diag([1.0, -1.0]).astype(complex),
        np.diag([0.5, -0.5, 1.5]).astype(complex),
        np.diag([2.0, 2.0, -1.0, -1.0, 0.5, 0.5]).astype(complex),
    )
    two_sectors_path = DATA / "system_two_sectors.json"
    save_system(two_sectors, two_sectors_path, label="diagonal, three sectors")

    lopsided = np.zeros((4, 4), dtype=complex)
    lopsided[0, 1] = 1.0
    bad = {
        "dim_a": 2,
        "dim_b": 2,
        "h_a": np.eye(2, dtype=complex),
        "h_b": np.eye(2, dtype=complex),
        "h_i": lopsided,
        "label": "h_i deliberately non-Hermitian",
    }
    write_canonical(bad, DATA / "system_bad_hermitian.json")

    ife_vec = np.zeros(8, dtype=complex)
    ife_vec[1] = 0.6
    ife_vec[2] = -0.8
    save_state_vector(ife_vec, DATA / "state_ife_n2.json", label="dressed plus-branch singlet")

    flip_vec = np.zeros(8, dtype=complex)
    flip_vec[3] = 1.0
    save_state_vector(flip_vec, DATA / "state_plus_down_down_n2.json", label="|+, down down>")

    rho_ife = random_ife_mixed(spin_star_ife_basis(params), [1.0], seed=7)
    save_density_matrix(rho_ife, DATA / "rho_ife_n2.json", label="random sector-block state")

    chi = np.zeros(6, dtype=complex)
    chi[0] = chi[2] = 1.0 / np.sqrt(2.0)  # coherence between alpha=2 and alpha=-1
    rho_cross = np.outer(chi, chi.conj())
    save_density_matrix(rho_cross, DATA / "rho_cross_two_sectors.json",
                        label="cross-sector coherence")

    # --- report goldens -------------------------------------------------
    run(["sectors", str(star_path)], DATA / "report_sectors_n2.json")
    run(["spin-star", "--n", "2", "--omega0", "1.0", "--omega", "0.7",
         "--gammas", "3,4", "--check-all"], DATA / "report_spin_star_n2.json")
    run(["spin-star", "--n", "3", "--omega0", "1.0", "--omega", "0.4",
         "--gammas", "1.0,1.2,1.4", "--check-all"], DATA / "report_spin_star_n3.json")
    run(["oracle-diff", str(star_path)], DATA / "report_oracle_diff_n2.json")
    run(["verify", str(star_path), "--state", str(DATA / "state_ife_n2.json")],
        DATA / "report_verify_ife_n2.json")
    run(["verify", str(star_path), "--state", str(DATA / "rho_ife_n2.json")],
        DATA / "report_verify_rho_ife_n2.json")
    run(["mixed", str(star_path), "--state", str(DATA / "rho_ife_n2.json")],
        DATA / "report_mixed_rho_ife_n2.json")
    run(["sectors", str(two_sectors_path), "--include-bases"],
        DATA / "report_sectors_two_sectors.json")
    run(["oracle-diff", str(two_sectors_path)], DATA / "report_oracle_diff_two_sectors.json")
    run(["sectors", str(no_ife_path)], DATA / "report_sectors_no_ife.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
