"""Command-line interface: sector computation, verification, and reports.

Subcommands
-----------
sectors      compute IFE sectors of a system file
verify       evolve a state (or a sector's basis) and check the IFE identity
spin-star    build the closed-form spin-star IFE basis, optionally check claims
oracle-diff  cross-check the two independent sector computations
mixed        sector-block and dynamical checks for density matrices

Exit codes are a stable contract: 0 success, 1 input error, 2 numerical
failure, 3 empty decomposition, 4 state not IFE, 5 resonance guard,
6 oracle/claim mismatch.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CLUSTER_TOL,
    _alpha_tol,
    _commutator_kernel_dimension,
    ife_sectors,
    ife_sectors_oracle,
)
from .dynamics import time_grid, trace_pure_states
from .linalg import DEFAULT_REL_TOL, SUBSPACE_ANGLE_TOL, subspace_residual
from .mixed import _block_residuals, _block_tol, _deviation_tol, _sampled_checks, _trace_states
from .serialize import (
    REPORT_SCHEMA_VERSION,
    canonical_dumps,
    load_state,
    load_system,
    write_canonical,
)
from .spin_star import (
    ResonanceError,
    SpinStarParams,
    spin_star_ife_basis,
    verify_spin_star_claims,
)

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NUMERICAL_FAILURE = 2
EXIT_NO_SECTORS = 3
EXIT_NOT_IFE = 4
EXIT_RESONANCE = 5
EXIT_MISMATCH = 6

# Documented default seed for the sampling checks of `mixed`.
DEFAULT_SEED = 20260811


class CliInputError(ValueError):
    """Bad command line or input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which would collide with
    # the numerical-failure code; route usage errors through the input path.
    def error(self, message):
        raise CliInputError(message)


# argparse ``type=`` validators.  argparse reports an ArgumentTypeError as
# "argument --opt: <message>" through _Parser.error, so a bad value exits 1
# with the option named, before any file is read.


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_finite(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _integer_at_least(minimum: int):
    """A validator for integers >= ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _finite_list(text: str) -> tuple[float, ...]:
    return tuple(_finite(item) for item in text.split(","))


# Exception -> (exit code, message prefix), first match wins: ResonanceError
# and LinAlgError are ValueErrors too.
_EXIT_TABLE = (
    ((ResonanceError,), EXIT_RESONANCE, "resonance: "),
    ((np.linalg.LinAlgError, FloatingPointError), EXIT_NUMERICAL_FAILURE, "numerical failure: "),
    ((ValueError, OSError, KeyError, TypeError), EXIT_INPUT_ERROR, ""),
)
_FAILURES = tuple(t for types, _, _ in _EXIT_TABLE for t in types)


def _fail(exc: Exception, where: str = "") -> int:
    """Report one of the ``_FAILURES`` on stderr and return its exit code.

    ``where`` (``"<path>: "``) is left out when the message already starts
    with it, as the loaders' messages do, so the line names the file once.
    """
    code, prefix = next((c, p) for types, c, p in _EXIT_TABLE if isinstance(exc, types))
    if str(exc).startswith(where):
        where = ""
    print(f"error: {prefix}{where}{exc}", file=sys.stderr)
    return code


def _claim(name: str, residual: float, tolerance: float) -> dict:
    residual = float(residual)
    tolerance = float(tolerance)
    if not np.isfinite(residual) or residual < 0:
        raise FloatingPointError(f"claim {name!r} produced residual {residual!r}")
    return {
        "name": name,
        "residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def _emit(out, command: str, digest: str, tolerances: dict, started: float, **payload) -> int:
    """Write the report of ``command`` to ``out`` (stdout when unset); return its exit code.

    Tolerances and payload entries that are None are left out.
    """
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "inputs_digest": digest,
        "tolerances": {k: float(v) for k, v in tolerances.items() if v is not None},
        "timing_ms": (time.perf_counter() - started) * 1000.0,
    }
    report.update((key, value) for key, value in payload.items() if value is not None)
    if out:
        write_canonical(report, out)
    else:
        sys.stdout.write(canonical_dumps(report))
    return report["exit_code"]


def _sector_payload(dec, include_bases: bool) -> list[dict]:
    payload = []
    for sector in dec.sectors:
        entry = {"alpha": float(sector.alpha), "dimension": sector.dimension}
        if include_bases:
            entry["basis"] = np.asarray(sector.basis, dtype=complex)
        payload.append(entry)
    return payload


def _trace_lists(report, extra=None) -> dict:
    out = dict(extra or {})
    out["times"] = np.asarray(report.times, dtype=float)
    for key in ("deviation", "energy_a", "energy_b", "covariance"):
        values = getattr(report, key)
        if values is not None:
            out[key] = np.asarray(values, dtype=float)
    return out


def _write_traces_csv(path, traces: list[dict]) -> None:
    columns = ["vector", "time", "deviation", "energy_a", "energy_b", "covariance"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for block in traces:
            vec = block.get("vector", 0)
            for k, t in enumerate(block["times"]):
                row = [vec, format(t, ".17g")]
                for key in ("deviation", "energy_a", "energy_b", "covariance"):
                    values = block.get(key)
                    row.append(format(values[k], ".17g") if values is not None else "")
                writer.writerow(row)


# ----------------------------------------------------------------------
# sectors


def _sectors_single(path: Path, args, out) -> int:
    started = time.perf_counter()
    system, label, digest = load_system(path)
    dec = ife_sectors(system, args.tol)
    return _emit(
        out, "sectors", digest, {"rel_tol": args.tol, "cluster_tol": CLUSTER_TOL}, started,
        label=label,
        sectors=_sector_payload(dec, args.include_bases),
        commutator_kernel_dimension=_commutator_kernel_dimension(system, args.tol),
        exit_code=EXIT_OK if dec.n_sectors > 0 else EXIT_NO_SECTORS,
    )


def cmd_sectors(args) -> int:
    path = Path(args.input)
    if not args.batch:
        return _sectors_single(path, args, args.out)
    if not path.is_dir():
        raise CliInputError(f"--batch expects a directory, got {path}")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for item in sorted(path.glob("*.json")):
        target = out_dir / (item.stem + ".report.json") if out_dir else None
        try:
            code = _sectors_single(item, args, target)
        except _FAILURES as exc:
            code = _fail(exc, f"{item}: ")
        worst = max(worst, code)
    return worst


# ----------------------------------------------------------------------
# verify


def _verify_vectors(system, states, times, tol, labels) -> tuple[list, list]:
    """Claims and traces of the columns of ``states``, each at its own ``<psi|H_I|psi>``."""
    alphas = [float(a) for a in (states.conj() * (system.h_i @ states)).sum(axis=0).real]
    reports = trace_pure_states(system, states, times, alphas)
    claims, traces = [], []
    for j, (alpha, report) in enumerate(zip(alphas, reports)):
        traces.append(_trace_lists(report, {"vector": j, "alpha": alpha, "label": labels[j]}))
        claims.append(_claim(f"ife_evolution_{labels[j]}", report.max_deviation, tol))
    return claims, traces


def _traced_rho(system, rho, times) -> tuple[float, list]:
    """The maximal deviation and the trace list of a density matrix checked by ``load_state``."""
    trace = _trace_states(system, rho, times)
    return trace.max_deviation, [_trace_lists(trace, {"vector": 0, "label": "density_matrix"})]


def cmd_verify(args) -> int:
    started = time.perf_counter()
    system, label, digest = load_system(args.input)
    times = time_grid(args.t_max, args.steps)

    states = None
    if args.state:
        state = load_state(args.state, system.dim)
        digest += "," + state["digest"]
        if state["kind"] == "rho":
            tol = args.tol if args.tol is not None else _deviation_tol(system.dim)
            deviation, traces = _traced_rho(system, state["value"], times)
            claims = [_claim("ife_evolution_density_matrix", deviation, tol)]
        else:
            states, labels = state["value"][:, None], ["state"]
    elif args.sector is not None:
        dec = ife_sectors(system, DEFAULT_REL_TOL)
        if not 0 <= args.sector < dec.n_sectors:
            raise CliInputError(
                f"sector index {args.sector} out of range ({dec.n_sectors} sectors)"
            )
        states = dec.sectors[args.sector].basis
        labels = [f"sector{args.sector}_vector{j}" for j in range(states.shape[1])]
    else:
        raise CliInputError("one of --state or --sector is required")
    if states is not None:
        tol = args.tol if args.tol is not None else 1e-9 * np.sqrt(system.dim)
        claims, traces = _verify_vectors(system, states, times, tol, labels)

    if args.csv:  # before the report, so that no report is left when the write fails
        _write_traces_csv(args.csv, traces)
    return _emit(
        args.out, "verify", digest,
        {"t_max": args.t_max, "steps": args.steps, "max_deviation_tol": tol}, started,
        label=label, claims=claims, traces=traces,
        exit_code=EXIT_OK if all(c["pass"] for c in claims) else EXIT_NOT_IFE,
    )


# ----------------------------------------------------------------------
# spin-star


def _params_digest(parameters: dict) -> str:
    doc = canonical_dumps(parameters)
    return "sha256:" + hashlib.sha256(doc.encode("utf-8")).hexdigest()


def cmd_spin_star(args) -> int:
    """The star's cached analytic basis; ``--check-all`` scores that basis, resonance refused first (exit 5)."""
    started = time.perf_counter()
    params = SpinStarParams(args.n, args.omega0, args.omega, args.gammas)
    dec = spin_star_ife_basis(params)

    claims = None
    code = EXIT_OK
    if args.check_all:
        results = verify_spin_star_claims(params, args.tol)
        claims = [_claim(r.name, r.residual, r.tolerance) for r in results]
        if not all(c["pass"] for c in claims):
            code = EXIT_MISMATCH

    parameters = {
        "n_spins": params.n_spins,
        "omega0": params.omega0,
        "omega": params.omega,
        "gammas": list(params.gammas),
    }
    return _emit(
        args.out, "spin-star", _params_digest(parameters),
        {"rel_tol": args.tol, "subspace_angle_tol": SUBSPACE_ANGLE_TOL}, started,
        parameters=parameters,
        sectors=_sector_payload(dec, include_bases=True),
        claims=claims,
        exit_code=code,
    )


# ----------------------------------------------------------------------
# oracle-diff


def cmd_oracle_diff(args) -> int:
    started = time.perf_counter()
    system, label, digest = load_system(args.input)
    direct = ife_sectors(system, args.tol)
    oracle = ife_sectors_oracle(system, args.tol)

    claims = [_claim(
        "sector_count_match",
        abs(direct.n_sectors - oracle.n_sectors),
        0.0,
    )]
    alpha_tol = _alpha_tol(system)
    for k, (s1, s2) in enumerate(zip(direct.sectors, oracle.sectors)):
        claims.append(_claim(f"sector_{k}_alpha_match", abs(s1.alpha - s2.alpha), alpha_tol))
        claims.append(_claim(f"sector_{k}_subspace_match", subspace_residual(s1.basis, s2.basis),
                             SUBSPACE_ANGLE_TOL))

    return _emit(
        args.out, "oracle-diff", digest,
        {"rel_tol": args.tol, "subspace_angle_tol": SUBSPACE_ANGLE_TOL}, started,
        label=label,
        sectors=_sector_payload(direct, include_bases=False),
        claims=claims,
        exit_code=EXIT_OK if all(c["pass"] for c in claims) else EXIT_MISMATCH,
    )


# ----------------------------------------------------------------------
# mixed


def cmd_mixed(args) -> int:
    started = time.perf_counter()
    if args.csv and not args.state:
        raise CliInputError("--csv requires --state")
    system, label, digest = load_system(args.input)
    dec = ife_sectors(system, DEFAULT_REL_TOL)
    times = time_grid(args.t_max, args.steps)
    deviation_tol = _deviation_tol(system.dim)

    block_tol = traces = samples = None
    if args.state:
        state = load_state(args.state, system.dim)
        if state["kind"] != "rho":
            raise CliInputError(f"{args.state}: 'rho' field required for mixed checks")
        digest += "," + state["digest"]
        rho = state["value"]
        deviation, traces = _traced_rho(system, rho, times)
        block_tol = args.tol if args.tol is not None else _block_tol(rho)
        outside, cross = _block_residuals(rho, dec)
        claims = [
            _claim("sector_support", outside, block_tol),
            _claim("cross_sector_coherence", cross, block_tol),
            _claim("dynamical_deviation", deviation, deviation_tol),
        ]
        code = EXIT_OK if all(c["pass"] for c in claims) else EXIT_NOT_IFE
    elif dec.n_sectors == 0:
        claims, samples, code = None, [], EXIT_NO_SECTORS
    else:
        # sampling mode: seeded random sector-block states, self-checked
        block_tol = args.tol if args.tol is not None else 1e-9
        claims, samples = [], []
        seeds = range(args.seed, args.seed + args.samples)
        for i, (seed, outside, cross, dev_max) in enumerate(_sampled_checks(system, dec, seeds, times)):
            claims.append(_claim(f"sample_{i}_block_structure", max(outside, cross), block_tol))
            claims.append(_claim(f"sample_{i}_dynamical_deviation", dev_max, deviation_tol))
            samples.append({"seed": seed, "max_deviation": dev_max,
                            "outside_norm": outside, "cross_norm": cross})
        code = EXIT_OK if all(c["pass"] for c in claims) else EXIT_NOT_IFE

    if args.csv:  # before the report, so that no report is left when the write fails
        _write_traces_csv(args.csv, traces)
    return _emit(
        args.out, "mixed", digest,
        {"block_tol": block_tol, "deviation_tol": deviation_tol,
         "t_max": args.t_max, "steps": args.steps},
        started,
        label=label, claims=claims, traces=traces, samples=samples,
        sectors=_sector_payload(dec, include_bases=False),
        exit_code=code,
    )


# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="ifestates",
        description="Interaction-free evolving states of bipartite quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("sectors", help="compute IFE sectors of a system file")
    p.add_argument("input", help="system JSON file (or directory with --batch)")
    p.add_argument("--tol", type=_positive_finite, default=DEFAULT_REL_TOL, help="relative kernel cutoff")
    p.add_argument("--include-bases", action="store_true", help="embed sector bases in the report")
    p.add_argument("--batch", action="store_true", help="process every *.json file in a directory")
    p.add_argument("--out", help="report path (directory in batch mode); default stdout")
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("verify", help="check the IFE evolution identity for a state")
    p.add_argument("input", help="system JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="state JSON file (vector or density matrix)")
    group.add_argument("--sector", type=int, help="verify every basis vector of this sector index")
    p.add_argument("--t-max", type=_finite, default=10.0, help="end of the time grid")
    p.add_argument("--steps", type=_integer_at_least(1), default=101, help="number of grid points")
    p.add_argument("--tol", type=_positive_finite, default=None,
                   help="deviation threshold (default 1e-9*sqrt(dim), or 1e-8*dim for density matrices)")
    p.add_argument("--out", help="report path; default stdout")
    p.add_argument("--csv", help="also write traces as CSV to this path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spin-star", help="closed-form spin-star IFE basis and claim checks")
    p.add_argument("--n", type=_integer_at_least(1), required=True, help="number of bath spins")
    p.add_argument("--omega0", type=_finite, required=True, help="central-spin splitting")
    p.add_argument("--omega", type=_finite, required=True, help="bath-spin splitting")
    p.add_argument("--gammas", type=_finite_list, required=True,
                   help="comma-separated couplings, e.g. 3,4")
    p.add_argument("--check-all", action="store_true", help="verify all structural claims")
    p.add_argument("--tol", type=_positive_finite, default=DEFAULT_REL_TOL, help="relative kernel cutoff")
    p.add_argument("--out", help="report path; default stdout")
    p.set_defaults(func=cmd_spin_star)

    p = sub.add_parser("oracle-diff", help="compare both IFE sector computations")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--tol", type=_positive_finite, default=DEFAULT_REL_TOL, help="relative kernel cutoff")
    p.add_argument("--out", help="report path; default stdout")
    p.set_defaults(func=cmd_oracle_diff)

    p = sub.add_parser("mixed", help="sector-block checks for density matrices")
    p.add_argument("input", help="system JSON file")
    p.add_argument("--state", help="density-matrix JSON file; omit to run the sampling self-check")
    p.add_argument("--samples", type=_integer_at_least(1), default=10, help="number of sampled states")
    p.add_argument("--seed", type=_integer_at_least(0), default=DEFAULT_SEED,
                   help=f"seed for the sampling mode (default {DEFAULT_SEED})")
    p.add_argument("--t-max", type=_finite, default=10.0, help="end of the time grid")
    p.add_argument("--steps", type=_integer_at_least(1), default=101, help="number of grid points")
    p.add_argument("--tol", type=_positive_finite, default=None, help="block-structure tolerance")
    p.add_argument("--out", help="report path; default stdout")
    p.add_argument("--csv", help="also write traces as CSV to this path (requires --state)")
    p.set_defaults(func=cmd_mixed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        return args.func(args)
    except _FAILURES as exc:
        return _fail(exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
