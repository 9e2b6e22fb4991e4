"""Spans and counts around the package's layers, recorded from outside.

:class:`Tracer` replaces functions where their callers look them up (for
example ``ifestates.cli.ife_sectors`` or ``ifestates.dynamics.hermitian_eig``)
and the ``numpy.linalg`` / ``np.einsum`` entry points with wrappers that
record a span: name, start, end, parent span and the id of the CLI call it
belongs to.  Spans stay in memory; :meth:`Tracer.metrics` turns them into
per-pass self times and counts when the run ends.  The wrappers pass calls
made outside a traced CLI call straight through.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "core", "spin_star", "dynamics", "mixed", "serialize", "cli")


def _complex_factor(a) -> int:
    return 4 if np.iscomplexobj(a) else 1


def svd_flops(args, kwargs) -> float:
    """Golub & Van Loan operation counts for ``np.linalg.svd`` from its input shape."""
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = int(np.prod(a.shape[:-2]))
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if compute_uv:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
    else:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    return float(batch * _complex_factor(a) * flops)


def eigh_flops(args, kwargs, vectors=True) -> float:
    """Golub & Van Loan counts for the symmetric QR algorithm (9n^3 with vectors)."""
    a = np.asarray(args[0])
    n = a.shape[-1]
    batch = int(np.prod(a.shape[:-2]))
    return float(batch * _complex_factor(a) * (9 * n ** 3 if vectors else 4 * n ** 3 / 3))


# (span name, modules whose global is replaced, attribute, flop counter)
TARGETS = [
    ("linalg.svd", ["numpy.linalg"], "svd", svd_flops),
    ("linalg.eigh", ["numpy.linalg"], "eigh", eigh_flops),
    ("linalg.eigh", ["numpy.linalg"], "eigvalsh",
     lambda a, k: eigh_flops(a, k, vectors=False)),
    ("linalg.einsum", ["numpy"], "einsum", None),
    ("linalg.spectral_norm",
     ["ifestates.linalg", "ifestates.core", "ifestates.cli", "ifestates.spin_star",
      "ifestates.dynamics"], "spectral_norm", None),
    ("linalg.hermitian_eig", ["ifestates.core", "ifestates.dynamics", "ifestates.mixed"],
     "hermitian_eig", None),
    ("linalg.kernel", ["ifestates.core"], "intersect_kernels", None),
    ("linalg.kernel", ["ifestates.core", "ifestates.spin_star"], "null_space", None),
    ("linalg.commutator", ["ifestates.core", "ifestates.spin_star"], "commutator", None),
    ("linalg.principal_angle", ["ifestates.cli", "ifestates.spin_star"],
     "max_principal_angle", None),
    ("core.ife_sectors", ["ifestates.cli", "ifestates.spin_star"], "ife_sectors", None),
    ("core.ife_sectors_oracle", ["ifestates.cli"], "ife_sectors_oracle", None),
    ("core.cluster_values", ["ifestates.core"], "cluster_values", None),
    ("spin_star.basis", ["ifestates.cli", "ifestates.spin_star"], "spin_star_ife_basis", None),
    ("spin_star.claims", ["ifestates.cli"], "verify_spin_star_claims", None),
    ("dynamics.trace", ["ifestates.cli"], "ife_deviation_trace", None),
    ("dynamics.trace", ["ifestates.cli"], "energy_trace", None),
    ("dynamics.trace", ["ifestates.cli"], "covariance_trace", None),
    ("mixed.deviation", ["ifestates.cli"], "mixed_deviation_trace", None),
    ("mixed.energy", ["ifestates.cli"], "mixed_energy_trace", None),
    ("mixed.block_residuals", ["ifestates.cli"], "block_structure_residuals", None),
    ("mixed.sample", ["ifestates.cli"], "random_ife_mixed", None),
    ("mixed.check", ["ifestates.cli"], "check_density_matrix", None),
    ("serialize.load", ["ifestates.cli"], "load_system", None),
    ("serialize.load", ["ifestates.cli"], "load_state", None),
    ("serialize.dumps", ["ifestates.cli"], "canonical_dumps", None),
    ("serialize.dumps", ["ifestates.cli"], "write_canonical", None),
    ("serialize.digest", ["ifestates.cli"], "sha256_digest", None),
    ("serialize.pairs", ["ifestates.cli"], "matrix_to_pairs", None),
]

# Per-layer metrics: name -> (unit, better).  Counts are per pass.
PER_LAYER = {
    "linalg.svd.calls": ("count", "lower"),
    "linalg.svd.s": ("s", "lower"),
    "linalg.svd.flops": ("computed_flop", "lower"),
    "linalg.eigh.calls": ("count", "lower"),
    "linalg.eigh.s": ("s", "lower"),
    "linalg.eigh.flops": ("computed_flop", "lower"),
    "linalg.spectral_norm.calls": ("count", "lower"),
    "linalg.spectral_norm.s": ("s", "lower"),
    "linalg.einsum.calls": ("count", "lower"),
    "linalg.einsum.s": ("s", "lower"),
    "core.ife_sectors.calls": ("count", "lower"),
    "core.ife_sectors.s": ("s", "lower"),
    "core.ife_sectors_oracle.calls": ("count", "lower"),
    "core.ife_sectors_oracle.s": ("s", "lower"),
    "core.clusters": ("count", "lower"),
    "core.sector_yield": ("ratio", "higher"),
    "core.svd_per_cluster": ("ratio", "lower"),
    "core.commutator.calls": ("count", "lower"),
    "spin_star.basis.calls": ("count", "lower"),
    "spin_star.basis.s": ("s", "lower"),
    "spin_star.claims.s": ("s", "lower"),
    "dynamics.trace.calls": ("count", "lower"),
    "dynamics.trace.s": ("s", "lower"),
    "dynamics.vectors": ("count", "higher"),
    "dynamics.eigh_per_vector": ("ratio", "lower"),
    "mixed.deviation.calls": ("count", "lower"),
    "mixed.deviation.s": ("s", "lower"),
    "mixed.energy.s": ("s", "lower"),
    "mixed.samples": ("count", "higher"),
    "mixed.eigh_per_sample": ("ratio", "lower"),
    "mixed.block_residuals.s": ("s", "lower"),
    "serialize.load.calls": ("count", "lower"),
    "serialize.load.s": ("s", "lower"),
    "serialize.dumps.s": ("s", "lower"),
    "serialize.report_bytes": ("B", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly from pass to pass.
EXACT = [name for name, (unit, _) in PER_LAYER.items()
         if unit in ("count", "computed_flop", "ratio")]


class Tracer:
    """Span recorder for traced passes of the benchmark."""

    def __init__(self):
        self.spans = []            # (call_id, span_id, parent_id, name, start, end)
        self.calls = []            # call_id -> (pass index, job kind)
        self.reported = []         # (pass index, job kind, vectors, samples, bytes)
        self.cluster_sizes = []    # (call_id, clusters returned)
        self.sectors_found = []    # (call_id, sectors returned)
        self.flops = []            # (call_id, span name, flops)
        self.missing = []
        self.passes = -1
        self._stack = []
        self._next_id = 0

    # ------------------------------------------------------------------
    # recording

    def start_pass(self):
        self.passes += 1

    @contextlib.contextmanager
    def call(self, job):
        """Root span ``cli.main`` of one CLI call; its id is the call's id."""
        call_id = len(self.calls)
        self.calls.append((self.passes, job.kind))
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((call_id, span_id))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((call_id, span_id, None, "cli.main", start, end))

    def observe_report(self, job, report, size):
        """Count what a checked report shows was done: traced vectors, samples, bytes."""
        vectors = 0
        if report["command"] == "verify":
            vectors = sum(1 for t in report.get("traces", []) if t.get("label") != "density_matrix")
        samples = len(report.get("samples", [])) if job.kind == "mixed-sample" else 0
        self.reported.append((self.passes, job.kind, vectors, samples, size))

    def _wrap(self, fn, name, flop_count):
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            call_id, parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append((call_id, span_id))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((call_id, span_id, parent, name, start, end))
            if flop_count is not None:
                tracer.flops.append((call_id, name, flop_count(args, kwargs)))
            if name == "core.cluster_values":
                tracer.cluster_sizes.append((call_id, len(result)))
            elif name in ("core.ife_sectors", "core.ife_sectors_oracle"):
                tracer.sectors_found.append((call_id, result.n_sectors))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        undo = []
        try:
            for name, modules, attr, flop_count in TARGETS:
                for module_name in modules:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    setattr(module, attr, self._wrap(original, name, flop_count))
                    undo.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    # ------------------------------------------------------------------
    # aggregation

    def _per_pass(self):
        """Raw totals per traced pass: {pass: Counter}."""
        totals = defaultdict(Counter)
        by_id = {s[1]: s for s in self.spans}
        child_time = Counter()
        for call_id, span_id, parent, name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start

        def ancestors(span):
            parent = span[2]
            while parent is not None:
                span = by_id[parent]
                yield span[3]
                parent = span[2]

        for span in self.spans:
            call_id, span_id, _, name, start, end = span
            pass_no, kind = self.calls[call_id]
            t = totals[pass_no]
            self_time = (end - start) - child_time[span_id]
            t[f"{name}.calls"] += 1
            t[f"{name}.s"] += self_time
            t[f"{name.split('.')[0]}.self_s"] += self_time
            if name == "linalg.svd":
                if any(a.startswith("core.ife_sectors") for a in ancestors(span)):
                    t["svd_in_core"] += 1
            elif name == "linalg.eigh":
                up = list(ancestors(span))
                if "dynamics.trace" in up:
                    t["eigh_in_dynamics"] += 1
                if kind == "mixed-sample" and any(a.startswith("mixed.") for a in up):
                    t["eigh_in_sampling"] += 1
        for call_id, name, flops in self.flops:
            totals[self.calls[call_id][0]][f"{name}.flops"] += flops
        for call_id, n in self.cluster_sizes:
            totals[self.calls[call_id][0]]["core.clusters"] += n
        for call_id, n in self.sectors_found:
            totals[self.calls[call_id][0]]["sectors_found"] += n
        for pass_no, kind, vectors, samples, size in self.reported:
            t = totals[pass_no]
            t["serialize.report_bytes"] += size
            t["dynamics.vectors"] += vectors
            t["mixed.samples"] += samples
        for t in totals.values():
            t["core.commutator.calls"] = t["linalg.commutator.calls"]
            t["core.sector_yield"] = _ratio(t["sectors_found"], t["core.clusters"])
            t["core.svd_per_cluster"] = _ratio(t["svd_in_core"], t["core.clusters"])
            t["dynamics.eigh_per_vector"] = _ratio(t["eigh_in_dynamics"], t["dynamics.vectors"])
            t["mixed.eigh_per_sample"] = _ratio(t["eigh_in_sampling"], t["mixed.samples"])
        return [totals[p] for p in sorted(totals)]

    def counts_repeat(self) -> bool:
        passes = self._per_pass()
        return all(p[k] == passes[0][k] for p in passes for k in EXACT)

    def metrics(self) -> dict:
        """Per-layer metrics averaged over the traced passes."""
        passes = self._per_pass()
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.overhead_s":
                continue
            value = sum(p[name] for p in passes) / len(passes)
            out[name] = {"value": float(value), "unit": unit}
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
