"""File formats and canonical JSON serialization.

System, state, and report files are plain JSON.  Complex matrices and
vectors are encoded as nested arrays of ``[re, im]`` pairs, row-major.
Serialization is canonical: keys sorted, two-space indentation, floats
printed with 17 significant digits, trailing newline.  Canonically
formatted files therefore survive a parse/serialize round trip
byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .core import BipartiteSystem
from .linalg import require_hermitian

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "canonical_dumps",
    "write_canonical",
    "matrix_to_pairs",
    "pairs_to_matrix",
    "vector_to_pairs",
    "pairs_to_vector",
    "sha256_digest",
    "load_system",
    "save_system",
    "load_state",
    "save_state_vector",
    "save_density_matrix",
]

REPORT_SCHEMA_VERSION = "ife-report/1"

# Hermiticity gate applied to matrices arriving from files.
FILE_HERMITIAN_RTOL = 1e-10


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


def _canonical(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            out.append(f"{pad}  {json.dumps(key)}: ")
            _canonical(obj[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _canonical(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Canonical JSON text: sorted keys, 17-digit floats, trailing newline."""
    out: list[str] = []
    _canonical(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_canonical(obj, path) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def matrix_to_pairs(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def pairs_to_matrix(data, field: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(
            f"field {field!r} must be a square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_pairs(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def pairs_to_vector(data, field: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"field {field!r} must be a list of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[:, 0] + 1j * arr[:, 1]


def sha256_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_json(path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def _require(data: dict, field: str, path):
    if field not in data:
        raise ValueError(f"{path}: missing required field {field!r}")
    return data[field]


def load_system(path) -> tuple[BipartiteSystem, str | None]:
    """Read a system file, validating shapes and Hermiticity per field.

    Returns the system and its optional label.  Any defect is reported as
    a ValueError naming the offending field.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    dim_a = _require(data, "dim_a", path)
    dim_b = _require(data, "dim_b", path)
    for name, value in (("dim_a", dim_a), ("dim_b", dim_b)):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{path}: field {name!r} must be a positive integer")

    mats = {}
    for name, dim in (("h_a", dim_a), ("h_b", dim_b), ("h_i", dim_a * dim_b)):
        m = pairs_to_matrix(_require(data, name, path), name)
        if m.shape[0] != dim:
            raise ValueError(
                f"{path}: field {name!r} has dimension {m.shape[0]}, expected {dim}"
            )
        mats[name] = require_hermitian(m, FILE_HERMITIAN_RTOL, name=f"{path}: field {name!r}")

    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"{path}: field 'label' must be a string")
    sys = BipartiteSystem(dim_a, dim_b, mats["h_a"], mats["h_b"], mats["h_i"],
                          hermitian_rtol=FILE_HERMITIAN_RTOL)
    return sys, label


def save_system(sys: BipartiteSystem, path, label: str | None = None) -> None:
    doc = {
        "dim_a": sys.dim_a,
        "dim_b": sys.dim_b,
        "h_a": matrix_to_pairs(sys.h_a),
        "h_b": matrix_to_pairs(sys.h_b),
        "h_i": matrix_to_pairs(sys.h_i),
    }
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)


def load_state(path) -> dict:
    """Read a state file holding either a pure vector or a density matrix.

    Returns ``{"kind": "vector", "value": ...}`` or
    ``{"kind": "rho", "value": ...}`` plus the optional label.  Validation
    (normalization, density-matrix axioms) is left to the caller so it can
    map failures onto its own error contract.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    has_vec = "vector" in data
    has_rho = "rho" in data
    if has_vec == has_rho:
        raise ValueError(f"{path}: exactly one of 'vector' or 'rho' is required")
    if has_vec:
        value = pairs_to_vector(data["vector"], "vector")
        kind = "vector"
    else:
        value = pairs_to_matrix(data["rho"], "rho")
        kind = "rho"
    return {"kind": kind, "value": value, "label": data.get("label")}


def save_state_vector(psi, path, label: str | None = None) -> None:
    doc = {"vector": vector_to_pairs(psi)}
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)


def save_density_matrix(rho, path, label: str | None = None) -> None:
    doc = {"rho": matrix_to_pairs(rho)}
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)
