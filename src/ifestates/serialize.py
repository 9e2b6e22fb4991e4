"""File formats and canonical JSON serialization.

System, state, and report files are plain JSON.  Complex matrices and
vectors are encoded as nested arrays of ``[re, im]`` pairs, row-major.
Serialization is canonical: keys sorted, two-space indentation, floats
printed with 17 significant digits, trailing newline.  Canonically
formatted files therefore survive a parse/serialize round trip
byte-identically, with one exception: negative zero prints as ``-0``,
which ``json`` reads back as the integer ``0``, so it serializes again
as ``0``.

Besides dicts, lists, strings, numbers, booleans and None, a document may
hold numpy arrays as leaves: float64 vectors (1-D), emitted as their
``tolist()``, and complex128 vectors or matrices (1-D or 2-D), emitted as
``[re, im]`` pairs in the layout above.  An array leaf gives exactly the
bytes of its list form.  Any other dtype or number of dimensions raises
TypeError.

The emitter walks the document once.  The walk lays the text out with a
``%s`` per float of an array leaf (a row's layout is cached by its
length, kind and indent) and pools those floats; literal text escapes
``%`` as ``%%``.  Then each distinct bit pattern of the pool is converted
once, by one ``%.17g`` template (the conversion ``format(x, ".17g")``
makes), and one ``%`` fills the layout.  A report repeats its time grid
in every trace, and its conserved quantities stay constant along each
one, so most of its floats are converted once for many places.

System and state files are parsed with orjson.  The documents it rejects
(``NaN``/``Infinity`` tokens, numbers beyond double range, lone
surrogates) go to the standard-library parser, so a non-finite entry is
still read and then rejected with its field named.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .core import BipartiteSystem, _positive_dimension
from .linalg import _require_dimension, require_unit_states
from .mixed import check_density_matrix

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "canonical_dumps",
    "write_canonical",
    "pairs_to_matrix",
    "pairs_to_vector",
    "load_system",
    "save_system",
    "load_state",
    "save_state_vector",
    "save_density_matrix",
]

REPORT_SCHEMA_VERSION = "ife-report/1"

# Hermiticity gate applied to matrices arriving from files.
FILE_HERMITIAN_RTOL = 1e-10


def _non_finite(x: float) -> ValueError:
    return ValueError(f"non-finite value {x!r} cannot be serialized")


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return format(float(x), ".17g")


def _bracketed(items: list[str], indent: int) -> str:
    """Canonical list text around already laid-out ``items`` at ``indent``."""
    if not items:
        return "[]"
    pad = "  " * indent
    inner = ",\n".join(pad + "  " + item for item in items)
    return f"[\n{inner}\n{pad}]"


@functools.lru_cache(maxsize=256)
def _row_layout(length: int, is_complex: bool, indent: int) -> str:
    """Layout of a row of ``length`` floats or ``[re, im]`` pairs at ``indent``: ``%s`` per float."""
    if is_complex:
        return _bracketed([_bracketed(["%s", "%s"], indent + 1)] * length, indent)
    return _bracketed(["%s"] * length, indent)


def _array_leaf(arr: np.ndarray, out: list, pool: list, indent: int) -> None:
    """Lay out a float64 vector or a complex128 vector or matrix, pooling its floats."""
    if arr.dtype == np.float64 and arr.ndim == 1:
        floats = arr
    elif arr.dtype == np.complex128 and arr.ndim in (1, 2):
        # Interleaved (re, im) per entry: the order of the [re, im] pairs.
        floats = np.ascontiguousarray(arr).view(np.float64).reshape(-1)
    else:
        raise TypeError(f"cannot serialize array of dtype {arr.dtype} with {arr.ndim} dimensions")
    if not np.isfinite(floats).all():
        raise _non_finite(float(floats[~np.isfinite(floats)][0]))
    row = _row_layout(arr.shape[-1], arr.dtype == np.complex128, indent + arr.ndim - 1)
    out.append(row if arr.ndim == 1 else _bracketed([row] * arr.shape[0], indent))
    pool.append(floats)


def _literal(text: str) -> str:
    """JSON string of ``text`` as it stands in the layout, where ``%`` is a conversion."""
    # json.dumps(text) without its encoder set-up: the same ASCII escapes.
    return json.encoder.encode_basestring_ascii(text).replace("%", "%%")


def _canonical(obj, out: list, pool: list, indent: int) -> None:
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
            out.append(f"{pad}  {_literal(key)}: ")
            _canonical(obj[key], out, pool, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _canonical(item, out, pool, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _array_leaf(obj, out, pool, indent)
    elif isinstance(obj, (bool, np.bool_)) or obj is None:
        out.append(json.dumps(bool(obj) if obj is not None else None))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_literal(obj))
    else:
        raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Canonical JSON text: sorted keys, 17-digit floats, trailing newline.

    One walk lays the document out with a ``%s`` per float of its array
    leaves and pools those floats; each distinct bit pattern of the pool
    is then converted once, and one ``%`` fills the layout.
    """
    out: list[str] = []
    pool: list[np.ndarray] = []
    _canonical(obj, out, pool, 0)
    out.append("\n")
    texts = []
    if pool:
        # Bit patterns, not values: 0.0 and -0.0 print differently.
        bits, where = np.unique(np.concatenate(pool).view(np.int64), return_inverse=True)
        distinct = ("%.17g " * bits.size % tuple(bits.view(np.float64).tolist())).split()
        texts = np.array(distinct, dtype=object)[where].tolist()
    return "".join(out) % tuple(texts)


def write_canonical(obj, path) -> None:
    Path(path).write_text(canonical_dumps(obj), encoding="utf-8")


def _flat_pairs(data, ndim: int) -> np.ndarray | None:
    """float64 array of ``n`` ``[re, im]`` lists (``ndim`` 2) or of ``n`` lists of ``n`` of them (3), else None.

    ``len`` and ``type`` checks decide the shape, and one ``np.fromiter``
    reads the numbers of the flattened pairs, with the conversion of
    ``np.asarray(data, dtype=float)``.  None for any other shape, or when a
    number does not convert.
    """
    if type(data) is not list:
        return None
    n = len(data)
    pairs = data
    if ndim == 3:
        if {*map(type, data)} != {list} or {*map(len, data)} != {n}:
            return None
        pairs = [*chain.from_iterable(data)]
    if {*map(type, pairs)} != {list} or {*map(len, pairs)} != {2}:
        return None
    try:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=float, count=2 * len(pairs))
    except (TypeError, ValueError, OverflowError):
        return None
    return flat.reshape((n,) * (ndim - 1) + (2,))


def _pair_array(data, field: str, what: str, ndim: int) -> np.ndarray:
    """float64 array of a field that must be ``what``: ``ndim`` axes, the last of length 2."""
    arr = _flat_pairs(data, ndim)
    if arr is not None:
        return arr
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        # Strings, ragged nesting and integers beyond float range.
        raise ValueError(f"field {field!r} must be {what}: {exc}") from None
    if arr.ndim != ndim or arr.shape[-1] != 2 or (ndim == 3 and arr.shape[0] != arr.shape[1]):
        raise ValueError(f"field {field!r} must be {what}, got shape {arr.shape}")
    return arr


def pairs_to_matrix(data, field: str) -> np.ndarray:
    arr = _pair_array(data, field, "a square matrix of [re, im] pairs", 3)
    return arr[..., 0] + 1j * arr[..., 1]


def pairs_to_vector(data, field: str) -> np.ndarray:
    arr = _pair_array(data, field, "a list of [re, im] pairs", 2)
    return arr[:, 0] + 1j * arr[:, 1]


def _reject_non_numbers(value, field: str, path) -> None:
    """Raise at the first boolean, null or string among the leaves of ``value``'s nested lists."""
    # Iterative: a parsed document may nest deeper than the recursion limit.
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, bool):
            raise ValueError(f"{path}: field {field!r} holds a boolean, not a number")
        elif item is None or isinstance(item, str):
            what = "null" if item is None else f"the string {item!r}"
            raise ValueError(f"{path}: field {field!r} must be made of numbers, not {what}")


def _may_hold_non_numbers(raw: bytes, data: dict) -> bool:
    """False only when no list inside ``data``, parsed from ``raw``, holds a boolean, null or string.

    A ``true``, ``false`` or ``null`` token holds a ``u`` or an ``f``; the
    one-byte tests come first, since the longer words take a slower search.
    A string adds at least two ``"`` bytes to those of the top-level keys
    and string values.
    """
    return (b"u" in raw and (b"true" in raw or b"null" in raw) or b"f" in raw and b"false" in raw
            or raw.count(b'"') > 2 * sum(1 + isinstance(v, str) for v in data.values()))


def _load_object(path, pair_fields: tuple[str, ...]) -> tuple[dict, str]:
    """The top-level object of a system or state file, and the digest of its bytes.

    The file is read once; the digest, ``"sha256:<hex>"``, is that of the
    very bytes parsed, so a report's ``inputs_digest`` names what was read.

    orjson parses the file; ``json`` reads only what orjson rejects, so
    that ``NaN``, numbers beyond double range and lone surrogates are
    handled as they always were.  Text that is not UTF-8, or nests too
    deeply for ``json``, is reported as not valid JSON.  The cyclic
    garbage collector is paused during the parse.

    numpy reads a JSON ``true`` as 1.0, ``null`` as NaN and a numeric
    string as its number, so a boolean, null or string inside one of the
    ``pair_fields`` is rejected here.  The fields are scanned only when the
    bytes allow one (:func:`_may_hold_non_numbers`).  An optional
    ``label`` must be a string, in system and state files alike.
    """
    import orjson  # here: commands that read no file (--version, spin-star) skip its slow import

    raw = Path(path).read_bytes()
    # A parse makes a list per [re, im] pair and no garbage, so the cyclic
    # collector is paused while it runs; the caller's setting comes back after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            data = orjson.loads(raw)
        except orjson.JSONDecodeError:
            try:
                data = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level value must be an object")
    if _may_hold_non_numbers(raw, data):
        for field in pair_fields:
            if field in data:
                _reject_non_numbers(data[field], field, path)
    if data.get("label") is not None and not isinstance(data["label"], str):
        raise ValueError(f"{path}: field 'label' must be a string")
    return data, "sha256:" + hashlib.sha256(raw).hexdigest()


def _require(data: dict, field: str, path):
    if field not in data:
        raise ValueError(f"{path}: missing required field {field!r}")
    return data[field]


def _decode(codec, value, field: str, path):
    """``codec(value, field)`` with the file named in any error."""
    try:
        return codec(value, field)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_system(path) -> tuple[BipartiteSystem, str | None, str]:
    """Read a system file; :class:`BipartiteSystem` checks its matrices.

    Returns the system, its optional label and the ``"sha256:<hex>"``
    digest of the file's bytes.  Any defect is reported as a ValueError
    naming the file and the offending field.
    """
    data, digest = _load_object(path, ("h_a", "h_b", "h_i"))
    dim_a, dim_b = (_decode(_positive_dimension, _require(data, name, path), name, path)
                    for name in ("dim_a", "dim_b"))
    mats = [_decode(pairs_to_matrix, _require(data, name, path), name, path)
            for name in ("h_a", "h_b", "h_i")]
    try:
        sys = BipartiteSystem(dim_a, dim_b, *mats, hermitian_rtol=FILE_HERMITIAN_RTOL)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return sys, data.get("label"), digest


def save_system(sys: BipartiteSystem, path, label: str | None = None) -> None:
    doc = {
        "dim_a": sys.dim_a,
        "dim_b": sys.dim_b,
        "h_a": np.asarray(sys.h_a, dtype=complex),
        "h_b": np.asarray(sys.h_b, dtype=complex),
        "h_i": np.asarray(sys.h_i, dtype=complex),
    }
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)


def load_state(path, dim: int) -> dict:
    """Read and check a state file, a pure vector or a density matrix, for a system of dimension ``dim``.

    Returns ``{"kind": "vector" or "rho", "value": ...}`` plus the optional
    label and the ``"sha256:<hex>"`` digest of the file's bytes.  The one
    check of a state file: a ``vector`` by :func:`require_unit_states`, a
    ``rho`` by :func:`check_density_matrix` at ``FILE_HERMITIAN_RTOL`` (the
    value is its Hermitian part), then for dimension.  Any defect is a
    ValueError starting ``<path>: field 'vector'`` or ``<path>: field 'rho'``.
    """
    data, digest = _load_object(path, ("vector", "rho"))
    if ("vector" in data) == ("rho" in data):
        raise ValueError(f"{path}: exactly one of 'vector' or 'rho' is required")
    kind = "vector" if "vector" in data else "rho"
    if kind == "vector":
        parse, check = pairs_to_vector, lambda psi: require_unit_states(psi, dim)[:, 0]
    else:
        parse, check = pairs_to_matrix, lambda rho: _require_dimension(
            check_density_matrix(rho, FILE_HERMITIAN_RTOL), dim)
    value = _decode(parse, data[kind], kind, path)
    try:
        value = check(value)
    except ValueError as exc:
        raise ValueError(f"{path}: field {kind!r}: {exc}") from None
    return {"kind": kind, "value": value, "label": data.get("label"), "digest": digest}


def save_state_vector(psi, path, label: str | None = None) -> None:
    doc = {"vector": np.asarray(psi, dtype=complex).reshape(-1)}
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)


def save_density_matrix(rho, path, label: str | None = None) -> None:
    doc = {"rho": np.asarray(rho, dtype=complex)}
    if label is not None:
        doc["label"] = label
    write_canonical(doc, path)
