import functools
import gc
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ifestates import serialize
from ifestates.serialize import (
    canonical_dumps,
    load_state,
    load_system,
    pairs_to_matrix,
    pairs_to_vector,
    save_density_matrix,
    save_state_vector,
    save_system,
)

from helpers import (
    MALFORMED_FIELDS,
    assert_same_bits,
    edited_copy,
    generic_system,
    matrix_to_pairs,
    random_hermitian,
    reference_dumps,
    stdlib_decoded,
    vector_to_pairs,
)

# Edge values of the 17-digit format: signed zero, subnormals down to the
# smallest, the largest finite doubles, integer-valued floats.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308,
    1.0, -3.0, 2.0 ** 53, 1e16, 123456789.0,
]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))


def _floats(shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


@st.composite
def _complex_arrays(draw, shape):
    arr = np.empty(shape, dtype=complex)
    arr.real = draw(_floats(shape))
    arr.imag = draw(_floats(shape))
    return arr


@st.composite
def _report_pairs(draw):
    """A report-like document with array leaves, and the same with list leaves."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    basis = draw(_complex_arrays((rows, cols)))
    vector = draw(_complex_arrays((draw(st.integers(0, 6)),)))
    times = draw(_floats(draw(st.integers(0, 8))))
    deviation = draw(_floats(times.shape))
    alpha = draw(FLOATS)
    doc = {
        "sectors": [{"alpha": alpha, "dimension": cols, "basis": basis}],
        "transposed": basis.T,
        "traces": [{"vector": 0, "label": "x", "times": times, "deviation": deviation}],
        "state": {"vector": vector},
    }
    ref = {
        "sectors": [{"alpha": alpha, "dimension": cols, "basis": matrix_to_pairs(basis)}],
        "transposed": matrix_to_pairs(basis.T),
        "traces": [{"vector": 0, "label": "x", "times": times.tolist(),
                    "deviation": deviation.tolist()}],
        "state": {"vector": vector_to_pairs(vector)},
    }
    return doc, ref


# Number literals both parsers must read alike: the 17-digit and shortest
# float forms, literals below the smallest subnormal, and integers around
# and beyond the 64-bit range, which orjson reads as floats.
NUMBER_TOKENS = st.one_of(
    FLOATS.map(repr),
    FLOATS.map(lambda x: format(x, ".17g")),
    st.sampled_from(["1e-400", "-1e-400", str(2 ** 63), str(-2 ** 63), str(2 ** 64), str(-2 ** 64)]),
    st.integers(-2 ** 70, 2 ** 70).map(str),
)


# Leaves the pair readers must convert as np.asarray does: floats with
# their edge values, signed zeros, and integers past 2**53 and 2**64.
PAIR_LEAVES = st.one_of(
    FLOATS,
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([0, -0.0, 5e-324, -5e-324, 2 ** 53 + 1, 2 ** 64 + 1, 10 ** 300, -10 ** 308]),
)


@st.composite
def _pair_matrix_texts(draw):
    """A document ``{"h": ...}`` holding an n x n matrix of ``[re, im]`` pairs."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return canonical_dumps({"h": draw(_complex_arrays((n, n)))})
    tokens = draw(st.lists(NUMBER_TOKENS, min_size=2 * n * n, max_size=2 * n * n))
    pairs = [f"[{re}, {im}]" for re, im in zip(tokens[::2], tokens[1::2])]
    rows = ["[" + ", ".join(pairs[i:i + n]) + "]" for i in range(0, n * n, n)]
    return '{"h": [' + ", ".join(rows) + "]}"


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_dumps({"b": 0.6, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.59999999999999998" in text

    def test_round_trip_byte_identical(self):
        doc = {
            "name": "x",
            "values": [0.1, 1.0, -2.5e-10, 3],
            "nested": {"flag": True, "none": None, "empty": [], "obj": {}},
        }
        text = canonical_dumps(doc)
        assert canonical_dumps(json.loads(text)) == text
        # the one exception: negative zero prints as -0, which parses as the integer 0
        text = canonical_dumps({"x": -0.0})
        assert text == '{\n  "x": -0\n}\n'
        assert json.loads(text) == {"x": 0} and canonical_dumps(json.loads(text)) == '{\n  "x": 0\n}\n'

    def test_parse_recovers_floats_exactly(self):
        values = [0.1, 1e-300, 123456.789, np.pi]
        text = canonical_dumps(values)
        assert json.loads(text) == values

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_dumps({"x": float("inf")})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_dumps({"x": object()})

    def test_trailing_newline(self):
        assert canonical_dumps([1]).endswith("\n")


class TestArrayLeaves:
    @settings(max_examples=150, deadline=None, database=None)
    @given(pair=_report_pairs())
    def test_bytes_equal_list_form(self, pair):
        doc, ref = pair
        assert canonical_dumps(doc) == canonical_dumps(ref)

    @pytest.mark.parametrize("arr, ref", [
        (np.zeros(0), []),
        (np.zeros(0, dtype=complex), []),
        (np.zeros((0, 3), dtype=complex), []),
        (np.zeros((2, 0), dtype=complex), [[], []]),
        (np.array(EDGE_FLOATS), EDGE_FLOATS),
        (np.array([complex(-0.0, -0.0), complex(0.0, 5e-324)]), [[-0.0, -0.0], [0.0, 5e-324]]),
    ])
    def test_empty_and_edge_arrays(self, arr, ref):
        assert canonical_dumps({"a": [arr]}) == canonical_dumps({"a": [ref]})

    @settings(max_examples=300, deadline=None, database=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_percent_format_is_format_17g(self, x):
        assert "%.17g" % x == format(x, ".17g")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("make", [
        lambda x: np.array([1.0, x]),
        lambda x: np.array([[1.0, complex(x, 0.0)]]),
        lambda x: np.array([2j, complex(0.5, x)]),
    ], ids=["float", "complex_real", "complex_imag"])
    def test_non_finite_rejected(self, make, bad):
        with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad!r} cannot")):
            canonical_dumps({"x": make(bad)})

    @pytest.mark.parametrize("arr", [
        np.array([True, False]),
        np.array([1, 2]),
        np.array([1.0, "a"], dtype=object),
        np.array([1.0, 2.0], dtype=np.float32),
        np.array([1.0 + 0j], dtype=np.complex64),
        np.zeros((2, 2)),
        np.zeros((2, 2, 2), dtype=complex),
        np.array(1.0),
    ], ids=["bool", "int", "object", "float32", "complex64", "float64_2d", "complex_3d", "0d"])
    def test_other_arrays_rejected(self, arr):
        with pytest.raises(TypeError, match="cannot serialize array"):
            canonical_dumps({"x": arr})


# Text that is a conversion to the ``%`` operator, as keys and labels.
PERCENT_TEXT = st.one_of(
    st.sampled_from(["%", "%s", "%%", "%(x)s", "100% %s %% %(x)s", "label"]),
    st.text(alphabet="%s(x)d ", max_size=8),
)
# Values whose 17-digit texts differ only in sign or in the last digits.
NEAR_EQUAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 0.1, 0.30000000000000004]


@st.composite
def _pooled_documents(draw):
    """A document whose array leaves and scalars share floats, with ``%`` in its text."""
    repeated = draw(FLOATS)
    values = st.one_of(FLOATS, st.just(repeated), st.sampled_from(NEAR_EQUAL_FLOATS))

    def floats(shape):
        return hnp.arrays(np.float64, shape, elements=values)

    @st.composite
    def complex_arrays(draw_, shape):
        arr = np.empty(draw_(shape), dtype=complex)
        arr.real, arr.imag = draw_(floats(arr.shape)), draw_(floats(arr.shape))
        return arr

    sizes = st.integers(0, 5)
    leaves = st.one_of(
        values, st.integers(-3, 3), st.booleans(), st.none(), PERCENT_TEXT,
        sizes.flatmap(lambda n: floats((n,))),
        complex_arrays(st.tuples(sizes)),
        complex_arrays(st.tuples(sizes, sizes)),
    )
    return draw(st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(PERCENT_TEXT, kids, max_size=4),
        max_leaves=16,
    ))


class TestPooledConversion:
    """Each distinct float is converted once; the text is that of the per-leaf emitter."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(doc=_pooled_documents())
    def test_same_bytes_as_reference(self, doc):
        assert canonical_dumps(doc) == reference_dumps(doc)

    def test_repeated_float_and_signed_zeros(self):
        x = 0.1
        doc = {
            "traces": [{"times": np.full(4, x), "value": x, "%s": np.array([x, -0.0, 0.0, 5e-324])}
                       for _ in range(3)],
            "basis": np.array([[complex(x, -0.0), complex(0.0, x)], [complex(5e-324, -5e-324), 0j]]),
            "empty": [np.zeros(0), np.zeros((3, 0), dtype=complex), np.zeros((0, 2), dtype=complex)],
            "label": "100% %s %% %(x)s",
        }
        text = canonical_dumps(doc)
        assert text == reference_dumps(doc)
        assert '"label": "100% %s %% %(x)s"' in text and '"%s": [' in text
        assert text.count("0.10000000000000001") == 3 * 6 + 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_in_second_array_named(self, bad):
        doc = {"a": np.array([1.0, -2.0]), "b": np.array([3.0, bad]), "c": np.array([-float("inf")])}
        with pytest.raises(ValueError, match=re.escape(f"non-finite value {bad!r} cannot")):
            canonical_dumps(doc)


class TestMalformedFields:
    @pytest.mark.parametrize("case, name, field, index, value", MALFORMED_FIELDS,
                             ids=[c[0] for c in MALFORMED_FIELDS])
    def test_file_and_field_named(self, data_dir, tmp_path, case, name, field, index, value):
        path = edited_copy(data_dir / name, tmp_path / "bad.json", field, index, value)
        with pytest.raises(ValueError) as info:
            _loader(name)(path)
        assert str(info.value).startswith(f"{path}: field {field!r}")

    def test_boolean_word_in_label_is_no_defect(self, data_dir, tmp_path):
        path = edited_copy(data_dir / "system_spin_star_n2.json", tmp_path / "s.json",
                           "label", (), "true or false")
        assert load_system(path)[1] == "true or false"

    @pytest.mark.parametrize("value, what", [(None, "null"), ("1.5", "the string '1.5'")],
                             ids=["null", "numeric_string"])
    def test_null_and_string_entries_named(self, data_dir, tmp_path, value, what):
        path = edited_copy(data_dir / "system_spin_star_n2.json", tmp_path / "bad.json",
                           "h_i", (1, 2, 1), value)
        with pytest.raises(ValueError) as info:
            load_system(path)
        assert str(info.value) == f"{path}: field 'h_i' must be made of numbers, not {what}"

    @settings(max_examples=200, deadline=None, database=None)
    @given(label=st.text(alphabet='utfrsealn"\\ x', max_size=12),
           extra=st.sampled_from([None, ["a", ["b"]], {"k": "v"}, "text"]),
           leaf=st.sampled_from([None, True, False, "1.5", "a", 0.5, -2]),
           field=st.sampled_from(["h_a", "h_b", "h_i"]), data=st.data())
    def test_prefiltered_scan_equals_plain_scan(self, label, extra, leaf, field, data):
        """The byte markers only skip scans that would find nothing."""
        doc = json.loads((DATA_DIR / "system_spin_star_n2.json").read_text(encoding="utf-8"))
        doc["label"] = label
        if extra is not None:
            doc["extra"] = extra
        dim = len(doc[field])
        i, j = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, dim - 1))
        doc[field][i][j][data.draw(st.integers(0, 1))] = leaf
        text = json.dumps(doc)
        plain = not set('utf"') & set(label) and extra is None
        numeric = isinstance(leaf, (int, float)) and not isinstance(leaf, bool)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "system.json"
            path.write_text(text, encoding="utf-8")
            raw = path.read_bytes()
            if plain and numeric:  # nothing to find, so no scan
                assert not serialize._may_hold_non_numbers(raw, orjson.loads(raw))
            outcomes = []
            for prefilter in (serialize._may_hold_non_numbers, lambda raw, data: True):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(serialize, "_may_hold_non_numbers", prefilter)
                    try:
                        sys_, got_label, _ = load_system(path)
                        outcomes.append((got_label, sys_.h_a.tobytes(), sys_.h_b.tobytes(),
                                         sys_.h_i.tobytes()))
                    except ValueError as exc:
                        outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if not numeric:
            assert str(outcomes[0]).startswith(f"{path}: field {field!r}")


def _with_token(src, dst, field, index, token):
    """``edited_copy`` with the raw JSON ``token`` at ``doc[field][index...]``."""
    edited_copy(src, dst, field, index, "@token@")
    Path(dst).write_text(Path(dst).read_text(encoding="utf-8").replace('"@token@"', token),
                         encoding="utf-8")
    return dst


DATA_DIR = Path(__file__).parent / "data"


def _data_files(prefixes):
    return sorted(p.name for p in DATA_DIR.glob("*.json") if p.name.startswith(prefixes))


def _loader(name):
    """The loader of a file named like those under tests/data; a state is checked against its system's dimension."""
    if name.startswith("system"):
        return load_system
    return functools.partial(load_state, dim=6 if "two_sectors" in name else 8)


# A loader call on the default path, and with orjson patched out.
BOTH_PATHS = pytest.mark.parametrize(
    "read", [lambda load, path: load(path), stdlib_decoded], ids=["default", "stdlib"])


class TestParsers:
    """orjson reads the files; ``json`` reads only the documents orjson rejects."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(text=_pair_matrix_texts())
    def test_orjson_reads_what_json_reads(self, text):
        fast, ref = orjson.loads(text.encode("utf-8"))["h"], json.loads(text)["h"]
        assert_same_bits(np.asarray(fast, dtype=float), np.asarray(ref, dtype=float))
        assert_same_bits(pairs_to_matrix(fast, "h"), pairs_to_matrix(ref, "h"))

    @pytest.mark.parametrize("name", _data_files(("system", "state", "rho")))
    def test_data_files_match_stdlib_reference(self, data_dir, monkeypatch, name):
        path = data_dir / name
        load = _loader(name)

        def outcome(read):
            try:
                return read(load, path)
            except ValueError as exc:
                return str(exc)

        ref = outcome(stdlib_decoded)

        def not_json(*args, **kwargs):
            raise AssertionError("json.loads called on a document orjson reads")

        monkeypatch.setattr(json, "loads", not_json)
        fast = outcome(lambda load, path: load(path))
        with pytest.raises(AssertionError, match="json.loads called"):
            stdlib_decoded(load, path)
        if isinstance(ref, str):  # a file that is meant to fail its check
            assert fast == ref and "not Hermitian" in ref
        elif name.startswith("system"):
            (sys_, label, digest), (ref_sys, ref_label, ref_digest) = fast, ref
            assert (label, digest) == (ref_label, ref_digest)
            for field in ("h_a", "h_b", "h_i"):
                assert_same_bits(getattr(sys_, field), getattr(ref_sys, field))
        else:
            assert [fast[k] for k in ("kind", "label", "digest")] == \
                [ref[k] for k in ("kind", "label", "digest")]
            assert_same_bits(fast["value"], ref["value"])

    @BOTH_PATHS
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400", "-1E400"])
    def test_non_finite_literal_named(self, data_dir, tmp_path, read, token):
        path = _with_token(data_dir / "system_spin_star_n2.json", tmp_path / "bad.json",
                           "h_i", (0, 0, 0), token)
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        with pytest.raises(ValueError) as info:
            read(load_system, path)
        assert str(info.value) == f"{path}: field 'h_i' has non-finite entries"

    @BOTH_PATHS
    def test_lone_surrogate_label_kept(self, data_dir, tmp_path, read):
        path = _with_token(data_dir / "system_spin_star_n2.json", tmp_path / "s.json",
                           "label", (), '"\\ud800"')
        with pytest.raises(orjson.JSONDecodeError):
            orjson.loads(path.read_bytes())
        assert read(load_system, path)[1] == "\ud800"

    @BOTH_PATHS
    @pytest.mark.parametrize("text", ["{not json", "\ufeff{}", '{"dim_a": 2,}', ""],
                             ids=["not_json", "bom", "trailing_comma", "empty"])
    def test_not_json_message_unchanged(self, tmp_path, read, text):
        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as ref:
            json.loads(text)
        with pytest.raises(ValueError) as info:
            read(load_system, path)
        assert str(info.value) == f"{path}: not valid JSON: {ref.value}"


def _gc_case(case, data_dir, tmp_path):
    """A loader and a file that ends a load as ``case`` says: a good load, or one rejection."""
    star = data_dir / "system_spin_star_n2.json"
    bad = tmp_path / "bad.json"
    if case == "system":
        return load_system, star
    if case == "state":
        return _loader("rho_ife_n2.json"), data_dir / "rho_ife_n2.json"
    if case in ("not_json", "top_level_list", "missing_field"):
        bad.write_text({"not_json": "{not json", "top_level_list": "[]",
                        "missing_field": '{"dim_a": 2, "dim_b": 2}'}[case])
        return load_system, bad
    if case == "nan":  # orjson rejects the token, json reads it, the field check rejects it
        return load_system, _with_token(star, bad, "h_i", (0, 0, 0), "NaN")
    if case == "boolean":  # rejected by the scan for non-numbers
        return load_system, _with_token(star, bad, "h_a", (0, 0, 0), "true")
    return load_system, data_dir / "system_bad_hermitian.json"  # case == "not_hermitian"


class TestGarbageCollector:
    """The cyclic collector is paused for a parse and left as the caller had it."""

    CASES = ["system", "state", "not_json", "top_level_list", "missing_field", "nan",
             "boolean", "not_hermitian"]

    @pytest.fixture(autouse=True)
    def collector_on_after(self):
        """A load that fails to restore the collector fails its own test, not the next one."""
        yield
        gc.enable()

    @staticmethod
    def _load(load, path):
        try:
            load(path)
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize("case", CASES)
    def test_enabled_again_after_load(self, data_dir, tmp_path, case):
        load, path = _gc_case(case, data_dir, tmp_path)
        assert gc.isenabled()
        assert self._load(load, path) == (case in ("system", "state"))
        assert gc.isenabled()

    @pytest.mark.parametrize("case", CASES)
    def test_disabled_caller_keeps_it_disabled(self, data_dir, tmp_path, case):
        load, path = _gc_case(case, data_dir, tmp_path)
        gc.disable()
        self._load(load, path)
        assert not gc.isenabled()

    def test_paused_during_the_parse(self, data_dir, monkeypatch):
        seen = []
        loads = orjson.loads

        def recording(raw):
            seen.append(gc.isenabled())
            return loads(raw)

        monkeypatch.setattr(orjson, "loads", recording)
        load_system(data_dir / "system_spin_star_n2.json")
        assert seen == [False] and gc.isenabled()


class TestPairCodecs:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(pairs_to_matrix(matrix_to_pairs(m), "m"), m)

    def test_vector_round_trip(self):
        v = np.array([1.5 + 0.5j, -2.0, 0.0])
        assert np.array_equal(pairs_to_vector(vector_to_pairs(v), "v"), v)

    def test_matrix_shape_enforced(self):
        with pytest.raises(ValueError, match="'m'"):
            pairs_to_matrix([[[1.0, 0.0], [0.0, 0.0]]], "m")

    @settings(max_examples=200, deadline=None, database=None)
    @given(n=st.integers(1, 5), ndim=st.sampled_from([2, 3]), data=st.data())
    def test_flat_pairs_equal_asarray(self, n, ndim, data):
        """The ``np.fromiter`` path reads what ``np.asarray`` reads, bit for bit."""
        shape = (n,) * (ndim - 1) + (2,)
        size = int(np.prod(shape))
        leaves = data.draw(st.lists(PAIR_LEAVES, min_size=size, max_size=size))
        nested = np.array(leaves, dtype=object).reshape(shape).tolist()
        assert serialize._flat_pairs(nested, ndim) is not None
        assert_same_bits(serialize._pair_array(nested, "f", "pairs", ndim),
                         np.asarray(nested, dtype=float))

    @pytest.mark.parametrize("data, valid", [
        ([[[1.0, 2.0, 3.0], [4.0]], [[1.0, 2.0], [3.0, 4.0]]], False),
        ([[[1.0, 2.0]], [[3.0, 4.0]]], False),
        ([[[1.0, 2.0], [3.0, 4.0]]], False),
        ([["12"]], False),
        ([[b"12"]], False),
        ([[{"1": 0, "2": 0}]], False),
        ([[[[1.0, 2.0], [3.0, 4.0]]]], False),
        ([[(1.0, 2.0)]], True),
        ((([1.0, -0.0],),), True),
    ], ids=["ragged_pair", "short_rows", "non_square", "string_pair", "bytes_pair", "dict_pair",
            "nested_pair", "tuple_pair", "tuple_rows"])
    def test_other_shapes_go_to_asarray(self, data, valid):
        assert serialize._flat_pairs(data, 3) is None
        if valid:
            assert_same_bits(serialize._pair_array(data, "m", "pairs", 3), np.asarray(data, dtype=float))
        else:
            with pytest.raises(ValueError, match=r"field 'm' must be a square matrix of \[re, im\] pairs"):
                pairs_to_matrix(data, "m")


class TestSystemFiles:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        sys_ = generic_system(2, 3, rng)
        path = tmp_path / "sys.json"
        save_system(sys_, path, label="round trip")
        loaded, label, _ = load_system(path)
        assert label == "round trip"
        assert loaded.dim_a == 2 and loaded.dim_b == 3
        assert np.allclose(loaded.h_i, sys_.h_i)

    def test_serialize_parse_serialize_identical(self, tmp_path, data_dir):
        for name in ("system_spin_star_n2.json", "state_ife_n2.json", "rho_ife_n2.json"):
            original = (data_dir / name).read_text(encoding="utf-8")
            assert canonical_dumps(json.loads(original)) == original

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim_a": 2, "dim_b": 2}')
        with pytest.raises(ValueError, match="'h_a'"):
            load_system(path)

    def test_non_hermitian_field_named(self, data_dir):
        with pytest.raises(ValueError, match="'h_i' is not Hermitian"):
            load_system(data_dir / "system_bad_hermitian.json")

    def test_dimension_mismatch_named(self, tmp_path):
        rng = np.random.default_rng(2)
        doc = {
            "dim_a": 2,
            "dim_b": 3,
            "h_a": matrix_to_pairs(random_hermitian(2, rng)),
            "h_b": matrix_to_pairs(random_hermitian(3, rng)),
            "h_i": matrix_to_pairs(random_hermitian(4, rng)),
        }
        path = tmp_path / "bad.json"
        path.write_text(canonical_dumps(doc))
        with pytest.raises(ValueError, match="'h_i' has dimension 4"):
            load_system(path)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_system(path)

    def test_bad_dim_type(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim_a": 2.5, "dim_b": 2}')
        with pytest.raises(ValueError, match="'dim_a'"):
            load_system(path)


class TestStateFiles:
    def test_vector_file(self, tmp_path):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        path = tmp_path / "state.json"
        save_state_vector(psi, path)
        state = load_state(path, 2)
        assert state["kind"] == "vector"
        assert np.allclose(state["value"], psi)

    def test_rho_file(self, tmp_path):
        rho = np.eye(3) / 3.0
        path = tmp_path / "rho.json"
        save_density_matrix(rho, path, label="mixed")
        state = load_state(path, 3)
        assert state["kind"] == "rho"
        assert state["label"] == "mixed"
        assert np.allclose(state["value"], rho)

    def test_requires_exactly_one_payload(self, tmp_path):
        path = tmp_path / "both.json"
        path.write_text('{"vector": [[1.0, 0.0]], "rho": [[[1.0, 0.0]]]}')
        with pytest.raises(ValueError, match="exactly one"):
            load_state(path, 1)


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("ifestates") / "schemas" / "report-v1.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


class TestReportSchema:

    @pytest.mark.parametrize("name", [
        "report_sectors_n2.json",
        "report_spin_star_n2.json",
        "report_oracle_diff_n2.json",
        "report_verify_ife_n2.json",
        "report_verify_rho_ife_n2.json",
        "report_mixed_rho_ife_n2.json",
        "report_sectors_two_sectors.json",
        "report_oracle_diff_two_sectors.json",
        "report_sectors_no_ife.json",
    ])
    def test_golden_reports_validate(self, schema, data_dir, name):
        jsonschema = pytest.importorskip("jsonschema")
        report = json.loads((data_dir / name).read_text(encoding="utf-8"))
        jsonschema.validate(report, schema)
        assert report["schema_version"] == "ife-report/1"
        assert "tolerances" in report and report["tolerances"]
