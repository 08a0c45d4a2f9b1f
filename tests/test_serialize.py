import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freecalc.errors import FreecalcError, ValidationError
from freecalc.freepoly import FreePoly, PolyMatrix, diag_delta, gap_delta
from freecalc.funcalc import CalcParams, sharp
from freecalc.matrix_core import MatrixTuple, random_matrix, random_tuple, task_rng
from freecalc.realization import poly_to_colligation, random_isometric
from freecalc import serialize
from freecalc.serialize import (
    decode_any,
    decode_colligation,
    decode_job,
    decode_matrix,
    decode_params,
    decode_poly,
    decode_polymatrix,
    decode_tuple,
    detect_kind,
    dumps_canonical,
    encode,
    load_path,
    loads,
)
from freecalc.spectral import SampleConfig, sup_norm_estimate


def _roundtrip(obj, decoder):
    text = dumps_canonical(obj)
    return decoder(json.loads(text)), text


def test_matrix_roundtrip_is_bit_exact():
    a = random_matrix(3, 4, task_rng(0, 1))
    back, text = _roundtrip(a, decode_matrix)
    assert np.array_equal(back, a)  # every bit of every float survives
    assert back.dtype == np.complex128 and not back.flags.writeable
    assert text.endswith("\n")
    # canonical text is a fixed point of decode + re-encode
    assert dumps_canonical(back) == text


def test_matrix_key_order_is_sorted():
    text = dumps_canonical(np.eye(2))
    assert text.index('"cols"') < text.index('"data"') < text.index('"rows"')


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize("size", [2**63, 2**62])
def test_matrix_dimension_past_numpy_limits_is_a_validation_error(key, size):
    # an empty matrix passes the length check; numpy cannot shape it
    doc = {"rows": 0, "cols": 0, "data": []}
    doc[key] = size
    with pytest.raises(ValidationError, match=rf"^\$\.{key}: {size} is past numpy's"):
        decode_matrix(doc)


def test_tuple_roundtrip():
    x = random_tuple(3, 2, 0.9, 5)
    back, text = _roundtrip(x, decode_tuple)
    assert back == x
    assert dumps_canonical(back) == text


def test_poly_roundtrip_preserves_canonical_order():
    p = FreePoly(2, {(2, 1): 1.5 - 0.5j, (1,): 2.0, (): -1.0, (1, 1): 0.25})
    back, text = _roundtrip(p, decode_poly)
    assert back == p
    payload = json.loads(text)
    words = [tuple(t["word"]) for t in payload["terms"]]
    assert words == [(), (1,), (1, 1), (2, 1)]


def test_polymatrix_roundtrip():
    delta = gap_delta(0.1)
    back, text = _roundtrip(delta, decode_polymatrix)
    assert back == delta
    assert dumps_canonical(back) == text


def test_colligation_roundtrip_both_flag_states():
    iso = random_isometric(2, 2, 2, 1, 1, 3)
    back, _ = _roundtrip(iso, decode_colligation)
    assert back == iso and back.isometric_certified
    plain = poly_to_colligation(FreePoly(1, {(1, 1): 2.0}), 1, 1)
    back2, _ = _roundtrip(plain, decode_colligation)
    assert back2 == plain and not back2.isometric_certified


def test_flag_lie_is_rejected():
    iso = random_isometric(2, 2, 2, 1, 1, 4)
    payload = encode(iso)
    payload["isometric_certified"] = False
    with pytest.raises(ValidationError, match="contradicts"):
        decode_colligation(payload)


def test_overflowing_isometry_defect_names_the_colligation():
    # finite blocks whose Gram product leaves double range
    payload = encode(random_isometric(1, 1, 1, 1, 1, 5))
    payload["A"] = payload["B"] = encode(np.array([[1e300]]))
    with pytest.raises(ValidationError, match=r"^\$: the isometry defect overflowed"):
        decode_colligation(payload)
    job = {"F": payload, "delta": encode(diag_delta(1)), "T": encode(random_tuple(2, 1, 0.5, 6))}
    with pytest.raises(ValidationError, match=r"^\$\.F: the isometry defect overflowed"):
        decode_job(job)


def test_detect_kind_on_every_document_type():
    samples = {
        "matrix": encode(np.eye(2)),
        "tuple": encode(random_tuple(2, 2, 0.5, 1)),
        "freepoly": encode(FreePoly.letter(1, 2)),
        "polymatrix": encode(diag_delta(2)),
        "colligation": encode(random_isometric(1, 1, 1, 1, 1, 0)),
    }
    for kind, payload in samples.items():
        assert detect_kind(payload) == kind
        decoded = decode_any(payload)
        assert decoded is not None
    with pytest.raises(ValidationError, match=r"^\$: unrecognized"):
        detect_kind({"foo": 1})
    with pytest.raises(ValidationError, match=r"^\$: expected an object, got list"):
        detect_kind([1])
    for doc in ({"foo": 1}, [1]):
        with pytest.raises(ValidationError, match=r"^\$\.x: unrecognized"):
            decode_any(doc, "$.x")


def test_job_roundtrip_and_detection():
    F = random_isometric(2, 2, 1, 1, 1, 6)
    delta = diag_delta(2)
    T = random_tuple(2, 2, 0.6, 7)
    job = {
        "F": encode(F),
        "delta": encode(delta),
        "T": encode(T),
        "params": {"s": 1.0, "tol": 1e-10},
    }
    assert detect_kind(job) == "job"
    parts = decode_job(job)
    assert parts["F"] == F and parts["delta"] == delta and parts["T"] == T
    assert parts["params"].s == 1.0
    # params are optional and default when absent
    bare = decode_job({"F": encode(F), "delta": encode(delta), "T": encode(T)})
    assert bare["params"] == CalcParams()
    # the decoded job actually runs
    rep = sharp(parts["F"], parts["delta"], parts["T"], parts["params"])
    assert rep.ok


def test_loads_reports_syntax_position():
    with pytest.raises(ValidationError) as exc_info:
        loads('{"rows": 1,\n "cols": }')
    err = exc_info.value
    assert "invalid JSON" in str(err)
    assert err.line == 2
    assert err.col is not None


def test_loads_refuses_nesting_too_deep_for_the_parser():
    with pytest.raises(ValidationError, match="invalid JSON: nested too deeply") as exc_info:
        loads("[" * 200_000)
    assert exc_info.value.path == "$"


def test_load_path(tmp_path):
    x = random_tuple(2, 3, 0.4, 9)
    f = tmp_path / "point.json"
    f.write_text(dumps_canonical(x), encoding="utf-8")
    assert load_path(str(f)) == x


def test_error_paths_name_the_location():
    bad = encode(random_tuple(2, 2, 0.5, 10))
    bad["coords"][1]["rows"] = 3
    with pytest.raises(ValidationError, match=r"\$\.coords\[1\]"):
        decode_tuple(bad)
    with pytest.raises(ValidationError, match="missing key"):
        decode_matrix({"rows": 1, "cols": 1})
    with pytest.raises(ValidationError, match="unknown key"):
        decode_matrix({"rows": 1, "cols": 1, "data": [[0.0, 0.0]], "extra": 1})
    with pytest.raises(ValidationError, match="2-array"):
        decode_matrix({"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]})
    with pytest.raises(ValidationError, match="1 element"):
        decode_matrix({"rows": 1, "cols": 1, "data": []})


def test_colligation_block_shape_error_names_the_block():
    F = random_isometric(2, 2, 1, 1, 1, 11)
    payload = encode(F)
    payload["C"] = encode(np.zeros((1, 1)))
    with pytest.raises(ValidationError, match=r"block C is 1x1, expected 2x1"):
        decode_colligation(payload)


def test_poly_canonical_form_enforced():
    base = {"d": 2, "terms": [{"word": [1], "coeff": [1.0, 0.0]}]}
    decode_poly(base)  # sanity: the well-formed document passes
    with pytest.raises(ValidationError, match="zero coefficient"):
        decode_poly({"d": 2, "terms": [{"word": [1], "coeff": [0.0, 0.0]}]})
    with pytest.raises(ValidationError, match="duplicate word"):
        decode_poly(
            {
                "d": 2,
                "terms": [
                    {"word": [1], "coeff": [1.0, 0.0]},
                    {"word": [1], "coeff": [2.0, 0.0]},
                ],
            }
        )
    with pytest.raises(ValidationError, match="canonical"):
        decode_poly(
            {
                "d": 2,
                "terms": [
                    {"word": [1, 1], "coeff": [1.0, 0.0]},
                    {"word": [2], "coeff": [1.0, 0.0]},
                ],
            }
        )
    with pytest.raises(ValidationError, match="outside alphabet"):
        decode_poly({"d": 2, "terms": [{"word": [3], "coeff": [1.0, 0.0]}]})
    # an empty alphabet is refused at its key, also inside a matrix
    with pytest.raises(ValidationError, match=r"^\$\.d: expected an integer >= 1, got 0"):
        decode_poly({"d": 0, "terms": []})
    bad = encode(diag_delta(2))
    bad["entries"][1][0]["d"] = 0
    with pytest.raises(ValidationError, match=r"^\$\.entries\[1\]\[0\]\.d: "):
        decode_polymatrix(bad)


def test_non_finite_numbers_rejected():
    # python's json parser accepts bare NaN; the decoder must not
    with pytest.raises(ValidationError, match="finite"):
        loads('{"rows": 1, "cols": 1, "data": [[NaN, 0.0]]}')


def test_integer_past_float_range_is_not_finite():
    # the matrix cells' case is in test_one_conversion_decode_names_the_first_bad_cell
    with pytest.raises(ValidationError) as exc_info:
        decode_params({"tol": -(10**400)})
    assert str(exc_info.value) == "$.tol: expected a finite number"


def test_params_decoding():
    assert decode_params({}) == CalcParams()
    p = decode_params({"s": 0.5, "tol": 1e-8, "max_terms": 50})
    assert (p.s, p.tol, p.max_terms) == (0.5, 1e-8, 50)
    assert decode_params({"s": None}).s is None
    with pytest.raises(ValidationError):
        decode_params({"tol": "tight"})
    with pytest.raises(ValidationError, match="\\(0, 1\\]"):
        decode_params({"s": 2.0})
    with pytest.raises(ValidationError, match="max_terms"):
        decode_params({"max_terms": 0})


def test_reports_serialize_to_plain_json():
    F = random_isometric(1, 1, 2, 1, 1, 12)
    from freecalc.freepoly import row_delta

    rep = sharp(F, row_delta(1), random_tuple(2, 1, 0.5, 13), CalcParams(s=1.0))
    payload = json.loads(dumps_canonical(rep))
    assert payload["ok"] is True
    assert isinstance(payload["certificates"], list)
    cfg = SampleConfig(levels=(1,), trials_per_level=5, ascent_steps=0)
    srep = sup_norm_estimate(FreePoly.letter(1, 1), row_delta(1), cfg)
    spayload = json.loads(dumps_canonical(srep))
    assert spayload["kind"] == "sup_norm"
    assert spayload["config"]["levels"] == [1]
    assert spayload["witness"]["n"] == 1


def test_report_key_sets_are_pinned():
    from freecalc.freepoly import row_delta
    from freecalc.funcalc import compile_polynomial, poly_consistency
    from freecalc.spectral import compression_check, family_monomials, k_spectral_check

    def keys(obj):
        return set(encode(obj))

    calc = {"value", "t", "s", "terms_used", "tail_bound", "closed_form_agreement",
            "certificates", "notes", "ok"}
    cert = {"name", "passed", "lhs", "rhs", "detail"}
    spectral = {"kind", "estimate", "witness", "witness_level", "witness_trial",
                "witness_domain_norm", "trials", "admissible",
                "per_level", "config", "violations", "notes", "ok"}
    level = {"level", "trials", "admissible", "best_value", "best_trial"}
    violation = {"index", "description", "lhs", "rhs", "status"}
    config = {"levels", "trials_per_level", "ascent_steps", "margin", "seed"}

    delta = diag_delta(2)
    F = random_isometric(2, 2, 1, 1, 1, 5)
    T = random_tuple(2, 2, 0.5, 6)
    rep = encode(sharp(F, delta, T))
    assert set(rep) == calc and rep["certificates"]
    assert all(set(c) == cert for c in rep["certificates"])

    cfg = SampleConfig(levels=(1, 2), trials_per_level=6, ascent_steps=2)
    sup = encode(sup_norm_estimate(FreePoly.letter(1, 1), row_delta(1), cfg))
    assert set(sup) == spectral and set(sup["config"]) == config
    assert sup["per_level"] and all(set(s) == level for s in sup["per_level"])
    far = random_tuple(2, 2, 3.0, 7)
    ks = encode(k_spectral_check(delta, far, 1.0, family_monomials(2, 1), cfg))
    assert set(ks) == spectral and ks["ok"] is False
    assert ks["violations"] and all(set(v) == violation for v in ks["violations"])

    assert keys(CalcParams()) == {"s", "tol", "max_terms"}
    p = FreePoly.letter(1, 2) * FreePoly.letter(2, 2)
    assert keys(poly_consistency(p, compile_polynomial(p, delta), delta, T, cfg=cfg)) == {
        "vanishes_at_zero", "path_sup", "path_inside", "composition_samples",
        "composition_gap", "sharp_gap", "s", "consistent", "notes"}
    assert keys(compression_check(gap_delta(0.1), far, 1)) == {
        "affine", "full_level", "compressed_level", "full_norm", "compressed_norm",
        "holds", "mode", "notes"}
    with pytest.raises(TypeError):
        encode(object())


def test_mixed_alphabets_rejected_in_polymatrix():
    good = encode(diag_delta(2))
    good["entries"][0][0]["d"] = 3
    with pytest.raises(ValidationError, match="alphabet"):
        decode_polymatrix(good)


def _nodes(v, path=()):
    """Every (path, node) pair of a JSON tree, the root included."""
    yield path, v
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


_VALID_DOCUMENTS = [
    encode(np.array([[1.0, 2j], [0.5, -1.0]])),
    encode(random_tuple(2, 2, 0.5, 1)),
    encode(FreePoly(2, {(1, 2): 1.0, (): 0.5j})),
    encode(diag_delta(2)),
    encode(random_isometric(1, 1, 1, 1, 1, 0)),
    {
        "F": encode(random_isometric(2, 2, 1, 1, 1, 6)),
        "delta": encode(diag_delta(2)),
        "T": encode(random_tuple(1, 2, 0.6, 7)),
        "params": {"s": 1.0, "tol": 1e-10, "max_terms": 50},
    },
]

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from([0, -1, 2**31, 1e308, -1e308, 5e-324]),
    st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def mutated_document(doc, data):
    """A copy of a JSON document with one node below the root replaced by a
    drawn leaf, or one key dropped from an object or added to it."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    op = data.draw(st.sampled_from(["replace", "drop", "add"]))
    if op == "replace":
        path, _ = data.draw(st.sampled_from([(p, v) for p, v in nodes if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(JSON_LEAVES)
    else:
        _, target = data.draw(
            st.sampled_from([(p, v) for p, v in nodes if isinstance(v, dict) and v])
        )
        if op == "drop":
            del target[data.draw(st.sampled_from(sorted(target)))]
        else:
            target[data.draw(st.text(max_size=6))] = data.draw(JSON_LEAVES)
    return doc


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_documents_decode_or_raise_freecalc_errors(data):
    # one valid document of each kind, then one node replaced or one key
    # dropped or added; anything but a FreecalcError is a decoder bug
    doc = mutated_document(data.draw(st.sampled_from(_VALID_DOCUMENTS)), data)
    try:
        decode_any(doc)
    except FreecalcError:
        pass


# --- the canonical writer against json.dumps ------------------------------------


def _oracle(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7]
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))
_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(["", "\x00\x1f\u007f", "\"\\/\b\f\n\r\t",
                                   "\u00e9\u4e2d\U0001f600", "\ud800"]))
_PAIRS = st.lists(st.lists(_FINITE, min_size=2, max_size=2), max_size=5)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), _FINITE,
                     _TEXT, _PAIRS)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(doc=st.one_of(st.lists(_DOCUMENTS, max_size=4),
                     st.dictionaries(_TEXT, _DOCUMENTS, max_size=4)))
def test_canonical_text_is_json_dumps(doc):
    assert dumps_canonical(doc) == _oracle(doc)


def test_canonical_text_edge_cases():
    docs = [
        [], {}, [[]], {"a": {}}, [[1.0, 2.0]], [[1.0, 2.0], [-0.0, 5e-324]],
        [[1, 2.0]], [[1.0, 2.0, 3.0]], [[1.0], [2.0, 3.0]], [[True, 1.0]],
        [[1.0, 2.0], "x"], {"data": [[1.7976931348623157e308, -0.0]], "rows": 1},
        [("a", ("b",))], {"\u00e9": "\x00", "b": None, "a": [False, True]},
        [2**200, -(2**64)],
    ]
    for doc in docs:
        assert dumps_canonical(doc) == _oracle(doc), doc
    assert dumps_canonical(np.array([[complex(1, -0.0), 5e-324j]])) == _oracle(
        {"cols": 2, "data": [[1.0, -0.0], [0.0, 5e-324]], "rows": 1})
    with pytest.raises(TypeError):
        dumps_canonical({1: "object keys are strings"})
    with pytest.raises(TypeError, match="not JSON serializable"):
        dumps_canonical([object()])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["scalar", "list", "pair"])
def test_canonical_text_refuses_what_json_dumps_refuses(bad, where):
    doc = {"scalar": {"x": bad}, "list": [1.0, bad], "pair": [[1.0, bad], [0.0, 0.0]]}[where]
    with pytest.raises(Exception) as want:
        _oracle(doc)
    with pytest.raises(type(want.value)) as got:
        dumps_canonical(doc)
    assert str(got.value) == str(want.value)


# --- the one-conversion matrix decode against the per-cell walk -----------------


def _walked(data: list) -> np.ndarray:
    """The matrix cells decoded one at a time by the per-cell checks."""
    return np.array([serialize._dec_complex(c, "$") for c in data], dtype=np.complex128)


_CELL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**80), 2**80),
    st.sampled_from([0, -0.0, 2**70, -(2**70), 2**53 + 1, 2**63 - 1, 5e-324, -5e-324,
                     2.2250738585072009e-308, 10**308, 1.7976931348623157e308]),
)


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.lists(_CELL_VALUES, min_size=2, max_size=2), min_size=1, max_size=12),
       cols=st.sampled_from([1, 2, 3]))
def test_one_conversion_decode_is_bitwise_the_cell_walk(cells, cols):
    cells += [[0, 0]] * (-len(cells) % cols)
    doc = {"rows": len(cells) // cols, "cols": cols, "data": cells}
    got = decode_matrix(json.loads(json.dumps(doc)))
    want = _walked(cells).reshape(len(cells) // cols, cols)
    assert got.shape == want.shape and got.dtype == np.complex128
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


_BAD_CELLS = {
    "true": ("[true, 0]", "[0]", "expected a number, got bool"),
    "false-imag": ("[0, false]", "[1]", "expected a number, got bool"),
    "string": ('["1", 0]', "[0]", "expected a number, got str"),
    "null": ("[null, 0]", "[0]", "expected a number, got NoneType"),
    "one-element": ("[1]", "", "a complex scalar is a 2-array [re, im], got 1 element(s)"),
    "three-elements": ("[1, 2, 3]", "",
                       "a complex scalar is a 2-array [re, im], got 3 element(s)"),
    "empty": ("[]", "", "a complex scalar is a 2-array [re, im], got 0 element(s)"),
    "number": ("5", "", "expected an array, got int"),
    "object": ('{"re": 1, "im": 0}', "", "expected an array, got dict"),
    "nan": ("[NaN, 0]", "[0]", "expected a finite number"),
    "infinity-imag": ("[0, Infinity]", "[1]", "expected a finite number"),
    "minus-infinity": ("[-Infinity, 0]", "[0]", "expected a finite number"),
    "huge-int": ("[1%s, 0]" % ("0" * 400), "[0]", "expected a finite number"),
    "overflowing-float": ("[0, -1e400]", "[1]", "expected a finite number"),
}


@pytest.mark.parametrize("index", [0, 3])
@pytest.mark.parametrize("kind", sorted(_BAD_CELLS))
def test_one_conversion_decode_names_the_first_bad_cell(kind, index):
    # valid cells before the bad one and another bad cell after it
    cell, suffix, message = _BAD_CELLS[kind]
    cells = ["[1.5, -2]"] * index + [cell, "[true, true]"]
    text = '{"rows": 1, "cols": %d, "data": [%s]}' % (len(cells), ", ".join(cells))
    with pytest.raises(ValidationError) as exc_info:
        loads(text)
    assert exc_info.value.path == f"$.data[{index}]{suffix}"
    assert str(exc_info.value) == f"$.data[{index}]{suffix}: {message}"


def test_wrong_data_length_names_the_data():
    with pytest.raises(ValidationError) as exc_info:
        loads('{"rows": 2, "cols": 2, "data": [[1, 0], [true, 0], [0, 0]]}')
    assert str(exc_info.value) == "$.data: expected 4 element(s), got 3"
