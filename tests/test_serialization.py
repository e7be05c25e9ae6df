import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    GroupRingElement,
    NotMultiplicative,
    conjugation_endo,
    derivation_space,
    direct_product,
    identity_endo,
    inner_derivation,
    standard_group,
)
from grpder.cli import main
from grpder.rings import GF, QQ, ZZ, PrimeField, parse_scalar, ring_from_token
from grpder.serialization import (
    derivation_images_from_json,
    derivation_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    endo_from_json,
    endo_to_json,
    group_from_json,
    group_to_json,
)


def test_group_round_trip_bit_exact():
    q8 = standard_group("Q8")
    data = group_to_json(q8)
    clone = group_from_json(data)
    assert clone.table == q8.table
    assert clone.labels == q8.labels
    assert dumps_canonical(group_to_json(clone)) == dumps_canonical(data)


def test_group_json_validates():
    with pytest.raises(Exception):
        group_from_json({"order": 2, "table": [[0, 1], [1, 1]]})
    with pytest.raises(ValueError):
        group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})
    with pytest.raises(ValueError):
        group_from_json({"order": 2})


def test_element_round_trips():
    s3 = standard_group("S3")
    cases = [
        GroupRingElement(s3, ZZ, [1, -2, 0, 3, 0, 0]),
        GroupRingElement(s3, QQ, [Fraction(1, 2), 0, Fraction(-7, 3), 1, 0, 0]),
        GroupRingElement(s3, GF(5), [4, 0, 1, 2, 3, 0]),
    ]
    for el in cases:
        data = element_to_json(el)
        back = element_from_json(s3, data)
        assert back == el


def test_rational_serialization_format():
    c2 = standard_group("C2")
    el = GroupRingElement(c2, QQ, [Fraction(3, 4), 2])
    data = element_to_json(el)
    assert data == {"ring": "Q", "coeffs": ["3/4", 2]}
    fp = GroupRingElement(c2, GF(7), [6, 3])
    assert element_to_json(fp) == {"ring": "Fp", "p": 7, "coeffs": [6, 3]}


def test_element_json_errors():
    c2 = standard_group("C2")
    for coeffs in ([1], [0, 0, 0], []):
        with pytest.raises(ValueError, match="coefficient count does not match group order"):
            element_from_json(c2, {"ring": "Q", "coeffs": coeffs})
    with pytest.raises(ValueError):
        element_from_json(c2, {"ring": "Q", "coeffs": [1, 2]}, expected_ring=ZZ)
    with pytest.raises(ValueError):
        element_from_json(c2, {"ring": "Fp", "coeffs": [1, 2]})
    with pytest.raises(ValueError, match="must be a list"):
        element_from_json(c2, {"ring": "Q", "coeffs": "12"})


def _parsed_element(group, data):
    """``element_from_json`` as it reads a list that is not all ints: ``parse_scalar`` per entry."""
    ring = ring_from_token(data["ring"], data.get("p"))
    if len(data["coeffs"]) != group.order:
        raise ValueError("coefficient count does not match group order")
    return GroupRingElement(group, ring, [parse_scalar(ring, v) for v in data["coeffs"]], _normalized=True)


_INT_RINGS = [
    ({"ring": "Z"}, ZZ),
    ({"ring": "Q"}, QQ),
    ({"ring": "Fp", "p": 2}, GF(2)),
    ({"ring": "F3"}, GF(3)),
    ({"ring": "F7"}, GF(7)),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(_INT_RINGS),
    st.lists(st.integers(-9, 9) | st.integers() | st.just(0) | st.just(1), min_size=6, max_size=6),
)
def test_int_coefficients_decode_as_parse_scalar_does(ring_case, coeffs):
    fields, ring = ring_case
    s3 = standard_group("S3")
    data = {**fields, "coeffs": coeffs}
    element = element_from_json(s3, data)
    reference = _parsed_element(s3, data)
    assert element == reference
    assert [type(v) for v in element.coeffs] == [type(v) for v in reference.coeffs]
    assert {type(v) for v in element.coeffs} == {Fraction if ring == QQ else int}
    assert element.support == reference.support
    if ring.characteristic:
        assert all(0 <= v < ring.characteristic for v in element.coeffs)


@pytest.mark.parametrize("fields, ring", _INT_RINGS, ids=[str(ring) for _fields, ring in _INT_RINGS])
def test_an_int_unit_vector_decodes_to_the_shared_basis_element(fields, ring):
    s3 = standard_group("S3")
    for i in range(6):
        coeffs = [0] * 6
        coeffs[i] = 1 + ring.characteristic  # 1 in the ring, as written or not reduced
        assert element_from_json(s3, {**fields, "coeffs": coeffs}) is GroupRingElement.basis(s3, ring, i)
    minus = element_from_json(s3, {**fields, "coeffs": [0, -1, 0, 0, 0, 0]})
    assert minus == GroupRingElement.basis(s3, ring, 1).scale(-1)


@pytest.mark.parametrize("fields, ring", _INT_RINGS, ids=[str(ring) for _fields, ring in _INT_RINGS])
@pytest.mark.parametrize("bad", [True, False, 1.0, "1e9", None, [1]], ids=repr)
def test_non_int_coefficients_fail_as_parse_scalar_does(fields, ring, bad):
    s3 = standard_group("S3")
    data = {**fields, "coeffs": [1, 0, bad, 2, 0, 0]}
    with pytest.raises(ValueError) as expected:
        _parsed_element(s3, data)
    with pytest.raises(ValueError) as err:
        element_from_json(s3, data)
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("token", [["Q"], None, 5, {"F": 5}, b"Q"])
def test_ring_from_token_rejects_non_strings(token):
    with pytest.raises(ValueError, match="must be a string"):
        ring_from_token(token)


@pytest.mark.parametrize("p", [5.0, True, "5"])
def test_ring_from_token_rejects_non_integer_modulus(p):
    with pytest.raises(ValueError, match="must be an integer"):
        ring_from_token("Fp", p)
    assert ring_from_token("Fp", 5) is GF(5)


@pytest.mark.parametrize("token", ["F02", "F05", "F0", "F\u0663", "F\uff15", "F\u00b2", "F+5", " F5", "F5\n", "f5"])
def test_ring_from_token_accepts_only_canonical_ascii(token):
    # "F02" used to be served as F2, and str.isdigit let Arabic-Indic "F\u0663" through as F3.
    with pytest.raises(ValueError, match="unknown ring token"):
        ring_from_token(token)


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_ring_from_token_reads_canonical_fields(p):
    assert ring_from_token(f"F{p}") is GF(p)


def test_modulus_is_bounded():
    assert GF(2**31 - 1).p == 2**31 - 1
    for p in (2**31, 2**61 - 1, 10**20 + 39):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="below 2\\^31"):
            PrimeField(p)
        with pytest.raises(ValueError, match="below 2\\^31"):
            ring_from_token("Fp", p)
        assert time.perf_counter() - start < 0.1


def test_prime_field_cache_is_bounded():
    primes = [p for p in range(2, 8000) if all(p % d for d in range(2, int(p**0.5) + 1))]
    assert len(primes) >= 1000
    before = GF(5)
    for p in primes:
        GF(p)
    info = GF.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    # GF(5) was evicted; the field built again is equal, and elements of the
    # two instances still combine.
    assert GF(5) is not before and GF(5) == before
    c2 = standard_group("C2")
    total = GroupRingElement(c2, before, [1, 2]) + GroupRingElement(c2, GF(5), [4, 3])
    assert total == GroupRingElement(c2, GF(5), [0, 0])


@pytest.mark.parametrize("raw", ["1e1000000", "1e3000000", "1.5", " 3 ", "1_000", "+3", "1/-2", "", "3\n", "1/2/3"])
def test_parse_scalar_accepts_only_decimal_integers_and_fractions(raw):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="integer or num/den"):
        parse_scalar(QQ, raw)
    assert time.perf_counter() - start < 0.1


def test_parse_scalar_values():
    assert parse_scalar(QQ, "2/4") == Fraction(1, 2)
    assert parse_scalar(ZZ, "-3") == -3
    assert parse_scalar(GF(5), "-3") == 2
    assert parse_scalar(GF(5), "1/2") == 3
    assert parse_scalar(ZZ, 7) == 7
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(QQ, "1/0")
    with pytest.raises(ValueError):
        parse_scalar(ZZ, "1/2")


def test_derivation_images_need_one_per_basis_element():
    s3 = standard_group("S3")
    with pytest.raises(ValueError, match="one image per group basis element"):
        derivation_images_from_json(s3, {"images": []})
    zero = {"ring": "Z", "coeffs": [0] * 6}
    with pytest.raises(ValueError, match="one image per group basis element"):
        derivation_images_from_json(s3, {"images": [zero] * 7})
    assert len(derivation_images_from_json(s3, {"images": [zero] * 6})) == 6


def test_endomorphism_round_trip_validates():
    q8 = standard_group("Q8")
    phi = conjugation_endo(GroupRingElement.basis(q8, QQ, 2))
    data = endo_to_json(phi)
    back = endo_from_json(q8, data)
    assert back == phi
    bad = endo_to_json(identity_endo(q8, QQ))
    bad["images"][3] = element_to_json(GroupRingElement(q8, QQ, [1] * 8))
    with pytest.raises(NotMultiplicative):
        endo_from_json(q8, bad)


def test_derivation_images_round_trip():
    s3 = standard_group("S3")
    ident = identity_endo(s3, ZZ)
    delta = inner_derivation(GroupRingElement(s3, ZZ, [0, 2, -1, 0, 1, 0]), ident, ident)
    data = derivation_to_json(delta)
    images = derivation_images_from_json(s3, data, ZZ)
    assert all(a == b for a, b in zip(images, delta.images))


def test_dumps_canonical_is_stable():
    payload = {"b": 1, "a": [3, 2, 1]}
    assert dumps_canonical(payload) == dumps_canonical({"a": [3, 2, 1], "b": 1})
    assert dumps_canonical(payload).endswith("\n")


def _reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class _Dict(dict):
    pass


class _Int(int):
    def __repr__(self) -> str:
        return "_Int"


_STRINGS = st.text(alphabet=st.sampled_from(',"[]{}\\/() ab1éλ∂ 😀\x00'), max_size=6) | st.text(max_size=4)
_LEAVES = (
    st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.booleans()
    | st.none()
    | st.floats()
    | _STRINGS
    | st.builds(lambda n, d: f"{n}/{d}", st.integers(), st.integers(min_value=2))
    | st.sampled_from(["(e,g)", "(g,e)", "a,b", "[1]", "{}", "1/2"])
)
_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_DOCUMENTS)
def test_dumps_canonical_matches_the_json_reference(data):
    assert dumps_canonical(data) == _reference(data)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        [[]],
        [{}],
        {"a": []},
        {"a": {}},
        {"a": [[], {}, [[]], {"b": {}}]},
        [[[[]]], [{"c": []}]],
        [1],
        ["a"],
        [None],
        [[1]],
        {"a": [0]},
        [[1], [2]],
        [1, [2]],
        [1, [], 2],
        [1, {}],
        ["a", []],
        [1, "a,b"],
        ["a,b", 1],
        ["(e,g)", "(g,e)"],
        ["[", "{", '"', "\\", "é"],
        [1, "[x]", 2],
        [True, False, None, 1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
        [10**80, -(10**80), "-7/3"],
        [True, 1],
        [1, True],
        {"coeffs": [0, False]},
        [-1, -(2**70)],
        [2**64, 2**64 + 1, -(2**64)],
        [_Int(5), 1],
        {"coeffs": [1, _Int(-2)]},
        [1, "a", -3],
        ["a", 1],
        (1, (2, 3), ()),
        {"t": (1, "a")},
        _Dict(b=1, a=[1, 2]),
        {"x": _Dict(a=1)},
        [1, _Dict()],
        [_Dict(a=1)],
        {1: [2], 3: {}},
        {"a": {2: "x"}},
        "text",
        7,
        None,
    ],
    ids=repr,
)
def test_dumps_canonical_matches_the_json_reference_on_edge_cases(data):
    assert dumps_canonical(data) == _reference(data)


_FLAT_LEAVES = (
    st.integers(-5, 5)
    | st.integers()
    | st.integers(min_value=2**64 - 2, max_value=2**64 + 2).flatmap(lambda v: st.sampled_from([v, -v]))
    | st.booleans()
    | st.integers(-3, 3).map(_Int)
    | st.sampled_from(["a", "1/2", "-7/3", "a,b", ""])
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_FLAT_LEAVES, min_size=1, max_size=8) | st.lists(st.integers(), min_size=1, max_size=8))
def test_flat_lists_match_the_json_reference(values):
    for data in (values, {"coeffs": values}, [values, values]):
        assert dumps_canonical(data) == _reference(data)


def test_dumps_canonical_raises_as_the_reference_does():
    loop = []
    loop.append(loop)
    for bad, error in [(loop, ValueError), ([1, object()], TypeError), ({"a": {1, 2}}, TypeError)]:
        with pytest.raises(error):
            _reference(bad)
        with pytest.raises(error):
            dumps_canonical(bad)


def _cli_answers(tmp_path):
    """Answers the CLI writes: h1 over Q and F5, a product group with comma labels, inner-check, counterexample."""
    outputs = []

    def run(*argv):
        out = tmp_path / f"out{len(outputs)}.json"
        assert main([*argv, "-o", str(out)]) == 0
        outputs.append(out.read_text())
        return str(out)

    groups = {name: run("group", "make", "--name", name) for name in ("S3", "Q8", "C2")}
    product = run("group", "product", groups["S3"], groups["C2"])
    for name in ("S3", "Q8"):
        for field in ("Q", "F5"):
            run("h1", "--group", groups[name], "--field", field)
    run("h1", "--group", product, "--field", "Q")
    s3 = standard_group("S3")
    ident = identity_endo(s3, ZZ)
    delta = tmp_path / "delta.json"
    witness = GroupRingElement(s3, ZZ, [0, 2, -1, 0, 1, 0])
    delta.write_text(dumps_canonical(derivation_to_json(inner_derivation(witness, ident, ident))))
    run("inner-check", "--group", groups["S3"], "--delta", str(delta), "--ring", "Z")
    run("counterexample", "--base", "S3", "--n", "2")
    return outputs


def test_dumps_canonical_matches_the_json_reference_on_cli_answers(tmp_path):
    answers = _cli_answers(tmp_path)
    assert any('"(e,' in text for text in answers)
    for text in answers:
        data = json.loads(text)
        assert dumps_canonical(data) == _reference(data) == text


def _basis_document():
    group = direct_product(standard_group("A4"), standard_group("C2"))
    ident = identity_endo(group, QQ)
    space = derivation_space(ident, ident)
    return {"h1": space.h1_dimension, "basis": [derivation_to_json(d) for d in space.basis]}


def test_dumps_canonical_runs_no_pure_python_encoder(monkeypatch):
    # json.dumps(indent=2) encodes in Python through json.encoder._make_iterencode.
    data = _basis_document()
    assert sum(len(image["coeffs"]) for d in data["basis"] for image in d["images"]) >= 5000
    calls = []
    make_iterencode = json.encoder._make_iterencode

    def spy(*args, **kwargs):
        calls.append(args)
        return make_iterencode(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", spy)
    text = dumps_canonical(data)
    assert calls == []
    assert dumps_canonical({1: [2]}) == _reference({1: [2]})
    assert calls
    monkeypatch.undo()
    assert text == _reference(data)
