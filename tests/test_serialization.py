import time
from fractions import Fraction

import pytest

from grpder import (
    GroupRingElement,
    NotMultiplicative,
    conjugation_endo,
    identity_endo,
    inner_derivation,
    standard_group,
)
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
    with pytest.raises(ValueError):
        element_from_json(c2, {"ring": "Q", "coeffs": [1]})
    with pytest.raises(ValueError):
        element_from_json(c2, {"ring": "Q", "coeffs": [1, 2]}, expected_ring=ZZ)
    with pytest.raises(ValueError):
        element_from_json(c2, {"ring": "Fp", "coeffs": [1, 2]})
    with pytest.raises(ValueError, match="must be a list"):
        element_from_json(c2, {"ring": "Q", "coeffs": "12"})


@pytest.mark.parametrize("token", [["Q"], None, 5, {"F": 5}, b"Q"])
def test_ring_from_token_rejects_non_strings(token):
    with pytest.raises(ValueError, match="must be a string"):
        ring_from_token(token)


@pytest.mark.parametrize("p", [5.0, True, "5"])
def test_ring_from_token_rejects_non_integer_modulus(p):
    with pytest.raises(ValueError, match="must be an integer"):
        ring_from_token("Fp", p)
    assert ring_from_token("Fp", 5) is GF(5)


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
