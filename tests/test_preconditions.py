"""Each precondition is checked in one place; the code that relies on it stays correct.

* Field coefficients: only the ``LinearSystem`` constructor raises NotAField,
  and every field-only entry point reaches it over Z.
* Decoded scalars: ``parse_scalar`` coerces once and ``element_from_json``
  keeps its values as they are.
* Matrices the library builds itself (``_validated=True``) hold exactly what
  the coercing constructor would hold.
* Conjugacy classes are built once per group and handed out as fresh lists.
"""

import random
from fractions import Fraction

import pytest

from grpder import (
    ExactMatrix,
    GroupRingElement,
    NotAField,
    conjugacy_classes,
    derivation_space,
    direct_product,
    h1_dimension,
    identity_endo,
    inner_derivation,
    inner_space,
    inner_witness,
    inner_witness_integer,
    inner_witness_with_support,
    invert,
    kernel_basis,
    leibniz_space,
    smith_normal_form,
    solve,
    standard_group,
    twisted_centralizer,
    zc2_congruence_check,
)
from grpder import linalg
from grpder.group_ring import commutator_span_system
from grpder.linalg import rank
from grpder.rings import GF, QQ, ZZ, parse_scalar
from grpder.serialization import element_from_json, ring_to_json_fields
from grpder.util import _clear_caches


def _integral_pair():
    group = standard_group("S3")
    ident = identity_endo(group, ZZ)
    x = GroupRingElement.basis(group, ZZ, 3)
    return group, ident, inner_derivation(x, ident, ident), x


def _field_only_calls():
    group, ident, delta, x = _integral_pair()
    one = GroupRingElement.one(group, ZZ)
    matrix = ExactMatrix(ZZ, [[1, 2], [3, 4]])
    return {
        "derivation_space": lambda: derivation_space(ident, ident),
        "leibniz_space": lambda: leibniz_space(ident, ident),
        "inner_space": lambda: inner_space(ident, ident),
        "twisted_centralizer": lambda: twisted_centralizer(ident, ident),
        "h1_dimension": lambda: h1_dimension(ident, ident),
        "inner_witness": lambda: inner_witness(delta, ident, ident),
        "inner_witness_with_support": lambda: inner_witness_with_support(delta, ident, ident, range(group.order)),
        "zc2_congruence_check": lambda: zc2_congruence_check(delta, ident, ident, one, x),
        "invert": lambda: invert(one),
        "commutator_span_system": lambda: commutator_span_system(group, ZZ),
        "kernel_basis": lambda: kernel_basis(matrix),
        "solve": lambda: solve(matrix, [1, 1]),
        "rank": lambda: rank(matrix),
    }


@pytest.mark.parametrize("entry", sorted(_field_only_calls()))
def test_field_only_entry_points_raise_not_a_field_over_z(entry):
    with pytest.raises(NotAField, match="requires field coefficients, got Z"):
        _field_only_calls()[entry]()


_RAW = [0, 1, -1, -7, 5, 7, 12, 100, -13, "3", "-9", "6/3", "-8/4", "0/5", "1/2", "-3/4", "22/7", "9/6"]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(5), GF(7)], ids=str)
def test_decoded_coefficients_are_coerced_exactly_once(ring):
    # Over Z a non-integral "num/den" is an error either way, so keep what parses.
    raws = []
    for raw in _RAW:
        try:
            parse_scalar(ring, raw)
        except ValueError:
            continue
        raws.append(raw)
    group = standard_group("C1")
    for raw in raws:
        element = element_from_json(group, {**ring_to_json_fields(ring), "coeffs": [raw]})
        expected = ring.coerce(parse_scalar(ring, raw))
        assert element.coeffs == (expected,)
        assert type(element.coeffs[0]) is type(expected)
    big = standard_group(f"C{len(raws)}")
    element = element_from_json(big, {**ring_to_json_fields(ring), "coeffs": raws})
    reference = GroupRingElement(big, ring, [parse_scalar(ring, v) for v in raws])
    assert element == reference
    assert element.support == reference.support
    assert [type(v) for v in element.coeffs] == [type(v) for v in reference.coeffs]
    if ring == ZZ:
        assert len(raws) < len(_RAW)  # "1/2" and friends were rejected


def _assert_as_if_coerced(matrix, ring, scalar_type):
    assert matrix == ExactMatrix(ring, matrix.entries)
    assert (matrix.rows, matrix.cols) == (len(matrix.entries), len(matrix.entries[0]))
    assert all(len(row) == matrix.cols for row in matrix.entries)
    assert all(type(v) is scalar_type for row in matrix.entries for v in row)


def test_smith_factors_equal_coerced_matrices():
    rng = random.Random(8)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        matrix = ExactMatrix(ZZ, entries)
        snf = smith_normal_form(matrix)
        for factor in (snf.U, snf.S, snf.V):
            _assert_as_if_coerced(factor, ZZ, int)
        assert matrix.entries == entries  # the input is not reused in place
        assert snf.U.matmul(matrix).matmul(snf.V) == snf.S


@pytest.mark.parametrize(
    "ring, scalar_type",
    [(ZZ, int), (QQ, Fraction), (GF(7), int)],
    ids=["Z", "Q", "F7"],
)
def test_matmul_product_equals_coerced_matrix(ring, scalar_type):
    rng = random.Random(9)
    for _ in range(20):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = ExactMatrix(ring, [[rng.randint(-9, 9) for _ in range(k)] for _ in range(m)])
        b = ExactMatrix(ring, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)])
        _assert_as_if_coerced(a.matmul(b), ring, scalar_type)


@pytest.fixture
def cold_caches():
    _clear_caches()
    yield
    _clear_caches()


def test_integral_witness_matrix_equals_coerced_matrix(monkeypatch, cold_caches):
    # The matrix reaches the solver as the argument of its one Smith normal form run.
    seen = []
    original = linalg.smith_normal_form

    def recording(matrix, **kwargs):
        seen.append(matrix)
        return original(matrix, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    group = direct_product(standard_group("S3"), standard_group("C2"))
    ident = identity_endo(group, ZZ)
    x = GroupRingElement(group, ZZ, [(3 * i) % 5 - 2 for i in range(group.order)])
    delta = inner_derivation(x, ident, ident)
    assert inner_witness_integer(delta, ident, ident) is not None
    (matrix,) = seen
    assert (matrix.rows, matrix.cols) == (group.order * len(group.generators()), group.order)
    _assert_as_if_coerced(matrix, ZZ, int)


@pytest.mark.parametrize("name", ["C1", "S3", "Q8", "A4"])
def test_conjugacy_classes_are_cached_and_copied(name):
    group = standard_group(name)
    first = conjugacy_classes(group)
    second = conjugacy_classes(group)
    assert first == second
    assert first is not second
    snapshot = [tuple(c.members) for c in first]
    first.clear()
    second.append(second[0])
    second.reverse()
    third = conjugacy_classes(group)
    assert [tuple(c.members) for c in third] == snapshot
    assert all(c.members == tuple(sorted(c.members)) for c in third)
