import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    GroupRingElement,
    MixedGroups,
    MixedRings,
    NotAField,
    NotAHomomorphism,
    NotAUnit,
    NotMultiplicative,
    augmentation,
    center_basis,
    conjugation_endo,
    endo_from_group_map,
    endo_from_images,
    identity_endo,
    invert,
    is_central_endo,
    standard_group,
)
from grpder import group_ring
from grpder.derivations import (
    DerivationMap,
    derivation_space,
    inner_derivation,
    inner_space,
    is_derivation,
    leibniz_space,
    twisted_centralizer,
)
from grpder.group_ring import RingEndomorphism, commutator_span_system, linear_extension
from grpder.groups import FiniteGroup
from grpder.rings import GF, QQ, ZZ
from test_groups import brute_classes, brute_commutator_system


@pytest.fixture(scope="module")
def s3():
    return standard_group("S3")


@pytest.fixture(scope="module")
def q8():
    return standard_group("Q8")


@pytest.fixture(scope="module")
def c2():
    return standard_group("C2")


def test_one_is_neutral(s3):
    one = GroupRingElement.one(s3, QQ)
    b = GroupRingElement(s3, QQ, [1, -2, 3, 0, Fraction(1, 2), 5])
    assert one * b == b
    assert b * one == b


def test_zc2_product(c2):
    a = GroupRingElement(c2, ZZ, [1, 1])
    b = GroupRingElement(c2, ZZ, [1, -1])
    assert (a * b).is_zero


def test_s3_rotation_product(s3):
    r = GroupRingElement.basis(s3, ZZ, 1)
    r2 = GroupRingElement.basis(s3, ZZ, 2)
    assert r * r2 == GroupRingElement.one(s3, ZZ)


def test_augmentation_values(c2):
    assert augmentation(GroupRingElement(c2, ZZ, [2, 3])) == 5
    assert augmentation(GroupRingElement.zero(c2, ZZ)) == 0
    a = GroupRingElement(c2, ZZ, [1, 1])
    b = GroupRingElement(c2, ZZ, [1, -1])
    assert augmentation(a * b) == 0
    assert augmentation(a) * augmentation(b) == 0


def test_augmentation_is_multiplicative(s3):
    rng = random.Random(11)
    for _ in range(20):
        a = GroupRingElement(s3, ZZ, [rng.randint(-4, 4) for _ in range(6)])
        b = GroupRingElement(s3, ZZ, [rng.randint(-4, 4) for _ in range(6)])
        assert augmentation(a * b) == augmentation(a) * augmentation(b)


def test_ring_axioms_sampled(q8):
    rng = random.Random(5)
    for _ in range(15):
        a, b, c = (
            GroupRingElement(q8, QQ, [rng.randint(-3, 3) for _ in range(8)])
            for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_center_basis_counts():
    assert len(center_basis(standard_group("C3"), QQ)) == 3
    assert len(center_basis(standard_group("S3"), QQ)) == 3
    assert len(center_basis(standard_group("Q8"), QQ)) == 5


def test_class_sums_are_central(s3):
    basis = [GroupRingElement.basis(s3, QQ, i) for i in range(6)]
    for class_sum in center_basis(s3, QQ):
        for g in basis:
            assert class_sum * g == g * class_sum


def test_invert_examples(c2):
    one = GroupRingElement.one(c2, QQ)
    assert invert(one) == one
    # 1+g has augmentation 2 but vanishes under the sign character.
    assert invert(GroupRingElement(c2, QQ, [1, 1])) is None
    g = GroupRingElement.basis(c2, QQ, 1)
    assert invert(g) == g
    half = GroupRingElement(c2, QQ, [Fraction(1, 2), Fraction(1, 2)])
    # (1+g)/2 is idempotent, not a unit.
    assert invert(half) is None


def test_invert_round_trip(s3):
    rng = random.Random(3)
    found = 0
    for _ in range(30):
        u = GroupRingElement(s3, QQ, [rng.randint(-2, 2) for _ in range(6)])
        u_inv = invert(u)
        if u_inv is not None:
            found += 1
            assert u * u_inv == GroupRingElement.one(s3, QQ)
            assert u_inv * u == GroupRingElement.one(s3, QQ)
    assert found > 0


def test_invert_requires_field(c2):
    with pytest.raises(NotAField):
        invert(GroupRingElement(c2, ZZ, [1, 0]))


def test_invert_mod_p(s3):
    g = GroupRingElement.basis(s3, GF(5), 3)
    g_inv = invert(g)
    assert g_inv is not None
    assert g * g_inv == GroupRingElement.one(s3, GF(5))


def test_endo_from_group_map_identity(s3):
    phi = endo_from_group_map(s3, QQ, range(6))
    assert phi.apply(GroupRingElement.basis(s3, QQ, 4)) == GroupRingElement.basis(s3, QQ, 4)


def test_endo_from_group_map_c3_squaring():
    c3 = standard_group("C3")
    phi = endo_from_group_map(c3, QQ, [0, 2, 1])
    assert phi.images[1] == GroupRingElement.basis(c3, QQ, 2)


def test_endo_from_group_map_c4():
    c4 = standard_group("C4")
    endo_from_group_map(c4, QQ, [0, 3, 2, 1])  # g -> g^3
    endo_from_group_map(c4, QQ, [0, 2, 0, 2])  # g -> g^2, non-injective
    with pytest.raises(NotAHomomorphism):
        endo_from_group_map(c4, QQ, [0, 1, 1, 1])
    with pytest.raises(NotAHomomorphism):
        endo_from_group_map(c4, QQ, [1, 0, 3, 2])


def test_basis_elements_are_shared_per_group_object_and_ring(s3):
    relabelled = FiniteGroup(s3.table, labels="abcdef", name="S3", _validated=True)
    for group in (s3, relabelled):
        bases = {}
        for ring in (QQ, ZZ, GF(5)):
            basis = [GroupRingElement.basis(group, ring, i) for i in range(group.order)]
            assert all(e.group is group and e.ring == ring for e in basis)
            assert all(a is b for a, b in zip(identity_endo(group, ring).images, basis))
            conj = [group.conjugate(1, h) for h in range(group.order)]
            assert all(a is basis[v] for a, v in zip(endo_from_group_map(group, ring, conj).images, conj))
            unit = conjugation_endo(GroupRingElement.basis(group, ring, 1).scale(-1))
            assert all(a is basis[v] for a, v in zip(unit.images, unit.group_map))
            assert GroupRingElement.one(group, ring) is basis[0]
            bases[ring] = basis
        assert len({id(e) for basis in bases.values() for e in basis}) == 3 * group.order
    assert GroupRingElement.basis(relabelled, QQ, 2) is not GroupRingElement.basis(s3, QQ, 2)
    assert GroupRingElement.basis(relabelled, QQ, 2) == GroupRingElement.basis(s3, QQ, 2)
    with pytest.raises(NotAHomomorphism):
        endo_from_group_map(s3, QQ, [0, 2, 1, 3, 4, 5])


def test_a_group_builds_only_the_basis_elements_asked_for(s3):
    group = FiniteGroup(s3.table, _validated=True)
    one = GroupRingElement.one(group, QQ)
    assert [e is not None for e in group._bases[QQ]] == [True] + [False] * 5
    assert identity_endo(group, QQ).images[0] is one
    assert all(e is not None for e in group._bases[QQ])
    # More rings than a group keeps: the set starts afresh instead of growing.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert len(primes) + 1 > group_ring._BASIS_RINGS_PER_GROUP
    for p in primes:
        GroupRingElement.basis(group, GF(p), 1)
    assert len(group._bases) <= group_ring._BASIS_RINGS_PER_GROUP
    assert GF(23) in group._bases


def test_endo_from_images_sign_twist(c2):
    one = GroupRingElement.one(c2, QQ)
    minus_g = GroupRingElement(c2, QQ, [0, -1])
    phi = endo_from_images([one, minus_g])
    assert phi.apply(GroupRingElement(c2, QQ, [2, 3])) == GroupRingElement(c2, QQ, [2, -3])


def test_endo_from_images_rejects_non_multiplicative(c2):
    one = GroupRingElement.one(c2, QQ)
    bad = GroupRingElement(c2, QQ, [1, 1])  # (1+g)^2 = 2+2g != 1
    with pytest.raises(NotMultiplicative) as err:
        endo_from_images([one, bad])
    assert err.value.pair == (1, 1)
    with pytest.raises(NotMultiplicative):
        endo_from_images([bad, bad])


def test_endo_multiplicativity_extends_bilinearly(q8):
    rng = random.Random(9)
    phi = conjugation_endo(GroupRingElement.basis(q8, QQ, 2))
    for _ in range(10):
        a = GroupRingElement(q8, QQ, [rng.randint(-2, 2) for _ in range(8)])
        b = GroupRingElement(q8, QQ, [rng.randint(-2, 2) for _ in range(8)])
        assert phi.apply(a) * phi.apply(b) == phi.apply(a * b)


def test_conjugation_by_one_is_identity(s3):
    phi = conjugation_endo(GroupRingElement.one(s3, QQ))
    assert phi == identity_endo(s3, QQ)


def test_endomorphism_equality_reads_the_content(s3, monkeypatch):
    def unit(group):  # (2 + s)(2 - s) = 3 for the reflection s
        return GroupRingElement.from_dict(group, QQ, {0: 2, 3: 1})

    phi = conjugation_endo(unit(s3))
    assert any(len(img.support) > 1 for img in phi.images)
    rebuilt = standard_group("S3")
    assert rebuilt is not s3
    images = list(phi.images)
    images[1] = images[1] + GroupRingElement.basis(s3, QQ, images[1].support[0])
    others = (
        RingEndomorphism(s3, QQ, images, _validated=True),  # one coefficient differs
        identity_endo(s3, QQ),
        phi.to_ring(GF(5)),
        RingEndomorphism(standard_group("C6"), QQ, phi.images, _validated=True),
    )
    same = conjugation_endo(unit(rebuilt))

    def no_image_comparison(self, other):
        raise AssertionError("compared images")

    monkeypatch.setattr(GroupRingElement, "__eq__", no_image_comparison)
    assert phi == same and same == phi
    for other in others:
        assert phi != other and other != phi
    assert identity_endo(s3, QQ) != identity_endo(s3, ZZ)
    assert identity_endo(s3, QQ) == identity_endo(rebuilt, QQ)


def test_conjugation_by_group_element(s3):
    g = 1  # r
    phi = conjugation_endo(GroupRingElement.basis(s3, QQ, g))
    for i in range(6):
        expected = s3.conjugate(g, i)
        assert phi.images[i] == GroupRingElement.basis(s3, QQ, expected)
    assert is_central_endo(phi)


def test_conjugation_over_z_trivial_units(q8):
    minus_i = GroupRingElement.from_dict(q8, ZZ, {2: -1})
    phi = conjugation_endo(minus_i)
    psi = conjugation_endo(GroupRingElement.basis(q8, ZZ, 2))
    assert phi == psi
    with pytest.raises(NotAUnit):
        conjugation_endo(GroupRingElement(q8, ZZ, [1, 1, 0, 0, 0, 0, 0, 0]))


@pytest.fixture
def invert_calls(monkeypatch):
    """Arguments of the calls ``group_ring`` makes to ``invert``."""
    calls = []

    def spy(u):
        calls.append(u)
        return invert(u)

    monkeypatch.setattr(group_ring, "invert", spy)
    return calls


@pytest.mark.parametrize(
    "ring, sign",
    [(ZZ, 1), (ZZ, -1), (QQ, 1), (QQ, -1), (GF(5), 1), (GF(5), -1)],
    ids=["Z+g", "Z-g", "Q+g", "Q-g", "F5+g", "F5-g"],
)
def test_conjugation_by_trivial_unit_computes_no_inverse(invert_calls, q8, ring, sign):
    for g in range(q8.order):
        phi = conjugation_endo(GroupRingElement.from_dict(q8, ring, {g: sign}))
        expected = endo_from_group_map(q8, ring, [q8.conjugate(g, h) for h in range(q8.order)])
        assert phi.images == expected.images
        assert phi.group_map == expected.group_map
    assert invert_calls == []


def test_conjugation_not_a_unit(c2):
    with pytest.raises(NotAUnit):
        conjugation_endo(GroupRingElement(c2, QQ, [1, 1]))


def test_is_central_endo_cases(s3):
    assert is_central_endo(identity_endo(s3, QQ))
    c3 = standard_group("C3")
    squaring = endo_from_group_map(c3, QQ, [0, 2, 1])
    assert not is_central_endo(squaring)


def test_conjugation_by_unit_is_central(s3):
    rng = random.Random(17)
    while True:
        u = GroupRingElement(s3, QQ, [rng.randint(-2, 2) for _ in range(6)])
        if invert(u) is not None:
            break
    assert is_central_endo(conjugation_endo(u))


def test_conjugation_by_class_sum_combination(s3):
    # 1 + 3*(r + r^2) is invertible (no character kills it) and central by
    # construction; conjugation by it fixes every class sum.
    u = GroupRingElement.one(s3, QQ) + center_basis(s3, QQ)[1].scale(3)
    assert invert(u) is not None
    assert is_central_endo(conjugation_endo(u))


def test_commutator_subspace_dimensions():
    # The all-pairs span of gh - hg has dimension n - (number of classes).
    for name in ("C4", "S3", "D4", "Q8", "A4"):
        group = standard_group(name)
        reference = brute_commutator_system(group, QQ)
        assert reference.rank == group.order - len(brute_classes(group))
        assert commutator_span_system(group, QQ).span_basis() == reference.span_basis()


def test_commutator_elements_have_zero_augmentation(q8):
    for vec in commutator_span_system(q8, QQ).span_basis():
        assert augmentation(GroupRingElement(q8, QQ, vec)) == 0


def _one(group, ring):
    return GroupRingElement.one(group, ring)


def _zeros(group, ring):
    return [GroupRingElement.zero(group, ring)] * group.order


def _ident(group, ring):
    return identity_endo(group, ring)


# Each site gets operands in Q[S3] and one operand (g, r) from elsewhere.
MEMBERSHIP_SITES = {
    "add": lambda G, R, g, r: _one(G, R) + _one(g, r),
    "sub": lambda G, R, g, r: _one(G, R) - _one(g, r),
    "mul": lambda G, R, g, r: _one(G, R) * _one(g, r),
    "linear_extension": lambda G, R, g, r: linear_extension(G, R, _ident(G, R).images, _one(g, r)),
    "endomorphism image": lambda G, R, g, r: RingEndomorphism(
        G, R, [*_ident(G, R).images[:-1], GroupRingElement.basis(g, r, 5)]
    ),
    "is_derivation image": lambda G, R, g, r: is_derivation(
        _zeros(G, R)[:-1] + [GroupRingElement.zero(g, r)], _ident(G, R), _ident(G, R)
    ),
    "inner_derivation witness": lambda G, R, g, r: inner_derivation(_one(g, r), _ident(G, R), _ident(G, R)),
    "DerivationMap sigma": lambda G, R, g, r: DerivationMap(G, R, _ident(g, r), _ident(G, R), _zeros(G, R)),
    # A tau from elsewhere, at every function that takes a (sigma, tau) pair.
    "pair: is_derivation": lambda G, R, g, r: is_derivation(_zeros(G, R), _ident(G, R), _ident(g, r)),
    "pair: inner_derivation": lambda G, R, g, r: inner_derivation(_one(G, R), _ident(G, R), _ident(g, r)),
    "pair: derivation_space": lambda G, R, g, r: derivation_space(_ident(G, R), _ident(g, r)),
    "pair: leibniz_space": lambda G, R, g, r: leibniz_space(_ident(G, R), _ident(g, r)),
    "pair: inner_space": lambda G, R, g, r: inner_space(_ident(G, R), _ident(g, r)),
    "pair: twisted_centralizer": lambda G, R, g, r: twisted_centralizer(_ident(G, R), _ident(g, r)),
}


@pytest.mark.parametrize("site", MEMBERSHIP_SITES, ids=str)
@pytest.mark.parametrize(
    "foreign, error",
    [("C6", MixedGroups), ("F5", MixedRings)],
    ids=["foreign-group", "foreign-ring"],
)
def test_every_operand_must_live_in_the_same_group_ring(s3, site, foreign, error):
    # C6 has the order of S3, so no length check can answer first.
    group, ring = (standard_group("C6"), QQ) if foreign == "C6" else (s3, GF(5))
    with pytest.raises(error):
        MEMBERSHIP_SITES[site](s3, QQ, group, ring)
    # The same site with every operand at home raises nothing.
    MEMBERSHIP_SITES[site](s3, QQ, standard_group("S3"), QQ)


def test_scalar_coercion_rejects_bad_values(c2):
    with pytest.raises(ValueError):
        GroupRingElement(c2, ZZ, [Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        GroupRingElement(c2, QQ, [1.5, 0])


def test_to_ring_rechecks_only_when_leaving_a_prime_field(c2):
    # g -> -g is multiplicative over Z and stays so reduced mod 3, where it
    # reads g -> 2g; lifting 2g back to Q gives (2g)^2 = 4 != 1.
    neg_z = endo_from_images([GroupRingElement(c2, ZZ, [1, 0]), GroupRingElement(c2, ZZ, [0, -1])])
    neg_f3 = neg_z.to_ring(GF(3))
    assert neg_f3.images[1] == GroupRingElement(c2, GF(3), [0, 2])
    assert neg_z.to_ring(QQ).images[1] == GroupRingElement(c2, QQ, [0, -1])
    with pytest.raises(NotMultiplicative):
        neg_f3.to_ring(QQ)


# -- sparse kernel against a dense reference ------------------------------
#
# The arithmetic computes only at support positions and hands the support to
# the constructor. The references below compute every position, as a dense
# vector, and rescan for the support.

_KERNEL_GROUPS = [standard_group(name) for name in ("S3", "Q8", "C2xC2")]
_KERNEL_RINGS = [ZZ, QQ, GF(2), GF(3), GF(7)]


def _dense(ring, vec):
    p = ring.characteristic
    return [v % p for v in vec] if p else list(vec)


def _dense_add(a, b):
    return _dense(a.ring, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def _dense_sub(a, b):
    return _dense(a.ring, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def _dense_neg(a):
    return _dense(a.ring, [-x for x in a.coeffs])


def _dense_scale(a, factor):
    factor = a.ring.coerce(factor)
    return _dense(a.ring, [factor * x for x in a.coeffs])


def _dense_mul(a, b):
    n, table = a.group.order, a.group.table
    vec = [a.ring.zero] * n
    for i in range(n):
        for j in range(n):
            vec[table[i][j]] += a.coeffs[i] * b.coeffs[j]
    return _dense(a.ring, vec)


def _dense_linear_extension(images, a):
    n = a.group.order
    vec = [a.ring.zero] * n
    for i in range(n):
        for k in range(n):
            vec[k] += a.coeffs[i] * images[i].coeffs[k]
    return _dense(a.ring, vec)


def _assert_matches(result, expected):
    assert list(result.coeffs) == expected
    scalar = Fraction if result.ring == QQ else int
    assert all(type(v) is scalar for v in result.coeffs)
    assert result.support == tuple(i for i, v in enumerate(expected) if v)


def _scalars(ring):
    if ring == QQ:
        return st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=6)
    return st.integers(-9, 9)


@st.composite
def _elements(draw, group, ring):
    """Sparse or dense elements, some of them results of arithmetic."""
    entries = draw(st.dictionaries(st.integers(0, group.order - 1), _scalars(ring), max_size=group.order))
    element = GroupRingElement.from_dict(group, ring, entries)
    if draw(st.booleans()):
        other = GroupRingElement.from_dict(group, ring, draw(st.dictionaries(st.integers(0, group.order - 1), _scalars(ring), max_size=3)))
        element = element + other - other
    return element


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_sparse_arithmetic_matches_dense_reference(data):
    group = data.draw(st.sampled_from(_KERNEL_GROUPS), label="group")
    ring = data.draw(st.sampled_from(_KERNEL_RINGS), label="ring")
    a = data.draw(_elements(group, ring), label="a")
    b = data.draw(_elements(group, ring), label="b")
    factor = data.draw(_scalars(ring), label="factor")
    _assert_matches(a + b, _dense_add(a, b))
    _assert_matches(a - b, _dense_sub(a, b))
    _assert_matches(-a, _dense_neg(a))
    _assert_matches(a.scale(factor), _dense_scale(a, factor))
    _assert_matches(a.scale(0), _dense_scale(a, 0))
    _assert_matches(a * b, _dense_mul(a, b))
    _assert_matches(a - a, [ring.zero] * group.order)
    images = [data.draw(_elements(group, ring), label=f"image {i}") for i in range(group.order)]
    _assert_matches(linear_extension(group, ring, images, a), _dense_linear_extension(images, a))


_BIG_Q = st.integers(-10**9, 10**9) | st.fractions(max_denominator=10**12)


@st.composite
def _mixed_q_elements(draw, group):
    """Q elements built with ``_normalized=True`` from a mix of ints and Fractions, zeros included."""
    coeffs = [
        draw(st.just(0) | st.just(Fraction(0)) | _BIG_Q) if draw(st.booleans()) else 0
        for _ in range(group.order)
    ]
    return GroupRingElement(group, QQ, coeffs, _normalized=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_q_products_on_numerators_match_dense_reference(data):
    group = data.draw(st.sampled_from(_KERNEL_GROUPS), label="group")
    a = data.draw(_mixed_q_elements(group), label="a")
    b = data.draw(_mixed_q_elements(group), label="b")
    _assert_matches(a * b, _dense_mul(a, b))
    _assert_matches(b * a, _dense_mul(b, a))
    images = [data.draw(_mixed_q_elements(group), label=f"image {i}") for i in range(group.order)]
    _assert_matches(linear_extension(group, QQ, images, a), _dense_linear_extension(images, a))
    # (x (1 + g)) (y (1 - g)) = 0 for g of order 2: every product term cancels.
    g = next(i for i in range(1, group.order) if group.table[i][i] == 0)
    x, y = data.draw(_BIG_Q, label="x"), data.draw(_BIG_Q, label="y")
    left = GroupRingElement(group, QQ, [x if i in (0, g) else 0 for i in range(group.order)], _normalized=True)
    right = GroupRingElement(group, QQ, [y if i == 0 else -y if i == g else 0 for i in range(group.order)], _normalized=True)
    _assert_matches(left * right, [QQ.zero] * group.order)


@pytest.mark.parametrize("group", _KERNEL_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("p", [2, 3, 7])
def test_sparse_arithmetic_cancels_in_prime_fields(group, p):
    ring = GF(p)
    x = GroupRingElement(group, ring, [(3 * i + 1) % p for i in range(group.order)])
    total = GroupRingElement.zero(group, ring)
    for _ in range(p):
        expected = _dense_add(total, x)
        total = total + x
        _assert_matches(total, expected)
    _assert_matches(total, [0] * group.order)
    _assert_matches(x.scale(p), [0] * group.order)
    _assert_matches(x - x, [0] * group.order)
    _assert_matches(x + (-x), [0] * group.order)


@pytest.mark.parametrize("group", _KERNEL_GROUPS, ids=lambda g: g.name)
@pytest.mark.parametrize("ring", _KERNEL_RINGS, ids=repr)
def test_basis_and_zero_match_dense_reference(group, ring):
    n = group.order
    _assert_matches(GroupRingElement.zero(group, ring), _dense(ring, [ring.zero] * n))
    for i in range(n):
        expected = _dense(ring, [ring.one if k == i else ring.zero for k in range(n)])
        _assert_matches(GroupRingElement.basis(group, ring, i), expected)
    for index in (-1, n):
        with pytest.raises(IndexError):
            GroupRingElement.basis(group, ring, index)


# -- index checks for group maps against the product references ----------------

INDEX_GROUPS = ("S3", "D4", "Q8", "A4", "C8")
INDEX_RINGS = (QQ, GF(2), GF(3))


def _conjugation_and_power_maps(group):
    n = group.order
    maps = [[group.conjugate(x, g) for g in range(n)] for x in range(n)]
    for k in range(n):
        power = []
        for g in range(n):
            h = 0
            for _ in range(k):
                h = group.mul(h, g)
            power.append(h)
        maps.append(power)
    return maps


def _product_check(images):
    """The first pair ``(i, j)``, ``j`` a generator, with ``phi(g_i) phi(g_j) != phi(g_i g_j)``, or None."""
    group = images[0].group
    for j in group.generators():
        for i in range(group.order):
            if images[i] * images[j] != images[group.mul(i, j)]:
                return i, j
    return None


def _index_check(images):
    try:
        phi = endo_from_images(images)
    except NotMultiplicative as exc:
        return exc.pair
    assert phi.group_map == tuple(img.support[0] for img in images)
    return None


@pytest.mark.parametrize("ring", INDEX_RINGS, ids=str)
@pytest.mark.parametrize("name", INDEX_GROUPS)
def test_index_check_matches_the_product_check(name, ring):
    group = standard_group(name)
    n = group.order
    accepted = 0
    for f in _conjugation_and_power_maps(group):
        images = [GroupRingElement.basis(group, ring, v) for v in f]
        expected = _product_check(images)
        assert _index_check(images) == expected
        accepted += expected is None
        # The same map with two non-identity images swapped.
        for a, b in [(1, n - 1), (1, 2), (n // 2, n - 1)]:
            if f[a] != f[b]:
                swapped = list(images)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                assert _index_check(swapped) == _product_check(swapped)
    assert accepted > n  # every conjugation map, and the trivial and identity power maps


@pytest.mark.parametrize("ring", [QQ, GF(3)], ids=str)
def test_index_check_takes_only_unit_coefficients(s3, ring):
    # Images -g, 2g or 0 stay on the product check (over F2, -g is g), and fail where it fails.
    one = GroupRingElement.one(s3, ring)
    for scale in (-1, 2, 0):
        images = [one] + [GroupRingElement.basis(s3, ring, v).scale(scale) for v in range(1, 6)]
        with pytest.raises(NotMultiplicative) as err:
            endo_from_images(images)
        assert err.value.pair == _product_check(images)


def test_group_map_images_are_validated_without_products(s3, monkeypatch):
    f = [s3.conjugate(2, g) for g in range(6)]
    images = [GroupRingElement.basis(s3, QQ, v) for v in f]
    swapped = images[:1] + images[2:3] + images[1:2] + images[3:]
    expected = _product_check(swapped)

    def no_product(self, other):
        raise AssertionError("validated by products")

    monkeypatch.setattr(GroupRingElement, "__mul__", no_product)
    assert endo_from_images(images).group_map == tuple(f)
    with pytest.raises(NotMultiplicative) as err:
        endo_from_images(swapped)
    assert err.value.pair == expected
    assert is_central_endo(endo_from_images(images))


def test_group_maps_reject_with_the_same_pair_either_way(s3):
    # endo_from_group_map names the pair the product check of the same images names.
    f = [s3.conjugate(1, g) for g in range(6)]
    f[1], f[2] = f[2], f[1]
    images = [GroupRingElement.basis(s3, QQ, v) for v in f]
    i, j = _product_check(images)
    with pytest.raises(NotAHomomorphism, match=rf"f\(g{i}\*g{j}\)"):
        endo_from_group_map(s3, QQ, f)
    with pytest.raises(NotMultiplicative) as err:
        endo_from_images(images)
    assert err.value.pair == (i, j)


def _class_sum_check(phi):
    return all(phi.apply(c) == c for c in center_basis(phi.group, phi.ring))


@pytest.mark.parametrize("ring", INDEX_RINGS, ids=str)
@pytest.mark.parametrize("name", INDEX_GROUPS)
def test_centrality_by_index_matches_the_class_sums(name, ring):
    group = standard_group(name)
    n = group.order
    maps = [
        f
        for f in _conjugation_and_power_maps(group)
        if _product_check([GroupRingElement.basis(group, ring, v) for v in f]) is None
    ]
    assert [0] * n in maps
    seen = set()
    for f in maps:
        phi = endo_from_group_map(group, ring, f)
        assert phi.group_map is not None
        central = is_central_endo(phi)
        assert central == _class_sum_check(phi)
        seen.add(central)
    assert not is_central_endo(endo_from_group_map(group, ring, [0] * n))
    assert seen == {True, False}


def test_centrality_of_maps_without_a_group_map(s3):
    # The sign twist of C2 and a dense conjugation take the class-sum path.
    c2 = standard_group("C2")
    sign = endo_from_images([GroupRingElement.one(c2, QQ), GroupRingElement(c2, QQ, [0, -1])])
    assert sign.group_map is None
    assert is_central_endo(sign) == _class_sum_check(sign) is False
    dense = conjugation_endo(GroupRingElement(s3, QQ, [2, 1, 0, 0, 0, 0]))
    assert dense.group_map is None
    assert is_central_endo(dense) == _class_sum_check(dense) is True
