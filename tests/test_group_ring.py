import random
from fractions import Fraction

import pytest

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
    commutator_subspace,
    conjugacy_classes,
    conjugation_endo,
    endo_from_group_map,
    endo_from_images,
    identity_endo,
    invert,
    is_central_endo,
    multiply,
    standard_group,
)
from grpder.rings import GF, QQ, ZZ


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
    assert multiply(one, b) == b
    assert multiply(b, one) == b


def test_zc2_product(c2):
    a = GroupRingElement(c2, ZZ, [1, 1])
    b = GroupRingElement(c2, ZZ, [1, -1])
    assert multiply(a, b).is_zero


def test_s3_rotation_product(s3):
    r = GroupRingElement.basis(s3, ZZ, 1)
    r2 = GroupRingElement.basis(s3, ZZ, 2)
    assert multiply(r, r2) == GroupRingElement.one(s3, ZZ)


def test_augmentation_values(c2):
    assert augmentation(GroupRingElement(c2, ZZ, [2, 3])) == 5
    assert augmentation(GroupRingElement.zero(c2, ZZ)) == 0
    a = GroupRingElement(c2, ZZ, [1, 1])
    b = GroupRingElement(c2, ZZ, [1, -1])
    assert augmentation(multiply(a, b)) == 0
    assert augmentation(a) * augmentation(b) == 0


def test_augmentation_is_multiplicative(s3):
    rng = random.Random(11)
    for _ in range(20):
        a = GroupRingElement(s3, ZZ, [rng.randint(-4, 4) for _ in range(6)])
        b = GroupRingElement(s3, ZZ, [rng.randint(-4, 4) for _ in range(6)])
        assert augmentation(multiply(a, b)) == augmentation(a) * augmentation(b)


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
    assert commutator_subspace(standard_group("C4"), QQ) == []
    for name in ("S3", "D4", "Q8", "A4"):
        group = standard_group(name)
        dim = len(commutator_subspace(group, QQ))
        assert dim == group.order - len(conjugacy_classes(group))


def test_commutator_elements_have_zero_augmentation(q8):
    for vec in commutator_subspace(q8, QQ):
        assert augmentation(vec) == 0


def test_mixed_ring_and_group_errors(c2, s3):
    a = GroupRingElement(c2, ZZ, [1, 0])
    b = GroupRingElement(c2, QQ, [1, 0])
    with pytest.raises(MixedRings):
        multiply(a, b)
    c = GroupRingElement.one(s3, ZZ)
    with pytest.raises(MixedGroups):
        multiply(a, c)


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
