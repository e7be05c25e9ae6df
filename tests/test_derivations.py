import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    CancelToken,
    Cancelled,
    GroupRingElement,
    LinearSystem,
    NotADerivation,
    NotAField,
    NotAUnit,
    NotAWitness,
    NotCentral,
    center,
    center_basis,
    commutative_derivation_form,
    conjugation_endo,
    derivation_from_images,
    derivation_space,
    endo_from_group_map,
    endo_from_images,
    extend_scalars,
    gcd_criterion,
    h1_dimension,
    identity_endo,
    inner_derivation,
    inner_space,
    inner_witness,
    inner_witness_integer,
    inner_witness_with_support,
    invert,
    is_central_endo,
    is_derivation,
    standard_group,
    twisted_centralizer,
    zc2_congruence_check,
)
from grpder.rings import GF, QQ, ZZ


@pytest.fixture(scope="module")
def c2():
    return standard_group("C2")


@pytest.fixture(scope="module")
def s3():
    return standard_group("S3")


@pytest.fixture(scope="module")
def q8():
    return standard_group("Q8")


def sign_twist(group, ring):
    images = []
    for k in range(group.order):
        coeffs = [ring.zero] * group.order
        coeffs[k] = ring.one if k % 2 == 0 else -ring.one
        images.append(GroupRingElement(group, ring, coeffs))
    return endo_from_images(images)


# -- is_derivation / inner_derivation ---------------------------------------


def test_zero_map_is_derivation(s3):
    ident = identity_endo(s3, QQ)
    zeros = [GroupRingElement.zero(s3, QQ) for _ in range(6)]
    assert is_derivation(zeros, ident, ident)


def test_inner_maps_are_derivations(q8):
    rng = random.Random(2)
    ident = identity_endo(q8, QQ)
    conj = conjugation_endo(GroupRingElement.basis(q8, QQ, 4))
    for sigma, tau in [(ident, ident), (conj, ident), (conj, conj)]:
        for _ in range(5):
            x = GroupRingElement(q8, QQ, [rng.randint(-3, 3) for _ in range(8)])
            d = inner_derivation(x, sigma, tau)
            assert is_derivation(d.images, sigma, tau)
            assert d.images[0].is_zero


def test_constant_image_fails_leibniz(c2):
    ident = identity_endo(c2, QQ)
    candidate = [GroupRingElement.zero(c2, QQ), GroupRingElement.one(c2, QQ)]
    assert not is_derivation(candidate, ident, ident)


def test_nonzero_identity_image_rejected(c2):
    ident = identity_endo(c2, QQ)
    candidate = [GroupRingElement.one(c2, QQ), GroupRingElement.zero(c2, QQ)]
    assert not is_derivation(candidate, ident, ident)
    with pytest.raises(NotADerivation):
        derivation_from_images(candidate, ident, ident)


def test_inner_derivation_frozen_values(s3):
    ident = identity_endo(s3, QQ)
    zero = inner_derivation(GroupRingElement.zero(s3, QQ), ident, ident)
    assert zero.is_zero
    central = center_basis(s3, QQ)[1]
    assert inner_derivation(central, ident, ident).is_zero
    r = GroupRingElement.basis(s3, QQ, 1)
    d = inner_derivation(r, ident, ident)
    # d(s) = rs - sr = rs - r2s, nonzero
    s_index = 3
    expected = GroupRingElement.from_dict(s3, QQ, {4: 1, 5: -1})
    assert d.images[s_index] == expected


# -- derivation_space / inner_space / h1 -------------------------------------


def test_space_qc2_trivial(c2):
    ident = identity_endo(c2, QQ)
    space = derivation_space(ident, ident)
    assert (len(space.basis), len(space.inner_basis), space.h1_dimension) == (0, 0, 0)


def test_space_f2c2(c2):
    ident = identity_endo(c2, GF(2))
    space = derivation_space(ident, ident)
    assert (len(space.basis), len(space.inner_basis), space.h1_dimension) == (2, 0, 2)


def test_space_qs3(s3):
    ident = identity_endo(s3, QQ)
    space = derivation_space(ident, ident)
    assert (len(space.basis), len(space.inner_basis), space.h1_dimension) == (3, 3, 0)
    for d in space.basis:
        assert is_derivation(d.images, ident, ident)


def test_space_f5s3(s3):
    ident = identity_endo(s3, GF(5))
    space = derivation_space(ident, ident)
    assert (len(space.basis), len(space.inner_basis), space.h1_dimension) == (3, 3, 0)


def test_space_sign_twist_dimensions():
    for name, expected_dim in (("C2", 2), ("C4", 4)):
        group = standard_group(name)
        sigma = identity_endo(group, QQ)
        tau = sign_twist(group, QQ)
        space = derivation_space(sigma, tau)
        assert len(space.basis) == expected_dim
        assert space.h1_dimension == 0


def test_space_requires_field(s3):
    ident = identity_endo(s3, ZZ)
    with pytest.raises(NotAField):
        derivation_space(ident, ident)


def test_inner_dimension_formula():
    for name in ("S3", "D4", "Q8", "A4"):
        group = standard_group(name)
        ident = identity_endo(group, QQ)
        inner = inner_space(ident, ident)
        centralizer = twisted_centralizer(ident, ident)
        assert len(inner) == group.order - len(centralizer)


def test_space_closure_and_containment(q8):
    ident = identity_endo(q8, QQ)
    space = derivation_space(ident, ident)
    a, b = space.basis[0], space.basis[1]
    combo = a + b.scale(Fraction(3, 2))
    assert is_derivation(combo.images, ident, ident)
    # Inner basis lies inside the span of the full basis.
    n = q8.order
    system = LinearSystem(n * (n - 1), QQ)
    for d in space.basis:
        system.add_row({i: v for i, v in enumerate(d.as_vector()) if v})
    outer_rank = system.rank
    for d in space.inner_basis:
        system.add_row({i: v for i, v in enumerate(d.as_vector()) if v})
    assert system.rank == outer_rank


@pytest.mark.parametrize(
    "name", ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4"]
)
def test_space_invariants_identity_pair(name):
    from grpder import conjugacy_classes

    group = standard_group(name)
    ident = identity_endo(group, QQ)
    space = derivation_space(ident, ident)
    n = group.order
    assert space.h1_dimension == len(space.basis) - len(space.inner_basis)
    assert len(space.basis) == n - len(conjugacy_classes(group))
    for d in space.basis:
        assert is_derivation(d.images, ident, ident)
        assert d.images[0].is_zero
    system = LinearSystem(n * (n - 1), QQ)
    for d in space.basis:
        system.add_row({i: v for i, v in enumerate(d.as_vector()) if v})
    outer_rank = system.rank
    for d in space.inner_basis:
        system.add_row({i: v for i, v in enumerate(d.as_vector()) if v})
    assert system.rank == outer_rank


def test_twisted_centralizer_identity_pair_is_center(s3):
    ident = identity_endo(s3, QQ)
    centralizer = twisted_centralizer(ident, ident)
    assert len(centralizer) == 3
    span = LinearSystem(6, QQ)
    for vec in centralizer:
        span.add_row({i: v for i, v in enumerate(vec.coeffs) if v})
    for class_sum in center_basis(s3, QQ):
        assert span.contains(class_sum.coeffs)


def test_twisted_centralizer_abelian_same_pair():
    c4 = standard_group("C4")
    phi = endo_from_group_map(c4, QQ, [0, 3, 2, 1])
    assert len(twisted_centralizer(phi, phi)) == 4


def test_twisted_centralizer_sign_twist_trivial(c2):
    ident = identity_endo(c2, QQ)
    tau = sign_twist(c2, QQ)
    assert twisted_centralizer(ident, tau) == []


def test_h1_dimension_values(s3, c2):
    assert h1_dimension(identity_endo(s3, QQ), identity_endo(s3, QQ)) == 0
    assert h1_dimension(identity_endo(c2, GF(2)), identity_endo(c2, GF(2))) == 2
    assert h1_dimension(identity_endo(s3, GF(5)), identity_endo(s3, GF(5))) == 0


# -- witnesses ---------------------------------------------------------------


def test_witness_of_zero_map_is_zero(s3):
    ident = identity_endo(s3, QQ)
    zero_map = inner_derivation(GroupRingElement.zero(s3, QQ), ident, ident)
    assert inner_witness(zero_map, ident, ident) == GroupRingElement.zero(s3, QQ)


def test_witness_round_trip(q8):
    rng = random.Random(4)
    ident = identity_endo(q8, QQ)
    conj = conjugation_endo(GroupRingElement.basis(q8, QQ, 6))
    for sigma, tau in [(ident, ident), (conj, ident)]:
        x = GroupRingElement(q8, QQ, [rng.randint(-3, 3) for _ in range(8)])
        d = inner_derivation(x, sigma, tau)
        alpha = inner_witness(d, sigma, tau)
        assert alpha is not None
        assert inner_derivation(alpha, sigma, tau) == d


def test_witness_absent_in_char_two(c2):
    ident = identity_endo(c2, GF(2))
    images = [GroupRingElement.zero(c2, GF(2)), GroupRingElement.one(c2, GF(2))]
    delta = derivation_from_images(images, ident, ident)
    assert inner_witness(delta, ident, ident) is None


def test_witness_rejects_invalid_input(c2):
    ident = identity_endo(c2, QQ)
    from grpder.derivations import DerivationMap

    # A map that breaks the Leibniz rule cannot reach the solver at all.
    with pytest.raises(NotADerivation):
        DerivationMap(
            c2, QQ, ident, ident,
            [GroupRingElement.zero(c2, QQ), GroupRingElement.one(c2, QQ)],
        )


def test_witness_coset(s3):
    rng = random.Random(6)
    ident = identity_endo(s3, QQ)
    centralizer = twisted_centralizer(ident, ident)
    span = LinearSystem(6, QQ)
    for vec in centralizer:
        span.add_row({i: v for i, v in enumerate(vec.coeffs) if v})
    x = GroupRingElement(s3, QQ, [rng.randint(-3, 3) for _ in range(6)])
    d = inner_derivation(x, ident, ident)
    alpha = inner_witness(d, ident, ident)
    assert span.contains((x - alpha).coeffs)


def test_integer_witness_round_trip(s3):
    ident = identity_endo(s3, ZZ)
    zero_map = inner_derivation(GroupRingElement.zero(s3, ZZ), ident, ident)
    assert inner_witness_integer(zero_map, ident, ident) == GroupRingElement.zero(s3, ZZ)
    x = GroupRingElement(s3, ZZ, [2, -1, 0, 3, 1, 0])
    d = inner_derivation(x, ident, ident)
    alpha = inner_witness_integer(d, ident, ident)
    assert alpha is not None
    assert inner_derivation(alpha, ident, ident) == d


def test_integer_witness_validates_input(c2):
    ident = identity_endo(c2, ZZ)
    from grpder.derivations import DerivationMap

    with pytest.raises(NotADerivation):
        DerivationMap(
            c2, ZZ, ident, ident,
            [GroupRingElement.zero(c2, ZZ), GroupRingElement(c2, ZZ, [1, 1])],
        )


def test_sign_twist_map_not_integrally_inner(c2):
    # With tau the sign twist on C2, d(g) = 1 is a valid integral derivation
    # whose only rational witnesses are half-integral (alpha = -g/2), so the
    # divisibility test fails (the witness rows are multiples of 2).
    ident_z = identity_endo(c2, ZZ)
    tau_z = sign_twist(c2, ZZ)
    images = [GroupRingElement.zero(c2, ZZ), GroupRingElement.one(c2, ZZ)]
    d_z = derivation_from_images(images, ident_z, tau_z)
    assert gcd_criterion(d_z, ident_z, tau_z) is False
    assert inner_witness_integer(d_z, ident_z, tau_z) is None
    # Over Q the same map is inner, witnessed by -g/2.
    d_q = d_z.to_ring(QQ)
    alpha = inner_witness(d_q, d_q.sigma, d_q.tau)
    assert alpha == GroupRingElement(c2, QQ, [0, Fraction(-1, 2)])


# -- gcd criterion -----------------------------------------------------------


def test_gcd_criterion_zero_map(s3):
    ident = identity_endo(s3, ZZ)
    zero_map = inner_derivation(GroupRingElement.zero(s3, ZZ), ident, ident)
    assert gcd_criterion(zero_map, ident, ident)


def test_gcd_criterion_group_induced_rows_are_small(s3):
    # For group-induced twists, every row coefficient is -1, 0 or 1.
    conj = endo_from_group_map(s3, ZZ, [s3.conjugate(1, i) for i in range(6)])
    ident = identity_endo(s3, ZZ)
    inv = [s3.inverse(h) for h in range(6)]
    for i in range(6):
        for x in range(6):
            for h in range(6):
                c = ident.images[i].coeffs[s3.mul(inv[h], x)]
                b = conj.images[i].coeffs[s3.mul(x, inv[h])]
                assert c - b in (-1, 0, 1)
    x_el = GroupRingElement(s3, ZZ, [1, 0, 2, -1, 0, 1])
    d = inner_derivation(x_el, conj, ident)
    assert gcd_criterion(d, conj, ident)
    assert inner_witness_integer(d, conj, ident) is not None


def test_gcd_criterion_agrees_with_witness(q8):
    rng = random.Random(8)
    ident = identity_endo(q8, ZZ)
    conj = conjugation_endo(GroupRingElement.basis(q8, ZZ, 2))
    for _ in range(20):
        x = GroupRingElement(q8, ZZ, [rng.randint(-3, 3) for _ in range(8)])
        d = inner_derivation(x, conj, ident)
        assert gcd_criterion(d, conj, ident) == (
            inner_witness_integer(d, conj, ident) is not None
        )


# -- scalar extension ---------------------------------------------------------


def test_extend_scalars_round_trip(q8):
    ident = identity_endo(q8, ZZ)
    x = GroupRingElement(q8, ZZ, [0, 1, -2, 0, 3, 0, 0, 1])
    d = inner_derivation(x, ident, ident)
    lifted = extend_scalars(d, ident, ident)
    assert lifted.ring == QQ
    assert is_derivation(lifted.images, lifted.sigma, lifted.tau)
    back = [
        GroupRingElement(q8, ZZ, [int(v) for v in img.coeffs]) for img in lifted.images
    ]
    assert all(a == b for a, b in zip(back, d.images))
    assert inner_witness(lifted, lifted.sigma, lifted.tau) is not None


def test_extend_scalars_zero(c2):
    ident = identity_endo(c2, ZZ)
    zero_map = inner_derivation(GroupRingElement.zero(c2, ZZ), ident, ident)
    assert extend_scalars(zero_map, ident, ident).is_zero


def test_extend_scalars_requires_central():
    c3 = standard_group("C3")
    squaring = endo_from_group_map(c3, ZZ, [0, 2, 1])
    ident = identity_endo(c3, ZZ)
    zero_map = inner_derivation(GroupRingElement.zero(c3, ZZ), squaring, ident)
    with pytest.raises(NotCentral):
        extend_scalars(zero_map, squaring, ident)


# -- congruence check ----------------------------------------------------------


def test_congruence_inner_case(s3):
    ident = identity_endo(s3, QQ)
    one = GroupRingElement.one(s3, QQ)
    alpha = GroupRingElement(s3, QQ, [1, -2, 0, 3, 0, 1])
    delta = inner_derivation(alpha, ident, ident)
    assert zc2_congruence_check(delta, ident, ident, one, alpha)


def test_congruence_zero_on_abelian():
    c4 = standard_group("C4")
    ident = identity_endo(c4, QQ)
    zero = GroupRingElement.zero(c4, QQ)
    delta = inner_derivation(zero, ident, ident)
    assert zc2_congruence_check(delta, ident, ident, GroupRingElement.one(c4, QQ), zero)


def test_congruence_matched_conjugations(q8):
    conj = conjugation_endo(GroupRingElement.basis(q8, QQ, 4))
    one = GroupRingElement.one(q8, QQ)
    alpha = GroupRingElement(q8, QQ, [0, 1, 2, 0, -1, 0, 0, 3])
    delta = inner_derivation(alpha, conj, conj)
    assert zc2_congruence_check(delta, conj, conj, one, alpha)


def test_congruence_error_paths(s3):
    ident = identity_endo(s3, QQ)
    alpha = GroupRingElement(s3, QQ, [1, 0, 0, -1, 0, 0])
    delta = inner_derivation(alpha, ident, ident)
    not_unit = GroupRingElement(s3, QQ, [1, 1, 1, 1, 1, 1])
    assert invert(not_unit) is None
    with pytest.raises(NotAUnit):
        zc2_congruence_check(delta, ident, ident, not_unit, alpha)
    wrong = alpha + GroupRingElement.basis(s3, QQ, 1)
    with pytest.raises(NotAWitness):
        zc2_congruence_check(delta, ident, ident, GroupRingElement.one(s3, QQ), wrong)


# -- structural identities ------------------------------------------------------


def test_additivity_of_inner_maps(q8):
    rng = random.Random(12)
    conj = conjugation_endo(GroupRingElement.basis(q8, QQ, 2))
    ident = identity_endo(q8, QQ)
    for _ in range(10):
        x = GroupRingElement(q8, QQ, [rng.randint(-3, 3) for _ in range(8)])
        y = GroupRingElement(q8, QQ, [rng.randint(-3, 3) for _ in range(8)])
        assert inner_derivation(x + y, conj, ident) == inner_derivation(
            x, conj, ident
        ) + inner_derivation(y, conj, ident)


def test_power_rule_on_central_elements(q8):
    rng = random.Random(13)
    ident = identity_endo(q8, QQ)
    for _ in range(5):
        x = GroupRingElement(q8, QQ, [rng.randint(-2, 2) for _ in range(8)])
        delta = inner_derivation(x, ident, ident)
        alpha = GroupRingElement.zero(q8, QQ)
        for ks in center_basis(q8, QQ):
            alpha = alpha + ks.scale(rng.randint(-2, 2))
        power = GroupRingElement.one(q8, QQ)
        d_alpha = delta.apply(alpha)
        for k in range(1, 6):
            prev = power
            power = power * alpha
            assert delta.apply(power) == (prev * d_alpha).scale(k)


def test_central_group_elements_are_killed_over_q(q8):
    ident = identity_endo(q8, QQ)
    space = derivation_space(ident, ident)
    for z in center(q8).members:
        for d in space.basis:
            assert d.images[z].is_zero


def test_cancellation(s3):
    token = CancelToken()
    token.cancel()
    ident = identity_endo(s3, QQ)
    with pytest.raises(Cancelled):
        derivation_space(ident, ident, cancel=token)


# -- derivations by construction ------------------------------------------------

PRODUCER_GROUPS = ("C2", "C3", "C4", "C2xC2", "S3", "Q8", "D4")


def _random_twist(group, ring, rng):
    """Identity, a conjugation, the trivial map, or (abelian) inversion."""
    n = group.order
    g = rng.randrange(n)
    maps = [list(range(n)), [0] * n, [group.conjugate(g, x) for x in range(n)]]
    if group.is_abelian:
        maps.append([group.inverse(x) for x in range(n)])
    return endo_from_group_map(group, ring, rng.choice(maps))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(PRODUCER_GROUPS),
    st.sampled_from([QQ, GF(2), GF(3), ZZ]),
    st.integers(min_value=0, max_value=10**6),
)
def test_closed_producers_yield_derivations(name, ring, seed):
    # Every producer that skips the constructor's check must still make
    # derivations; is_derivation is the reference.
    rng = random.Random(seed)
    group = standard_group(name)
    sigma, tau = _random_twist(group, ring, rng), _random_twist(group, ring, rng)
    x, y = (GroupRingElement(group, ring, [rng.randint(-3, 3) for _ in range(group.order)]) for _ in "xy")
    dx, dy = inner_derivation(x, sigma, tau), inner_derivation(y, sigma, tau)
    maps = [dx, dx + dy, dx - dy, dx.scale(rng.randint(-3, 3))]
    if ring.is_field:
        space = derivation_space(sigma, tau)
        maps += [*space.basis, *space.inner_basis]
        maps += [b.scale(2) - b for b in space.basis[:2]]
    if ring == ZZ:
        maps.append(dx.to_ring(QQ))
        if is_central_endo(sigma) and is_central_endo(tau):
            maps.append(extend_scalars(dx - dy, sigma, tau))
    for d in maps:
        assert is_derivation(d, d.sigma, d.tau)


def test_to_ring_from_prime_field_rechecks(c2):
    # d(g) = 1 is a derivation of F2 C2 (sigma = tau = id) but not of QC2.
    ident = identity_endo(c2, GF(2))
    d = derivation_from_images([GroupRingElement.zero(c2, GF(2)), GroupRingElement.one(c2, GF(2))], ident, ident)
    with pytest.raises(NotADerivation):
        d.to_ring(QQ)


def _pair_mismatch_calls():
    s3, c2 = standard_group("S3"), standard_group("C2")
    ident_q, ident_z = identity_endo(s3, QQ), identity_endo(s3, ZZ)
    conj_q = conjugation_endo(GroupRingElement.basis(s3, QQ, 1))
    conj_z = conjugation_endo(GroupRingElement.basis(s3, ZZ, 1))
    x_q = GroupRingElement(s3, QQ, [0, 1, 0, 2, 0, -1])
    d_q = inner_derivation(x_q, ident_q, ident_q)
    d_z = inner_derivation(GroupRingElement(s3, ZZ, [0, 1, 0, 2, 0, -1]), ident_z, ident_z)
    one = GroupRingElement.one(s3, QQ)
    c2_id, c2_sign = identity_endo(c2, QQ), sign_twist(c2, QQ)
    d_c2 = inner_derivation(GroupRingElement(c2, QQ, [1, 2]), c2_id, c2_sign)
    return {
        "inner_witness": lambda: inner_witness(d_q, conj_q, ident_q),
        "inner_witness_integer": lambda: inner_witness_integer(d_z, ident_z, conj_z),
        "gcd_criterion": lambda: gcd_criterion(d_z, conj_z, ident_z),
        "extend_scalars": lambda: extend_scalars(d_z, conj_z, conj_z),
        "zc2_congruence_check": lambda: zc2_congruence_check(d_q, conj_q, conj_q, one, x_q),
        "inner_witness_with_support": lambda: inner_witness_with_support(d_q, ident_q, conj_q, range(6)),
        "commutative_derivation_form": lambda: commutative_derivation_form(
            c2_id, c2_id, GroupRingElement.basis(c2, QQ, 1), d_c2
        ),
        "add": lambda: d_q + inner_derivation(x_q, conj_q, ident_q),
        "sub": lambda: d_q - inner_derivation(x_q, ident_q, conj_q),
    }


@pytest.mark.parametrize("call", sorted(_pair_mismatch_calls()))
def test_solvers_reject_a_foreign_pair(call):
    with pytest.raises(ValueError, match="different endomorphism pair"):
        _pair_mismatch_calls()[call]()


def test_solvers_accept_an_equal_pair(s3):
    # The pair check is identity first, then equality: equal endomorphisms
    # built separately are the same pair.
    x = GroupRingElement(s3, ZZ, [0, 1, 0, 2, 0, -1])
    d = inner_derivation(x, identity_endo(s3, ZZ), identity_endo(s3, ZZ))
    other = identity_endo(s3, ZZ)
    assert gcd_criterion(d, other, other)
    assert inner_derivation(inner_witness_integer(d, other, other), other, other) == d
