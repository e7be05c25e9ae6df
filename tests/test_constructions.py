import hashlib

import pytest

from grpder import (
    AbelianBase,
    CentralChoice,
    DifferenceNotAUnit,
    GroupRingElement,
    NotAbelian,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotClassPreserving,
    OrderCapExceeded,
    augmentation,
    build_truncation,
    center,
    class_preserving_check,
    commutative_derivation_form,
    derivation_space,
    endo_from_group_map,
    endo_from_images,
    find_unit_difference,
    identity_endo,
    inner_derivation,
    inner_witness,
    inner_witness_with_support,
    invert,
    is_derivation,
    standard_group,
)
from grpder.cli import main
from grpder.rings import GF, QQ


def sign_twist(group, ring):
    images = []
    for k in range(group.order):
        coeffs = [ring.zero] * group.order
        coeffs[k] = ring.one if k % 2 == 0 else -ring.one
        images.append(GroupRingElement(group, ring, coeffs))
    return endo_from_images(images)


def conj_map(group, g):
    return [group.conjugate(g, i) for i in range(group.order)]


@pytest.fixture(scope="module")
def q8():
    return standard_group("Q8")


# -- commutative closed form ---------------------------------------------------


def test_closed_form_rejects_equal_twists():
    c2 = standard_group("C2")
    ident = identity_endo(c2, QQ)
    zero = inner_derivation(GroupRingElement.zero(c2, QQ), ident, ident)
    with pytest.raises(DifferenceNotAUnit):
        commutative_derivation_form(ident, ident, GroupRingElement.basis(c2, QQ, 1), zero)


def test_closed_form_rejects_nonabelian():
    s3 = standard_group("S3")
    ident = identity_endo(s3, QQ)
    zero = inner_derivation(GroupRingElement.zero(s3, QQ), ident, ident)
    with pytest.raises(NotAbelian):
        commutative_derivation_form(ident, ident, GroupRingElement.one(s3, QQ), zero)


@pytest.mark.parametrize("name", ["C2", "C4"])
def test_closed_form_holds_for_sign_twist(name):
    group = standard_group(name)
    sigma = identity_endo(group, QQ)
    tau = sign_twist(group, QQ)
    b = find_unit_difference(sigma, tau)
    assert b == GroupRingElement.basis(group, QQ, 1)
    assert invert(tau.apply(b) - sigma.apply(b)) is not None
    space = derivation_space(sigma, tau)
    assert space.basis
    for delta in space.basis:
        assert commutative_derivation_form(sigma, tau, b, delta)


def test_closed_form_zero_map():
    c4 = standard_group("C4")
    sigma = identity_endo(c4, QQ)
    tau = sign_twist(c4, QQ)
    zero = inner_derivation(GroupRingElement.zero(c4, QQ), sigma, tau)
    assert commutative_derivation_form(sigma, tau, GroupRingElement.basis(c4, QQ, 1), zero)


def test_find_unit_difference_equal_twists_absent():
    c4 = standard_group("C4")
    ident = identity_endo(c4, QQ)
    assert find_unit_difference(ident, ident, draws=20) is None


def test_find_unit_difference_augmentation_obstruction():
    # Both endomorphisms preserve augmentation, so tau(b) - sigma(b) always
    # has augmentation zero and is never a unit over a field.
    c4 = standard_group("C4")
    sigma = identity_endo(c4, QQ)
    tau = endo_from_group_map(c4, QQ, [0, 3, 2, 1])
    for i in range(4):
        assert augmentation(tau.images[i] - sigma.images[i]) == 0
    assert find_unit_difference(sigma, tau, draws=50) is None


def test_find_unit_difference_rejects_nonabelian():
    s3 = standard_group("S3")
    ident = identity_endo(s3, QQ)
    with pytest.raises(NotAbelian):
        find_unit_difference(ident, ident)


# -- class-preserving automorphisms ---------------------------------------------


def test_identity_is_class_preserving(q8):
    assert class_preserving_check(q8, list(range(8)))


def test_inner_automorphism_is_class_preserving(q8):
    assert class_preserving_check(q8, conj_map(q8, 2))


def test_c3_inversion_moves_classes():
    c3 = standard_group("C3")
    assert not class_preserving_check(c3, [0, 2, 1])


def test_class_preserving_rejects_non_automorphisms():
    c4 = standard_group("C4")
    with pytest.raises(NotAnAutomorphism):
        class_preserving_check(c4, [0, 2, 0, 2])  # not bijective
    s3 = standard_group("S3")
    with pytest.raises(NotAnAutomorphism):
        class_preserving_check(s3, [0, 2, 1, 3, 5, 4][::-1])


def test_q8_axis_swap_not_class_preserving(q8):
    # 1,-1 fixed; i <-> j; k -> -k: a genuine automorphism moving classes.
    swap = [0, 1, 4, 5, 2, 3, 7, 6]
    assert not class_preserving_check(q8, swap)


# -- truncation towers -----------------------------------------------------------


def test_level_one_default_is_zero_map(q8):
    bundle = build_truncation(q8, conj_map(q8, 2), 1)
    # x = i and sigma = conjugation by i make x g - sigma(g) x vanish
    # identically (i^2 is central), so the level-1 map is zero and the
    # canonical witness is zero.
    assert bundle.delta.is_zero
    assert bundle.witness_indices == (2,)
    witness = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    assert witness == GroupRingElement.zero(bundle.group, QQ)


def test_level_two_bundle(q8):
    bundle = build_truncation(q8, conj_map(q8, 2), 2)
    assert bundle.group.order == 64
    assert not bundle.delta.is_zero
    assert is_derivation(bundle.delta.images, bundle.sigma, bundle.tau)
    # The tower map is the sum of the per-factor inner derivations.
    parts = [inner_derivation(w, bundle.sigma, bundle.tau) for w in bundle.witnesses]
    assert parts[0] + parts[1] == bundle.delta
    # Inner with the witness sum, and with the solver's canonical witness.
    assert inner_derivation(bundle.witnesses[0] + bundle.witnesses[1], bundle.sigma, bundle.tau) == bundle.delta
    witness = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    assert witness is not None
    assert inner_derivation(witness, bundle.sigma, bundle.tau) == bundle.delta


def test_level_two_restricted_support_infeasible(q8):
    bundle = build_truncation(q8, conj_map(q8, 2), 2)
    embedded = bundle.embedded_indices(1)
    assert embedded == tuple(q * 8 for q in range(8))
    assert (
        inner_witness_with_support(
            bundle.delta, bundle.sigma, bundle.tau, embedded
        )
        is None
    )


def test_full_support_agrees_with_unconstrained(q8):
    bundle = build_truncation(q8, conj_map(q8, 2), 2)
    everything = range(bundle.group.order)
    a = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    b = inner_witness_with_support(bundle.delta, bundle.sigma, bundle.tau, everything)
    assert a == b


def test_zero_map_supported_on_identity(q8):
    bundle = build_truncation(q8, conj_map(q8, 2), 1)
    witness = inner_witness_with_support(
        bundle.delta, bundle.sigma, bundle.tau, [0]
    )
    assert witness == GroupRingElement.zero(bundle.group, QQ)


def test_truncation_rejects_bad_inputs(q8):
    with pytest.raises(AbelianBase):
        build_truncation(standard_group("C4"), [0, 1, 2, 3], 1)
    with pytest.raises(NotClassPreserving):
        build_truncation(q8, [0, 1, 4, 5, 2, 3, 7, 6], 1)
    with pytest.raises(CentralChoice):
        build_truncation(q8, conj_map(q8, 2), 1, x_choices=[1])
    with pytest.raises(OrderCapExceeded):
        build_truncation(q8, conj_map(q8, 2), 0)
    with pytest.raises(OrderCapExceeded):
        build_truncation(q8, conj_map(q8, 2), 99)
    with pytest.raises(ValueError):
        build_truncation(q8, conj_map(q8, 2), 2, x_choices=[2])


BAD_INDICES = ([6], [0, 1, 2, 3, 4, 5, 7], [-1], [2.7], ["2"], [True])


@pytest.mark.parametrize("ring", [QQ, GF(5), GF(3)], ids=str)
@pytest.mark.parametrize("support", BAD_INDICES, ids=repr)
def test_support_indices_must_be_ints_in_range(ring, support):
    # Over F3 (3 divides 6) the pinned solver answers, over Q and F5 the averaged witness.
    s3 = standard_group("S3")
    sigma = endo_from_group_map(s3, ring, conj_map(s3, 1))
    tau = identity_endo(s3, ring)
    delta = inner_derivation(GroupRingElement.basis(s3, ring, 3), sigma, tau)
    with pytest.raises(ValueError, match="support index"):
        inner_witness_with_support(delta, sigma, tau, support)
    witness = inner_witness_with_support(delta, sigma, tau, range(6))
    assert witness == inner_witness(delta, sigma, tau) and witness is not None


# (position, entry): the entry at that position of S3's identity map, in a shape
# int() would have turned into the right index, or out of range.
BAD_MAP_ENTRIES = ((5, 5.7), (5, 5.0), (0, "0"), (1, True), (5, 6), (3, -1))


@pytest.mark.parametrize("position, entry", BAD_MAP_ENTRIES, ids=repr)
def test_index_map_entries_must_be_ints_in_range(position, entry):
    s3 = standard_group("S3")
    mapping = list(range(6))
    mapping[position] = entry
    with pytest.raises(NotAHomomorphism, match="ints in"):
        endo_from_group_map(s3, QQ, mapping)
    with pytest.raises(NotAnAutomorphism, match="ints in"):
        class_preserving_check(s3, mapping)
    with pytest.raises(NotAnAutomorphism, match="ints in"):
        build_truncation(s3, mapping, 2)
    assert endo_from_group_map(s3, QQ, range(6)) == identity_endo(s3, QQ)
    bundle = build_truncation(s3, tuple(range(6)), 2)
    assert bundle.sigma == identity_endo(bundle.group, QQ)


@pytest.mark.parametrize("sublevel", [True, 1.5, 1.0, "1", -1, 3], ids=repr)
def test_embedded_sublevel_must_be_an_int_in_range(q8, sublevel):
    bundle = build_truncation(q8, conj_map(q8, 2), 2)
    with pytest.raises(ValueError, match="sublevel"):
        bundle.embedded_indices(sublevel)
    assert bundle.embedded_indices(1) == tuple(range(0, 64, 8))


@pytest.mark.parametrize("level", [True, 2.0, "2"], ids=repr)
def test_truncation_level_must_be_an_int(level):
    s3 = standard_group("S3")
    with pytest.raises(ValueError, match="level"):
        build_truncation(s3, conj_map(s3, 1), level)


def test_truncation_takes_sigma1_from_an_iterator():
    s3 = standard_group("S3")
    bundle = build_truncation(s3, iter(conj_map(s3, 1)), 2)
    assert bundle == build_truncation(s3, conj_map(s3, 1), 2)


@pytest.mark.parametrize(
    "base,level,digest",
    [
        ("S3", "2", "e7fc8c6d4405720e1f33b9121cd22358240be9123481a4b89ea7ffce9094e21f"),
        ("S3", "3", "78873e4bd2fe729592f911cce8c2afcfd4f90c2523737e1cd7073082ee2bb6d3"),
        ("A4", "2", "a5d018caf7204c5ae27ba4a8fc159034877c62dfbc090f2a28aca716e15da3a8"),
    ],
)
def test_counterexample_cli_output_is_unchanged(capsys, base, level, digest):
    assert main(["counterexample", "--base", base, "--n", level]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("first", [6, -1, 3.9, "3", True], ids=repr)
def test_witness_choices_must_be_ints_in_range(first):
    s3 = standard_group("S3")
    with pytest.raises(ValueError, match="witness choice index"):
        build_truncation(s3, conj_map(s3, 1), 2, x_choices=[first, 3])
    assert build_truncation(s3, conj_map(s3, 1), 2, x_choices=[3, 3]).witness_indices == (18, 3)


def test_truncation_with_chosen_witnesses(q8):
    # x = j in both factors with sigma1 = conj by i gives a nonzero level-1 part.
    bundle = build_truncation(q8, conj_map(q8, 2), 2, x_choices=[4, 4])
    assert bundle.witness_indices == (4 * 8, 4)
    assert is_derivation(bundle.delta.images, bundle.sigma, bundle.tau)
    level_one = build_truncation(q8, conj_map(q8, 2), 1, x_choices=[4])
    assert not level_one.delta.is_zero


def test_d4_truncation():
    d4 = standard_group("D4")
    bundle = build_truncation(d4, conj_map(d4, 1), 2)
    assert bundle.group.order == 64
    witness = inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    assert witness is not None
    restricted = inner_witness_with_support(
        bundle.delta, bundle.sigma, bundle.tau, bundle.embedded_indices(1)
    )
    assert restricted is None


def test_noncentral_choice_listing(q8):
    assert 2 not in set(center(q8).members)
