"""Field witnesses served from a pair's cached elimination, against the solver.

When the characteristic does not divide ``|G|``, :func:`inner_witness`
averages ``d(g) tau(g^-1)`` and reduces the average by the cached kernel,
and :func:`inner_witness_with_support` solves a system with one unknown per
kernel vector. ``_field_witness`` solves the witness system itself and is
the reference: every answer must have its bytes.
"""

import json
import random

import pytest

from grpder import (
    GroupRingElement,
    LinearSystem,
    build_truncation,
    conjugation_endo,
    derivation_space,
    identity_endo,
    inner_derivation,
    inner_witness,
    inner_witness_with_support,
    standard_group,
    twisted_centralizer,
)
from grpder import derivations
from grpder.derivations import _field_witness
from grpder.groups import center
from grpder.rings import GF, QQ
from grpder.serialization import element_to_json
from grpder.util import _clear_caches
from grpder.verification import _bicyclic_unit, _conj_by_index, _random_element, _random_unit


@pytest.fixture(autouse=True)
def cold_caches():
    _clear_caches()
    yield
    _clear_caches()


def _bytes(witness):
    return None if witness is None else json.dumps(element_to_json(witness))


def _twist(group, ring, kind, rng):
    """``id``, conjugation by a non-central element (a group map), or by a unit that is not."""
    if kind == "id":
        return identity_endo(group, ring)
    if kind == "conj":
        z = set(center(group).members)
        return _conj_by_index(group, ring, rng.choice([g for g in range(group.order) if g not in z]))
    if kind == "bicyclic":
        for h in range(1, group.order):
            for a in range(1, group.order):
                u = _bicyclic_unit(group, ring, h, a)
                if len(u.support) > 1:
                    return conjugation_endo(u)
        raise AssertionError("no nontrivial bicyclic unit")
    while True:
        u = _random_unit(group, ring, rng)
        if len(u.support) > 1:
            return conjugation_endo(u)


# (group, ring, sigma, tau); every characteristic is prime to the order.
PAIRS = [
    ("S3", QQ, "conj", "id"),
    ("Q8", QQ, "conj", "conj"),
    ("D4", QQ, "bicyclic", "id"),
    ("A4", QQ, "id", "bicyclic"),
    ("S3", QQ, "unit", "unit"),
    ("C2xC2", QQ, "id", "id"),
    ("S3", GF(5), "unit", "conj"),
    ("Q8", GF(3), "conj", "unit"),
    ("D4", GF(5), "bicyclic", "unit"),
    ("A4", GF(7), "conj", "id"),
]
IDS = [f"{g}-{r}-{s}-{t}" for g, r, s, t in PAIRS]


def _pair(name, ring, s_kind, t_kind, seed=0):
    rng = random.Random(seed)
    group = standard_group(name)
    return _twist(group, ring, s_kind, rng), _twist(group, ring, t_kind, rng)


def _deltas(sigma, tau, rng, count=3):
    """Inner maps of random elements, and the derivation-space basis, which no witness built."""
    group, ring = sigma.group, sigma.ring
    out = [inner_derivation(_random_element(group, ring, rng), sigma, tau) for _ in range(count)]
    return out + list(derivation_space(sigma, tau).basis[:2])


@pytest.mark.parametrize("case", PAIRS, ids=IDS)
def test_averaged_witness_equals_the_solver(case):
    sigma, tau = _pair(*case)
    rng = random.Random(1)
    for delta in _deltas(sigma, tau, rng):
        witness = inner_witness(delta, sigma, tau)
        assert _bytes(witness) == _bytes(_field_witness(delta, sigma, tau, None))
        assert inner_derivation(witness, sigma, tau) == delta
    # Every delta of the pair was served from one entry.
    assert len(derivations._CENTRALIZERS) == 1


def test_a_pair_served_twice_does_no_elimination(monkeypatch):
    sigma, tau = _pair("D4", QQ, "bicyclic", "conj")
    rng = random.Random(2)
    first, second = _deltas(sigma, tau, rng, count=2)[:2]
    expected = _bytes(_field_witness(second, sigma, tau, None))
    inner_witness(first, sigma, tau)
    # Equal content, new objects: the same entry answers.
    sigma2, tau2 = _pair("D4", QQ, "bicyclic", "conj")
    again = derivations.DerivationMap(sigma2.group, QQ, sigma2, tau2, second.images)
    rows = []
    add_row = LinearSystem.add_row
    monkeypatch.setattr(LinearSystem, "add_row", lambda self, *a: rows.append(a) or add_row(self, *a))
    assert _bytes(inner_witness(again, sigma2, tau2)) == expected
    assert rows == []
    assert len(derivations._CENTRALIZERS) == 1


@pytest.mark.parametrize("name, p", [("S3", 3), ("S3", 2), ("Q8", 2), ("A4", 3)])
def test_characteristic_dividing_the_order_goes_through_the_solver(name, p, monkeypatch):
    ring = GF(p)
    sigma, tau = _pair(name, ring, "conj", "id")
    deltas = _deltas(sigma, tau, random.Random(3))
    expected = [_bytes(_field_witness(d, sigma, tau, None)) for d in deltas]

    def refuse(*_args):
        raise AssertionError("averaging needs |G| invertible")

    monkeypatch.setattr(derivations, "_averaged_witness", refuse)
    assert [_bytes(inner_witness(d, sigma, tau)) for d in deltas] == expected
    support = list(range(0, sigma.group.order, 2))
    for delta in deltas:
        restricted = inner_witness_with_support(delta, sigma, tau, support)
        assert _bytes(restricted) == _bytes(_field_witness(delta, sigma, tau, support))
    assert len(derivations._CENTRALIZERS) == 0


def _pinned(delta, sigma, tau, support):
    return _bytes(_field_witness(delta, sigma, tau, sorted(set(support))))


@pytest.mark.parametrize("case", PAIRS, ids=IDS)
def test_supported_witness_equals_the_pinned_solver(case):
    sigma, tau = _pair(*case)
    group, ring = sigma.group, sigma.ring
    n = group.order
    rng = random.Random(4)
    kernel = twisted_centralizer(sigma, tau)
    feasible = 0
    for delta in _deltas(sigma, tau, rng, count=2):
        witness = inner_witness(delta, sigma, tau)
        supports = [
            range(n),  # the whole group: the unconstrained witness
            set(witness.support) | set(rng.sample(range(n), n // 3)),  # holds the witness
        ]
        # The support of another witness: feasible, and the pinned answer
        # is in general neither witness.
        other = witness
        for y in kernel:
            other = other + y.scale(rng.randint(-2, 2))
        supports.append(other.support)
        supports += [rng.sample(range(n), rng.randint(0, n)) for _ in range(4)]
        for support in supports:
            restricted = inner_witness_with_support(delta, sigma, tau, support)
            assert _bytes(restricted) == _pinned(delta, sigma, tau, support)
            if restricted is not None:
                feasible += 1
                assert inner_derivation(restricted, sigma, tau) == delta
                assert set(restricted.support) <= set(support)
        assert _bytes(inner_witness_with_support(delta, sigma, tau, range(n))) == _bytes(witness)
        assert _bytes(inner_witness_with_support(delta, sigma, tau, supports[1])) == _bytes(witness)
    assert feasible >= 6
    assert ring.characteristic == 0 or n % ring.characteristic


@pytest.mark.parametrize("base", ["S3", "Q8", "D4", "A4"])
def test_tower_embedded_support_is_infeasible_as_for_the_pinned_solver(base):
    group = standard_group(base)
    z = set(center(group).members)
    for conjugator in [g for g in range(group.order) if g not in z][:3]:
        bundle = build_truncation(group, [group.conjugate(conjugator, h) for h in range(group.order)], 2)
        args = (bundle.delta, bundle.sigma, bundle.tau)
        support = bundle.embedded_indices(1)
        assert inner_witness_with_support(*args, support) is None
        assert _field_witness(*args, list(support)) is None
        whole = range(bundle.group.order)
        assert _bytes(inner_witness_with_support(*args, whole)) == _pinned(*args, whole)


def test_tower_delta_by_index_equals_the_inner_derivation_of_the_choices():
    group = standard_group("D4")
    for level in (1, 2):
        bundle = build_truncation(group, [group.conjugate(1, h) for h in range(group.order)], level)
        total = GroupRingElement.zero(bundle.group, QQ)
        for w in bundle.witnesses:
            total = total + w
        assert bundle.delta == inner_derivation(total, bundle.sigma, bundle.tau)
