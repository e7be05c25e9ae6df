"""Content-keyed caches: decoded groups and endomorphisms, and the Smith factors and field elimination of a pair.

A cache must return what a cold call returns, store only successful
results, stay within its bounds and be safe to share between threads.
"""

import copy
import json
import math
import random
import sys
import threading

import pytest

from grpder import (
    AlgebraError,
    CancelToken,
    DerivationMap,
    GroupRingElement,
    build_truncation,
    conjugation_endo,
    derivation_from_images,
    derivation_space,
    direct_product,
    endo_from_group_map,
    gcd_criterion,
    identity_endo,
    inner_derivation,
    inner_witness,
    inner_witness_integer,
    inner_witness_with_support,
    is_derivation,
    leibniz_space,
    standard_group,
    twisted_centralizer,
)
from grpder import constructions, derivations, linalg, serialization
from grpder.cli import main
from grpder.derivations import _field_witness
from grpder.errors import OrderCapExceeded
from grpder.group_ring import RingEndomorphism
from grpder.groups import FiniteGroup, center
from grpder.linalg import ExactMatrix, LinearSystem, integer_solve
from grpder.rings import GF, QQ, ZZ
from grpder.serialization import (
    derivation_images_from_json,
    derivation_to_json,
    endo_from_json,
    endo_to_json,
    group_from_json,
    group_to_json,
)
from grpder.util import _CACHE_MAX_CELLS, _CACHE_MAX_ENTRIES, _clear_caches, _LruCache
from grpder.verification import _bicyclic_unit, _conj_by_index, _sign_twist


@pytest.fixture(autouse=True)
def cold_caches():
    _clear_caches()
    yield
    _clear_caches()


def _held_cells(cache):
    """The cells of the entries plus one table for each distinct group object they hold."""
    entries = cache._entries.values()
    tables = {id(group): group.order**2 for _value, _cells, group in entries if group is not None}
    return sum(cells for _value, cells, _group in entries) + sum(tables.values())


def _cyclic_doc(n):
    return {"order": n, "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


def _replace_first(node, old, new):
    """``node`` with its first leaf equal to ``old`` (an int, not a bool) replaced by ``new``."""
    done = False

    def walk(x):
        nonlocal done
        if isinstance(x, list):
            return [walk(v) for v in x]
        if isinstance(x, dict):
            return {k: walk(v) for k, v in x.items()}
        if not done and type(x) is int and x == old:
            done = True
            return new
        return x

    out = walk(node)
    assert done
    return out


# -- decoding ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "1.0"])
def test_a_cached_group_does_not_answer_for_a_lookalike_document(bad):
    doc = group_to_json(standard_group("S3"))
    group = group_from_json(doc)
    assert group_from_json(copy.deepcopy(doc)) is group
    lookalike = _replace_first(doc, 1, bad)
    assert lookalike == doc  # equal as Python values
    with pytest.raises(AlgebraError):
        group_from_json(lookalike)
    with pytest.raises(ValueError):
        group_from_json(dict(doc, order=6.0))
    assert len(serialization._GROUPS) == 1


@pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "1.0"])
def test_a_cached_endomorphism_does_not_answer_for_a_lookalike_document(bad):
    group = standard_group("Q8")
    doc = endo_to_json(conjugation_endo(GroupRingElement.basis(group, ZZ, 2)))
    sigma = endo_from_json(group, doc, ZZ)
    assert endo_from_json(group, copy.deepcopy(doc), ZZ) is sigma
    lookalike = _replace_first(doc, 1, bad)
    assert lookalike == doc
    with pytest.raises(ValueError):
        endo_from_json(group, lookalike, ZZ)
    assert len(serialization._ENDOS) == 1


def test_a_cached_modulus_does_not_answer_for_a_float_modulus():
    group = standard_group("S3")
    doc = endo_to_json(identity_endo(group, GF(5)))
    assert endo_from_json(group, doc) is endo_from_json(group, copy.deepcopy(doc))
    lookalike = copy.deepcopy(doc)
    lookalike["images"][3]["p"] = 5.0
    assert lookalike == doc
    with pytest.raises(ValueError):
        endo_from_json(group, lookalike)


def test_the_expected_ring_and_the_group_object_are_part_of_the_key():
    doc = endo_to_json(identity_endo(standard_group("S3"), QQ))
    group = group_from_json(group_to_json(standard_group("S3")))
    loose = endo_from_json(group, doc)
    assert endo_from_json(group, doc, QQ) is not loose
    with pytest.raises(ValueError):
        endo_from_json(group, doc, GF(5))
    other = standard_group("S3")
    assert endo_from_json(other, doc).group is other


def test_mutating_a_decoded_document_does_not_change_the_next_decode():
    doc = _cyclic_doc(6)
    c6 = group_from_json(doc)
    s3_table = [list(row) for row in standard_group("S3").table]
    doc["table"][:] = s3_table
    s3 = group_from_json(doc)
    assert s3 is not c6 and s3.table == standard_group("S3").table
    assert c6.table == standard_group("C6").table
    doc["table"][1][1] = 1
    with pytest.raises(AlgebraError):
        group_from_json(doc)
    assert group_from_json(_cyclic_doc(6)) is c6

    q8 = standard_group("Q8")
    endo_doc = endo_to_json(identity_endo(q8, ZZ))
    ident = endo_from_json(q8, endo_doc, ZZ)
    conj = conjugation_endo(GroupRingElement.basis(q8, ZZ, 2))
    endo_doc["images"][:] = endo_to_json(conj)["images"]
    assert endo_from_json(q8, endo_doc, ZZ) == conj
    assert ident == identity_endo(q8, ZZ)


def test_decoding_many_distinct_groups_stays_within_the_bounds():
    docs = [_cyclic_doc(n) for n in range(1, 51)]
    s3 = group_to_json(standard_group("S3"))
    docs += [dict(s3, labels=[f"{k}:{i}" for i in range(6)]) for k in range(50)]
    for doc in docs:
        group = group_from_json(doc)
        assert group.table == tuple(map(tuple, doc["table"]))
        assert len(serialization._GROUPS) <= _CACHE_MAX_ENTRIES
        assert serialization._GROUPS.cells <= _CACHE_MAX_CELLS
        assert group_from_json(doc) is group  # the latest entry is never the one evicted
    assert len(serialization._GROUPS) == _CACHE_MAX_ENTRIES


def test_a_group_above_the_cell_bound_decodes_but_is_not_cached():
    n = math.isqrt(_CACHE_MAX_CELLS) + 1
    doc = _cyclic_doc(n)
    group = group_from_json(doc)
    assert group.order == n and group.table[1][n - 1] == 0
    assert len(serialization._GROUPS) == 0
    again = group_from_json(doc)
    assert again is not group and again == group


# -- Smith factors ------------------------------------------------------------------


def _named(name):
    if name.endswith("xC2"):
        return direct_product(standard_group(name[:-3]), standard_group("C2"))
    return standard_group(name)


def _endo(group, kind):
    if kind == "id":
        return identity_endo(group, ZZ)
    if kind == "sign":
        return _sign_twist(group, ZZ)
    if kind == "bicyclic":
        for h in range(1, group.order):
            for a in range(1, group.order):
                u = _bicyclic_unit(group, ZZ, h, a)
                if len(u.support) > 1:
                    return conjugation_endo(u)
    z = set(center(group).members)
    return _conj_by_index(group, ZZ, min(g for g in range(group.order) if g not in z))


# The nine (group, sigma, tau) pairs of the inner-z benchmark workload.
PAIRS = (
    ("C4", "id", "sign"),
    ("C6", "id", "sign"),
    ("C12", "id", "sign"),
    ("S3", "conj", "conj"),
    ("D4", "id", "bicyclic"),
    ("Q8", "conj", "id"),
    ("A4", "bicyclic", "id"),
    ("S3xC2", "bicyclic", "conj"),
    ("Q8xC2", "conj", "conj"),
)


@pytest.fixture(scope="module")
def pairs():
    out = []
    for name, s_kind, t_kind in PAIRS:
        group = _named(name)
        out.append((group, _endo(group, s_kind), _endo(group, t_kind), t_kind == "sign"))
    return out


def _delta(rng, group, sigma, tau, z_inner):
    """An inner derivation, or for a sign twist ``d_{x/2}``: Q-inner, and not Z-inner for odd x."""
    x = [rng.randint(-3, 3) for _ in range(group.order)]
    if z_inner:
        return inner_derivation(GroupRingElement(group, ZZ, x), sigma, tau)
    x[rng.randrange(group.order)] |= 1
    half = GroupRingElement(group, QQ, [QQ.coerce(v) / 2 for v in x])
    rational = inner_derivation(half, sigma.to_ring(QQ), tau.to_ring(QQ))
    images = [GroupRingElement(group, ZZ, [int(v) for v in img.coeffs]) for img in rational.images]
    return DerivationMap(group, ZZ, sigma, tau, images)


def _fresh_matrix(sigma, tau):
    """The generator rows of the witness system, assembled by products."""
    group = sigma.group
    n = group.order
    rows = []
    for s in group.generators():
        cols = []
        for h in range(n):
            g = GroupRingElement.basis(group, ZZ, h)
            cols.append(g * tau.images[s] - sigma.images[s] * g)
        rows += [[col.coeffs[k] for col in cols] for k in range(n)]
    return ExactMatrix(ZZ, rows)


def _reference(matrix, delta):
    group = delta.group
    rhs = [delta.images[s].coeffs[k] for s in group.generators() for k in range(group.order)]
    return integer_solve(matrix, rhs)


def _coeffs(witness):
    return None if witness is None else list(witness.coeffs)


def test_cached_witnesses_equal_the_uncached_solver_and_the_gcd_oracle(pairs):
    rng = random.Random(20)
    matrices = [_fresh_matrix(sigma, tau) for _group, sigma, tau, _sign in pairs]
    not_inner = 0
    for _ in range(200):
        index = rng.randrange(len(pairs))
        group, sigma, tau, sign = pairs[index]
        delta = _delta(rng, group, sigma, tau, not sign or rng.random() < 0.5)
        witness = inner_witness_integer(delta, sigma, tau)
        assert _coeffs(witness) == _reference(matrices[index], delta)
        assert gcd_criterion(delta, sigma, tau) == (witness is not None)
        if witness is None:
            not_inner += 1
        else:
            assert inner_derivation(witness, sigma, tau) == delta
    assert not_inner > 10
    assert len(derivations._INTEGER_FACTORS) == len(pairs)


def test_pairs_differing_in_one_map_get_their_own_factors():
    group = standard_group("S3")
    ident, conj = identity_endo(group, ZZ), _conj_by_index(group, ZZ, 1)
    rng = random.Random(8)
    for sigma, tau in ((ident, ident), (ident, conj), (conj, ident), (conj, conj)):
        delta = _delta(rng, group, sigma, tau, True)
        witness = inner_witness_integer(delta, sigma, tau)
        assert _coeffs(witness) == _reference(_fresh_matrix(sigma, tau), delta)
    assert len(derivations._INTEGER_FACTORS) == 4


def test_eviction_drops_the_least_recently_used_entry():
    cache = _LruCache()
    for key in range(_CACHE_MAX_ENTRIES):
        cache.put(key, str(key), 1)
    assert cache.get(0) == "0"
    cache.put("new", "new", 1)
    assert cache.get(1) is None
    assert cache.get(0) == "0" and cache.get("new") == "new"
    assert len(cache) == _CACHE_MAX_ENTRIES and cache.cells == _CACHE_MAX_ENTRIES
    cache.put("big", "big", _CACHE_MAX_CELLS - 1)
    assert len(cache) == 2 and cache.cells == _CACHE_MAX_CELLS
    cache.put("too big", "too big", _CACHE_MAX_CELLS + 1)
    assert cache.get("too big") is None and len(cache) == 2


def _spy_snf(monkeypatch):
    calls = []
    original = linalg.smith_normal_form

    def spy(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(linalg, "smith_normal_form", spy)
    return calls


class CountingToken(CancelToken):
    __slots__ = ("checks",)

    def __init__(self):
        super().__init__()
        self.checks = 0

    def check(self):
        self.checks += 1
        super().check()


def _counted(call):
    """The number of checkpoints ``call`` passes, and its result."""
    token = CountingToken()
    with token:
        result = call()
    return token.checks, result


def _count_contents(monkeypatch):
    """The maps whose content is computed from here on, once per computation."""
    computed = []
    fget = RingEndomorphism.content.fget

    def counting(endo):
        if endo._content is None:
            computed.append(endo)
        return fget(endo)

    monkeypatch.setattr(RingEndomorphism, "content", property(counting))
    return computed


def test_a_cold_call_factors_once_and_a_repeat_does_no_pair_work(pairs, monkeypatch):
    calls = _spy_snf(monkeypatch)
    group, sigma, tau, _sign = pairs[7]
    delta = _delta(random.Random(3), group, sigma, tau, True)
    cold_checks, first = _counted(lambda: inner_witness_integer(delta, sigma, tau))
    assert len(calls) == 1 and cold_checks > 0
    # Equal content, new objects: the same entry answers, and each new map's content is computed once.
    computed = _count_contents(monkeypatch)
    again = derivation_from_images(list(delta.images), _endo(group, "bicyclic"), _endo(group, "conj"))
    warm_checks, second = _counted(lambda: inner_witness_integer(again, again.sigma, again.tau))
    assert warm_checks == 0 and len(calls) == 1
    assert second == first
    assert list(map(id, computed)) == [id(again.sigma), id(again.tau)]
    (key,) = derivations._INTEGER_FACTORS._entries
    assert key == (group, ZZ, again.sigma.content, again.tau.content)


def test_threads_sharing_the_caches_get_the_reference_answers(pairs):
    rng = random.Random(5)
    cases = []
    for group, sigma, tau, sign in (pairs[0], pairs[3], pairs[6], pairs[8]):
        docs = (group_to_json(group), endo_to_json(sigma), endo_to_json(tau))
        matrix = _fresh_matrix(sigma, tau)
        for k in range(3):
            delta = _delta(rng, group, sigma, tau, not (sign and k % 2))
            cases.append((docs, derivation_to_json(delta), _reference(matrix, delta)))
    texts = [json.dumps(case) for case in cases]
    errors = []

    def work(seed):
        order = random.Random(seed)
        try:
            for step in range(60):
                (gdoc, sdoc, tdoc), ddoc, expected = json.loads(order.choice(texts))
                group = group_from_json(gdoc)
                sigma = endo_from_json(group, sdoc, ZZ)
                tau = endo_from_json(group, tdoc, ZZ)
                images = derivation_images_from_json(group, ddoc, ZZ)
                witness = inner_witness_integer(derivation_from_images(images, sigma, tau), sigma, tau)
                assert _coeffs(witness) == expected
                if seed == 0 and step % 15 == 0:
                    _clear_caches()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for cache in (serialization._GROUPS, serialization._ENDOS, derivations._INTEGER_FACTORS):
        assert cache.cells == _held_cells(cache)


# -- Leibniz row bases and row gcds -------------------------------------------------


def _field_pairs():
    """(name, sigma, tau) over Q, over F_p with p not dividing |G|, and with p dividing it."""
    s3, a4, d4, q8 = (standard_group(name) for name in ("S3", "A4", "D4", "Q8"))
    cases = [
        # Conjugation by the unit 2 + g1 of QS3: dense images with denominators.
        ("S3-Q-dense", conjugation_endo(GroupRingElement(s3, QQ, [2, 1, 0, 0, 0, 0])), identity_endo(s3, QQ)),
        ("A4-Q-bicyclic", conjugation_endo(_bicyclic_unit(a4, QQ, 1, 4)), identity_endo(a4, QQ)),
        ("S3-F5", _conj_by_index(s3, GF(5), 1), _conj_by_index(s3, GF(5), 3)),
        ("Q8-F3", _conj_by_index(q8, GF(3), 2), identity_endo(q8, GF(3))),
        ("S3-F3", _conj_by_index(s3, GF(3), 1), identity_endo(s3, GF(3))),
        ("D4-F2", _conj_by_index(d4, GF(2), 4), endo_from_group_map(d4, GF(2), [0, 1, 2, 3, 5, 6, 7, 4])),
    ]
    return {name: (sigma, tau) for name, sigma, tau in cases}


FIELD_PAIRS = _field_pairs()


def _field_deltas(rng, sigma, tau, count):
    """Random combinations of the derivation space's basis: inner or not when p divides |G|."""
    ring = sigma.ring
    basis = derivation_space(sigma, tau).basis
    deltas = []
    for _ in range(count):
        images = [GroupRingElement.zero(sigma.group, ring)] * sigma.group.order
        for d in basis:
            c = ring.coerce(rng.randint(-3, 3))
            images = [a + b.scale(c) for a, b in zip(images, d.images)]
        deltas.append(images)
    return deltas


def _basis_of(sigma, tau):
    return derivations._LEIBNIZ_BASES.get((sigma.group, sigma.ring, sigma.content, tau.content))


def _three_checks(images, sigma, tau):
    """The first validation, the one that builds the basis, a warm one, and the full loop, on a cold cache."""
    _clear_caches()
    answers = [is_derivation(images, sigma, tau) for _ in range(3)]
    return answers + [derivations._leibniz_holds(images, sigma, tau)]


Z_CASES = [f"{name}-Z" for name, _s, _t in PAIRS]


def _case_pair(case, pairs):
    """The maps of a case, and whether they carry the sign twist."""
    if case in FIELD_PAIRS:
        return (*FIELD_PAIRS[case], False)
    _group, sigma, tau, sign = pairs[Z_CASES.index(case)]
    return sigma, tau, sign


@pytest.mark.parametrize("case", [*Z_CASES, *FIELD_PAIRS])
def test_the_row_basis_check_agrees_with_every_row_on_derivations(case, pairs):
    sigma, tau, sign = _case_pair(case, pairs)
    group = sigma.group
    n = group.order
    rng = random.Random(11)
    if sigma.ring == ZZ:
        # With the sign twist, every other delta is inner over Q but not over Z.
        deltas = [list(_delta(rng, group, sigma, tau, not (sign and k % 2)).images) for k in range(4)]
    else:
        deltas = _field_deltas(rng, sigma, tau, 4)
    for images in deltas:
        assert _three_checks(images, sigma, tau) == [True] * 4
    basis = _basis_of(sigma, tau)
    assert isinstance(basis, tuple)
    # One row per unit of rank: n (n - 1) unknowns d(g)_k, g != 1, less the dimension of the derivations.
    field = QQ if sigma.ring == ZZ else sigma.ring
    dim = len(leibniz_space(sigma.to_ring(field), tau.to_ring(field)).basis)
    _cols, _vals, ends = basis
    assert len(ends) == n * (n - 1) - dim


@pytest.mark.parametrize("case", ["S3-Z", "A4-Z", "S3-Q-dense", "S3-F3"])
def test_the_row_basis_check_rejects_every_single_coefficient_corruption(case, pairs):
    sigma, tau, _sign = _case_pair(case, pairs)
    group, ring = sigma.group, sigma.ring
    n = group.order
    images = list(inner_derivation(GroupRingElement(group, ring, [1, -2, 0, 3] + [1] * (n - 4)), sigma, tau).images)
    assert _three_checks(images, sigma, tau) == [True] * 4
    basis = _basis_of(sigma, tau)
    assert isinstance(basis, tuple)
    for i in range(1, n):
        for k in range(n):
            coeffs = list(images[i].coeffs)
            coeffs[k] = coeffs[k] + ring.one
            corrupted = images[:i] + [GroupRingElement(group, ring, coeffs)] + images[i + 1 :]
            assert not is_derivation(corrupted, sigma, tau)
            assert not derivations._leibniz_holds(corrupted, sigma, tau)
    assert _basis_of(sigma, tau) is basis  # every check above read the basis


def test_a_pair_whose_basis_outgrows_the_bound_checks_every_row(pairs, monkeypatch):
    group, sigma, tau, _sign = pairs[3]
    images = list(_delta(random.Random(2), group, sigma, tau, True).images)
    # Room for the pre-check of the tree rows, not for the whole basis.
    n = group.order
    room = 4 * n * (n - 1 - len(group.generators())) + 1
    monkeypatch.setattr(derivations, "_CACHE_MAX_CELLS", derivations._content_cells(sigma, tau) + n * n + room)
    calls = []
    holds = derivations._leibniz_holds
    monkeypatch.setattr(derivations, "_leibniz_holds", lambda *args: calls.append(1) or holds(*args))
    assert _three_checks(images, sigma, tau)[:3] == [True] * 3
    assert _basis_of(sigma, tau) is derivations._EVERY_ROW and len(calls) == 4  # with the reference
    coeffs = list(images[1].coeffs)
    coeffs[0] += 1
    assert not is_derivation([images[0], GroupRingElement(group, ZZ, coeffs), *images[2:]], sigma, tau)


def _reference_gcd_criterion(delta, sigma, tau):
    """Row by row, from the products ``h tau(g) - sigma(g) h`` of basis elements."""
    group = sigma.group
    n = group.order
    basis = [GroupRingElement.basis(group, ZZ, h) for h in range(n)]
    for i in range(n):
        columns = [b * tau.images[i] - sigma.images[i] * b for b in basis]
        for x in range(n):
            g = math.gcd(*(col.coeffs[x] for col in columns))
            m = delta.images[i].coeffs[x]
            if (g == 0 and m != 0) or (g and m % g):
                return False
    return True


def test_the_warm_gcd_criterion_equals_a_row_by_row_reference(pairs):
    rng = random.Random(31)
    answers = set()
    for group, sigma, tau, sign in pairs:
        n = group.order
        for k in range(6):
            delta = _delta(rng, group, sigma, tau, not (sign and k % 2))
            if k >= 4:  # any integer images: the criterion is a test of the coefficients alone
                images = [GroupRingElement(group, ZZ, [v + rng.choice((0, 0, 1, 2)) for v in img.coeffs]) for img in delta.images]
                delta = DerivationMap(group, ZZ, sigma, tau, images, _validated=True)
            expected = _reference_gcd_criterion(delta, sigma, tau)
            assert gcd_criterion(delta, sigma, tau) == expected
            answers.add(expected)
    assert answers == {True, False}
    cache = derivations._ROW_GCDS
    assert len(cache) == len(pairs) and cache.cells == _held_cells(cache)


def test_the_new_caches_count_their_cells(pairs):
    rng = random.Random(4)
    for group, sigma, tau, _sign in pairs:
        for _ in range(2):
            delta = derivation_from_images(list(_delta(rng, group, sigma, tau, True).images), sigma, tau)
            gcd_criterion(delta, sigma, tau)
            inner_witness_integer(delta, sigma, tau)
    for cache in (derivations._LEIBNIZ_BASES, derivations._ROW_GCDS, derivations._INTEGER_FACTORS):
        assert len(cache) == len(pairs) and cache.cells == _held_cells(cache) <= _CACHE_MAX_CELLS
    for group, sigma, tau, _sign in pairs:
        cols, _vals, ends = _basis_of(sigma, tau)
        _value, cells, _group = derivations._LEIBNIZ_BASES._entries[(group, ZZ, sigma.content, tau.content)]
        assert cells == derivations._content_cells(sigma, tau) + len(cols) + len(ends)


def test_a_one_shot_inner_check_builds_no_row_basis(pairs, tmp_path, capsys, monkeypatch):
    group, sigma, tau, _sign = pairs[6]
    delta = _delta(random.Random(5), group, sigma, tau, True)
    files = {"group": group_to_json(group), "sigma": endo_to_json(sigma), "delta": derivation_to_json(delta)}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = ["inner-check", "--ring", "Z", *(f"--{name}={tmp_path / name}.json" for name in files)]
    calls = []
    build = derivations._leibniz_basis
    monkeypatch.setattr(derivations, "_leibniz_basis", lambda *args: calls.append(1) or build(*args))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["inner"] is True
    assert calls == []
    assert [value for value, _cells, _group in derivations._LEIBNIZ_BASES._entries.values()] == [derivations._SEEN]


# -- field elimination -----------------------------------------------------------


def _tower(conjugator):
    base = standard_group("S3")
    return build_truncation(base, [base.conjugate(conjugator, h) for h in range(base.order)], 2)


def test_clear_caches_empties_the_elimination_cache():
    bundle = _tower(1)
    inner_witness(bundle.delta, bundle.sigma, bundle.tau)
    assert len(derivations._CENTRALIZERS) == 1 and derivations._CENTRALIZERS.cells > 0
    _clear_caches()
    assert len(derivations._CENTRALIZERS) == 0 and derivations._CENTRALIZERS.cells == 0


def _rebuilt(bundle):
    """The bundle's derivation and pair over a new group object with the same table."""
    group = FiniteGroup(bundle.group.table, _validated=True)
    sigma = endo_from_group_map(group, QQ, bundle.sigma.group_map)
    tau = identity_endo(group, QQ)
    images = [GroupRingElement(group, QQ, image.coeffs) for image in bundle.delta.images]
    return derivation_from_images(images, sigma, tau), sigma, tau


def test_a_rebuilt_tower_reads_the_elimination_of_the_first(monkeypatch):
    first = _tower(1)
    witness = inner_witness(first.delta, first.sigma, first.tau)
    again = _tower(1)
    assert again.group is first.group and again.sigma is not first.sigma
    delta, sigma, tau = _rebuilt(first)
    assert sigma.group is not first.group and sigma.group == first.group
    rows = []
    monkeypatch.setattr(derivations, "_witness_rows", lambda *a: rows.append(a) or iter(()))
    assert inner_witness(delta, sigma, tau) == witness
    assert inner_witness(again.delta, again.sigma, again.tau) == witness
    support = first.embedded_indices(1)
    assert inner_witness_with_support(delta, sigma, tau, support) is None
    assert rows == [] and len(derivations._CENTRALIZERS) == 1
    # Another conjugator is another pair.
    monkeypatch.undo()
    other = _tower(3)
    inner_witness(other.delta, other.sigma, other.tau)
    assert len(derivations._CENTRALIZERS) == 2


def test_a_tower_request_computes_each_map_content_once(monkeypatch):
    bundle = _tower(1)
    computed = _count_contents(monkeypatch)
    args = (bundle.delta, bundle.sigma, bundle.tau)
    witness = inner_witness(*args)
    assert inner_witness_with_support(*args, bundle.embedded_indices(1)) is None
    assert inner_witness_with_support(*args, range(bundle.group.order)) == witness
    assert sorted(map(id, computed)) == sorted(map(id, (bundle.sigma, bundle.tau)))
    (key,) = derivations._CENTRALIZERS._entries
    assert key == (bundle.group, QQ, bundle.sigma.content, bundle.tau.content)


def test_pairs_differing_in_one_map_get_their_own_elimination():
    group = standard_group("S3")
    ident, conj = identity_endo(group, QQ), _conj_by_index(group, QQ, 1)
    x = GroupRingElement(group, QQ, [1, 0, 2, 0, -1, 3])
    for sigma, tau in ((ident, ident), (ident, conj), (conj, ident), (conj, conj)):
        delta = inner_derivation(x, sigma, tau)
        assert inner_witness(delta, sigma, tau) == _field_witness(delta, sigma, tau, None)
    assert len(derivations._CENTRALIZERS) == 4


def test_a_pair_above_the_cell_bound_is_answered_but_not_cached():
    n = math.isqrt(_CACHE_MAX_CELLS) + 1  # the table alone exceeds the bound
    group = standard_group(f"C{n}")
    sigma = identity_endo(group, QQ)
    tau = endo_from_group_map(group, QQ, [2 * i % n for i in range(n)])
    x = GroupRingElement.from_dict(group, QQ, {1: 2, 5: -1, 100: 3})
    delta = inner_derivation(x, sigma, tau)
    witness = inner_witness(delta, sigma, tau)
    assert witness == _field_witness(delta, sigma, tau, None)
    assert inner_derivation(witness, sigma, tau) == delta
    assert len(twisted_centralizer(sigma, tau)) == 1  # y g^2 = g y: y is a multiple of the sum of the group
    assert len(derivations._CENTRALIZERS) == 0 and derivations._CENTRALIZERS.cells == 0


def test_threads_sharing_the_elimination_cache_get_the_solver_witnesses():
    cases = []
    for conjugator in (1, 3, 4):
        bundle = _tower(conjugator)
        args = (bundle.delta, bundle.sigma, bundle.tau)
        cases.append((conjugator, _field_witness(*args, None)))
    errors = []

    def work(seed):
        order = random.Random(seed)
        try:
            for step in range(40):
                conjugator, expected = order.choice(cases)
                # Each step builds its tower again, so the threads share the product groups as well.
                bundle = _tower(conjugator)
                assert inner_witness(bundle.delta, bundle.sigma, bundle.tau) == expected
                if seed == 0 and step % 10 == 0:
                    _clear_caches()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for cache in (derivations._CENTRALIZERS, constructions._TOWERS):
        assert cache.cells == _held_cells(cache)


# -- tower groups ------------------------------------------------------------------


def _conjugation(base, g):
    return [base.conjugate(g, h) for h in range(base.order)]


def _level_two_towers():
    """Every (base, conjugator) of the tower benchmark: 28 requests on 22 distinct pairs."""
    for name in ("S3", "Q8", "D4", "A4"):
        base = standard_group(name)
        z = set(center(base).members)
        for g in range(base.order):
            if g not in z:
                yield base, g


def _serve(base, g):
    bundle = build_truncation(base, _conjugation(base, g), 2)
    args = (bundle.delta, bundle.sigma, bundle.tau)
    return inner_witness(*args), inner_witness_with_support(*args, bundle.embedded_indices(1))


def test_build_truncation_returns_one_group_per_base_and_level():
    base = standard_group("Q8")
    first = build_truncation(base, _conjugation(base, 2), 2)
    other_twist = build_truncation(standard_group("Q8"), _conjugation(base, 4), 2)
    assert other_twist.group is first.group
    assert build_truncation(base, _conjugation(base, 2), 1).group is not first.group
    product = direct_product(base, base)
    assert first.group == product and first.group.labels == product.labels
    assert first.group.generators() == product.generators()


def test_build_truncation_returns_new_maps_on_every_call():
    base = standard_group("S3")
    first, second = (build_truncation(base, _conjugation(base, 1), 2) for _ in range(2))
    assert second.group is first.group
    assert second.delta is not first.delta and second.delta == first.delta
    assert second.sigma is not first.sigma and second.tau is not first.tau


def test_a_tower_group_carries_the_labels_and_name_of_its_own_base():
    s3 = standard_group("S3")
    relabelled = FiniteGroup(s3.table, labels="abcdef", name="S3", _validated=True)
    renamed = FiniteGroup(s3.table, labels=s3.labels, name="other", _validated=True)
    groups = []
    for base in (s3, relabelled, renamed):
        group = build_truncation(base, _conjugation(s3, 1), 2).group
        product = direct_product(base, base)
        assert group == product and (group.labels, group.name) == (product.labels, product.name)
        groups.append(group)
    assert groups[1].labels[7] == "(b,b)" and groups[2].name == "otherxother"
    assert len({id(group) for group in groups}) == 3 and len(constructions._TOWERS) == 3


@pytest.mark.parametrize("value", ["100", "abc"])
def test_a_tower_already_built_still_reads_the_order_cap(monkeypatch, value):
    a4 = standard_group("A4")
    build_truncation(a4, _conjugation(a4, 1), 2)
    monkeypatch.setenv("GRPDER_MAX_ORDER", value)
    with pytest.raises(OrderCapExceeded):
        build_truncation(a4, _conjugation(a4, 1), 2)


def test_a_second_pass_over_the_tower_pairs_does_no_elimination_and_no_product(monkeypatch):
    towers = list(_level_two_towers())
    first = [_serve(base, g) for base, g in towers]
    assert len(towers) == 28 and len(derivations._CENTRALIZERS) == 22 and len(constructions._TOWERS) == 4
    calls = []
    kernel = LinearSystem.kernel
    monkeypatch.setattr(LinearSystem, "kernel", lambda self: calls.append("kernel") or kernel(self))
    monkeypatch.setattr(constructions, "direct_product", lambda *a: calls.append("product") or direct_product(*a))
    assert [_serve(base, g) for base, g in towers] == first
    assert calls == []


def test_many_towers_and_pairs_count_each_table_once_within_the_bound():
    s3 = standard_group("S3")
    labelled = FiniteGroup(s3.table, labels="abcdef", _validated=True)
    for step, (base, g) in enumerate(_level_two_towers()):
        bundle = build_truncation(base, _conjugation(base, g), 2)
        inner_witness(bundle.delta, bundle.sigma, bundle.tau)
        # The same pair over a copy of the group is another entry holding another table.
        inner_witness(*_rebuilt(bundle))
        # Two level-3 towers of 216^2 cells each cannot both stay.
        build_truncation(labelled if step % 2 else s3, _conjugation(s3, 1), 3)
        for cache in (derivations._CENTRALIZERS, constructions._TOWERS):
            assert cache.cells == _held_cells(cache) <= _CACHE_MAX_CELLS
            assert len(cache) <= _CACHE_MAX_ENTRIES
    held = [group for _value, _cells, group in constructions._TOWERS._entries.values()]
    assert sum(group.order == 216 for group in held) == 1
