import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    FiniteGroup,
    NotAGroup,
    OrderCapExceeded,
    Subset,
    UnknownGroupName,
    center,
    center_transversal,
    conjugacy_classes,
    direct_product,
    make_from_table,
    standard_group,
)
from grpder.group_ring import commutator_span_system
from grpder.linalg import LinearSystem
from grpder.rings import GF, QQ

STANDARD_NAMES = ["C2", "C3", "C4", "C6", "C2xC2", "S3", "D4", "Q8", "A4"]


def brute_center(group):
    n = group.order
    return sorted(
        i for i in range(n) if all(group.mul(i, j) == group.mul(j, i) for j in range(n))
    )


def brute_classes(group):
    n = group.order
    classes = []
    seen = set()
    for x in range(n):
        if x in seen:
            continue
        orbit = {group.conjugate(g, x) for g in range(n)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def brute_is_abelian(group):
    n = group.order
    return all(group.mul(i, j) == group.mul(j, i) for i in range(n) for j in range(i + 1, n))


def brute_commutator_system(group, ring):
    """Span of ``gh - hg`` over every pair ``i < j``."""
    system = LinearSystem(group.order, ring)
    for i in range(group.order):
        for j in range(i + 1, group.order):
            a, b = group.mul(i, j), group.mul(j, i)
            if a != b:
                system.add_row({a: ring.one, b: -ring.one})
    return system


def relabelled(group, seed):
    """The same group under a random index permutation that fixes 0."""
    perm = list(range(1, group.order))
    random.Random(seed).shuffle(perm)
    perm = [0] + perm
    table = [[0] * group.order for _ in range(group.order)]
    for i in range(group.order):
        for j in range(group.order):
            table[perm[i]][perm[j]] = perm[group.mul(i, j)]
    return make_from_table(table)


def _primes_for(n):
    """A prime dividing ``n`` (if any) and the least prime not dividing it."""
    primes = [2, 3, 5, 7]
    dividing = [p for p in primes if n % p == 0][:1]
    return dividing + [next(p for p in primes if n % p)]


STRUCTURE_FACTORS = [(name,) for name in STANDARD_NAMES] + [
    ("S3", "C2"), ("D4", "C2"), ("A4", "C2"), ("Q8", "Q8"),
]
STRUCTURE_CASES = [(factors, seed) for factors in STRUCTURE_FACTORS for seed in (None, 1, 2)]


@pytest.mark.parametrize(
    "factors,seed", STRUCTURE_CASES, ids=[f"{'x'.join(f)}-{seed}" for f, seed in STRUCTURE_CASES]
)
def test_structure_matches_all_pairs(factors, seed):
    # Relabelled copies are fresh groups whose generators() differ.
    group = functools.reduce(direct_product, map(standard_group, factors))
    if seed is not None:
        group = relabelled(group, seed)
    assert [c.members for c in conjugacy_classes(group)] == brute_classes(group)
    assert list(center(group).members) == brute_center(group)
    assert group.is_abelian == brute_is_abelian(group)
    for ring in [QQ] + [GF(p) for p in _primes_for(group.order)]:
        span = commutator_span_system(group, ring)
        reference = brute_commutator_system(group, ring)
        assert span.rank == reference.rank
        assert span.span_basis() == reference.span_basis()


def test_trivial_group():
    g = make_from_table([[0]])
    assert g.order == 1
    assert center(g).members == (0,)


def test_c2_table():
    g = make_from_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_not_latin_rejected():
    with pytest.raises(NotAGroup) as err:
        make_from_table([[0, 1], [1, 1]])
    assert err.value.reason == "not-latin"


@pytest.mark.parametrize("table", [[[0, 1.0], [1.0, 0]], [[0, True], [True, 0]], [[0, "1"], ["1", 0]]])
def test_constructor_rejects_non_integer_entries(table):
    with pytest.raises(NotAGroup, match="not an integer") as err:
        FiniteGroup(table)
    assert err.value.reason == "not-latin"


def test_identity_not_first_rejected():
    with pytest.raises(NotAGroup) as err:
        make_from_table([[1, 0], [0, 1]])
    assert err.value.reason == "no-identity-at-0"


def test_nonassociative_latin_square_rejected():
    # A Latin square with two-sided identity and inverses that is not a group
    # (the only group of order 5 is cyclic, and this table is not).
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAGroup) as err:
        make_from_table(table)
    assert err.value.reason == "not-associative"


def test_unknown_name():
    with pytest.raises(UnknownGroupName):
        standard_group("NoSuch")
    with pytest.raises(UnknownGroupName):
        standard_group("C0")


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_standard_groups_satisfy_axioms(name):
    g = standard_group(name)
    g.validate()


@pytest.mark.parametrize(
    "name,order,center_size,class_sizes",
    [
        ("C2", 2, 2, [1, 1]),
        ("C3", 3, 3, [1, 1, 1]),
        ("S3", 6, 1, [1, 2, 3]),
        ("D4", 8, 2, [1, 2, 1, 2, 2]),
        ("Q8", 8, 2, [1, 1, 2, 2, 2]),
        ("A4", 12, 1, [1, 4, 4, 3]),
    ],
)
def test_standard_group_structure(name, order, center_size, class_sizes):
    g = standard_group(name)
    assert g.order == order
    assert len(center(g)) == center_size
    assert [len(c) for c in conjugacy_classes(g)] == class_sizes


def test_center_matches_brute_force():
    for name in STANDARD_NAMES:
        g = standard_group(name)
        assert list(center(g).members) == brute_center(g)


def test_classes_match_brute_force():
    for name in STANDARD_NAMES:
        g = standard_group(name)
        assert [c.members for c in conjugacy_classes(g)] == brute_classes(g)


def test_q8_labels_and_center():
    q8 = standard_group("Q8")
    assert q8.labels == ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    assert center(q8).members == (0, 1)  # 1 and -1
    assert q8.mul(2, 4) == 6  # i * j = k
    assert q8.mul(4, 2) == 7  # j * i = -k


def test_class_sizes_partition_group():
    for name in STANDARD_NAMES:
        g = standard_group(name)
        classes = conjugacy_classes(g)
        assert sum(len(c) for c in classes) == g.order
        assert g.order % len(center(g)) == 0


def test_direct_product_klein():
    c2 = standard_group("C2")
    k4 = direct_product(c2, c2)
    assert k4.order == 4
    assert all(k4.mul(i, i) == 0 for i in range(4))
    k4.validate()


def test_direct_product_with_trivial_is_identity_embedding():
    trivial = standard_group("C1")
    s3 = standard_group("S3")
    left = direct_product(trivial, s3)
    assert left.table == s3.table
    right = direct_product(s3, trivial)
    assert right.table == s3.table


def test_groups_compare_by_table_and_hash_it_once():
    s3 = standard_group("S3")
    assert s3._hash is None
    assert hash(s3) == hash(s3.table) and s3._hash == hash(s3.table)
    # Built separately, unnamed and unlabelled: equal, with an equal hash.
    rebuilt = make_from_table([list(row) for row in s3.table])
    assert rebuilt is not s3 and rebuilt.table is not s3.table
    assert rebuilt == s3 and s3 == rebuilt and hash(rebuilt) == hash(s3)
    assert {s3: 1}[rebuilt] == 1
    assert s3 != standard_group("C6") and s3 != s3.table


def test_standard_product_labels_are_plain_pairs():
    # Products of standard groups, nested ones included, keep the labels
    # "(a,b)" they had before factor labels were ever escaped.
    groups = [standard_group(name) for name in STANDARD_NAMES]
    groups.append(direct_product(standard_group("Q8"), standard_group("A4")))
    for g1 in groups:
        for g2 in (standard_group("C2"), standard_group("A4"), standard_group("Q8")):
            product = direct_product(g1, g2)
            assert product.labels == tuple(f"({a},{b})" for a in g1.labels for b in g2.labels)
    assert standard_group("C2xC2").labels == ("(e,e)", "(e,g)", "(g,e)", "(g,g)")


def split_product_label(label):
    """The factor labels ``(a, b)`` of a product label, or None if it does not
    split at exactly one unescaped comma outside inner parentheses."""
    body = label[1:-1] if label[:1] == "(" and label[-1:] == ")" else None
    if body is None:
        return None
    depth, cuts, i = 0, [], 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 1
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and depth == 0:
            cuts.append(i)
        i += 1
    if depth or len(cuts) != 1:
        return None
    return tuple(re.sub(r"\\(.)", r"\1", part) for part in (body[: cuts[0]], body[cuts[0] + 1 :]))


_LABELS = st.lists(st.text(alphabet="a,()\\", max_size=4), min_size=3, max_size=3, unique=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_LABELS, _LABELS, _LABELS)
def test_product_labels_are_distinct(x, y, z):
    c3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    g1, g2, g3 = (make_from_table(c3, labels=labels) for labels in (x, y, z))
    g12 = direct_product(g1, g2)
    for left, right in ((g1, g2), (g12, g3), (g3, g12)):
        product = direct_product(left, right)
        assert len(set(product.labels)) == product.order
        pairs = [(a, b) for a in left.labels for b in right.labels]
        assert [split_product_label(label) for label in product.labels] == pairs


def test_q8_squared_center():
    q8 = standard_group("Q8")
    big = direct_product(q8, q8)
    assert big.order == 64
    assert len(center(big)) == 4
    big.validate()


def test_order_cap(monkeypatch):
    monkeypatch.setenv("GRPDER_MAX_ORDER", "10")
    q8 = standard_group("Q8")
    with pytest.raises(OrderCapExceeded):
        direct_product(q8, q8)
    monkeypatch.setenv("GRPDER_MAX_ORDER", "not-a-number")
    with pytest.raises(ValueError):
        standard_group("C2")


def test_center_transversal_values():
    assert center_transversal(standard_group("C6")) == [0]
    assert len(center_transversal(standard_group("S3"))) == 6
    assert len(center_transversal(standard_group("Q8"))) == 4


def test_center_transversal_properties():
    for name in STANDARD_NAMES:
        g = standard_group(name)
        reps = center_transversal(g)
        z = center(g).members
        assert len(reps) * len(z) == g.order
        assert reps[0] == 0
        # Each representative is the least member of its coset.
        for r in reps:
            coset = sorted(g.mul(c, r) for c in z)
            assert r == coset[0]
        # Cosets partition the group.
        all_elements = sorted(g.mul(c, r) for r in reps for c in z)
        assert all_elements == list(range(g.order))


def test_element_order_and_inverse():
    q8 = standard_group("Q8")
    assert q8.inverse(1) == 1  # -1 has order 2
    assert q8.mul(2, 2) == 1  # i^2 = -1, so i has order 4
    assert q8.inverse(2) == 3  # i^-1 = -i
    for i in range(q8.order):
        assert q8.mul(i, q8.inverse(i)) == 0


def test_subset_validation():
    g = standard_group("C4")
    s = Subset(g, (3, 1))
    assert s.members == (1, 3)
    assert 3 in s and 0 not in s
    with pytest.raises(ValueError):
        Subset(g, (1, 1))
    with pytest.raises(ValueError):
        Subset(g, (9,))


def test_dihedral_labels():
    s3 = standard_group("S3")
    assert s3.labels == ("e", "r", "r2", "s", "rs", "r2s")
    assert s3.index_of_label("rs") == 4
    d4 = standard_group("D4")
    assert d4.labels == ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")
    # s r = r^-1 s
    r, s = 1, 4
    assert d4.mul(s, r) == d4.index_of_label("r3s")
