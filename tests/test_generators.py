"""Differential tests: the generator path against all-pairs references.

Every check in the library that is determined by a generating set (the
Leibniz rule, multiplicativity, associativity and the witness equation) is
compared here with a straightforward all-pairs version that lives only in
this file, on random inputs that both pass and fail the check. The
separable fast path of ``derivation_space`` is compared with the Leibniz
solver it bypasses. The library reads the matrix of ``x -> d_x`` by index;
the references here build it from group-ring products.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    GroupRingElement,
    LinearSystem,
    NotAGroup,
    NotAHomomorphism,
    NotMultiplicative,
    conjugation_endo,
    derivation_from_images,
    derivation_space,
    direct_product,
    endo_from_group_map,
    endo_from_images,
    gcd_criterion,
    inner_derivation,
    inner_witness,
    inner_witness_integer,
    inner_witness_with_support,
    invert,
    is_derivation,
    leibniz_space,
    make_from_table,
    standard_group,
    twisted_centralizer,
)
from grpder.derivations import _inner_rows
from grpder.linalg import ExactMatrix, integer_solve
from grpder.rings import GF, QQ, ZZ
from grpder.serialization import derivation_to_json

SEEDS = st.integers(min_value=0, max_value=10**6)
SMALL = ("C2", "C3", "C4", "C2xC2", "S3", "C6", "D4", "Q8")
LARGER = ("A4", "S3xC2")


def _group(name):
    if name == "S3xC2":
        return direct_product(standard_group("S3"), standard_group("C2"))
    return standard_group(name)


GROUPS = {name: _group(name) for name in SMALL + LARGER}


# -- all-pairs references ------------------------------------------------------


def reached(group, gens):
    """Subgroup generated by ``gens``, closed under the full product."""
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = group.mul(x, s)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def ref_is_derivation(images, sigma, tau):
    group = sigma.group
    n = group.order
    return images[0].is_zero and all(
        images[group.mul(a, b)] == images[a] * tau.images[b] + sigma.images[a] * images[b]
        for a in range(n)
        for b in range(n)
    )


def ref_is_multiplicative(images):
    group, ring = images[0].group, images[0].ring
    n = group.order
    return images[0] == GroupRingElement.one(group, ring) and all(
        images[a] * images[b] == images[group.mul(a, b)] for a in range(n) for b in range(n)
    )


def ref_is_homomorphism(group, f):
    n = group.order
    return f[0] == 0 and all(
        f[group.mul(a, b)] == group.mul(f[a], f[b]) for a in range(n) for b in range(n)
    )


def ref_is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def ref_leibniz_kernel(sigma, tau):
    """Kernel of the Leibniz rule on every pair of non-identity elements."""
    group, ring = sigma.group, sigma.ring
    n = group.order
    inv = [group.inverse(i) for i in range(n)]
    system = LinearSystem(n * (n - 1), ring)
    for i in range(1, n):
        for j in range(1, n):
            t = group.mul(i, j)
            for k in range(n):
                row = {}
                if t:
                    row[(t - 1) * n + k] = ring.one
                tj, si = tau.images[j], sigma.images[i]
                for s in tj.support:
                    col = (i - 1) * n + group.mul(k, inv[s])
                    row[col] = row.get(col, 0) - tj.coeffs[s]
                for s in si.support:
                    col = (j - 1) * n + group.mul(inv[s], k)
                    row[col] = row.get(col, 0) - si.coeffs[s]
                if row:
                    system.add_row(row)
    return system.kernel_basis()


def flat(d):
    """The images of the non-identity basis elements, concatenated."""
    return [v for img in d.images[1:] for v in img.coeffs]


def ref_witness_rows(sigma, tau):
    """Rows of ``alpha tau(g) - sigma(g) alpha = d(g)`` for every ``g != 1``."""
    group = sigma.group
    n = group.order
    ring = sigma.ring
    columns = []
    for h in range(n):
        basis_h = GroupRingElement.basis(group, ring, h)
        columns.append([basis_h * tau.images[i] - sigma.images[i] * basis_h for i in range(n)])
    for i in range(1, n):
        for k in range(n):
            yield i, k, [columns[h][i].coeffs[k] for h in range(n)]


def ref_field_system(sigma, tau, delta=None):
    system = LinearSystem(sigma.group.order, sigma.ring, augmented=delta is not None)
    for i, k, row in ref_witness_rows(sigma, tau):
        coeffs = {h: v for h, v in enumerate(row) if v}
        if delta is None:
            system.add_row(coeffs)
        else:
            system.add_row(coeffs, delta.images[i].coeffs[k])
    return system


def ref_snf_witness(delta, sigma, tau):
    rows, rhs = [], []
    for i, k, row in ref_witness_rows(sigma, tau):
        rows.append(row)
        rhs.append(delta.images[i].coeffs[k])
    return integer_solve(ExactMatrix(ZZ, rows), rhs)


def ref_inner_rows(sigma, tau):
    """The nonzero flattened ``d_h``, each built from group-ring products."""
    group, ring = sigma.group, sigma.ring
    rows = []
    for h in range(group.order):
        d = inner_derivation(GroupRingElement.basis(group, ring, h), sigma, tau)
        row = {c: v for c, v in enumerate(flat(d)) if v}
        if row:
            rows.append(row)
    return rows


def ref_generator_snf_witness(delta, sigma, tau):
    """``integer_solve`` on the product-built generator rows, in (generator, k) order.

    The generators are ascending (see ``test_generators_generate_and_are_cached``),
    so filtering keeps the solver's row order.
    """
    gens = set(sigma.group.generators())
    rows, rhs = [], []
    for i, k, row in ref_witness_rows(sigma, tau):
        if i in gens:
            rows.append(row)
            rhs.append(delta.images[i].coeffs[k])
    return integer_solve(ExactMatrix(ZZ, rows), rhs)


# -- random inputs ---------------------------------------------------------------


def random_element(group, ring, rng, lo=-3, hi=3):
    return GroupRingElement(group, ring, [rng.randint(lo, hi) for _ in range(group.order)])


def group_maps(group):
    """Index maps of some endomorphisms: identity, conjugations, the trivial map."""
    n = group.order
    maps = [list(range(n)), [0] * n]
    for g in range(1, n):
        maps.append([group.conjugate(g, x) for x in range(n)])
    if group.is_abelian:
        maps.append([group.inverse(x) for x in range(n)])
        maps.append([group.mul(x, x) for x in range(n)])
    return maps


def bicyclic_unit(group, ring, h, a):
    """``1 + (1 - h) a h_hat``, a unit of ZG whenever it differs from 1."""
    one = GroupRingElement.one(group, ring)
    hat = GroupRingElement.zero(group, ring)
    power = 0
    while True:
        hat = hat + GroupRingElement.basis(group, ring, power)
        power = group.mul(power, h)
        if power == 0:
            break
    return one + (one - GroupRingElement.basis(group, ring, h)) * GroupRingElement.basis(group, ring, a) * hat


def random_endo(group, ring, rng, *, dense=True):
    """A ring endomorphism: a group map, or conjugation by a non-trivial unit."""
    if dense and rng.random() < 0.3:
        for _ in range(8):
            u = bicyclic_unit(group, ring, rng.randrange(1, group.order), rng.randrange(group.order))
            if len(u.support) > 1:
                return conjugation_endo(u)
        if ring.is_field:
            for _ in range(16):
                u = random_element(group, ring, rng, -2, 2)
                if invert(u) is not None:
                    return conjugation_endo(u)
    return endo_from_group_map(group, ring, rng.choice(group_maps(group)))


def perturbed(images, index, rng):
    """``images`` with a nonzero random element added at ``index``."""
    group, ring = images[0].group, images[0].ring
    bump = random_element(group, ring, rng, -2, 2)
    while bump.is_zero:
        bump = random_element(group, ring, rng, -2, 2)
    out = list(images)
    out[index] = out[index] + bump
    return out


def perturb_index(group, mode, rng):
    """An index to perturb: a generator, a non-generator, or the identity."""
    gens = group.generators()
    others = [g for g in range(1, group.order) if g not in gens]
    if mode == "generator" or (mode == "non-generator" and not others):
        return rng.choice(gens)
    if mode == "non-generator":
        return rng.choice(others)
    return 0


RINGS = st.sampled_from([QQ, GF(2), GF(3), ZZ])
MODES = st.sampled_from(["none", "generator", "non-generator", "identity"])


# -- generating sets ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_generators_generate_and_are_cached(name):
    group = GROUPS[name]
    gens = group.generators()
    assert gens is group.generators()
    assert list(gens) == sorted(set(gens)) and 0 not in gens
    assert reached(group, gens) == set(range(group.order))


def test_product_generators_are_embedded_factor_generators():
    q8 = standard_group("Q8")
    tower = direct_product(direct_product(q8, q8), q8)
    assert q8.generators() == (2, 4)
    assert tower.generators() == (2, 4, 16, 32, 128, 256)
    assert reached(tower, tower.generators()) == set(range(512))


def test_trivial_group_has_no_generators():
    assert standard_group("C1").generators() == ()


# -- Leibniz rule, multiplicativity, associativity -------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + LARGER), RINGS, MODES, SEEDS)
def test_is_derivation_matches_all_pairs(name, ring, mode, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = random_endo(group, ring, rng)
    tau = random_endo(group, ring, rng)
    delta = inner_derivation(random_element(group, ring, rng), sigma, tau)
    images = list(delta.images)
    if ring.is_field and group.order <= 8:
        for extra in derivation_space(sigma, tau).basis:
            scaled = extra.scale(rng.randint(-2, 2))
            images = [a + b for a, b in zip(images, scaled.images)]
    if mode != "none":
        images = perturbed(images, perturb_index(group, mode, rng), rng)
    expected = ref_is_derivation(images, sigma, tau)
    assert is_derivation(images, sigma, tau) == expected
    if mode == "none":
        assert expected


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + LARGER), st.sampled_from(["endo", "perturbed", "random"]), SEEDS)
def test_group_map_multiplicativity_matches_all_pairs(name, mode, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    n = group.order
    f = list(rng.choice(group_maps(group)))
    if mode == "perturbed":
        f[rng.randrange(1, n)] = rng.randrange(n)
    elif mode == "random":
        f = [0] + [rng.randrange(n) for _ in range(n - 1)]
    try:
        endo_from_group_map(group, QQ, f)
        accepted = True
    except NotAHomomorphism:
        accepted = False
    assert accepted == ref_is_homomorphism(group, f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + LARGER), RINGS, MODES, SEEDS)
def test_basis_image_multiplicativity_matches_all_pairs(name, ring, mode, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    images = list(random_endo(group, ring, rng).images)
    if mode != "none":
        images = perturbed(images, perturb_index(group, mode, rng), rng)
    try:
        endo_from_images(images)
        accepted = True
    except NotMultiplicative:
        accepted = False
    expected = ref_is_multiplicative(images)
    assert accepted == expected
    if mode == "none":
        assert expected


def random_loop_table(n, rng):
    """A random latin square with identity row and column 0 (a loop)."""
    table = [[None] * n for _ in range(n)]
    table[0] = list(range(n))
    for i in range(n):
        table[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(pos):
        if pos == len(cells):
            return True
        i, j = cells[pos]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(pos + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


def relabeled_group_table(group, rng):
    """The Cayley table under a random relabeling that keeps the identity at 0."""
    n = group.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[pi[a]][pi[b]] = pi[group.mul(a, b)]
    return table


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(min_value=5, max_value=8), st.booleans(), SEEDS)
def test_validate_matches_all_triples(n, from_group, seed):
    rng = random.Random(seed)
    if from_group:
        group = rng.choice([g for g in GROUPS.values() if g.order == n] + [standard_group(f"C{n}")])
        table = relabeled_group_table(group, rng)
    else:
        table = random_loop_table(n, rng)
    expected = ref_is_associative(table)
    if expected:
        make_from_table(table)
    else:
        with pytest.raises(NotAGroup) as err:
            make_from_table(table)
        assert err.value.reason == "not-associative"
    if from_group:
        assert expected


def test_validate_rejects_known_nonassociative_loop():
    # The smallest non-associative loop, order 5.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    assert not ref_is_associative(table)
    with pytest.raises(NotAGroup) as err:
        make_from_table(table)
    assert err.value.reason == "not-associative"


# -- Leibniz kernel, twisted centralizer, witnesses ---------------------------------


FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL), FIELDS, SEEDS)
def test_leibniz_kernel_matches_all_pairs(name, ring, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = random_endo(group, ring, rng)
    tau = random_endo(group, ring, rng)
    # The Leibniz solver by name: over Q and F5 the dispatcher would take
    # the fast path, which never builds these rows.
    basis = [flat(d) for d in leibniz_space(sigma, tau).basis]
    assert basis == ref_leibniz_kernel(sigma, tau)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + LARGER), FIELDS, st.booleans(), SEEDS)
def test_centralizer_and_field_witness_match_all_rows(name, ring, inner, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = random_endo(group, ring, rng, dense=group.order <= 8)
    tau = random_endo(group, ring, rng, dense=group.order <= 8)
    centralizer = [list(y.coeffs) for y in twisted_centralizer(sigma, tau)]
    assert centralizer == ref_field_system(sigma, tau).kernel_basis()
    delta = inner_derivation(random_element(group, ring, rng), sigma, tau)
    if not inner and group.order <= 8:
        for extra in derivation_space(sigma, tau).basis:
            delta = delta + extra.scale(rng.randint(-2, 2))
    witness = inner_witness(delta, sigma, tau)
    expected = ref_field_system(sigma, tau, delta).particular_solution()
    assert (None if witness is None else list(witness.coeffs)) == expected
    # The support-constrained solver shares the solve; with every index
    # allowed (in any order, repeats included) it must give the same answer.
    everywhere = [*reversed(range(group.order)), 0]
    assert inner_witness_with_support(delta, sigma, tau, everywhere) == witness
    if inner:
        assert witness is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL + LARGER), st.booleans(), SEEDS)
def test_snf_witness_matches_all_rows(name, inner, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = random_endo(group, ZZ, rng)
    tau = random_endo(group, ZZ, rng)
    delta = inner_derivation(random_element(group, ZZ, rng), sigma, tau)
    space = derivation_space(sigma.to_ring(QQ), tau.to_ring(QQ)) if group.order <= 8 else None
    if not inner and space is not None and space.basis:
        # A rational derivation cleared of denominators is integral but
        # often not Z-inner.
        pick = rng.choice(space.basis)
        den = math.lcm(*(v.denominator for img in pick.images for v in img.coeffs))
        scale = den * rng.randint(1, 3)
        images = [
            a + GroupRingElement(group, ZZ, [int(v * scale) for v in b.coeffs])
            for a, b in zip(delta.images, pick.images)
        ]
        delta = derivation_from_images(images, sigma, tau)
    assert ref_is_derivation(delta.images, sigma, tau)
    witness = inner_witness_integer(delta, sigma, tau)
    # The same matrix, entry for entry and row for row, gives the same witness.
    assert (None if witness is None else list(witness.coeffs)) == ref_generator_snf_witness(delta, sigma, tau)
    reference = ref_snf_witness(delta, sigma, tau)
    assert (witness is None) == (reference is None)
    assert gcd_criterion(delta, sigma, tau) == (witness is not None)
    if witness is not None:
        assert inner_derivation(witness, sigma, tau) == delta
        # SNF picks one solution of an affine lattice; the generator rows
        # and all rows may pick different ones, which then differ by an
        # element of the integral twisted centralizer.
        gap = witness - GroupRingElement(group, ZZ, reference)
        assert inner_derivation(gap, sigma, tau).is_zero
    if inner or space is None or not space.basis:
        assert witness is not None


# -- separable fast path ---------------------------------------------------------


def random_group_map(group, rng):
    """Index map of a random group endomorphism, often not injective.

    Draws generator images, extends them along words and keeps the first
    draw that is a homomorphism; the trivial map if none of 32 is.
    """
    n = group.order
    gens = group.generators()
    for _ in range(32):
        images = {s: rng.randrange(n) for s in gens}
        f = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = group.mul(x, s)
                if y not in f:
                    f[y] = group.mul(f[x], images[s])
                    frontier.append(y)
        f = [f[x] for x in range(n)]
        if ref_is_homomorphism(group, f):
            return f
    return [0] * n


def twist(group, ring, kind, rng):
    """A sparse or dense conjugation, a random group map, or the trivial map."""
    n = group.order
    if kind == "sparse":
        g = rng.randrange(1, n)
        return endo_from_group_map(group, ring, [group.conjugate(g, x) for x in range(n)])
    if kind == "dense":
        while True:
            u = random_element(group, ring, rng, -2, 2)
            if invert(u) is not None:
                return conjugation_endo(u)
    if kind == "group-map":
        return endo_from_group_map(group, ring, random_group_map(group, rng))
    return endo_from_group_map(group, ring, [0] * n)


TWISTS = st.sampled_from(["sparse", "dense", "group-map", "trivial"])


def _scalar_types(space):
    return [type(v) for d in space.basis for img in d.images for v in img.coeffs]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    st.sampled_from(("S3", "D4", "Q8", "A4", "S3xC2")),
    st.sampled_from([QQ, GF(5), GF(7)]),
    TWISTS,
    TWISTS,
    SEEDS,
)
def test_fast_path_matches_leibniz(name, ring, sigma_kind, tau_kind, seed):
    # No characteristic here divides the order, so derivation_space takes
    # the fast path, and leibniz_space is the reference.
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = twist(group, ring, sigma_kind, rng)
    tau = twist(group, ring, tau_kind, rng)
    fast = derivation_space(sigma, tau)
    reference = leibniz_space(sigma, tau)
    assert fast.h1_dimension == reference.h1_dimension == 0
    assert [derivation_to_json(d) for d in fast.basis] == [derivation_to_json(d) for d in reference.basis]
    assert _scalar_types(fast) == _scalar_types(reference)
    # Every derivation basis has one shape, so the inner bases are equal too.
    assert fast.inner_basis == reference.inner_basis


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(SMALL + LARGER),
    # F2 and F3 divide some orders here (the Leibniz path), F5 and Q none.
    st.sampled_from([QQ, GF(2), GF(3), GF(5)]),
    TWISTS,
    TWISTS,
    SEEDS,
)
def test_inner_rows_match_products(name, ring, sigma_kind, tau_kind, seed):
    rng = random.Random(seed)
    group = GROUPS[name]
    sigma = twist(group, ring, sigma_kind, rng)
    tau = twist(group, ring, tau_kind, rng)

    def entries(rows):
        return [[(c, v, type(v)) for c, v in row.items()] for row in rows]

    # The rows are ints: over Q each is the product-built row times the lcm
    # denominator of the sigma and tau images (1 over F_p).
    den = math.lcm(*sigma.content[2], *tau.content[2])
    scaled = []
    for row in ref_inner_rows(sigma, tau):
        assert all((v * den).denominator == 1 for v in row.values())
        scaled.append({c: int(v * den) for c, v in row.items()})
    assert entries(_inner_rows(sigma, tau)) == entries(scaled)
