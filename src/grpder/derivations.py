"""(sigma, tau)-twisted derivations of group rings.

A twisted derivation is determined by its images on the group basis, subject
to the Leibniz rule ``d(ab) = d(a) tau(b) + sigma(a) d(b)``. Over a field the
full derivation space is the kernel of the Leibniz system in the unknowns
``d(g)`` for non-identity ``g`` (the identity image is pinned to zero), the
inner derivations are the image of ``x -> x tau(.) - sigma(.) x``, and the
first Hochschild cohomology dimension is their difference. When the
characteristic does not divide ``|G|`` the two spaces are equal, and the
derivation space is computed from the inner one alone; witnesses are then
averages reduced by the kernel of the pair's witness matrix, which is
eliminated once per pair and cached. When it divides ``|G|`` the derivation
space is solved in the values ``d(s)`` on the generators, constrained by
the Schreier relators of a spanning tree (Fox calculus); the Leibniz system
stays the reference both paths are tested against. Every derivation basis
has one shape, the Leibniz kernel's: one vector per free column ``f`` of the
flattened images, ascending, 1 at ``f`` and 0 at the other free columns
(see :func:`_canonical_span`). Over Z innerness
is decided two independent ways: an integral witness via Smith normal form,
and a per-equation gcd divisibility test; the two act as mutual oracles.
Work that depends only on the pair is done once per pair and cached under
its content: the witness matrix's kernel or Smith factors, the row gcds,
and, from a pair's second validation on, a basis of its Leibniz rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import mod, mul

from .errors import (
    MixedRings,
    NotADerivation,
    NotAUnit,
    NotAWitness,
    NotCentral,
)
from .group_ring import (
    GroupRingElement,
    RingEndomorphism,
    _check_member,
    _numerators,
    commutator_span_system,
    invert,
    is_central_endo,
    linear_extension,
)
from .groups import FiniteGroup
from .linalg import (
    ExactMatrix,
    LinearSystem,
    _SmithSolver,
    integer_solve,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
)
from .rings import QQ, ZZ, Ring, Scalar
from .util import _CACHE_MAX_CELLS, _LruCache, check_cancel

# Smith factors of the integral witness matrix of a pair, keyed by its content.
_INTEGER_FACTORS = _LruCache()
# Kernel of the field witness matrix of a pair, keyed by its content.
_CENTRALIZERS = _LruCache()
# Row gcds of the matrix of x -> d_x over Z, per image, keyed by the pair's content.
_ROW_GCDS = _LruCache()
# Leibniz row basis of a pair (see is_derivation), or one of these marks, keyed by its content.
_SEEN = object()  # validated once, by every row
_EVERY_ROW = object()  # the basis outgrows the cell bound: every validation checks every row
_LEIBNIZ_BASES = _LruCache()


class DerivationMap:
    """A (sigma, tau)-derivation of RG given by basis images, tied to its pair.

    The constructor raises NotADerivation unless :func:`is_derivation` holds,
    so solvers need not check again. Producers that are derivations by
    construction (inner maps, solver bases, +, -, scale, to_ring) skip it.
    ``_average`` keeps the unreduced averaged witness (see :func:`_average`).
    """

    __slots__ = ("group", "ring", "sigma", "tau", "images", "_average")

    def __init__(self, group, ring, sigma, tau, images, *, _validated: bool = False):
        self.group = group
        self.ring = ring
        self.sigma = sigma
        self.tau = tau
        self.images = tuple(images)
        self._average = None
        if not _validated:
            _check_member("sigma", sigma, group, ring)
            if not is_derivation(self.images, sigma, tau):
                raise NotADerivation("images violate d(1) = 0 or the Leibniz rule")

    def apply(self, element: GroupRingElement) -> GroupRingElement:
        """Evaluate the linear extension on an arbitrary element."""
        return linear_extension(self.group, self.ring, self.images, element)

    @property
    def is_zero(self) -> bool:
        return all(img.is_zero for img in self.images)

    def __add__(self, other: "DerivationMap") -> "DerivationMap":
        _check_same_pair(other, self.sigma, self.tau)
        images = [a + b for a, b in zip(self.images, other.images)]
        return DerivationMap(self.group, self.ring, self.sigma, self.tau, images, _validated=True)

    def __sub__(self, other: "DerivationMap") -> "DerivationMap":
        _check_same_pair(other, self.sigma, self.tau)
        images = [a - b for a, b in zip(self.images, other.images)]
        return DerivationMap(self.group, self.ring, self.sigma, self.tau, images, _validated=True)

    def scale(self, factor: Scalar) -> "DerivationMap":
        images = [img.scale(factor) for img in self.images]
        return DerivationMap(self.group, self.ring, self.sigma, self.tau, images, _validated=True)

    def to_ring(self, ring: Ring) -> "DerivationMap":
        """Same images over ``ring``, re-checked only when leaving F_p for another characteristic."""
        return DerivationMap(
            self.group,
            ring,
            self.sigma.to_ring(ring),
            self.tau.to_ring(ring),
            [img.to_ring(ring) for img in self.images],
            _validated=self.ring.characteristic in (0, ring.characteristic),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DerivationMap):
            return NotImplemented
        return self.ring == other.ring and self.group == other.group and self.images == other.images

    __hash__ = None

    def __repr__(self) -> str:
        nonzero = sum(1 for img in self.images if not img.is_zero)
        return f"DerivationMap({nonzero} nonzero images of {self.group.order})"


@dataclass(frozen=True)
class DerivationSpace:
    """Full derivation space over a field, its inner subspace, and h1.

    Both bases have the shape of :func:`_canonical_span`. When the
    characteristic does not divide ``|G|`` the two spaces are equal and
    :func:`derivation_space` returns one tuple for both.
    """

    group: FiniteGroup
    ring: Ring
    sigma: RingEndomorphism
    tau: RingEndomorphism
    basis: tuple[DerivationMap, ...]
    inner_basis: tuple[DerivationMap, ...]

    @property
    def h1_dimension(self) -> int:
        return len(self.basis) - len(self.inner_basis)


def _check_same_pair(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> None:
    """Raise ValueError unless ``(sigma, tau)`` is the pair ``delta`` was built for."""
    if delta.sigma != sigma or delta.tau != tau:
        raise ValueError("derivation is twisted by a different endomorphism pair")


def is_derivation(images, sigma: RingEndomorphism, tau: RingEndomorphism) -> bool:
    """Check ``d(1) = 0`` and the twisted Leibniz rule on the pairs ``(g, s)``.

    Here ``g`` runs over the group and ``s`` over its generators. With
    ``d(1) = 0`` that suffices by induction on word length:
    ``d(g w s) = d(g w) tau(s) + sigma(g w) d(s)
    = d(g) tau(w s) + sigma(g) (d(w) tau(s) + sigma(w) d(s))``, and the
    bracket is ``d(w s)``. The argument holds over Z, Q and F_p alike.

    The rule on ``(g, s)`` is a block of linear rows ``(g, s, k)`` in the
    coefficients of ``d``, and rows that span the row space vanish on ``d``
    exactly when every row does. The first validation of a pair checks
    every row (:func:`_leibniz_holds`). The second builds the pair's row
    basis (:func:`_leibniz_basis`) and caches it under the key of
    :func:`_centralizer`; from then on only the basis rows are evaluated,
    in one pass. A pair whose basis outgrows the cache's cell bound keeps
    checking every row.
    """
    if isinstance(images, DerivationMap):
        images = images.images
    images = list(images)
    _check_member("tau", tau, sigma.group, sigma.ring)
    group = sigma.group
    if len(images) != group.order:
        raise ValueError("need one candidate image per group basis element")
    for img in images:
        _check_member("candidate image", img, group, sigma.ring)
    if not images[0].is_zero:
        return False
    key = (group, sigma.ring, sigma.content, tau.content)
    basis = _LEIBNIZ_BASES.get(key)
    if basis is _SEEN:
        cells = _content_cells(sigma, tau)
        basis = _leibniz_basis(sigma, tau, _CACHE_MAX_CELLS - cells - group.order**2)
        if basis is None:
            basis = _EVERY_ROW
        else:
            cells += len(basis[0]) + len(basis[2])
        _LEIBNIZ_BASES.put(key, basis, cells, group)
    if basis is None or basis is _EVERY_ROW:
        holds = _leibniz_holds(images, sigma, tau)
        if basis is None:
            _LEIBNIZ_BASES.put(key, _SEEN, _content_cells(sigma, tau), group)
        return holds
    check_cancel()
    cols, vals, ends = basis
    flat = list(chain.from_iterable(img.coeffs for img in images))
    # Row r is the difference of the running sums at ends[r] and ends[r - 1]: all rows vanish iff these do.
    sums = list(accumulate(map(mul, vals, map(flat.__getitem__, cols))))
    p = sigma.ring.characteristic
    if p:
        return not any(v % p for v in map(sums.__getitem__, ends))
    return not any(map(sums.__getitem__, ends))


def _leibniz_holds(images: list, sigma: RingEndomorphism, tau: RingEndomorphism) -> bool:
    """Every Leibniz block ``d(g) tau(s) + sigma(g) d(s) - d(g s)``, ``g != 1``, vanishes.

    The reference check of :func:`is_derivation`, by products of the
    images; it polls :func:`check_cancel` once per block.
    """
    group = sigma.group
    table = group.table
    n = group.order
    p = sigma.ring.characteristic
    sigma_images = sigma.images
    tau_images = tau.images
    for j in group.generators():
        dj = images[j]
        tj = tau_images[j]
        for i in range(1, n):
            check_cancel()
            di = images[i]
            si = sigma_images[i]
            acc: dict[int, Scalar] = {}
            for a in di.support:
                va = di.coeffs[a]
                row = table[a]
                for b in tj.support:
                    k = row[b]
                    acc[k] = acc.get(k, 0) + va * tj.coeffs[b]
            for a in si.support:
                va = si.coeffs[a]
                row = table[a]
                for b in dj.support:
                    k = row[b]
                    acc[k] = acc.get(k, 0) + va * dj.coeffs[b]
            lhs = images[table[i][j]]
            for k in lhs.support:
                acc[k] = acc.get(k, 0) - lhs.coeffs[k]
            if p:
                if any(v % p for v in acc.values()):
                    return False
            elif any(acc.values()):
                return False
    return True


def _leibniz_basis(sigma: RingEndomorphism, tau: RingEndomorphism, budget: int):
    """The Leibniz rows of :func:`is_derivation` that raise the rank, compiled, or None.

    The rank is over Q for Z and Q, and over F_p for F_p. The rows are
    sorted by the walk of :func:`_schreier_walk`. A tree edge ``(g, s)``,
    ``g != 1``, reaches a new element ``h = g s``: its block is ``-1`` at
    ``d(h)_k`` in row ``k``, and no block before it in the walk reads
    ``d(h)``, so all tree rows are independent. A relator edge's row is,
    modulo the tree rows, the form the walk yields for it, so it raises the
    rank exactly when its form raises the rank of the forms before it: only
    those forms are eliminated, in ``|S| n`` columns. Blocks of edges from 1
    are zero. When the characteristic does not divide ``|G|`` every
    derivation is inner, so the forms' rank is known in advance, ``|S| n``
    minus the rank of ``x -> d_x``; once it is reached the walk only lists
    the tree rows left. Rows are kept times the walk's denominator ``den``.

    Returns ``(cols, vals, ends)``: the rows' terms one after another, as
    positions in the concatenated coefficient vectors of the images and
    coefficients, and the position of each row's last term. None, before
    the walk or during it, when the forms and terms held pass ``budget``
    cells.
    """
    group = sigma.group
    n = group.order
    p = sigma.ring.characteristic
    gens = group.generators()
    # Each tree row holds at least three terms, tau(s) and sigma(g) being units, and an end.
    if 4 * n * (n - 1 - len(gens)) > budget:
        return None
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    sigma_nums, tau_nums, den = _image_numerators(sigma, tau)
    system = LinearSystem(len(gens) * n, sigma.ring if p else QQ)
    target = None
    if not p or n % p:
        # Every derivation is inner (see derivation_space), so the forms reach rank
        # |S| n - dim Der = |S| n - rank(x -> d_x), and every later row is dependent.
        witness = LinearSystem(n, system.ring)
        for _i, _k, row in _witness_rows(sigma, tau):
            witness.add_row(row)
        target = len(gens) * n - witness.rank
    cols: list[int] = []
    vals: list[int] = []
    ends: list[int] = []

    def compile_row(g, s, h, k):
        t_support, t_nums = tau.images[s].support, tau_nums[s]
        s_support, s_nums = sigma.images[g].support, sigma_nums[g]
        cols.extend([g * n + table[k][inv[b]] for b in t_support])
        vals.extend([t_nums[b] for b in t_support])
        cols.extend([s * n + table[inv[a]][k] for a in s_support])
        vals.extend([s_nums[a] for a in s_support])
        if h:
            cols.append(h * n + k)
            vals.append(-den)
        ends.append(len(cols) - 1)

    cells = 0
    for g, s, h, tree, forms in _schreier_walk(sigma, tau, lambda: system.rank != target):
        if tree:
            if g:
                for k in range(n):
                    compile_row(g, s, h, k)
            if forms is not None:
                cells += sum(map(len, forms))
        elif forms is not None:
            for k, form in enumerate(forms):
                if form:
                    rank = system.rank
                    system.add_row(form)
                    if system.rank > rank:
                        compile_row(g, s, h, k)
        if cells + len(cols) + len(ends) > budget:
            return None
    return tuple(cols), tuple(vals), tuple(ends)


def derivation_from_images(images, sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationMap:
    """The derivation with these basis images; raises NotADerivation when Leibniz fails."""
    if isinstance(images, DerivationMap):
        images = images.images
    return DerivationMap(sigma.group, sigma.ring, sigma, tau, images)


def inner_derivation(x: GroupRingElement, sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationMap:
    """The inner derivation ``a -> x tau(a) - sigma(a) x``."""
    _check_member("tau", tau, sigma.group, sigma.ring)
    _check_member("witness", x, sigma.group, sigma.ring)
    images = [x * tau.images[i] - sigma.images[i] * x for i in range(sigma.group.order)]
    return DerivationMap(sigma.group, sigma.ring, sigma, tau, images, _validated=True)


def _maps_from_vectors(vectors, sigma, tau) -> tuple[DerivationMap, ...]:
    group, ring = sigma.group, sigma.ring
    n = group.order
    maps = []
    for vec in vectors:
        images = [GroupRingElement.zero(group, ring)]
        for i in range(1, n):
            images.append(
                GroupRingElement(group, ring, vec[(i - 1) * n : i * n], _normalized=True)
            )
        maps.append(DerivationMap(group, ring, sigma, tau, images, _validated=True))
    return tuple(maps)


def derivation_space(sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationSpace:
    """The derivation space over a field, its inner subspace and h1.

    ``inner_basis`` is that of :func:`inner_space`. When the characteristic
    does not divide ``|G|`` every derivation is inner:
    ``x = |G|^-1 sum_g d(g) tau(g^-1)`` satisfies
    ``x tau(a) - sigma(a) x = d(a)``. ``basis`` is then the same tuple and
    h1 is 0. Otherwise ``basis`` spans the solutions of the Schreier
    relators (see :func:`_relator_solutions`). Both come from
    :func:`_canonical_span`, so ``basis`` is the one :func:`leibniz_space`
    returns, scalar types included.
    """
    inner = inner_space(sigma, tau)
    p = sigma.ring.characteristic
    if p and sigma.group.order % p == 0:
        basis = _canonical_span(_relator_solutions(sigma, tau), sigma, tau)
    else:
        basis = inner
    return DerivationSpace(sigma.group, sigma.ring, sigma, tau, basis, inner)


def _relator_solutions(sigma: RingEndomorphism, tau: RingEndomorphism):
    """Flattened derivations over F_p spanning the derivation space (Fox calculus).

    A derivation is fixed by its values ``d(s)`` on the generators.
    :func:`_schreier_walk` writes every ``d(g)`` as linear forms in the
    ``|S| n`` unknowns ``d(s)_k`` along a spanning tree, and each other
    edge ``(g, s)`` is a Schreier relator: its block of ``n`` forms
    ``d(g) tau(s) + sigma(g) d(s) - d(g s)`` must vanish. Then the Leibniz
    rule holds on every pair ``(g, s)`` and ``d(1) = 0``, which is exactly
    a derivation (see :func:`is_derivation`). Yields one sparse row per
    kernel vector, ``d(g_i)_k`` at column ``(i - 1) n + k``.
    """
    group = sigma.group
    n = group.order
    p = sigma.ring.characteristic
    system = LinearSystem(len(group.generators()) * n, sigma.ring)
    forms: list[list[dict[int, int]] | None] = [None] * n  # every g != 1 is reached by a tree edge
    for _g, _s, h, tree, block in _schreier_walk(sigma, tau):
        if tree:
            forms[h] = block
        else:
            for row in block:
                if row:
                    system.add_row(row)
    # Evaluate the forms at every kernel vector at once, column by column.
    kernel = system.kernel()
    users: dict[int, list[tuple[dict[int, int], int]]] = {}
    rows: list[dict[int, int]] = []
    for _f, vector in kernel:
        row: dict[int, int] = {}
        rows.append(row)
        for c, v in vector.items():
            users.setdefault(c, []).append((row, v))
    for i in range(1, n):
        base = (i - 1) * n
        for k, form in enumerate(forms[i]):
            col = base + k
            for c, w in form.items():
                for row, v in users.get(c, ()):
                    row[col] = row.get(col, 0) + w * v
    for row in rows:
        yield {c: v % p for c, v in row.items() if v % p}


def _schreier_walk(sigma: RingEndomorphism, tau: RingEndomorphism, more=None):
    """The edges ``(g, s)`` of a breadth-first Schreier tree from 1, with Fox forms.

    Right multiplication by the generators reaches every element, breadth
    first. Every ``d(g)`` is a linear form in the ``|S| n`` unknowns
    ``d(s)_k``, at column ``j n + k`` for the ``j``-th generator: along a
    tree edge ``d(g s) = d(g) tau(s) + sigma(g) d(s)``. Yields
    ``(g, s, h, tree, forms)`` for each edge, ``h = g s``, and polls
    :func:`check_cancel` once per edge. For a tree edge ``forms`` are the
    ``n`` forms of ``d(h)_k``; for another edge, a Schreier relator, the
    ``n`` forms of ``d(g) tau(s) + sigma(g) d(s) - d(h)``. Forms map columns
    to ints, reduced mod p. They are computed on the int numerators of
    :func:`_image_numerators` over their denominator ``den`` (1 but over
    Q): the form of ``d(h)`` is kept times ``den`` to the depth of ``h`` in
    the tree, a relator's times ``den`` to the depth of ``g`` plus one.
    Once ``more()`` is false, ``forms`` is None and no form is computed.
    """
    group = sigma.group
    n = group.order
    p = sigma.ring.characteristic
    table = group.table
    gens = group.generators()
    sigma_nums, tau_nums, den = _image_numerators(sigma, tau)

    def reduced(form):
        if p:
            return {c: r for c, w in form.items() if (r := w % p)}
        return {c: w for c, w in form.items() if w}

    forms: list[list[dict[int, int]] | None] = [None] * n
    forms[0] = [{} for _ in range(n)]
    depth: list[int | None] = [None] * n
    depth[0] = 0
    reached = [0]
    for g in reached:  # grows while it is read: breadth first
        dg = forms[g]
        s_support, s_nums = sigma.images[g].support, sigma_nums[g]
        for j, s in enumerate(gens):
            check_cancel()
            h = table[g][s]
            tree = depth[h] is None
            if tree:
                depth[h] = depth[g] + 1
                reached.append(h)
            if more is not None and not more():
                yield g, s, h, tree, None
                continue
            t_support, t_nums = tau.images[s].support, tau_nums[s]
            image: list[dict[int, int]] = [{} for _ in range(n)]
            for a, form in enumerate(dg):
                if form:
                    row = table[a]
                    for b in t_support:
                        acc = image[row[b]]
                        v = t_nums[b]
                        for c, w in form.items():
                            acc[c] = acc.get(c, 0) + v * w
            base = j * n
            scale = den ** depth[g]
            for a in s_support:
                v = s_nums[a] * scale
                row = table[a]
                for b in range(n):
                    acc = image[row[b]]
                    acc[base + b] = acc.get(base + b, 0) + v
            if tree:
                forms[h] = [reduced(acc) for acc in image]
                yield g, s, h, tree, forms[h]
                continue
            lift = den ** (depth[g] + 1 - depth[h])
            for acc, form in zip(image, forms[h]):
                for c, w in form.items():
                    acc[c] = acc.get(c, 0) - lift * w
            yield g, s, h, tree, [reduced(acc) for acc in image]


def leibniz_space(sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationSpace:
    """Solve the Leibniz system over a field, in any characteristic.

    The unknowns are the images ``d(g)`` of the non-identity basis elements,
    and the rows are the Leibniz rule on the pairs ``(g, s)`` with ``s`` a
    generator, which has the same solutions as all pairs (see
    :func:`is_derivation`). The kernel basis comes back in the canonical
    reduced-echelon order, so it does not depend on which rows were added.
    It is the reference both paths of :func:`derivation_space` are tested
    against, and reaches that shape without :func:`_canonical_span`;
    ``inner_basis`` is that of :func:`inner_space`.
    """
    _check_member("tau", tau, sigma.group, sigma.ring)
    ring = sigma.ring
    group = sigma.group
    n = group.order
    system = LinearSystem(n * (n - 1), ring)
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    one = ring.one
    for j in group.generators():
        tj = tau.images[j]
        base_j = (j - 1) * n
        for i in range(1, n):
            check_cancel()
            si = sigma.images[i]
            base_i = (i - 1) * n
            t = table[i][j]
            base_t = (t - 1) * n
            for k in range(n):
                row: dict[int, Scalar] = {}
                if t:
                    row[base_t + k] = one
                for s in tj.support:
                    col = base_i + table[k][inv[s]]
                    row[col] = row.get(col, 0) - tj.coeffs[s]
                for s in si.support:
                    col = base_j + table[inv[s]][k]
                    row[col] = row.get(col, 0) - si.coeffs[s]
                if row:
                    system.add_row(row)
    basis = _maps_from_vectors(system.kernel_basis(), sigma, tau)
    return DerivationSpace(group, ring, sigma, tau, basis, inner_space(sigma, tau))


def _inner_rows(sigma: RingEndomorphism, tau: RingEndomorphism):
    """The nonzero flattened ``d_h`` for ``h`` in the group basis; they span the inner derivations.

    Row ``h`` holds ``d_h(g_i)_k`` at column ``(i - 1) n + k`` for ``g_i != 1``:
    the transpose of :func:`_witness_rows` over every non-identity element,
    so over Q it is ``d_h`` times the images' lcm denominator, in ints.
    Scaling a row changes neither the span nor the kernel.
    """
    p = sigma.ring.characteristic
    n = sigma.group.order
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    for i, k, row in _witness_rows(sigma, tau, range(1, n)):
        col = (i - 1) * n + k
        for h, v in row.items():
            if p:
                v %= p
            if v:
                rows[h][col] = v
    for row in rows:
        if row:
            yield row


def inner_space(sigma: RingEndomorphism, tau: RingEndomorphism) -> tuple[DerivationMap, ...]:
    """Basis of the space of inner derivations ``x -> d_x``, shaped by :func:`_canonical_span`."""
    _check_member("tau", tau, sigma.group, sigma.ring)
    return _canonical_span(_inner_rows(sigma, tau), sigma, tau)


def _canonical_span(rows, sigma: RingEndomorphism, tau: RingEndomorphism) -> tuple[DerivationMap, ...]:
    """The basis of the span of flattened derivation ``rows`` in the Leibniz kernel's shape.

    The rows go into one system on reversed columns. Read back in column
    order, each reduced row has its last nonzero entry, a 1, at a column
    ``f`` and 0 at the other such columns; the rows come ascending by ``f``.
    A Leibniz kernel vector has the same shape, with ``f`` a free column.
    That basis of a space is unique, so every derivation basis the library
    returns is the one :func:`leibniz_space` would, scalar types included.
    This is the only code that reverses derivation columns.
    """
    n = sigma.group.order
    last = n * (n - 1) - 1
    system = LinearSystem(n * (n - 1), sigma.ring)
    for row in rows:
        system.add_row({last - c: v for c, v in row.items()})
    vectors = [vec[::-1] for vec in reversed(system.span_basis())]
    return _maps_from_vectors(vectors, sigma, tau)


def _witness_rows(sigma: RingEndomorphism, tau: RingEndomorphism, elements=None):
    """Rows of the witness system ``alpha tau(s) - sigma(s) alpha = d(s)``, ``s`` a generator.

    Yields ``(i, k, row)`` where ``row`` maps the coordinate of ``alpha_h``
    to ``tau(g_i)_{h^-1 x} - sigma(g_i)_{x h^-1}`` at ``x = g_k``, that is
    ``(g_h tau(g_i) - sigma(g_i) g_h)_k``, read off the images by index
    without multiplying. Entries are ints: over Q each row is scaled by the
    lcm denominator of :func:`_image_numerators`, so a right-hand side must
    be scaled by it too. They are not reduced mod p and may be zero.
    For a derivation ``d`` the generator rows have the same solutions as
    the system over every ``g``: ``d - d_alpha`` is a derivation, and one
    vanishing on the generators vanishes everywhere by the Leibniz rule.
    ``elements`` replaces the generators by other indices ``i``. This is the
    only code that computes entries of the matrix of ``x -> d_x``, and it
    polls :func:`check_cancel` once per row for every solver it feeds.
    """
    group = sigma.group
    n = group.order
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    sigma_nums, tau_nums, _den = _image_numerators(sigma, tau)
    for i in group.generators() if elements is None else elements:
        t_support, t_nums = tau.images[i].support, tau_nums[i]
        s_support, s_nums = sigma.images[i].support, sigma_nums[i]
        for k in range(n):
            check_cancel()
            row_k = table[k]
            # Distinct s give distinct h in each loop, so only the second can meet a set entry.
            row: dict[int, int] = {row_k[inv[s]]: t_nums[s] for s in t_support}
            for s in s_support:
                h = table[inv[s]][k]
                v = s_nums[s]
                row[h] = row[h] - v if h in row else -v
            yield i, k, row


def _image_numerators(sigma: RingEndomorphism, tau: RingEndomorphism) -> tuple[list, list, int]:
    """The coefficient vectors of sigma's and tau's images as ints over one lcm denominator, and it.

    That denominator is 1 over F_p; see :func:`~grpder.group_ring._numerators`.
    """
    n = sigma.group.order
    vectors, den = _numerators(sigma.ring, [*sigma.images, *tau.images])
    return vectors[:n], vectors[n:], den


def _centralizer(sigma: RingEndomorphism, tau: RingEndomorphism) -> tuple[tuple[int, dict[int, Scalar]], ...]:
    """Kernel of the generator rows of :func:`_witness_rows` over a field, cached per pair.

    It is :meth:`LinearSystem.kernel`: one sparse ``(f, vector)`` per free
    column ``f`` of the reduced echelon form, ascending. The entry is keyed
    by the group, the ring and the two maps'
    :attr:`~grpder.group_ring.RingEndomorphism.content`, so a group rebuilt
    with the same table hits it, and the table is hashed once per group
    object; it counts the image entries and the kernel entries against
    the cache bound, and the table's n^2 cells once per group object the
    cache holds (see :meth:`~grpder.util._LruCache.put`).
    """
    group, ring = sigma.group, sigma.ring
    key = (group, ring, sigma.content, tau.content)
    kernel = _CENTRALIZERS.get(key)
    if kernel is not None:
        return kernel
    system = LinearSystem(group.order, ring)
    for _i, _k, row in _witness_rows(sigma, tau):
        system.add_row(row)
    kernel = tuple(system.kernel())
    _CENTRALIZERS.put(key, kernel, _content_cells(sigma, tau) + sum(len(vec) for _f, vec in kernel), group)
    return kernel


def _content_cells(sigma: RingEndomorphism, tau: RingEndomorphism) -> int:
    """The cells a pair's cache key holds: one numerator per image entry of the two maps."""
    return len(sigma.content[1]) + len(tau.content[1])


def twisted_centralizer(sigma: RingEndomorphism, tau: RingEndomorphism) -> list[GroupRingElement]:
    """Basis of ``{y : y tau(g) = sigma(g) y for all g}`` over a field.

    This is exactly the kernel of ``x -> d_x``, so its dimension complements
    the inner-derivation dimension. The basis is the canonical kernel basis
    of the pair's cached elimination (see :func:`_centralizer`), one vector
    per free column, ascending.
    """
    _check_member("tau", tau, sigma.group, sigma.ring)
    group, ring = sigma.group, sigma.ring
    return [GroupRingElement.from_dict(group, ring, vector) for _f, vector in _centralizer(sigma, tau)]


def h1_dimension(sigma: RingEndomorphism, tau: RingEndomorphism) -> int:
    """dim(derivation space) - dim(inner subspace) over a field.

    This is :attr:`DerivationSpace.h1_dimension` of :func:`derivation_space`,
    the difference of the two basis lengths. It is 0 by the averaging
    argument whenever the characteristic does not divide ``|G|``; otherwise
    the derivation space comes from the Schreier relators.
    :func:`leibniz_space` computes it without either argument.
    """
    return derivation_space(sigma, tau).h1_dimension


def inner_witness(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> GroupRingElement | None:
    """Some ``alpha`` with ``d = d_alpha`` over a field, or None.

    The returned representative is canonical: free coordinates of the witness
    system are set to zero under the reduced-echelon pivot order. When the
    characteristic does not divide ``|G|`` every derivation is inner, and
    this witness is the average ``|G|^-1 sum_g d(g) tau(g^-1)`` minus its
    free coordinates times the pair's cached kernel vectors
    (:func:`_averaged_witness`), with no solve for ``delta``. Otherwise it
    is the solution of :func:`_field_witness`, which stays the reference
    (see :func:`_canonical_witness`).
    """
    _check_same_pair(delta, sigma, tau)
    return _canonical_witness(delta, sigma, tau, None)


def _field_witness(
    delta: DerivationMap,
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    allowed: list[int] | None,
) -> GroupRingElement | None:
    """Solve the witness system over a field, ``alpha`` zero outside ``allowed``.

    ``allowed`` is an ascending list of indices, or None for every index;
    then the rows go to the solver as they are, without remapping.
    """
    group, ring = sigma.group, sigma.ring
    if allowed is not None:
        position = {h: pos for pos, h in enumerate(allowed)}
    system = LinearSystem(group.order if allowed is None else len(allowed), ring, augmented=True)
    den = _image_numerators(sigma, tau)[2]
    for i, k, row in _witness_rows(sigma, tau):
        if allowed is not None:
            row = {position[h]: v for h, v in row.items() if h in position}
        system.add_row(row, delta.images[i].coeffs[k] * den)
        if not system.consistent:
            return None
    solution = system.particular_solution()
    if solution is None:
        return None
    if allowed is not None:
        vec = [ring.zero] * group.order
        for pos, h in enumerate(allowed):
            vec[h] = solution[pos]
        solution = vec
    return GroupRingElement(group, ring, solution, _normalized=True)


def _averaged_witness(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism, kernel) -> list[Scalar]:
    """The witness of ``delta`` that is zero at the free columns of ``kernel``.

    With ``|G|`` invertible, ``x = |G|^-1 sum_g d(g) tau(g^-1)`` satisfies
    ``x tau(a) - sigma(a) x = d(a)``: substitute ``g = a h`` and expand
    ``d(a h)`` by the Leibniz rule. Every witness is ``x`` plus an element of
    the kernel, and ``x - sum_f x_f K_f`` is the one vanishing at every free
    column ``f``, so it equals the solver's particular solution. ``x`` is
    :func:`_average`, kept on ``delta``; the reduction runs on every call.
    """
    ring = sigma.ring
    x = list(_average(delta))
    for f, vector in kernel:
        xf = x[f]
        if xf:
            for c, v in vector.items():
                x[c] = ring.normalize(x[c] - xf * v)
    return x


def _average(delta: DerivationMap) -> tuple[Scalar, ...]:
    """``|G|^-1 sum_g d(g) tau(g^-1)`` for ``delta`` and its own ``tau``.

    Computed on first use and kept on ``delta``, so every witness question
    on one derivation object averages once. The loop polls
    :func:`check_cancel` once per non-identity image; a cancelled run keeps
    nothing.
    """
    if delta._average is not None:
        return delta._average
    group, ring, tau = delta.group, delta.ring, delta.tau
    n = group.order
    table = group.table
    # The sum runs over ints: numerators over common denominators (1 over F_p).
    d_den = math.lcm(*(img.coeffs[a].denominator for img in delta.images for a in img.support))
    t_den = math.lcm(*tau.content[2])
    sums: dict[int, int] = {}
    for g in range(1, n):
        check_cancel()
        dg = delta.images[g]
        tg = tau.images[group.inverse(g)]
        for b in tg.support:
            vb = tg.coeffs[b]
            vb = vb.numerator * (t_den // vb.denominator)
            for a in dg.support:
                va = dg.coeffs[a]
                k = table[a][b]
                sums[k] = sums.get(k, 0) + va.numerator * (d_den // va.denominator) * vb
    scale = ring.coerce(Fraction(1, n * d_den * t_den))
    x = [ring.zero] * n
    for k, v in sums.items():
        x[k] = ring.normalize(v * scale)
    delta._average = tuple(x)
    return delta._average


def _canonical_witness(
    delta: DerivationMap,
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    allowed: list[int] | None,
) -> GroupRingElement | None:
    """The witness :func:`_field_witness` returns for ``allowed``, or None.

    When the characteristic divides ``|G|`` this is that solver. Otherwise
    the witnesses are ``x0 - sum_j l_j K_j`` for the averaged witness ``x0``
    and the kernel vectors ``K_j``, and one vanishing outside ``allowed``
    exists iff the system in the ``dim C`` unknowns ``l_j`` with the rows
    ``sum_j K_j[h] l_j = x0[h]``, ``h`` outside ``allowed``, is consistent.
    Its particular solution zeroes ``l_j`` exactly at the free columns of
    the pinned system (a column of either is free iff a kernel vector
    supported on ``allowed`` has its last nonzero entry there), so the
    witness is the pinned solver's.
    """
    group, ring = sigma.group, sigma.ring
    p = ring.characteristic
    if p and group.order % p == 0:
        return _field_witness(delta, sigma, tau, allowed)
    kernel = _centralizer(sigma, tau)
    x = _averaged_witness(delta, sigma, tau, kernel)
    if allowed is not None:
        inside = set(allowed)
        rows: dict[int, dict[int, Scalar]] = {}
        for j, (_f, vector) in enumerate(kernel):
            for h, v in vector.items():
                if h not in inside:
                    rows.setdefault(h, {})[j] = v
        system = LinearSystem(len(kernel), ring, augmented=True)
        for h in range(group.order):
            if h in inside or not (x[h] or h in rows):
                continue
            check_cancel()
            system.add_row(rows.get(h, {}), x[h])
            if not system.consistent:
                return None
        for (_f, vector), coeff in zip(kernel, system.particular_solution()):
            if coeff:
                for c, v in vector.items():
                    x[c] = ring.normalize(x[c] - coeff * v)
    return GroupRingElement(group, ring, x, _normalized=True)


def inner_witness_integer(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> GroupRingElement | None:
    """Integer witness for innerness over Z, decided by Smith normal form.

    The matrix is the generator rows of :func:`_witness_rows`, made dense:
    one block of ``|G|`` rows per generator, one column per ``alpha_h``.
    It depends only on the pair, so its Smith factors are cached under the
    key of :func:`_centralizer`, in a cache of their own that counts the
    table once per group object as that one does; a repeated pair reads
    only the right-hand side ``delta(g_i)_k``. The witness is that of
    :func:`integer_solve` on the same matrix. :func:`gcd_criterion` reads
    every row in its own loop, so the two stay independent oracles.
    """
    if sigma.ring != ZZ:
        raise MixedRings(f"integer witness requires Z coefficients, got {sigma.ring}")
    _check_same_pair(delta, sigma, tau)
    group = sigma.group
    n = group.order
    gens = group.generators()
    key = (group, sigma.ring, sigma.content, tau.content)
    solver = _INTEGER_FACTORS.get(key)
    if solver is None:
        rows = [[row.get(h, 0) for h in range(n)] for _i, _k, row in _witness_rows(sigma, tau)]
        solver = _SmithSolver(ExactMatrix(ZZ, rows, _validated=True))
        # The image entries as in _centralizer, the kept Smith entries; the table once per group.
        _INTEGER_FACTORS.put(key, solver, _content_cells(sigma, tau) + solver.cells, group)
    solution = solver.solve([delta.images[i].coeffs[k] for i in gens for k in range(n)])
    if solution is None:
        return None
    return GroupRingElement(group, ZZ, solution, _normalized=True)


def gcd_criterion(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> bool:
    """Per-coefficient divisibility test for innerness over Z.

    For every pair ``(g, x)`` the row coefficients are
    ``tau(g)_{h^-1 x} - sigma(g)_{x h^-1}`` as ``h`` runs over the group;
    the test asks that their gcd divide the coefficient of ``x`` in
    ``d(g)``, with the convention that 0 divides only 0. The gcds depend
    only on the pair: they are computed by :func:`_row_gcds` and cached
    under the key of :func:`_centralizer`, and a repeated pair only tests
    ``d`` against the entries whose gcd is not 1, polling
    :func:`check_cancel` once per image.
    """
    if sigma.ring != ZZ:
        raise MixedRings(f"gcd criterion requires Z coefficients, got {sigma.ring}")
    _check_same_pair(delta, sigma, tau)
    group = sigma.group
    key = (group, ZZ, sigma.content, tau.content)
    tests = _ROW_GCDS.get(key)
    if tests is None:
        tests = _row_gcds(sigma, tau)
        cells = sum(len(zeros) + len(xs) for zeros, xs, _gs in tests)
        _ROW_GCDS.put(key, tests, _content_cells(sigma, tau) + cells, group)
    for img, (zeros, xs, gs) in zip(delta.images, tests):
        check_cancel()
        m = img.coeffs
        if (zeros and any(map(m.__getitem__, zeros))) or (xs and any(map(mod, map(m.__getitem__, xs), gs))):
            return False
    return True


def _row_gcds(sigma: RingEndomorphism, tau: RingEndomorphism) -> tuple:
    """Per image ``g``: the ``x`` whose row gcd is 0, and the ``x`` and gcd of the rows whose gcd exceeds 1.

    It reads every row, not only the generator rows the witness solvers
    use, so that :func:`gcd_criterion` stays an oracle independent of
    them; the coefficients are read directly off the endomorphism images,
    not through :func:`_witness_rows`. Polls :func:`check_cancel` once per
    image.
    """
    group = sigma.group
    n = group.order
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    tests = []
    for i in range(n):
        check_cancel()
        c_coeffs = tau.images[i].coeffs
        b_coeffs = sigma.images[i].coeffs
        zeros, xs, gs = [], [], []
        for x in range(n):
            row_x = table[x]
            g = 0
            for h in range(n):
                hinv = inv[h]
                diff = c_coeffs[table[hinv][x]] - b_coeffs[row_x[hinv]]
                if diff:
                    g = math.gcd(g, diff)
                    if g == 1:
                        break
            if g == 0:
                zeros.append(x)
            elif g > 1:
                xs.append(x)
                gs.append(g)
        tests.append((tuple(zeros), tuple(xs), tuple(gs)))
    return tuple(tests)


def extend_scalars(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationMap:
    """Reinterpret a Z-linear derivation over Q (same basis images).

    Requires sigma and tau to fix the center of ZG pointwise; scalar
    extension preserves the Leibniz rule, so the result is a Q-derivation
    restricting back to the input.
    """
    if sigma.ring != ZZ:
        raise MixedRings(f"scalar extension starts from Z, got {sigma.ring}")
    _check_same_pair(delta, sigma, tau)
    if not is_central_endo(sigma):
        raise NotCentral("sigma does not fix the center of ZG pointwise")
    if not is_central_endo(tau):
        raise NotCentral("tau does not fix the center of ZG pointwise")
    return delta.to_ring(QQ)


def zc2_congruence_check(
    delta: DerivationMap,
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    u: GroupRingElement,
    alpha: GroupRingElement,
) -> bool:
    """Check ``d(g) = alpha (u tau(g) u^-1 - sigma(g))  mod [QG, QG]`` basiswise.

    ``u`` must be a unit and ``alpha`` an inner witness for ``delta``; both
    are verified before the congruence itself is tested.
    """
    ring = sigma.ring
    _check_same_pair(delta, sigma, tau)
    u_inv = invert(u)
    if u_inv is None:
        raise NotAUnit("u is not invertible")
    group = sigma.group
    n = group.order
    for i in range(1, n):
        if delta.images[i] != alpha * tau.images[i] - sigma.images[i] * alpha:
            raise NotAWitness(f"alpha is not an inner witness (fails at basis {i})")
    span = commutator_span_system(group, ring)
    for i in range(1, n):
        check_cancel()
        twisted = u * tau.images[i] * u_inv - sigma.images[i]
        defect = delta.images[i] - alpha * twisted
        if not span.contains(defect.coeffs):
            return False
    return True
