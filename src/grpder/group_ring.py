"""Arithmetic in group rings RG for R in {Z, Q, F_p}.

Elements are dense coefficient vectors indexed by group-element index, with a
cached support: the ascending indices of the nonzero coefficients. The
representation is dense but the work is sparse. Sums, differences,
negation and scaling copy the coefficient list whole, products and linear
maps start from a list of zeros, and all of them then compute only at the
operands' support positions: k + l coefficients for a sum, k * l products
for a product, not |G|. They hand the new support to the constructor,
which then skips its rescan. Products and linear maps sum ints: over Q each
operand's coefficients are written as numerators over its lcm denominator,
and each nonzero output coefficient becomes one ``Fraction`` at the end
(over F_p the sums are reduced mod p there). Ring endomorphisms are stored
as the images of the group basis, matching how twisted derivations consume
them. When every image is one group element with coefficient 1 the map
also keeps that index map, ``group_map``: multiplicativity and centrality
are then checked on indices, and other maps are checked by products, which
stay the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import attrgetter

from .errors import (
    MixedGroups,
    MixedRings,
    NotAHomomorphism,
    NotAUnit,
    NotMultiplicative,
)
from .groups import FiniteGroup, conjugacy_classes
from .linalg import LinearSystem
from .rings import QQ, ZZ, Ring, Scalar
from .util import check_cancel


def _check_member(what: str, obj, group: FiniteGroup, ring: Ring) -> None:
    """Raise MixedGroups or MixedRings unless ``obj``, an element or a map, lives in ``ring[group]``."""
    if obj.group != group:
        raise MixedGroups(f"{what} belongs to a different group")
    if obj.ring != ring:
        raise MixedRings(f"{what} ring {obj.ring} != {ring}")


class GroupRingElement:
    """An element of RG: a length-n coefficient vector over an exact ring."""

    __slots__ = ("group", "ring", "coeffs", "support")

    def __init__(self, group: FiniteGroup, ring: Ring, coeffs, *, _normalized: bool = False, _support=None):
        """``_support``, the ascending nonzero indices of already normalized
        ``coeffs``, skips both the coercion and the rescan."""
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector length does not match group order")
        if _normalized or _support is not None:
            vec = tuple(coeffs)
        else:
            vec = tuple(ring.coerce(v) for v in coeffs)
        self.group = group
        self.ring = ring
        self.coeffs = vec
        if _support is None:
            _support = tuple(compress(range(len(vec)), vec))
        self.support = _support

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, group: FiniteGroup, ring: Ring) -> "GroupRingElement":
        return cls(group, ring, [ring.zero] * group.order, _support=())

    @classmethod
    def one(cls, group: FiniteGroup, ring: Ring) -> "GroupRingElement":
        return cls.basis(group, ring, 0)

    @classmethod
    def basis(cls, group: FiniteGroup, ring: Ring, index: int) -> "GroupRingElement":
        """The basis element ``g_index``, one shared object per group object, ring and index."""
        if not 0 <= index < group.order:
            raise IndexError(f"basis index {index} out of range")
        return _basis(group, ring, (index,))[0]

    @classmethod
    def from_dict(cls, group: FiniteGroup, ring: Ring, entries: dict[int, Scalar]) -> "GroupRingElement":
        vec = [ring.zero] * group.order
        for i, v in entries.items():
            vec[i] = ring.coerce(v)
        return cls(group, ring, vec, _normalized=True)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in self.support[:8]:
            parts.append(f"{self.coeffs[i]}*{self.group.label(i)}")
        tail = " + ..." if len(self.support) > 8 else ""
        return " + ".join(parts) + tail

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_member("operand", other, self.group, self.ring)
        p = self.ring.characteristic
        vec = list(self.coeffs)
        ocoeffs = other.coeffs
        for j in other.support:
            v = vec[j] + ocoeffs[j]
            vec[j] = v % p if p else v
        return _with_support(self.group, self.ring, vec, {*self.support, *other.support})

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_member("operand", other, self.group, self.ring)
        p = self.ring.characteristic
        vec = list(self.coeffs)
        ocoeffs = other.coeffs
        for j in other.support:
            v = vec[j] - ocoeffs[j]
            vec[j] = v % p if p else v
        return _with_support(self.group, self.ring, vec, {*self.support, *other.support})

    def __neg__(self) -> "GroupRingElement":
        p = self.ring.characteristic
        vec = list(self.coeffs)
        for i in self.support:
            vec[i] = -vec[i] % p if p else -vec[i]
        return GroupRingElement(self.group, self.ring, vec, _support=self.support)

    def scale(self, factor: Scalar) -> "GroupRingElement":
        factor = self.ring.coerce(factor)
        p = self.ring.characteristic
        vec = list(self.coeffs)
        for i in self.support:
            v = factor * vec[i]
            vec[i] = v % p if p else v
        return _with_support(self.group, self.ring, vec, self.support)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        _check_member("operand", other, self.group, self.ring)
        table = self.group.table
        (left,), left_den = _numerators(self.ring, [self])
        (right,), right_den = _numerators(self.ring, [other])
        osupport = other.support
        terms = [(left[i], table[i], osupport, right) for i in self.support]
        return _sum_of_products(self.group, self.ring, terms, left_den * right_den)

    def to_ring(self, ring: Ring) -> "GroupRingElement":
        """Reinterpret the same coefficients in another ring (e.g. Z -> Q)."""
        return GroupRingElement(self.group, ring, [ring.coerce(v) for v in self.coeffs], _normalized=True)


# Rings whose basis elements one group object keeps at once; a further ring starts afresh.
_BASIS_RINGS_PER_GROUP = 8


def _basis(group: FiniteGroup, ring: Ring, indices) -> list[GroupRingElement]:
    """The basis elements ``g_i`` of ``ring[group]`` for ``i`` in ``indices``, in that order.

    Each is built on first use and kept on the group object, in one list of
    n slots per ring, so every caller shares it; elements are never mutated.
    Only the elements asked for are built: one basis element of a large
    group costs one n-tuple, not n of them.
    """
    bases = group._bases
    if bases is None:
        bases = group._bases = {}
    elements = bases.get(ring)
    if elements is None:
        if len(bases) >= _BASIS_RINGS_PER_GROUP:
            bases.clear()
        elements = bases[ring] = [None] * group.order
    out = []
    for i in indices:
        e = elements[i]
        if e is None:
            vec = [ring.zero] * group.order
            vec[i] = ring.one
            e = elements[i] = GroupRingElement(group, ring, vec, _support=(i,))
        out.append(e)
    return out


def _from_ints(group: FiniteGroup, ring: Ring, values: list[int]) -> GroupRingElement:
    """The element of ``ring[group]`` with the plain int coefficients ``values``.

    Only the nonzero entries are coerced, each as :meth:`Ring.coerce` would.
    A unit vector is the shared basis element of :func:`_basis`.
    """
    p = ring.characteristic
    if p:
        values = [v % p for v in values]
    support = tuple(compress(range(len(values)), values))
    if len(support) == 1 and values[support[0]] == 1:
        return _basis(group, ring, support)[0]
    if ring.is_field and not p:
        vec = [ring.zero] * len(values)
        for i in support:
            vec[i] = Fraction(values[i])
        values = vec
    return GroupRingElement(group, ring, values, _support=support)


def _with_support(group: FiniteGroup, ring: Ring, vec, touched) -> GroupRingElement:
    """Wrap normalized ``vec``, whose nonzero entries all lie at indices in ``touched``."""
    return GroupRingElement(group, ring, vec, _support=tuple(sorted(filter(vec.__getitem__, touched))))


def _numerators(ring: Ring, elements) -> tuple[list, int]:
    """The coefficient vectors of ``elements`` as ints over one lcm denominator, and that denominator.

    Over Z and F_p they are the coefficient vectors themselves, over 1.
    """
    if ring.characteristic or not ring.is_field:
        return [e.coeffs for e in elements], 1
    den = math.lcm(*[e.coeffs[i].denominator for e in elements for i in e.support])
    vectors = []
    for e in elements:
        coeffs = e.coeffs
        nums = [0] * len(coeffs)
        for i in e.support:
            v = coeffs[i]
            nums[i] = v.numerator * (den // v.denominator)
        vectors.append(nums)
    return vectors, den


def _sum_of_products(group: FiniteGroup, ring: Ring, terms, den: int) -> GroupRingElement:
    """``(1/den) * sum a * b[j] * g_{row[j]}`` over the terms ``(a, row, indices, b)``, ``j`` in ``indices``.

    The sums run over ints. Then each nonzero sum becomes one
    ``Fraction(v, den)`` over Q, is reduced mod p over F_p and is kept over Z;
    ``den`` is 1 over Z and F_p.
    """
    n = group.order
    acc = [0] * n
    for a, row, indices, b in terms:
        for j in indices:
            acc[row[j]] += a * b[j]
    p = ring.characteristic
    if p:
        for k in compress(range(n), acc):
            acc[k] %= p
    support = tuple(compress(range(n), acc))
    if p or not ring.is_field:
        return GroupRingElement(group, ring, acc, _support=support)
    vec = [ring.zero] * n
    for k in support:
        vec[k] = Fraction(acc[k], den)
    return GroupRingElement(group, ring, vec, _support=support)


def augmentation(a: GroupRingElement) -> Scalar:
    """Coefficient sum; the ring homomorphism sending every group element to 1."""
    total = a.ring.zero
    for i in a.support:
        total = total + a.coeffs[i]
    return a.ring.normalize(total)


def center_basis(group: FiniteGroup, ring: Ring) -> list[GroupRingElement]:
    """Class sums, one per conjugacy class: a basis of the center of RG."""
    out = []
    for cls in conjugacy_classes(group):
        out.append(GroupRingElement.from_dict(group, ring, {i: ring.one for i in cls.members}))
    return out


def invert(a: GroupRingElement) -> GroupRingElement | None:
    """Two-sided inverse over a field, or None if ``a`` is not a unit.

    Solves the stacked 2n x n linear system ``a*x = 1`` and ``x*a = 1``.
    """
    group, ring = a.group, a.ring
    n = group.order
    system = LinearSystem(n, ring, augmented=True)
    left_cols = [a * GroupRingElement.basis(group, ring, j) for j in range(n)]
    right_cols = [GroupRingElement.basis(group, ring, j) * a for j in range(n)]
    for cols in (left_cols, right_cols):
        for k in range(n):
            row = {j: cols[j].coeffs[k] for j in range(n) if cols[j].coeffs[k]}
            system.add_row(row, ring.one if k == 0 else ring.zero)
    solution = system.particular_solution()
    if solution is None:
        return None
    return GroupRingElement(group, ring, solution, _normalized=True)


def linear_extension(group: FiniteGroup, ring: Ring, images, element: GroupRingElement) -> GroupRingElement:
    """Evaluate the R-linear map with basis images ``images`` on ``element``."""
    _check_member("element", element, group, ring)
    support = element.support
    (left,), left_den = _numerators(ring, [element])
    used = [images[i] for i in support]
    rights, right_den = _numerators(ring, used)
    positions = range(group.order)
    terms = [(left[i], positions, img.support, nums) for i, img, nums in zip(support, used, rights)]
    return _sum_of_products(group, ring, terms, left_den * right_den)


class _Content(tuple):
    """A map's content tuple; it hashes its nested tuples on first use and keeps the hash."""

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


class RingEndomorphism:
    """R-linear ring endomorphism of RG given by images of the group basis."""

    __slots__ = ("group", "ring", "images", "group_map", "_content")

    def __init__(self, group: FiniteGroup, ring: Ring, images, group_map=None, *, _validated: bool = False):
        images = tuple(images)
        if len(images) != group.order:
            raise ValueError("need one image per group basis element")
        self.group = group
        self.ring = ring
        self.images = images
        self.group_map = tuple(group_map) if group_map is not None else None
        self._content = None
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        """Check that every image lies in this RG, ``phi(1) = 1`` and
        ``phi(g s) = phi(g) phi(s)`` for ``s`` in a generating set.

        That suffices by induction on word length:
        ``phi(g w s) = phi(g w) phi(s) = phi(g) phi(w) phi(s) = phi(g) phi(w s)``.
        """
        images = self.images
        for img in images:
            _check_member("image", img, self.group, self.ring)
        if images[0] != GroupRingElement.one(self.group, self.ring):
            raise NotMultiplicative(0, 0, "image of the identity must be 1")
        if all(len(img.support) == 1 for img in images):
            f = [img.support[0] for img in images]
            # count() tries identity before ==, and a shared basis element holds ring.one itself.
            if [img.coeffs[i] for img, i in zip(images, f)].count(self.ring.one) == len(f):
                # Every image is a group element: check the products on indices.
                failure = _first_non_multiplicative(self.group, f)
                if failure is not None:
                    raise NotMultiplicative(*failure)
                self.group_map = tuple(f)
                return
        table = self.group.table
        for j in self.group.generators():
            image_j = images[j]
            for i in range(self.group.order):
                check_cancel()
                if images[i] * image_j != images[table[i][j]]:
                    raise NotMultiplicative(i, j)

    def apply(self, element: GroupRingElement) -> GroupRingElement:
        return linear_extension(self.group, self.ring, self.images, element)

    @property
    def content(self) -> tuple:
        """The images' supports, then their entries' numerators and denominators, as tuples.

        With the group table and ring it determines the map. Computed on first use and
        kept, as is its hash, so a cache key naming the map hashes these tuples once.
        """
        if self._content is None:
            values = [img.coeffs[k] for img in self.images for k in img.support]
            # Numerators and denominators: ints hash and compare in C, Fractions in Python.
            self._content = _Content((
                tuple([img.support for img in self.images]),
                tuple(map(attrgetter("numerator"), values)),
                tuple(map(attrgetter("denominator"), values)),
            ))
        return self._content

    def to_ring(self, ring: Ring) -> "RingEndomorphism":
        return RingEndomorphism(
            self.group,
            ring,
            [img.to_ring(ring) for img in self.images],
            group_map=self.group_map,
            # Reducing Z or Q coefficients is a ring map wherever it is defined.
            _validated=self.ring.characteristic in (0, ring.characteristic),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingEndomorphism):
            return NotImplemented
        return self is other or (
            self.ring == other.ring
            and self.group == other.group
            and self.content == other.content
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.group_map is not None:
            return f"RingEndomorphism(group map {list(self.group_map)})"
        return f"RingEndomorphism(order {self.group.order})"


def identity_endo(group: FiniteGroup, ring: Ring) -> RingEndomorphism:
    """The identity map; its images are the group's shared basis elements."""
    n = group.order
    return RingEndomorphism(group, ring, _basis(group, ring, range(n)), group_map=range(n), _validated=True)


def _first_non_multiplicative(group: FiniteGroup, f) -> tuple[int, int] | None:
    """The first ``(i, j)``, ``j`` a generator, with ``f(g_i g_j) != f(g_i) f(g_j)``, or None.

    ``f`` is an index map. Pairs are tried generator by generator, ``i``
    ascending, the order of the product check in
    :meth:`RingEndomorphism._validate`, so both name the same failing pair.
    """
    table = group.table
    for j in group.generators():
        fj = f[j]
        for i, fi in enumerate(f):
            if f[table[i][j]] != table[fi][fj]:
                return i, j
    return None


def endo_from_group_map(group: FiniteGroup, ring: Ring, mapping) -> RingEndomorphism:
    """Linear extension of a group endomorphism given as an index map.

    The map's entries must be plain ``int`` values (not bools, floats or
    digit strings) in ``[0, n)``; anything else raises NotAHomomorphism.
    Multiplicativity is checked against the generators of ``group``, which
    suffices as for :meth:`RingEndomorphism._validate`. The images are the
    group's shared basis elements, taken by reference.
    """
    f = list(mapping)
    n = group.order
    if len(f) != n or any(type(v) is not int or not 0 <= v < n for v in f):
        raise NotAHomomorphism(f"index map must be {n} ints in [0, {n})")
    if f[0] != 0:
        raise NotAHomomorphism("map must fix the identity")
    failure = _first_non_multiplicative(group, f)
    if failure is not None:
        i, j = failure
        raise NotAHomomorphism(f"f(g{i}*g{j}) != f(g{i})*f(g{j})")
    return RingEndomorphism(group, ring, _basis(group, ring, f), group_map=f, _validated=True)


def endo_from_images(images) -> RingEndomorphism:
    """Validate arbitrary basis images (multiplicativity against a generating set)."""
    images = list(images)
    if not images:
        raise ValueError("need at least the image of the identity")
    group, ring = images[0].group, images[0].ring
    return RingEndomorphism(group, ring, images)


def conjugation_endo(u: GroupRingElement) -> RingEndomorphism:
    """Conjugation ``g -> u^{-1} g u`` by a unit of RG.

    A trivial unit ``+-g`` gives the group map ``h -> g^{-1} h g`` with no
    inverse computed (over F_p the coefficient of ``-g`` is ``p - 1``).
    Otherwise the inverse comes from the linear solver: over a field
    directly, over Z as a rational inverse that must be integral.
    """
    group, ring = u.group, u.ring
    if len(u.support) == 1 and u.coeffs[u.support[0]] in (ring.one, ring.coerce(-1)):
        g = u.support[0]
        group_map = [group.conjugate(g, i) for i in range(group.order)]
        return RingEndomorphism(group, ring, _basis(group, ring, group_map), group_map=group_map, _validated=True)
    if ring.is_field:
        u_inv = invert(u)
        if u_inv is None:
            raise NotAUnit("element is not invertible")
    else:
        rational_inverse = invert(u.to_ring(QQ))
        if rational_inverse is None or any(v.denominator != 1 for v in rational_inverse.coeffs):
            raise NotAUnit("element is not a unit of ZG")
        u_inv = rational_inverse.to_ring(ZZ)
    images = [u_inv * GroupRingElement.basis(group, ring, i) * u for i in range(group.order)]
    return RingEndomorphism(group, ring, images, _validated=True)


def is_central_endo(phi: RingEndomorphism) -> bool:
    """True iff phi fixes every class sum (hence the whole center) pointwise.

    A map with a ``group_map`` ``f`` sends a class sum ``C`` to the sum of
    ``g_f(x)`` over its members ``x``. That is ``C`` iff the images of the
    members, sorted, are the class: the |C| images must give every member
    coefficient 1, so none is repeated or lies outside, in any
    characteristic. Any other map applies itself to each class sum.
    """
    f = phi.group_map
    if f is not None:
        return all(sorted([f[x] for x in cls.members]) == list(cls.members) for cls in conjugacy_classes(phi.group))
    for class_sum in center_basis(phi.group, phi.ring):
        if phi.apply(class_sum) != class_sum:
            return False
    return True


def commutator_span_system(group: FiniteGroup, ring: Ring) -> LinearSystem:
    """Echelonized span of all basis commutators ``gh - hg`` over a field.

    The span is read off the conjugacy classes: it is spanned by ``c - y``
    for ``c`` the least member of a class and ``y`` another member, n - k
    rows for k classes. ``gh - hg = a - g^-1 a g`` with ``a = gh``, and
    conversely ``y - g^-1 y g = g (g^-1 y) - (g^-1 y) g``.
    """
    system = LinearSystem(group.order, ring)
    one = ring.one
    for cls in conjugacy_classes(group):
        least, *rest = cls.members
        for y in rest:
            system.add_row({least: one, y: -one})
    return system
