"""Arithmetic in group rings RG for R in {Z, Q, F_p}.

Elements are dense coefficient vectors indexed by group-element index, with a
cached support so that products and linear maps iterate only over nonzero
coefficients. Ring endomorphisms are stored as the images of the group basis,
matching how twisted derivations consume them.
"""

from __future__ import annotations

from .errors import (
    MixedGroups,
    MixedRings,
    NotAField,
    NotAHomomorphism,
    NotAUnit,
    NotMultiplicative,
)
from .groups import FiniteGroup, conjugacy_classes
from .linalg import LinearSystem
from .rings import QQ, ZZ, Ring, Scalar


class GroupRingElement:
    """An element of RG: a length-n coefficient vector over an exact ring."""

    __slots__ = ("group", "ring", "coeffs", "support")

    def __init__(self, group: FiniteGroup, ring: Ring, coeffs, *, _normalized: bool = False):
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector length does not match group order")
        if _normalized:
            vec = tuple(coeffs)
        else:
            vec = tuple(ring.coerce(v) for v in coeffs)
        self.group = group
        self.ring = ring
        self.coeffs = vec
        self.support = tuple(i for i, v in enumerate(vec) if v)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, group: FiniteGroup, ring: Ring) -> "GroupRingElement":
        return cls(group, ring, [ring.zero] * group.order, _normalized=True)

    @classmethod
    def one(cls, group: FiniteGroup, ring: Ring) -> "GroupRingElement":
        return cls.basis(group, ring, 0)

    @classmethod
    def basis(cls, group: FiniteGroup, ring: Ring, index: int) -> "GroupRingElement":
        vec = [ring.zero] * group.order
        vec[index] = ring.one
        return cls(group, ring, vec, _normalized=True)

    @classmethod
    def from_dict(cls, group: FiniteGroup, ring: Ring, entries: dict[int, Scalar]) -> "GroupRingElement":
        vec = [ring.zero] * group.order
        for i, v in entries.items():
            vec[i] = ring.coerce(v)
        return cls(group, ring, vec, _normalized=True)

    # -- structure ----------------------------------------------------------

    def _check_compatible(self, other: "GroupRingElement") -> None:
        if not self.group.same_group(other.group):
            raise MixedGroups("elements belong to different groups")
        if self.ring != other.ring:
            raise MixedRings(f"ring mismatch: {self.ring} vs {other.ring}")

    @property
    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.group.same_group(other.group)
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
        self._check_compatible(other)
        p = self.ring.characteristic
        vec = [a + b for a, b in zip(self.coeffs, other.coeffs)]
        if p:
            vec = [v % p for v in vec]
        return GroupRingElement(self.group, self.ring, vec, _normalized=True)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        p = self.ring.characteristic
        vec = [a - b for a, b in zip(self.coeffs, other.coeffs)]
        if p:
            vec = [v % p for v in vec]
        return GroupRingElement(self.group, self.ring, vec, _normalized=True)

    def __neg__(self) -> "GroupRingElement":
        p = self.ring.characteristic
        vec = [-v for v in self.coeffs]
        if p:
            vec = [v % p for v in vec]
        return GroupRingElement(self.group, self.ring, vec, _normalized=True)

    def scale(self, factor: Scalar) -> "GroupRingElement":
        factor = self.ring.coerce(factor)
        p = self.ring.characteristic
        vec = [factor * v for v in self.coeffs]
        if p:
            vec = [v % p for v in vec]
        return GroupRingElement(self.group, self.ring, vec, _normalized=True)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        table = self.group.table
        zero = self.ring.zero
        vec = [zero] * self.group.order
        ocoeffs = other.coeffs
        for i in self.support:
            ai = self.coeffs[i]
            row = table[i]
            for j in other.support:
                k = row[j]
                vec[k] = vec[k] + ai * ocoeffs[j]
        p = self.ring.characteristic
        if p:
            vec = [v % p for v in vec]
        return GroupRingElement(self.group, self.ring, vec, _normalized=True)

    def to_ring(self, ring: Ring) -> "GroupRingElement":
        """Reinterpret the same coefficients in another ring (e.g. Z -> Q)."""
        return GroupRingElement(self.group, ring, [ring.coerce(v) for v in self.coeffs], _normalized=True)


def multiply(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    """Convolution product via the Cayley table."""
    return a * b


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
    if not a.ring.is_field:
        raise NotAField(f"invert requires field coefficients, got {a.ring}")
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
    if not element.group.same_group(group):
        raise MixedGroups("element belongs to a different group")
    if element.ring != ring:
        raise MixedRings(f"element ring {element.ring} != {ring}")
    vec = [ring.zero] * group.order
    for i in element.support:
        ai = element.coeffs[i]
        img = images[i]
        coeffs = img.coeffs
        for k in img.support:
            vec[k] = vec[k] + ai * coeffs[k]
    p = ring.characteristic
    if p:
        vec = [v % p for v in vec]
    return GroupRingElement(group, ring, vec, _normalized=True)


class RingEndomorphism:
    """R-linear ring endomorphism of RG given by images of the group basis."""

    __slots__ = ("group", "ring", "images", "group_map")

    def __init__(self, group: FiniteGroup, ring: Ring, images, group_map=None, *, _validated: bool = False):
        images = tuple(images)
        if len(images) != group.order:
            raise ValueError("need one image per group basis element")
        for img in images:
            if not img.group.same_group(group):
                raise MixedGroups("image belongs to a different group")
            if img.ring != ring:
                raise MixedRings(f"image ring {img.ring} != {ring}")
        self.group = group
        self.ring = ring
        self.images = images
        self.group_map = tuple(group_map) if group_map is not None else None
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        """Check ``phi(1) = 1`` and ``phi(g s) = phi(g) phi(s)`` for ``s`` in a generating set.

        That suffices by induction on word length:
        ``phi(g w s) = phi(g w) phi(s) = phi(g) phi(w) phi(s) = phi(g) phi(w s)``.
        """
        images = self.images
        if images[0] != GroupRingElement.one(self.group, self.ring):
            raise NotMultiplicative(0, 0, "image of the identity must be 1")
        table = self.group.table
        for j in self.group.generators():
            image_j = images[j]
            for i in range(self.group.order):
                if images[i] * image_j != images[table[i][j]]:
                    raise NotMultiplicative(i, j)

    def apply(self, element: GroupRingElement) -> GroupRingElement:
        return linear_extension(self.group, self.ring, self.images, element)

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
        return (
            self.ring == other.ring
            and self.group.same_group(other.group)
            and all(a == b for a, b in zip(self.images, other.images))
        )

    __hash__ = None

    def __repr__(self) -> str:
        if self.group_map is not None:
            return f"RingEndomorphism(group map {list(self.group_map)})"
        return f"RingEndomorphism(order {self.group.order})"


def identity_endo(group: FiniteGroup, ring: Ring) -> RingEndomorphism:
    images = [GroupRingElement.basis(group, ring, i) for i in range(group.order)]
    return RingEndomorphism(group, ring, images, group_map=range(group.order), _validated=True)


def endo_from_group_map(group: FiniteGroup, ring: Ring, mapping) -> RingEndomorphism:
    """Linear extension of a group endomorphism given as an index map.

    Multiplicativity is checked against the generators of ``group``, which
    suffices as for :meth:`RingEndomorphism._validate`.
    """
    f = [int(v) for v in mapping]
    n = group.order
    if len(f) != n or any(not 0 <= v < n for v in f):
        raise NotAHomomorphism("index map must send [0,n) into [0,n)")
    if f[0] != 0:
        raise NotAHomomorphism("map must fix the identity")
    table = group.table
    for j in group.generators():
        fj = f[j]
        for i in range(n):
            if f[table[i][j]] != table[f[i]][fj]:
                raise NotAHomomorphism(f"f(g{i}*g{j}) != f(g{i})*f(g{j})")
    images = [GroupRingElement.basis(group, ring, f[i]) for i in range(n)]
    return RingEndomorphism(group, ring, images, group_map=f, _validated=True)


def endo_from_images(images) -> RingEndomorphism:
    """Validate arbitrary basis images (multiplicativity against a generating set)."""
    images = list(images)
    if not images:
        raise ValueError("need at least the image of the identity")
    group, ring = images[0].group, images[0].ring
    return RingEndomorphism(group, ring, images)


def _trivial_unit_inverse(u: GroupRingElement) -> GroupRingElement | None:
    """Inverse of +-g over Z, or None if u is not of that shape."""
    if len(u.support) != 1:
        return None
    idx = u.support[0]
    c = u.coeffs[idx]
    if c not in (1, -1):
        return None
    inv_idx = u.group.inverse(idx)
    return GroupRingElement.from_dict(u.group, u.ring, {inv_idx: c})


def conjugation_endo(u: GroupRingElement) -> RingEndomorphism:
    """Conjugation ``g -> u^{-1} g u`` by a unit of RG.

    Over a field the inverse is computed by the linear solver. Over Z only
    trivial units ``+-g`` are recognized directly, with a fallback accepting
    any element whose rational inverse happens to be integral.
    """
    group, ring = u.group, u.ring
    if ring.is_field:
        u_inv = invert(u)
        if u_inv is None:
            raise NotAUnit("element is not invertible")
    elif ring == ZZ:
        u_inv = _trivial_unit_inverse(u)
        if u_inv is None:
            rational_inverse = invert(u.to_ring(QQ))
            if rational_inverse is None or any(
                v.denominator != 1 for v in rational_inverse.coeffs
            ):
                raise NotAUnit("element is not a unit of ZG")
            u_inv = rational_inverse.to_ring(ZZ)
    else:
        raise NotAUnit(f"unsupported ring {ring} for conjugation")
    group_map = None
    if len(u.support) == 1 and u.coeffs[u.support[0]] in (1, -1):
        g = u.support[0]
        g_inv = group.inverse(g)
        group_map = [group.table[group.table[g_inv][i]][g] for i in range(group.order)]
        images = [GroupRingElement.basis(group, ring, group_map[i]) for i in range(group.order)]
    else:
        images = [u_inv * GroupRingElement.basis(group, ring, i) * u for i in range(group.order)]
    return RingEndomorphism(group, ring, images, group_map=group_map, _validated=True)


def is_central_endo(phi: RingEndomorphism) -> bool:
    """True iff phi fixes every class sum (hence the whole center) pointwise."""
    for class_sum in center_basis(phi.group, phi.ring):
        if phi.apply(class_sum) != class_sum:
            return False
    return True


def commutator_span_system(group: FiniteGroup, ring: Ring) -> LinearSystem:
    """Echelonized span of all basis commutators ``gh - hg`` over a field."""
    if not ring.is_field:
        raise NotAField(f"commutator subspace requires a field, got {ring}")
    n = group.order
    table = group.table
    system = LinearSystem(n, ring)
    one = ring.one
    for i in range(n):
        for j in range(i + 1, n):
            a, b = table[i][j], table[j][i]
            if a != b:
                system.add_row({a: one, b: -one})
    return system


def commutator_subspace(group: FiniteGroup, ring: Ring) -> list[GroupRingElement]:
    """Canonical basis of span{ab - ba}; dimension ``|G| - #classes``."""
    system = commutator_span_system(group, ring)
    return [
        GroupRingElement(group, ring, vec, _normalized=True)
        for vec in system.span_basis()
    ]
