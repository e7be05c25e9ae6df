"""Constructive set pieces: commutative closed form and product-tower derivations.

The product tower takes a non-abelian base group H with a class-preserving
automorphism, forms ``G_n = H^n`` with the componentwise automorphism, and
equips it with the inner derivation induced by one embedded non-central
element per factor (with ``tau = id``). At every finite level the derivation
is inner, but no witness supported inside the embedded ``G_{n-1}`` exists
once ``n >= 2``; the support-constrained witness solver exhibits that.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .derivations import (
    DerivationMap,
    _canonical_witness,
    _check_same_pair,
    inner_derivation,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
    is_derivation,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
)
from .errors import (
    AbelianBase,
    CentralChoice,
    DifferenceNotAUnit,
    NotAbelian,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotClassPreserving,
    OrderCapExceeded,
)
from .group_ring import (
    GroupRingElement,
    RingEndomorphism,
    endo_from_group_map,
    identity_endo,
    invert,
)
from .groups import FiniteGroup, center, conjugacy_classes, direct_product, max_group_order
from .rings import QQ, Ring
from .util import DEFAULT_SEED, _LruCache, check_cancel

UNIT_SEARCH_DRAWS = 200
TRUNCATION_MAX_ORDER = 512

# H^level for each (base, its labels, its name, level): every request for one tower gets one group object.
_TOWERS = _LruCache()


def commutative_derivation_form(
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    b: GroupRingElement,
    delta: DerivationMap,
) -> bool:
    """Verify ``d = (tau(b) - sigma(b))^-1 d(b) (tau - sigma)`` on every basis element.

    Requires an abelian group and an invertible difference ``tau(b) - sigma(b)``.
    """
    group = sigma.group
    if not group.is_abelian:
        raise NotAbelian("closed form applies to abelian groups only")
    _check_same_pair(delta, sigma, tau)
    diff = tau.apply(b) - sigma.apply(b)
    diff_inv = invert(diff)
    if diff_inv is None:
        raise DifferenceNotAUnit("tau(b) - sigma(b) is not invertible")
    factor = diff_inv * delta.apply(b)
    for i in range(group.order):
        check_cancel()
        expected = factor * (tau.images[i] - sigma.images[i])
        if delta.images[i] != expected:
            return False
    return True


def find_unit_difference(
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    *,
    seed: int = DEFAULT_SEED,
    draws: int = UNIT_SEARCH_DRAWS,
) -> GroupRingElement | None:
    """Search for ``b`` with ``tau(b) - sigma(b)`` invertible.

    Scans the group basis first, then ``draws`` pseudorandom combinations
    with coefficients in ``[-2, 2]`` from the given seed. ``None`` means
    "not found within the budget", not a proof of nonexistence.
    """
    group, ring = sigma.group, sigma.ring
    if not group.is_abelian:
        raise NotAbelian("unit-difference search applies to abelian groups only")
    for i in range(group.order):
        b = GroupRingElement.basis(group, ring, i)
        if invert(tau.images[i] - sigma.images[i]) is not None:
            return b
    rng = random.Random(seed)
    n = group.order
    for _ in range(draws):
        coeffs = [rng.randint(-2, 2) for _ in range(n)]
        b = GroupRingElement(group, ring, coeffs)
        if invert(tau.apply(b) - sigma.apply(b)) is not None:
            return b
    return None


def class_preserving_check(group: FiniteGroup, mapping) -> bool:
    """True iff the automorphism maps every conjugacy class onto itself."""
    try:
        f = endo_from_group_map(group, QQ, mapping).group_map
    except NotAHomomorphism as exc:
        raise NotAnAutomorphism(str(exc)) from exc
    if len(set(f)) != group.order:
        raise NotAnAutomorphism("index map is not a bijection")
    for cls in conjugacy_classes(group):
        members = set(cls.members)
        if {f[x] for x in members} != members:
            return False
    return True


@dataclass(frozen=True)
class TruncationBundle:
    """Level-n product group with its componentwise twist and derivation."""

    base: FiniteGroup
    level: int
    group: FiniteGroup
    ring: Ring
    sigma: RingEndomorphism
    tau: RingEndomorphism
    delta: DerivationMap
    witnesses: tuple[GroupRingElement, ...]
    witness_indices: tuple[int, ...]

    def embedded_indices(self, sublevel: int) -> tuple[int, ...]:
        """Indices of the embedded ``H^sublevel`` (remaining factors identity)."""
        if type(sublevel) is not int or not 0 <= sublevel <= self.level:
            raise ValueError(f"sublevel {sublevel!r} is not an int in [0, {self.level}]")
        stride = self.base.order ** (self.level - sublevel)
        return tuple(q * stride for q in range(self.base.order**sublevel))


def build_truncation(
    base: FiniteGroup,
    sigma1,
    level: int,
    x_choices=None,
) -> TruncationBundle:
    """Assemble ``H^level`` with componentwise twist and the tower derivation.

    ``sigma1`` is a class-preserving automorphism of the non-abelian base ``H``
    given as an iterable of plain ``int`` indices, and ``level`` is a plain
    ``int`` (not a bool); ValueError otherwise. ``x_choices`` picks one
    non-central base element per factor (default: the least-index
    non-central element). The derivation
    is the inner derivation of the sum ``w`` of the embedded choices, read
    off the table by index as ``d(g) = sum_f (w_f g - sigma(g) w_f)``
    (``tau`` is the identity), so it is a derivation by construction and is
    not checked again here; the verification suite checks it with
    :func:`is_derivation` and against the products of
    :func:`inner_derivation`. The bundle is over ``QQ`` and its order is
    capped at ``TRUNCATION_MAX_ORDER`` and at :func:`max_group_order`.
    ``H^level`` is built once per base table, labels, name and level and
    kept in a bounded cache, so repeated calls return the same group
    object, with its structure and hash already computed. The maps are
    built on every call: ``sigma`` and ``tau`` take their images from the
    group's shared basis elements, and ``delta`` is a new object each time.
    """
    if type(level) is not int:
        raise ValueError(f"level {level!r} is not an int")
    if base.is_abelian:
        raise AbelianBase("base group must be non-abelian")
    sigma1 = list(sigma1)
    if not class_preserving_check(base, sigma1):
        raise NotClassPreserving("automorphism moves a conjugacy class")
    if level < 1:
        raise OrderCapExceeded("level must be at least 1")
    if level * math.log(base.order) > math.log(TRUNCATION_MAX_ORDER) + 1e-9:
        raise OrderCapExceeded(
            f"level {level} exceeds the truncation cap"
            f" ({base.order}^{level} > {TRUNCATION_MAX_ORDER})"
        )
    order = base.order**level

    central = set(center(base).members)
    if x_choices is None:
        default_x = next(i for i in range(base.order) if i not in central)
        x_choices = [default_x] * level
    else:
        x_choices = _indices(x_choices, base.order, "witness choice")
        if len(x_choices) != level:
            raise ValueError("need one witness choice per factor")
    for x in x_choices:
        if x in central:
            raise CentralChoice(f"element {base.label(x)} is central in the base")

    # Read the cap before the lookup: a tower already built runs no direct_product to check it.
    cap = max_group_order()
    if order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")
    key = (base, base.labels, base.name, level)
    group = _TOWERS.get(key)
    if group is None:
        group = base
        for _ in range(level - 1):
            check_cancel()
            group = direct_product(group, base)
        _TOWERS.put(key, group, base.order**2, group)  # the key holds the base's table

    h = base.order
    digits_weight = [h ** (level - 1 - f) for f in range(level)]

    def map_index(g: int) -> int:
        out = 0
        for w in digits_weight:
            d = g // w % h
            out += sigma1[d] * w
        return out

    sigma_map = [map_index(g) for g in range(order)]
    sigma = endo_from_group_map(group, QQ, sigma_map)
    tau = identity_endo(group, QQ)

    witness_indices = tuple(
        x_choices[f] * digits_weight[f] for f in range(level)
    )
    witnesses = tuple(
        GroupRingElement.basis(group, QQ, idx) for idx in witness_indices
    )
    # tau = id and every w_f is a basis element, so d_w(g) = sum_f (w_f g - sigma(g) w_f):
    # each coefficient is a count in [-level, level], written into the image's vector in place.
    table = group.table
    scalars = {v: Fraction(v) for v in range(-level, level + 1)}
    zero = QQ.zero
    images = []
    for g in range(order):
        row_s = table[sigma_map[g]]
        counts: dict[int, int] = {}
        for w in witness_indices:
            k = table[w][g]
            counts[k] = counts.get(k, 0) + 1
            k = row_s[w]
            counts[k] = counts.get(k, 0) - 1
        vec = [zero] * order
        support = []
        for k, v in counts.items():
            if v:
                vec[k] = scalars[v]
                support.append(k)
        support.sort()
        images.append(GroupRingElement(group, QQ, vec, _support=tuple(support)))
    delta = DerivationMap(group, QQ, sigma, tau, images, _validated=True)
    return TruncationBundle(
        base=base,
        level=level,
        group=group,
        ring=QQ,
        sigma=sigma,
        tau=tau,
        delta=delta,
        witnesses=witnesses,
        witness_indices=witness_indices,
    )


def inner_witness_with_support(
    delta: DerivationMap,
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    support,
) -> GroupRingElement | None:
    """Witness for ``d = d_alpha`` constrained to ``alpha_i = 0`` outside ``support``.

    The answer is that of the witness system with the disallowed
    coordinates pinned to zero: a supported witness, canonical in the same
    sense as :func:`inner_witness`, or None when the constrained affine
    system is infeasible. When the characteristic does not divide ``|G|``
    it is decided by a system with one unknown per twisted-centralizer
    basis vector, read from the pair's cached elimination; otherwise the
    pinned system is solved (see :func:`derivations._canonical_witness`).
    """
    _check_same_pair(delta, sigma, tau)
    allowed = sorted(set(_indices(support, sigma.group.order, "support")))
    return _canonical_witness(delta, sigma, tau, allowed)


def _indices(values, order: int, what: str) -> list[int]:
    """``values`` as a list; ValueError unless each is an ``int`` (not a bool) in ``[0, order)``."""
    values = list(values)
    for v in values:
        if type(v) is not int or not 0 <= v < order:
            raise ValueError(f"{what} index {v!r} is not an int in [0, {order})")
    return values
