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

from .derivations import (
    DerivationMap,
    _check_same_pair,
    _witness_rows,
    inner_derivation,
    is_derivation,  # noqa: F401  (not called here; perfbench/tracer.py wraps this name)
)
from .errors import (
    AbelianBase,
    CentralChoice,
    DifferenceNotAUnit,
    NotAbelian,
    NotAField,
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
from .groups import FiniteGroup, center, conjugacy_classes, direct_product
from .linalg import LinearSystem
from .rings import QQ, Ring
from .util import DEFAULT_SEED, CancelToken, check_cancel

UNIT_SEARCH_DRAWS = 200
TRUNCATION_MAX_ORDER = 512


def commutative_derivation_form(
    sigma: RingEndomorphism,
    tau: RingEndomorphism,
    b: GroupRingElement,
    delta: DerivationMap,
    *,
    cancel: CancelToken | None = None,
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
        check_cancel(cancel)
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

    @property
    def witness_sum(self) -> GroupRingElement:
        total = self.witnesses[0]
        for w in self.witnesses[1:]:
            total = total + w
        return total

    def embedded_indices(self, sublevel: int) -> tuple[int, ...]:
        """Indices of the embedded ``H^sublevel`` (remaining factors identity)."""
        if not 0 <= sublevel <= self.level:
            raise ValueError("sublevel out of range")
        stride = self.base.order ** (self.level - sublevel)
        return tuple(q * stride for q in range(self.base.order**sublevel))


def build_truncation(
    base: FiniteGroup,
    sigma1,
    level: int,
    x_choices=None,
    *,
    ring: Ring = QQ,
    max_order: int = TRUNCATION_MAX_ORDER,
    cancel: CancelToken | None = None,
) -> TruncationBundle:
    """Assemble ``H^level`` with componentwise twist and the tower derivation.

    ``sigma1`` is a class-preserving automorphism of the non-abelian base ``H``
    given as an index map; ``x_choices`` picks one non-central base element
    per factor (default: the least-index non-central element). The derivation
    is the inner derivation of the sum of the embedded choices, so it is a
    derivation by construction and is not checked again here; the
    verification suite checks it with :func:`is_derivation`.
    """
    if base.is_abelian:
        raise AbelianBase("base group must be non-abelian")
    if not class_preserving_check(base, sigma1):
        raise NotClassPreserving("automorphism moves a conjugacy class")
    if level < 1:
        raise OrderCapExceeded("level must be at least 1")
    if level * math.log(base.order) > math.log(max_order) + 1e-9:
        raise OrderCapExceeded(
            f"level {level} exceeds the truncation cap ({base.order}^{level} > {max_order})"
        )
    order = base.order**level

    central = set(center(base).members)
    if x_choices is None:
        default_x = next(i for i in range(base.order) if i not in central)
        x_choices = [default_x] * level
    else:
        x_choices = [int(v) for v in x_choices]
        if len(x_choices) != level:
            raise ValueError("need one witness choice per factor")
    for x in x_choices:
        if x in central:
            raise CentralChoice(f"element {base.label(x)} is central in the base")

    group = base
    for _ in range(level - 1):
        check_cancel(cancel)
        group = direct_product(group, base)

    f1 = [int(v) for v in sigma1]
    h = base.order
    digits_weight = [h ** (level - 1 - f) for f in range(level)]

    def map_index(g: int) -> int:
        out = 0
        for w in digits_weight:
            d = g // w % h
            out += f1[d] * w
        return out

    sigma_map = [map_index(g) for g in range(order)]
    sigma = endo_from_group_map(group, ring, sigma_map)
    tau = identity_endo(group, ring)

    witness_indices = tuple(
        x_choices[f] * digits_weight[f] for f in range(level)
    )
    witnesses = tuple(
        GroupRingElement.basis(group, ring, idx) for idx in witness_indices
    )
    total = witnesses[0]
    for w in witnesses[1:]:
        total = total + w
    delta = inner_derivation(total, sigma, tau)
    return TruncationBundle(
        base=base,
        level=level,
        group=group,
        ring=ring,
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
    *,
    cancel: CancelToken | None = None,
) -> GroupRingElement | None:
    """Witness for ``d = d_alpha`` constrained to ``alpha_i = 0`` outside ``support``.

    Solves the same witness system as the unconstrained search with the
    disallowed coordinates pinned to zero; returns a supported witness or
    None when the constrained affine system is infeasible.
    """
    ring = sigma.ring
    if not ring.is_field:
        raise NotAField(f"support-constrained witness requires a field, got {ring}")
    _check_same_pair(delta, sigma, tau)
    allowed = sorted(set(int(i) for i in support))
    position = {h: pos for pos, h in enumerate(allowed)}
    group = sigma.group
    system = LinearSystem(len(allowed), ring, augmented=True)
    for i, k, row in _witness_rows(sigma, tau):
        check_cancel(cancel)
        restricted = {position[h]: v for h, v in row.items() if h in position}
        system.add_row(restricted, delta.images[i].coeffs[k])
        if not system.consistent:
            return None
    solution = system.particular_solution()
    if solution is None:
        return None
    vec = [ring.zero] * group.order
    for pos, h in enumerate(allowed):
        vec[h] = solution[pos]
    return GroupRingElement(group, ring, vec, _normalized=True)
