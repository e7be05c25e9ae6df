"""(sigma, tau)-twisted derivations of group rings.

A twisted derivation is determined by its images on the group basis, subject
to the Leibniz rule ``d(ab) = d(a) tau(b) + sigma(a) d(b)``. Over a field the
full derivation space is the kernel of the Leibniz system in the unknowns
``d(g)`` for non-identity ``g`` (the identity image is pinned to zero), the
inner derivations are the image of ``x -> x tau(.) - sigma(.) x``, and the
first Hochschild cohomology dimension is their difference. Over Z innerness
is decided two independent ways: an integral witness via Smith normal form,
and a per-equation gcd divisibility test; the two act as mutual oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    MixedGroups,
    MixedRings,
    NotADerivation,
    NotAField,
    NotAUnit,
    NotAWitness,
    NotCentral,
)
from .group_ring import (
    GroupRingElement,
    RingEndomorphism,
    commutator_span_system,
    invert,
    is_central_endo,
    linear_extension,
)
from .groups import FiniteGroup
from .linalg import ExactMatrix, LinearSystem, integer_solve
from .rings import QQ, ZZ, Ring, Scalar
from .util import CancelToken, check_cancel


class DerivationMap:
    """A (sigma, tau)-derivation of RG given by basis images, tied to its pair.

    The constructor raises NotADerivation unless :func:`is_derivation` holds,
    so solvers need not check again. Producers that are derivations by
    construction (inner maps, solver bases, +, -, scale, to_ring) skip it.
    """

    __slots__ = ("group", "ring", "sigma", "tau", "images")

    def __init__(self, group, ring, sigma, tau, images, *, cancel: CancelToken | None = None, _validated: bool = False):
        self.group = group
        self.ring = ring
        self.sigma = sigma
        self.tau = tau
        self.images = tuple(images)
        if not _validated:
            if not group.same_group(sigma.group) or ring != sigma.ring:
                raise ValueError("a derivation lives on the group and ring of its sigma")
            if not is_derivation(self.images, sigma, tau, cancel=cancel):
                raise NotADerivation("images violate d(1) = 0 or the Leibniz rule")

    def apply(self, element: GroupRingElement) -> GroupRingElement:
        """Evaluate the linear extension on an arbitrary element."""
        return linear_extension(self.group, self.ring, self.images, element)

    def as_vector(self) -> list[Scalar]:
        """Flatten images of non-identity basis elements into one vector."""
        out = []
        for img in self.images[1:]:
            out.extend(img.coeffs)
        return out

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
        return (
            self.ring == other.ring
            and self.group.same_group(other.group)
            and all(a == b for a, b in zip(self.images, other.images))
        )

    __hash__ = None

    def __repr__(self) -> str:
        nonzero = sum(1 for img in self.images if not img.is_zero)
        return f"DerivationMap({nonzero} nonzero images of {self.group.order})"


@dataclass(frozen=True)
class DerivationSpace:
    """Full derivation space over a field, its inner subspace, and h1."""

    group: FiniteGroup
    ring: Ring
    sigma: RingEndomorphism
    tau: RingEndomorphism
    basis: tuple[DerivationMap, ...]
    inner_basis: tuple[DerivationMap, ...]
    h1_dimension: int


def _check_endo_pair(sigma: RingEndomorphism, tau: RingEndomorphism) -> None:
    if not sigma.group.same_group(tau.group):
        raise MixedGroups("sigma and tau act on different groups")
    if sigma.ring != tau.ring:
        raise MixedRings(f"sigma ring {sigma.ring} != tau ring {tau.ring}")


def _check_same_pair(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism) -> None:
    """Raise ValueError unless ``(sigma, tau)`` is the pair ``delta`` was built for."""
    if not (delta.sigma is sigma or delta.sigma == sigma) or not (delta.tau is tau or delta.tau == tau):
        raise ValueError("derivation is twisted by a different endomorphism pair")


def is_derivation(images, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> bool:
    """Check ``d(1) = 0`` and the twisted Leibniz rule on the pairs ``(g, s)``.

    Here ``g`` runs over the group and ``s`` over its generators. With
    ``d(1) = 0`` that suffices by induction on word length:
    ``d(g w s) = d(g w) tau(s) + sigma(g w) d(s)
    = d(g) tau(w s) + sigma(g) (d(w) tau(s) + sigma(w) d(s))``, and the
    bracket is ``d(w s)``. The argument holds over Z, Q and F_p alike.
    """
    if isinstance(images, DerivationMap):
        images = images.images
    images = list(images)
    _check_endo_pair(sigma, tau)
    if len(images) != sigma.group.order:
        raise ValueError("need one candidate image per group basis element")
    for img in images:
        if not img.group.same_group(sigma.group):
            raise MixedGroups("candidate image belongs to a different group")
        if img.ring != sigma.ring:
            raise MixedRings(f"image ring {img.ring} != {sigma.ring}")
    if not images[0].is_zero:
        return False
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
            check_cancel(cancel)
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


def derivation_from_images(images, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> DerivationMap:
    """The derivation with these basis images; raises NotADerivation when Leibniz fails."""
    if isinstance(images, DerivationMap):
        images = images.images
    return DerivationMap(sigma.group, sigma.ring, sigma, tau, images, cancel=cancel)


def inner_derivation(x: GroupRingElement, sigma: RingEndomorphism, tau: RingEndomorphism) -> DerivationMap:
    """The inner derivation ``a -> x tau(a) - sigma(a) x``."""
    _check_endo_pair(sigma, tau)
    if not x.group.same_group(sigma.group):
        raise MixedGroups("witness belongs to a different group")
    if x.ring != sigma.ring:
        raise MixedRings(f"witness ring {x.ring} != {sigma.ring}")
    images = [x * tau.images[i] - sigma.images[i] * x for i in range(sigma.group.order)]
    return DerivationMap(sigma.group, sigma.ring, sigma, tau, images, _validated=True)


def _require_field(ring: Ring) -> None:
    if not ring.is_field:
        raise NotAField(f"operation requires field coefficients, got {ring}")


def _flat_nonzeros(images, n: int) -> dict[int, Scalar]:
    out: dict[int, Scalar] = {}
    for i in range(1, n):
        img = images[i]
        base = (i - 1) * n
        for k in img.support:
            out[base + k] = img.coeffs[k]
    return out


def _maps_from_vectors(vectors, sigma, tau) -> list[DerivationMap]:
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
    return maps


def derivation_space(sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> DerivationSpace:
    """Solve the Leibniz system over a field.

    The unknowns are the images ``d(g)`` of the non-identity basis elements,
    and the rows are the Leibniz rule on the pairs ``(g, s)`` with ``s`` a
    generator, which has the same solutions as all pairs (see
    :func:`is_derivation`). The kernel basis comes back in the canonical
    reduced-echelon order, so it does not depend on which rows were added.
    """
    _check_endo_pair(sigma, tau)
    ring = sigma.ring
    _require_field(ring)
    group = sigma.group
    n = group.order
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    system = LinearSystem(n * (n - 1), ring)
    one = ring.one
    for j in group.generators():
        tj = tau.images[j]
        base_j = (j - 1) * n
        for i in range(1, n):
            check_cancel(cancel)
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
    inner = inner_space(sigma, tau)
    return DerivationSpace(
        group=group,
        ring=ring,
        sigma=sigma,
        tau=tau,
        basis=tuple(basis),
        inner_basis=tuple(inner),
        h1_dimension=len(basis) - len(inner),
    )


def inner_space(sigma: RingEndomorphism, tau: RingEndomorphism) -> list[DerivationMap]:
    """Canonical basis of the space of inner derivations ``x -> d_x``."""
    _check_endo_pair(sigma, tau)
    ring = sigma.ring
    _require_field(ring)
    group = sigma.group
    n = group.order
    system = LinearSystem(n * (n - 1), ring)
    for c in range(n):
        d = inner_derivation(GroupRingElement.basis(group, ring, c), sigma, tau)
        row = _flat_nonzeros(d.images, n)
        if row:
            system.add_row(row)
    return _maps_from_vectors(system.span_basis(), sigma, tau)


def _witness_rows(sigma: RingEndomorphism, tau: RingEndomorphism):
    """Rows of the witness system ``alpha tau(s) - sigma(s) alpha = d(s)``, ``s`` a generator.

    Yields ``(i, k, row)`` where ``row`` maps the coordinate of ``alpha_h``
    to ``tau(g_i)_{h^-1 x} - sigma(g_i)_{x h^-1}`` at ``x = g_k``. For a
    derivation ``d`` this has the same solutions as the system over every
    ``g``: ``d - d_alpha`` is a derivation, and one vanishing on the
    generators vanishes everywhere by the Leibniz rule.
    """
    group = sigma.group
    n = group.order
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    for i in group.generators():
        ti = tau.images[i]
        si = sigma.images[i]
        for k in range(n):
            row: dict[int, Scalar] = {}
            row_k = table[k]
            for s in ti.support:
                h = row_k[inv[s]]
                row[h] = row.get(h, 0) + ti.coeffs[s]
            for s in si.support:
                h = table[inv[s]][k]
                row[h] = row.get(h, 0) - si.coeffs[s]
            yield i, k, row


def twisted_centralizer(sigma: RingEndomorphism, tau: RingEndomorphism) -> list[GroupRingElement]:
    """Basis of ``{y : y tau(g) = sigma(g) y for all g}`` over a field.

    This is exactly the kernel of ``x -> d_x``, so its dimension complements
    the inner-derivation dimension.
    """
    _check_endo_pair(sigma, tau)
    ring = sigma.ring
    _require_field(ring)
    group = sigma.group
    system = LinearSystem(group.order, ring)
    for _i, _k, row in _witness_rows(sigma, tau):
        if row:
            system.add_row(row)
    return [
        GroupRingElement(group, ring, vec, _normalized=True)
        for vec in system.kernel_basis()
    ]


def h1_dimension(sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> int:
    """dim(derivation space) - dim(inner subspace) over a field."""
    return derivation_space(sigma, tau, cancel=cancel).h1_dimension


def inner_witness(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> GroupRingElement | None:
    """Some ``alpha`` with ``d = d_alpha`` over a field, or None.

    The returned representative is canonical: free coordinates of the witness
    system are set to zero under the reduced-echelon pivot order.
    """
    ring = sigma.ring
    _require_field(ring)
    _check_same_pair(delta, sigma, tau)
    group = sigma.group
    system = LinearSystem(group.order, ring, augmented=True)
    for i, k, row in _witness_rows(sigma, tau):
        check_cancel(cancel)
        system.add_row(row, delta.images[i].coeffs[k])
        if not system.consistent:
            return None
    solution = system.particular_solution()
    if solution is None:
        return None
    return GroupRingElement(group, ring, solution, _normalized=True)


def inner_witness_integer(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> GroupRingElement | None:
    """Integer witness for innerness over Z, decided by Smith normal form.

    Builds the stacked system column-by-column from actual group-ring
    products (a code path independent of :func:`gcd_criterion`), with one
    block of rows per generator as in :func:`_witness_rows`.
    """
    if sigma.ring != ZZ:
        raise MixedRings(f"integer witness requires Z coefficients, got {sigma.ring}")
    _check_same_pair(delta, sigma, tau)
    group = sigma.group
    n = group.order
    gens = group.generators()
    columns = []
    for h in range(n):
        basis_h = GroupRingElement.basis(group, ZZ, h)
        columns.append([basis_h * tau.images[i] - sigma.images[i] * basis_h for i in gens])
    rows = []
    rhs = []
    for pos, i in enumerate(gens):
        for k in range(n):
            rows.append([columns[h][pos].coeffs[k] for h in range(n)])
            rhs.append(delta.images[i].coeffs[k])
    solution = integer_solve(ExactMatrix(ZZ, rows), rhs, cancel=cancel)
    if solution is None:
        return None
    return GroupRingElement(group, ZZ, solution, _normalized=True)


def gcd_criterion(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> bool:
    """Per-coefficient divisibility test for innerness over Z.

    It reads every row, not only the generator rows the witness solvers
    use, so that it stays an oracle independent of them. For every pair
    ``(g, x)`` the row coefficients are
    ``tau(g)_{h^-1 x} - sigma(g)_{x h^-1}`` as ``h`` runs over the group;
    the test asks that their gcd divide the coefficient of ``x`` in ``d(g)``,
    with the convention that 0 divides only 0. The coefficients are read
    directly off the endomorphism images, not through the witness solver.
    """
    if sigma.ring != ZZ:
        raise MixedRings(f"gcd criterion requires Z coefficients, got {sigma.ring}")
    _check_same_pair(delta, sigma, tau)
    group = sigma.group
    n = group.order
    table = group.table
    inv = [group.inverse(i) for i in range(n)]
    for i in range(n):
        check_cancel(cancel)
        c_coeffs = tau.images[i].coeffs
        b_coeffs = sigma.images[i].coeffs
        m_coeffs = delta.images[i].coeffs
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
            m = m_coeffs[x]
            if g == 0:
                if m != 0:
                    return False
            elif m % g:
                return False
    return True


def extend_scalars(delta: DerivationMap, sigma: RingEndomorphism, tau: RingEndomorphism, *, cancel: CancelToken | None = None) -> DerivationMap:
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
    *,
    cancel: CancelToken | None = None,
) -> bool:
    """Check ``d(g) = alpha (u tau(g) u^-1 - sigma(g))  mod [QG, QG]`` basiswise.

    ``u`` must be a unit and ``alpha`` an inner witness for ``delta``; both
    are verified before the congruence itself is tested.
    """
    ring = sigma.ring
    _require_field(ring)
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
        check_cancel(cancel)
        twisted = u * tau.images[i] * u_inv - sigma.images[i]
        defect = delta.images[i] - alpha * twisted
        if not span.contains(defect.coeffs):
            return False
    return True
