"""Finite groups as validated Cayley tables.

Element 0 is always the identity. Standard constructions use the fixed,
documented orderings below; all reported values elsewhere in the library are
stated relative to them.

* ``C_n``: powers ``e, g, g^2, ...`` of one generator.
* ``S3``/``D4`` (dihedral of order 2m): ``r^a s^b`` at index ``a + m*b``.
* ``Q8``: ``1, -1, i, -i, j, -j, k, -k``.
* ``A4``: even permutations of four points in lexicographic order.
* ``C2xC2``: direct product of two copies of ``C2``.
* Direct products index ``(x, y)`` as ``x * |G2| + y``.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .errors import NotAGroup, OrderCapExceeded, UnknownGroupName
from .util import CancelToken, check_cancel

DEFAULT_MAX_ORDER = 4096
_ENV_MAX_ORDER = "GRPDER_MAX_ORDER"


def max_group_order() -> int:
    """Group-order cap; override with the GRPDER_MAX_ORDER environment variable."""
    raw = os.environ.get(_ENV_MAX_ORDER)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_ORDER} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_ENV_MAX_ORDER} must be positive")
    return value


class FiniteGroup:
    """Order-n group given by its Cayley table; immutable after construction.

    ``table[i][j]`` is the index of ``g_i * g_j``. Groups are compared by
    table identity only; no isomorphism testing is provided.
    """

    __slots__ = (
        "order", "table", "labels", "name",
        "_inverse", "_center", "_classes", "_abelian", "_generators",
    )

    def __init__(self, table, labels=None, name: str | None = None, *, _validated: bool = False):
        rows = tuple(tuple(int(v) for v in row) for row in table)
        self.order = len(rows)
        self.table = rows
        self.labels = tuple(str(s) for s in labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise ValueError("labels length does not match group order")
        self.name = name
        self._inverse: tuple[int, ...] | None = None
        self._center: tuple[int, ...] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._abelian: bool | None = None
        self._generators: tuple[int, ...] | None = None
        if not _validated:
            self.validate()

    # -- axioms ---------------------------------------------------------

    def validate(self, cancel: CancelToken | None = None) -> None:
        """Re-assert all four group axioms on the stored table.

        Associativity is checked by Light's test: ``(x s) y = x (s y)`` for
        all ``x, y`` and every ``s`` in :meth:`generators`. The elements
        ``m`` with ``(x m) y = x (m y)`` for all ``x, y`` are closed under
        the product, so holding on a generating set means holding everywhere.
        """
        n = self.order
        if n == 0:
            raise NotAGroup("not-latin", "empty table")
        table = self.table
        for i, row in enumerate(table):
            if len(row) != n:
                raise NotAGroup("not-latin", f"row {i} has length {len(row)}")
            for v in row:
                if not 0 <= v < n:
                    raise NotAGroup("not-latin", f"entry {v} out of range in row {i}")
        for j in range(n):
            if table[0][j] != j:
                raise NotAGroup("no-identity-at-0", f"table[0][{j}] = {table[0][j]}")
        for i in range(n):
            if table[i][0] != i:
                raise NotAGroup("no-identity-at-0", f"table[{i}][0] = {table[i][0]}")
        full = frozenset(range(n))
        for i in range(n):
            if frozenset(table[i]) != full:
                raise NotAGroup("not-latin", f"row {i} repeats a value")
        for j in range(n):
            if frozenset(table[i][j] for i in range(n)) != full:
                raise NotAGroup("not-latin", f"column {j} repeats a value")
        for j in self.generators():
            row_j = table[j]
            for i in range(n):
                check_cancel(cancel)
                row_i = table[i]
                row_ij = table[row_i[j]]
                for k in range(n):
                    if row_ij[k] != row_i[row_j[k]]:
                        raise NotAGroup(
                            "not-associative", f"(g{i}*g{j})*g{k} != g{i}*(g{j}*g{k})"
                        )
        for i in range(n):
            if 0 not in table[i]:
                raise NotAGroup("no-inverse", f"element {i} has no inverse")

    def generators(self) -> tuple[int, ...]:
        """A generating set, ascending; cached.

        Greedy: take the least index not yet reached, then drop any chosen
        element the others already reach. Reaching means right
        multiplication from the identity, which for a group is the generated
        subgroup and for any table with identity the generated submagma, so
        :meth:`validate` may rely on it before associativity is known. Direct
        products are seeded with the embedded factor generators instead.
        """
        if self._generators is None:
            chosen: list[int] = []
            reached = {0}
            for i in range(1, self.order):
                if i not in reached:
                    chosen.append(i)
                    reached = self._reached(chosen)
            for s in list(chosen):
                rest = [t for t in chosen if t != s]
                if len(self._reached(rest)) == self.order:
                    chosen = rest
            self._generators = tuple(chosen)
        return self._generators

    def _reached(self, gens) -> set[int]:
        """Elements reached from the identity by right multiplication by ``gens``."""
        table = self.table
        seen = {0}
        stack = [0]
        while stack:
            row = table[stack.pop()]
            for s in gens:
                y = row[s]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    # -- basic operations ------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        if self._inverse is None:
            self._inverse = tuple(row.index(0) for row in self.table)
        return self._inverse[i]

    def conjugate(self, g: int, x: int) -> int:
        """g^{-1} x g."""
        return self.table[self.table[self.inverse(g)][x]][g]

    def element_order(self, i: int) -> int:
        k, acc = 1, i
        while acc != 0:
            acc = self.table[acc][i]
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            n = self.order
            self._abelian = all(t[i][j] == t[j][i] for i in range(n) for j in range(i + 1, n))
        return self._abelian

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"g{i}"

    def index_of_label(self, text: str) -> int:
        if self.labels is None:
            raise ValueError("group has no labels")
        try:
            return self.labels.index(text)
        except ValueError as exc:
            raise ValueError(f"unknown element label {text!r}") from exc

    def same_group(self, other: "FiniteGroup") -> bool:
        return self is other or self.table == other.table

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        name = self.name or f"group-of-order-{self.order}"
        return f"FiniteGroup({name})"


@dataclass(frozen=True)
class Subset:
    """A sorted subset of element indices of a parent group."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = tuple(sorted(int(i) for i in self.members))
        if len(set(mem)) != len(mem):
            raise ValueError("subset members must be distinct")
        for i in mem:
            if not 0 <= i < self.parent.order:
                raise ValueError(f"subset member {i} out of range")
        object.__setattr__(self, "members", mem)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def make_from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Validate a Cayley table eagerly and wrap it as a FiniteGroup.

    This is the boundary for tables from outside the program: every row
    must be a list or tuple and every entry a plain ``int`` (not a bool, a
    float or a digit string), and labels, if given, must be a list of
    distinct strings; then the group axioms are checked.
    """
    rows = list(table)
    if len(rows) > max_group_order():
        raise OrderCapExceeded(f"order {len(rows)} exceeds cap {max_group_order()}")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise NotAGroup("not-latin", f"row {i} is not a list")
        for v in row:
            if type(v) is not int:
                raise NotAGroup("not-latin", f"entry {v!r} in row {i} is not an integer")
    if labels is not None and (
        not isinstance(labels, (list, tuple))
        or any(type(s) is not str for s in labels)
        or len(set(labels)) != len(labels)
    ):
        raise ValueError("labels must be a list of distinct strings")
    return FiniteGroup(rows, labels=labels, name=name)


def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FiniteGroup(table, labels=labels[:n], name=f"C{n}", _validated=True)


def _dihedral(m: int, name: str) -> FiniteGroup:
    # r^a s^b at index a + m*b with s r = r^{-1} s.
    n = 2 * m
    table = [[0] * n for _ in range(n)]
    for a1 in range(m):
        for b1 in (0, 1):
            i = a1 + m * b1
            for a2 in range(m):
                for b2 in (0, 1):
                    j = a2 + m * b2
                    a = (a1 + a2) % m if b1 == 0 else (a1 - a2) % m
                    b = b2 if b1 == 0 else 1 - b2
                    table[i][j] = a + m * b
    def lab(a, b):
        core = "" if a == 0 else ("r" if a == 1 else f"r{a}")
        tail = "s" if b else ""
        return (core + tail) or "e"
    labels = [lab(a, b) for b in (0, 1) for a in range(m)]
    return FiniteGroup(table, labels=labels, name=name, _validated=True)


def _quaternion() -> FiniteGroup:
    # index = 2*axis + sign with axes (1, i, j, k); sign 1 means negated.
    pos = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

    def axis_mul(a, b):
        if a == 0:
            return b, 0
        if b == 0:
            return a, 0
        if a == b:
            return 0, 1
        if (a, b) in pos:
            return pos[(a, b)], 0
        return pos[(b, a)], 1

    table = [[0] * 8 for _ in range(8)]
    for a1 in range(4):
        for s1 in (0, 1):
            for a2 in range(4):
                for s2 in (0, 1):
                    ax, s3 = axis_mul(a1, a2)
                    table[2 * a1 + s1][2 * a2 + s2] = 2 * ax + (s1 + s2 + s3) % 2
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, labels=labels, name="Q8", _validated=True)


def _cycle_label(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) or "e"


def _alternating4() -> FiniteGroup:
    from itertools import permutations

    def parity(p):
        inv = sum(1 for x in range(4) for y in range(x + 1, 4) if p[x] > p[y])
        return inv % 2

    perms = sorted(p for p in permutations(range(4)) if parity(p) == 0)
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(4))] for q in perms]
        for p in perms
    ]
    labels = [_cycle_label(p) for p in perms]
    return FiniteGroup(table, labels=labels, name="A4", _validated=True)


_CYCLIC_RE = re.compile(r"^C(\d+)$")


def standard_group(name: str) -> FiniteGroup:
    """Build one of the canonical fixture groups by name.

    Recognized names: ``C<n>`` for n >= 1, ``S3``, ``D4``, ``Q8``, ``A4``,
    ``C2xC2``.
    """
    m = _CYCLIC_RE.match(name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise UnknownGroupName(f"cyclic order must be >= 1, got {n}")
        if n > max_group_order():
            raise OrderCapExceeded(f"order {n} exceeds cap {max_group_order()}")
        return _cyclic(n)
    if name == "S3":
        return _dihedral(3, "S3")
    if name == "D4":
        return _dihedral(4, "D4")
    if name == "Q8":
        return _quaternion()
    if name == "A4":
        return _alternating4()
    if name == "C2xC2":
        product = direct_product(_cyclic(2), _cyclic(2))
        return FiniteGroup(product.table, labels=product.labels, name="C2xC2", _validated=True)
    raise UnknownGroupName(f"unknown group name {name!r}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Componentwise product; index of ``(x, y)`` is ``x * |G2| + y``.

    Inputs are already-validated groups, so the product table is a group by
    construction and is not re-validated (``validate()`` stays available).
    Its generators are the embedded generators of the two factors.
    """
    n1, n2 = g1.order, g2.order
    order = n1 * n2
    if order > max_group_order():
        raise OrderCapExceeded(f"order {order} exceeds cap {max_group_order()}")
    t1, t2 = g1.table, g2.table
    table = [[0] * order for _ in range(order)]
    for a1 in range(n1):
        for b1 in range(n2):
            i = a1 * n2 + b1
            row = table[i]
            ra, rb = t1[a1], t2[b1]
            for a2 in range(n1):
                base = ra[a2] * n2
                row_a2 = a2 * n2
                for b2 in range(n2):
                    row[row_a2 + b2] = base + rb[b2]
    labels = None
    if g1.labels is not None and g2.labels is not None:
        labels = [f"({g1.labels[a]},{g2.labels[b]})" for a in range(n1) for b in range(n2)]
    name = f"{g1.name}x{g2.name}" if g1.name and g2.name else None
    product = FiniteGroup(table, labels=labels, name=name, _validated=True)
    product._generators = g2.generators() + tuple(a * n2 for a in g1.generators())
    return product


def center(group: FiniteGroup) -> Subset:
    """Elements commuting with everything, as a sorted Subset."""
    if group._center is None:
        t = group.table
        n = group.order
        members = tuple(
            i for i in range(n) if all(t[i][j] == t[j][i] for j in range(n))
        )
        group._center = members
    return Subset(group, group._center)


def conjugacy_classes(group: FiniteGroup) -> list[Subset]:
    """Partition into conjugation orbits, classes ordered by least member."""
    if group._classes is None:
        n = group.order
        seen = [False] * n
        classes = []
        for x in range(n):
            if seen[x]:
                continue
            orbit = set()
            for g in range(n):
                y = group.conjugate(g, x)
                orbit.add(y)
            for y in orbit:
                seen[y] = True
            classes.append(tuple(sorted(orbit)))
        group._classes = tuple(classes)
    return [Subset(group, members) for members in group._classes]


def center_transversal(group: FiniteGroup) -> list[int]:
    """One least-index representative per coset of the center; identity's is 0."""
    z = center(group).members
    n = group.order
    seen = [False] * n
    reps = []
    for g in range(n):
        if seen[g]:
            continue
        reps.append(g)
        for c in z:
            seen[group.table[c][g]] = True
    return reps
