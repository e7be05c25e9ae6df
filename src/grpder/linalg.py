"""Exact linear algebra over Q, F_p and Z.

Field-side solving (kernels, particular solutions, span bases) goes through
:class:`LinearSystem`, an incremental sparse row-echelon accumulator. Over Q
every stored row is a primitive integer vector, and both forward
elimination and back-substitution are fraction-free (Bareiss): they run on
int numerators, and rationals only appear as one ``Fraction`` per entry of
the extracted reduced echelon form. One back-substitution loop serves Q and
F_p alike. Kernels (sparse from :meth:`LinearSystem.kernel`, or dense), span
bases and particular solutions are read off that form. Integer-side
solvability is decided by Smith normal form with tracked unimodular factors.

All outputs are canonical: the reduced row echelon form of a row space is
unique, so kernel bases, span bases and the particular solution with free
variables set to zero do not depend on row insertion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import NotAField
from .rings import ZZ, Ring, Scalar, require_same_ring
from .util import check_cancel


class ExactMatrix:
    """Dense row-major matrix with entries in a single exact ring.

    Producers whose rows are rectangular lists of ring elements by
    construction (the Smith factors, :meth:`matmul`, the integral witness
    matrix) pass ``_validated=True``; the rows are then kept as they are,
    without a copy or a coercion.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, entries, *, _validated: bool = False) -> None:
        rows = entries if _validated else [list(row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and one column")
        cols = len(rows[0])
        if not _validated:
            for row in rows:
                if len(row) != cols:
                    raise ValueError("ragged matrix rows")
            rows = [[ring.coerce(v) for v in row] for row in rows]
        self.ring = ring
        self.rows = len(rows)
        self.cols = cols
        self.entries = rows

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "ExactMatrix":
        return cls(ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)])

    def mul_vec(self, vector) -> list[Scalar]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vec = [self.ring.coerce(v) for v in vector]
        out = []
        for row in self.entries:
            acc = self.ring.zero
            for a, b in zip(row, vec):
                acc = acc + a * b
            out.append(self.ring.normalize(acc))
        return out

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        require_same_ring(self.ring, other.ring)
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.ring.zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(self.ring.normalize(acc))
            out.append(row)
        return ExactMatrix(self.ring, out, _validated=True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols})"


_INT = {int}


def _content_reduce(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


class LinearSystem:
    """Incremental sparse echelon accumulator over a field (Q or F_p).

    Rows are dicts ``column -> coefficient``. When constructed with
    ``augmented=True`` the right-hand side is carried in a virtual extra
    column, and a row reducing to "0 = nonzero" marks the system
    inconsistent.

    The constructor is the library's only check that the coefficients form
    a field: every field-only entry point builds its system before any
    other work, so over Z it raises NotAField from here.
    """

    def __init__(self, ncols: int, ring: Ring, *, augmented: bool = False) -> None:
        if not ring.is_field:
            raise NotAField(f"operation requires field coefficients, got {ring}")
        self.ncols = ncols
        self.ring = ring
        self._p = ring.characteristic  # 0 for Q
        self._aug = ncols if augmented else None
        self._pivots: dict[int, dict[int, int]] = {}
        self._consistent = True
        self._ints_cache: tuple[int, dict[int, dict[int, int]]] | None = None
        self._rref_cache: tuple[int, dict[int, dict[int, Scalar]]] | None = None

    @property
    def consistent(self) -> bool:
        return self._consistent

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, coeffs: dict[int, Scalar], rhs: Scalar = 0) -> None:
        row = self._prepare(coeffs, rhs)
        if row is None:
            return
        if self._p:
            self._insert_mod(row)
        else:
            self._insert_int(row)

    def _prepare(self, coeffs, rhs) -> dict[int, int] | None:
        p = self._p
        items = list(coeffs.items())
        if self._aug is not None:
            items.append((self._aug, rhs))
        if type(rhs) is int and set(map(type, coeffs.values())) <= _INT:
            # Rows of plain ints, as the derivation solvers build them, need no coercion.
            row = {c: w for c, v in items if (w := v % p if p else v)}
        elif p:
            coerce = self.ring.coerce
            row = {c: w for c, v in items if (w := coerce(v))}
        else:
            den = math.lcm(*[v.denominator for _, v in items])
            row = {c: w for c, v in items if (w := v.numerator * (den // v.denominator))}
        if row and not p:
            row = _content_reduce(row)
        return row or None

    def _insert_int(self, row: dict[int, int]) -> None:
        pivots = self._pivots
        aug = self._aug
        while row:
            lead = min(row)
            if lead == aug:
                self._consistent = False
                return
            piv = pivots.get(lead)
            if piv is None:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivots[lead] = row
                return
            a, b = row[lead], piv[lead]
            g = math.gcd(a, b)
            ma, mb = b // g, a // g
            merged = {c: v * ma for c, v in row.items()}
            for c, v in piv.items():
                w = merged.get(c, 0) - v * mb
                if w:
                    merged[c] = w
                else:
                    merged.pop(c, None)
            row = _content_reduce(merged) if merged else merged

    def _insert_mod(self, row: dict[int, int]) -> None:
        pivots = self._pivots
        aug = self._aug
        p = self._p
        while row:
            lead = min(row)
            if lead == aug:
                self._consistent = False
                return
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                return
            factor = row[lead]  # pivot rows are normalized to leading 1
            merged = dict(row)
            for c, v in piv.items():
                w = (merged.get(c, 0) - factor * v) % p
                if w:
                    merged[c] = w
                else:
                    merged.pop(c, None)
            row = merged

    def _reduced_ints(self) -> dict[int, dict[int, int]]:
        """Canonical reduced rows keyed by pivot column, as ints.

        Back-substitution runs on the stored rows, highest pivot first,
        fraction-free: clearing column ``c2`` of a row with the reduced row
        ``R`` (lead ``l`` at ``c2``, entry ``f`` of the row) is
        ``row <- (l/g) row - (f/g) R`` with ``g = gcd(l, f)``, and over Q the
        row's content is divided out after each step, so each row is
        primitive with a positive lead. Over F_p every row leads with 1, so
        the step is ``row <- row - f R`` mod p. Pivot rows never change once
        inserted, so the cache is current while the pivot count is.
        """
        if self._ints_cache is not None and self._ints_cache[0] == len(self._pivots):
            return self._ints_cache[1]
        p = self._p
        rows: dict[int, dict[int, int]] = {}
        for c in sorted(self._pivots, reverse=True):
            row = dict(self._pivots[c])
            for c2 in list(row):
                if c2 != c and c2 in rows:
                    reducer = rows[c2]
                    f = row.pop(c2)
                    lead = reducer[c2]
                    if lead != 1:
                        g = math.gcd(lead, f)
                        m, f = lead // g, f // g
                        row = {c3: v * m for c3, v in row.items()}
                    for c3, v in reducer.items():
                        if c3 == c2:
                            continue
                        w = row.get(c3, 0) - f * v
                        if p:
                            w %= p
                        if w:
                            row[c3] = w
                        else:
                            row.pop(c3, None)
                    if not p:
                        row = _content_reduce(row)
            rows[c] = row
        self._ints_cache = (len(self._pivots), rows)
        return rows

    def _rref(self) -> dict[int, dict[int, Scalar]]:
        """Canonical reduced rows keyed by pivot column, leading entry 1.

        They are :meth:`_reduced_ints`; over Q each entry becomes one
        ``Fraction(v, lead)``. Cached as that is.
        """
        if self._rref_cache is not None and self._rref_cache[0] == len(self._pivots):
            return self._rref_cache[1]
        rows = self._reduced_ints()
        if self._p:
            reduced = rows
        else:
            reduced = {}
            for c, row in rows.items():
                lead = row[c]
                reduced[c] = {c2: Fraction(v, lead) for c2, v in row.items()}
        self._rref_cache = (len(self._pivots), reduced)
        return reduced

    def particular_solution(self) -> list[Scalar] | None:
        """Solution with all free variables set to zero, or None if infeasible."""
        if self._aug is None:
            raise ValueError("system was not built with a right-hand side")
        if not self._consistent:
            return None
        zero = self.ring.zero
        sol = [zero] * self.ncols
        for c, row in self._rref().items():
            sol[c] = row.get(self._aug, zero)
        return sol

    def kernel(self) -> list[tuple[int, dict[int, Scalar]]]:
        """Canonical nullspace basis as ``(f, sparse vector)`` per free column ``f``, ascending.

        The vector is 1 at ``f``, 0 at the other free columns, and minus the
        reduced row's entry in column ``f`` at each pivot column.
        """
        if self._aug is not None:
            raise ValueError("kernel basis is only defined for homogeneous systems")
        rows = self._reduced_ints()
        p = self._p
        one = self.ring.one
        vectors = {f: {f: one} for f in range(self.ncols) if f not in rows}
        for c, row in rows.items():
            lead = row[c]
            for f, v in row.items():
                if f != c:
                    # One Fraction per entry, from the int row (over F_p the lead is 1).
                    vectors[f][c] = -v % p if p else Fraction(-v, lead)
        return list(vectors.items())

    def kernel_basis(self) -> list[list[Scalar]]:
        """The vectors of :meth:`kernel` made dense, in the same order."""
        zero = self.ring.zero
        basis = []
        for _f, vector in self.kernel():
            vec = [zero] * self.ncols
            for c, v in vector.items():
                vec[c] = v
            basis.append(vec)
        return basis

    def span_basis(self) -> list[list[Scalar]]:
        """Canonical basis of the row span: the reduced rows made dense, by ascending pivot."""
        reduced = self._rref()
        vectors = []
        for c in sorted(reduced):
            vec = [self.ring.zero] * self.ncols
            for c2, v in reduced[c].items():
                if c2 != self._aug:
                    vec[c2] = v
            vectors.append(vec)
        return vectors

    def reduce_vector(self, vector) -> list[Scalar]:
        """Remainder of ``vector`` after elimination against the reduced rows."""
        work = [self.ring.coerce(v) for v in vector]
        for c, row in self._rref().items():
            f = work[c]
            if f:
                for c2, v in row.items():
                    if c2 != self._aug:
                        work[c2] = self.ring.normalize(work[c2] - f * v)
        return work

    def contains(self, vector) -> bool:
        """True iff the vector lies in the accumulated row span."""
        return not any(self.reduce_vector(vector))


def kernel_basis(matrix: ExactMatrix) -> list[list[Scalar]]:
    """Basis of the right nullspace of a matrix over Q or F_p."""
    system = LinearSystem(matrix.cols, matrix.ring)
    for row in matrix.entries:
        system.add_row({c: v for c, v in enumerate(row) if v})
    return system.kernel_basis()


def solve(matrix: ExactMatrix, rhs) -> list[Scalar] | None:
    """Some solution of ``A x = b`` with free variables zeroed, or None."""
    system = LinearSystem(matrix.cols, matrix.ring, augmented=True)
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    for row, b in zip(matrix.entries, rhs):
        system.add_row({c: v for c, v in enumerate(row) if v}, matrix.ring.coerce(b))
    return system.particular_solution()


def rank(matrix: ExactMatrix) -> int:
    system = LinearSystem(matrix.cols, matrix.ring)
    for row in matrix.entries:
        system.add_row({c: v for c, v in enumerate(row) if v})
    return system.rank


@dataclass(frozen=True)
class SNFDecomposition:
    """Smith normal form ``U A V = S`` with unimodular integer U, V."""

    U: ExactMatrix
    S: ExactMatrix
    V: ExactMatrix

    @property
    def diagonal(self) -> list[int]:
        k = min(self.S.rows, self.S.cols)
        return [self.S.entries[i][i] for i in range(k)]


def _nearest_quotient(a: int, b: int) -> int:
    """Quotient leaving a remainder of minimal absolute value."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(matrix: ExactMatrix) -> SNFDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The diagonal is nonnegative with each entry dividing the next; signs are
    pushed into U. Pivoting picks the entry of smallest absolute value in the
    working submatrix (row-major on ties) with nearest-integer reduction:
    first-nonzero pivoting makes intermediate entries blow up exponentially
    on dense inputs, this keeps them small. Fully deterministic.
    """
    require_same_ring(matrix.ring, ZZ)
    m, n = matrix.rows, matrix.cols
    S = [row[:] for row in matrix.entries]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            S[i], S[j] = S[j], S[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in S:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row_dst += factor * row_src
        Ss, Sd = S[src], S[dst]
        for c in range(n):
            Sd[c] += factor * Ss[c]
        Us, Ud = U[src], U[dst]
        for c in range(m):
            Ud[c] += factor * Us[c]

    def add_col(src, dst, factor):
        for row in S:
            row[dst] += factor * row[src]
        for row in V:
            row[dst] += factor * row[src]

    def find_min_pivot(t):
        best = None
        where = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best = v
                    where = (i, j)
        return where

    t = 0
    limit = min(m, n)
    while t < limit:
        check_cancel()
        pivot = find_min_pivot(t)
        if pivot is None:
            break
        while True:
            check_cancel()
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            p = S[t][t]
            clear = True
            for i in range(t + 1, m):
                if S[i][t]:
                    q = _nearest_quotient(S[i][t], p)
                    if q:
                        add_row(t, i, -q)
                    if S[i][t]:
                        clear = False
            for j in range(t + 1, n):
                if S[t][j]:
                    q = _nearest_quotient(S[t][j], p)
                    if q:
                        add_col(t, j, -q)
                    if S[t][j]:
                        clear = False
            if not clear:
                pivot = find_min_pivot(t)
                continue
            # Row and column are clear; enforce divisibility into the rest.
            offender = None
            d = S[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
            pivot = (t, t)
        if S[t][t] < 0:
            for c in range(n):
                S[t][c] = -S[t][c]
            for c in range(m):
                U[t][c] = -U[t][c]
        t += 1

    return SNFDecomposition(
        U=ExactMatrix(ZZ, U, _validated=True),
        S=ExactMatrix(ZZ, S, _validated=True),
        V=ExactMatrix(ZZ, V, _validated=True),
    )


class _SmithSolver:
    """The Smith factors of one integer matrix, for solving ``A x = b`` with many ``b``.

    Building the solver is the one Smith normal form run. It keeps the rows
    of U and the columns of V as sparse ``(indices, values)`` pairs, and the
    diagonal of S: on the witness matrices U is mostly zero, and ``x = V y``
    reads only the columns where ``y`` is nonzero. ``cells`` counts the
    kept entries.
    """

    __slots__ = ("rows", "u_rows", "diagonal", "v_cols", "cells")

    def __init__(self, matrix: ExactMatrix) -> None:
        # A module-namespace call, so perfbench/tracer.py counts every factorization.
        snf = smith_normal_form(matrix)
        self.rows = matrix.rows
        self.u_rows = [_sparse(row) for row in snf.U.entries]
        self.diagonal = snf.diagonal
        self.v_cols = [_sparse(col) for col in zip(*snf.V.entries)]
        self.cells = len(self.diagonal) + sum(len(idx) for idx, _ in self.u_rows + self.v_cols)

    def solve(self, rhs) -> list[int] | None:
        """With ``U A V = S`` the system becomes ``S y = U b``; each coordinate is
        solvable iff the diagonal entry divides the transformed right-hand side
        (zero divides only zero), and ``x = V y`` with free coordinates zeroed.
        """
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match row count")
        if set(map(type, rhs)) != _INT:
            rhs = [ZZ.coerce(v) for v in rhs]
        get = rhs.__getitem__
        diagonal = self.diagonal
        k = len(diagonal)
        y = []
        for i, (idx, vals) in enumerate(self.u_rows):
            c = sum(map(mul, vals, map(get, idx)))
            d = diagonal[i] if i < k else 0
            if d:
                q, r = divmod(c, d)
                if r:
                    return None
                if q:
                    y.append((q, self.v_cols[i]))
            elif c:
                return None
        x = [0] * len(self.v_cols)
        for q, (idx, vals) in y:
            for r, v in zip(idx, vals):
                x[r] += q * v
        return x


def _sparse(entries) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions and values of the nonzero ``entries``."""
    idx = tuple(i for i, v in enumerate(entries) if v)
    return idx, tuple(entries[i] for i in idx)


def integer_solve(matrix: ExactMatrix, rhs) -> list[int] | None:
    """Integer solution of ``A x = b`` via Smith normal form, or None.

    It factors ``A`` afresh on every call; see :meth:`_SmithSolver.solve`.
    """
    require_same_ring(matrix.ring, ZZ)
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    return _SmithSolver(matrix).solve(rhs)


def determinant(matrix: ExactMatrix) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    require_same_ring(matrix.ring, ZZ)
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    n = matrix.rows
    a = [row[:] for row in matrix.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
