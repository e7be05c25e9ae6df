import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    ExactMatrix,
    LinearSystem,
    NotAField,
    determinant,
    integer_solve,
    kernel_basis,
    smith_normal_form,
    solve,
)
from grpder.linalg import _SmithSolver, rank
from grpder.rings import GF, QQ, ZZ


def test_kernel_of_zero_matrix_is_standard_basis():
    A = ExactMatrix(QQ, [[0, 0], [0, 0]])
    assert kernel_basis(A) == [[1, 0], [0, 1]]


def test_kernel_of_identity_is_empty():
    A = ExactMatrix.identity(QQ, 3)
    assert kernel_basis(A) == []


def test_kernel_rank_one():
    A = ExactMatrix(QQ, [[1, 2], [2, 4]])
    assert kernel_basis(A) == [[Fraction(-2), Fraction(1)]]


def test_kernel_requires_field():
    with pytest.raises(NotAField):
        kernel_basis(ExactMatrix(ZZ, [[1, 2]]))


def test_solve_identity():
    A = ExactMatrix.identity(QQ, 3)
    assert solve(A, [5, -1, 7]) == [5, -1, 7]


def test_solve_underdetermined_zeroes_free_variables():
    assert solve(ExactMatrix(QQ, [[1, 1]]), [2]) == [2, 0]


def test_solve_inconsistent():
    assert solve(ExactMatrix(QQ, [[1], [1]]), [1, 2]) is None


def test_solve_mod_p():
    A = ExactMatrix(GF(5), [[2, 1], [1, 1]])
    x = A.mul_vec([3, 4])
    got = solve(A, x)
    assert A.mul_vec(got) == x


def test_snf_identity():
    snf = smith_normal_form(ExactMatrix.identity(ZZ, 3))
    assert snf.S == ExactMatrix.identity(ZZ, 3)
    assert snf.U == ExactMatrix.identity(ZZ, 3)
    assert snf.V == ExactMatrix.identity(ZZ, 3)


def test_snf_example():
    A = ExactMatrix(ZZ, [[2, 4], [6, 8]])
    snf = smith_normal_form(A)
    assert snf.diagonal == [2, 4]
    assert snf.U.matmul(A).matmul(snf.V) == snf.S


def test_snf_zero_matrix():
    snf = smith_normal_form(ExactMatrix(ZZ, [[0]]))
    assert snf.S.entries == [[0]]


def test_integer_solve_examples():
    assert integer_solve(ExactMatrix(ZZ, [[1]]), [5]) == [5]
    assert integer_solve(ExactMatrix(ZZ, [[2]]), [3]) is None
    A = ExactMatrix(ZZ, [[2, 4], [6, 8]])
    x = integer_solve(A, [2, 6])
    assert x is not None
    assert A.mul_vec(x) == [2, 6]


def test_determinant():
    assert determinant(ExactMatrix(ZZ, [[1, 2], [3, 4]])) == -2
    assert determinant(ExactMatrix(ZZ, [[2, 0], [0, 3]])) == 6
    assert determinant(ExactMatrix(ZZ, [[1, 1], [1, 1]])) == 0


def test_kernel_canonical_under_row_shuffles():
    rng = random.Random(7)
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [1, 3, 4, 4]]
    reference = kernel_basis(ExactMatrix(QQ, rows))
    for _ in range(10):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert kernel_basis(ExactMatrix(QQ, shuffled)) == reference


def _dense_kernel(system):
    """The sparse kernel made dense, after checking its free columns ascend and carry 1."""
    kernel = system.kernel()
    assert [f for f, _vector in kernel] == sorted(f for f, _vector in kernel)
    assert all(vector[f] == system.ring.one for f, vector in kernel)
    return [[vector.get(c, system.ring.zero) for c in range(system.ncols)] for _f, vector in kernel]


def test_linear_system_mod2_kernel():
    system = LinearSystem(2, GF(2))
    system.add_row({0: 1, 1: 1})
    assert system.kernel_basis() == [[1, 1]]
    assert _dense_kernel(system) == system.kernel_basis()


small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def int_matrices(draw, max_dim=6):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(
            st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
    return entries


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_matrices())
def test_snf_invariants(entries):
    A = ExactMatrix(ZZ, entries)
    snf = smith_normal_form(A)
    assert snf.U.matmul(A).matmul(snf.V) == snf.S
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    for i in range(snf.S.rows):
        for j in range(snf.S.cols):
            if i != j:
                assert snf.S.entries[i][j] == 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_matrices(), st.integers(min_value=0, max_value=10**6))
def test_solve_and_kernel_consistency(entries, seed):
    rng = random.Random(seed)
    A = ExactMatrix(QQ, entries)
    n = A.cols
    x_true = [rng.randint(-5, 5) for _ in range(n)]
    b = A.mul_vec(x_true)
    x = solve(A, b)
    assert x is not None
    assert A.mul_vec(x) == b
    kernel = kernel_basis(A)
    for vec in kernel:
        assert all(v == 0 for v in A.mul_vec(vec))
    assert rank(A) + len(kernel) == n


@settings(max_examples=60, deadline=None, derandomize=True)
@given(int_matrices(), st.integers(min_value=0, max_value=10**6))
def test_integer_solve_disjunction(entries, seed):
    rng = random.Random(seed)
    A = ExactMatrix(ZZ, entries)
    b = [rng.randint(-9, 9) for _ in range(A.rows)]
    x = integer_solve(A, b)
    if x is not None:
        assert all(isinstance(v, int) for v in x)
        assert A.mul_vec(x) == b
    else:
        rational = solve(ExactMatrix(QQ, entries), b)
        snf = smith_normal_form(A)
        c = snf.U.mul_vec(b)
        diag = snf.diagonal
        broken = any(
            (diag[i] == 0 and c[i] != 0) or (diag[i] != 0 and c[i] % diag[i] != 0)
            for i in range(len(diag))
        ) or any(c[i] != 0 for i in range(len(diag), A.rows))
        assert rational is None or broken


@settings(max_examples=80, deadline=None, derandomize=True)
@given(int_matrices(), st.integers(min_value=0, max_value=10**6), st.booleans())
def test_sparse_smith_solve_matches_the_dense_factors(entries, seed, solvable):
    rng = random.Random(seed)
    A = ExactMatrix(ZZ, entries)
    if solvable:
        b = A.mul_vec([rng.randint(-5, 5) for _ in range(A.cols)])
    else:
        b = [rng.randint(-9, 9) for _ in range(A.rows)]
    solver = _SmithSolver(A)
    snf = smith_normal_form(A)
    # The reference: c = U b by the dense product, then x = V y.
    c = snf.U.mul_vec(b)
    diag = snf.diagonal
    y = [0] * A.cols
    expected = []
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if (d == 0 and ci != 0) or (d != 0 and ci % d != 0):
            expected = None
            break
        if d:
            y[i] = ci // d
    if expected is not None:
        expected = snf.V.mul_vec(y)
    x = solver.solve(b)
    assert x == expected == integer_solve(A, b)
    if x is not None:
        assert A.mul_vec(x) == b
    elif solvable:
        raise AssertionError("a consistent integer system was reported unsolvable")
    # The kept entries are those of U's rows and V's columns.
    dense_u = [[0] * A.rows for _ in range(A.rows)]
    for row, (idx, vals) in zip(dense_u, solver.u_rows):
        for i, v in zip(idx, vals):
            row[i] = v
    assert dense_u == snf.U.entries
    columns = [dict(zip(*col)) for col in solver.v_cols]
    assert [list(col) for col in zip(*snf.V.entries)] == [[col.get(i, 0) for i in range(A.cols)] for col in columns]


def test_sparse_smith_solve_coerces_like_the_dense_product():
    A = ExactMatrix(ZZ, [[2, 0], [0, 3]])
    assert integer_solve(A, [Fraction(4), 6]) == [2, 2]
    with pytest.raises(ValueError):
        integer_solve(A, [Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        integer_solve(A, [True, 0])


def test_matrix_shape_errors():
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [])
    with pytest.raises(ValueError):
        ExactMatrix(ZZ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        solve(ExactMatrix(QQ, [[1, 2]]), [1, 2])


def test_particular_solution_requires_augmented():
    system = LinearSystem(2, QQ)
    system.add_row({0: 1})
    with pytest.raises(ValueError):
        system.particular_solution()
    augmented = LinearSystem(2, QQ, augmented=True)
    augmented.add_row({0: 1}, Fraction(1, 2))
    with pytest.raises(ValueError):
        augmented.kernel_basis()
    assert augmented.particular_solution() == [Fraction(1, 2), 0]


def _prepare_reference(coeffs, rhs, aug):
    """Denominators cleared through ``int(v * den)``, then the content divided out."""
    items = list(coeffs.items()) + ([(aug, rhs)] if aug is not None else [])
    den = math.lcm(*(v.denominator for _, v in items if isinstance(v, Fraction)))
    row = {}
    for c, v in items:
        iv = int(v * den) if isinstance(v, Fraction) else v * den
        if iv:
            row[c] = iv
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} or None


_Q_ENTRIES = st.integers(-50, 50) | st.fractions(-50, 50, max_denominator=60) | st.fractions(max_denominator=10**12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(0, 11), _Q_ENTRIES, max_size=12), _Q_ENTRIES, st.booleans())
def test_prepare_over_q_matches_reference(coeffs, rhs, augmented):
    system = LinearSystem(12, QQ, augmented=augmented)
    aug = 12 if augmented else None
    assert system._prepare(coeffs, rhs) == _prepare_reference(coeffs, rhs, aug)


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_dependent_row_keeps_the_cached_reduced_rows(ring, augmented):
    rows = [({0: 1, 1: 2, 3: -1}, 3), ({1: 1, 2: 1}, 2)]
    total = ({0: 1, 1: 3, 2: 1, 3: -1}, 5)  # the sum of the two rows

    def build():
        system = LinearSystem(4, ring, augmented=augmented)
        for coeffs, rhs in rows:
            system.add_row(coeffs, rhs)
        return system

    system, reference = build(), build()
    cached = system._rref()
    system.add_row(*total)  # reduces to zero against the pivot rows
    assert system.rank == 2 and system.consistent
    assert system._rref_cache[1] is cached
    if augmented:
        assert system.particular_solution() == reference.particular_solution()
    else:
        assert system.kernel_basis() == reference.kernel_basis()
        assert _dense_kernel(system) == system.kernel_basis()
        assert system.span_basis() == reference.span_basis()


def _gauss_jordan(rows, width):
    """Reduced row echelon form of dense rows by textbook Gauss-Jordan on Fractions.

    Returns ``{pivot column: {column: nonzero entry}}``, each row scaled to lead with 1.
    """
    m = [[Fraction(v) for v in row] for row in rows]
    pivot_rows = {}
    r = 0
    for c in range(width):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivot_rows[c] = r
        r += 1
    return {c: {j: v for j, v in enumerate(m[i]) if v} for c, i in pivot_rows.items()}


_BIG_Q = st.integers(-10**6, 10**6) | st.fractions(max_denominator=10**12) | st.just(0)


@st.composite
def _q_systems(draw):
    """Rows over Q with big denominators, some of them rational combinations of earlier rows."""
    ncols = draw(st.integers(1, 7), label="ncols")
    augmented = draw(st.booleans(), label="augmented")
    width = ncols + augmented
    rows = []
    for _ in range(draw(st.integers(1, 8), label="rows")):
        if rows and draw(st.booleans()):
            combo = [draw(st.sampled_from(rows)) for _ in range(draw(st.integers(1, 3)))]
            scales = [draw(st.fractions(-9, 9, max_denominator=10**12)) for _ in combo]
            row = [sum((s * row[c] for s, row in zip(scales, combo)), Fraction(0)) for c in range(width)]
        else:
            row = [draw(_BIG_Q) for _ in range(width)]
            if draw(st.booleans()):
                row = [-v for v in row]
        rows.append(row)
    return ncols, augmented, rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_q_systems())
def test_q_reduced_rows_match_a_fraction_gauss_jordan_reference(system_spec):
    ncols, augmented, rows = system_spec
    system = LinearSystem(ncols, QQ, augmented=augmented)
    for row in rows:
        coeffs = {c: v for c, v in enumerate(row[:ncols]) if v}
        if augmented:
            system.add_row(coeffs, row[ncols])
        else:
            system.add_row(coeffs)
    reference = _gauss_jordan(rows, ncols + augmented)
    if augmented and ncols in reference:  # a pivot in the right-hand side: 0 = 1
        assert not system.consistent
        assert system.particular_solution() is None
        return
    assert system.consistent and system.rank == len(reference)
    reduced = system._rref()
    assert reduced == reference
    for c, row in reduced.items():
        assert all(type(v) is Fraction for v in row.values())
        assert type(row[c]) is Fraction and row[c] == 1
    zero = Fraction(0)
    assert system.span_basis() == [
        [reference[c].get(j, zero) for j in range(ncols)] for c in sorted(reference)
    ]
    if augmented:
        solution = [reference[c].get(ncols, zero) if c in reference else zero for c in range(ncols)]
        assert system.particular_solution() == solution
        assert all(type(v) is Fraction for v in solution)
        return
    free = [f for f in range(ncols) if f not in reference]
    kernel = [
        (f, {f: Fraction(1), **{c: -row[f] for c, row in reference.items() if f in row}})
        for f in free
    ]
    assert system.kernel() == kernel
    for _f, vector in system.kernel():
        assert all(type(v) is Fraction for v in vector.values())
        for row in rows:
            assert sum(row[c] * v for c, v in vector.items()) == 0


@pytest.mark.parametrize("ring", [QQ, GF(7)], ids=["Q", "F7"])
def test_kernel_reads_the_integer_rows(ring):
    # The kernel is built from the fraction-free reduced rows, one scalar per
    # entry: the Fraction form of the reduced rows is never made for it.
    system = LinearSystem(5, ring)
    for coeffs in ({0: 3, 1: 2, 3: -1}, {1: 4, 2: 6, 4: 1}, {0: 1, 4: Fraction(1, 2) if ring == QQ else 4}):
        system.add_row(coeffs)
    kernel = system.kernel()
    assert system._rref_cache is None
    reduced = system._rref()
    assert kernel == [
        (f, {f: ring.one, **{c: ring.normalize(-row[f]) for c, row in reduced.items() if f in row}})
        for f in range(5)
        if f not in reduced
    ]
    assert {type(v) for _f, vector in kernel for v in vector.values()} == {type(ring.one)}
