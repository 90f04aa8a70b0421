"""Exact linear algebra: echelon bases, rref, relations, kernels, column
solves and singular vectors, all read back over the Gaussian rationals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voaplus import linalg
from voaplus.aut4 import apply, compose_specs, rotation_sigma
from voaplus.fock import State, coordinates, graded_basis
from voaplus.linalg import EchelonBasis, kernel_basis, mat_mul, rank, rref, solve_columns
from voaplus.numeric import ONE, ZERO, Scalar
from voaplus.reptheory import singular_vectors
from voaplus.vertex import virasoro

F = Fraction


def _rref_by_fractions(matrix: list) -> tuple:
    """The field Gauss-Jordan that the integer kernel replaced (test oracle)."""
    if not matrix:
        return [], []
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col]
        rows[r] = [c / inv for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _oracle_rank(matrix: list) -> int:
    return len(_rref_by_fractions(matrix)[1])


def test_echelon_basis_rank_membership_and_determinism():
    eb = EchelonBasis(3)
    assert eb.insert([Scalar(1), Scalar(2), Scalar(3)])
    assert eb.insert([Scalar(0), Scalar(1), Scalar(1)])
    assert not eb.insert([Scalar(1), Scalar(3), Scalar(4)])  # dependent
    assert eb.rank == 2
    assert eb.contains([Scalar(2), Scalar(5), Scalar(7)])
    assert not eb.contains([Scalar(0), Scalar(0), Scalar(1)])
    assert eb.contains({0: Scalar(2), 1: Scalar(5), 2: Scalar(7)}) and eb.contains({})
    # a wrong length, or a sparse column outside [0, 3), is refused
    for bad in ([Scalar(1)] * 2, {3: ONE}, {-1: ONE}):
        with pytest.raises(ValueError):
            eb.contains(bad)
    rows = eb.vectors()
    assert rows == [
        [Scalar(1), Scalar(0), Scalar(1)],
        [Scalar(0), Scalar(1), Scalar(1)],
    ]


def test_rref_with_gaussian_rational_entries():
    dependent = [
        [Scalar(0, 1), Scalar(1)],
        [Scalar(2), Scalar(0, -2)],  # = -2i times the first row
    ]
    rows, pivots = rref(dependent)
    assert pivots == [0]
    assert rows == [[Scalar(1), Scalar(0, -1)]]
    mat = [
        [Scalar(0, 1), Scalar(1)],
        [Scalar(2), Scalar(0)],
    ]
    rows, pivots = rref(mat)
    assert pivots == [0, 1]
    assert rows == [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]]


def test_kernel_basis_of_a_rank_one_map():
    # x + 2y + 3z = 0
    mat = [[Scalar(1), Scalar(2), Scalar(3)]]
    ker = kernel_basis(mat, 3)
    assert len(ker) == 2
    for v in ker:
        assert v[0] + Scalar(2) * v[1] + Scalar(3) * v[2] == Scalar(0)
    # a row shorter or longer than ncols is refused, not cut or padded
    for bad, ncols in ((mat, 2), (mat, 4), (mat + [[ONE, ONE]], 3)):
        with pytest.raises(ValueError):
            kernel_basis(bad, ncols)


def test_relations_are_zero_at_earlier_dependent_vectors():
    v0, v2 = [ONE, ZERO], {1: ONE}
    vectors = [v0, [Scalar(2), ZERO], v2, [Scalar(3), ONE], [ZERO, ZERO]]
    got = dict(linalg.relations(vectors, 2, 5))
    assert got == {
        1: [Scalar(-2), ONE, ZERO, ZERO, ZERO],
        3: [Scalar(-3), ZERO, -ONE, ONE, ZERO],
        4: [ZERO, ZERO, ZERO, ZERO, ONE],
    }
    # a dense vector of another length, or a sparse column reaching the tags
    for bad in ([ONE], {2: ONE}):
        with pytest.raises(ValueError):
            list(linalg.relations([v0, bad], 2, 2))


def test_relations_read_a_generator_no_further_than_the_first_dependent_vector():
    # aut4 reads its Krylov vectors this way: the vector after the first
    # dependent one would cost a mode call, so it must never be asked for
    def krylov():
        yield [ONE, ZERO, ZERO]
        yield {1: Scalar(2)}
        yield [ZERO, Scalar(0, 1), ZERO]
        raise AssertionError("read past the first dependent vector")

    j, x = next(linalg.relations(krylov(), 3, 4))
    assert j == 2 and x == [ZERO, Scalar(0, F(-1, 2)), ONE, ZERO]


def test_solve_columns_exact_solution_and_failure():
    cols = [
        [Scalar(1), Scalar(0), Scalar(1)],
        [Scalar(0), Scalar(1), Scalar(1)],
    ]
    sol = solve_columns(cols, [Scalar(F(1, 2)), Scalar(3), Scalar(F(7, 2))])
    assert sol == [Scalar(F(1, 2)), Scalar(3)]
    assert solve_columns(cols, [Scalar(0), Scalar(0), Scalar(1)]) is None
    # dependent columns: some solution, exact
    dep = cols + [[a + b for a, b in zip(*cols)]]
    sol = solve_columns(dep, [Scalar(2), Scalar(0, 1), Scalar(2, 1)])
    assert [sum((x * c[i] for x, c in zip(sol, dep)), ZERO) for i in range(3)] == [
        Scalar(2), Scalar(0, 1), Scalar(2, 1)
    ]
    assert solve_columns([], [ZERO, ZERO]) == [] and solve_columns([], [ONE]) is None
    with pytest.raises(ValueError):
        solve_columns(cols, [ONE, ONE])


def test_mat_mul_over_gaussian_rationals_and_fractions():
    i = Scalar(0, 1)
    got = mat_mul([[i, Scalar(1)], [Scalar(0), i]], [[i, Scalar(0)], [Scalar(2), i]])
    assert got == [[Scalar(1), i], [Scalar(0, 2), Scalar(-1)]]
    assert all(isinstance(x, Scalar) for row in got for x in row)
    got = mat_mul([[F(1, 2), F(1, 3)]], [[F(3)], [F(6)]])  # 1x2 times 2x1
    assert got == [[F(7, 2)]] and isinstance(got[0][0], Fraction)


# ---------------------------------------------------------------------------
# the integer kernel against the field oracle

_small = st.integers(-6, 6)
_large = st.integers(-(10**30), 10**30)
_den = st.one_of(st.integers(1, 12), st.sampled_from((2**61 - 1, 10**18 + 9, 3**40)))
_rational = st.one_of(
    st.just(F(0)),
    st.builds(F, _small, _den),
    st.builds(F, _large, _den),
)
_gaussian = st.builds(Scalar, _rational, st.one_of(st.just(F(0)), _rational))


@st.composite
def _matrices(draw, entry, zero):
    """Matrices with zero rows, repeated and scaled rows, sums of rows, and
    fresh rows, in every shape up to 7 x 6 (zero rows: the empty matrix)."""
    ncols = draw(st.integers(1, 6))
    fresh = st.lists(entry, min_size=ncols, max_size=ncols)
    base = draw(st.lists(fresh, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        how = draw(st.sampled_from(("fresh", "zero", "copy", "scaled", "sum")))
        if how == "fresh" or (how != "zero" and not base):
            rows.append(draw(fresh))
        elif how == "zero":
            rows.append([zero] * ncols)
        elif how == "copy":
            rows.append(list(draw(st.sampled_from(base))))
        elif how == "scaled":
            c = draw(entry.filter(bool))
            rows.append([c * x for x in draw(st.sampled_from(base))])
        else:
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            rows.append([x + y for x, y in zip(a, b)])
    return rows


def _scalars(rows: list) -> list:
    return [[Scalar.coerce(x) for x in row] for row in rows]


def _kernel_by_oracle(matrix: list, ncols: int) -> list:
    """The kernel by the free-column rule on the oracle's reduced rows: a one
    at each free column f and minus the reduced entries of column f at the
    pivots."""
    rows, pivots = _rref_by_fractions(matrix)
    out = []
    for f in range(ncols):
        if f not in pivots:
            vec = [ZERO] * ncols
            vec[f] = ONE
            for rowvec, p in zip(rows, pivots):
                vec[p] = -Scalar.coerce(rowvec[f])
            out.append(vec)
    return out


def _assert_solves(columns: list, target: list):
    """solve_columns against the oracle: a solution exactly when the target
    adds no rank, the oracle's unique one when the columns are independent."""
    got = solve_columns(columns, target)
    r = _oracle_rank(columns)
    if _oracle_rank(columns + [target]) != r:
        assert got is None
        return
    assert got is not None and all(type(x) is Scalar for x in got)
    combo = [sum((x * c[i] for x, c in zip(got, columns)), ZERO) for i in range(len(target))]
    assert combo == target
    if r == len(columns):
        aug = [[c[i] for c in columns] + [target[i]] for i in range(len(target))]
        assert got == [row[-1] for row in _rref_by_fractions(aug)[0]]


def _assert_matches_oracle(matrix, zero, one):
    rows, pivots = rref(matrix)
    want_rows, want_pivots = _rref_by_fractions(matrix)
    assert pivots == want_pivots
    assert rows == _scalars(want_rows)
    assert all(type(x) is Scalar for row in rows for x in row)
    assert rank(matrix) == len(want_pivots)

    # the sparse integer rows {column: (re, im)} under the final division:
    # primitive, no stored zero, nonzero at their own pivot and absent at
    # every other one
    ech = linalg._echelon(matrix)
    int_pivots = sorted(ech.rows)
    assert int_pivots == want_pivots
    for col in int_pivots:
        row = ech.rows[col]
        entries = [x for ab in row.values() for x in ab]
        assert all(type(x) is int for x in entries)
        assert gcd(*entries) == 1
        assert all(a or b for a, b in row.values())
        assert row.get(col, (0, 0)) != (0, 0)
        assert not any(c in row for c in int_pivots if c != col)

    ncols = len(matrix[0]) if matrix else 3
    kernel = kernel_basis(matrix, ncols)
    assert kernel == _kernel_by_oracle(matrix, ncols)
    assert all(type(x) is Scalar for vec in kernel for x in vec)
    assert all(not sum((x * v for x, v in zip(row, vec)), ZERO) for row in matrix for vec in kernel)

    # the rows of the matrix as columns, so they may be dependent
    target = [sum((r[i] for r in matrix[:2]), zero) for i in range(ncols)]
    for t in (target, [one] + [zero] * (ncols - 1)):
        _assert_solves(matrix, t)
    if matrix[:2]:
        assert solve_columns(matrix, target) is not None  # a sum of columns is solvable


_KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@_KERNEL
@given(matrix=_matrices(_rational, F(0)))
@example(matrix=[])
@example(matrix=[[F(0)] * 4] * 3)  # rank 0
@example(matrix=[[F(int(i == j)) for j in range(4)] for i in range(4)])  # full rank
@example(matrix=[[F(1, 2**61 - 1), F(3, 10**18 + 9)], [F(5, 7), F(-2, 3**40)]])
def test_integer_kernel_matches_the_oracle_over_fractions(matrix):
    _assert_matches_oracle(matrix, F(0), F(1))


@_KERNEL
@given(matrix=_matrices(_gaussian, ZERO))
@example(matrix=[])
@example(matrix=[[ZERO] * 3] * 2)  # rank 0
@example(matrix=[[Scalar(0, 1), ONE], [Scalar(2), Scalar(0, -2)]])  # a pivot i
@example(matrix=[[Scalar(F(1, 3), F(2, 5)), Scalar(1, 1)], [Scalar(3, -1), Scalar(0, F(1, 7))]])
def test_integer_kernel_matches_the_oracle_over_gaussian_rationals(matrix):
    _assert_matches_oracle(matrix, ZERO, ONE)


def test_rank_takes_integer_rows():
    assert rank([[2, 4, 6], [1, 2, 3], [0, 0, 0]]) == 1
    assert rank([[0, 1], [1, 0], [1, 1]]) == 2
    assert rank([]) == 0


@settings(_KERNEL, max_examples=100)
@given(matrix=st.one_of(_matrices(_rational, F(0)), _matrices(_gaussian, ZERO)))
@example(matrix=[[Scalar(1, 1), Scalar(2)], [Scalar(1), Scalar(1, -1)]])  # one line
@example(matrix=[[F(1), F(2)], [F(-1), F(-2)]])
def test_echelon_basis_inserts_match_the_oracle_in_either_order(matrix):
    ncols = len(matrix[0]) if matrix else 0
    field = Scalar if any(isinstance(x, Scalar) for row in matrix for x in row) else Fraction
    zero, one = field(0), field(1)
    probes = [[one if j == i else zero for j in range(ncols)] for i in range(ncols)]
    probes.append([one] * ncols)
    want_rows, _ = _rref_by_fractions(matrix)
    inside = [_oracle_rank(matrix + [probe]) == len(want_rows) for probe in probes]
    sparse = lambda row: {j: x for j, x in enumerate(row) if x}
    for order, form in ((matrix, list), (matrix[::-1], list), (matrix, sparse)):
        ranks = [_oracle_rank(order[:k]) for k in range(len(order) + 1)]
        ech = EchelonBasis(ncols)
        for k, row in enumerate(order):
            assert (ech.insert(form(row)) is None) == (ranks[k + 1] == ranks[k])
            assert ech.contains(form(row))
        assert ech.vectors() == _scalars(want_rows)
        assert [ech.contains(form(probe)) for probe in probes] == inside


def _gaussian_content_is_a_unit(row: dict) -> bool:
    """Whether the entries a + bi of an integer row generate all of Z[i]: the
    Z-span of the vectors (a, b) and (-b, a) is Z^2 exactly when the gcd of
    their 2 x 2 minors is 1."""
    vecs = [v for a, b in row.values() for v in ((a, b), (-b, a))]
    return gcd(*(u[0] * v[1] - u[1] * v[0] for u in vecs for v in vecs)) == 1


@settings(_KERNEL, max_examples=100)
@given(matrix=_matrices(_gaussian, ZERO))
@example(matrix=[[Scalar(1, 2), Scalar(3, 6)]])  # content 1 + 2i, integer content 1
@example(matrix=[[Scalar(2, 1), ONE, ZERO], [Scalar(1, 2), ZERO, Scalar(0, 3)], [ONE, ONE, ONE]])
def test_every_stored_row_of_a_gaussian_matrix_has_a_unit_as_its_content(matrix):
    ech = EchelonBasis(len(matrix[0]) if matrix else 0)
    for vec in matrix:
        residual = ech.insert(vec)
        assert residual is None or _gaussian_content_is_a_unit(residual)
        assert all(_gaussian_content_is_a_unit(row) for row in ech.rows.values())


@pytest.mark.parametrize(
    "N, w, bound, dim",
    [(2, 4, "plus", 3), (8, 4, "plus", 2), (2, 4, "efixed", 2), (2, 0, "full", 1), (2, 1, "full", 3)],
)
def test_singular_vectors_are_the_free_column_kernel_of_the_oracle(N, w, bound, dim):
    # the L(1) rows and then the L(2) rows, dense over the weight-(w-1) and
    # weight-(w-2) terms; at w = 0 and 1 there are no L(2) rows
    basis = graded_basis(N, w, bound)
    cols = [[c for k in (1, 2) if w >= k for c in coordinates(virasoro(k, b), w - k)] for b in basis]
    matrix = [list(row) for row in zip(*cols)]
    want = [
        sum((c * b for c, b in zip(vec, basis)), State(N, {}))
        for vec in _kernel_by_oracle(matrix, len(basis))
    ]
    assert len(want) == dim
    assert singular_vectors(N, w, bound) == want


def test_fixed_space_rows_of_the_tetrahedral_group_stay_small():
    # A4 = <s1 s2, s1^2, s2^2> on the norm-2 lattice algebra, s_j the quarter
    # turns: the rows g(t) - t of the weight-3 terms, generator by generator,
    # once grew to 16-bit entries through Gaussian factors of their pivots
    s1, s2 = rotation_sigma(1), rotation_sigma(2)
    terms = graded_basis(2, 3, "full")
    ech = EchelonBasis(len(terms))
    for g in (compose_specs(s1, s2), compose_specs(s1, s1), compose_specs(s2, s2)):
        for t in terms:
            ech.insert(coordinates(apply(g, t) - t, 3))
            bits = max(abs(x).bit_length() for row in ech.rows.values() for ab in row.values() for x in ab)
            assert bits < 8
    assert len(terms) - ech.rank == 1  # Molien's count for A4 at weight 3
