"""Exact linear algebra: echelon bases, rref, kernels, column solves."""

from fractions import Fraction

from voaplus.linalg import EchelonBasis, kernel_basis, mat_mul, rref, solve_columns
from voaplus.numeric import Scalar

F = Fraction


def test_echelon_basis_rank_membership_and_determinism():
    eb = EchelonBasis(3)
    assert eb.insert([Scalar(1), Scalar(2), Scalar(3)])
    assert eb.insert([Scalar(0), Scalar(1), Scalar(1)])
    assert not eb.insert([Scalar(1), Scalar(3), Scalar(4)])  # dependent
    assert eb.rank == 2
    assert eb.contains([Scalar(2), Scalar(5), Scalar(7)])
    assert not eb.contains([Scalar(0), Scalar(0), Scalar(1)])
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
    ker = kernel_basis(mat, 3, Scalar(0), Scalar(1))
    assert len(ker) == 2
    for v in ker:
        assert v[0] + Scalar(2) * v[1] + Scalar(3) * v[2] == Scalar(0)


def test_solve_columns_exact_solution_and_failure():
    cols = [
        [Scalar(1), Scalar(0), Scalar(1)],
        [Scalar(0), Scalar(1), Scalar(1)],
    ]
    sol = solve_columns(cols, [Scalar(F(1, 2)), Scalar(3), Scalar(F(7, 2))])
    assert sol == [Scalar(F(1, 2)), Scalar(3)]
    assert solve_columns(cols, [Scalar(0), Scalar(0), Scalar(1)]) is None


def test_mat_mul_over_gaussian_rationals_and_fractions():
    i = Scalar(0, 1)
    got = mat_mul([[i, Scalar(1)], [Scalar(0), i]], [[i, Scalar(0)], [Scalar(2), i]])
    assert got == [[Scalar(1), i], [Scalar(0, 2), Scalar(-1)]]
    assert all(isinstance(x, Scalar) for row in got for x in row)
    got = mat_mul([[F(1, 2), F(1, 3)]], [[F(3)], [F(6)]])  # 1x2 times 2x1
    assert got == [[F(7, 2)]] and isinstance(got[0][0], Fraction)
