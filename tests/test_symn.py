"""Tests for the permutation-invariant algebra on the zero-sum hyperplane."""

from fractions import Fraction

import pytest

from voaplus import cli, symn
from voaplus.linalg import mat_mul
from voaplus.report import Report
from voaplus.symn import (
    PermAlgebra,
    invariant_algebra_report,
    build,
    diff_coords,
    difference_basis,
    distinguished_idempotents,
    enumerate_idempotents_n3,
    equivariant_product_space_dim,
    has_axis_spectrum,
    nonassociativity_witness,
)

F = Fraction


def char_poly(matrix):
    """Characteristic polynomial det(t*I - M), coefficients low to high, by
    the trace recursion (Faddeev-LeVerrier)."""
    d = len(matrix)
    M = [[F(x) for x in row] for row in matrix]
    coeffs = [F(0)] * (d + 1)
    coeffs[d] = F(1)
    Bk = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        Ak = mat_mul(M, Bk) if k > 1 else [row[:] for row in M]
        ck = -sum(Ak[i][i] for i in range(d)) / k
        coeffs[d - k] = ck
        if k < d:
            Bk = [row[:] for row in Ak]
            for i in range(d):
                Bk[i][i] += ck
    return coeffs


def axis_char_poly(n):
    """(t - 1)(t + 1/(n-2))^(n-2) expanded, coefficients low to high: the
    characteristic polynomial of the spectrum {1: 1, -1/(n-2): n-2}."""
    poly = [F(-1), F(1)]
    for _ in range(n - 2):
        poly = [a + F(1, n - 2) * b for a, b in zip([F(0)] + poly, poly + [F(0)])]
    return poly


def ad_spectrum(A, e):
    """The spectrum, with multiplicity, of multiplication by e on M, as its
    characteristic polynomial: the oracle that the axis spectrum certificate
    `has_axis_spectrum` is compared with."""
    return char_poly(A.ad_matrix(e))


def _ad_p(a):
    """The matrix (rows) of x -> a*x on P in the axis basis, read column by
    column from the P-product of a with each axis."""
    n = len(a)
    cols = [symn._p_product(a, [int(i == j) for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def trace_form(n):
    """The form tr(ad_P(a) ad_P(b)) on M, returned as a callable, after
    verifying on every pair of the difference basis that it equals the
    coordinate dot product (the orthonormal-axis form restricted to M) and
    that the dot product respects the permutation action."""
    basis = difference_basis(n)

    def form(a, b):
        return sum(x * y for x, y in zip(a, b))

    for bi in basis:
        for bj in basis:
            prod = mat_mul(_ad_p(bi), _ad_p(bj))
            if sum(prod[i][i] for i in range(n)) != form(bi, bj):
                raise AssertionError("trace form drifted from the dot product")
    for sigma in build(n).adjacent_transpositions():
        for bi in basis:
            for bj in basis:
                if form(symn._permute(sigma, bi), symn._permute(sigma, bj)) != form(bi, bj):
                    raise AssertionError("trace form is not invariant")
    return form


def test_difference_basis_and_coordinates_invert_each_other():
    for n in (3, 5):
        basis = difference_basis(n)
        assert len(basis) == n - 1
        for i, b in enumerate(basis):
            coords = diff_coords(b)
            assert coords == tuple(F(1) if j == i else F(0) for j in range(n - 1))
    # a generic zero-sum vector round-trips through its coordinates
    v = (F(3), F(-1), F(-5), F(3))
    coords = diff_coords(v)
    basis = difference_basis(4)
    rebuilt = tuple(
        sum(c * b[k] for c, b in zip(coords, basis)) for k in range(4)
    )
    assert rebuilt == v


def test_structure_constants_n3_by_hand():
    # d1 = (1,-1,0), d2 = (0,1,-1); products projected to the hyperplane
    A = build(3)
    d1, d2 = A.basis
    assert diff_coords(A.multiply(d1, d1)) == (F(1, 3), F(2, 3))
    assert diff_coords(A.multiply(d1, d2)) == (F(1, 3), F(-1, 3))
    assert diff_coords(A.multiply(d2, d1)) == (F(1, 3), F(-1, 3))
    assert diff_coords(A.multiply(d2, d2)) == (F(-2, 3), F(-1, 3))


def test_product_validation():
    A = build(3)
    with pytest.raises(ValueError):
        A.multiply((1, 0, 0), (1, -1, 0))  # not zero-sum
    with pytest.raises(ValueError):
        A.multiply((1, -1), (1, -1, 0))  # wrong length
    with pytest.raises(ValueError):
        build(2)


def test_permutation_action():
    A = build(3)
    swap01 = (1, 0, 2)
    assert A.permute(swap01, (F(1), F(-1), F(0))) == (F(-1), F(1), F(0))
    cyc = (1, 2, 0)
    assert A.permute(cyc, (F(1), F(-1), F(0))) == (F(0), F(1), F(-1))


def test_equivariance_for_small_n():
    for n in (3, 4, 5):
        assert build(n).is_equivariant()


def test_equivariance_checks_the_product_kernel(monkeypatch):
    # a product that doubles coordinate 0 before projecting is symmetric but
    # not equivariant; is_equivariant must see it through the shared kernel
    A = build(5)
    b0 = A.basis[0]
    honest = A.multiply(b0, b0)
    assert A.is_equivariant()

    def skewed(a, b):
        p = [x * y for x, y in zip(a, b)]
        p[0] *= 2
        return tuple(len(p) * x - sum(p) for x in p)

    monkeypatch.setattr(symn, "_product", skewed)
    assert A.multiply(b0, b0) != honest
    assert not A.is_equivariant()


def test_distinguished_idempotents_n3_values():
    fs = distinguished_idempotents(3)
    assert fs[0] == (F(2), F(-1), F(-1))
    assert fs[1] == (F(-1), F(2), F(-1))
    assert fs[2] == (F(-1), F(-1), F(2))
    A = build(3)
    for f in fs:
        assert A.multiply(f, f) == f


def test_distinguished_idempotents_general_n():
    for n in (4, 5, 6):
        A = build(n)
        fs = distinguished_idempotents(n)
        assert len(fs) == n
        for f in fs:
            assert A.multiply(f, f) == f
            assert sum(f) == 0


def test_ad_spectrum_of_an_axis():
    for n in (3, 4, 5, 6):
        A = build(n)
        f = distinguished_idempotents(n)[0]
        assert ad_spectrum(A, f) == axis_char_poly(n)


def _oracle_has_axis_spectrum(matrix, n):
    """The spectrum {1: 1, -1/(n-2): n-2} with multiplicity; unlike the
    certificate, blind to a Jordan block."""
    return char_poly(matrix) == axis_char_poly(n)


def test_axis_spectrum_certificate_agrees_with_the_oracle_on_every_axis():
    for n in range(3, 13):
        A = build(n)
        for f in distinguished_idempotents(n):
            assert ad_spectrum(A, f) == axis_char_poly(n)
            assert has_axis_spectrum(A.ad_matrix(f), n)


def test_axis_spectrum_certificate_refuses_a_jordan_block():
    # diag(1) + J_2(-1/2) at n = 4: the characteristic polynomial of an axis,
    # trace 0, but not diagonalizable
    h = F(-1, 2)
    M = [[F(1), F(0), F(0)], [F(0), h, F(1)], [F(0), F(0), h]]
    assert _oracle_has_axis_spectrum(M, 4)
    assert not has_axis_spectrum(M, 4)


def test_axis_spectrum_certificate_refuses_the_identity():
    # (I - I)(I + I/(n-2)) = 0 holds, but tr I = n - 1
    for n in (3, 4, 6):
        identity = [[F(int(i == j)) for j in range(n - 1)] for i in range(n - 1)]
        assert not _oracle_has_axis_spectrum(identity, n)
        assert not has_axis_spectrum(identity, n)


def test_axis_spectrum_certificate_refuses_a_sum_of_two_axes():
    # at n = 3, f0 + f1 = -f2 has the spectrum {-1: 1, 1: 1}, so start at 4
    for n in range(4, 9):
        A = build(n)
        f = distinguished_idempotents(n)
        M = A.ad_matrix(tuple(x + y for x, y in zip(f[0], f[1])))
        assert not _oracle_has_axis_spectrum(M, n)
        assert not has_axis_spectrum(M, n)


def test_char_poly_on_a_known_matrix():
    # [[2,1],[1,2]] has characteristic polynomial t^2 - 4t + 3 = (t-1)(t-3)
    assert char_poly([[F(2), F(1)], [F(1), F(2)]]) == [F(3), F(-4), F(1)]
    # (t - 1)(t + 1/2)^2 = t^3 - (3/4) t - 1/4, the axis polynomial at n = 4
    assert axis_char_poly(4) == [F(-1, 4), F(-3, 4), F(0), F(1)]
    h = F(-1, 2)
    assert char_poly([[F(1), F(0), F(0)], [F(0), h, F(0)], [F(0), F(0), h]]) == axis_char_poly(4)


def test_trace_form_is_the_dot_product():
    form = trace_form(3)  # raises internally if invariance fails
    d1, d2 = difference_basis(3)
    assert form(d1, d1) == F(2)
    assert form(d1, d2) == F(-1)
    assert form(d2, d2) == F(2)


def test_trace_form_check_fails_on_a_wrong_p_product(monkeypatch):
    # the check builds ad_P from the P-product, so a wrong product shows up
    real = symn._p_product

    def doubled(a, b):
        p = real(a, b)
        return [2 * p[0]] + p[1:]

    monkeypatch.setattr(symn, "_p_product", doubled)
    with pytest.raises(AssertionError):
        trace_form(3)


def test_a_wrong_product_fails_the_report_rows_without_a_traceback(monkeypatch, capsys):
    real = symn._product

    def doubled(a, b):
        p = real(a, b)
        return (2 * p[0],) + p[1:]

    monkeypatch.setattr(symn, "_product", doubled)
    code, rep = cli.run(["symn", "--n", "4"])
    capsys.readouterr()
    assert code == 1
    failed = rep.failures()
    assert "equivariance n=3" in failed
    assert "idempotents n=3" in failed


def test_n3_enumeration_finds_exactly_the_three_axes():
    survivors = sorted(enumerate_idempotents_n3())
    axes = sorted(distinguished_idempotents(3))
    assert survivors == axes
    assert len(survivors) == 3


def test_n3_idempotents_on_a_rational_grid_are_zero_and_the_axes():
    # an oracle independent of the quadratic argument: every zero-sum
    # (x0, x1, -x0 - x1) with x0, x1 in {p/q : |p| <= 6, 1 <= q <= 3}
    A = build(3)
    grid = {F(p, q) for p in range(-6, 7) for q in range(1, 4)}
    found = set()
    for x0 in grid:
        for x1 in grid:
            x = (x0, x1, -x0 - x1)
            if A.multiply(x, x) == x:
                found.add(x)
    axes = distinguished_idempotents(3)
    assert found == {(F(0), F(0), F(0))} | set(axes)
    assert enumerate_idempotents_n3() == sorted(axes)


def test_equivariant_product_space_is_a_line():
    for n in (3, 4, 5, 6):
        assert equivariant_product_space_dim(n) == 1


def test_nonassociativity_witness_n3_by_hand():
    # with axes f0,f1,f2:  (f0*f0)*f1 = f0*f1 = f2  but  f0*(f0*f1) = f0*f2 = f1
    fs = distinguished_idempotents(3)
    left, right = nonassociativity_witness(3)
    assert left == fs[2]
    assert right == fs[1]
    assert left != right


def test_nonassociativity_for_larger_n():
    for n in (4, 5, 6):
        left, right = nonassociativity_witness(n)
        assert left != right


def test_invariant_algebra_report_is_all_green():
    rep = Report("symn")
    invariant_algebra_report(rep, range(3, 9))
    assert rep.checks and all(c.status == "pass" for c in rep.checks)
    names = [c.name for c in rep.checks]
    assert "n=3 exhaustive filter" in names
    assert any(name.startswith("ad-spectrum n=8") for name in names)
