"""Exact linear algebra over the Gaussian rationals.

There is one elimination: `EchelonBasis`, an incremental fraction-free
Gauss-Jordan over the Gaussian integers (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
It takes a vector of int, Fraction or Scalar entries as a sparse dict
{column: entry} or as a dense list, which `reduce` turns into that dict once.
A row is stored as a pair of integer lists (re, im), im None when real:
  * an inserted vector is scaled by the lcm of its denominators; scaling
    leaves the spanned line, and so the subspace, unchanged;
  * eliminating a pivot replaces row by p*row - q*prow, with p the stored
    row's pivot and q row's entry in the pivot column, then divides by the
    integer content of the entries; no rational is built inside the loop;
  * a new row is back-substituted into the stored ones the same way, so each
    stored row is zero at every other pivot column.
Dividing each row by its pivot once, at the end, gives the unit-pivot reduced
echelon form, which is unique under a fixed column order; bases built in any
insertion order then compare by equality.  Every rational output is a Scalar.

`rank` and `rref` insert the rows of a matrix into one `EchelonBasis`, and
`kernel_basis` reads the kernel off `rref`.  `solve_columns` inserts each
column c_j as the tagged sparse row (c_j | e_j) and reads the solution off
the tag of the target's residual, the way `aut4` reads minimal polynomials.
"""

from __future__ import annotations

from bisect import insort
from math import gcd

from .numeric import ONE, ZERO, Scalar, over_common_denominator


def _integer_row(vec: dict, dim: int) -> tuple:
    """Gaussian-integer row (re, im) of length dim proportional to the sparse
    vector {column: entry}, over the lcm of its denominators; im is None when
    every entry is real.  Only the given entries are read."""
    re, im = [0] * dim, [0] * dim
    for i, a, b in over_common_denominator(vec)[1]:
        re[i] = a
        im[i] = b
    return re, (im if any(im) else None)


def _primitive(re: list, im) -> tuple | None:
    """(re, im) divided by the integer content of its entries; None if zero."""
    g = gcd(*re, *im) if im is not None else gcd(*re)
    if not g:
        return None
    if g != 1:
        re = [x // g for x in re]
        if im is not None:
            im = [x // g for x in im]
    if im is not None and not any(im):
        im = None
    return re, im


def _eliminated(row: tuple, prow: tuple, col: int) -> tuple | None:
    """p*row - q*prow made primitive, p = prow[col] and q = row[col]; the
    entry of row in the pivot column becomes zero."""
    re, im = row
    sre, sim = prow
    qr, qi = re[col], (im[col] if im is not None else 0)
    if not (qr or qi):
        return row
    pr, pi = sre[col], (sim[col] if sim is not None else 0)
    if im is None and sim is None and not (pi or qi):
        return _primitive([pr * a - qr * c for a, c in zip(re, sre)], None)
    zeros = [0] * len(re)
    im = im if im is not None else zeros
    sim = sim if sim is not None else zeros
    return _primitive(
        [pr * a - pi * b - qr * c + qi * d for a, b, c, d in zip(re, im, sre, sim)],
        [pr * b + pi * a - qr * d - qi * c for a, b, c, d in zip(re, im, sre, sim)],
    )


def _unit_pivot(row: tuple, col: int) -> list:
    """row divided by its entry at col, as Gaussian rationals."""
    re, im = row
    if im is None:
        im = [0] * len(re)
    pr, pi = re[col], im[col]
    n = pr * pr + pi * pi
    return [
        Scalar._of(a * pr + b * pi, b * pr - a * pi, n) if a or b else ZERO
        for a, b in zip(re, im)
    ]


class EchelonBasis:
    """Echelon row basis of a subspace of int, Fraction or Scalar vectors,
    grown by insertion and kept as primitive Gaussian-integer rows."""

    def __init__(self, dim: int):
        self.dim = dim
        # pivot column -> primitive row (re, im), zero at every other pivot
        self.rows: dict = {}
        self._order: list = []  # pivot columns, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> tuple | None:
        """Primitive integer residual of vec, a dense list of length dim or a
        sparse {column: entry} dict, after elimination against the stored
        rows: a nonzero multiple of the field residual; None when vec lies in
        the span."""
        if not isinstance(vec, dict):
            if len(vec) != self.dim:
                raise ValueError("vector length does not match basis dimension")
            vec = {i: x for i, x in enumerate(vec) if x}
        elif vec and not 0 <= min(vec) <= max(vec) < self.dim:
            raise ValueError("vector column outside the basis dimension")
        row = _primitive(*_integer_row(vec, self.dim))
        for piv in self._order:
            if row is None:
                break
            row = _eliminated(row, self.rows[piv], piv)
        return row

    def insert(self, vec) -> tuple | None:
        """Insert vec; returns its primitive integer residual (see `reduce`)
        if it enlarged the subspace, else None."""
        row = self.reduce(vec)
        if row is None:
            return None
        re, im = row
        piv = next(i for i, x in enumerate(re) if x or (im is not None and im[i]))
        for p, other in self.rows.items():
            self.rows[p] = _eliminated(other, row, piv)
        self.rows[piv] = row
        insort(self._order, piv)
        return row

    def contains(self, vec) -> bool:
        return self.reduce(vec) is None

    def vectors(self) -> list:
        """The unit-pivot reduced rows in pivot order, as Scalars."""
        return [_unit_pivot(self.rows[p], p) for p in self._order]


def _echelon(matrix: list) -> EchelonBasis:
    ech = EchelonBasis(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ech.insert(row)
    return ech


def rref(matrix: list) -> tuple:
    """Reduced row echelon form over the Gaussian rationals: (the unit-pivot
    rows as Scalars, the pivot column list)."""
    ech = _echelon(matrix)
    return ech.vectors(), list(ech._order)


def rank(matrix: list) -> int:
    """Rank of a matrix of int, Fraction or Scalar entries."""
    return _echelon(matrix).rank


def mat_mul(A: list, B: list) -> list:
    """Matrix product of row lists A and B."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def kernel_basis(matrix: list, ncols: int) -> list:
    """Basis of the right kernel, one vector per free column f of `rref`: a
    one at f and minus the reduced entries of column f at the pivots."""
    rows, pivots = rref(matrix)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[f] = ONE
        for rowvec, p in zip(rows, pivots):
            vec[p] = -rowvec[f]
        out.append(vec)
    return out


def solve_columns(columns: list, target: list):
    """Coefficients x with sum_j x_j columns[j] = target, or None when target
    lies outside the span of the columns; with dependent columns, one of the
    solutions.

    Each column c_j is inserted as the tagged row (c_j | e_j) and the target
    is reduced as (target | e_k), k = len(columns).  The residual is a row of
    their span whose tag t has t_k != 0; its leading part
    sum_j t_j c_j + t_k target is zero exactly when target lies in the span,
    and then x_j = -t_j / t_k.
    """
    n, k = len(target), len(columns)
    if any(len(col) != n for col in columns):
        raise ValueError("columns and target differ in length")

    def tagged(vec: list, j: int) -> dict:
        row = {i: x for i, x in enumerate(vec) if x}
        row[n + j] = 1
        return row

    ech = EchelonBasis(n + k + 1)
    for j, col in enumerate(columns):
        ech.insert(tagged(col, j))
    re, im = ech.reduce(tagged(target, k))
    im = im or [0] * len(re)
    if any(re[:n]) or any(im[:n]):
        return None
    tk = Scalar(re[-1], im[-1])
    return [-Scalar(a, b) / tk for a, b in zip(re[n:-1], im[n:-1])]
