"""Exact linear algebra over the rationals and the Gaussian rationals.

There is one elimination: `EchelonBasis`, an incremental fraction-free
Gauss-Jordan over the Gaussian integers (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
It takes a vector as a sparse dict {column: entry} or as a dense list, which
`reduce` turns into that dict once.  A row is stored as a pair of integer
lists (re, im), im None when real:
  * an inserted vector is scaled by the lcm of its denominators; scaling
    leaves the spanned line, and so the subspace, unchanged;
  * eliminating a pivot replaces row by p*row - q*prow, with p the stored
    row's pivot and q row's entry in the pivot column, then divides by the
    integer content of the entries; no rational is built inside the loop;
  * a new row is back-substituted into the stored ones the same way, so each
    stored row is zero at every other pivot column.
Dividing each row by its pivot once, at the end, gives the unit-pivot reduced
echelon form, which is unique under a fixed column order; bases built in any
insertion order then compare by equality.

`rref` and `rank` insert the rows of a matrix into one `EchelonBasis`;
`kernel_basis` and `solve_columns` read `rref`.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from .numeric import ZERO, Scalar


def _integer_row(vec: dict, dim: int) -> tuple:
    """Gaussian-integer row (re, im) of length dim proportional to the sparse
    vector {column: entry}, over the lcm of its denominators; im is None when
    every entry is real.  Only the given entries are read."""
    parts = [(i, x.re, x.im) if isinstance(x, Scalar) else (i, x, 0) for i, x in vec.items()]
    den = lcm(*(a.denominator for _, a, _ in parts), *(b.denominator for _, _, b in parts))
    re, im = [0] * dim, [0] * dim
    for i, a, b in parts:
        re[i] = a.numerator * (den // a.denominator)
        if b:
            im[i] = b.numerator * (den // b.denominator)
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


def _unit_pivot(row: tuple, col: int, field) -> list:
    """row divided by its entry at col, as field elements (Fraction or Scalar)."""
    re, im = row
    if field is Fraction:
        p = re[col]
        return [Fraction(a, p) for a in re]
    if im is None:
        im = [0] * len(re)
    pr, pi = re[col], im[col]
    n = pr * pr + pi * pi
    return [
        Scalar(Fraction(a * pr + b * pi, n), Fraction(b * pr - a * pi, n)) if a or b else ZERO
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

    def vectors(self, field=Scalar) -> list:
        """The unit-pivot reduced rows in pivot order, as field elements."""
        return [_unit_pivot(self.rows[p], p, field) for p in self._order]


def _echelon(matrix: list) -> EchelonBasis:
    ech = EchelonBasis(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ech.insert(row)
    return ech


def rref(matrix: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list).

    Entries come back as Scalar if any input entry is a Scalar, else as
    Fraction.
    """
    ech = _echelon(matrix)
    field = Scalar if any(isinstance(x, Scalar) for row in matrix for x in row) else Fraction
    return ech.vectors(field), list(ech._order)


def rank(matrix: list) -> int:
    """Rank of a matrix of int, Fraction or Scalar entries."""
    return _echelon(matrix).rank


def mat_mul(A: list, B: list) -> list:
    """Matrix product of row lists A and B."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def kernel_basis(matrix: list, ncols: int, zero, one) -> list:
    """Basis of the right kernel (deterministic, one vector per free column).

    zero/one are the field constants, passed explicitly so empty systems still
    come back over the right field.
    """
    rows, pivots = rref(matrix)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for rowvec, p in zip(rows, pivots):
            if rowvec[f]:
                vec[p] = zero - rowvec[f]
        out.append(vec)
    return out


def solve_columns(columns: list, target: list):
    """Coefficients x with sum_j x_j columns[j] = target, or None if unsolvable."""
    if not columns:
        return [] if not any(target) else None
    n = len(columns[0])
    aug = [[col[i] for col in columns] + [target[i]] for i in range(n)]
    rows, pivots = rref(aug)
    ncols = len(columns)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    zero = columns[0][0] - columns[0][0]
    x = [zero] * ncols
    for rowvec, p in zip(rows, pivots):
        x[p] = rowvec[-1]
    # underdetermined systems take free coordinates = 0; verify exactly
    for i in range(n):
        acc = zero
        for j in range(ncols):
            if x[j]:
                acc = acc + x[j] * columns[j][i]
        if acc != target[i]:
            return None
    return x
