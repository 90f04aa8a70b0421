"""Dense exact linear algebra over the rationals and the Gaussian rationals.

Row echelon form here is fully reduced with unit pivots, so a subspace has one
canonical row set under a fixed column order and bases compare by equality.

`EchelonBasis` works uniformly on any exact field element type (Scalar or
Fraction): elements only need +, -, *, /, truthiness and an additive zero
obtained as x - x.

`rref`, `rank`, `kernel_basis` and `solve_columns` share one fraction-free
Gauss-Jordan kernel over Gaussian integers, stored as integer lists (re, im)
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968):
  * each input row is scaled by the lcm of its denominators; scaling a row
    leaves the row space, and so the reduced form, unchanged;
  * a pivot step replaces row_i by p*row_i - q*row_r, with p the pivot and q
    row_i's entry in the pivot column, then divides row_i by the integer
    content of its entries; no rational is built inside the loop;
  * `rref` divides each surviving row by its pivot once, at the end, and
    returns Scalar entries if any input entry is a Scalar, else Fraction;
    `rank` only counts the surviving rows.
The unit-pivot reduced form is unique, so the result equals the one of
Gauss-Jordan carried out in field arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .numeric import ZERO, Scalar


class EchelonBasis:
    """Reduced echelon row basis of a subspace, grown by insertion."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict = {}  # pivot column -> row (list), unit pivot, reduced
        self._order: list = []  # pivot columns, ascending

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list) -> list:
        """Residual of vec after elimination against the stored rows."""
        if len(vec) != self.dim:
            raise ValueError("vector length does not match basis dimension")
        v = list(vec)
        for piv in self._order:
            c = v[piv]
            if c:
                row = self.rows[piv]
                for i in range(piv, self.dim):
                    if row[i]:
                        v[i] = v[i] - c * row[i]
        return v

    def insert(self, vec: list) -> bool:
        """Insert vec; True if it enlarged the subspace."""
        v = self.reduce(vec)
        piv = next((i for i, c in enumerate(v) if c), None)
        if piv is None:
            return False
        inv = v[piv]
        v = [c / inv for c in v]
        for other in self.rows.values():
            c = other[piv]
            if c:
                for i in range(piv, self.dim):
                    if v[i]:
                        other[i] = other[i] - c * v[i]
        self.rows[piv] = v
        self._order.append(piv)
        self._order.sort()
        return True

    def contains(self, vec: list) -> bool:
        return not any(self.reduce(vec))

    def vectors(self) -> list:
        return [list(self.rows[p]) for p in self._order]


def _integer_row(row: list) -> tuple:
    """Gaussian-integer row (re, im) proportional to row, over the lcm of its
    denominators; im is None when every entry is real."""
    re = [x.re if isinstance(x, Scalar) else x for x in row]
    im = [x.im if isinstance(x, Scalar) else 0 for x in row]
    den = lcm(*(x.denominator for x in re), *(x.denominator for x in im))
    re = [x.numerator * (den // x.denominator) for x in re]
    if not any(im):
        return re, None
    return re, [x.numerator * (den // x.denominator) for x in im]


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


def _eliminate(matrix: list) -> tuple:
    """Fraction-free Gauss-Jordan elimination over the Gaussian integers.

    Returns (rows, pivots): primitive integer rows (re, im), im None when
    real, in pivot order; each row is nonzero at its pivot column and zero at
    every other pivot column, so dividing it by its pivot gives the unique
    reduced echelon form.
    """
    pending = [r for r in (_primitive(*_integer_row(row)) for row in matrix) if r]
    rows: list = []
    pivots: list = []
    for col in range(len(matrix[0]) if matrix else 0):
        k = next(
            (k for k, (re, im) in enumerate(pending) if re[col] or (im is not None and im[col])),
            None,
        )
        if k is None:
            continue
        prow = pending.pop(k)
        pending = [r for r in (_eliminated(row, prow, col) for row in pending) if r]
        rows = [_eliminated(row, prow, col) for row in rows]
        rows.append(prow)
        pivots.append(col)
        if not pending:
            break
    return rows, pivots


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


def rref(matrix: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list).

    Entries come back as Scalar if any input entry is a Scalar, else as
    Fraction.
    """
    rows, pivots = _eliminate(matrix)
    field = Scalar if any(isinstance(x, Scalar) for row in matrix for x in row) else Fraction
    return [_unit_pivot(row, col, field) for row, col in zip(rows, pivots)], pivots


def rank(matrix: list) -> int:
    """Rank of a matrix of int, Fraction or Scalar entries."""
    return len(_eliminate(matrix)[1])


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
