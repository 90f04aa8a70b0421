"""Exact linear algebra over the Gaussian rationals.

There is one elimination: `EchelonBasis`, an incremental fraction-free
Gauss-Jordan over the Gaussian integers.  It takes a vector of int, Fraction
or Scalar entries as a sparse dict {column: entry} or as a dense list, which
`reduce` turns into that dict once.
A row is stored, and returned by `reduce` and `insert`, as a sparse
Gaussian-integer dict {column: (re, im)} with no stored zeros:
  * an inserted vector is scaled by the lcm of its denominators; scaling
    leaves the spanned line, and so the subspace, unchanged;
  * eliminating a pivot replaces row by p*row - q*prow, with p the stored
    row's pivot and q row's entry in the pivot column, then divides by the
    content of the entries: their rational-integer gcd (of all real and
    imaginary parts) and, when some entry is non-real, their Gaussian gcd,
    by Euclid in Z[i]; no rational is built inside the loop;
  * a new row is back-substituted into the stored ones the same way, so each
    stored row leads at its pivot, its smallest column, and is zero at every
    other pivot column.
Every row is therefore primitive over the Gaussian integers: its content is
a unit.  That keeps its entries small without Bareiss's exact division by
the previous pivot.  Z[i] is Euclidean, so the line a row spans has one
primitive representative up to a unit.  By Cramer's rule the field row on
that line, times a minor of the inserted vectors (cleared of denominators),
is a Gaussian-integer row whose entries are minors too, so Hadamard's bound
holds for them; the primitive row divides it and is no larger.  Without the
Gaussian gcd a non-real pivot could leave a factor such as (1 + 2i)^k, of
integer content 1, in the row, and its entries could grow exponentially.
A real row's Gaussian gcd is its integer gcd, so real rows take the integer
path alone.
Dividing each row by its pivot once, at the end, gives the unit-pivot reduced
echelon form, which is unique under a fixed column order; bases built in any
insertion order then compare by equality.  Every rational output is a Scalar.

`rank` and `rref` insert the rows of a matrix into one `EchelonBasis`, and
`kernel_basis` reads the kernel off `rref`.  `solve_columns` inserts each
column c_j as the tagged sparse row (c_j | e_j) and reads the solution off
the tag of the target's residual, the way `aut4` reads minimal polynomials.
"""

from __future__ import annotations

from math import gcd

from .numeric import ONE, ZERO, Scalar, over_common_denominator


def _gaussian_gcd(z: tuple, w: tuple) -> tuple:
    """A gcd of two Gaussian integers (re, im), by Euclid in Z[i] with each
    quotient rounded to the nearest Gaussian integer."""
    while w != (0, 0):
        (a, b), (c, d) = z, w
        n = c * c + d * d
        # z / w = z * conj(w) / n, rounded part by part
        qr = (2 * (a * c + b * d) + n) // (2 * n)
        qi = (2 * (b * c - a * d) + n) // (2 * n)
        z, w = w, (a - qr * c + qi * d, b - qr * d - qi * c)
    return z


def _primitive(row: dict) -> dict | None:
    """row divided by the content of its entries, None if empty: by their
    integer gcd, and when some entry is non-real also by their Gaussian gcd,
    so the content left is a unit."""
    if not row:
        return None
    g = gcd(*(x for ab in row.values() for x in ab))
    if g != 1:
        row = {c: (a // g, b // g) for c, (a, b) in row.items()}
    if any(b for _, b in row.values()):
        z = (0, 0)
        for ab in row.values():
            z = _gaussian_gcd(ab, z)
            n = z[0] * z[0] + z[1] * z[1]
            if n == 1:
                return row
        # (a + bi) / (zr + zi i) = (a + bi)(zr - zi i) / n, exactly
        zr, zi = z
        row = {c: ((a * zr + b * zi) // n, (b * zr - a * zi) // n) for c, (a, b) in row.items()}
    return row


def _eliminated(row: dict, prow: dict, col: int) -> dict | None:
    """p*row - q*prow made primitive, p = prow[col] and q = row[col], which
    must be present; the entry of row in the pivot column becomes zero."""
    qr, qi = row[col]
    pr, pi = prow[col]
    out = {c: (pr * a - pi * b, pr * b + pi * a) for c, (a, b) in row.items()}
    for c, (x, y) in prow.items():
        a, b = out.get(c, (0, 0))
        a, b = a - qr * x + qi * y, b - qr * y - qi * x
        if a or b:
            out[c] = (a, b)
        else:
            del out[c]
    return _primitive(out)


class EchelonBasis:
    """Echelon row basis of a subspace of int, Fraction or Scalar vectors,
    grown by insertion and kept as primitive Gaussian-integer rows."""

    def __init__(self, dim: int):
        self.dim = dim
        # pivot column -> primitive row {column: (re, im)}, no stored zeros,
        # leading at the pivot and zero at every other pivot
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> dict | None:
        """Primitive integer residual {column: (re, im)} of vec, a dense list
        of length dim or a sparse {column: entry} dict, after elimination
        against the stored rows: a nonzero multiple of the field residual;
        None when vec lies in the span."""
        if not isinstance(vec, dict):
            if len(vec) != self.dim:
                raise ValueError("vector length does not match basis dimension")
            vec = {i: x for i, x in enumerate(vec) if x}
        elif vec and not 0 <= min(vec) <= max(vec) < self.dim:
            raise ValueError("vector column outside the basis dimension")
        row = _primitive({i: (a, b) for i, a, b in over_common_denominator(vec)[1] if a or b})
        if row is None:
            return None
        # a stored row is zero at every other pivot, so an elimination never
        # brings in a pivot column: only the pivots present now need a pass,
        # and the row stays nonzero until the last of them
        for piv in sorted(row.keys() & self.rows.keys()):
            row = _eliminated(row, self.rows[piv], piv)
        return row

    def insert(self, vec) -> dict | None:
        """Insert vec; returns its primitive integer residual (see `reduce`)
        if it enlarged the subspace, else None."""
        row = self.reduce(vec)
        if row is None:
            return None
        piv = min(row)
        for p, other in self.rows.items():
            if piv in other:
                self.rows[p] = _eliminated(other, row, piv)
        self.rows[piv] = row
        return row

    def contains(self, vec) -> bool:
        return self.reduce(vec) is None

    def vectors(self) -> list:
        """The unit-pivot reduced rows in pivot order, as dense Scalar lists."""
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            pr, pi = row[p]
            n = pr * pr + pi * pi
            vec = [ZERO] * self.dim
            for c, (a, b) in row.items():
                vec[c] = Scalar._of(a * pr + b * pi, b * pr - a * pi, n)
            out.append(vec)
        return out


def _echelon(matrix: list) -> EchelonBasis:
    ech = EchelonBasis(len(matrix[0]) if matrix else 0)
    for row in matrix:
        ech.insert(row)
    return ech


def rref(matrix: list) -> tuple:
    """Reduced row echelon form over the Gaussian rationals: (the unit-pivot
    rows as Scalars, the pivot column list)."""
    ech = _echelon(matrix)
    return ech.vectors(), sorted(ech.rows)


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
    row = ech.reduce(tagged(target, k))
    if min(row) < n:
        return None
    tk = Scalar(*row[n + k])
    return [-Scalar(*row.get(n + j, (0, 0))) / tk for j in range(k)]
