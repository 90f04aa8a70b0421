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

`rank` and `rref` insert the rows of a matrix into one `EchelonBasis`.
`relations` reduces each vector v_j as the tagged sparse row (v_j | e_j) and
reads a linear relation off the tag of each residual whose vector part is
zero; the kernels, column solves, Krylov minimal polynomials, matrices of
maps and singular vectors of the package are all read off it.
"""

from __future__ import annotations

from math import gcd

from .numeric import ZERO, Scalar, over_common_denominator


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


def _sparse(vec, dim: int) -> dict:
    """vec, a dense list of length dim or a dict over [0, dim), as a dict."""
    if not isinstance(vec, dict):
        if len(vec) != dim:
            raise ValueError("vector length does not match basis dimension")
        return {i: x for i, x in enumerate(vec) if x}
    if vec and not 0 <= min(vec) <= max(vec) < dim:
        raise ValueError("vector column outside the basis dimension")
    return vec


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
        _, parts = over_common_denominator(_sparse(vec, self.dim))
        row = _primitive({i: (a, b) for i, a, b in parts if a or b})
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
        if row is not None:
            self._store(row)
        return row

    def _store(self, row: dict) -> None:
        """Store a nonzero residual of `reduce`, back-substituting it into the
        stored rows at its pivot, its smallest column."""
        piv = min(row)
        for p, other in self.rows.items():
            if piv in other:
                self.rows[p] = _eliminated(other, row, piv)
        self.rows[piv] = row

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


def relations(vectors, dim: int, count: int):
    """The relations among up to `count` vectors of length `dim` (dense lists
    or sparse dicts), read one at a time, so a generator is advanced only as
    far as the caller reads.  Each v_j is reduced as the tagged row
    (v_j | e_j) and stored if its vector part is nonzero; otherwise (j, x) is
    yielded, x the `count` Scalars of its tag scaled to x_j = 1: the unique
    relation sum_i x_i v_i = 0 that is zero at every later vector and at
    every earlier dependent one, which is never stored."""
    ech = EchelonBasis(dim + count)
    for j, vec in enumerate(vectors):
        row = ech.reduce(_sparse(vec, dim) | {dim + j: 1})
        if min(row) < dim:
            ech._store(row)
            continue
        x, t = [ZERO] * count, Scalar(*row[dim + j])
        for c, ab in row.items():
            x[c - dim] = Scalar(*ab) / t
        yield j, x


def kernel_basis(matrix: list, ncols: int) -> list:
    """Basis of the right kernel, the `relations` among the columns: for each
    free column f, a one at f, zeros at the other free columns and minus the
    reduced entries of column f at the pivots.  Rows must have ncols entries."""
    if any(len(row) != ncols for row in matrix):
        raise ValueError("matrix row length does not match ncols")
    columns = ([row[j] for row in matrix] for j in range(ncols))
    return [x for _, x in relations(columns, len(matrix), ncols)]


def solve_columns(columns: list, target: list):
    """Coefficients x with sum_j x_j columns[j] = target, or None when target
    lies outside the span of the columns; with dependent columns, the one
    that is zero at each column dependent on those before it.  Read after
    the columns by `relations`, the target lies in their span exactly when
    it has a relation sum_j y_j c_j + target = 0, and then x_j = -y_j.
    """
    k = len(columns)
    for j, y in relations(columns + [target], len(target), k + 1):
        if j == k:
            return [-c for c in y[:k]]
    return None
