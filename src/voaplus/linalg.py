"""Dense exact linear algebra over any exact field element type.

Works uniformly for Scalar (Gaussian rationals) and Fraction: elements only
need +, -, *, /, truthiness and an additive zero obtained as x - x.  Row
echelon form here is fully reduced with unit pivots, so a subspace has one
canonical row set under a fixed column order and bases compare by equality.
"""

from __future__ import annotations


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


def rref(matrix: list) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
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
