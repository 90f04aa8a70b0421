"""The (n-1)-dimensional permutation-invariant commutative algebra.

Vectors live in the zero-sum hyperplane M of P = Q^n, where P multiplies
coordinatewise with orthonormal idempotent axes.  The product on M projects
the P-product back onto M; everything here is exact.

One integer kernel, `_product`, returns n times the projected product, which
is integral on integral vectors such as the difference basis; `multiply`,
`ad_matrix` and `is_equivariant` all go through it.  Vectors are
validated by `_as_vec` once, at the public entry points (`multiply`,
`permute` and `ad_matrix`); the module's own calls pass vectors it built
itself and skip that step.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .linalg import mat_mul, rank
from .numeric import over_common_denominator


def _require_n(n):
    if not isinstance(n, int) or n < 3:
        raise ValueError("the algebra needs n >= 3 (n = 2 makes the spectrum formula singular)")


def _as_vec(v, n):
    vec = tuple(Fraction(x) for x in v)
    if len(vec) != n:
        raise ValueError(f"expected a length-{n} vector")
    if sum(vec) != 0:
        raise ValueError("vector is not in the zero-sum hyperplane")
    return vec


def _p_product(a, b):
    """The product of P: coordinatewise, with the axes e_i as idempotents."""
    return [x * y for x, y in zip(a, b)]


def _product(a, b):
    """n times the product a*b on M: n*(a_i b_i) - sum_j a_j b_j, the
    coordinatewise P-product projected onto the zero-sum hyperplane and scaled
    by n, so it is integral when a and b are."""
    p = _p_product(a, b)
    s = sum(p)
    n = len(p)
    return tuple(n * x - s for x in p)


def _multiply(a, b):
    n = len(a)
    return tuple(Fraction(x, n) for x in _product(a, b))


def _permute(sigma, v):
    out = [0] * len(v)
    for src, dst in enumerate(sigma):
        out[dst] = v[src]
    return tuple(out)


def _adjacent_transpositions(n):
    out = []
    for i in range(n - 1):
        sigma = list(range(n))
        sigma[i], sigma[i + 1] = sigma[i + 1], sigma[i]
        out.append(tuple(sigma))
    return out


def difference_basis(n):
    """The integral basis e_i - e_(i+1), i = 1..n-1, as P-vectors of ints."""
    out = []
    for i in range(n - 1):
        vec = [0] * n
        vec[i] = 1
        vec[i + 1] = -1
        out.append(tuple(vec))
    return out


def diff_coords(v):
    """Coordinates of a zero-sum vector in the difference basis: the partial
    sums of its entries (integers for an integral vector)."""
    coords = []
    acc = 0
    for x in v[:-1]:
        acc += x
        coords.append(acc)
    return tuple(coords)


class PermAlgebra:
    """Product, permutation action and multiplication matrices on the zero-sum
    hyperplane of Q^n."""

    def __init__(self, n: int):
        _require_n(n)
        self.n = n
        self.dim = n - 1
        self.basis = difference_basis(n)

    def multiply(self, a, b):
        return _multiply(_as_vec(a, self.n), _as_vec(b, self.n))

    def permute(self, sigma, v):
        """Apply a permutation given as a tuple of images of 0..n-1."""
        return _permute(sigma, _as_vec(v, self.n))

    def adjacent_transpositions(self):
        return _adjacent_transpositions(self.n)

    def ad_matrix(self, e):
        """Matrix (columns over the difference basis) of x -> x * e."""
        return self._ad_matrix(_as_vec(e, self.n))

    def _ad_matrix(self, e):
        q, parts = over_common_denominator(dict(enumerate(e)))
        ints = [a for _, a, _ in parts]
        den = self.n * q
        cols = [diff_coords(_product(b, ints)) for b in self.basis]
        return [[Fraction(cols[j][i], den) for j in range(self.dim)] for i in range(self.dim)]

    def is_equivariant(self) -> bool:
        """sigma(b_i * b_j) = sigma(b_i) * sigma(b_j) for every adjacent
        transposition sigma and basis pair, compared on n times the product,
        which is integral on the integral basis."""
        for sigma in self.adjacent_transpositions():
            for bi in self.basis:
                for bj in self.basis:
                    lhs = _permute(sigma, _product(bi, bj))
                    rhs = _product(_permute(sigma, bi), _permute(sigma, bj))
                    if lhs != rhs:
                        return False
        return True


def build(n: int) -> PermAlgebra:
    return PermAlgebra(n)


def distinguished_idempotents(n: int):
    """The n axis vectors (n/(n-2)) * (e_i - (1/n) * sum e_j), unchecked: the
    i-th is w/(n-2) with w = n e_i - sum e_j integral.  Their idempotence is
    the "idempotents" row of `invariant_algebra_report`."""
    _require_n(n)
    return [tuple(Fraction(n - 1 if j == i else -1, n - 2) for j in range(n)) for i in range(n)]


def has_axis_spectrum(matrix, n: int) -> bool:
    """True exactly when the rational (n-1)x(n-1) matrix M is diagonalizable
    with spectrum {1: 1, -1/(n-2): n-2}, the claim for multiplication by an
    axis idempotent.

    M is cleared to N/D with N integral and D its least common denominator,
    and the test is a proof in three steps:
      1. (M - I)(M + I/(n-2)) = 0, checked as (N - D I)((n-2) N + D I) = 0.
         M is annihilated by a product of distinct linear factors, so it is
         diagonalizable with eigenvalues in {1, -1/(n-2)}.
      2. tr M = 0, checked as tr N = 0.
      3. The multiplicities m1 of 1 and m2 of -1/(n-2) then solve
         m1 + m2 = n - 1 and m1 - m2/(n-2) = 0, whose only solution is
         m1 = 1, m2 = n - 2.
    Conversely every diagonalizable matrix with that spectrum passes both
    checks.  The cost is one integer matrix product, against a characteristic
    polynomial for the oracle in the tests.
    """
    d = n - 1
    if len(matrix) != d or any(len(row) != d for row in matrix):
        return False
    D, parts = over_common_denominator(dict(enumerate(x for row in matrix for x in row)))
    flat = [a for _, a, _ in parts]
    N = [flat[i * d:(i + 1) * d] for i in range(d)]
    if sum(N[i][i] for i in range(d)):
        return False
    left = [[x - D if i == j else x for j, x in enumerate(row)] for i, row in enumerate(N)]
    right = [[(n - 2) * x + D if i == j else (n - 2) * x for j, x in enumerate(row)]
             for i, row in enumerate(N)]
    return not any(any(row) for row in mat_mul(left, right))


def enumerate_idempotents_n3():
    """Every solution of x*x = x in the n=3 algebra with the axis spectrum,
    found exhaustively.

    In the coordinates of Q^n, x*x = x reads x_i^2 - s/n = x_i with
    s = sum_j x_j^2, so every entry is a root of t^2 - t - s/n: r or 1 - r
    for one r.  If k entries equal r, the zero sum k r + (n - k)(1 - r) = 0
    forces r = (n - k)/(n - 2k) (at 2k = n it reads n/2 = 0, impossible; n = 3
    is odd).  So every idempotent is one of the vectors with r at a k-subset of
    the positions and 1 - r elsewhere; those with x*x = x exactly are kept
    and filtered by `has_axis_spectrum` at n = 3:
    multiplication by e is diagonalizable with eigenvalues 1 and -1.  Two
    distinct eigenvalues make every such matrix diagonalizable
    (Cayley-Hamilton), so this is the spectrum {1: 1, -1: 1}.
    """
    n = 3
    A = build(n)
    solutions = set()
    for k in range(n + 1):
        r = Fraction(n - k, n - 2 * k)
        for subset in itertools.combinations(range(n), k):
            x = tuple(r if i in subset else 1 - r for i in range(n))
            if _multiply(x, x) == x:
                solutions.add(x)
    return [x for x in sorted(solutions) if has_axis_spectrum(A._ad_matrix(x), n)]


def equivariant_product_space_dim(n: int) -> int:
    """Dimension of the space of symmetric bilinear maps M x M -> M commuting
    with the permutation action; 1 is the uniqueness statement in play."""
    _require_n(n)
    d = n - 1
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    pair_index = {p: k for k, p in enumerate(pairs)}
    nunk = len(pairs) * d

    def unk(i, j, k):
        if i > j:
            i, j = j, i
        return pair_index[(i, j)] * d + k

    # permutation matrices on M in the difference basis, which are integral
    sigmas = []
    for sigma in _adjacent_transpositions(n):
        cols = [diff_coords(_permute(sigma, b)) for b in difference_basis(n)]
        sigmas.append([[cols[j][i] for j in range(d)] for i in range(d)])

    rows = []
    for S in sigmas:
        for (i, j) in pairs:
            for k in range(d):
                # [sigma applied to (b_i * b_j)]_k minus [sigma(b_i) * sigma(b_j)]_k
                row = [0] * nunk
                for t in range(d):
                    row[unk(i, j, t)] += S[k][t]
                for p in range(d):
                    for q in range(d):
                        c = S[p][i] * S[q][j]
                        if c:
                            row[unk(p, q, k)] -= c
                if any(row):
                    rows.append(row)
    return nunk - rank(rows)


def nonassociativity_witness(n: int):
    """Returns ((f1*f1)*f2, f1*(f1*f2)) — unequal for every n >= 3 in play."""
    _require_n(n)
    f = distinguished_idempotents(n)
    left = _multiply(_multiply(f[0], f[0]), f[1])
    right = _multiply(f[0], _multiply(f[0], f[1]))
    return left, right


def invariant_algebra_report(rep, n_range) -> None:
    """Add the invariant-algebra checks across a range of n to the report rep.

    The axes are built unchecked, so a wrong product fails the "idempotents"
    row instead of ending the report.  The "ad-spectrum" row holds when
    `has_axis_spectrum` proves the spectrum {1: 1, -1/(n-2): n-2} for
    multiplication by every axis."""
    for n in n_range:
        A = build(n)
        rep.check(f"equivariance n={n}", "perm-algebra", True, A.is_equivariant())
        fs = distinguished_idempotents(n)
        ok_idem = all(_multiply(f, f) == f for f in fs)
        rep.check(f"idempotents n={n}", "axis-idempotents", True, ok_idem)
        ok_spec = all(has_axis_spectrum(A._ad_matrix(f), n) for f in fs)
        rep.check(f"ad-spectrum n={n}", "axis-spectrum", True, ok_spec)
        coords = [diff_coords(f) for f in fs]
        rep.check(f"idempotents span n={n}", "axis-span", n - 1, rank(coords))
        if n <= 6:
            left, right = nonassociativity_witness(n)
            rep.check(f"nonassociative n={n}", "nonassociativity", False, left == right)
            rep.check(
                f"equivariant products n={n}",
                "product-uniqueness",
                1,
                equivariant_product_space_dim(n),
            )
    survivors = enumerate_idempotents_n3()
    distinguished = sorted(tuple(v) for v in distinguished_idempotents(3))
    rep.check("n=3 exhaustive filter", "idempotent-enumeration", distinguished, survivors)
