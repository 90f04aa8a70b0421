"""Exact scalars and truncated q-series.

Every number in the package is a Gaussian rational (Scalar).  Characters live
in QSeries: finitely many exact coefficients on exponents lying in (1/24)*Z,
cut off below a rational order.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt

# exponent bookkeeping: a series exponent e is stored as the integer 24*e
DEN = 24


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Scalar:
    """A Gaussian rational re + im*i with reduced Fraction parts.

    Immutable; equality and hashing are structural, so Scalars can key dicts.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    @classmethod
    def _of(cls, re: Fraction, im: Fraction) -> "Scalar":
        """A Scalar from parts that are already Fractions, unchecked; for
        values the package built itself."""
        s = object.__new__(cls)
        object.__setattr__(s, "re", re)
        object.__setattr__(s, "im", im)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(as_fraction(x))

    def __add__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __neg__(self):
        return Scalar._of(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = Scalar.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar(a * c)
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return Scalar(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("Scalar powers must be integers")
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def fraction_str(x: Fraction) -> str:
    return str(as_fraction(x))


class QSeriesError(ValueError):
    pass


class DecompositionError(QSeriesError):
    """Greedy peel failed; carries the offending exponent."""

    def __init__(self, message, exponent: Fraction):
        super().__init__(message)
        self.exponent = exponent


def _key(e) -> int:
    e = as_fraction(e)
    k = e * DEN
    if k.denominator != 1:
        raise QSeriesError(f"exponent {e} is not a multiple of 1/{DEN}")
    return k.numerator


class QSeries:
    """Truncated series sum c_e q^e with exponents in (1/24)*Z below `order`.

    Coefficients are Scalars keyed by 24*e; zeros are never stored.  Addition
    and multiplication propagate the minimum order of the operands, so a
    coefficient can be trusted exactly whenever its exponent is below order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs=None):
        object.__setattr__(self, "order", as_fraction(order))
        clean = {}
        if coeffs:
            cutoff = self.order * DEN
            for k, c in coeffs.items():
                c = Scalar.coerce(c)
                if not c:
                    continue
                if k >= cutoff:
                    continue
                clean[k] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def zero(cls, order) -> "QSeries":
        return cls(order, {})

    @classmethod
    def monomial(cls, exponent, order, coeff=1) -> "QSeries":
        return cls(order, {_key(exponent): Scalar.coerce(coeff)})

    @classmethod
    def one(cls, order) -> "QSeries":
        return cls.monomial(0, order)

    def coeff(self, exponent) -> Scalar:
        e = as_fraction(exponent)
        if e >= self.order:
            raise QSeriesError(f"exponent {e} is at or beyond the series order {self.order}")
        return self.coeffs.get(_key(e), ZERO)

    def support(self):
        return [Fraction(k, DEN) for k in sorted(self.coeffs)]

    def min_exponent(self):
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), DEN)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, ZERO) + c
        return QSeries(order, out)

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, s) -> "QSeries":
        s = Scalar.coerce(s)
        return QSeries(self.order, {k: s * c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        cutoff = order * DEN
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k >= cutoff:
                    continue
                out[k] = out.get(k, ZERO) + c1 * c2
        return QSeries(order, out)

    def shift(self, exponent) -> "QSeries":
        """Multiply by the exact monomial q^exponent (precision window shifts too)."""
        d = _key(exponent)
        e = as_fraction(exponent)
        return QSeries(self.order + e, {k + d: c for k, c in self.coeffs.items()})

    def truncate(self, order) -> "QSeries":
        order = as_fraction(order)
        if order > self.order:
            raise QSeriesError("cannot raise the order of a truncated series")
        return QSeries(order, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e in self.support()[:8]:
                parts.append(f"({self.coeffs[_key(e)]})q^{e}")
            body = " + ".join(parts)
            if len(self.coeffs) > 8:
                body += " + ..."
        return f"{body} + O(q^{self.order})"


# p(0), p(1), ...: the partition numbers computed so far.  Extensions build a
# new list and rebind the name, so a list once handed out never changes.
_PARTITIONS = [1]


def _partition_numbers(n: int) -> list:
    """A list holding at least p(0)..p(n-1), by Euler's pentagonal recurrence

    p(k) = sum_{j>=1} (-1)^(j+1) [p(k - j(3j-1)/2) + p(k - j(3j+1)/2)].
    """
    global _PARTITIONS
    p = _PARTITIONS
    if len(p) >= n:
        return p
    p = list(p)
    for k in range(len(p), n):
        total = 0
        j = 1
        while (g := j * (3 * j - 1) // 2) <= k:
            term = p[k - g] + (p[k - g - j] if g + j <= k else 0)
            total += term if j % 2 else -term
            j += 1
        p.append(total)
    _PARTITIONS = p
    return p


def _geometric_inverse_product(order: Fraction) -> QSeries:
    # prod_{n>=1} 1/(1-q^n) = sum p(n) q^n truncated below `order`, honest for any order
    count = max(0, ceil(order))  # the integers 0 <= n < order
    p = _partition_numbers(count)
    return QSeries(order, {n * DEN: p[n] for n in range(count)})


def eta(order) -> QSeries:
    """q^(1/24) prod_{n>=1} (1-q^n), truncated below `order`."""
    order = as_fraction(order)
    if order <= Fraction(1, 24):
        raise QSeriesError("eta needs order > 1/24 to hold its leading term")
    rel = order - Fraction(1, 24)
    out = QSeries.one(rel)
    n = 1
    while n < rel:
        out = out * QSeries(rel, {_key(0): ONE, _key(n): Scalar(-1)})
        n += 1
    return out.shift(Fraction(1, 24))


def eta_inverse(order) -> QSeries:
    """1/eta = q^(-1/24) sum p(k) q^k, truncated below `order`."""
    order = as_fraction(order)
    rel = order + Fraction(1, 24)
    return _geometric_inverse_product(rel).shift(Fraction(-1, 24))


def _even_square_root(h: Fraction):
    # return integer n >= 0 with h = n^2/4, else None
    t = 4 * h
    if t.denominator != 1 or t < 0:
        return None
    n = isqrt(t.numerator)
    return n if n * n == t.numerator else None


def virasoro_character(h, order) -> QSeries:
    """Graded dimension of the irreducible central-charge-one module of weight h.

    (q^(n^2/4) - q^((n+2)^2/4)) / eta when h = n^2/4 for an integer n >= 0,
    and q^h / eta otherwise.
    """
    h = as_fraction(h)
    order = as_fraction(order)
    if h < 0:
        raise QSeriesError("module weight must be nonnegative")
    _key(h)  # validates the 1/24 grid
    n = _even_square_root(h)
    if n is not None:
        a, b = h, Fraction((n + 2) ** 2, 4)
        out = eta_inverse(order - a).shift(a)
        if order - b > Fraction(-1, 24):
            out = out - eta_inverse(order - b).shift(b)
        return out.truncate(order)
    return eta_inverse(order - h).shift(h).truncate(order)


def sector_character(m: int, N: int, order) -> QSeries:
    """q^(m^2 N / 2) / eta: graded dimension of one lattice-translate Fock sector."""
    if not isinstance(N, int) or N <= 0 or N % 2:
        raise QSeriesError("lattice norm N must be a positive even integer")
    order = as_fraction(order)
    h = Fraction(m * m * N, 2)
    return eta_inverse(order - h).shift(h).truncate(order)


def decompose(target: QSeries, weights) -> list:
    """Greedy peel of `target` into characters of the given candidate weights.

    Repeatedly reads the lowest unexplained exponent, matches it to a candidate
    weight h (the character of weight h leads at exponent h - 1/24), subtracts
    multiplicity * character, and stops when the residual vanishes below the
    precision horizon.  Returns [(weight, multiplicity)] in peel order.
    """
    weight_set = {as_fraction(w) for w in weights}
    order = target.order
    residual = target
    out = []
    while True:
        e = residual.min_exponent()
        if e is None:
            return out
        h = e + Fraction(1, 24)
        if h not in weight_set:
            raise DecompositionError(
                f"residual exponent {e} matches no candidate weight", exponent=e
            )
        mult = residual.coeffs[_key(e)]
        if not mult.is_integer() or mult.re <= 0:
            raise DecompositionError(
                f"residual coefficient {mult} at exponent {e} is not a positive integer",
                exponent=e,
            )
        m = int(mult.re)
        residual = residual - virasoro_character(h, order).scale(m)
        out.append((h, m))


def telescoping_check(m: int, k: int, order) -> bool:
    """Whether q^((mk)^2)/eta telescopes into sum_p char((mk+p)^2) below `order`.

    The lattice norm in play is N = 2k^2, so the sector exponent m^2 N/2 equals
    (mk)^2 and each summand leads at (mk+p)^2 - 1/24.
    """
    if k < 1:
        raise QSeriesError("k must be a positive integer")
    if m < 0:
        raise QSeriesError("m must be a nonnegative integer")
    order = as_fraction(order)
    lhs = sector_character(m, 2 * k * k, order)
    rhs = QSeries.zero(order)
    p = 0
    while Fraction((m * k + p) ** 2) - Fraction(1, 24) < order:
        rhs = rhs + virasoro_character(Fraction((m * k + p) ** 2), order)
        p += 1
    return (lhs - rhs).is_zero()
