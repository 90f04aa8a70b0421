"""Exact scalars and truncated q-series.

Every number in the package is a Gaussian rational (Scalar).  Characters live
in QSeries: finitely many exact coefficients on exponents lying in (1/24)*Z,
cut off below a rational order.  No floating point anywhere.

The central-charge-one conventions live here alone: `visible_weights` is the
one rule for which weight-h characters, leading at q^(h - 1/24), show below an
order; `graded_character` and `graded_dims` write and read q^(-1/24) sum d_w q^w.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd, isqrt, lcm

# exponent bookkeeping: a series exponent e is stored as the integer 24*e
DEN = 24
# c/24 at c = 1: the weight-h character leads at q^(h - SHIFT)
SHIFT = Fraction(1, DEN)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Frozen:
    """Base of the immutable value types: setting or deleting an attribute
    raises AttributeError.  Constructors write their slots past the guard
    with object.__setattr__ (or a slot's own __set__)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """A Frozen value that is its slots: `__init__` stores them in order, it
    equals only an instance of its own type with equal slots, and it hashes
    and prints by them."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def merge_into(out: dict, pairs, subtract: bool) -> dict:
    """out + pairs, or out - pairs, in place and returned: out maps keys to
    nonzero values and pairs yields (key, value) with nonzero values; a key
    keeps its place in out and leaves it when it cancels."""
    for k, c in pairs:
        old = out.get(k)
        if old is None:
            out[k] = -c if subtract else c
            continue
        c = old - c if subtract else old + c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


class Scalar(Frozen):
    """A Gaussian rational (a + b*i)/d, stored as the integer triple
    `abd` = (a, b, d) with d > 0 and gcd(a, b, d) = 1.

    The triple is canonical, so equal values have equal triples; equality
    reads it, and a real value hashes as the int or Fraction it equals, so
    Scalars key dicts beside those.  Arithmetic stays on ints
    and reduces each result by one three-argument gcd.  `re` and `im` give
    the parts as Fractions for readers at the edges.  Immutable.
    """

    __slots__ = ("abd",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            _set_abd(self, (re, im, 1))
            return
        re = as_fraction(re)
        if type(im) is int and not im:
            _set_abd(self, (re.numerator, 0, re.denominator))
            return
        im = as_fraction(im)
        # reduced parts over their lcm give a reduced triple
        d = lcm(re.denominator, im.denominator)
        _set_abd(self, (re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d))

    @staticmethod
    def _of(a: int, b: int, d: int) -> "Scalar":
        """(a + b*i)/d from ints with d > 0, reduced but otherwise unchecked;
        for values the package built itself."""
        return _reduced(a, b, d)

    @property
    def re(self) -> Fraction:
        a, _, d = self.abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self.abd
        return Fraction(b, d)

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(x)

    def __add__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        a, b, d = self.abd
        c, e, f = other.abd
        if d == f:
            if d == 1:
                return _triple(a + c, b + e, 1)
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar(other)
        a, b, d = self.abd
        c, e, f = other.abd
        if d == f:
            if d == 1:
                return _triple(a - c, b - e, 1)
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return Scalar.coerce(other) - self

    def __neg__(self):
        a, b, d = self.abd
        return _triple(-a, -b, d)

    def __mul__(self, other):
        a, b, d = self.abd
        if type(other) is not Scalar:
            if isinstance(other, int):
                return _reduced(a * other, b * other, d)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = Scalar(other)
        c, e, f = other.abd
        if not b and not e:
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self.abd
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b, d = self.abd
        c, e, f = Scalar.coerce(other).abd
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("inverse of zero Scalar")
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)

    def __rtruediv__(self, other):
        return Scalar.coerce(other) / self

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
        a, b, d = self.abd
        return _triple(a, -b, d)

    def is_zero(self) -> bool:
        a, b, _ = self.abd
        return not a and not b

    def __bool__(self):
        a, b, _ = self.abd
        return a != 0 or b != 0

    def is_integer(self) -> bool:
        _, b, d = self.abd
        return not b and d == 1

    def __eq__(self, other):
        if type(other) is Scalar:
            return self.abd == other.abd
        if isinstance(other, int):
            return self.abd == (other, 0, 1)
        if isinstance(other, Fraction):
            return self.abd == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        a, b, d = self.abd
        if b:
            return hash(self.abd)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


_set_abd = Scalar.abd.__set__  # writes the slot past the immutability guard
_new = object.__new__


def _triple(a: int, b: int, d: int) -> Scalar:
    """The Scalar with triple (a, b, d), which must already be canonical."""
    s = _new(Scalar)
    _set_abd(s, (a, b, d))
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    s = _new(Scalar)
    _set_abd(s, (a, b, d))
    return s


def over_common_denominator(entries: dict) -> tuple:
    """(D, [(key, a, b), ...]): every entry, a Scalar, int or Fraction, as
    (a + b*i)/D over D, the least common denominator of all of them."""
    parts = []
    den = 1
    for k, x in entries.items():
        if type(x) is Scalar:
            a, b, d = x.abd
        elif isinstance(x, int):
            a, b, d = x, 0, 1
        else:
            x = as_fraction(x)
            a, b, d = x.numerator, 0, x.denominator
        if d != 1:
            den = lcm(den, d)
        parts.append((k, a, b, d))
    if den == 1:
        return 1, [(k, a, b) for k, a, b, _ in parts]
    return den, [(k, a * (den // d), b * (den // d)) for k, a, b, d in parts]


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


class QSeries(Frozen):
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
            cutoff = ceil(self.order * DEN)  # integer keys below order*DEN
            for k, c in coeffs.items():
                if type(c) is not Scalar:
                    c = Scalar.coerce(c)
                if k < cutoff and c:
                    clean[k] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _of(cls, order: Fraction, coeffs: dict) -> "QSeries":
        """A QSeries that takes ownership of coeffs, unchecked: order must be a
        Fraction and every coefficient a nonzero Scalar keyed below
        ceil(order * 24).  For values the package built itself."""
        s = object.__new__(cls)
        object.__setattr__(s, "order", order)
        object.__setattr__(s, "coeffs", coeffs)
        return s

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

    def _below(self, order: Fraction) -> dict:
        """The coefficients of exponents below order <= self.order: all of
        them, not copied, when order is the series' own."""
        if order == self.order:
            return self.coeffs
        cutoff = ceil(order * DEN)
        return {k: c for k, c in self.coeffs.items() if k < cutoff}

    def _combine(self, other, subtract: bool):
        """self + other, or self - other, below the lower of the two orders:
        each drops its keys at or above that order, then `merge_into` merges
        them."""
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = merge_into(dict(self._below(order)), other._below(order).items(), subtract)
        return QSeries._of(order, out)

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def scale(self, s) -> "QSeries":
        s = Scalar.coerce(s)
        if not s:
            return QSeries._of(self.order, {})
        # a product of nonzero Gaussian rationals is nonzero
        return QSeries._of(self.order, {k: s * c for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        cutoff = ceil(order * DEN)
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                if k >= cutoff:
                    continue
                out[k] = out.get(k, ZERO) + c1 * c2
        return QSeries._of(order, {k: c for k, c in out.items() if c})

    def shift(self, exponent) -> "QSeries":
        """Multiply by the exact monomial q^exponent (precision window shifts too)."""
        d = _key(exponent)
        # the cutoff moves by d too, so every key stays below it
        return QSeries._of(self.order + as_fraction(exponent), {k + d: c for k, c in self.coeffs.items()})

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
    return QSeries._of(order, {n * DEN: _triple(p[n], 0, 1) for n in range(count)})


def eta(order) -> QSeries:
    """q^(1/24) prod_{n>=1} (1-q^n), truncated below `order`."""
    order = as_fraction(order)
    if order <= SHIFT:
        raise QSeriesError("eta needs order > 1/24 to hold its leading term")
    rel = order - SHIFT
    out = QSeries.one(rel)
    n = 1
    while n < rel:
        out = out * QSeries(rel, {_key(0): ONE, _key(n): Scalar(-1)})
        n += 1
    return out.shift(SHIFT)


def eta_inverse(order) -> QSeries:
    """1/eta = q^(-1/24) sum p(k) q^k, truncated below `order`."""
    order = as_fraction(order)
    rel = order + SHIFT
    return _geometric_inverse_product(rel).shift(-SHIFT)


def exact_square_root(x):
    """The integer r >= 0 with r^2 = x for an int or Fraction x, else None."""
    x = Fraction(x)
    if x.denominator != 1 or x < 0:
        return None
    r = isqrt(x.numerator)
    return r if r * r == x else None


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
    n = exact_square_root(4 * h)
    if n is not None:
        a, b = h, Fraction((n + 2) ** 2, 4)
        out = eta_inverse(order - a).shift(a)
        if order - b > -SHIFT:
            out = out - eta_inverse(order - b).shift(b)
        return out
    return eta_inverse(order - h).shift(h)


def sector_character(m: int, N: int, order) -> QSeries:
    """q^(m^2 N / 2) / eta: graded dimension of one lattice-translate Fock sector."""
    if not isinstance(N, int) or N <= 0 or N % 2:
        raise QSeriesError("lattice norm N must be a positive even integer")
    order = as_fraction(order)
    h = Fraction(m * m * N, 2)
    return eta_inverse(order - h).shift(h)


def visible_weights(order, weight, mult=lambda n: 1, start=0) -> dict:
    """{h: multiplicity} of the weights h = weight(n), n = start, start + 1,
    ..., increasing in n, whose characters show below `order` (h - 1/24 <
    order); equal weights add their multiplicities mult(n)."""
    bound = as_fraction(order) + SHIFT  # h - 1/24 < order exactly when h < bound
    out: dict = {}
    n = start
    while (h := weight(n)) < bound:
        h = as_fraction(h)
        out[h] = out.get(h, 0) + mult(n)
        n += 1
    return out


def graded_character(dim, order) -> QSeries:
    """q^(-1/24) sum_w dim(w) q^w below `order`: the character of a space
    whose weight-w piece has dimension dim(w), w = 0, 1, ...."""
    dims = visible_weights(order, lambda w: w, dim)
    # the weights are integers, so q^(w - 1/24) has the key 24w - 1
    return QSeries(order, {DEN * w.numerator - 1: d for w, d in dims.items()})


def graded_dims(series: QSeries, max_weight: int) -> list:
    """[d_0, ..., d_W], W = max_weight: the coefficients of q^(w - 1/24) in
    the series, as ints, None where a coefficient is not an integer."""
    coeffs = [series.coeff(w - SHIFT) for w in range(max_weight + 1)]
    return [int(c.re) if c.is_integer() else None for c in coeffs]


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
        h = e + SHIFT
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
    visible = visible_weights(order, lambda p: (m * k + p) ** 2)
    rhs = sum((virasoro_character(h, order) for h in visible), QSeries.zero(order))
    return (lhs - rhs).is_zero()
