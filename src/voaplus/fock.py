"""States of the rank-one even lattice Fock space.

The model works with the long generator g of the lattice, <g,g> = N (N a
positive even integer), so every structure constant downstream is rational.
A basis term is (sector m, partition): the partition lists the creation
indices j of the product of g(-j) applied to the sector-m ground vector.
Term weight is m^2 N / 2 + |partition|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, isqrt

from .numeric import Frozen, Scalar, ZERO, _partition_numbers, merge_into, over_common_denominator

Term = tuple[int, tuple[int, ...]]


class LatticeMismatch(ValueError):
    pass


def check_lattice(N: int):
    if not isinstance(N, int) or N <= 0 or N % 2:
        raise ValueError(f"lattice norm must be a positive even integer, got {N!r}")


def check_window(max_weight) -> int:
    """The top weight W of a window [0, W] as an int; ValueError unless
    max_weight equals an integer W >= 0: no silent truncation, no empty window."""
    refusal = f"max_weight must be an integer >= 0, got {max_weight!r}"
    try:
        W = int(max_weight)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        raise ValueError(refusal) from None
    if W != max_weight or W < 0:
        raise ValueError(refusal)
    return W


def term_weight(N: int, term: Term) -> int:
    """m^2 N/2 + |lam|, an integer since the lattice norm N is even."""
    m, lam = term
    return m * m * (N // 2) + sum(lam)


def _canonical_partition(parts) -> tuple[int, ...]:
    lam = tuple(sorted(parts, reverse=True))
    if any((not isinstance(p, int)) or p < 1 for p in lam):
        raise ValueError(f"partition parts must be positive integers, got {parts!r}")
    return lam


def _check_term(t) -> None:
    """Raise ValueError unless t is a term: an int sector and a partition
    given as a non-increasing tuple of positive ints."""
    if not (
        type(t) is tuple
        and len(t) == 2
        and isinstance(t[0], int)
        and type(t[1]) is tuple
        and _canonical_partition(t[1]) == t[1]
    ):
        raise ValueError(f"a term is (int sector, non-increasing tuple of positive ints), got {t!r}")


class State(Frozen):
    """A finite linear combination of Fock terms over one lattice.

    Wraps {term: Scalar} with no stored zeros; the constructor refuses a
    malformed term (see `_check_term`).  States add, subtract and scale;
    equality is structural, and equal States hash equal, so a State keys a
    dict.  Nothing writes to `terms` after construction, so a State derives
    its integer form (see `_integer_form`) once, on first use, and keeps it.
    """

    __slots__ = ("lattice", "terms", "_ints")

    def __init__(self, lattice: int, terms=None):
        check_lattice(lattice)
        object.__setattr__(self, "lattice", lattice)
        clean = {}
        if terms:
            for t, c in terms.items():
                _check_term(t)
                c = Scalar.coerce(c)
                if c:
                    clean[t] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, lattice: int, terms: dict) -> "State":
        """A State that takes ownership of terms, unchecked: the lattice must
        be valid and every coefficient a nonzero Scalar.  For values the
        package built itself."""
        s = object.__new__(cls)
        object.__setattr__(s, "lattice", lattice)
        object.__setattr__(s, "terms", terms)
        return s

    @classmethod
    def of_term(cls, lattice: int, sector: int, partition=(), coeff=1) -> "State":
        return cls(lattice, {(sector, _canonical_partition(partition)): Scalar.coerce(coeff)})

    @classmethod
    def vacuum(cls, lattice: int) -> "State":
        return cls.of_term(lattice, 0)

    @classmethod
    def omega(cls, lattice: int) -> "State":
        """The conformal vector (1/2N) g(-1)^2 applied to the vacuum."""
        return cls.of_term(lattice, 0, (1, 1), Fraction(1, 2 * lattice))

    def _combine(self, other, subtract: bool):
        """self + other, or self - other, from the Scalars both already hold,
        merged by `merge_into`."""
        if not isinstance(other, State):
            return NotImplemented
        if other.lattice != self.lattice:
            raise LatticeMismatch("cannot add states over different lattices")
        return State._of(self.lattice, merge_into(dict(self.terms), other.terms.items(), subtract))

    def __add__(self, other):
        return self._combine(other, False)

    def __sub__(self, other):
        return self._combine(other, True)

    def __neg__(self):
        return State._of(self.lattice, {t: -c for t, c in self.terms.items()})

    def __mul__(self, s):
        s = Scalar.coerce(s)
        if not s:
            return State._of(self.lattice, {})
        # a product of nonzero Gaussian rationals is nonzero
        return State._of(self.lattice, {t: s * c for t, c in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self.lattice == other.lattice and self.terms == other.terms

    def __hash__(self):
        return hash((self.lattice, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in the canonical (weight, sector, partition) order."""
        N = self.lattice
        return sorted(self.terms.items(), key=lambda it: (term_weight(N, it[0]),) + it[0][:1] + (it[0][1],))

    def _integer_form(self) -> tuple:
        """(D, [(term, a, b), ...], homogeneous): every coefficient as
        (a + b*i)/D over D, the least common denominator from
        `numeric.over_common_denominator`, and whether all terms share one
        weight.  Computed on first use and stored in the `_ints` slot."""
        try:
            return self._ints
        except AttributeError:
            pass
        # the lattice norm is even, so term weights are the integers m^2 N/2 + |lam|
        half = self.lattice // 2
        homogeneous = len({m * m * half + sum(lam) for m, lam in self.terms}) <= 1
        form = over_common_denominator(self.terms) + (homogeneous,)
        object.__setattr__(self, "_ints", form)
        return form

    def is_homogeneous(self) -> bool:
        return self._integer_form()[2]

    def weight(self):
        """Common (integer) weight of all terms; None for the zero state."""
        ws = {term_weight(self.lattice, t) for t in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("state is not homogeneous")
        return ws.pop()

    def __repr__(self):
        if not self.terms:
            return f"State(N={self.lattice}, 0)"
        bits = [f"({c})*[m={t[0]};{list(t[1])}]" for t, c in self.sorted_terms()]
        return f"State(N={self.lattice}, " + " + ".join(bits) + ")"


def heisenberg(k: int, s: State) -> State:
    """Apply g(k): creation for k<0, annihilation for k>0, mN scaling for k=0."""
    if not isinstance(k, int):
        raise ValueError("mode index must be an integer")
    N = s.lattice
    out: dict = {}

    def acc(term, coeff):
        if coeff:
            out[term] = out.get(term, ZERO) + coeff

    for (m, lam), c in s.terms.items():
        if k < 0:
            acc((m, _canonical_partition(lam + (-k,))), c)
        elif k == 0:
            acc((m, lam), c * (m * N))
        else:
            mult = lam.count(k)
            if mult:
                rest = list(lam)
                rest.remove(k)
                acc((m, tuple(rest)), c * (mult * k * N))
    return State(N, out)


def theta(s: State) -> State:
    """The parity involution: negate the sector, sign (-1)^(number of parts)."""
    out = {(-m, lam): -c if len(lam) % 2 else c for (m, lam), c in s.terms.items()}
    return State._of(s.lattice, out)


def z_partition(lam: tuple) -> int:
    """z_lam = prod j^c c! over the distinct parts j of the partition lam, c
    the multiplicity of j: the order of the centralizer of a permutation of
    cycle type lam."""
    z = 1
    for j in set(lam):
        c = lam.count(j)
        z *= j**c * factorial(c)
    return z


def form(s: State, t: State) -> Scalar:
    """Contravariant sesquilinear pairing, conjugate-linear in the first slot.

    Ground vectors of distinct sectors are orthogonal and have norm one; the
    adjoint of g(-k) is g(k), so a term of partition lam has norm
    z_lam N^len(lam), per distinct part j of multiplicity c the factor c! (jN)^c.
    """
    if not isinstance(s, State) or not isinstance(t, State):
        raise ValueError("form expects two states")
    if s.lattice != t.lattice:
        raise LatticeMismatch("form needs both states on the same lattice")
    N = s.lattice
    total = ZERO
    for term, c in s.terms.items():
        d = t.terms.get(term)
        if d is not None:
            lam = term[1]
            total = total + c.conjugate() * d * (z_partition(lam) * N ** len(lam))
    return total


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple:
    """All partitions of n with parts bounded by max_part, descending tuples."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partition_count(n: int) -> int:
    """p(n), from the one partition-number table `numeric._partition_numbers`."""
    return _partition_numbers(n + 1)[n] if n >= 0 else 0


def partition_count_by_parity(n: int) -> tuple[int, int]:
    """(number with evenly many parts, number with oddly many parts).

    Their difference d has sum_n d(n) q^n = prod 1/(1 + q^n) = prod (1 - q^n)
    / prod (1 - q^2n), Euler's sum_j (-1)^j q^(j(3j-1)/2), j in Z, times
    sum_m p(m) q^2m.  So d(n) sums (-1)^j p((n - g)/2) over the pentagonal
    numbers g = j(3j-1)/2 <= n with n - g even: O(sqrt n) terms, read from
    the one partition-number table `numeric._partition_numbers`.
    """
    if n < 0:
        return (0, 0)
    p = _partition_numbers(n + 1)
    d = 0
    j = 0
    while (g := j * (3 * j - 1) // 2) <= n:  # j = 0, 1, -1, 2, -2, ...: g increases
        if (n - g) % 2 == 0:
            d += -p[(n - g) // 2] if j % 2 else p[(n - g) // 2]
        j = -j if j > 0 else 1 - j
    return ((p[n] + d) // 2, (p[n] - d) // 2)


# A bound names one graded subspace of V_L by a rule (step d, theta-sign e):
# the span of the terms whose sector m is a multiple of d (d = 0: sector 0
# only), taken whole when e is None, else its theta-eigenspace of sign e.
# "full" is V_L, "plus" V_L^+, "efixed" V_{Z 2g}^+ (the plus space of norm
# 4N: at N = 2 the norm-8 plus space), and "pair+:0"/"pair-:0" the even and
# odd Heisenberg parts.  Every reader of a bound goes through `bound_rule`.
BOUNDS = {"full": (1, None), "plus": (1, 1), "efixed": (2, 1), "pair+:0": (0, 1), "pair-:0": (0, -1)}


def bound_rule(bound) -> tuple:
    """The (step, sign) rule of a bound name; ValueError for a name outside BOUNDS."""
    try:
        return BOUNDS[bound]
    except (KeyError, TypeError):
        raise ValueError(f"unknown bound {bound!r}; expected one of {tuple(BOUNDS)}") from None


def _in_step(m: int, step: int) -> bool:
    return m % step == 0 if step else m == 0


def _sectors_at_weight(N: int, w: int):
    top = isqrt((2 * w) // N) if w >= 0 else -1
    return [m for m in range(-top - 1, top + 2) if m * m * N <= 2 * w]


def _integer_weight(w):
    """w as an int when it is a nonnegative integer (int or Fraction), else None."""
    if type(w) is not int:
        w = Fraction(w)
        if w.denominator != 1:
            return None
        w = int(w)
    return w if w >= 0 else None


def weight_terms(N: int, w) -> list[Term]:
    """Every term of the given weight, in the canonical (sector, partition) order.

    This enumeration fixes the coordinate columns used by all exact linear
    algebra on graded pieces.
    """
    check_lattice(N)
    w = _integer_weight(w)
    if w is None:
        return []
    out = []
    for m in _sectors_at_weight(N, w):
        rest = w - (m * m * N) // 2
        for lam in sorted(partitions(rest)):
            out.append((m, lam))
    return out


def coordinates(s: State, w: int) -> list:
    """Dense coordinates of s on `weight_terms(s.lattice, w)`; a term outside
    that piece raises ValueError."""
    terms = weight_terms(s.lattice, w)
    if not s.terms.keys() <= set(terms):
        raise ValueError(f"state has a term outside the weight-{w} piece")
    return [s.terms.get(t, ZERO) for t in terms]


def graded_coordinates(N: int, w, bound="full") -> list[tuple]:
    """Deterministic basis of the weight-w piece of a bound (see `BOUNDS`),
    each vector as its ((term, sign), ...) pairs, coefficients sign = +-1,
    the leading term first with sign +1, in `weight_terms` order.

    Under a theta-sign e the vector of a sector m > 0 is the eigenvector
    (m, lam) + e (-1)^len(lam) (-m, lam), and a sector-0 term (0, lam) is
    kept when (-1)^len(lam) = e.
    """
    check_lattice(N)
    step, sign = bound_rule(bound)
    out: list = []
    for m, lam in weight_terms(N, w):
        if not _in_step(m, step) or (sign is not None and m < 0):
            continue
        if sign is None:
            out.append((((m, lam), 1),))
        elif m:  # theta (m, lam) = (-1)^len(lam) (-m, lam)
            out.append((((m, lam), 1), ((-m, lam), sign * (-1) ** len(lam))))
        elif (-1) ** len(lam) == sign:
            out.append((((0, lam), 1),))
    return out


def graded_basis(N: int, w, bound="full") -> list[State]:
    """The States of `graded_coordinates(N, w, bound)`."""
    coords = graded_coordinates(N, w, bound)
    return [State._of(N, {t: Scalar(sign) for t, sign in vec}) for vec in coords]


def graded_dim(N: int, w, bound="full") -> int:
    """Dimension of graded_basis(N, w, bound), computed by counting only."""
    check_lattice(N)
    step, sign = bound_rule(bound)
    w = _integer_weight(w)
    if w is None:
        return 0
    total = 0
    for m in {abs(m) for m in _sectors_at_weight(N, w) if _in_step(m, step)}:
        rest = w - (m * m * N) // 2
        if m:
            total += partition_count(rest) * (1 if sign else 2)
        else:
            even, odd = partition_count_by_parity(rest)
            total += {None: even + odd, 1: even, -1: odd}[sign]
    return total
