"""Exact vertex operator modes on the lattice Fock space.

Conventions, fixed once here:
  * Y(v,z) = sum_k v_k z^(-k-1); "coefficient of z^(-t)" means mode index t-1.
  * For a pure sector vector the operator is the classical exponential form
    (creation exponential) (annihilation exponential) (sector shift) z^(a m N),
    with trivial two-cocycle (every pairing a*b*N is even in rank one).
    The z-exponent reads the sector of the operand before the shift, and in
    normal-ordered expressions the zero mode g(0) stays on the annihilation
    side; both choices are forced by skew-symmetry and are tested.
  * A leading creation factor g(-j) is peeled off through the derivative
    normal-ordering rule, which turns it into the mode family
    C(n+j-1, j-1) g(n) attached at z^(-n-j).
  * Binomials use the polynomial extension C(x,r) = x(x-1)...(x-r+1)/r! for
    every integer x, read off `math.comb` by the reflection
    C(x, r) = (-1)^r C(r-x-1, r) when x < 0.
  * Term modes are integer numerators over room!, room the size of the
    result's partition, so no sector weight enters a denominator; the
    creation exponential gives a^len(nu)/z_nu, with room!/z_nu an integer
    (|nu|!/z_nu is a class size, and |nu| <= room).  `mode` reads each
    argument's integer form (`State._integer_form`: the terms over one
    common denominator and a homogeneity flag, computed once per State and
    kept, since States are immutable), accumulates Gaussian-integer pairs
    (r, i), and makes each output term as `Scalar._of(r, i, d)`.
  * A term table is one flat tuple (t0, c0, t1, c1, ...) of result terms and
    their nonzero numerators, read by taking each numerator with `next` from
    the iterator that gave its term; every empty table is the shared `_ZERO`.
    The tables are stored per term pair, {(N, a, lam, m, mu): {k: table}}:
    memory, not time, bounds the weight windows the sweeps reach, and a
    tuple costs a fraction of a dict with its own six-field key.
  * `mode` builds its result with the unchecked constructors `Scalar._of` and
    `State._of`: every d it passes is positive, `Scalar._of` reduces the
    triple by its gcd, and only nonzero terms are kept, so re-validation would
    check nothing.  No Fraction is built.  The public constructors keep every
    check for values from outside.
  * A term mode that is zero by weight, its result lighter than the floor
    (m+a)^2 N/2 of its sector m+a, is never computed or stored: `mode`
    skips its term pair before calling `_term_mode`, and the recursion
    visits no inner mode that is zero by weight.  Nor is a mode of
    the vacuum or of a single Heisenberg part h(-j)1 ever stored: each is read
    off in closed form, the vacuum's mode k as the identity at k = -1 and zero
    otherwise, and h(-j)1's as (-1)^(j-1) C(k, j-1) h(k - j + 1).
  * Each quantity of the recursion is derived once: `mode` computes room
    for each term pair and passes it down (annihilation keeps it, the
    creation of g(-t) passes room - t), so no partition is summed again;
    the creation monomials (nu, len(nu), z_nu) are cached per size, a
    created part is inserted into its sorted partition by bisection, and
    `mode` builds each output denominator dv dw room! once per term pair.

Everything is computed per graded component with no truncation: a mode of a
homogeneous state is exact.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import product as iter_product
from math import comb, factorial, perm
from operator import neg

from .numeric import Scalar
from .fock import State, partitions, z_partition

__all__ = ["mode", "virasoro", "bracket", "poly_binom", "clear_mode_cache"]


def poly_binom(x: int, r: int) -> int:
    """C(x, r) = x(x-1)...(x-r+1)/r! for any integer x; r < 0 gives 0.

    For x < 0 the falling factorial is (-1)^r (r-x-1)...(-x), so
    C(x, r) = (-1)^r C(r - x - 1, r)."""
    if r < 0:
        return 0
    if x >= 0:
        return comb(x, r)
    c = comb(r - x - 1, r)
    return -c if r % 2 else c


def _multiset(lam: tuple) -> dict:
    out: dict = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def _insert_part(parts: tuple, t: int) -> tuple:
    """The descending partition parts with one more part t."""
    i = bisect_left(parts, -t, key=neg)
    return parts[:i] + (t,) + parts[i:]


@lru_cache(maxsize=None)
def _creation_monomials(n: int) -> tuple:
    """(nu, len(nu), z_nu) for each partition nu of n, in `partitions` order,
    with z_nu from `fock.z_partition`."""
    return tuple((nu, len(nu), z_partition(nu)) for nu in partitions(n))


def _annihilate(N: int, n: int, m: int, mu: tuple) -> tuple:
    """h(n), n >= 0, on the term (m, mu), as (factor, parts of the result):
    h(0) is m N, and h(n) removes one part n with factor (count of n) n N."""
    if n == 0:
        return m * N, mu
    cnt = mu.count(n)
    if not cnt:
        return 0, mu
    i = mu.index(n)
    return cnt * n * N, mu[:i] + mu[i + 1:]


# Term-mode table {(N, a, lam, m, mu): {k: table}}, one group per term pair.
# `cli.run` empties it at the start of every invocation and before each part
# of `all`, so it lives for one report part.
_MODE_CACHE: dict = {}


def clear_mode_cache():
    _MODE_CACHE.clear()


# The empty term table, shared by every table without terms: the stored ones
# and the unstored zero closed forms (the vacuum at k != -1, or h(n) removing
# an absent part).
_ZERO: tuple = ()


def _flat(out: dict) -> tuple:
    """The nonzero entries of out as a term table (t0, c0, t1, c1, ...)."""
    flat = []
    for t, c in out.items():
        if c:
            flat += t, c
    return tuple(flat) if flat else _ZERO


def _lattice_term_mode(N: int, a: int, k: int, m: int, mu: tuple, room: int) -> tuple:
    """Mode k of the pure sector-a vector on the term (m, mu), over room!."""
    out: dict = {}
    base_power = a * m * N
    scale = factorial(room)
    mu_ms = _multiset(mu)
    parts_list = sorted(mu_ms)
    ranges = [range(mu_ms[p] + 1) for p in parts_list]
    for removal in iter_product(*ranges):
        ann = 1
        removed_weight = 0
        for p, r in zip(parts_list, removal):
            if r == 0:
                continue
            # (-a/p)^r/r! from the exponential, (pN)^r falling(c,r) from g(p)^r;
            # the p-powers cancel and falling(c,r)/r! is a binomial
            removed_weight += p * r
            ann *= ((-a) * N) ** r * poly_binom(mu_ms[p], r)
        if not ann:
            continue
        need = -k - 1 - base_power + removed_weight
        if need < 0:
            continue
        kept = []
        for p, r in zip(parts_list, removal):
            kept.extend([p] * (mu_ms[p] - r))
        for nu, length, z_nu in _creation_monomials(need):
            # creation factor a^len(nu)/z_nu; room!/z_nu is an integer
            # because need <= room and need!/z_nu is a class size
            term = (m + a, tuple(sorted(kept + list(nu), reverse=True)))
            out[term] = out.get(term, 0) + ann * a**length * (scale // z_nu)
    return _flat(out)


def _term_mode(N: int, a: int, lam: tuple, k: int, m: int, mu: tuple, room: int) -> tuple:
    """Mode k of the single term (a, lam) applied to the single term (m, mu),
    as a term table.

    Integer numerators over room!, room = |lam| + |mu| - k - 1 - a m N the
    size of every result partition, which the caller passes and must have
    checked is nonnegative (a negative room is zero by weight, see `mode`).
    """
    if a == 0 and len(lam) < 2:
        # closed forms, never stored: the vacuum's Y is the identity, and
        # h(-j)1's is d^(j-1)h(z)/(j-1)!, with mode k (-1)^(j-1) C(k, j-1) h(n)
        if not lam:
            c = 1 if k == -1 else 0
        else:
            j = lam[0]
            n = k - j + 1
            if n >= 0:
                c, mu = _annihilate(N, n, m, mu)
            else:
                c, mu = 1, _insert_part(mu, -n)
            c *= (-1) ** (j - 1) * poly_binom(k, j - 1)
        if not c:
            return _ZERO
        return (m, mu), c * factorial(room)
    key = (N, a, lam, m, mu)
    group = _MODE_CACHE.get(key)
    if group is None:
        group = _MODE_CACHE[key] = {}
    else:
        hit = group.get(k)
        if hit is not None:
            return hit

    if not lam:
        group[k] = result = _lattice_term_mode(N, a, k, m, mu, room)
        return result

    j, rest = lam[0], lam[1:]
    out: dict = {}
    # (1/(j-1)!) d^(j-1)/dz^(j-1) of g(n) z^(-n-1) is
    # (-1)^(j-1) C(n+j-1, j-1) g(n) z^(-n-j)
    sign = -1 if (j - 1) % 2 else 1

    # annihilation side: g(n), n >= 0, acts on (m, mu) first; the inner
    # result already has partitions of size room, so it shares the denominator
    ann_indices = ([0] if m else []) + sorted(set(mu))
    for n in ann_indices:
        hscale, inner_mu = _annihilate(N, n, m, mu)
        inner = _term_mode(N, a, rest, k - n - j, m, inner_mu, room)
        if inner:
            factor = sign * comb(n + j - 1, j - 1) * hscale
            it = iter(inner)
            for t in it:
                out[t] = out.get(t, 0) + next(it) * factor

    # creation side: g(-t), t >= 1, applied after the inner mode, whose
    # result has partitions of size room - t and is lifted by room!/(room - t)!;
    # sign * C(j-1-t, j-1) is 0 for 1 <= t < j and C(t-1, j-1) for t >= j,
    # and the inner result is zero by weight once t > room
    lift = perm(room, j - 1)
    for t in range(j, room + 1):
        lift *= room - t + 1
        inner = _term_mode(N, a, rest, k + t - j, m, mu, room - t)
        if inner:
            factor = comb(t - 1, j - 1) * lift
            it = iter(inner)
            for mm, ll in it:
                term = (mm, _insert_part(ll, t))
                out[term] = out.get(term, 0) + next(it) * factor

    group[k] = result = _flat(out)
    return result


def mode(v: State, k: int, w: State) -> State:
    """The k-th mode of v applied to w; v must be homogeneous.

    The result is the single graded component of weight wt(v) + wt(w) - k - 1
    (per homogeneous component of w), computed exactly.
    """
    if not isinstance(v, State) or not isinstance(w, State):
        raise ValueError("mode expects two states")
    if v.lattice != w.lattice:
        raise ValueError("mode needs both states on the same lattice")
    if not isinstance(k, int):
        raise ValueError("mode index must be an integer")
    dv, v_int, v_homogeneous = v._integer_form()
    if not v_homogeneous:
        raise ValueError("mode requires a homogeneous first argument")
    N = v.lattice
    dw, w_int, _ = w._integer_form()
    dvw = dv * dw
    acc: dict = {}
    for (a, lam), vr, vi in v_int:
        lam_room = sum(lam) - k - 1
        for (m, mu), wr, wi in w_int:
            # the result (m+a, nu) weighs (a^2+m^2)N/2 + |lam| + |mu| - k - 1,
            # and no term of sector m+a weighs less than (m+a)^2 N/2, so it
            # is zero unless room, its excess over that floor, which is |nu|,
            # is nonnegative
            room = lam_room + sum(mu) - a * m * N
            if room < 0:
                continue
            sub = _term_mode(N, a, lam, k, m, mu, room)
            if not sub:
                continue
            # every term of the pair has |nu| = room, so its denominator is
            # dv dw room!, kept beside its sums
            d = dvw * factorial(room)
            ccr, cci = vr * wr - vi * wi, vr * wi + vi * wr
            it = iter(sub)
            for t in it:
                c = next(it)
                pr, pi, _ = acc.get(t, (0, 0, d))
                acc[t] = (pr + ccr * c, pi + cci * c, d)
    out = {t: Scalar._of(r, i, d) for t, (r, i, d) in acc.items() if r or i}
    return State._of(N, out)


@lru_cache(maxsize=None)
def _omega(N: int) -> State:
    """The conformal vector, built once per lattice (States are immutable)."""
    return State.omega(N)


def virasoro(k: int, w: State) -> State:
    """L(k) acting on w: the (k+1)-st mode of the conformal vector."""
    if not isinstance(w, State):
        raise ValueError("mode expects two states")
    return mode(_omega(w.lattice), k + 1, w)


def bracket(a: State, b: State) -> State:
    """Zero-mode bracket on the weight-one piece of the N=2 lattice algebra."""
    for s in (a, b):
        if not isinstance(s, State) or s.lattice != 2:
            raise ValueError("bracket is defined on the N=2 lattice")
        if s and s.weight() != 1:
            raise ValueError("bracket arguments must be homogeneous of weight one")
    return mode(a, 0, b)
