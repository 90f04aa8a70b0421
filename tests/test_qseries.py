"""Series layer: eta products, characters, decomposition, telescoping."""

from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voaplus import numeric
from voaplus.fock import graded_dim, partition_count, partition_count_by_parity
from voaplus.numeric import (
    DEN,
    DecompositionError,
    ONE,
    QSeries,
    QSeriesError,
    Scalar,
    ZERO,
    decompose,
    eta,
    eta_inverse,
    graded_character,
    graded_dims,
    sector_character,
    telescoping_check,
    virasoro_character,
    visible_weights,
)

ORDER = Fraction(30)


def _eta_inverse_by_product(order) -> QSeries:
    """Oracle: q^(-1/24) prod_{n>=1} 1/(1-q^n), multiplied out factor by factor."""
    rel = Fraction(order) + Fraction(1, 24)
    out = QSeries.one(rel)  # the zero series when rel <= 0
    n = 1
    while n < rel:
        geom = {}
        r = 0
        while n * r < rel:
            geom[n * r * DEN] = Scalar(1)
            r += 1
        out = out * QSeries(rel, geom)
        n += 1
    return out.shift(Fraction(-1, 24))


def _partitions_by_table(n: int) -> tuple:
    """Oracle: ([even(0), ..., even(n)], [odd(0), ..., odd(n)]), the numbers of
    partitions with evenly and with oddly many parts, from the O(n^2) table
    that admits one part size at a time."""
    even = [1] + [0] * n
    odd = [0] * (n + 1)
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            even[total], odd[total] = even[total] + odd[total - part], odd[total] + even[total - part]
    return even, odd


_small = st.integers(-6, 6)
_part = st.builds(Fraction, _small, st.integers(1, 6)) | _small
_scalar = st.builds(Scalar, _part, _part)


def _oracle(s: Scalar) -> tuple:
    return (s.re, s.im)


def _canonical(s: Scalar) -> bool:
    a, b, d = s.abd
    return all(type(x) is int for x in s.abd) and d > 0 and gcd(a, b, d) == 1


def _product(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _quotient(x: tuple, y: tuple) -> tuple:
    n = y[0] * y[0] + y[1] * y[1]
    return _product(x, (y[0] / n, -y[1] / n))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(x=_scalar, y=_scalar, k=st.integers(-3, 4), n=_part)
@example(x=Scalar(Fraction(1, 2), 3), y=Scalar(2, -1), k=-2, n=Fraction(1, 2))
@example(x=Scalar(0, 1), y=Scalar(0), k=2, n=0)
def test_scalar_arithmetic(x, y, k, n):
    """Every operation agrees with a (Fraction, Fraction) oracle, every result
    is in canonical form (d > 0, gcd(a, b, d) = 1), equal values are equal
    triples with equal hashes, a real result hashes as its Fraction and int
    and finds them in dicts and sets, and int or Fraction operands mix in."""
    fx, fy = _oracle(x), _oracle(y)
    fn = (Fraction(n), Fraction(0))
    cases = [
        (x + y, (fx[0] + fy[0], fx[1] + fy[1])),
        (x - y, (fx[0] - fy[0], fx[1] - fy[1])),
        (x * y, _product(fx, fy)),
        (-x, (-fx[0], -fx[1])),
        (x.conjugate(), (fx[0], -fx[1])),
        (x + n, (fx[0] + fn[0], fx[1])),
        (n + x, (fx[0] + fn[0], fx[1])),
        (x - n, (fx[0] - fn[0], fx[1])),
        (n - x, (fn[0] - fx[0], -fx[1])),
        (x * n, _product(fx, fn)),
        (n * x, _product(fx, fn)),
    ]
    if y:
        cases += [(x / y, _quotient(fx, fy)), (n / y, _quotient(fn, fy)), (y.inverse(), _quotient((1, 0), fy))]
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    if n:
        cases.append((x / n, _quotient(fx, fn)))
    if k >= 0 or x:
        want = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            want = _product(want, fx)
        cases.append((x**k, want if k >= 0 else _quotient((1, 0), want)))
    for got, want in cases:
        assert _canonical(got)
        assert _oracle(got) == want
        assert got == Scalar(*want) and hash(got) == hash(Scalar(*want))
        if not want[1]:
            plain = [want[0]]
            if want[0].denominator == 1:
                plain.append(int(want[0]))
            for p in plain:
                assert hash(got) == hash(p)
                assert {got: "x"}.get(p) == "x" and {p: "x"}.get(got) == "x"
                assert got in {p} and p in {got}
    assert (x == y) == (fx == fy)
    assert bool(x) == (fx != (0, 0)) == (not x.is_zero())
    assert x.is_integer() == (fx[1] == 0 and fx[0].denominator == 1)
    assert (x == n) == (fx == fn)


def test_scalar_routes_to_one_value_hash_equal():
    routes = [Scalar(Fraction(2, 4)), Scalar._of(1, 0, 2), Scalar._of(3, 0, 6), ONE / 2]
    routes += [Scalar(1) - Scalar(Fraction(1, 2)), Scalar(0, 1) * Scalar(0, Fraction(-1, 2))]
    assert all(r == Fraction(1, 2) and r.abd == (1, 0, 2) for r in routes)
    assert len({hash(r) for r in routes}) == 1
    assert Scalar._of(0, 0, 7).abd == ZERO.abd == (0, 0, 1)
    assert Scalar._of(6, -4, 8).abd == (3, -2, 4)


@pytest.mark.parametrize("bad", [0.5, "1/2", None, 1j])
def test_scalar_refuses_what_is_not_int_or_fraction(bad):
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(1, bad)
    with pytest.raises(TypeError):
        Scalar.coerce(bad)
    with pytest.raises(AttributeError):
        ONE.abd = (2, 0, 1)


def test_qseries_grid_and_coeff_window():
    s = QSeries.monomial(Fraction(5, 24), ORDER)
    assert s.coeff(Fraction(5, 24)) == Scalar(1)
    assert s.coeff(Fraction(7, 24)) == Scalar(0)
    with pytest.raises(QSeriesError):
        s.coeff(ORDER)  # at/beyond the precision horizon
    with pytest.raises(QSeriesError):
        QSeries.monomial(Fraction(1, 5), ORDER)  # off the 1/24 grid


def test_qseries_product_truncates_to_min_order():
    a = QSeries.monomial(2, Fraction(10))
    b = QSeries.monomial(3, Fraction(6))
    prod = a * b
    assert prod.order == Fraction(6)
    assert prod.coeff(5) == Scalar(1)  # 2+3=5 still below the joint horizon
    clipped = QSeries.monomial(4, Fraction(10)) * b
    assert clipped.is_zero()  # 4+3=7 falls beyond order 6


def test_qseries_difference_cancels_and_cuts_at_the_lower_order():
    a = QSeries(Fraction(10), {0: 1, 24: Scalar(0, 1), 144: 5})
    b = QSeries(Fraction(6), {0: 1, 24: 2, 48: Fraction(1, 3)})
    diff = a - b
    assert diff.order == Fraction(6)
    assert diff.coeffs == {24: Scalar(-2, 1), 48: Scalar(Fraction(-1, 3))}  # q^6 cut, q^0 cancelled
    assert diff == a + b.scale(-1)
    assert (b - a) == diff.scale(-1) and (a - a).is_zero()


_order = st.builds(Fraction, st.integers(-24, 240), st.sampled_from([1, 2, 5, 24]))
_coeffs = st.dictionaries(st.integers(-48, 240), _scalar, max_size=10)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    oa=_order,
    ob=_order,
    ca=_coeffs,
    cb=_coeffs,
    shared=st.lists(st.tuples(st.integers(0, 9), st.sampled_from([1, -1])), max_size=6),
    s=_scalar,
    e=st.integers(-48, 48),
)
@example(oa=Fraction(10), ob=Fraction(6), ca={0: 1, 144: 5}, cb={0: 1}, shared=[], s=ZERO, e=-24)
def test_operations_build_what_the_checked_constructor_would(oa, ob, ca, cb, shared, s, e):
    """Operations build their results unchecked; each result, on series of
    mismatched orders with entries that cancel and under a zero scale, is the
    series the public constructor makes of it: no zero stored, no key at or
    past ceil(24 * order), and sums and differences equal to the coefficientwise
    ones cut at the lower order."""
    a = QSeries(oa, ca)
    keys = sorted(a.coeffs)
    cb = dict(cb)
    for i, sign in shared:
        if keys:
            k = keys[i % len(keys)]
            cb[k] = a.coeffs[k] * sign  # cancels in a - b (sign 1) or a + b (sign -1)
    b = QSeries(ob, cb)
    order = min(a.order, b.order)
    both = a.coeffs.keys() | b.coeffs.keys()
    pairs = {k: (a.coeffs.get(k, ZERO), b.coeffs.get(k, ZERO)) for k in both}
    assert a + b == QSeries(order, {k: x + y for k, (x, y) in pairs.items()})
    assert a - b == QSeries(order, {k: x - y for k, (x, y) in pairs.items()})
    assert a.scale(0).is_zero() and a.scale(ZERO).order == a.order
    results = [a + b, b + a, a - b, b - a, a * b, b * a, a.scale(s), b.scale(s), a.scale(0)]
    results += [a.shift(Fraction(e, DEN)), b.shift(Fraction(e, DEN))]
    for r in results:
        assert type(r.order) is Fraction
        assert r == QSeries(r.order, r.coeffs)
        assert all(type(c) is Scalar and c for c in r.coeffs.values())
        assert all(k < ceil(r.order * DEN) for k in r.coeffs)


def test_eta_matches_pentagonal_number_theorem():
    """prod (1-q^n) = sum_k (-1)^k q^(k(3k-1)/2) over all integers k."""
    e = eta(ORDER)
    want = {}
    k = 0
    while True:
        for kk in ((k, -k) if k else (0,)):
            ex = Fraction(kk * (3 * kk - 1), 2)
            if ex < ORDER - Fraction(1, 24):
                want[ex + Fraction(1, 24)] = -1 if kk % 2 else 1
        k += 1
        if Fraction(k * (3 * k - 1), 2) >= ORDER and Fraction(k * (3 * k + 1), 2) >= ORDER:
            break
    assert {ex: int(c.re) for ex, c in ((x, e.coeff(x)) for x in e.support())} == want


def test_eta_inverse_counts_partitions():
    inv = eta_inverse(100)
    even, odd = _partitions_by_table(99)
    for n in range(100):
        assert inv.coeff(Fraction(n) - Fraction(1, 24)) == Scalar(even[n] + odd[n])


def test_partition_counts_match_the_table_whatever_the_growth(monkeypatch):
    """fock's p(n) and its parity split both read numeric's Euler table;
    through n = 320 both equal the O(n^2) oracle, whether the table grew one
    entry at a time, in one step, or in strides (the parity split asks
    first, so it grows the table)."""
    even, odd = _partitions_by_table(320)
    want = [((e, o), e + o) for e, o in zip(even, odd)]
    for steps in (range(321), range(320, -1, -1), [*range(0, 321, 37), *range(321)]):
        monkeypatch.setattr(numeric, "_PARTITIONS", [1])
        got = {n: (partition_count_by_parity(n), partition_count(n)) for n in steps}
        assert [got[n] for n in range(321)] == want
    assert partition_count_by_parity(-1) == (0, 0) and partition_count(-1) == 0


def test_eta_inverse_equals_product():
    # orders k/24 from -49/24 to 14: negative, zero, fractional and integer
    for k in range(-49, 14 * DEN + 1, 7):
        order = Fraction(k, DEN)
        assert eta_inverse(order) == _eta_inverse_by_product(order), order


def test_eta_inverse_independent_of_table_growth(monkeypatch):
    monkeypatch.setattr(numeric, "_PARTITIONS", [1])
    fresh = eta_inverse(5)
    assert eta_inverse(40) == _eta_inverse_by_product(40)  # table grown in two steps
    assert eta_inverse(5) == fresh


def test_eta_times_inverse_is_one():
    prod = eta(ORDER) * eta_inverse(ORDER)
    one = QSeries.monomial(0, prod.order)
    assert prod == one


def test_virasoro_character_leading_terms():
    # generic weight: q^h / eta
    ch = virasoro_character(Fraction(3), ORDER)
    base = Fraction(3) - Fraction(1, 24)
    assert ch.min_exponent() == base
    assert ch.coeff(base + 1) == Scalar(1)
    # degenerate weight h = n^2/4: one state removed at level n+1
    ch0 = virasoro_character(0, ORDER)
    assert ch0.coeff(Fraction(-1, 24)) == Scalar(1)
    assert ch0.coeff(Fraction(1) - Fraction(1, 24)) == Scalar(0)
    assert [int(ch0.coeff(Fraction(w) - Fraction(1, 24)).re) for w in range(9)] == [
        1, 0, 1, 1, 2, 2, 4, 4, 7,
    ]
    with pytest.raises(QSeriesError):
        virasoro_character(-1, ORDER)


def test_sector_character_is_shifted_partition_count():
    ch = sector_character(1, 2, ORDER)
    even, odd = _partitions_by_table(11)
    for n in range(12):
        assert ch.coeff(Fraction(1 + n) - Fraction(1, 24)) == Scalar(even[n] + odd[n])


def _recompose(parts, order) -> QSeries:
    """Sum of multiplicity times character: the exact inverse of decompose."""
    out = QSeries.zero(order)
    for h, m in parts:
        out = out + virasoro_character(h, order).scale(m)
    return out


def test_decompose_recompose_round_trip():
    target = (
        virasoro_character(0, ORDER)
        + virasoro_character(1, ORDER).scale(3)
        + virasoro_character(4, ORDER).scale(2)
    )
    parts = decompose(target, [Fraction(m * m) for m in range(6)])
    assert parts == [(Fraction(0), 1), (Fraction(1), 3), (Fraction(4), 2)]
    assert _recompose(parts, ORDER) == target


def test_decompose_rejects_unexplained_exponent():
    target = virasoro_character(2, ORDER)
    with pytest.raises(DecompositionError) as info:
        decompose(target, [Fraction(0), Fraction(1)])
    assert info.value.exponent == Fraction(2) - Fraction(1, 24)


def test_telescoping_identity():
    for m, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
        assert telescoping_check(m, k, 40)
    with pytest.raises(QSeriesError):
        telescoping_check(1, 0, 20)


def test_visible_weights_stop_where_a_character_leads_at_the_order():
    # the weight-4 character leads at q^(4 - 1/24), exactly the order: not visible
    order = Fraction(4) - Fraction(1, 24)
    assert visible_weights(order, lambda n: n * n) == {0: 1, 1: 1}
    assert visible_weights(order + Fraction(1, 24), lambda n: n * n) == {0: 1, 1: 1, 4: 1}
    got = visible_weights(10, lambda n: n * n, lambda n: n + 1, start=1)
    assert list(got.items()) == [(1, 2), (4, 3), (9, 4)]
    assert all(type(h) is Fraction for h in got)
    # equal weights add their multiplicities, in first-seen key order
    got = visible_weights(3, lambda n: n // 2, lambda n: n)
    assert list(got.items()) == [(0, 0 + 1), (1, 2 + 3), (2, 4 + 5), (3, 6 + 7)]


def test_graded_dims_read_back_what_graded_character_wrote():
    dims = [1, 0, 2, 5, 0, 7, 3]
    series = graded_character(dims.__getitem__, 6)  # asks for weights 0..6 only
    assert series.order == 6
    # exponent w - 1/24 for each nonzero dim, weights through 6 all visible
    assert series.support() == [Fraction(w) - Fraction(1, 24) for w, d in enumerate(dims) if d]
    assert graded_dims(series, 6) == dims
    assert graded_dims(series.scale(Fraction(1, 2)), 2) == [None, 0, 1]
    # the plus-space counts through weight 8 come back from their character
    plus = lambda w: graded_dim(2, w, "plus")
    assert graded_dims(graded_character(plus, 9), 8) == [plus(w) for w in range(9)]
