"""Series layer: eta products, characters, decomposition, telescoping."""

from fractions import Fraction

import pytest

from voaplus import numeric
from voaplus.fock import partition_count
from voaplus.numeric import (
    DEN,
    DecompositionError,
    QSeries,
    QSeriesError,
    Scalar,
    decompose,
    eta,
    eta_inverse,
    sector_character,
    telescoping_check,
    virasoro_character,
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


def test_scalar_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3))
    b = Scalar(2, -1)
    assert a + b == Scalar(Fraction(5, 2), 2)
    assert a * b == Scalar(4, Fraction(11, 2))
    assert (a * a.inverse()) == Scalar(1)
    assert Scalar(0, 1) ** 2 == Scalar(-1)
    assert a.conjugate().conjugate() == a
    assert Scalar(3).is_integer() and not Scalar(Fraction(1, 2)).is_integer()


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
    for n in range(100):
        assert inv.coeff(Fraction(n) - Fraction(1, 24)) == Scalar(partition_count(n))


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
    for n in range(12):
        assert ch.coeff(Fraction(1 + n) - Fraction(1, 24)) == Scalar(partition_count(n))


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
