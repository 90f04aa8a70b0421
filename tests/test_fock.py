"""State layer: partitions, graded bases, the parity involution, the form."""

from fractions import Fraction
from itertools import product

import pytest

from voaplus.fock import (
    BOUNDS,
    LatticeMismatch,
    State,
    coordinates,
    form,
    graded_basis,
    graded_coordinates,
    graded_dim,
    heisenberg,
    partition_count,
    partition_count_by_parity,
    partitions,
    term_weight,
    theta,
    weight_terms,
)
from voaplus.aut4 import AutomorphismSpec
from voaplus.linalg import rank
from voaplus.numeric import I, QSeries, Record, Scalar
from voaplus.reptheory import CGLabel, GradedSubspace


def test_partitions_enumeration_matches_count():
    for n in range(12):
        parts = partitions(n)
        assert len(parts) == partition_count(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == n
            assert list(lam) == sorted(lam, reverse=True)


def test_partition_parity_split():
    for n in range(12):
        even, odd = partition_count_by_parity(n)
        assert even + odd == partition_count(n)
        assert even == sum(1 for lam in partitions(n) if len(lam) % 2 == 0)


def test_state_validation_and_weight():
    s = State.of_term(2, 1, (3, 1))
    assert s.weight() == Fraction(5)  # 1^2*2/2 + 4
    assert term_weight(4, (1, ())) == Fraction(2)
    with pytest.raises(ValueError):
        State.of_term(3, 0)  # odd lattice norm
    with pytest.raises(ValueError):
        State.of_term(2, 0, (0,))  # nonpositive part
    # a term given directly must already be canonical: an int sector and a
    # non-increasing tuple of positive ints, so equal states have equal terms
    malformed = [(0, (1, 2)), (0, (0, -1)), (0, (2, 0)), (0, (1.5,)), (1.0, ()), ("1", ()), ((0, ()),), (0, 1)]
    for term in malformed:
        with pytest.raises(ValueError):
            State(2, {term: 1})
    with pytest.raises(LatticeMismatch):
        State.of_term(2, 0) + State.of_term(4, 0)
    mixed = State.of_term(2, 0) + State.of_term(2, 0, (1,))
    assert not mixed.is_homogeneous()
    with pytest.raises(ValueError):
        mixed.weight()


@pytest.mark.parametrize(
    "value",
    [
        State.of_term(2, 1, (3, 1), 5),
        Scalar(1, 2),
        QSeries(2, {0: 1, 24: 3}),
        CGLabel(4, 2, 2),
        AutomorphismSpec("torus", 2, (I,)),
    ],
    ids=["State", "Scalar", "QSeries", "CGLabel", "AutomorphismSpec"],
)
def test_states_scalars_and_series_refuse_setattr_and_delattr(value):
    before = repr(value)
    message = f"{type(value).__name__} is immutable"
    for name in type(value).__slots__ + ("extra",):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert repr(value) == before


def test_equal_states_hash_equal_and_share_one_dict_key():
    terms = [((1, (3, 1)), 5), ((0, (2,)), Fraction(1, 2)), ((-1, ()), Scalar(0, 1))]
    forward = State(2, dict(terms))
    backward = State(2, dict(reversed(terms)))
    # the same coefficients given as Fraction, int and Scalar
    retyped = State(2, {(1, (3, 1)): Fraction(10, 2), (0, (2,)): Scalar(Fraction(1, 2)), (-1, ()): I})
    built = State.of_term(2, -1, (), I) + State.of_term(2, 0, (2,), Fraction(1, 2)) + State.of_term(2, 1, (1, 3), 5)
    assert list(forward.terms) != list(backward.terms)
    for s in (backward, retyped, built):
        assert s == forward and hash(s) == hash(forward)
    assert len({forward: 0, backward: 1, retyped: 2, built: 3}) == 1
    assert {forward: "x"}[built] == "x"
    # the same terms over another lattice are another State
    other = State(4, dict(terms))
    assert other != forward and len({forward, other}) == 2


class _Triple(Record):
    __slots__ = ("m", "n", "i")


class _OtherTriple(Record):
    __slots__ = ("m", "n", "i")


def test_records_of_different_types_with_equal_fields_are_unequal():
    label, triple, other = CGLabel(4, 2, 2), _Triple(4, 2, 2), _OtherTriple(4, 2, 2)
    assert triple == _Triple(4, 2, 2) and hash(triple) == hash(_Triple(4, 2, 2))
    assert repr(triple) == "_Triple(m=4, n=2, i=2)"
    for a, b in ((label, triple), (triple, other), (other, label)):
        assert a != b and b != a
    assert len({label, triple, other}) == 3
    with pytest.raises(ValueError):
        _Triple(4, 2)  # a Record takes exactly one value per slot


def test_state_sums_drop_cancelled_terms_and_keep_term_order():
    a = State(2, {(1, ()): 1, (0, (1,)): Scalar(0, 1), (-1, ()): 3})
    b = State(2, {(0, (1,)): Scalar(0, 1), (1, ()): 1, (0, (2,)): Fraction(1, 2)})
    diff = a - b
    assert diff == State(2, {(-1, ()): 3, (0, (2,)): Fraction(-1, 2)})
    assert list(diff.terms) == [(-1, ()), (0, (2,))]
    total = a + b
    assert list(total.terms) == [(1, ()), (0, (1,)), (-1, ()), (0, (2,))]
    assert total == State(2, {(1, ()): 2, (0, (1,)): Scalar(0, 2), (-1, ()): 3, (0, (2,)): Fraction(1, 2)})
    assert (a - a).is_zero() and (a + -a).is_zero() and (0 * a).is_zero()
    assert -a == (-1) * a == a * Scalar(-1)
    assert a - b == a + (-1) * b and b - a == -(a - b)
    assert all(type(c) is Scalar for c in (diff.terms | total.terms | (-a).terms).values())
    with pytest.raises(LatticeMismatch):
        a - State.of_term(4, 1)
    with pytest.raises(TypeError):
        a - 1


def test_heisenberg_commutator():
    # [g(j), g(k)] = j N delta_{j+k,0} on a mixed test state
    s = State.of_term(2, 1, (2, 1)) + State.of_term(2, 0, (1, 1)) * Scalar(0, 1)
    for j, k in product(range(-3, 4), repeat=2):
        lhs = heisenberg(j, heisenberg(k, s)) - heisenberg(k, heisenberg(j, s))
        want = s * (j * 2) if j + k == 0 else State(2, {})
        assert lhs == want


def test_theta_is_an_involution_splitting_the_space():
    for N, w in product((2, 4), range(7)):
        full_basis = graded_basis(N, w, "full")
        # the theta-odd part is spanned by b - theta(b) over the full basis
        minus = rank([coordinates(b - theta(b), w) for b in full_basis])
        assert graded_dim(N, w, "plus") + minus == graded_dim(N, w, "full")
        for b in full_basis:
            assert theta(theta(b)) == b
        for b in graded_basis(N, w, "plus"):
            assert theta(b) == b


def test_weight_terms_canonical_and_complete():
    terms = weight_terms(2, 3)
    assert len(terms) == len(set(terms)) == graded_dim(2, 3, "full")
    assert all(term_weight(2, t) == Fraction(3) for t in terms)
    assert terms == sorted(terms)
    # the dense coordinates used by the small solves read these columns
    s = Scalar(2) * State.of_term(2, 1, (2,)) + Scalar(0, 1) * State.of_term(2, 0, (3,))
    vec = coordinates(s, 3)
    assert [terms[i] for i, c in enumerate(vec) if c] == sorted(s.terms)
    assert vec[terms.index((1, (2,)))] == Scalar(2)
    with pytest.raises(ValueError):
        coordinates(s, 4)


def test_graded_dims_known_values():
    assert [graded_dim(2, w, "full") for w in range(7)] == [1, 3, 4, 7, 13, 19, 29]
    assert [graded_dim(2, w, "plus") for w in range(9)] == [1, 1, 2, 3, 7, 9, 15, 21, 32]
    assert [graded_dim(4, w, "plus") for w in range(9)] == [1, 0, 2, 2, 5, 6, 11, 14, 24]
    assert [graded_dim(6, w, "plus") for w in range(9)] == [1, 0, 1, 2, 4, 5, 9, 12, 19]
    assert [graded_dim(2, w, "pair+:0") for w in range(9)] == [1, 0, 1, 1, 3, 3, 6, 7, 12]
    assert [graded_dim(2, w, "pair-:0") for w in range(9)] == [0, 1, 1, 2, 2, 4, 5, 8, 10]
    for w in range(7):
        assert graded_dim(2, w, "efixed") == graded_dim(8, w, "plus")


def test_graded_basis_agrees_with_dim_for_every_constraint():
    """For every bound, even N <= 18 and w <= 21 there are `graded_dim`
    `graded_coordinates` vectors and `graded_basis` States.  Through w = 12
    each vector leads with sign +1 and is the matching State, whose terms
    lie in sectors that are multiples of the bound's step; under a
    theta-sign it leads at a sector m >= 0 and parity maps it to itself
    times that sign."""
    cases = 0
    for N in range(2, 19, 2):
        for bound, (step, sign) in BOUNDS.items():
            for w in range(22):
                coords = graded_coordinates(N, w, bound)
                basis = graded_basis(N, w, bound)
                assert len(coords) == len(basis) == graded_dim(N, w, bound), (N, bound, w)
                cases += 1
                if w > 12:
                    continue
                for vec, b in zip(coords, basis):
                    (m, _), lead = vec[0]
                    assert lead == 1
                    assert b == State(N, dict(vec))
                    assert b.weight() == Fraction(w)
                    assert all(t[0] % step == 0 if step else t[0] == 0 for t, _ in vec)
                    if sign is not None:
                        assert m >= 0
                        assert theta(b) == sign * b
    assert cases == 990


def test_basis_and_dim_reject_the_same_constraints():
    rejected = ("pair:-1", "pair+:-1", "minus", "pair:1", "pair+:1", "pair-:2", ["full"])
    for bound in rejected:
        for graded in (graded_basis, graded_coordinates, graded_dim, GradedSubspace):
            with pytest.raises(ValueError):
                graded(2, 4, bound)
    # "efixed" holds at every N: sectors 2k of the norm-N lattice are the
    # sectors k of the norm-4N one
    for N in (2, 4, 6, 8):
        for w in range(22):
            assert graded_dim(N, w, "efixed") == graded_dim(4 * N, w, "plus"), (N, w)


def test_form_norm_of_the_weight_four_vector():
    # <g(-3)g(-1)1, g(-3)g(-1)1> = 3 N^2
    for N in (2, 4, 6):
        s = State.of_term(N, 0, (3, 1))
        assert form(s, s) == Scalar(3 * N * N)


def test_form_contravariance_oracle():
    # <g(-k)u, v> = <u, g(k)v> on full graded bases
    for w in range(4):
        for u in graded_basis(2, w, "full"):
            for k in (1, 2, 3):
                cu = heisenberg(-k, u)
                for v in graded_basis(2, w + k, "full"):
                    assert form(cu, v) == form(u, heisenberg(k, v))


def test_form_is_conjugate_linear_in_first_slot():
    s = State.of_term(2, 0, (1,))
    i_s = s * Scalar(0, 1)
    assert form(i_s, s) == Scalar(0, -2)
    assert form(s, i_s) == Scalar(0, 2)
    assert form(State.of_term(2, 1), State.of_term(2, -1)) == Scalar(0)
