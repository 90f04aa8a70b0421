"""Property tests of the mode engine on generated homogeneous states.

States are Gaussian-rational combinations of basis states of one weight <= 3
on the lattices N = 2, 4, 6, 8.  Runs are derandomized, so every run checks
the same cases; the landmark states of the hand-checked tests are explicit
examples.  The identities: the commutator formula, skew-symmetry, the
Virasoro relations, and compatibility of torus scalings, sector phases and
the quarter-turn exponentials of the norm-2 lattice with every mode.  Each property also checks that the values the engine
builds without re-validation (mode results, parity images, torus and phase
images) are what the public constructor would build: nonzero coefficients
in canonical form, (a + b*i)/d with d > 0 and gcd(a, b, d) = 1.
"""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voaplus.aut4 import apply, phase_spec, rotation_sigma, torus_spec
from voaplus.fock import State, graded_basis, theta
from voaplus.numeric import I, Scalar
from voaplus.vertex import mode, poly_binom, virasoro

LATTICES = (2, 4, 6, 8)
MAX_WEIGHT = 3
_BASES = {(N, w): graded_basis(N, w, "full") for N in LATTICES for w in range(MAX_WEIGHT + 1)}

_nonzero = st.integers(-4, 4).filter(bool)
_rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_coeff = st.builds(
    lambda re, im: Scalar(re, im),
    st.builds(Fraction, _nonzero, st.integers(1, 4)),
    _rational,
)


@st.composite
def _homogeneous(draw, N):
    basis = _BASES[(N, draw(st.integers(0, MAX_WEIGHT)))]
    picks = draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=3, unique=True))
    out = State(N, {})
    for i in picks:
        out = out + basis[i] * draw(_coeff)
    return out


def _states(count):
    return st.sampled_from(LATTICES).flatmap(
        lambda N: st.tuples(*[_homogeneous(N) for _ in range(count)])
    )


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# g(-3)g(-1)1 with s_3 s = 72 s, and e^g + e^-g with top self-pairing 2*vacuum
_SQUARE = State.of_term(2, 0, (3, 1))


def _exp_pair(N):
    return State.of_term(N, 1) + State.of_term(N, -1)


def _is_engine_built(r):
    """r equals its rebuild through the public constructor, and every stored
    coefficient is nonzero and in canonical form."""
    return State(r.lattice, dict(r.terms)) == r and all(
        c and c.abd[2] > 0 and gcd(*c.abd) == 1 for c in r.terms.values()
    )


@_PROPERTY
@given(states=_states(3), p=st.integers(-2, 3), q=st.integers(-2, 3))
@example(states=(_SQUARE, _SQUARE, State.vacuum(2)), p=3, q=-1)
@example(states=(_exp_pair(4), _exp_pair(4), State.vacuum(4)), p=3, q=-1)
def test_commutator_formula(states, p, q):
    # [u_p, v_q] = sum_j C(p,j) (u_j v)_{p+q-j}
    u, v, w = states
    lhs = mode(u, p, mode(v, q, w)) - mode(v, q, mode(u, p, w))
    rhs = State(u.lattice, {})
    for j in range(int(u.weight() + v.weight())):
        rhs = rhs + poly_binom(p, j) * mode(mode(u, j, v), p + q - j, w)
    assert lhs == rhs
    assert _is_engine_built(mode(u, p, mode(v, q, w)))


@_PROPERTY
@given(states=_states(2), k=st.integers(-1, 5))
@example(states=(_SQUARE, _SQUARE), k=3)
@example(states=(_exp_pair(2), _exp_pair(2)), k=1)
@example(states=(_exp_pair(8), _exp_pair(8)), k=7)
def test_skew_symmetry(states, k):
    # u_k v = sum_j (-1)^(k+1+j) (1/j!) L(-1)^j (v_{k+j} u)
    u, v = states
    rhs = State(u.lattice, {})
    for j in range(int(u.weight() + v.weight()) - k):
        t = mode(v, k + j, u)
        for _ in range(j):
            t = virasoro(-1, t)
        rhs = rhs + t * Fraction((-1) ** (k + 1 + j), factorial(j))
    assert mode(u, k, v) == rhs
    assert _is_engine_built(mode(u, k, v)) and _is_engine_built(theta(u))


@_PROPERTY
@given(states=_states(1), p=st.integers(-3, 3), q=st.integers(-3, 3))
@example(states=(_SQUARE,), p=2, q=-2)
@example(states=(_exp_pair(6),), p=3, q=-3)
def test_virasoro_relations(states, p, q):
    # [L(p), L(q)] = (p - q) L(p+q) + (p^3 - p)/12 delta_{p+q,0}, c = 1
    (b,) = states
    lhs = virasoro(p, virasoro(q, b)) - virasoro(q, virasoro(p, b))
    rhs = (p - q) * virasoro(p + q, b)
    if p + q == 0:
        rhs = rhs + b * Fraction(p**3 - p, 12)
    assert lhs == rhs
    assert _is_engine_built(virasoro(p, b))



# torus scalings c^m on sector m, and sector phases i^(s*m) for s = 1, 2, 3
_AUTOMORPHISMS = {
    "torus c=2": lambda N: torus_spec(N, 2),
    "torus c=-1": lambda N: torus_spec(N, -1),
    "torus c=i": lambda N: torus_spec(N, I),
    "phase i^1": lambda N: phase_spec(N, Fraction(1, 2 * N)),
    "phase i^2": lambda N: phase_spec(N, Fraction(2, 2 * N)),
    "phase i^3": lambda N: phase_spec(N, Fraction(3, 2 * N)),
}


@_PROPERTY
@given(states=_states(2), k=st.integers(-2, 5), name=st.sampled_from(sorted(_AUTOMORPHISMS)))
@example(states=(_exp_pair(2), _exp_pair(2)), k=1, name="torus c=i")
@example(states=(_exp_pair(4), State.of_term(4, 1, (1,))), k=0, name="phase i^1")
def test_automorphisms_commute_with_modes(states, k, name):
    # g(u_k v) = (g u)_k (g v)
    u, v = states
    g = _AUTOMORPHISMS[name](u.lattice)
    assert apply(g, mode(u, k, v)) == mode(apply(g, u), k, apply(g, v))
    assert _is_engine_built(apply(g, u))
    # a first argument of two weights is refused
    if u.weight() != v.weight():
        with pytest.raises(ValueError):
            mode(u + v, k, v)


@_PROPERTY
@given(states=st.tuples(_homogeneous(2), _homogeneous(2)), k=st.integers(-2, 5), j=st.integers(1, 3))
@example(states=(State.of_term(2, 1), State.of_term(2, -1, (1,))), k=-1, j=2)
def test_quarter_turn_exponentials_commute_with_modes(states, k, j):
    # sigma_j(u_k v) = (sigma_j u)_k (sigma_j v), images read from the Krylov relation
    u, v = states
    g = rotation_sigma(j)
    assert apply(g, mode(u, k, v)) == mode(apply(g, u), k, apply(g, v))
