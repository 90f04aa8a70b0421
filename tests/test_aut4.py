"""Tests for the finite-order automorphisms and the weight-4 computation."""

import hashlib
import json
import random
from fractions import Fraction
from functools import partial

import pytest

from voaplus import aut4, cli
from voaplus.aut4 import (
    AutomorphismSpec,
    SpectralError,
    apply,
    automorphism_rows,
    check_automorphism,
    compose_specs,
    e_fixed_check,
    e_group,
    exp_spec,
    pairing_p,
    phase_spec,
    rotation_sigma,
    split_H_J,
    sym3_report,
    theta_spec,
    torus_spec,
    y_basis,
    _line_permutation,
)
from voaplus.fock import State, graded_basis, graded_dim, theta, weight_terms
from voaplus.linalg import kernel_basis, rank, solve_columns
from voaplus.numeric import I, ONE, ZERO, Scalar
from voaplus.report import Report, encode_value, render_json
from voaplus.reptheory import GradedSubspace
from voaplus.vertex import bracket, mode

ALPHA = State.of_term(2, 0, (1,))
XP = State.of_term(2, 1)
XM = State.of_term(2, -1)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown automorphism kind 'bogus'"):
        AutomorphismSpec("bogus", 2)
    with pytest.raises(ValueError):
        torus_spec(2, 0)
    with pytest.raises(ValueError):
        phase_spec(2, Fraction(1, 3))  # phase lands outside the fourth roots
    with pytest.raises(ValueError):
        exp_spec(State.of_term(2, 0, (1, 1)), 1)  # weight 2, not 1
    with pytest.raises(ValueError):
        exp_spec(State(2, {}), 1)
    with pytest.raises(ValueError):
        exp_spec(ALPHA, "one")
    with pytest.raises(ValueError):
        compose_specs()
    with pytest.raises(ValueError):
        compose_specs(theta_spec(2), theta_spec(4))
    with pytest.raises(ValueError):
        apply(theta_spec(4), ALPHA)  # lattice mismatch
    for lattice in (3, -2, 0, 2.0, "2"):
        for build in (partial(AutomorphismSpec, "theta"), theta_spec, partial(torus_spec, c=1)):
            with pytest.raises(ValueError, match="lattice norm"):
                build(lattice)


def test_a_sweep_of_no_maps_is_refused_like_a_composite_of_none():
    for build in (lambda: automorphism_rows([], 3), compose_specs):
        with pytest.raises(ValueError, match="needs at least one spec"):
            build()


def test_a_spec_is_an_immutable_value():
    spec = AutomorphismSpec("theta", 2)
    assert spec == theta_spec(2) and hash(spec) == hash(theta_spec(2))
    assert spec != theta_spec(4) and spec != torus_spec(2, I)
    assert torus_spec(2, I) == AutomorphismSpec(kind="torus", lattice=2, payload=(I,))
    both = compose_specs(theta_spec(2), torus_spec(2, I))
    assert both == compose_specs(theta_spec(2), torus_spec(2, I))
    assert len({spec, theta_spec(2), torus_spec(2, I), both}) == 3
    assert repr(spec) == "AutomorphismSpec(kind='theta', lattice=2, payload=())"
    assert repr(torus_spec(2, I)) == "AutomorphismSpec(kind='torus', lattice=2, payload=(1i,))"
    for name in ("kind", "lattice", "payload"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    with pytest.raises(AttributeError):
        spec.extra = 1
    # not a tuple: a spec put into a report raises instead of serializing
    assert spec != ("theta", 2, ())
    with pytest.raises(TypeError):
        encode_value(spec)


def test_exponential_of_a_real_spectrum_zero_mode_is_rejected():
    # the zero-mode of the weight-1 polynomial state has eigenvalues 2m on
    # sector m, which are not in i*Z, so the quarter-turn cannot be evaluated
    with pytest.raises(SpectralError):
        apply(exp_spec(ALPHA, 1), ALPHA)
    # (i/4) alpha(0) has the eigenvalue i/2 on the sector-one term
    with pytest.raises(SpectralError):
        apply(exp_spec(Scalar(0, Fraction(1, 4)) * ALPHA, 1), XP)
    # the e^alpha zero-mode is nilpotent: e^-alpha -> alpha -> e^alpha -> 0,
    # a repeated root 0
    with pytest.raises(SpectralError):
        apply(exp_spec(XP, 1), XM)


def _dense_eigen_data(x, w):
    """Exact eigendecomposition of the zero-mode of x on the weight-w terms:
    (terms, integer eigenvalues k, i*k eigenvector columns, inverse rows),
    scanning k over |k| <= 2w + 2 with one kernel per candidate."""
    N = x.lattice
    terms = weight_terms(N, w)
    index = {t: i for i, t in enumerate(terms)}
    d = len(terms)
    cols = []
    for t in terms:
        col = [ZERO] * d
        for tt, c in mode(x, 0, State.of_term(N, t[0], t[1])).terms.items():
            col[index[tt]] = c
        cols.append(col)
    M = [[cols[j][i] for j in range(d)] for i in range(d)]
    ks, vecs = [], []
    for k in range(-(2 * w + 2), 2 * w + 3):
        shifted = [[M[i][j] - (I * k if i == j else ZERO) for j in range(d)] for i in range(d)]
        for vec in kernel_basis(shifted, d):
            ks.append(k)
            vecs.append(vec)
    assert len(ks) == d, "zero-mode is not i*Z-diagonalizable in the band"
    # column r of the inverse solves P x = e_r
    inv_cols = [solve_columns(vecs, [ONE if i == r else ZERO for i in range(d)]) for r in range(d)]
    assert None not in inv_cols, "the eigenvectors do not span"
    return terms, ks, vecs, [[col[i] for col in inv_cols] for i in range(d)]


def _dense_exp(eigen, q, s):
    """The exponential by the dense round trip through the eigenbasis: the
    coordinates P^-1 v of each graded piece, scaled by i^(k q), mapped back by P."""
    N = s.lattice
    out = State(N, {})
    for w, (terms, ks, cols, inv) in eigen.items():
        vec = [s.terms.get(t, Scalar(0)) for t in terms]
        if not any(vec):
            continue
        coords = [sum((p * c for p, c in zip(row, vec)), Scalar(0)) for row in inv]
        new = [Scalar(0)] * len(terms)
        for k, col, cj in zip(ks, cols, coords):
            scale = I ** ((k * q) % 4) * cj
            new = [a + scale * b for a, b in zip(new, col)]
        out = out + State(N, dict(zip(terms, new)))
    return out


@pytest.mark.parametrize("j", [1, 2, 3])
def test_sparse_exponential_matches_the_dense_eigenbasis_round_trip(j):
    x, _ = rotation_sigma(j).payload
    eigen = {w: _dense_eigen_data(x, w) for w in range(5)}
    gaussian = (
        Scalar(1, 2) * ALPHA
        + Scalar(Fraction(-1, 3), Fraction(1, 2)) * XP
        + I * State.of_term(2, -1, (2, 1))
        + Scalar(Fraction(5, 7)) * State.of_term(2, 2)
    )
    for q in (1, 2, 3):
        spec = exp_spec(x, q)
        for w in range(5):
            for b in graded_basis(2, w, "full"):
                assert apply(spec, b) == _dense_exp(eigen, q, b)
        assert apply(spec, gaussian) == _dense_exp(eigen, q, gaussian)


def _monic(roots):
    """Scalar coefficients, low to high, of the product of (u - k) over roots."""
    poly = [ONE]
    for k in roots:
        poly = [a - Scalar(k) * b for a, b in zip([ZERO] + poly, poly + [ZERO])]
    return poly


def test_integer_roots_finds_every_root_of_distinct_linear_factors():
    rng = random.Random(30)
    cases = [[0], [-12], [12], [-12, 12], list(range(-12, 13))]
    cases += [rng.sample(range(-12, 13), rng.randint(1, 9)) for _ in range(40)]
    for roots in cases:
        assert aut4._integer_roots(_monic(roots)) == sorted(roots)


@pytest.mark.parametrize(
    "coeffs",
    [
        _monic([3, 3, -1]),  # a repeated root
        _monic([Fraction(1, 2), 2]),  # a half-integer root
        [ONE, ZERO, ONE],  # t^2 + 1
        [I, ONE],  # a non-real coefficient
    ],
)
def test_integer_roots_refuses_anything_but_distinct_integers(coeffs):
    with pytest.raises(SpectralError):
        aut4._integer_roots(coeffs)


# sha256 over y in y_basis(), q in (1, 2, 3), w in 0..6 and the terms of
# weight_terms(2, w) of the compact JSON of each image, one line each
EXP_IMAGES_DIGEST = "8087dbb0075168c56feebfff403c07e48e905f221936300f4d657265076ab31c"


def test_the_quarter_turn_images_through_weight_6_match_their_digest():
    h = hashlib.sha256()
    for y in y_basis():
        for q in (1, 2, 3):
            spec = exp_spec(y, q)
            for w in range(7):
                for m, lam in weight_terms(2, w):
                    image = apply(spec, State.of_term(2, m, lam))
                    h.update((json.dumps(encode_value(image), separators=(",", ":")) + "\n").encode())
    assert h.hexdigest() == EXP_IMAGES_DIGEST


def test_theta_squares_to_the_identity():
    th = theta_spec(2)
    for w in range(5):
        for b in graded_basis(2, w, "full"):
            assert apply(th, apply(th, b)) == b


def test_torus_and_phase_act_by_sector():
    assert apply(torus_spec(2, I), XP + XM) == I * XP + XM * Scalar(0, -1)
    assert apply(torus_spec(2, Scalar(3)), ALPHA) == ALPHA
    tau1 = phase_spec(2, Fraction(1, 2))  # (-1)^m on sector m
    assert apply(tau1, XP) == XP * Scalar(-1)
    assert apply(tau1, XM) == XM * Scalar(-1)
    assert apply(tau1, ALPHA) == ALPHA


def test_a_sector_phase_is_the_torus_scaling_by_a_fourth_root_of_unity():
    for N in (2, 4):
        for s in range(4):
            phase, torus = phase_spec(N, Fraction(s, 2 * N)), torus_spec(N, I**s)
            for w in range(5):
                for m, lam in weight_terms(N, w):
                    t = State.of_term(N, m, lam)
                    assert apply(phase, t) == apply(torus, t) == I ** (s * m % 4) * t


def test_compose_applies_right_to_left():
    th = theta_spec(2)
    tor = torus_spec(2, Scalar(2))
    # torus first: 2*e^+, then the involution flips the sector
    assert apply(compose_specs(th, tor), XP) == XM * Scalar(2)
    # involution first: e^-, then the torus scales sector -1 by 1/2
    assert apply(compose_specs(tor, th), XP) == XM * Scalar(Fraction(1, 2))


def _automorphism_rows(spec, max_weight):
    rep = Report("aut")
    check_automorphism(rep, spec, max_weight, "spec", "aut-check")
    return rep


def test_mode_compatibility_of_the_primitive_kinds():
    assert _automorphism_rows(theta_spec(2), 3).status == "pass"
    assert _automorphism_rows(torus_spec(2, Scalar(3)), 2).status == "pass"
    assert _automorphism_rows(phase_spec(2, Fraction(1, 2)), 2).status == "pass"
    assert all(c.actual is True for c in _automorphism_rows(theta_spec(2), 2).checks)
    for j in (1, 2, 3):
        assert _automorphism_rows(rotation_sigma(j), 3).status == "pass"


def test_failing_automorphism_check_carries_a_witness(monkeypatch):
    # the sector flip without the (-1)^(number of parts) sign is no automorphism
    def flip(s):
        return State(s.lattice, {(-m, lam): c for (m, lam), c in s.terms.items()})

    monkeypatch.setattr(aut4, "theta", flip)
    spec = theta_spec(2)
    rep = _automorphism_rows(spec, 2)
    assert rep.status == "fail"
    first = next(c for c in rep.checks if c.status == "fail")
    witness = first.actual
    assert set(witness) == {"u", "v", "k", "lhs-minus-rhs"}
    u, v, k, diff = (witness[key] for key in ("u", "v", "k", "lhs-minus-rhs"))
    assert diff
    assert diff == apply(spec, mode(u, k, v)) - mode(apply(spec, u), k, apply(spec, v))
    assert first.name == f"spec: modes on weights {u.weight()},{v.weight()}"
    encoded = json.loads(render_json(rep))["checks"][rep.checks.index(first)]["actual"]
    assert encoded["k"] == k
    assert encoded["lhs-minus-rhs"] == encode_value(diff)


def test_basis_line_maps_compute_each_triple_mode_once(monkeypatch):
    # theta and the torus scalings send each basis state to a multiple of a
    # basis state, so (gu)_k(gv) is a scaled mode the row already computes
    calls = []
    real = aut4.mode
    monkeypatch.setattr(aut4, "mode", lambda u, k, v: calls.append(k) or real(u, k, v))
    for spec, N, triples in ((theta_spec(2), 2, 900), (torus_spec(8, 2), 8, 196)):
        calls.clear()
        assert _automorphism_rows(spec, 3).status == "pass"
        # one call per (u, v, k): four mode indices per weight pair at W = 3
        dims = [graded_dim(N, w) for w in range(4)]
        assert len(calls) == triples == 4 * sum(a * b for a in dims for b in dims)
    assert _automorphism_rows(rotation_sigma(1), 2).status == "pass"


# The failing rows of theta with the coefficient of e^(-alpha) doubled in every
# image, as a plain sweep that checks each triple at its own place in row
# order reports them: (weight pair, u, v, k), with u and v basis terms of
# coefficient one, and the sha256 of the encoded failing rows.
DOUBLED_E_MINUS_ROWS = [
    ("1,0", (1, ()), (0, ()), -3),
    ("1,1", (-1, ()), (1, ()), -2),
    ("1,2", (0, (1,)), (1, (1,)), 1),
    ("1,3", (0, (1,)), (1, (2,)), 2),
    ("2,1", (-1, (1,)), (1, ()), -1),
    ("2,2", (0, (1, 1)), (1, (1,)), 2),
    ("2,3", (0, (1, 1)), (1, (1, 1)), 3),
    ("3,1", (-1, (1, 1)), (1, ()), 0),
    ("3,2", (0, (1, 1, 1)), (1, (1,)), 3),
    ("3,3", (0, (1, 1, 1)), (1, (1, 1)), 4),
]
DOUBLED_E_MINUS_DIGEST = "003b868905a2016d2be41c642e3568d8c8394dbcbfc1f1c4bf59002ff533fffc"


def _doubled_e_minus(s):
    out = theta(s)
    if (-1, ()) in out.terms:
        return State(s.lattice, out.terms | {(-1, ()): out.terms[-1, ()] * 2})
    return out


def test_the_failing_rows_of_a_sweep_are_those_of_a_plain_row_order_sweep(monkeypatch):
    calls = []
    real = aut4.mode
    monkeypatch.setattr(aut4, "mode", lambda u, k, v: calls.append(k) or real(u, k, v))
    monkeypatch.setattr(aut4, "theta", _doubled_e_minus)
    spec = theta_spec(2)
    rep = _automorphism_rows(spec, 3)
    # the doubled map sends e^alpha to 2 e^(-alpha) and e^(-alpha) back to
    # e^alpha, 2 * 1 != 1, so it is no involution on its lines and skips no
    # pair; each weight pair's sweep stops building modes at its first failure
    assert len(calls) == 756
    failing = [c for c in rep.checks if c.status == "fail"]
    rows, at_partner = [], 0
    for c in failing:
        u, v, k, diff = (c.actual[key] for key in ("u", "v", "k", "lhs-minus-rhs"))
        assert diff == apply(spec, mode(u, k, v)) - mode(apply(spec, u), k, apply(spec, v))
        ((tu, cu),), ((tv, cv),) = u.terms.items(), v.terms.items()
        assert cu == cv == ONE
        rows.append((c.name.removeprefix("spec: modes on weights "), tu, tv, k))
        # count the rows whose image pair comes first in row order: pairs
        # that an involution would skip, which this map checks at their place
        at = [
            {next(iter(b.terms)): i for i, b in enumerate(graded_basis(2, s.weight()))}
            for s in (u, v)
        ]
        (gu,), (gv,) = theta(u).terms, theta(v).terms
        at_partner += (at[0][gu], at[1][gv]) < (at[0][tu], at[1][tv])
    assert rows == DOUBLED_E_MINUS_ROWS
    assert at_partner >= 5
    blob = json.dumps([[c.name, encode_value(c.actual)] for c in failing], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DOUBLED_E_MINUS_DIGEST


@pytest.mark.parametrize(
    "spec",
    [
        compose_specs(theta_spec(2), torus_spec(2, 2)),
        compose_specs(torus_spec(2, 3), theta_spec(2)),
    ],
    ids=["theta-after-torus-2", "torus-3-after-theta"],
)
def test_an_involution_with_scaled_lines_skips_its_later_partner_pairs(monkeypatch, spec):
    # theta and a torus scaling by c compose to an involution that sends a
    # sector-m basis state to +-c^m times its partner and the partner back by
    # +-c^(-m); the skipped pairs rest on g o g = 1, so each triple takes
    # one mode call, as under theta itself
    calls = []
    real = aut4.mode
    monkeypatch.setattr(aut4, "mode", lambda u, k, v: calls.append(k) or real(u, k, v))
    rep = _automorphism_rows(spec, 3)
    assert rep.status == "pass" and all(c.actual is True for c in rep.checks)
    assert len(calls) == 900


TORUS_SCALINGS = (("2", Scalar(2)), ("-1", Scalar(-1)), ("i", I))


def _single_map_rows(max_weight):
    rep = Report("aut")
    for tag, c in TORUS_SCALINGS:
        check_automorphism(rep, torus_spec(8, c), max_weight, f"sector scaling c={tag}", "torus-check")
    return [(c.name, c.status, c.expected, c.actual) for c in rep.checks]


def test_one_sweep_checks_the_three_torus_scalings(monkeypatch):
    calls = []
    real = aut4.mode
    monkeypatch.setattr(aut4, "mode", lambda u, k, v: calls.append(k) or real(u, k, v))
    rep = cli._aut_report("torus", 4)
    swept = len(calls)
    calls.clear()
    singles = _single_map_rows(4)
    # one call per (u, v, k): five mode indices per weight pair at W = 4
    dims = [graded_dim(8, w) for w in range(5)]
    assert swept == 5 * sum(a * b for a in dims for b in dims) == 980
    assert len(calls) == 3 * swept
    rows = [(c.name, c.status, c.expected, c.actual) for c in rep.checks if c.location == "torus-check"]
    assert rows == singles and rep.status == "pass"
    # each block of 2 + 25 rows is followed by its conjugation row
    assert [c.location for c in rep.checks] == 3 * (27 * ["torus-check"] + ["torus-conjugation"])


def test_a_wrong_torus_scaling_fails_only_its_own_rows(monkeypatch):
    # the scaling by i with an extra (-1)^(number of parts) negates alpha(-1)
    # but not the alpha(0)-eigenvalues of the sectors +-1 at weight 4, so it
    # is no automorphism
    wrong = torus_spec(8, I)
    real = aut4.apply

    def twisted(spec, s):
        out = real(spec, s)
        if spec != wrong:
            return out
        return State._of(s.lattice, {t: c * (-1) ** len(t[1]) for t, c in out.terms.items()})

    monkeypatch.setattr(aut4, "apply", twisted)
    rep = cli._aut_report("torus", 4)
    rows = [(c.name, c.status, c.expected, c.actual) for c in rep.checks if c.location == "torus-check"]
    assert rows == _single_map_rows(4)
    failing = [name for name, status, _, _ in rows if status == "fail"]
    assert failing and all(name.startswith("sector scaling c=i: modes") for name in failing)


def test_a_mixed_sweep_matches_each_map_alone(monkeypatch):
    # theta skips the partner pairs that its involution proves; the torus
    # scaling by 3 sends every basis state to a multiple of itself and checks
    # every pair
    specs = [theta_spec(2), torus_spec(2, 3)]
    singles = [automorphism_rows([spec], 3)[0] for spec in specs]
    assert automorphism_rows(specs, 3) == singles

    monkeypatch.setattr(aut4, "theta", _doubled_e_minus)
    mixed = automorphism_rows(specs, 3)
    assert mixed == [automorphism_rows([spec], 3)[0] for spec in specs]
    theta_rows, torus_rows = mixed
    assert sum(actual is not True for _, actual in theta_rows) == 10
    assert all(actual is True for _, actual in torus_rows)


def test_an_image_outside_the_piece_fails_with_a_witness(monkeypatch):
    # a "theta" sending each term to one term of the next weight is no
    # automorphism; its images are no basis states of their own piece
    def lift(s):
        return State(s.lattice, {(m, lam + (1,)): c for (m, lam), c in s.terms.items()})

    monkeypatch.setattr(aut4, "theta", lift)
    spec = theta_spec(2)
    rep = _automorphism_rows(spec, 2)
    rows = [c for c in rep.checks if c.name.startswith("spec: modes")]
    first = next(c for c in rows if c.status == "fail")
    u, v, k, diff = (first.actual[key] for key in ("u", "v", "k", "lhs-minus-rhs"))
    assert diff
    assert diff == apply(spec, mode(u, k, v)) - mode(apply(spec, u), k, apply(spec, v))


def _state_path_rows(spec, max_weight):
    # the mode rows of a plain sweep: per weight pair, the first (u, v, k) in
    # row order whose State g(u_k v) differs from (g u)_k (g v)
    rows = []
    for wu in range(max_weight + 1):
        for wv in range(max_weight + 1):
            triples = (
                (u, v, k)
                for u in graded_basis(2, wu)
                for v in graded_basis(2, wv)
                for k in range(wu + wv - 1 - max_weight, wu + wv)
            )
            first = True
            for u, v, k in triples:
                diff = aut4.apply(spec, mode(u, k, v)) - mode(aut4.apply(spec, u), k, aut4.apply(spec, v))
                if diff:
                    first = {"u": u, "v": v, "k": k, "lhs-minus-rhs": diff}
                    break
            rows.append((f"modes on weights {wu},{wv}", first))
    return rows


@pytest.mark.parametrize(
    "lines",
    [
        # alpha(-2) goes to -alpha(-1)^2, the line alpha(-1)^2 keeps: two
        # basis states of weight 2 on one line
        {(0, (2,)): ((0, (1, 1)), -1)},
        # e^alpha and e^(-alpha) swap with no sign: one-to-one on the basis
        # lines, but a pair of fixed basis states can have a mode it moves
        {(1, ()): ((-1, ()), 1), (-1, ()): ((1, ()), 1)},
    ],
    ids=["two-states-on-one-line", "swap-without-sign"],
)
def test_a_line_map_sweep_matches_the_state_path(monkeypatch, lines):
    # a linear map sending each term to a scaled term, standing in for the
    # identity torus scaling; the term test may decide only what comparing
    # the States would
    spec = torus_spec(2, 1)
    real = aut4.apply

    def line_map(g, s):
        if g != spec:
            return real(g, s)
        out = State(s.lattice, {})
        for x, c in s.terms.items():
            y, e = lines.get(x, (x, 1))
            out = out + State(s.lattice, {y: c * e})
        return out

    monkeypatch.setattr(aut4, "apply", line_map)
    (rows,) = automorphism_rows([spec], 2)
    assert rows[2:] == _state_path_rows(spec, 2)
    assert any(actual is not True for _, actual in rows)


def test_y_basis_cyclic_brackets():
    y1, y2, y3 = y_basis()
    assert bracket(y1, y2) == y3
    assert bracket(y2, y3) == y1
    assert bracket(y3, y1) == y2


def test_quarter_turn_on_the_weight_one_triple():
    y1, y2, y3 = y_basis()
    s1 = rotation_sigma(1)
    assert apply(s1, y1) == y1
    assert apply(s1, y2) == y3
    assert apply(s1, y3) == y2 * Scalar(-1)
    # squaring gives -1 on the moved lines, so the line action is an involution
    assert apply(s1, apply(s1, y2)) == y2 * Scalar(-1)


def test_line_permutations_of_the_three_rotations():
    assert _line_permutation(rotation_sigma(1)) == (0, 2, 1)
    assert _line_permutation(rotation_sigma(2)) == (1, 0, 2)
    assert _line_permutation(rotation_sigma(3)) == (2, 1, 0)
    with pytest.raises(ValueError):
        rotation_sigma(4)


def test_four_group_fixed_space_matches_the_norm_8_plus_space():
    specs = e_group()
    assert len(specs) == 3
    rep = Report("aut")
    e_fixed_check(rep, 6)
    assert rep.status == "pass"
    dims = [c.actual["dim"] for c in rep.checks]
    assert dims == [1, 0, 1, 1, 4, 4, 8]
    assert dims == [graded_dim(8, w, "plus") for w in range(7)]


def test_weight_four_split_and_projector():
    H, J, q = split_H_J()
    assert len(H) == 2 and len(J) == 2
    for h in H:
        assert q(h) == h
    for jv in J:
        assert q(jv).is_zero()
    # the pairing needs weight-4 inputs, or zero
    with pytest.raises(ValueError):
        pairing_p(ALPHA, H[0])
    assert pairing_p(State(2, {}), H[0]).is_zero()


def test_sym3_report_is_green_with_a_nonzero_scale():
    rep = Report("aut")
    data = sym3_report(rep)
    assert rep.status == "pass"
    assert all(c.status == "pass" for c in rep.checks)
    assert data["scale"] is not None and not data["scale"].is_zero()
    assert data["scale"] == Scalar(60)
    assert data["line_permutations"]["rho"] == (1, 2, 0)
    assert set(data) == {"scale", "line_permutations"}


def test_a_wrong_group_fails_the_sym3_rows_without_raising(monkeypatch):
    # with sigma_2 replaced by sigma_1 the group collapses to order two, the
    # axis orbit to one line and the identification phi to zero
    real = aut4.rotation_sigma
    monkeypatch.setattr(aut4, "rotation_sigma", lambda j: real(1 if j == 2 else j))
    rep = Report("aut")
    data = sym3_report(rep)
    assert rep.failures() == [
        "s2 line action",
        "three-cycle line action",
        "all six line permutations",
        "faithful on weight 4",
        "involutions differ",
        "second involution moves polynomials",
        "H traces of three-cycles",
        "axis orbit sums to zero",
        "H algebra matches the n=3 invariant algebra up to one scalar",
    ]
    assert data["scale"] is None or data["scale"].is_zero()


def test_a_repeated_J_vector_fails_the_dim_J_row(monkeypatch):
    H, J, q = split_H_J()
    monkeypatch.setattr(aut4, "split_H_J", lambda: (H, [J[0], J[0]], q))
    rep = Report("aut")
    sym3_report(rep)
    assert rep.failures() == ["dim J"]
    assert next(c.actual for c in rep.checks if c.name == "dim J") == 1


def test_a_repeated_H_vector_fails_the_H_trace_of_identity_row(monkeypatch):
    # J[0] is fixed by the whole group, so every map preserves its line and
    # the report runs to its end
    H, J, q = split_H_J()
    monkeypatch.setattr(aut4, "split_H_J", lambda: ([J[0], J[0]], J, q))
    rep = Report("aut")
    sym3_report(rep)
    assert "H trace of identity" in rep.failures()
    assert next(c.actual for c in rep.checks if c.name == "H trace of identity") == Scalar(1)


def test_matrix_on_reads_images_in_the_basis_and_refuses_a_map_leaving_its_span():
    H, J, _ = split_H_J()
    assert aut4._matrix_on(H, lambda s: s) == [[ONE, ZERO], [ZERO, ONE]]
    swap = {H[0]: H[1], H[1]: Scalar(3) * H[0]}
    assert aut4._matrix_on(H, swap.__getitem__) == [[ZERO, Scalar(3)], [ONE, ZERO]]
    with pytest.raises(AssertionError, match="does not preserve the span"):
        aut4._matrix_on(H, lambda s: s + J[0])


def test_a_term_image_applies_the_zero_mode_only_up_to_the_first_dependent_krylov_vector(monkeypatch):
    # on weight 3, the zero mode of y_2 has minimal polynomials of degree
    # 1, 2 and 3 on the terms
    y2 = y_basis()[1]
    index = {t: i for i, t in enumerate(weight_terms(2, 3))}
    real = aut4.mode
    degrees = set()
    for term in index:
        seen = []
        monkeypatch.setattr(aut4, "mode", lambda u, k, v: seen.append(v) or real(u, k, v))
        aut4._term_image(y2, 1, term, index)
        degrees.add(len(seen))
        # x(0)^j t for j < m are independent and x(0)^m t lies in their span
        krylov = [State.of_term(2, *term)] + [real(y2, 0, v) for v in seen]
        coords = [[v.terms.get(t, ZERO) for t in index] for v in krylov]
        assert seen == krylov[:-1]
        assert rank(coords[:-1]) == rank(coords) == len(seen)
    assert degrees == {1, 2, 3}


def test_a_one_vector_H_fails_the_dim_H_row_of_the_n4_report(monkeypatch, capsys):
    real = aut4.singular_vectors
    monkeypatch.setattr(aut4, "singular_vectors", lambda *args: real(*args)[:1])
    code, rep = cli.run(["aut", "--case", "n4", "--format", "json"])
    capsys.readouterr()
    assert code == 1 and rep is not None
    assert rep.failures() == ["dim H"]
    rows = {c.name: c.actual for c in rep.checks if c.location == "h-j-split"}
    assert rows == {"dim H": 1, "dim J": 2}


def test_rotations_preserve_the_distinguished_lines_exactly():
    ys = y_basis()
    lines = []
    for y in ys:
        g = GradedSubspace(2, 1)
        g.insert(y)
        lines.append(g)
    for j in (1, 2, 3):
        spec = rotation_sigma(j)
        perm = _line_permutation(spec)
        for src, y in enumerate(ys):
            assert lines[perm[src]].contains(apply(spec, y))
