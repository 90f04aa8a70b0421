"""Module engines: closures, singular vectors, couplings, fusion spans."""

from collections import deque
from fractions import Fraction

import pytest

from voaplus import cli, reptheory
from voaplus.aut4 import automorphism_rows, e_fixed_check, theta_spec
from voaplus.fock import BOUNDS, LatticeMismatch, State, graded_basis, graded_dim
from voaplus.numeric import ZERO, Scalar, virasoro_character
from voaplus.report import Report, encode_value
from voaplus.reptheory import (
    CGLabel,
    GradedSubspace,
    OutsideBound,
    cg_coefficient,
    character_decomposition_suite,
    closure,
    expected_full_decomposition,
    expected_plus_decomposition,
    fusion_span,
    lower_u,
    parity_sweep,
    rescale_heisenberg_state,
    saturate,
    singular_vectors,
    tensor_decompose,
)
from voaplus.vertex import mode, virasoro


def character_dims(h, max_weight):
    ch = virasoro_character(Fraction(h), Fraction(max_weight + 1))
    return [int(ch.coeff(Fraction(w) - Fraction(1, 24)).re) for w in range(max_weight + 1)]


def test_graded_subspace_insert_and_membership():
    sub = GradedSubspace(2, 4)
    a = State.of_term(2, 0, (1, 1))
    b = State.of_term(2, 0, (2,))
    assert sub.insert(a) is not None
    assert sub.insert(a * 5) is None
    assert sub.insert(a + b) is not None
    assert sub.contains(a * 3 + b * Scalar(0, 2))
    assert sub.dim(2) == 2 and sub.dims() == [0, 0, 2, 0, 0]
    with pytest.raises(ValueError):
        sub.insert(State.of_term(2, 0, (5,)))  # weight above the window
    with pytest.raises(ValueError):
        sub.insert(State.of_term(2, 1, (1,)) + State.of_term(2, 0, (1,)))  # mixed


def test_graded_subspace_refuses_states_of_another_lattice():
    sub = GradedSubspace(2, 4)
    # the term (0, (2,)) also names a weight-2 state of the norm-2 lattice
    with pytest.raises(LatticeMismatch):
        sub.insert(State.of_term(4, 0, (2,)))
    assert sub.dims() == [0, 0, 0, 0, 0]
    sub.insert(State.of_term(2, 0, (2,)))
    with pytest.raises(LatticeMismatch):
        sub.contains(State.of_term(6, 0, (2,)))
    with pytest.raises(LatticeMismatch):
        sub.contains(State(6, {}))


def test_closure_of_the_conformal_vector_is_the_vacuum_module():
    sub = closure(2, [State.omega(2)], 8)
    assert sub.dims() == character_dims(0, 8)


def test_saturate_skips_zero_states_and_runs_breadth_first():
    sub = GradedSubspace(2, 4)
    seen = []
    insert = sub.insert
    sub.insert = lambda s: seen.append(s) or insert(s)
    zero = State(2, {})
    a = State.of_term(2, 0, (1,))
    b = State.of_term(2, 0, (1, 1))

    def step(v):
        yield zero
        if v.weight() < 4:
            yield virasoro(-1, v)

    saturate(sub, [zero, a, zero, b], step)
    assert not any(s.is_zero() for s in seen)
    # seeds in order, then the images of each accepted vector in queue order;
    # an accepted vector comes back as its primitive integer residual, so the
    # images match up to a nonzero scalar factor
    a2 = virasoro(-1, a)
    b3 = virasoro(-1, b)
    a3 = virasoro(-1, a2)
    want = [a, b, a2, b3, a3, virasoro(-1, b3), virasoro(-1, a3)]
    assert len(seen) == len(want)
    assert all(_proportional(s, t) for s, t in zip(seen, want))
    assert sub.dims() == [0, 1, 2, 2, 2]


def _same_space(one, other):
    """Equal dimensions, and the basis of the one with the smaller bound lies
    in the other, at every weight; the bounds may differ but must be nested.

    Nested bounds are ordered by their dimension through W: the subspaces'
    own dims are equal whenever the answer is yes, so they cannot order the
    pair, and bounds of equal dimension through W coincide there."""
    if one.lattice != other.lattice or one.max_weight != other.max_weight:
        return False

    def bound_dim(sub):
        return sum(graded_dim(sub.lattice, w, sub.bound) for w in range(sub.max_weight + 1))

    narrow, wide = sorted((one, other), key=bound_dim)
    return narrow.dims() == wide.dims() and all(
        wide.contains(b) for w in range(one.max_weight + 1) for b in narrow.basis_states(w)
    )


def _proportional(s, t):
    """s = c * t for one nonzero scalar c."""
    if not t or s.terms.keys() != t.terms.keys():
        return False
    k = next(iter(t.terms))
    return s == (s.terms[k] / t.terms[k]) * t


def test_same_space_compares_lines_not_integer_rows():
    a = State.of_term(2, 0, (1, 1))
    b = State.of_term(2, 0, (2,))
    x = a + b * 2
    y = a + b * Scalar(1, -1)
    for u, v in ((x, x * -1), (y, y * Scalar(1, 1))):  # (1, 1-i) and (1+i, 2)
        one, other = GradedSubspace(2, 2), GradedSubspace(2, 2)
        one.insert(u)
        other.insert(v)
        assert _same_space(one, other) and _same_space(other, one)
    one, other = GradedSubspace(2, 2), GradedSubspace(2, 2)
    one.insert(x)
    other.insert(y)
    assert not _same_space(one, other)


def _echelon_rows(sub):
    return {w: dict(p["ech"].rows) for w, p in sub.pieces.items()}


def test_saturating_a_finished_space_with_its_own_basis_adds_nothing():
    J, E, om = _named_generators(4)
    spaces = [closure(4, [J, E, om], 6), fusion_span(2, 1, 6)]
    for sub in spaces:
        before = _echelon_rows(sub)
        basis = [b for w in range(sub.max_weight + 1) for b in sub.basis_states(w)]
        followed = []
        saturate(sub, basis, lambda v: followed.append(v) or ())
        assert followed == []
        assert _echelon_rows(sub) == before


def _closure_all_pairs(lattice, generators, max_weight):
    """Oracle: the windowed closure under every pairwise mode of the vectors
    found, not only the generators' modes.  Quadratic in the span, so small
    windows only."""
    W = int(max_weight)
    sub = GradedSubspace(lattice, W)
    vecs, weights = [], []
    queue = deque()

    # Pairs are processed with the earlier-inserted vector on the left, plus
    # the diagonal and the vacuum on the right.  That reaches the same fixed
    # point as all ordered pairs: right-vacuum pairs make the result stable
    # under the translation operator, and skew-symmetry writes u_k v as a sum
    # of translation powers of modes v_k' u with v inserted first.
    def add(s):
        reduced = sub.insert(s)
        if reduced is None:
            return
        idx = len(vecs)
        vecs.append(reduced)
        weights.append(int(reduced.weight()))
        queue.extend((other, idx) for other in range(idx + 1))
        if idx:
            queue.append((idx, 0))

    add(State.vacuum(lattice))
    for g in generators:
        add(g)
    while queue:
        i, j = queue.popleft()
        total = weights[i] + weights[j]
        for k in range(total - 1 - W, total):
            r = mode(vecs[i], k, vecs[j])
            if r:
                add(r)
    return sub


def _named_generators(N):
    J = rescale_heisenberg_state(lower_u(2), N)
    E = State.of_term(N, 1) + State.of_term(N, -1)
    return J, E, State.omega(N)


def test_closure_monotone_idempotent_and_equal_to_all_pairs():
    om = State.omega(2)
    u4 = lower_u(2)
    small = closure(2, [om], 6)
    big = closure(2, [om, u4], 6)
    for w in range(7):
        assert small.dim(w) <= big.dim(w)
    again = closure(2, [b for w in range(7) for b in big.basis_states(w)], 6)
    assert _same_space(again, big)
    for N in (2, 4, 6, 8):
        J, E, om = _named_generators(N)
        for gens, W in (([J, E, om], 5 if N == 2 else 6), ([J, om], 6), ([om], 6)):
            got = closure(N, gens, W)
            assert _same_space(got, _closure_all_pairs(N, gens, W)), (N, len(gens), W)


def test_generator_action_is_contained_in_all_pairs_without_omega():
    # Monomials through weights above the window are not followed, so without
    # the conformal vector generator action can fall short of all pairs.
    _, E, _ = _named_generators(8)
    got = closure(8, [E], 6)
    oracle = _closure_all_pairs(8, [E], 6)
    assert got.dims() == [1, 0, 1, 1, 4, 4, 6]
    assert oracle.dims() == [1, 0, 1, 1, 4, 4, 8]
    for w in range(7):
        assert all(oracle.contains(b) for b in got.basis_states(w))


def test_a_bad_lattice_or_weight_window_is_refused():
    # an odd or nonpositive lattice norm, or a weight window that is no integer
    for lattice, W in ((3, 4), (0, 4), (-2, 4), (2, 4.9), (2, Fraction(9, 2)), (2, "4")):
        with pytest.raises(ValueError):
            GradedSubspace(lattice, W)
    assert GradedSubspace(2, Fraction(4)).dims() == [0] * 5


# every entry point that takes a weight window [0, W] through fock.check_window
WINDOWED = [
    pytest.param(lambda W: GradedSubspace(2, W), id="GradedSubspace"),
    pytest.param(lambda W: closure(2, [State.of_term(2, 0, (1,))], W), id="closure"),
    pytest.param(lambda W: fusion_span(1, 1, W), id="fusion_span"),
    pytest.param(
        lambda W: character_decomposition_suite(Report("characters"), 2, W, 20),
        id="character_decomposition_suite",
    ),
    pytest.param(lambda W: automorphism_rows([theta_spec(2)], W), id="automorphism_rows"),
    pytest.param(lambda W: e_fixed_check(Report("aut"), W), id="e_fixed_check"),
]


@pytest.mark.parametrize("run", WINDOWED)
def test_every_windowed_entry_point_refuses_a_window_that_is_no_integer(run):
    for W in (2.5, Fraction(5, 2), "2", float("inf"), float("nan"), None):
        with pytest.raises(ValueError, match="max_weight must be an integer"):
            run(W)


@pytest.mark.parametrize("run", WINDOWED)
def test_every_windowed_entry_point_refuses_a_negative_window(run):
    # an empty window [0, W] would pass every check on no states at all
    for W in (-1, -2, Fraction(-4), -3.0):
        with pytest.raises(ValueError, match="max_weight must be an integer >= 0"):
            run(W)


def test_each_bound_is_filled_by_its_graded_basis_and_refuses_what_lies_outside():
    for N in (2, 4, 6):
        for bound in BOUNDS:
            sub = GradedSubspace(N, 6, bound)
            for w in range(7):
                assert not sub.full(w) or graded_dim(N, w, bound) == 0
                for b in graded_basis(N, w, bound):
                    sub.insert(b)
                assert sub.full(w) and sub.dim(w) == graded_dim(N, w, bound), (N, bound, w)
    with pytest.raises(ValueError):
        GradedSubspace(2, 4, "minus")
    plus, heis = GradedSubspace(2, 4, "plus"), GradedSubspace(2, 4, "pair+:0")
    odd = State.of_term(2, 0, (2,))  # one part: theta-odd
    half = State.of_term(2, 1, (1,))  # a sector term without its theta partner
    wrong_sign = State.of_term(2, 1, (1,)) + State.of_term(2, -1, (1,))
    sector = State.of_term(2, 1) + State.of_term(2, -1)  # theta-fixed, sector +-1
    for sub, outside in ((plus, [odd, half, wrong_sign]), (heis, [odd, half, sector])):
        for s in outside:
            with pytest.raises(OutsideBound):
                sub.insert(s)
            with pytest.raises(OutsideBound):
                sub.contains(s)
        assert sub.dims() == [0, 0, 0, 0, 0]
    fixed = State.of_term(2, 1, (1,)) - State.of_term(2, -1, (1,))
    assert plus.insert(fixed) == fixed and plus.basis_states(2) == [fixed]
    assert plus.insert(sector * 3) == sector and plus.contains(sector * Scalar(0, 1))


def test_closure_refuses_a_generator_outside_its_bound():
    for N in (2, 4, 6):
        _, E, om = _named_generators(N)
        with pytest.raises(OutsideBound):
            closure(N, [State.of_term(N, 1)], 6, "plus")  # theta-odd
        with pytest.raises(OutsideBound):
            closure(N, [E, om], 6, "pair+:0")  # sectors +-1
    with pytest.raises(ValueError):
        closure(2, [State.omega(2)], 6, "minus")
    # modes do not preserve "pair-:0"; it lacks the vacuum, which is refused
    # first, even when the generator lies in the bound
    for gens in ([State.omega(2)], [State.of_term(2, 0, (1,))]):
        with pytest.raises(OutsideBound):
            closure(2, gens, 4, "pair-:0")


def test_capped_bounded_closures_equal_the_full_closures():
    for N in (2, 4, 6):
        J, E, om = _named_generators(N)
        for gens, bound in (([J, E, om], "plus"), ([J, om], "pair+:0")):
            capped = closure(N, gens, 8, bound)
            full = closure(N, gens, 8)
            assert capped.dims() == full.dims(), (N, bound)
            assert _same_space(capped, full) and _same_space(full, capped)
            for w in range(9):
                basis = capped.basis_states(w)
                assert all(capped.contains(b) and full.contains(b) for b in basis)


def test_the_cap_skips_exactly_the_modes_into_full_pieces(monkeypatch):
    # The cap is checked against the count of the bound's graded basis here,
    # independently of the coordinates the subspace keeps.
    subs = []
    insert = GradedSubspace.insert

    def recording_insert(self, s):
        if not subs or subs[-1] is not self:
            subs.append(self)
        return insert(self, s)

    monkeypatch.setattr(GradedSubspace, "insert", recording_insert)
    for N in (2, 6):
        J, E, om = _named_generators(N)
        exps = [State.of_term(N, 1), State.of_term(N, -1)]
        for gens, bound in (([J, E, om], "plus"), ([J, om], "pair+:0"), (exps + [om], "full")):
            calls = []

            def counting_mode(g, k, v):
                w = g.weight() + v.weight() - k - 1
                calls.append(subs[-1].dim(w) < graded_dim(N, w, bound))
                return mode(g, k, v)

            monkeypatch.setattr(reptheory, "mode", counting_mode)
            got = closure(N, gens, 7, bound)
            # every accepted vector is stepped once, by each generator, into
            # each of the W + 1 weights of the window
            steps = sum(got.dims()) * len(gens) * 8
            assert calls and all(calls), (N, bound)
            assert len(calls) < steps / 2, (N, bound, len(calls), steps)
            assert got.dims() == [graded_dim(N, w, bound) for w in range(8)]


def test_conformal_vector_and_the_two_exponentials_generate_the_full_lattice_algebra():
    # V_L is generated by e^alpha and e^-alpha; the closure fills each piece,
    # far above the parity-fixed dims, so no cap below the bound can pass this
    for N in (2, 4):
        gens = [State.of_term(N, 1), State.of_term(N, -1), State.omega(N)]
        got = closure(N, gens, 6)
        assert got.dims() == [graded_dim(N, w, "full") for w in range(7)]
        assert any(graded_dim(N, w, "plus") < got.dim(w) for w in range(7))


def test_same_space_compares_across_bounds_by_rank_and_containment():
    a = State.of_term(2, 0, (1, 1))
    plus, full = GradedSubspace(2, 2, "plus"), GradedSubspace(2, 2)
    plus.insert(a)
    full.insert(a * 3)
    assert _same_space(plus, full) and _same_space(full, plus)
    other = GradedSubspace(2, 2)
    other.insert(State.of_term(2, 0, (2,)))  # same dims, outside the plus bound
    assert plus.dims() == other.dims()
    assert not _same_space(plus, other) and not _same_space(other, plus)


def test_lower_u_produces_singular_vectors():
    # lower_u(1) is a nonzero multiple of g(-1) vacuum
    u1 = lower_u(1)
    assert u1.terms and set(u1.terms) == {(0, (1,))}
    for m in (1, 2, 3):
        um = lower_u(m)
        assert um.weight() == Fraction(m * m)
        assert virasoro(0, um) == um * (m * m)
        for k in (1, 2, 3, 4):
            assert virasoro(k, um) == State(2, {})
        assert mode(State.of_term(2, 0, (1,)), 0, um) == State(2, {})


def test_singular_vectors_in_the_even_heisenberg_space():
    counts = [len(singular_vectors(2, w, "pair+:0")) for w in range(7)]
    assert counts == [1, 0, 0, 0, 1, 0, 0]
    s4 = singular_vectors(2, 4, "pair+:0")[0]
    sub = GradedSubspace(2, 4)
    sub.insert(s4)
    assert sub.contains(lower_u(2) * _leading_ratio(lower_u(2), s4))
    for k in (1, 2, 3, 4):
        assert virasoro(k, s4) == State(2, {})


def _leading_ratio(a, b):
    term, ca = next(iter(a.sorted_terms()))
    cb = b.terms.get(term)
    return (cb / ca) if cb else Scalar(1)


def test_rescale_heisenberg_state_moves_between_lattices():
    u4 = lower_u(2)
    moved = rescale_heisenberg_state(u4, 6)
    assert moved.lattice == 6
    assert moved.weight() == Fraction(4)
    for k in (1, 2, 3, 4):
        assert virasoro(k, moved) == State(6, {})
    with pytest.raises(ValueError):
        rescale_heisenberg_state(State.of_term(2, 1, (1, 1)), 6)  # nonzero sector
    with pytest.raises(ValueError):
        rescale_heisenberg_state(State.of_term(2, 0, (2, 1, 1)), 6)  # odd part count


def test_cg_label_validation():
    with pytest.raises(ValueError, match="even nonnegative"):
        CGLabel(2, 2, 1)  # odd label
    with pytest.raises(ValueError, match="even nonnegative"):
        CGLabel(-2, 2, 0)  # negative label
    with pytest.raises(ValueError, match="even nonnegative"):
        CGLabel(Fraction(2), 2, 0)  # not an int
    with pytest.raises(ValueError, match="tensor range"):
        CGLabel(2, 2, 6)  # outside the tensor range
    with pytest.raises(ValueError):
        CGLabel(4, 0, 2)  # below the tensor range


def test_a_cg_label_is_an_immutable_value():
    label = CGLabel(4, 2, 2)
    assert label == CGLabel(m=4, n=2, i=2) and hash(label) == hash(CGLabel(4, 2, 2))
    assert label != CGLabel(2, 4, 2) and label != CGLabel(4, 2, 6)
    assert len({label, CGLabel(4, 2, 2), CGLabel(2, 4, 2)}) == 2
    assert repr(label) == "CGLabel(m=4, n=2, i=2)"
    for name in ("m", "n", "i"):
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
        with pytest.raises(AttributeError):
            delattr(label, name)
    # not a tuple: a label put into a report raises instead of serializing
    assert label != (4, 2, 2)
    with pytest.raises(TypeError):
        encode_value(label)


def test_tensor_decompose_range():
    assert tensor_decompose(4, 2) == [2, 4, 6]
    assert tensor_decompose(2, 4) == [2, 4, 6]
    assert tensor_decompose(0, 0) == [0]


def sl2_coupling_oracle(m, n, i):
    """Signed square of the zero-weight coupling, built from the raw tensor.

    Works in the unnormalized bases F^r v of the two factors, locates the
    highest-weight vector of the label-i constituent (phase fixed so the
    coefficient on the highest-m1 component is positive), lowers it to weight
    zero, and projects the product of the two weight-zero vectors using the
    exact Gram data <F^r v, F^r v> = prod_{s<=r} s(m-s+1).
    """
    if (m + n + i) % 2 or not abs(m - n) <= i <= m + n:
        return Fraction(0)

    def gram(mm):
        out = [Fraction(1)]
        for s in range(1, mm + 1):
            out.append(out[-1] * s * (mm - s + 1))
        return out

    gm, gn, gi = gram(m), gram(n), gram(i)
    # tensor basis (r, s): F^r v_m x F^s v_n; E acts factorwise
    pairs_at = lambda wt: [
        (r, (m + n - wt) // 2 - r)
        for r in range(m + 1)
        if 0 <= (m + n - wt) // 2 - r <= n
    ]
    # highest-weight vector of the label-i constituent: solve E x = 0 at weight i
    level = (m + n - i) // 2
    basis = pairs_at(i)
    above = pairs_at(i + 2)
    rows = {p: {} for p in above}
    for col, (r, s) in enumerate(basis):
        if r:
            rows[(r - 1, s)][col] = Fraction(r * (m - r + 1))
        if s:
            rows[(r, s - 1)][col] = Fraction(s * (n - s + 1))
    # eliminate to find the one-dimensional kernel
    mat = [[row.get(c, Fraction(0)) for c in range(len(basis))] for row in rows.values()]
    kern = _kernel_1d(mat, len(basis))
    if kern[0] < 0:  # highest-m1 component is basis[0] = (level, ...) ordering
        kern = [-c for c in kern]
    hw = dict(zip(basis, kern))
    # lower i/2 times to weight zero
    vec = hw
    for _ in range(i // 2):
        nxt = {}
        for (r, s), c in vec.items():
            if c:
                if r < m:
                    nxt[(r + 1, s)] = nxt.get((r + 1, s), Fraction(0)) + c
                if s < n:
                    nxt[(r, s + 1)] = nxt.get((r, s + 1), Fraction(0)) + c
        vec = nxt
    # inner products against w_{m,0} x w_{n,0} = F^{m/2} v x F^{n/2} v
    target = (m // 2, n // 2)
    dot = vec.get(target, Fraction(0)) * gm[m // 2] * gn[n // 2]
    norm_sq = sum(c * c * gm[r] * gn[s] for (r, s), c in vec.items())
    target_norm_sq = gm[m // 2] * gn[n // 2]
    # c = <vec, w00> / (|vec| |w00|); return sign(c) * c^2, all rational
    num = dot * dot
    den = norm_sq * target_norm_sq
    signed = Fraction(num, den)
    return signed if dot >= 0 else -signed


def _kernel_1d(mat, ncols):
    from voaplus.linalg import kernel_basis

    ker = kernel_basis(mat, ncols)
    assert len(ker) == 1
    assert not any(c.im for c in ker[0])  # a rational matrix has a rational kernel
    return [c.re for c in ker[0]]


def test_cg_coefficient_against_tensor_oracle():
    for m in range(0, 5, 2):
        for n in range(0, 5, 2):
            for i in tensor_decompose(m, n):
                got = cg_coefficient(CGLabel(max(m, n), min(m, n), i))
                want = sl2_coupling_oracle(max(m, n), min(m, n), i)
                assert got == Scalar(want), (m, n, i)


def test_cg_symmetry_and_parity():
    for m in range(0, 9, 2):
        for n in range(0, m + 1, 2):
            for i in tensor_decompose(m, n):
                a = cg_coefficient(CGLabel(m, n, i))
                assert a == cg_coefficient((m, n, i))
                odd = ((m + n + i) // 2) % 2 == 1
                assert a.is_zero() == odd
    rep = Report("cg")
    parity_sweep(rep, 8)
    assert rep.status == "pass"
    assert len(rep.checks) == sum(
        len(tensor_decompose(m, n)) for m in range(0, 9, 2) for n in range(0, 9, 2)
    )


def test_parity_sweep_fails_exactly_the_rows_predicting_a_coupling(monkeypatch):
    monkeypatch.setattr(reptheory, "cg_coefficient", lambda label: ZERO)
    rep = Report("cg")
    parity_sweep(rep, 8)
    predicted_nonzero = [c.name for c in rep.checks if not c.expected["vanishes"]]
    assert predicted_nonzero
    assert rep.failures() == predicted_nonzero


def test_fusion_span_matches_and_never_exceeds():
    for (m, n), constituents in (((1, 1), [0, 2]), ((1, 2), [1, 3])):  # (1, 2) swaps to (2, 1)
        rep = cli._fusion_report(m, n, 6)
        assert rep.parameters["constituents"] == constituents
        predicted = [sum(col) for col in zip(*(character_dims(i * i, 6) for i in constituents))]
        sub = fusion_span(m, n, 6)
        assert isinstance(sub, GradedSubspace)
        assert sub.dims() == predicted
        assert all(d <= p for d, p in zip(sub.dims(), predicted))
    with pytest.raises(ValueError):
        fusion_span(1, 0, 4)


def test_character_decomposition_suite_small():
    rep = Report("characters")
    character_decomposition_suite(rep, 2, 6, 20)
    assert rep.checks and all(c.status == "pass" for c in rep.checks)
    names = [c.name for c in rep.checks]
    assert any("full" in x for x in names)
    with pytest.raises(ValueError):
        character_decomposition_suite(rep, 2, 20, 10)  # order must exceed the window


@pytest.mark.parametrize(
    "N, want",
    [
        # 2N = 4k^2: n^2 with multiplicity 2(n // k) + 1
        (2, [(0, 1), (1, 3), (4, 5), (9, 7), (16, 9)]),
        (8, [(0, 1), (1, 1), (4, 3), (9, 3), (16, 5)]),
        (18, [(0, 1), (1, 1), (4, 1), (9, 3), (16, 3)]),
        # otherwise each n^2 once, then each sector weight m^2 N/2 twice
        (4, [(0, 1), (1, 1), (4, 1), (9, 1), (16, 1), (2, 2), (8, 2), (18, 2)]),
        (6, [(0, 1), (1, 1), (4, 1), (9, 1), (16, 1), (3, 2), (12, 2)]),
    ],
)
def test_expected_full_decomposition_by_hand(N, want):
    # order 20: the squares through 16 and the sectors below 20 + 1/24 are visible
    assert list(expected_full_decomposition(N, Fraction(20)).items()) == want


@pytest.mark.parametrize(
    "N, want",
    [
        (4, [(0, 1), (4, 1), (16, 1), (2, 1), (8, 1), (18, 1)]),
        (6, [(0, 1), (4, 1), (16, 1), (3, 1), (12, 1)]),
    ],
)
def test_expected_plus_decomposition_by_hand(N, want):
    # each 4n^2 once, then each sector weight m^2 N/2 once
    assert list(expected_plus_decomposition(N, Fraction(20)).items()) == want
    with pytest.raises(ValueError):
        expected_plus_decomposition(8, Fraction(20))  # 2N a square
