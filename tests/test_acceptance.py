"""Acceptance battery: the fifteen headline checks, exact and zero-tolerance.

Each test prints one PASS/FAIL line; a FAIL is a hard assertion failure.
All arithmetic is exact, so every comparison is structural equality.
"""

from fractions import Fraction
from math import factorial, isqrt

from voaplus.aut4 import (
    apply,
    check_automorphism,
    compose_specs,
    sym3_report,
    theta_spec,
    torus_spec,
)
from voaplus.fock import State, graded_basis, graded_dim
from voaplus.linalg import kernel_basis
from voaplus.numeric import I, Scalar, telescoping_check, virasoro_character
from voaplus.report import Report
from voaplus.reptheory import (
    character_decomposition_suite,
    closure,
    fusion_span,
    lower_u,
    parity_sweep,
    rescale_heisenberg_state,
    singular_vectors,
)
from voaplus.symn import invariant_algebra_report, build, distinguished_idempotents
from voaplus.vertex import bracket, mode, poly_binom, virasoro

F = Fraction
ORDER = F(40)


def _verdict(num: int, label: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  acceptance {num:02d}: {label}")
    assert ok, f"acceptance {num:02d}: {label}"


def _virasoro_dims(h, max_weight: int) -> list:
    ch = virasoro_character(F(h), F(max_weight + 1))
    return [int(ch.coeff(F(w) - F(1, 24)).re) for w in range(max_weight + 1)]


def test_01_full_character_multiplicities():
    rep = Report("characters")
    character_decomposition_suite(rep, 2, 12, ORDER)
    ok = bool(rep.checks) and all(c.status == "pass" for c in rep.checks)
    branching = [c for c in rep.checks if c.name == "full-character branching N=2"]
    ok = ok and len(branching) == 1
    if ok:
        got = branching[0].actual
        for m in range(4):
            ok = ok and got.get(F(m * m)) == 2 * m + 1
    _verdict(1, "norm-2 character splits with multiplicity 2m+1 at weight m^2", ok)


def test_02_plus_character_branchings():
    ok = True
    for N in (4, 6, 10):
        r = isqrt(2 * N)
        ok = ok and r * r != 2 * N  # the branching rule needs 2N non-square
        rep = Report("characters")
        character_decomposition_suite(rep, N, 8, ORDER)
        ok = ok and bool(rep.checks) and all(c.status == "pass" for c in rep.checks)
        plus = [c for c in rep.checks if c.name == f"plus-character branching N={N}"]
        ok = ok and len(plus) == 1
        if not ok:
            break
        predicted = {}
        p = 0
        while F(4 * p * p) - F(1, 24) < ORDER:
            predicted[F(4 * p * p)] = 1
            p += 1
        m = 1
        while F(m * m * N, 2) - F(1, 24) < ORDER:
            predicted[F(m * m * N, 2)] = predicted.get(F(m * m * N, 2), 0) + 1
            m += 1
        ok = ok and plus[0].actual == predicted
    _verdict(2, "fixed-subalgebra characters branch into the predicted constituents", ok)


def test_03_telescoping_identities():
    ok = all(telescoping_check(m, k, ORDER) for m, k in ((1, 1), (2, 1), (1, 2), (2, 2)))
    _verdict(3, "telescoping identity at order 40 for the four index pairs", ok)


def test_04_heisenberg_parity_split_dimensions():
    W = 12
    plus_pred = [0] * (W + 1)
    p = 0
    while 4 * p * p <= W:
        for w, d in enumerate(_virasoro_dims(4 * p * p, W)):
            plus_pred[w] += d
        p += 1
    minus_pred = [0] * (W + 1)
    p = 0
    while (2 * p + 1) ** 2 <= W:
        for w, d in enumerate(_virasoro_dims((2 * p + 1) ** 2, W)):
            minus_pred[w] += d
        p += 1
    plus_dims = [graded_dim(2, w, "pair+:0") for w in range(W + 1)]
    minus_dims = [graded_dim(2, w, "pair-:0") for w in range(W + 1)]
    ok = plus_dims == plus_pred and minus_dims == minus_pred
    _verdict(4, "parity halves of the Heisenberg space match the character sums", ok)


def test_05_mode_engine_landmarks():
    s = State.of_term(2, 0, (3, 1))
    ok = mode(s, 3, s) == s * 72
    for n in range(1, 5):
        N = 2 * n
        u = State.of_term(N, 1) + State.of_term(N, -1)
        ok = ok and mode(u, 2 * n - 1, u) == State.vacuum(N) * 2
    _verdict(5, "square of the weight-4 state gives 72; exponential self-pairing gives 2", ok)


def test_06_virasoro_relations_and_commutator_formula():
    flat = [b for w in range(7) for b in graded_basis(2, w, "full")]
    ok = True
    for p in range(-3, 4):
        for q in range(-3, 4):
            central = F(p**3 - p, 12) if p + q == 0 else F(0)
            for b in flat:
                lhs = virasoro(p, virasoro(q, b)) - virasoro(q, virasoro(p, b))
                rhs = (p - q) * virasoro(p + q, b)
                if central:
                    rhs = rhs + b * central
                if lhs != rhs:
                    ok = False

    pool = graded_basis(2, 2, "full") + graded_basis(2, 3, "full")
    combos = []
    for u in pool:
        for v in pool:
            for w in pool:
                for pq in ((1, 1), (2, -1)):
                    combos.append((u, v, w, pq))
    stride = max(1, len(combos) // 20)
    picked = combos[::stride][:20]
    ok = ok and len(picked) == 20
    zero2 = State(2, {})
    for u, v, w, (p, q) in picked:
        wu, wv = int(u.weight()), int(v.weight())
        lhs = mode(u, p, mode(v, q, w)) - mode(v, q, mode(u, p, w))
        rhs = zero2
        for j in range(wu + wv):
            uv = mode(u, j, v)
            if uv:
                rhs = rhs + poly_binom(p, j) * mode(uv, p + q - j, w)
        if lhs != rhs:
            ok = False
    _verdict(6, "central-charge-one relations to weight 6 and 20 commutator triples", ok)


def test_07_lie_brackets():
    h = State.of_term(2, 0, (1,))
    x = State.of_term(2, 1)
    y = State.of_term(2, -1)
    ok = bracket(h, x) == x * 2 and bracket(h, y) == y * (-2) and bracket(x, y) == h
    from voaplus.aut4 import y_basis

    y1, y2, y3 = y_basis()
    ok = (
        ok
        and bracket(y1, y2) == y3
        and bracket(y2, y3) == y1
        and bracket(y3, y1) == y2
    )
    _verdict(7, "Chevalley brackets and the cyclic weight-one triple", ok)


def test_08_generation_closures():
    ok = True
    for N in (2, 4, 6):
        u4 = rescale_heisenberg_state(lower_u(2), N)
        e_sym = State.of_term(N, 1) + State.of_term(N, -1)
        om = State.omega(N)
        plus_dims = [graded_dim(N, w, "plus") for w in range(9)]
        heis_dims = [graded_dim(N, w, "pair+:0") for w in range(9)]
        ok = ok and closure(N, [u4, e_sym, om], 8).dims() == plus_dims
        ok = ok and closure(N, [u4, om], 8).dims() == heis_dims
    _verdict(8, "three generators span the fixed subalgebra; two span the even half", ok)


def test_09_singular_vector_closures():
    vac_dims = _virasoro_dims(0, 8)
    heis_dims = [graded_dim(2, w, "pair+:0") for w in range(9)]
    om = State.omega(2)
    outcomes = []
    ok = True
    for w in range(7):
        for s in singular_vectors(2, w, "pair+:0"):
            d = closure(2, [om, s], 8).dims()
            outcomes.append(d)
            ok = ok and d in (vac_dims, heis_dims)
    # both outcomes occur: the vacuum at weight 0, the weight-4 vector beyond
    ok = ok and len(outcomes) == 2
    ok = ok and vac_dims in outcomes and heis_dims in outcomes
    _verdict(9, "every singular-vector closure is the vacuum module or everything", ok)


def test_10_fusion_spans():
    ok = True
    for m, n in ((1, 1), (2, 1), (2, 2)):
        sub = fusion_span(m, n, 8)
        per_label = [_virasoro_dims(i * i, 8) for i in range(m - n, m + n + 1, 2)]
        for w in range(9):
            ok = ok and sum(dims[w] for dims in per_label) == sub.dim(w)
    _verdict(10, "mode spans of singular pairs fill the predicted character sums", ok)


def test_11_coupling_parity_sweep():
    rep = Report("cg")
    parity_sweep(rep, 8)
    ok = rep.status == "pass" and bool(rep.checks)
    ok = ok and all(c.status == "pass" for c in rep.checks)
    _verdict(11, "coupling constants vanish exactly on the odd-parity labels", ok)


def test_12_weight_four_group_action():
    rep = Report("aut")
    data = sym3_report(rep)
    ok = rep.status == "pass" and all(c.status == "pass" for c in rep.checks)
    ok = ok and data["scale"] is not None and not data["scale"].is_zero()
    names = {c.name for c in rep.checks}
    for needed in (
        "weight-4 E-fixed dimension",
        "spanning set independent",
        "dim H",
        "projector keeps the cross term",
        "involutions differ",
        "all six line permutations",
        "faithful on weight 4",
        "H algebra matches the n=3 invariant algebra up to one scalar",
    ):
        ok = ok and needed in names
    _verdict(12, "weight-4 piece carries the full three-letter action and algebra", ok)


def test_13_automorphism_mode_compatibility():
    rep = Report("aut")
    check_automorphism(rep, theta_spec(2), 5, "theta", "theta-check")
    ok = True
    th = theta_spec(8)
    for c in (Scalar(2), Scalar(-1), I):
        check_automorphism(rep, torus_spec(8, c), 5, f"torus c={c}", "torus-check")
        conj = compose_specs(th, torus_spec(8, c), th)
        inv = torus_spec(8, c.inverse())
        for w in range(5):
            for b in graded_basis(8, w, "full"):
                if apply(conj, b) != apply(inv, b):
                    ok = False
    ok = ok and rep.status == "pass"
    _verdict(13, "involution and sector scalings respect every mode; conjugation inverts", ok)


def test_14_fixed_character_equals_norm_eight_character():
    plus2 = [graded_dim(2, w, "plus") for w in range(13)]
    full8 = [graded_dim(8, w, "full") for w in range(13)]
    ok = plus2 == full8
    _verdict(14, "norm-2 fixed character equals the norm-8 full character to weight 12", ok)


def test_15_invariant_algebra_family():
    rep = Report("symn")
    invariant_algebra_report(rep, range(3, 9))
    ok = bool(rep.checks) and all(c.status == "pass" for c in rep.checks)
    names = {c.name for c in rep.checks}
    for n in range(3, 9):
        for stem in ("equivariance", "idempotents", "ad-spectrum"):
            ok = ok and f"{stem} n={n}" in names
    ok = ok and "n=3 exhaustive filter" in names
    # spot re-derivation away from the report path: at n = 5 the eigenspaces
    # of multiplication by an axis, as kernels, have dimensions 1 and 3
    M = build(5).ad_matrix(distinguished_idempotents(5)[0])
    for lam, dim in ((F(1), 1), (F(-1, 3), 3)):
        shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(M)]
        ok = ok and len(kernel_basis(shifted, 4)) == dim
    _verdict(15, "idempotent family with the prescribed spectrum for n = 3..8", ok)
