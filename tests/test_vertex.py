"""Mode engine: operator identities that pin down every sign and coefficient."""

from fractions import Fraction
from itertools import product as iter_product
from math import factorial

import pytest

from voaplus import vertex
from voaplus.fock import State, graded_basis, heisenberg, partitions, term_weight
from voaplus.numeric import Scalar
from voaplus.vertex import bracket, mode, poly_binom, virasoro

ZERO2 = State(2, {})


# ---------------------------------------------------------------------------
# oracle: the Fraction kernel the integer kernel replaced, kept verbatim in
# substance (every structure constant a Fraction, renormalised on every sum)


def _multiset(lam):
    out = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def _falling(c, r):
    out = 1
    for i in range(r):
        out *= c - i
    return out


def _lattice_term_mode_by_fractions(N, a, k, m, mu):
    out = {}
    mu_ms = _multiset(mu)
    parts_list = sorted(mu_ms)
    for removal in iter_product(*[range(mu_ms[p] + 1) for p in parts_list]):
        ann = Fraction(1)
        removed_weight = 0
        for p, r in zip(parts_list, removal):
            if r:
                removed_weight += p * r
                ann *= Fraction(((-a) * N) ** r * _falling(mu_ms[p], r), factorial(r))
        if not ann:
            continue
        need = -k - 1 - a * m * N + removed_weight
        if need < 0 or (a == 0 and need > 0):
            continue
        kept = []
        for p, r in zip(parts_list, removal):
            kept.extend([p] * (mu_ms[p] - r))
        for nu in partitions(need):
            cre = Fraction(1)
            for n, s in _multiset(nu).items():
                cre *= Fraction(a, n) ** s / factorial(s)
            term = (m + a, tuple(sorted(kept + list(nu), reverse=True)))
            out[term] = out.get(term, 0) + ann * cre
    return {t: c for t, c in out.items() if c}


def _term_mode_by_fractions(N, a, lam, k, m, mu, cache):
    key = (N, a, lam, k, m, mu)
    if key in cache:
        return cache[key]
    if not lam:
        cache[key] = _lattice_term_mode_by_fractions(N, a, k, m, mu)
        return cache[key]
    j, rest = lam[0], lam[1:]
    out = {}
    sign = -1 if (j - 1) % 2 else 1
    ann_indices = ([0] if m != 0 else []) + sorted(set(mu))
    for n in ann_indices:
        c_field = sign * poly_binom(n + j - 1, j - 1)
        if not c_field:
            continue
        if n == 0:
            hscale, operand = m * N, (m, mu)
        else:
            lst = list(mu)
            lst.remove(n)
            hscale, operand = mu.count(n) * n * N, (m, tuple(lst))
        inner = _term_mode_by_fractions(N, a, rest, k - n - j, *operand, cache)
        for t, c in inner.items():
            out[t] = out.get(t, 0) + c * c_field * hscale
    t_max = term_weight(N, (a, rest)) + term_weight(N, (m, mu)) + j - 1 - k
    t = 1
    while t <= t_max:
        c_field = sign * poly_binom(j - 1 - t, j - 1)
        if c_field:
            inner = _term_mode_by_fractions(N, a, rest, k + t - j, m, mu, cache)
            for (mm, ll), c in inner.items():
                term = (mm, tuple(sorted(ll + (t,), reverse=True)))
                out[term] = out.get(term, 0) + c * c_field
        t += 1
    cache[key] = {t: c for t, c in out.items() if c}
    return cache[key]


def _mode_by_fractions(v, k, w, cache=None):
    """mode(v, k, w) with every coefficient a Fraction: the test oracle."""
    cache = {} if cache is None else cache
    acc = {}
    for (a, lam), cv in v.terms.items():
        for (m, mu), cw in w.terms.items():
            cc = cv * cw
            for t, c in _term_mode_by_fractions(v.lattice, a, lam, k, m, mu, cache).items():
                acc[t] = acc.get(t, Scalar(0)) + cc * c
    return State(v.lattice, acc)


def test_integer_kernel_matches_the_fraction_oracle():
    coeffs = [Scalar(1), Scalar(Fraction(-2, 3)), Scalar(Fraction(1, 2), Fraction(3, 5)),
              Scalar(0, Fraction(-7, 4))]
    for N in (2, 4, 6, 8):
        cache = {}
        pools = {w: graded_basis(N, w, "full") for w in range(4)}
        us = [State.omega(N)]
        for w in range(4):
            combo = State(N, {})
            for i, b in enumerate(pools[w]):
                us.append(b)
                combo = combo + b * coeffs[i % len(coeffs)]
            if combo:
                us.append(combo)
        vs = []
        for w1, w2 in ((0, 2), (1, 3), (2, 3)):
            for i, (b1, b2) in enumerate(zip(pools[w1], pools[w2][1:] + pools[w2][:1])):
                vs.append(b1 * coeffs[i % 4] + b2 * coeffs[(i + 1) % 4])
        checked = 0
        for u in us:
            wu = int(u.weight())
            # u and v are reused across every k, so after the first call mode
            # reads their stored integer forms; fresh equal States, one built
            # by State(...) and one by arithmetic, have none yet
            fresh_u = (State(N, u.terms), u * 3 + u * (-2))
            for v in vs:
                wmax = max(int(term_weight(N, t)) for t in v.terms)
                fresh_v = (State(N, v.terms), v + State(N, {}))
                for k in range(-3, wu + wmax + 1):
                    want = _mode_by_fractions(u, k, v, cache)
                    assert mode(u, k, v) == want
                    for fu, fv in zip(fresh_u, fresh_v):
                        assert mode(fu, k, fv) == want
                    checked += 1
        assert checked > 200


def test_a_non_homogeneous_first_argument_is_refused_on_every_call():
    # weights 1 and 2; reaching mode as the second argument fills its stored
    # integer form, which must not let it through as the first
    mixed = State.of_term(2, 0, (1,)) + State.of_term(2, 1, (1,), Scalar(Fraction(1, 3), 2))
    om = State.omega(2)
    for k in range(-2, 4):
        with pytest.raises(ValueError, match="homogeneous first argument"):
            mode(mixed, k, om)
    for k in range(-2, 4):
        mode(om, k, mixed)
        with pytest.raises(ValueError, match="homogeneous first argument"):
            mode(mixed, k, om)
        with pytest.raises(ValueError, match="homogeneous first argument"):
            mode(mixed, k, mixed)
    assert not mixed.is_homogeneous()
    # a homogeneous State whose form was filled as the second argument is
    # still accepted as the first
    e = State.of_term(2, 1, (), Fraction(2, 5))
    assert mode(om, 1, e) == e  # L(0) on weight one
    assert e.is_homogeneous()
    assert mode(e, -1, State.vacuum(2)) == e


def _over_partition_factorial(table):
    """A term table read as numerators over |nu|!, nu the partition of each
    result term t = (sector, nu)."""
    return {t: Fraction(c, factorial(sum(t[1]))) for t, c in table.items()}


def _as_dict(table):
    """A flat term table (t0, c0, t1, c1, ...) as {t: c}."""
    return dict(zip(table[::2], table[1::2]))


def _stored_tables():
    """Every stored term table as ((N, a, lam, k, m, mu), {t: c})."""
    for (N, a, lam, m, mu), group in vertex._MODE_CACHE.items():
        for k, table in group.items():
            yield (N, a, lam, k, m, mu), _as_dict(table)


def test_term_mode_returns_integers_over_the_result_partition_factorial():
    # on N = 18 a sector-one term already weighs 9, so a denominator built
    # from the result weight instead of its partition is off by a factor of
    # at least 9!; `mode` must divide by the same |nu|! the tables use
    vertex.clear_mode_cache()
    for N, v, others in (
        (4, State.of_term(4, 1, (2, 1)) + State.of_term(4, -1, (1,)), [State.of_term(4, 1, (2, 1))]),
        (18, State.of_term(18, 1, (2, 1)) + State.of_term(18, 0, (3,)),
         [State.of_term(18, 0, (2, 1)), State.of_term(18, 1, (1,))]),
    ):
        cache = {}
        for u in [State.omega(N)] + others:
            for k in range(-2, 12):
                assert mode(u, k, v) == _mode_by_fractions(u, k, v, cache)
    assert {key[0] for key in vertex._MODE_CACHE} == {4, 18}
    for (N, a, lam, k, m, mu), result in _stored_tables():
        oracle = _term_mode_by_fractions(N, a, lam, k, m, mu, {})
        assert set(result) == set(oracle)
        assert all(type(c) is int for c in result.values())
        assert _over_partition_factorial(result) == oracle


def _room(N, a, lam, k, m, mu):
    """What `mode` passes to `_term_mode`: the result weight
    wt(a, lam) + wt(m, mu) - k - 1 less the floor (m+a)^2 N/2 of its sector."""
    w_out = term_weight(N, (a, lam)) + term_weight(N, (m, mu)) - k - 1
    return w_out - term_weight(N, (m + a, ()))


def test_term_modes_skipped_by_weight_match_the_unpruned_oracle():
    # every key of a grid, k running from inside the nonzero range to two past
    # its top end k_top, the last k whose result reaches the floor (m+a)^2 N/2
    # of its sector; for the vacuum (a, lam) = (0, ()) that covers k = -2..0
    vertex.clear_mode_cache()
    small = [lam for n in range(4) for lam in partitions(n)]
    checked = nonzero = 0
    for N in (2, 4, 6, 8):
        cache = {}
        for a, m, lam, mu in iter_product(range(-2, 3), range(-2, 3), small, small):
            k_top = sum(lam) + sum(mu) - 1 - a * m * N
            for k in range(k_top - 4, k_top + 3):
                want = _term_mode_by_fractions(N, a, lam, k, m, mu, cache)
                room = _room(N, a, lam, k, m, mu)
                if room < 0:
                    # zero by weight: `mode` skips the pair uncomputed
                    assert not want
                else:
                    got = _as_dict(vertex._term_mode(N, a, lam, k, m, mu, room))
                    assert _over_partition_factorial(got) == want
                checked += 1
                nonzero += bool(want)
    assert checked > 30000 and 0 < nonzero < checked
    # no key that is zero by weight was stored, recursion included
    assert vertex._MODE_CACHE
    for (N, a, lam, k, m, mu), table in _stored_tables():
        w_out = (a * a + m * m) * N // 2 + sum(lam) + sum(mu) - k - 1
        assert w_out >= (m + a) ** 2 * N // 2
        # nor a mode of the vacuum or of a single Heisenberg part
        assert a != 0 or len(lam) >= 2


def test_zero_single_part_heisenberg_modes_return_the_shared_zero_unstored():
    # (0, (j,)) is h(-j)1, whose mode k is a multiple of h(k - j + 1), and
    # (0, ()) the vacuum: every key of the grid matches the oracle and adds
    # nothing to the mode table, and one whose oracle table is empty comes
    # back as the shared empty table
    vertex.clear_mode_cache()
    small = [mu for n in range(5) for mu in partitions(n)]
    zeros = nonzero = 0
    for N in (2, 4, 6):
        cache = {}
        for j, m, mu in iter_product(range(5), range(-2, 3), small):
            lam = (j,) if j else ()
            for k in range(-j - 2, j + sum(mu) + 2):
                want = _term_mode_by_fractions(N, 0, lam, k, m, mu, cache)
                room = _room(N, 0, lam, k, m, mu)
                if room < 0:
                    # zero by weight: `mode` skips the pair uncomputed
                    assert not want
                    zeros += 1
                    continue
                got = vertex._term_mode(N, 0, lam, k, m, mu, room)
                if want:
                    assert _over_partition_factorial(_as_dict(got)) == want
                    nonzero += 1
                else:
                    assert got is vertex._ZERO
                    zeros += 1
    assert not vertex._MODE_CACHE
    assert not vertex._ZERO
    assert zeros > 1000 and nonzero > 1000


def test_stored_term_tables_are_flat_nonzero_integer_terms_of_one_sector_and_room():
    # a stored table is (t0, c0, t1, c1, ...): distinct terms of sector m + a
    # whose partitions have size room, each with a nonzero int numerator; an
    # empty one is the shared `_ZERO`
    vertex.clear_mode_cache()
    for N in (2, 4):
        basis = [b for w in range(4) for b in graded_basis(N, w, "full")]
        for u, v in iter_product(basis, basis):
            for k in range(-2, u.weight() + v.weight()):
                mode(u, k, v)
    empty = full = 0
    for (N, a, lam, m, mu), group in vertex._MODE_CACHE.items():
        for k, table in group.items():
            assert type(table) is tuple and len(table) % 2 == 0
            if not table:
                assert table is vertex._ZERO
                empty += 1
                continue
            full += 1
            terms, coeffs = table[::2], table[1::2]
            assert len(set(terms)) == len(terms)
            assert all(type(c) is int and c for c in coeffs)
            room = _room(N, a, lam, k, m, mu)
            assert all(sector == m + a and sum(nu) == room for sector, nu in terms)
    assert empty > 100 and full > 1000


def test_mode_and_virasoro_refuse_an_argument_that_is_not_a_state():
    e = State.of_term(2, 1, ())
    for call in (lambda: virasoro(1, 5), lambda: mode(5, 1, e), lambda: mode(e, 1, 5)):
        with pytest.raises(ValueError, match="mode expects two states"):
            call()


def test_vacuum_and_single_part_modes_are_their_closed_forms_unstored():
    # Y(h(-j)1, z) = d^(j-1)h(z)/(j-1)!, whose mode k is
    # (-1)^(j-1) C(k, j-1) h(k - j + 1); the vacuum's modes are the identity
    # at k = -1 and zero otherwise
    stored = len(vertex._MODE_CACHE)
    calls = 0
    for N in (2, 4):
        vac = State.vacuum(N)
        zero = State(N, {})
        for b in (b for w in range(6) for b in graded_basis(N, w, "full")):
            wb = b.weight()
            for k in range(-3, wb + 1):
                assert mode(vac, k, b) == (b if k == -1 else zero)
            for j in range(1, 5):
                v = State.of_term(N, 0, (j,))
                for k in range(-j - 3, j + wb + 1):
                    want = heisenberg(k - j + 1, b) * ((-1) ** (j - 1) * poly_binom(k, j - 1))
                    assert mode(v, k, b) == want, (N, j, k, b)
                    calls += 1
    assert calls > 2000
    assert len(vertex._MODE_CACHE) == stored


def test_poly_binom_handles_negative_upper_index():
    assert poly_binom(5, 2) == 10
    assert poly_binom(-1, 3) == -1
    assert poly_binom(-2, 2) == 3
    assert poly_binom(3, 0) == 1
    assert poly_binom(2, 5) == 0
    # the Fraction oracle calls poly_binom too, so pin it against the
    # falling factorial x(x-1)...(x-r+1)/r! directly
    for x in range(-12, 13):
        for r in range(-1, 8):
            want = Fraction(_falling(x, r), factorial(r)) if r >= 0 else 0
            assert poly_binom(x, r) == want, (x, r)


def test_insert_part_keeps_the_partition_descending():
    for n in range(9):
        for parts in partitions(n):
            for t in range(1, 10):
                want = tuple(sorted(parts + (t,), reverse=True))
                assert vertex._insert_part(parts, t) == want, (parts, t)


def test_creation_monomials_follow_partitions_and_count_the_permutations():
    # n!/z_nu is the number of permutations of cycle type nu, an integer,
    # and these sizes sum to n!
    for n in range(13):
        monomials = vertex._creation_monomials(n)
        assert [nu for nu, _, _ in monomials] == list(partitions(n))
        total = 0
        for nu, length, z_nu in monomials:
            assert length == len(nu)
            assert factorial(n) % z_nu == 0, (n, nu)
            total += factorial(n) // z_nu
        assert total == factorial(n)


def test_vacuum_axioms():
    vac = State.vacuum(2)
    # homogeneous weight-2 state mixing both sector types
    s = State.of_term(2, 1, (1,)) + State.of_term(2, 0, (1, 1)) * Scalar(0, 1)
    # the second argument may be inhomogeneous; modes act componentwise
    t = s + State.of_term(2, 0, (3,))
    assert mode(vac, -1, t) == t
    assert mode(vac, 0, t) == ZERO2
    assert mode(s, -1, vac) == s  # creation property: Y(s,z)1 at z=0
    for k in range(0, 6):
        assert mode(s, k, vac) == ZERO2


def test_modes_of_the_weight_one_state_are_the_heisenberg_operators():
    al = State.of_term(2, 0, (1,))
    targets = [b for w in range(4) for b in graded_basis(2, w, "full")]
    for s in targets:
        for k in range(-3, 4):
            assert mode(al, k, s) == heisenberg(k, s)


def test_zero_mode_eigenvalue_on_sectors():
    al = State.of_term(6, 0, (1,))
    for m in (-2, -1, 0, 1, 2):
        g = State.of_term(6, m)
        assert mode(al, 0, g) == g * (m * 6)


def test_translation_covariance():
    # (L(-1)v)_k = -k v_{k-1}
    for v in graded_basis(2, 2, "full") + graded_basis(2, 3, "full"):
        dv = virasoro(-1, v)
        for w in graded_basis(2, 2, "full"):
            for k in range(-2, 4):
                assert mode(dv, k, w) == mode(v, k - 1, w) * (-k)


def test_derivative_peel_hand_values():
    # v = g(-2)e^{-g}, u = g(-1)^2 vacuum: worked out by hand from
    # :((d/dz)g)(z) Y(e^{-g},z): including the (-1)^(j-1) derivative sign.
    u = State.of_term(2, 0, (1, 1))
    v = State.of_term(2, -1, (2,))
    assert mode(v, 1, u) == State.of_term(2, -1, (2,), 12)
    assert mode(v, 2, u) == State.of_term(2, -1, (1,), 8)
    assert mode(v, 3, u) == State.of_term(2, -1, (), -16)
    em = State.of_term(2, -1)
    assert mode(em, 1, u) == State.of_term(2, -1, (), 4)
    assert mode(em, 0, u) == ZERO2
    assert mode(em, -1, u) == State.of_term(2, -1, (1, 1), -1) + State.of_term(
        2, -1, (2,), -2
    )


def test_weight_four_square_identity():
    s = State.of_term(2, 0, (3, 1))
    assert mode(s, 3, s) == s * 72


def test_symmetric_exponential_self_pairing():
    for n in range(1, 5):
        N = 2 * n
        u = State.of_term(N, 1) + State.of_term(N, -1)
        assert mode(u, 2 * n - 1, u) == State.vacuum(N) * 2


def test_virasoro_relations_central_charge_one():
    om = State.omega(2)
    assert virasoro(2, om) == State.vacuum(2) * Fraction(1, 2)  # c/2
    assert virasoro(1, om) == ZERO2
    assert virasoro(0, om) == om * 2
    flat = [b for w in range(5) for b in graded_basis(2, w, "full")]
    for p in range(-2, 3):
        for q in range(p, 3):
            central = Fraction(p**3 - p, 12) if p + q == 0 else Fraction(0)
            for b in flat:
                lhs = virasoro(p, virasoro(q, b)) - virasoro(q, virasoro(p, b))
                rhs = (p - q) * virasoro(p + q, b)
                if central:
                    rhs = rhs + b * central
                assert lhs == rhs


def test_commutator_formula():
    # [u_p, v_q] = sum_j C(p,j) (u_j v)_{p+q-j}
    pool = graded_basis(2, 2, "full") + graded_basis(2, 3, "full")
    w_pool = graded_basis(2, 2, "full")
    for u in pool[:5]:
        for v in pool[2:7]:
            wu, wv = int(u.weight()), int(v.weight())
            for p, q in ((1, 1), (2, -1), (-1, 2), (0, 2)):
                for w in w_pool:
                    lhs = mode(u, p, mode(v, q, w)) - mode(v, q, mode(u, p, w))
                    rhs = ZERO2
                    for j in range(wu + wv):
                        uv = mode(u, j, v)
                        if uv:
                            rhs = rhs + poly_binom(p, j) * mode(uv, p + q - j, w)
                    assert lhs == rhs


def test_skew_symmetry():
    # u_k v = sum_j (-1)^(k+1+j) (1/j!) L(-1)^j (v_{k+j} u)
    pool = graded_basis(2, 2, "full") + graded_basis(2, 3, "full")
    for u in pool:
        for v in pool:
            wu, wv = int(u.weight()), int(v.weight())
            for k in (0, 1, 2):
                rhs = ZERO2
                for j in range(wu + wv - k):
                    t = mode(v, k + j, u)
                    for _ in range(j):
                        t = virasoro(-1, t)
                    sign = -1 if (k + 1 + j) % 2 else 1
                    rhs = rhs + t * Fraction(sign, factorial(j))
                assert mode(u, k, v) == rhs


def test_bracket_gives_chevalley_relations():
    # sl2 triple: h = g(-1)1, x = e^g, y = e^{-g} in the norm-2 lattice space
    h = State.of_term(2, 0, (1,))
    x = State.of_term(2, 1)
    y = State.of_term(2, -1)
    assert bracket(h, x) == x * 2
    assert bracket(h, y) == y * (-2)
    assert bracket(x, y) == h
    assert bracket(x, x) == ZERO2
    assert bracket(h, h) == ZERO2


def test_mode_weight_bookkeeping():
    # u_k maps weight wv to wu + wv - k - 1
    u = State.of_term(2, 1, (1,))
    v = State.of_term(2, -1, (2,))
    for k in range(-3, 4):
        r = mode(u, k, v)
        if r:
            assert r.weight() == u.weight() + v.weight() - k - 1
