"""Finite-order automorphisms of the rank-one lattice algebras.

Three primitive kinds act here, plus their composites: the parity involution,
the torus scaling c^m on sector m (a sector phase is the torus scaling by a
fourth root of unity), and quarter-turn exponentials of weight-one
zero-modes.  An exponential exp((pi/2) q x(0)) maps a term t to p(x(0))t.  The
Krylov vectors x(0)^j t enter one echelon basis as tagged sparse rows
(x(0)^j t | e_j), and the first residual with a zero state part carries the
relation sum_j c_j x(0)^j t = 0 in its tag: the minimal polynomial mu_t of
x(0) on t.  p is the Lagrange polynomial taking the value i^(kq) at each root
ik of mu_t (Higham, Functions of Matrices, SIAM 2008, ch. 1).  One cache
holds the coefficients of p per (roots, q mod 4), the other the images of
all terms of a graded piece, built together, so a piece is refused with
SpectralError unless every mu_t on it has deg mu_t distinct roots ik with k
an integer, found by an exact scan of the integers with k^2 <= a_(m-1)^2 -
2 a_(m-2), their sum of squares, where a_0 + ... + u^m is mu_t(iu) made
monic (`_integer_roots`).  Applying rotation_sigma(2) to every norm-2 term
takes 0.10-0.12 s of CPU through weight 7 and 0.55-0.61 s through weight 9
(three runs each, 2-vCPU Intel Xeon, CPython 3.11.7).

`check_automorphism` compares g(u_k v) with (gu)_k(gv) on basis triples,
and `automorphism_rows` does so for several maps on one lattice in one sweep
that builds each u_k v once for all of them; each map leaves the sweep at
its first failure in row order.  Where g sends each basis state to a scalar
times a basis state of its piece (theta, torus scalings, phases and their
composites), the right side is a scaled mode u'_k v' of the same weight
pair.  One rule makes each such mode one build and keeps none: a map that
sends each basis state b of the window to c b' and b' back to b / c is an
involution there, and it skips a pair whose image pair comes earlier in row
order: the check there, g(t') = c' t, gives the skipped triple g(t) = c t'
through g o g = 1 (see `_first_mode_defects`).  A map that sends the basis
states of every piece one-to-one onto scaled basis states keeps one table
{term: (image term, scale)} of the window (`_term_table`), and decides each
triple g(t) = c t' on the terms of t and t' (`_maps_onto`), with no
arithmetic where t' is t and g scales each term of t by c, as a torus
scaling does; g(t) is built only for a failing triple's witness.  Any other
map compares States.  `aut --case theta --max-weight 7` peaks at 37 MiB
with one full garbage collection, where a table holding each mode until
its second read peaked at 64 MiB with nine.

The weight-four computation at the end of the module: the fixed space of the
four-group E matches the plus space of the norm-8 lattice, weight 4 splits
into singular vectors H plus a Virasoro-descendant complement J, and the
projected pairing on H carries a faithful three-letter symmetric group action
matching the invariant algebra from symn at n = 3.  The group is one table of
five specs (three rotations and two three-cycles composed from them) plus the
identity, and two maps on weight 4 are equal when their images of the basis
are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import isqrt

from .numeric import I, ONE, Record, Scalar, ZERO, as_fraction
from .fock import (
    State,
    check_lattice,
    check_window,
    coordinates,
    form,
    graded_basis,
    graded_dim,
    theta,
    weight_terms,
)
from .linalg import kernel_basis, rank, relations, solve_columns
from .vertex import mode, virasoro
from .reptheory import GradedSubspace, singular_vectors
from . import symn


class AutomorphismSpec(Record):
    """Description of an automorphism; `kind` selects how `apply` acts.

    Three primitive kinds and their composites: "theta"; "torus" (payload:
    nonzero Scalar c, acts by c^m on sector m; a sector phase from
    `phase_spec` is one); "exp" (payload: weight-1 State x and integer
    quarter_turns q, acts by i^(k*q) on the i*k eigenspace of the zero-mode
    of x); and "compose" (payload: tuple of specs, applied right to left).
    Immutable; equal specs have equal kind, lattice and payload.
    """

    __slots__ = ("kind", "lattice", "payload")

    def __init__(self, kind: str, lattice: int, payload: tuple = ()):
        if kind not in ("theta", "torus", "exp", "compose"):
            raise ValueError(f"unknown automorphism kind {kind!r}")
        check_lattice(lattice)
        super().__init__(kind, lattice, payload)


def theta_spec(lattice: int) -> AutomorphismSpec:
    return AutomorphismSpec("theta", lattice)


def torus_spec(lattice: int, c) -> AutomorphismSpec:
    c = Scalar.coerce(c)
    if c.is_zero():
        raise ValueError("torus scaling must be nonzero")
    return AutomorphismSpec("torus", lattice, (c,))


def phase_spec(lattice: int, half_turns) -> AutomorphismSpec:
    """The sector phase e^(pi*i*h*m*N) on sector m, h = half_turns: the torus
    scaling by i^(2hN), which must be a fourth root of unity."""
    step = 2 * as_fraction(half_turns) * lattice  # phase on sector m is i^(step*m)
    if step.denominator != 1:
        raise ValueError("sector phases must be fourth roots of unity")
    return torus_spec(lattice, I ** (int(step) % 4))


def exp_spec(x: State, quarter_turns: int) -> AutomorphismSpec:
    if not isinstance(quarter_turns, int):
        raise ValueError("quarter_turns must be an integer")
    if x.is_zero() or not x.is_homogeneous() or x.weight() != 1:
        raise ValueError("exponentials take a nonzero weight-1 state")
    return AutomorphismSpec("exp", x.lattice, (x, quarter_turns))


def compose_specs(*specs: AutomorphismSpec) -> AutomorphismSpec:
    if not specs:
        raise ValueError("compose needs at least one spec")
    lat = specs[0].lattice
    for s in specs:
        if s.lattice != lat:
            raise ValueError("composed specs must share a lattice")
    return AutomorphismSpec("compose", lat, tuple(specs))


class SpectralError(ValueError):
    """Zero-mode failed to diagonalize with spectrum in i*Z."""


# One entry per (x, q % 4, w), keyed by the State x itself: every weight-w
# term mapped to its image under the quarter-turn exponential, as a
# {term: Scalar} dict.
# Kept: without it check_automorphism(rotation_sigma(2), W=4) takes 33 s, not 0.7 s.
_EXP_IMAGES: dict = {}


@cache
def _lagrange(ks: tuple, q: int) -> tuple:
    """Coefficients, low to high in t, of the p of degree below len(ks) with
    p(ik) = i^(kq) at each distinct integer k in ks: p(t) = sum_k i^(kq) L_k(t/i)
    with L_k the rational Lagrange basis on ks.  Cached: the terms of a piece
    share few root sets, and `_exp_images` passes q mod 4."""
    out = [ZERO] * len(ks)
    for k in ks:
        basis, den = [Fraction(1)], 1
        for other in ks:
            if other != k:
                basis = [a - other * b for a, b in zip([0] + basis, basis + [0])]
                den *= k - other
        phase = I ** ((k * q) % 4)
        for j, c in enumerate(basis):
            if c:
                out[j] = out[j] + phase * I ** (-j % 4) * Scalar(c / den)
    return tuple(out)


def _integer_roots(coeffs: list) -> list:
    """The m distinct integer roots, ascending, of a_0 + a_1 u + ... + u^m
    (Scalars, low to high), else SpectralError.  Such roots have sum k^2 =
    a_(m-1)^2 - 2 a_(m-2) (a_(m-2) = 0 when m = 1), so an exact scan of the
    |k| up to its isqrt finds them; a degree-m polynomial has no more."""
    a = [c.re for c in coeffs]
    squares = a[-2] ** 2 - 2 * (a[-3] if len(a) > 2 else 0)
    band = isqrt(int(max(squares, 0)))
    ks = [k for k in range(-band, band + 1) if not sum(c * k**j for j, c in enumerate(a))]
    if any(c.im for c in coeffs) or len(ks) != len(a) - 1:
        raise SpectralError(f"zero-mode of x is not i*Z-diagonalizable: {coeffs} has roots {ks}")
    return ks


def _term_image(x: State, q: int, term, index: dict) -> dict:
    """{term: Scalar}: the image p(x(0))t of the term t, with p from `_lagrange`.

    The Krylov vectors x(0)^j t, over the d = len(index) terms, are read
    lazily by `relations`, so x(0) is applied once per vector read before
    the first that lies in the span of those before it, x(0)^m t.  Its
    relation sum_j c_j x(0)^j t = 0, c_m = 1, is mu_t; the roots come from
    `_integer_roots`, which scans |k| <= isqrt(sum k^2)."""
    krylov = [State._of(x.lattice, {term: ONE})]

    def vectors():
        while True:
            yield {index[t]: c for t, c in krylov[-1].terms.items()}
            krylov.append(mode(x, 0, krylov[-1]))

    m, rel = next(relations(vectors(), len(index), len(index) + 1))
    # mu_t(iu) / i^m = sum_j c_j i^(j-m) u^j, real when its roots are
    coeffs = [c * I ** ((j - m) % 4) for j, c in enumerate(rel[: m + 1])]
    ks = _integer_roots(coeffs)
    acc: dict = {}
    for a, v in zip(_lagrange(tuple(ks), q), krylov):
        if a:
            for t, c in v.terms.items():
                acc[t] = acc.get(t, ZERO) + a * c
    return {t: c for t, c in acc.items() if c}


def _exp_images(x: State, q: int, w: int) -> dict:
    """{term: {term: Scalar}}: the image of every weight-w term under the
    exponential, built once per key = (x, q mod 4, w); one
    refused term refuses the piece."""
    q %= 4
    key = (x, q, w)
    hit = _EXP_IMAGES.get(key)
    if hit is not None:
        return hit
    index = {t: i for i, t in enumerate(weight_terms(x.lattice, w))}
    images = _EXP_IMAGES[key] = {t: _term_image(x, q, t, index) for t in index}
    return images


def _apply_exp(x: State, q: int, s: State) -> State:
    """The sum over the terms t of s of c_t times the cached image of t; the
    image table of each weight is looked up once per call."""
    N = s.lattice
    half = N // 2
    tables: dict = {}
    acc: dict = {}
    for (m, lam), c in s.terms.items():
        w = m * m * half + sum(lam)
        table = tables.get(w)
        if table is None:
            table = tables[w] = _exp_images(x, q, w)
        for t, e in table[(m, lam)].items():
            acc[t] = acc.get(t, ZERO) + c * e
    return State(N, acc)


def apply(spec: AutomorphismSpec, s: State) -> State:
    """Apply the described automorphism to a state, exactly."""
    if spec.lattice != s.lattice:
        raise ValueError("spec and state live on different lattices")
    if spec.kind == "theta":
        return theta(s)
    # a torus scaling multiplies each term by a nonzero scalar, so no
    # coefficient vanishes
    if spec.kind == "torus":
        (c,) = spec.payload
        return State._of(s.lattice, {t: coeff * c ** t[0] for t, coeff in s.terms.items()})
    if spec.kind == "exp":
        x, q = spec.payload
        return _apply_exp(x, q, s)
    out = s
    for inner in reversed(spec.payload):
        out = apply(inner, out)
    return out


def check_automorphism(
    rep, spec: AutomorphismSpec, max_weight: int, label: str, location: str
) -> None:
    """Verify the defining compatibility with every mode on graded bases.

    Adds to the report rep the rows of `automorphism_rows` for the one map,
    each named after label."""
    (rows,) = automorphism_rows([spec], max_weight)
    for name, actual in rows:
        rep.check(f"{label}: {name}", location, True, actual)


def automorphism_rows(specs: list, max_weight: int) -> list:
    """Per map of specs, all on one lattice, its check rows (name, actual).

    One row each for the vacuum and the conformal vector being fixed, then one
    per weight pair (a, b): for all basis states u of weight a, v of weight b
    and every mode index k whose result weight stays in range, the image of
    u_k v must equal (image u)_k (image v).  A passing pair row reads true, a
    failing one its first failing case.  The maps share one sweep, so each
    basis mode u_k v is built once for all of them (see `_first_mode_defects`).
    """
    if not specs:
        raise ValueError("automorphism_rows needs at least one spec")
    N = specs[0].lattice
    W = check_window(max_weight)
    fixed = (("vacuum", State.vacuum(N)), ("conformal-vector", State.omega(N)))
    rows = [[(f"{name} fixed", apply(spec, s) == s) for name, s in fixed] for spec in specs]
    bases = {w: graded_basis(N, w, "full") for w in range(W + 1)}
    lines = [{} for _ in specs]  # per map and weight: _line of each basis state
    for w, basis in bases.items():
        # each basis state is one term of coefficient one
        index = {t: i for i, b in enumerate(basis) for t in b.terms}
        for spec, out in zip(specs, lines):
            out[w] = [_line(apply(spec, b), index) for b in basis]
    tables = [_term_table(bases, out) for out in lines]
    involutions = [table is not None and _is_involution(table) for table in tables]
    for wu in range(W + 1):
        for wv in range(W + 1):
            ks = range(wu + wv - 1 - W, wu + wv)
            defects = _first_mode_defects(
                specs, involutions, tables, bases[wu], bases[wv],
                [g[wu] for g in lines], [g[wv] for g in lines], ks,
            )
            for out, defect in zip(rows, defects):
                out.append((f"modes on weights {wu},{wv}", True if defect is None else defect))
    return rows


def _line(g: State, index: dict) -> tuple:
    """(g, (i, c)) when the image g is c times the basis state at place i
    of its piece, else (g, None)."""
    if len(g.terms) == 1:
        ((t, c),) = g.terms.items()
        if t in index:
            return g, (index[t], c)
    return g, None


def _is_involution(table: dict) -> bool:
    """Whether the map of a `_term_table` sends each basis term x to c y
    with y going back to x / c."""
    return all(table[y][0] == x and table[y][1] * c == ONE for x, (y, c) in table.items())


def _term_table(bases: dict, lines: dict):
    """{term: (image term, scale)} over the window when the map of the `_line`
    tables sends the basis states of every piece one-to-one onto scaled basis
    states of that piece, else None."""
    table = {}
    for w, basis in bases.items():
        line = lines[w]
        if not all(at for _, at in line) or len({at[0] for _, at in line}) < len(line):
            return None
        for b, (_, (i, c)) in zip(basis, line):
            (x,), (y,) = b.terms, basis[i].terms
            table[x] = (y, c)
    return table


def _maps_onto(table: dict, t: State, c, t2: State) -> bool:
    """Whether g(t) = c t2, for the map g of the `_term_table` table.

    g sends the terms of t one-to-one to scaled terms, c_x y for the term x,
    so g(t) = c t2 exactly when t and t2 have as many terms and each x
    has t2[y] c = t[x] c_x.  When t2 is t and g sends each term of t to c
    times itself, as a torus scaling does, that holds without arithmetic."""
    terms, image = t.terms, t2.terms
    if image is terms and all(table[x] == (x, c) for x in terms):
        return True
    if len(image) != len(terms):
        return False
    for x, e in terms.items():
        y, cx = table[x]
        f = image.get(y)
        if f is None or f * c != e * cx:
            return False
    return True


def _first_mode_defects(specs, involutions, tables, us, vs, u_lines, v_lines, ks) -> list:
    """Per map, the first (u, v, k) in row order with image(u_k v) !=
    (image u)_k (image v), or None; u_lines and v_lines hold each map's
    `_line` of every basis state, involutions flags the maps that
    `_is_involution` accepts on every piece of the window, and tables holds
    each map's `_term_table`, or None.

    The basis pairs (i, j) are swept in row order, each step builds u_k v
    once for all the maps, and a map leaves the sweep at its first failure.
    When a map g has a term table, as theta, torus scalings and their
    composites do, it sends u_i and v_j to cu u_i' and cv v_j', and the
    right side is c t' with c = cu cv and t' = u_i'(k) v_j': the mode
    t = u_i(k) v_j itself when the image pair (i', j') is (i, j), else a
    mode built here.  An involution skips a pair whose image pair comes
    earlier in row order.  There the sweep checked g(t') = c' t for every k,
    with c' = 1 / c; g is linear and g o g = 1 on every piece of the window,
    so applying g gives g(t) = t' / c' = c t', this pair's own triple.  So an involution builds
    every u_k v once.  Any other map checks each pair at its own place.

    A map with a term table decides g(t) = c t' term by term (`_maps_onto`)
    and applies g only to a failing triple's witness.  A map without one,
    such as a quarter-turn exponential, takes its own mode
    (image u)_k (image v) and compares it with the State g(t).
    """
    defects = [None] * len(specs)
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            steps = []  # (s, image pair or None, its scale) per map that checks (i, j)
            for s, defect in enumerate(defects):
                if defect is not None:
                    continue
                if tables[s] is None:
                    steps.append((s, None, ONE))
                    continue
                (iu, cu), (jv, cv) = u_lines[s][i][1], v_lines[s][j][1]
                if involutions[s] and (iu, jv) < (i, j):
                    continue  # proven at the image pair, earlier in row order
                steps.append((s, (iu, jv), cu * cv))
            for k in ks:
                if not steps:
                    break
                t = mode(u, k, v)
                for s, image, c in steps:
                    # the right side is c t2
                    if image is None:
                        t2 = mode(u_lines[s][i][0], k, v_lines[s][j][0])
                        passed = apply(specs[s], t) == t2
                    else:
                        t2 = t if image == (i, j) else mode(us[image[0]], k, vs[image[1]])
                        passed = _maps_onto(tables[s], t, c, t2)
                    if not passed:
                        diff = apply(specs[s], t) - c * t2
                        defects[s] = {"u": u, "v": v, "k": k, "lhs-minus-rhs": diff}
                steps = [step for step in steps if defects[step[0]] is None]
    return defects


def y_basis():
    """The rescaled weight-1 triple of the norm-2 lattice with cyclic
    brackets [y_j, y_(j+1)] = y_(j+2)."""
    ihalf = Scalar(0, Fraction(1, 2))
    mhalf = Scalar(Fraction(-1, 2))
    alpha = State.of_term(2, 0, (1,))
    xp = State.of_term(2, 1)
    xm = State.of_term(2, -1)
    return (ihalf * alpha, ihalf * (xp + xm), mhalf * (xp - xm))


def rotation_sigma(j: int) -> AutomorphismSpec:
    """Quarter-turn exponential realizing the j-th line transposition.

    The returned automorphism fixes the j-th distinguished weight-1 line and
    swaps the other two; the exponentiated axis for j = 1, 2, 3 is y_1, y_3,
    y_2 respectively (the middle case follows the swap-lines-1-and-2
    description rather than the cycle pattern of the other two).
    """
    y1, y2, y3 = y_basis()
    axis = {1: y1, 2: y3, 3: y2}
    if j not in axis:
        raise ValueError("rotation index must be 1, 2 or 3")
    return exp_spec(axis[j], 1)


def e_group():
    """The four-group: identity is omitted; tau1 is the sector-sign phase."""
    tau1 = phase_spec(2, Fraction(1, 2))
    th = theta_spec(2)
    return (tau1, th, compose_specs(th, tau1))


def e_fixed_check(rep, max_weight: int) -> None:
    """Graded dimensions of the E-fixed subspace against the norm-8 plus space,
    and pointwise fixedness of its basis, as one report row per weight."""
    specs = e_group()
    for w in range(check_window(max_weight) + 1):
        efixed = graded_dim(2, w, "efixed")
        target = graded_dim(8, w, "plus")
        fixed = all(apply(spec, b) == b for b in graded_basis(2, w, "efixed") for spec in specs)
        rep.check(
            f"four-group fixed space at weight {w}",
            "efixed-space",
            {"dim": target, "pointwise-fixed": True},
            {"dim": efixed, "pointwise-fixed": fixed},
        )


def pairing_p(x: State, y: State) -> State:
    """The weight-4 pairing: the mode reading the fourth-power coefficient."""
    for s in (x, y):
        if s and (not s.is_homogeneous() or s.weight() != 4):
            raise ValueError("the pairing takes weight-4 states")
    return mode(x, 3, y)


def split_H_J():
    """Split weight 4 of the E-fixed model into singular vectors and
    Virasoro descendants, with the projector onto the first factor.

    Returns (H, J, q); q is None when H is not 2-dimensional, which the caller
    reports.  A sum that is not direct raises, as no report row covers it."""
    H = singular_vectors(2, 4, "efixed")
    vac = State.vacuum(2)
    om = State.omega(2)
    J = [virasoro(-2, om), virasoro(-4, vac)]
    if len(H) != 2:
        return H, J, None
    basis_cols = [coordinates(v, 4) for v in H + J]
    if rank(basis_cols) != 4:
        raise AssertionError("weight-4 sum is not direct")

    def q(v: State) -> State:
        if v.is_zero():
            return v
        if not v.is_homogeneous() or v.weight() != 4:
            raise ValueError("the projector acts on weight-4 states")
        combo = solve_columns(basis_cols, coordinates(v, 4))
        if combo is None:
            raise ValueError("state lies outside the E-fixed weight-4 piece")
        out = State(2, {})
        for c, h in zip(combo[:2], H):
            if c:
                out = out + c * h
        return out

    return H, J, q


def _matrix_on(basis: list, image) -> list:
    """Matrix (rows) of the map image on the weight-4 basis, whose span the
    map must preserve: column r holds minus the basis part of the relation of
    image(basis[r]), read after the basis by `relations`."""
    d = len(basis)
    vectors = [coordinates(b, 4) for b in basis] + [coordinates(image(b), 4) for b in basis]
    rels = {j: x for j, x in relations(vectors, len(vectors[0]), 2 * d) if j >= d}
    if len(rels) != d:
        raise AssertionError("the map does not preserve the span of the basis")
    return [[-rels[d + r][i] for r in range(d)] for i in range(d)]


def _line_permutation(spec) -> tuple:
    """Permutation induced on the three distinguished weight-1 lines."""
    ys = y_basis()
    sub = [GradedSubspace(2, 1) for _ in ys]
    for g, y in zip(sub, ys):
        g.insert(y)
    out = []
    for y in ys:
        img = apply(spec, y)
        hits = [j for j, g in enumerate(sub) if g.contains(img)]
        if len(hits) != 1:
            raise AssertionError("image of a distinguished line is not a line")
        out.append(hits[0])
    if sorted(out) != [0, 1, 2]:
        raise AssertionError("line images do not form a permutation")
    return tuple(out)


def sym3_report(rep) -> dict:
    """The weight-4 computation: coset representatives, faithfulness, the
    projected pairing on H, and the match with the n=3 invariant algebra.

    Adds its checks to the report rep and returns the data they rest on:
    "scale" (the scalar carrying the n=3 product to the projected pairing, or
    None) and "line_permutations" (the line permutation of each group element).
    """
    basis4 = graded_basis(2, 4, "efixed")
    rep.check("weight-4 E-fixed dimension", "v4-span", 4, len(basis4))
    rep.check("spanning set independent", "v4-span", 4, rank([coordinates(b, 4) for b in basis4]))

    # coset representatives of the six elements of N(E)/E besides the
    # identity; E acts trivially on weight 4, so products of representatives
    # represent the product cosets
    s1, s2, s3 = rotation_sigma(1), rotation_sigma(2), rotation_sigma(3)
    group = {
        "s1": s1,
        "s2": s2,
        "s3": s3,
        "rho": compose_specs(s2, s1),  # lines 0->1->2->0
        "rho2": compose_specs(s1, s2),
    }
    perms = {"id": (0, 1, 2)} | {name: _line_permutation(g) for name, g in group.items()}
    images = {"id": basis4} | {name: [apply(g, b) for b in basis4] for name, g in group.items()}
    rep.check("s1 line action", "line-permutations", (0, 2, 1), perms["s1"])
    rep.check("s2 line action", "line-permutations", (1, 0, 2), perms["s2"])
    rep.check("s3 line action", "line-permutations", (2, 1, 0), perms["s3"])
    rep.check("three-cycle line action", "line-permutations", (1, 2, 0), perms["rho"])
    rep.check("all six line permutations", "line-permutations", 6, len(set(perms.values())))
    distinct = {tuple(imgs) for imgs in images.values()}
    rep.check("faithful on weight 4", "v4-faithfulness", 6, len(distinct))
    rep.check("involutions differ", "v4-faithfulness", False, images["s1"] == images["s2"])

    # s1 fixes every sector-0 (polynomial) vector; s2 moves at least one
    def fixes_poly(name):
        return all(g == b for b, g in zip(basis4, images[name]) if all(t[0] == 0 for t in b.terms))

    rep.check("first involution fixes polynomials", "polynomial-part", True, fixes_poly("s1"))
    rep.check("second involution moves polynomials", "polynomial-part", False, fixes_poly("s2"))

    H, J, q = split_H_J()
    rep.check("dim H", "h-j-split", 2, len(H))
    rep.check("dim J", "h-j-split", 2, rank([coordinates(j, 4) for j in J]))
    if q is None:
        return {"scale": None, "line_permutations": perms}
    a31 = State.of_term(2, 0, (3, 1))
    rep.check("projector keeps the cross term", "h-j-split", False, q(a31).is_zero())
    rep.check("projector annihilates J", "h-j-split", True, all(q(j).is_zero() for j in J))
    rep.check("projector restricts to identity on H", "h-j-split", True, all(q(h) == h for h in H))
    j_fixed = all(apply(g, jv) == jv for g in (s1, s2, s3) for jv in J)
    rep.check("J fixed pointwise", "h-j-split", True, j_fixed)

    # restriction to H: matrices in the basis H, via coordinates
    h_mats = {"id": _matrix_on(H, lambda s: s)} | {
        name: _matrix_on(H, partial(apply, g)) for name, g in group.items()
    }
    traces = {name: m[0][0] + m[1][1] for name, m in h_mats.items()}
    rep.check("H trace of identity", "h-irreducible", Scalar(2), traces["id"])
    rep.check(
        "H traces of involutions",
        "h-irreducible",
        [ZERO, ZERO, ZERO],
        [traces["s1"], traces["s2"], traces["s3"]],
    )
    rep.check(
        "H traces of three-cycles",
        "h-irreducible",
        [Scalar(-1), Scalar(-1)],
        [traces["rho"], traces["rho2"]],
    )

    gram_ok = all(
        form(gu, gv) == form(u, v)
        for name in ("s1", "s2", "s3")
        for u, gu in zip(basis4, images[name])
        for v, gv in zip(basis4, images[name])
    )
    rep.check("invariant form on weight 4", "form-invariance", True, gram_ok)

    # the product on H and the equivariant identification with the n=3 algebra
    def star(u, v):
        return q(pairing_p(u, v))

    product_nonzero = any(
        not star(H[i], H[j]).is_zero() for i in range(2) for j in range(2)
    )
    rep.check("projected pairing nonzero on H", "h-algebra", True, product_nonzero)
    comm_ok = star(H[0], H[1]) == star(H[1], H[0])
    rep.check("projected pairing commutative", "h-algebra", True, comm_ok)

    # axis states: the +1 eigenvector of the first involution on H, and its
    # rotations under the three-cycle
    M1 = h_mats["s1"]
    shifted = [
        [M1[0][0] - ONE, M1[0][1]],
        [M1[1][0], M1[1][1] - ONE],
    ]
    plus_space = kernel_basis(shifted, 2)
    rep.check("first involution has a 1-dim fixed line in H", "h-algebra", 1, len(plus_space))
    c0, c1 = plus_space[0]
    h1 = c0 * H[0] + c1 * H[1]
    h2 = apply(group["rho"], h1)
    h3 = apply(group["rho"], h2)
    rep.check("axis orbit sums to zero", "h-algebra", True, (h1 + h2 + h3).is_zero())

    A3 = symn.build(3)
    third = Scalar(Fraction(1, 3))

    def phi(vec_p):
        a, b = symn.diff_coords(vec_p)
        return third * (Scalar(a) * (h1 - h2) + Scalar(b) * (h2 - h3))

    # one scalar s with star(phi u, phi v) = s phi(u v) on the three basis
    # pairs, solved at once over their stacked coordinates
    d1, d2 = A3.basis
    pairs = [(d1, d1), (d1, d2), (d2, d2)]
    lhs = [c for u, v in pairs for c in coordinates(star(phi(u), phi(v)), 4)]
    rhs = [c for u, v in pairs for c in coordinates(phi(A3.multiply(u, v)), 4)]
    solved = solve_columns([rhs], lhs)
    scale = None if solved is None else solved[0]
    rep.check(
        "H algebra matches the n=3 invariant algebra up to one scalar",
        "h-algebra",
        True,
        scale is not None and not scale.is_zero(),
    )

    # equivariance of the identification on both generators of the group:
    # the first involution fixes axis 1 (permutation (0)(12) on axes), the
    # second swaps axes 0 and 1
    equi_ok = all(
        phi(A3.permute(sigma, vec)) == apply(g, phi(vec))
        for sigma, g in (((0, 2, 1), s1), ((1, 0, 2), s2))
        for vec in (d1, d2)
    )
    rep.check("identification is equivariant", "h-algebra", True, equi_ok)

    return {"scale": scale, "line_permutations": perms}
