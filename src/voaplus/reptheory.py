"""Module structure tools: singular vectors, mode-closure spans, branching data.

`saturate` is the one engine behind generation closures and fusion spans: it
inserts seed states into a graded subspace and then, breadth first, the
states a step function yields for each newly accepted vector, through
reduced echelon bases so membership, spans and dimensions are exact.
`closure` seeds it with the vacuum and the generators and steps by the
generators' modes with results in the weight window, carried in the
coordinates of the upper bound it is compared with (a name in
`fock.BOUNDS`) and skipping modes into pieces that already fill the bound;
`fusion_span` seeds it with the modes of a singular pair and steps by the
Virasoro operators.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import comb, factorial

from .numeric import (
    DecompositionError,
    Record,
    Scalar,
    ZERO,
    as_fraction,
    decompose,
    exact_square_root,
    graded_character,
    merge_into,
    visible_weights,
)
from .fock import (
    LatticeMismatch,
    State,
    bound_rule,
    check_lattice,
    check_window,
    graded_basis,
    graded_coordinates,
    graded_dim,
    weight_terms,
)
from .linalg import EchelonBasis, relations
from .vertex import mode, virasoro


class OutsideBound(ValueError):
    """A state that does not lie in the bound of a `GradedSubspace`."""


class GradedSubspace:
    """A weight-graded subspace, through weight W = max_weight, of a bound in
    one lattice Fock space, with exact bases.

    The bound is a name in `fock.BOUNDS` (default "full", the whole lattice
    algebra V_L), taken through weight W.  Each weight piece keeps an
    `EchelonBasis` in the coordinates of the bound, the (term, sign) tuples
    of `graded_coordinates(lattice, w, bound)`: a single term, or under a
    theta-sign a sector m > 0 term with its theta partner, indexed by its
    leading term.  A state enters it as the sparse row read off its own
    terms, so rank, membership and the canonical (unit-pivot reduced) basis
    are all deterministic.  A state outside the bound raises OutsideBound, a
    state of another lattice LatticeMismatch.  States handed back (residuals,
    basis states) are expanded to full States again.
    """

    def __init__(self, lattice: int, max_weight: int, bound: str = "full"):
        self._every_term = bound_rule(bound) == (1, None)  # each term is a coordinate
        check_lattice(lattice)
        self.lattice = lattice
        self.max_weight = check_window(max_weight)
        self.bound = bound
        self.pieces: dict = {}

    def _piece(self, w: int):
        piece = self.pieces.get(w)
        if piece is None:
            coords = graded_coordinates(self.lattice, w, self.bound)
            piece = {
                "coords": coords,
                "index": {c[0][0]: i for i, c in enumerate(coords)},
                "ech": EchelonBasis(len(coords)),
            }
            self.pieces[w] = piece
        return piece

    def _row(self, s: State, w: int) -> tuple:
        """(piece, sparse coordinate row) of a nonzero weight-w state of the
        lattice; OutsideBound unless the row expands back to s."""
        piece = self._piece(w)
        index = piece["index"]
        if self._every_term:
            return piece, {index[t]: c for t, c in s.terms.items()}
        row = {index[t]: c for t, c in s.terms.items() if t in index}
        if _expand(piece, row) != s.terms:
            raise OutsideBound(f"state does not lie in the {self.bound!r} bound")
        return piece, row

    def insert(self, s: State):
        """Insert a homogeneous state of the bound; if it enlarged the
        subspace, returns its residual as a State with Gaussian-integer
        coefficients (the primitive integer residual, a nonzero multiple of
        the field one), else None."""
        if s.lattice != self.lattice:
            raise LatticeMismatch("state and subspace live on different lattices")
        if s.is_zero():
            return None
        w = s.weight()
        if w > self.max_weight:
            raise ValueError(f"state weight {w} outside the window [0, {self.max_weight}]")
        piece, row = self._row(s, w)
        row = piece["ech"].insert(row)
        if row is None:
            return None
        residual = {i: Scalar._of(a, b, 1) for i, (a, b) in row.items()}
        return State._of(self.lattice, _expand(piece, residual))

    def contains(self, s: State) -> bool:
        if s.lattice != self.lattice:
            raise LatticeMismatch("state and subspace live on different lattices")
        if s.is_zero():
            return True
        w = s.weight()
        if w > self.max_weight:
            return False
        piece, row = self._row(s, w)
        return piece["ech"].contains(row)

    def dim(self, w: int) -> int:
        piece = self.pieces.get(w)
        return piece["ech"].rank if piece else 0

    def dims(self) -> list:
        return [self.dim(w) for w in range(self.max_weight + 1)]

    def full(self, w: int) -> bool:
        """True when the weight-w piece is the whole weight-w piece of the
        bound: its rank equals the bound's number of coordinates there."""
        piece = self._piece(w)
        return piece["ech"].rank == len(piece["coords"])

    def basis_states(self, w: int) -> list:
        piece = self.pieces.get(w)
        if piece is None:
            return []
        return [
            State(self.lattice, _expand(piece, {i: c for i, c in enumerate(vec) if c}))
            for vec in piece["ech"].vectors()
        ]


def _expand(piece: dict, row: dict) -> dict:
    """The {term: coefficient} of the state a coordinate row stands for."""
    coords = piece["coords"]
    return {t: c if sign == 1 else -c for i, c in row.items() for t, sign in coords[i]}


def saturate(sub: GradedSubspace, seeds, step) -> GradedSubspace:
    """Insert the seeds into sub, then, breadth first, every state step(v)
    yields for each newly accepted reduced vector v; zero states are skipped.

    Insertion follows seed order, then queue order, so the echelon bases are
    deterministic.
    """
    queue: deque = deque()

    def add(s: State):
        if s:
            reduced = sub.insert(s)
            if reduced is not None:
                queue.append(reduced)

    for s in seeds:
        add(s)
    while queue:
        for s in step(queue.popleft()):
            add(s)
    return sub


def closure(lattice: int, generators, max_weight: int, bound: str = "full") -> GradedSubspace:
    """Span, through weight W = max_weight, of the generator monomials
    g1_(n1) ... gr_(nr) vacuum, carried in the coordinates of `bound`.

    Starting from the vacuum and the generators, every newly accepted vector v
    is hit with g_(k) for each generator g and every k whose result weight lies
    in [0, max_weight].  The subalgebra generated by a set is spanned by such
    monomials, so every vector found lies in it and the dimensions are lower
    bounds through weight W.  Monomials that pass above W on the way down
    are not followed, so without the conformal vector among the generators
    the result can fall short of the windowed closure under all pairwise
    modes.

    The bound is the upper bound through weight W, a name in `fock.BOUNDS`;
    see `GradedSubspace`.  The vacuum and the generators are inserted first
    and refused with OutsideBound unless they lie in it, so a bound without
    the vacuum ("pair-:0") refuses every closure.  Modes preserve each bound
    that holds the vacuum (the parity involution commutes with modes, and
    modes add sectors, so multiples of the step stay multiples), so every
    monomial lies in it too, and g_(k) v is not computed at all when its
    weight piece is already the whole piece of the bound: it would be
    rejected.  The dimensions meet the bound's exactly when the closure fills
    it through weight W.
    """
    sub = GradedSubspace(lattice, max_weight, bound)
    W = sub.max_weight
    gens = []
    for g in generators:
        if not g.is_homogeneous() or g.is_zero():
            raise ValueError("closure generators must be nonzero homogeneous states")
        if g.weight() > W:
            raise ValueError("closure generators must have weight within the window")
        gens.append((g, g.weight()))

    def step(v: State):
        wv = v.weight()
        for g, wg in gens:
            total = wg + wv
            for k in range(total - 1 - W, total):
                if not sub.full(total - 1 - k):
                    yield mode(g, k, v)

    seeds = [State.vacuum(lattice)] + [g for g, _ in gens]
    return saturate(sub, seeds, step)


def singular_vectors(lattice: int, w, bound="full") -> list[State]:
    """Basis of the joint kernel of the first two lowering Virasoro operators
    on the weight-w piece of a bound (a name in `fock.BOUNDS`): the `relations` among the images
    (L(1)b, L(2)b) of its basis states b, keyed by the terms of weights w - 1
    and w - 2, one vector per b whose image lies in the span of those before."""
    basis = graded_basis(lattice, w, bound)
    if not basis:
        return []
    w = int(Fraction(w))
    index = {t: i for i, t in enumerate(weight_terms(lattice, w - 1) + weight_terms(lattice, w - 2))}
    images = ({index[t]: c for k in (1, 2) for t, c in virasoro(k, b).terms.items()} for b in basis)
    out = []
    for _, x in relations(images, len(index), len(basis)):
        acc: dict = {}
        for c, b in zip(x, basis):
            if c:
                merge_into(acc, ((t, c * e) for t, e in b.terms.items()), False)
        out.append(State._of(lattice, acc))
    return out


def lower_u(m: int) -> State:
    """m-fold application of the zero mode of the inverse sector vector to the
    sector-m ground state of the N=2 lattice; a raw weight-m^2 singular vector
    of the Heisenberg part, returned without rescaling."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("lower_u expects a positive integer")
    x_minus = State.of_term(2, -1)
    u = State.of_term(2, m)
    for _ in range(m):
        u = mode(x_minus, 0, u)
    return u


def rescale_heisenberg_state(s: State, lattice_to: int) -> State:
    """Transport a sector-zero state with even part counts to another lattice.

    The underlying unit-norm generator is lattice independent; expressing the
    same vector in the long generator of the target lattice multiplies each
    term by (N_from/N_to)^(parts/2), rational precisely because every part
    count is even.
    """
    ratio = Fraction(s.lattice, lattice_to)
    out = {}
    for (m_sec, lam), c in s.terms.items():
        if m_sec != 0 or len(lam) % 2:
            raise ValueError("transport needs sector zero and even part counts")
        out[(m_sec, lam)] = c * ratio ** (len(lam) // 2)
    return State(lattice_to, out)


class CGLabel(Record):
    """Even spin-doubled labels (m, n, i) with i in the tensor range of m, n.

    Immutable; equal labels have equal (m, n, i)."""

    __slots__ = ("m", "n", "i")

    def __init__(self, m: int, n: int, i: int):
        for v in (m, n, i):
            if not isinstance(v, int) or v < 0 or v % 2:
                raise ValueError("labels must be even nonnegative integers")
        if not (abs(m - n) <= i <= m + n):
            raise ValueError("i outside the tensor range")
        super().__init__(m, n, i)


def cg_coefficient(label) -> Scalar:
    """Signed square of the zero-magnetic-number coupling coefficient.

    The true coefficient for doubled spins (m, n, i) can be an irrational
    square root, but its square is rational and its vanishing is what the
    parity statement concerns, so this returns sign * |coefficient|^2
    (standard phase convention).  Zero exactly when the coupling vanishes.

    It is Racah's sum at zero magnetic numbers, spins j = (m, n, i)/2: with
    a, b, c = j1 + j2 - j3, j1 - j2 + j3, -j1 + j2 + j3 the coefficient is

        sqrt((2 j3 + 1) / ((j1 + j2 + j3 + 1)! a! b! c!)) j1! j2! j3! S,
        S = sum_k (-1)^k C(a, k) C(b, j1 - k) C(c, j2 - k),

    an integer sum in which nothing singles out odd j1 + j2 + j3.
    """
    if not isinstance(label, CGLabel):
        label = CGLabel(*label)
    j1, j2, j3 = label.m // 2, label.n // 2, label.i // 2
    a, b, c = j1 + j2 - j3, j1 - j2 + j3, -j1 + j2 + j3
    S = sum(
        (-1) ** k * comb(a, k) * comb(b, j1 - k) * comb(c, j2 - k)
        for k in range(min(a, j1, j2) + 1)
    )
    if not S:
        return ZERO
    top = (2 * j3 + 1) * (factorial(j1) * factorial(j2) * factorial(j3)) ** 2 * S * abs(S)
    bottom = factorial(j1 + j2 + j3 + 1) * factorial(a) * factorial(b) * factorial(c)
    return Scalar._of(top, 0, bottom)


def tensor_decompose(m: int, n: int) -> list:
    """Constituent labels of the product of the m- and n-labelled modules."""
    for v in (m, n):
        if not isinstance(v, int) or v < 0 or v % 2:
            raise ValueError("labels must be even nonnegative integers")
    if m < n:
        m, n = n, m
    return list(range(m - n, m + n + 1, 2))


def parity_sweep(rep, max_m: int) -> None:
    """Check vanishing of the coupling against the parity rule for all labels,
    one row per label added to the report rep."""
    for m in range(0, max_m + 1, 2):
        for n in range(0, max_m + 1, 2):
            for i in tensor_decompose(m, n):
                value = cg_coefficient(CGLabel(max(m, n), min(m, n), i))
                rep.check(
                    f"coupling m={m} n={n} i={i}",
                    "cg-parity",
                    {"vanishes": ((m + n + i) // 2) % 2 == 1},
                    {"vanishes": value.is_zero()},
                )


def fusion_span(m_idx: int, n_idx: int, max_weight: int) -> GradedSubspace:
    """Span of all modes of one singular pair, closed under the Virasoro action.

    Its graded dimensions are predicted by the character sum over labels
    i = m-n, m-n+2, ..., m+n, the label-i constituent contributing the
    weight-i^2 character.
    """
    if m_idx < n_idx:
        m_idx, n_idx = n_idx, m_idx
    if n_idx < 1:
        raise ValueError("fusion_span expects positive indices")
    sub = GradedSubspace(2, max_weight)
    W = sub.max_weight
    u = lower_u(m_idx)
    v = lower_u(n_idx)
    wu, wv = m_idx * m_idx, n_idx * n_idx

    def step(s: State):
        w = s.weight()
        for j in range(-(W - w), w + 1):
            if j:
                yield virasoro(j, s)

    seeds = (mode(u, k, v) for k in range(wu + wv - 1 - W, wu + wv))
    return saturate(sub, seeds, step)


def _sectors(N: int, order, mult: int) -> dict:
    """{m^2 N/2: mult} over the lattice-translate sectors m >= 1 visible below the order."""
    return visible_weights(order, lambda m: Fraction(m * m * N, 2), lambda m: mult, start=1)


def expected_full_decomposition(N: int, order: Fraction) -> dict:
    """Predicted multiplicity of each constituent weight in the whole lattice
    algebra character, for weights visible below the order: 2(n // k) + 1
    copies of n^2 when 2N = 4k^2, else one of each n^2, then two of each
    sector weight m^2 N/2 (never a square then)."""
    root = exact_square_root(2 * N)
    if root is not None:
        k = root // 2
        return visible_weights(order, lambda n: n * n, lambda n: 2 * (n // k) + 1)
    return visible_weights(order, lambda n: n * n) | _sectors(N, order, 2)


def expected_plus_decomposition(N: int, order: Fraction) -> dict:
    """Predicted constituents of the parity-fixed subalgebra character, each
    4n^2 and each sector once; only valid when 2N is not a perfect square."""
    if exact_square_root(2 * N) is not None:
        raise ValueError("plus-space branching rule needs 2N to not be a square")
    return visible_weights(order, lambda n: 4 * n * n) | _sectors(N, order, 1)


def character_decomposition_suite(rep, N: int, max_weight: int, order) -> None:
    """Branching checks for one lattice, added to the report rep: enumerated
    characters against greedy peels and against the predicted constituent
    multiplicities.
    """
    order = as_fraction(order)
    W = check_window(max_weight)
    if order <= W:
        raise ValueError("series order must exceed the enumeration weight")

    # dual route at low weight: enumerated bases against pure counting
    for bound in ("full", "plus"):
        enum = [len(graded_basis(N, w, bound)) for w in range(W + 1)]
        count = [graded_dim(N, w, bound) for w in range(W + 1)]
        rep.check(f"basis-vs-count {bound} N={N} to w={W}", "graded-dims", count, enum)

    # one row per branching: (name, location, bound, expected constituents)
    full = expected_full_decomposition(N, order)
    rows = [(f"full-character branching N={N}", "lattice-branching", "full", full)]
    if exact_square_root(2 * N) is None:
        plus = expected_plus_decomposition(N, order)
        rows.append((f"plus-character branching N={N}", "plus-branching", "plus", plus))
    # Heisenberg halves are lattice independent; phrased here for convenience
    even = visible_weights(order, lambda n: 4 * n * n)
    odd = visible_weights(order, lambda n: (2 * n + 1) ** 2)
    rows += [
        ("heisenberg-plus branching", "heisenberg-split", "pair+:0", even),
        ("heisenberg-minus branching", "heisenberg-split", "pair-:0", odd),
    ]
    for name, location, bound, expected in rows:
        counted = graded_character(lambda w: graded_dim(N, w, bound), order)
        try:
            got = dict(decompose(counted, list(expected)))
        except DecompositionError as exc:
            got = {"error": str(exc)}
        rep.check(name, location, expected, got)
