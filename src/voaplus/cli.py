"""Command-line driver running the verification suites with deterministic reports.

Each subcommand maps onto one family of claims: character branchings, mode
identities, generation closures, fusion spans, coupling parity, automorphism
checks, and the permutation-invariant algebra family.  `all --profile desk`
runs the whole battery at the default cutoffs.  Exit code 0 means every check
passed, 1 means at least one failed, 2 means the invocation was unusable.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from math import factorial

from . import __version__
from .aut4 import (
    apply,
    automorphism_rows,
    check_automorphism,
    compose_specs,
    e_fixed_check,
    sym3_report,
    theta_spec,
    torus_spec,
)
from .fock import State, graded_basis, graded_dim
from .numeric import I, Scalar, graded_dims, telescoping_check, virasoro_character
from .report import (
    Check,
    Report,
    render_json,
    render_text,
)
from .reptheory import (
    character_decomposition_suite,
    closure,
    fusion_span,
    lower_u,
    parity_sweep,
    rescale_heisenberg_state,
    singular_vectors,
)
from .symn import invariant_algebra_report
from .vertex import clear_mode_cache, mode, poly_binom, virasoro


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _even_lattice(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n <= 0 or n % 2:
        raise argparse.ArgumentTypeError("lattice norm must be a positive even integer")
    return n


def _nonneg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError("value must be nonnegative")
    return n


# Ceilings on the size flags of the subcommands that sweep modes over whole
# graded bases, on the weight of the four-group fixed-space check, on the
# closures, spans and enumerated characters, on the character series order,
# on the fusion labels, on the Clebsch-Gordan sweep and on the
# invariant-algebra family; the cost at each ceiling is stated in the README.
MODE_CHECKS_MAX_WEIGHT = 12
AUT_MAX_WEIGHT = 7
AUT_N4_MAX_WEIGHT = 6
GENERATION_MAX_WEIGHT = 12
FUSION_MAX_WEIGHT = 14
FUSION_MAX_INDEX = 3
CHARACTERS_MAX_WEIGHT = 30
CHARACTERS_MAX_ORDER = 320
CG_MAX = 64
SYMN_MAX_N = 12


def _at_most(ceiling: int, floor: int = 0):
    def parse(text: str) -> int:
        n = _nonneg(text)
        if n < floor:
            raise argparse.ArgumentTypeError(f"value must be at least {floor}")
        if n > ceiling:
            raise argparse.ArgumentTypeError(f"value must be at most {ceiling}")
        return n

    return parse


def _virasoro_dims(h, max_weight: int) -> list:
    return graded_dims(virasoro_character(h, max_weight + 1), max_weight)


# ---------------------------------------------------------------------------
# subcommand bodies


def _characters_report(lattice: int, max_weight: int, order: int) -> Report:
    if order <= max_weight:
        raise _UsageError("--order must exceed --max-weight")
    rep = Report(
        "characters", {"lattice": lattice, "max-weight": max_weight, "order": order}
    )
    character_decomposition_suite(rep, lattice, max_weight, order)
    for m, k in ((1, 1), (2, 1), (1, 2), (2, 2)):
        rep.check(
            f"telescoping m={m} k={k} below order {order}",
            "telescoping-identity",
            True,
            telescoping_check(m, k, order),
        )
    return rep


def _mode_checks_report(max_weight: int) -> Report:
    rep = Report("mode-checks", {"max-weight": max_weight})
    zero2 = State(2, {})

    s = State.of_term(2, 0, (3, 1))
    rep.check(
        "square of the weight-4 polynomial state", "coefficient-72", s * 72, mode(s, 3, s)
    )

    for n in range(1, 5):
        N = 2 * n
        u = State.of_term(N, 1) + State.of_term(N, -1)
        rep.check(
            f"self-pairing of the symmetric exponential, norm {N}",
            "exponential-self-pairing",
            State.vacuum(N) * 2,
            mode(u, 2 * n - 1, u),
        )

    bases = {w: graded_basis(2, w, "full") for w in range(max_weight + 1)}
    flat = [b for w in range(max_weight + 1) for b in bases[w]]
    # one sweep over the basis: L(k)b for every k the 21 brackets read, then
    # each bracket's count and first defect in flat order
    pairs = [(p, q) for p in range(-3, 4) for q in range(p + 1, 4)]
    count = dict.fromkeys(pairs, 0)
    first = {}
    for b in flat:
        lb = {k: virasoro(k, b) for k in range(-5, 6)}
        for p, q in pairs:
            lhs = virasoro(p, lb[q]) - virasoro(q, lb[p])
            rhs = (p - q) * lb[p + q]
            central = Fraction(p**3 - p, 12) if p + q == 0 else 0
            if central:
                rhs = rhs + b * central
            if lhs != rhs:
                count[p, q] += 1
                if (p, q) not in first:
                    first[p, q] = {"first-defective-state": b, "lhs-minus-rhs": lhs - rhs}
    for p, q in pairs:
        # a failing row names its first defective basis state
        actual = {"defects": count[p, q]} | first[p, q] if count[p, q] else 0
        rep.check(
            f"central-charge-one bracket p={p} q={q} on states of weight <= {max_weight}",
            "virasoro-relations",
            0,
            actual,
        )

    pool = bases.get(2, []) + bases.get(3, [])
    combos = []
    for u in pool:
        for v in pool:
            for w in pool:
                for pq in ((1, 1), (2, -1)):
                    combos.append((u, v, w, pq))
    stride = max(1, len(combos) // 20)
    picked = combos[::stride][:20]
    for idx, (u, v, w, (p, q)) in enumerate(picked):
        wu, wv = u.weight(), v.weight()
        lhs = mode(u, p, mode(v, q, w)) - mode(v, q, mode(u, p, w))
        rhs = zero2
        for j in range(wu + wv):
            uv = mode(u, j, v)
            if uv:
                rhs = rhs + poly_binom(p, j) * mode(uv, p + q - j, w)
        rep.check(
            f"mode commutator triple #{idx:02d} p={p} q={q}",
            "mode-commutator",
            zero2,
            lhs - rhs,
        )

    wu, wv = 2, 3
    for iu, u in enumerate(bases.get(2, [])):
        for iv, v in enumerate(bases.get(3, [])):
            # L(-1)^i v_(n) u for i < n, n = 1..4: row k reads i = n - k
            powers = {}
            for n in range(1, wu + wv):
                t = mode(v, n, u)
                powers[n] = [t]
                for _ in range(n - 1):
                    t = virasoro(-1, t) if t else t
                    powers[n].append(t)
            for k in (1, 2):
                rhs = zero2
                for j in range(wu + wv - k):
                    sign = -1 if (k + 1 + j) % 2 else 1
                    rhs = rhs + powers[k + j][j] * Fraction(sign, factorial(j))
                rep.check(
                    f"skew-symmetry u#{iu} v#{iv} k={k}",
                    "mode-skew-symmetry",
                    mode(u, k, v),
                    rhs,
                )
    return rep


def _generation_report(lattice: int, max_weight: int) -> Report:
    # the window must hold every generator: u4 of weight 4, the symmetric
    # exponential of weight N/2 and omega of weight 2
    floor = max(4, lattice // 2)
    if max_weight < floor:
        raise _UsageError(
            f"--max-weight for --lattice {lattice} must be at least {floor}, "
            "the weight of the heaviest generator"
        )
    rep = Report("generation", {"lattice": lattice, "max-weight": max_weight})
    W = max_weight
    u4 = rescale_heisenberg_state(lower_u(2), lattice)
    e_sym = State.of_term(lattice, 1) + State.of_term(lattice, -1)
    om = State.omega(lattice)

    plus_dims = [graded_dim(lattice, w, "plus") for w in range(W + 1)]
    sub = closure(lattice, [u4, e_sym, om], W, "plus")
    rep.check(
        f"fixed subspace generated by the weight-4 vector, the symmetric "
        f"exponential and the conformal vector, norm {lattice}",
        "plus-generation",
        plus_dims,
        sub.dims(),
    )

    heis_dims = [graded_dim(lattice, w, "pair+:0") for w in range(W + 1)]
    sub2 = closure(lattice, [u4, om], W, "pair+:0")
    rep.check(
        f"even Heisenberg subspace generated by the weight-4 vector and the "
        f"conformal vector, norm {lattice}",
        "heisenberg-generation",
        heis_dims,
        sub2.dims(),
    )

    if lattice == 2:
        # a singular vector inside the Virasoro vacuum module is tagged by
        # membership; any other one by the dims of its closure with omega
        vac_dims = _virasoro_dims(0, W)
        vir = closure(2, [om], W, "pair+:0")
        labels = ["virasoro-vacuum-module", "even-heisenberg-space"]
        for w in range(0, 7):
            for idx, s in enumerate(singular_vectors(2, w, "pair+:0")):
                if vir.contains(s):
                    tag = labels[0] if vir.dims() == vac_dims else vir.dims()
                else:
                    d = closure(2, [om, s], W, "pair+:0").dims()
                    tag = labels[1] if d == heis_dims else d
                rep.check(
                    f"closure of the weight-{w} singular vector #{idx}",
                    "singular-closure",
                    labels,
                    tag,
                    ok=tag in labels,
                )
    return rep


def _fusion_report(m: int, n: int, max_weight: int) -> Report:
    rep = Report("fusion", {"m": m, "n": n, "max-weight": max_weight})
    sub = fusion_span(m, n, max_weight)
    constituents = list(range(abs(m - n), m + n + 1, 2))
    rep.parameters["constituents"] = constituents
    # the label-i constituent contributes the weight-i^2 character
    per_label = [_virasoro_dims(i * i, max_weight) for i in constituents]
    for w in range(max_weight + 1):
        rep.check(
            f"span dimension at weight {w}",
            "fusion-span",
            sum(dims[w] for dims in per_label),
            sub.dim(w),
        )
    return rep


def _cg_report(max_m: int) -> Report:
    rep = Report("cg", {"max": max_m})
    parity_sweep(rep, max_m)
    return rep


def _aut_report(case: str, max_weight: int) -> Report:
    rep = Report("aut", {"case": case, "max-weight": max_weight})
    if case == "theta":
        check_automorphism(
            rep, theta_spec(2), max_weight, "negation involution, norm 2", "theta-check"
        )
        return rep
    if case == "torus":
        th = theta_spec(8)
        scalings = (("2", Scalar(2)), ("-1", Scalar(-1)), ("i", I))
        blocks = automorphism_rows([torus_spec(8, c) for _, c in scalings], max_weight)
        for (tag, c), rows in zip(scalings, blocks):
            for name, actual in rows:
                rep.check(f"sector scaling c={tag}: {name}", "torus-check", True, actual)
            defects = 0
            conj = compose_specs(th, torus_spec(8, c), th)
            inv = torus_spec(8, c.inverse())
            for w in range(min(max_weight, 4) + 1):
                for b in graded_basis(8, w, "full"):
                    if apply(conj, b) != apply(inv, b):
                        defects += 1
            rep.check(
                f"involution conjugates scaling c={tag} to its reciprocal",
                "torus-conjugation",
                0,
                defects,
            )
        return rep
    # case == "n4"
    if max_weight > AUT_N4_MAX_WEIGHT:
        raise _UsageError(f"--max-weight for --case n4 must be at most {AUT_N4_MAX_WEIGHT}")
    sym3_report(rep)
    e_fixed_check(rep, max_weight)
    plus2 = [graded_dim(2, w, "plus") for w in range(13)]
    full8 = [graded_dim(8, w, "full") for w in range(13)]
    rep.check(
        "norm-2 fixed character equals the norm-8 full character to weight 12",
        "plus2-vs-full8",
        plus2,
        full8,
    )
    return rep


def _symn_report(n_max: int) -> Report:
    rep = Report("symn", {"n": n_max})
    invariant_algebra_report(rep, range(3, n_max + 1))
    return rep


def _all_report(seed) -> Report:
    rep = Report("all", {"profile": "desk"})
    parts = [
        ("characters N=2", lambda: _characters_report(2, 12, 40)),
        ("characters N=4", lambda: _characters_report(4, 8, 40)),
        ("characters N=6", lambda: _characters_report(6, 8, 40)),
        ("characters N=10", lambda: _characters_report(10, 8, 40)),
        ("mode-checks", lambda: _mode_checks_report(6)),
        ("generation N=2", lambda: _generation_report(2, 8)),
        ("generation N=4", lambda: _generation_report(4, 8)),
        ("generation N=6", lambda: _generation_report(6, 8)),
        ("fusion 1x1", lambda: _fusion_report(1, 1, 8)),
        ("fusion 2x1", lambda: _fusion_report(2, 1, 8)),
        ("fusion 2x2", lambda: _fusion_report(2, 2, 8)),
        ("cg", lambda: _cg_report(8)),
        ("aut theta", lambda: _aut_report("theta", 5)),
        ("aut torus", lambda: _aut_report("torus", 5)),
        ("aut n4", lambda: _aut_report("n4", 6)),
        ("symn", lambda: _symn_report(8)),
    ]
    # The seed shuffles only the execution order of the independent parts;
    # the emitted report is always in the canonical order.
    order = list(range(len(parts)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    results = {}
    for i in order:
        clear_mode_cache()  # the mode table lives for one part only
        results[i] = parts[i][1]()
    for i, (label, _) in enumerate(parts):
        for c in results[i].checks:
            rep.checks.append(
                Check(f"{label} :: {c.name}", c.status, c.expected, c.actual, c.location)
            )
    return rep


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = _Parser(prog="voaplus", description=__doc__)
    parser.add_argument("--version", action="version", version=f"voaplus {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("characters", parents=[common])
    p.add_argument("--lattice", type=_even_lattice, default=2)
    p.add_argument("--max-weight", type=_at_most(CHARACTERS_MAX_WEIGHT), default=8)
    p.add_argument("--order", type=_at_most(CHARACTERS_MAX_ORDER, floor=1), default=40)
    p.set_defaults(
        handler=lambda a: _characters_report(a.lattice, a.max_weight, a.order)
    )

    p = sub.add_parser("mode-checks", parents=[common])
    p.add_argument("--max-weight", type=_at_most(MODE_CHECKS_MAX_WEIGHT), default=6)
    p.set_defaults(handler=lambda a: _mode_checks_report(a.max_weight))

    p = sub.add_parser("generation", parents=[common])
    p.add_argument("--lattice", type=_even_lattice, default=2)
    p.add_argument("--max-weight", type=_at_most(GENERATION_MAX_WEIGHT), default=8)
    p.set_defaults(handler=lambda a: _generation_report(a.lattice, a.max_weight))

    p = sub.add_parser("fusion", parents=[common])
    p.add_argument("--m", type=_at_most(FUSION_MAX_INDEX, floor=1), default=1)
    p.add_argument("--n", type=_at_most(FUSION_MAX_INDEX, floor=1), default=1)
    p.add_argument("--max-weight", type=_at_most(FUSION_MAX_WEIGHT), default=8)
    p.set_defaults(handler=lambda a: _fusion_report(a.m, a.n, a.max_weight))

    p = sub.add_parser("cg", parents=[common])
    p.add_argument("--max", type=_at_most(CG_MAX), default=8)
    p.set_defaults(handler=lambda a: _cg_report(a.max))

    p = sub.add_parser("aut", parents=[common])
    p.add_argument("--case", choices=("theta", "torus", "n4"), required=True)
    p.add_argument("--max-weight", type=_at_most(AUT_MAX_WEIGHT), default=5)
    p.set_defaults(handler=lambda a: _aut_report(a.case, a.max_weight))

    p = sub.add_parser("symn", parents=[common])
    p.add_argument("--n", type=_at_most(SYMN_MAX_N, floor=3), default=8)
    p.set_defaults(handler=lambda a: _symn_report(a.n))

    p = sub.add_parser("all", parents=[common])
    p.add_argument("--profile", choices=("desk",), default="desk")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="shuffle the order the parts run in; never affects the report",
    )
    p.set_defaults(handler=lambda a: _all_report(a.seed))

    return parser


def run(argv) -> tuple:
    """Parse and execute one invocation; returns (exit code, report or None)."""
    parser = _build_parser()
    clear_mode_cache()
    try:
        args = parser.parse_args(argv)
        rep = args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, None
    text = render_json(rep) if args.format == "json" else render_text(rep)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2, rep
    else:
        sys.stdout.write(text)
    return (0 if rep.status == "pass" else 1), rep


def main() -> None:
    sys.exit(run(sys.argv[1:])[0])


if __name__ == "__main__":
    main()
