"""Check reports with deterministic JSON and text rendering.

A report is a flat list of named checks, each carrying the expected and the
actual value plus a stable location tag naming the claim it verifies.  The
JSON encoding is canonical: rationals as "p/q" strings, complex scalars as
{"re", "im"} pairs, states as sorted term lists, so two runs with equal
inputs serialize byte-identically and serialize -> parse -> serialize is a
fixed point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fock import State
from .numeric import Scalar, fraction_str


class Check:
    """One named check: status "pass" or "fail", the expected and the actual
    value, and the location tag of the claim it verifies."""

    __slots__ = ("name", "status", "expected", "actual", "location")

    def __init__(self, name: str, status: str, expected, actual, location: str):
        self.name = name
        self.status = status
        self.expected = expected
        self.actual = actual
        self.location = location


class Report:
    """A task, its parameters and its checks in order; each Report owns a
    fresh parameters dict and checks list unless given its own."""

    __slots__ = ("task", "parameters", "checks")

    def __init__(self, task: str, parameters=None, checks=None):
        self.task = task
        self.parameters = {} if parameters is None else parameters
        self.checks = [] if checks is None else checks

    def check(self, name, location, expected, actual, ok=None):
        if ok is None:
            ok = expected == actual
        self.checks.append(Check(name, "pass" if ok else "fail", expected, actual, location))

    @property
    def status(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def failures(self) -> list:
        return [c.name for c in self.checks if c.status == "fail"]


def encode_value(v):
    """Map report payloads onto plain JSON values, canonically."""
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, Scalar):
        return {"re": fraction_str(v.re), "im": fraction_str(v.im)}
    if isinstance(v, State):
        terms = []
        for (m, lam), c in sorted(v.terms.items()):
            terms.append({"sector": m, "partition": list(lam), "coeff": encode_value(c)})
        return terms
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    if isinstance(v, dict):
        return {_encode_key(k): encode_value(x) for k, x in v.items()}
    raise TypeError(f"cannot serialize {type(v).__name__} into a report")


def _encode_key(k) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, (int, Fraction)):
        return fraction_str(Fraction(k))
    raise TypeError(f"cannot serialize map key {k!r}")


def decode_value(v):
    """Partial inverse of encode_value; re-encoding the result is a fixed point."""
    if isinstance(v, str):
        try:
            f = Fraction(v)
        except ValueError:
            return v
        if fraction_str(f) != v:
            return v
        # canonical fraction strings decode to Fraction (never int), so that
        # re-encoding restores the same string and integers stay JSON numbers
        return f
    if isinstance(v, list):
        return [decode_value(x) for x in v]
    if isinstance(v, dict):
        if set(v) == {"re", "im"} and all(isinstance(x, str) for x in v.values()):
            try:
                return Scalar(Fraction(v["re"]), Fraction(v["im"]))
            except ValueError:
                pass
        return {_decode_key(k): decode_value(x) for k, x in v.items()}
    return v


def _decode_key(k: str):
    try:
        f = Fraction(k)
    except ValueError:
        return k
    if fraction_str(f) != k:
        return k
    return int(f) if f.denominator == 1 else f


def state_from_terms(lattice: int, terms) -> State:
    """Rebuild a state from its encoded term list."""
    out = {}
    for t in terms:
        coeff = t["coeff"]
        if not isinstance(coeff, Scalar):
            coeff = Scalar(Fraction(coeff["re"]), Fraction(coeff["im"]))
        out[(t["sector"], tuple(t["partition"]))] = coeff
    return State(lattice, out)


def _parameters_json(report: Report) -> dict:
    return {str(k): encode_value(v) for k, v in report.parameters.items()}


def _check_json(c: Check) -> dict:
    return {
        "name": c.name,
        "status": c.status,
        "expected": encode_value(c.expected),
        "actual": encode_value(c.actual),
        "location": c.location,
    }


def report_to_json(report: Report) -> dict:
    return {
        "task": report.task,
        "parameters": _parameters_json(report),
        "checks": [_check_json(c) for c in report.checks],
        "status": report.status,
    }


def render_json(report: Report) -> str:
    """`json.dumps(report_to_json(report), indent=2)` and a newline, encoded
    128 checks per call: the indenting encoder builds its output from one
    small string per token, so a whole report at once costs many times its
    size in memory, and it sets itself up anew on every call."""
    enc = json.JSONEncoder(indent=2)
    # the encoded head ends in "\n}", which the checks and status replace
    head = enc.encode({"task": report.task, "parameters": _parameters_json(report)})
    pieces = []
    for i in range(0, len(report.checks), 128):
        batch = enc.encode([_check_json(c) for c in report.checks[i : i + 128]])
        # "[\n  {…},\n  {…}\n]": drop the brackets and indent two more spaces
        pieces.append("  " + batch[2:-2].replace("\n", "\n  "))
    checks = "[\n" + ",\n".join(pieces) + "\n  ]" if pieces else "[]"
    return f'{head[:-2]},\n  "checks": {checks},\n  "status": {enc.encode(report.status)}\n}}\n'


def parse_report(text: str) -> Report:
    data = json.loads(text)
    rep = Report(data["task"], {k: decode_value(v) for k, v in data["parameters"].items()})
    for c in data["checks"]:
        rep.checks.append(
            Check(
                c["name"],
                c["status"],
                decode_value(c["expected"]),
                decode_value(c["actual"]),
                c["location"],
            )
        )
    return rep


def _compact(v) -> str:
    return json.dumps(encode_value(v), separators=(",", ":"))


def render_text(report: Report) -> str:
    lines = [f"task: {report.task}"]
    if report.parameters:
        pairs = " ".join(f"{k}={_compact(v)}" for k, v in report.parameters.items())
        lines.append(f"parameters: {pairs}")
    lines.append(f"checks: {len(report.checks)}")
    for c in report.checks:
        lines.append(f"  [{c.status:^7}] {c.name}  @{c.location}")
        if c.status == "fail" or _compact(c.expected) != _compact(c.actual):
            lines.append(f"            expected: {_compact(c.expected)}")
            lines.append(f"            actual:   {_compact(c.actual)}")
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"
