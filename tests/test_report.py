"""Tests for canonical report encoding, parsing and rendering."""

import json
from fractions import Fraction

import pytest

from voaplus.fock import State
from voaplus.numeric import Scalar
from voaplus.report import (
    Check,
    Report,
    decode_value,
    encode_value,
    parse_report,
    render_json,
    render_text,
    report_to_json,
    state_from_terms,
)

F = Fraction


def test_encode_scalars_and_fractions():
    assert encode_value(F(3, 1)) == "3"  # rationals are strings, "3/1" normalized
    assert encode_value(F(-5, 12)) == "-5/12"
    assert encode_value(Scalar(F(1, 2), F(-2))) == {"re": "1/2", "im": "-2"}
    assert encode_value(7) == 7
    assert encode_value(True) is True
    assert encode_value(None) is None
    assert encode_value("q^2") == "q^2"


def test_encode_rejects_foreign_types():
    with pytest.raises(TypeError):
        encode_value({1, 2})
    with pytest.raises(TypeError):
        encode_value(0.5)


def test_encode_state_terms_sorted():
    s = State.of_term(2, 1, (2,)) * Scalar(0, 1) + State.of_term(2, -1, (1, 1))
    enc = encode_value(s)
    assert [t["sector"] for t in enc] == [-1, 1]
    assert enc[0]["partition"] == [1, 1]
    assert enc[1]["coeff"] == {"re": "0", "im": "1"}
    assert state_from_terms(2, enc) == s


def test_decode_round_trips_encode():
    values = [
        F(3, 7),
        F(4),
        Scalar(F(1, 3), F(-1, 2)),
        [1, "free text", F(-2, 5)],
        {"dim": 4, F(1, 2): True, 3: [Scalar(2)]},
        None,
        "7/el",  # not a canonical fraction string; must stay a string
        "08",  # parses as a fraction but is not canonical either
    ]
    for v in values:
        enc = encode_value(v)
        dec = decode_value(enc)
        assert encode_value(dec) == enc
    assert decode_value("3/7") == F(3, 7)
    # canonical whole strings come back as Fraction, keeping ints for numbers
    assert decode_value("4") == F(4) and isinstance(decode_value("4"), F)
    assert decode_value(4) == 4 and isinstance(decode_value(4), int)
    assert decode_value("7/el") == "7/el"
    assert decode_value("08") == "08"
    assert decode_value({"re": "1", "im": "0"}) == Scalar(1)


def test_report_status_and_failures():
    rep = Report("demo", {"n": 3})
    rep.check("first", "loc-a", 2, 2)
    rep.check("second", "loc-b", 2, 3)
    rep.check("third", "loc-c", "ignored", "values", ok=True)
    assert rep.status == "fail"
    assert rep.failures() == ["second"]
    data = report_to_json(rep)
    assert data["status"] == "fail"
    assert [c["status"] for c in data["checks"]] == ["pass", "fail", "pass"]


def test_reports_share_no_containers():
    a, b = Report("a"), Report("b")
    a.parameters["n"] = 1
    a.check("only in a", "loc", 1, 1)
    assert b.parameters == {} and b.checks == []
    assert a.parameters is not b.parameters and a.checks is not b.checks
    given = {"n": 2}
    rep = Report(task="c", parameters=given, checks=[])
    assert rep.parameters is given and rep.task == "c"
    c = Check("name", "pass", 1, 2, "loc")
    assert (c.name, c.status, c.expected, c.actual, c.location) == ("name", "pass", 1, 2, "loc")
    with pytest.raises(TypeError):
        Check("name", "pass", 1, 2)  # location is required


def test_render_parse_render_is_a_fixed_point():
    rep = Report("demo", {"order": F(40), "lattice": 2})
    rep.check("value", "loc", Scalar(0, F(1, 2)), Scalar(0, F(1, 2)))
    rep.check("state", "loc", State.of_term(2, 1, (3,)), State.of_term(2, 1, (3,)))
    text = render_json(rep)
    again = render_json(parse_report(text))
    assert text == again
    parsed = parse_report(text)
    assert parsed.task == "demo"
    assert parsed.parameters == {"order": F(40), "lattice": 2}
    assert isinstance(parsed.parameters["order"], F)
    assert isinstance(parsed.parameters["lattice"], int)


def test_render_json_is_json_dumps_of_the_whole_report():
    # render_json encodes check by check; the bytes are those of one dump
    empty = Report("empty")
    nested = Report("nested", {"dims": {1: [2, [3, F(1, 2)]], F(3, 2): None}, "flag": True})
    nested.check("deep", "loc", {"a": [[], {}, [1, {"b": [F(-3, 4)]}]]}, [[[]]])
    nested.check("empty containers", "loc", [], {}, ok=True)
    scalars = Report("scalars", {"order": F(40), "c": Scalar(1, F(-1, 3))})
    scalars.check("value", "loc", Scalar(0, F(1, 2)), Scalar(F(-7, 3), 5))
    scalars.check("state", "loc", State.of_term(2, 1, (3,)) * Scalar(F(1, 3), 1), State(2, {}))
    escaped = Report('quote " and \\ and tab \t', {'key "q"\n': "line\nbreak"})
    escaped.check('name with "quotes", \\ and \n a newline', 'loc\t"x"', "\u00e9 \u221e", "\u2028")
    for rep in (empty, nested, scalars, escaped):
        assert render_json(rep) == json.dumps(report_to_json(rep), indent=2) + "\n"


def test_render_text_shows_mismatches_and_skips():
    rep = Report("demo")
    rep.check("good", "loc", 5, 5)
    rep.check("bad", "loc", 5, 6)
    out = render_text(rep)
    assert "task: demo" in out
    assert "[ pass  ] good" in out
    assert "expected: 5" in out and "actual:   6" in out
    assert out.rstrip().endswith("status: fail")
    # a passing check whose encodings differ still shows both sides
    rep2 = Report("demo2")
    rep2.check("loose", "loc", "label", ["label", "other"], ok=True)
    out2 = render_text(rep2)
    assert "expected:" in out2 and "actual:" in out2
