"""End-to-end tests of the command-line driver."""

import hashlib
import json
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import voaplus.cli as cli
from voaplus import vertex
from voaplus.fock import State, graded_basis
from voaplus.report import Report, parse_report, render_json

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
PINNED = Path(__file__).with_name("pinned_reports.txt")
# The desk JSON report's sha256, pinned by the desk test and by the table.
DESK_JSON_SHA256 = "3c8cdd4faeaa1dd29cce60fdbd6158135f761d3ca138f2e9a872390b9c2d1acc"


def run_cli(argv):
    return cli.run(argv)


# ---------------------------------------------------------------------------
# exit code 2: unusable invocations


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["characters", "--lattice", "3"],
        ["characters", "--lattice", "0"],
        ["characters", "--lattice", "two"],
        ["characters", "--max-weight", "8", "--order", "8"],
        ["aut"],
        ["aut", "--case", "mystery"],
        ["symn", "--n", "2"],
        ["fusion", "--m", "0"],
        ["characters", "--order", "0"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    code, rep = run_cli(argv)
    assert code == 2
    assert rep is None
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (["mode-checks", "--max-weight"], cli.MODE_CHECKS_MAX_WEIGHT),
        (["aut", "--case", "theta", "--max-weight"], cli.AUT_MAX_WEIGHT),
    ],
)
def test_mode_engine_weight_ceiling_refused_exit_2(argv, ceiling, capsys):
    # the desk battery's weights stay inside the ceilings
    assert ceiling >= 6
    args = cli._build_parser().parse_args(argv + [str(ceiling)])
    assert args.max_weight == ceiling  # parsed only; running it would cost seconds
    code, rep = run_cli(argv + [str(ceiling + 1)])
    assert code == 2
    assert rep is None
    assert f"at most {ceiling}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, ceiling, body",
    [
        (["generation", "--lattice", "2", "--max-weight"], cli.GENERATION_MAX_WEIGHT, "_generation_report"),
        (["fusion", "--m", "2", "--n", "2", "--max-weight"], cli.FUSION_MAX_WEIGHT, "_fusion_report"),
        (["characters", "--order", "40", "--max-weight"], cli.CHARACTERS_MAX_WEIGHT, "_characters_report"),
    ],
)
def test_closure_span_and_character_weight_ceilings_refused_exit_2(
    argv, ceiling, body, monkeypatch, capsys
):
    # the desk battery's weights stay inside the ceilings
    assert ceiling >= 12
    args = cli._build_parser().parse_args(argv + [str(ceiling)])
    assert args.max_weight == ceiling  # parsed only; running it would cost seconds

    def refuse(*args):
        raise AssertionError("the report body ran")

    monkeypatch.setattr(cli, body, refuse)
    code, rep = run_cli(argv + [str(ceiling + 1)])
    assert code == 2
    assert rep is None
    assert f"at most {ceiling}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, ceiling, body",
    [
        (["fusion", "--n", "1", "--m"], "m", cli.FUSION_MAX_INDEX, "_fusion_report"),
        (["fusion", "--m", "1", "--n"], "n", cli.FUSION_MAX_INDEX, "_fusion_report"),
        (["cg", "--max"], "max", cli.CG_MAX, "_cg_report"),
        (["characters", "--max-weight", "8", "--order"], "order", cli.CHARACTERS_MAX_ORDER, "_characters_report"),
    ],
)
def test_fusion_label_and_cg_ceilings_refused_exit_2(argv, flag, ceiling, body, monkeypatch, capsys):
    # the desk battery's fusion labels (up to 2), cg sweep (8) and character
    # series order (40) stay inside
    assert ceiling >= {"m": 2, "n": 2, "max": 8, "order": 40}[flag]
    args = cli._build_parser().parse_args(argv + [str(ceiling)])
    assert getattr(args, flag) == ceiling  # parsed only; running it would cost seconds

    def refuse(*args):
        raise AssertionError("the report body ran")

    monkeypatch.setattr(cli, body, refuse)
    code, rep = run_cli(argv + [str(ceiling + 1)])
    assert code == 2
    assert rep is None
    assert f"at most {ceiling}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lattice, max_weight, floor",
    [(2, 3, 4), (6, 3, 4), (10, 4, 5), (12, 5, 6)],
)
def test_generation_window_below_the_heaviest_generator_refused_exit_2(
    lattice, max_weight, floor, capsys
):
    # the generators weigh 4 (u4), N/2 (the symmetric exponential) and 2 (omega)
    code, rep = run_cli(["generation", "--lattice", str(lattice), "--max-weight", str(max_weight)])
    assert code == 2
    assert rep is None
    assert f"at least {floor}" in capsys.readouterr().err


def test_generation_window_at_the_floor_runs(capsys):
    code, rep = run_cli(["generation", "--lattice", "2", "--max-weight", "4"])
    capsys.readouterr()
    assert code == 0 and rep.status == "pass"


def test_aut_n4_weight_ceiling_refused_exit_2(monkeypatch, capsys):
    # n4 has the one `aut` ceiling, and its fixed-space check receives the
    # requested weight, never a clamped one
    ceiling = cli.AUT_MAX_WEIGHT
    assert ceiling == 7
    seen = []
    monkeypatch.setattr(cli, "sym3_report", lambda rep: seen.append("sym3"))
    monkeypatch.setattr(cli, "e_fixed_check", lambda rep, w: seen.append(w))
    code, rep = run_cli(["aut", "--case", "n4", "--max-weight", str(ceiling)])
    assert code == 0
    assert rep.parameters["max-weight"] == ceiling
    assert seen == ["sym3", ceiling]
    capsys.readouterr()
    code, rep = run_cli(["aut", "--case", "n4", "--max-weight", str(ceiling + 1)])
    assert code == 2
    assert rep is None
    assert seen == ["sym3", ceiling]  # the body did not run
    assert f"at most {ceiling}" in capsys.readouterr().err


def test_torus_conjugation_sweeps_every_weight_through_the_window(monkeypatch):
    # theta t_c theta = t_{1/c} is compared on every lattice-8 basis state of
    # weight <= W, not on a fixed window below it
    weights = []
    real = cli.graded_basis

    def recorded(N, w, bound):
        if N == 8:
            weights.append(w)
        return real(N, w, bound)

    monkeypatch.setattr(cli, "graded_basis", recorded)
    monkeypatch.setattr(cli, "automorphism_rows", lambda specs, W: [[] for _ in specs])
    W = cli.AUT_MAX_WEIGHT
    rep = cli._aut_report("torus", W)
    assert sorted(set(weights)) == list(range(W + 1))
    rows = [c for c in rep.checks if c.location == "torus-conjugation"]
    assert len(rows) == 3 and all(c.status == "pass" and c.actual == 0 for c in rows)


def test_symn_size_ceiling_refused_exit_2(capsys):
    ceiling = cli.SYMN_MAX_N
    assert ceiling >= 8  # the desk battery's n
    args = cli._build_parser().parse_args(["symn", "--n", str(ceiling)])
    assert args.n == ceiling  # parsed only; the n = 12 run is pinned below
    code, rep = run_cli(["symn", "--n", str(ceiling + 1)])
    assert code == 2
    assert rep is None
    assert f"at most {ceiling}" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# exit codes 0 and 1


def test_symn_text_output(capsys):
    code, rep = run_cli(["symn", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert rep.status == "pass"
    assert out.startswith("task: symn")
    assert out.rstrip().endswith("status: pass")


def test_injected_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "telescoping_check", lambda m, k, order: False)
    code, rep = run_cli(["characters", "--max-weight", "2", "--order", "10"])
    capsys.readouterr()
    assert code == 1
    assert rep.status == "fail"
    assert len(rep.failures()) == 4  # the four telescoping rows


def test_virasoro_rows_name_their_first_defective_state(monkeypatch):
    # L(0) shifted by one on weight 2 breaks the rows with p, q or p + q zero
    real = cli.virasoro

    def broken(p, s):
        out = real(p, s)
        if p == 0 and s and s.is_homogeneous() and s.weight() == 2:
            out = out + s
        return out

    def defect(p, q, b):
        lhs = broken(p, broken(q, b)) - broken(q, broken(p, b))
        rhs = (p - q) * broken(p + q, b)
        if p + q == 0:
            rhs = rhs + b * Fraction(p**3 - p, 12)
        return lhs - rhs

    monkeypatch.setattr(cli, "virasoro", broken)
    max_weight = 2
    rep = cli._mode_checks_report(max_weight)
    rows = [c for c in rep.checks if c.location == "virasoro-relations"]
    pairs = [(p, q) for p in range(-3, 4) for q in range(p + 1, 4)]
    assert len(rows) == len(pairs)
    flat = [b for w in range(max_weight + 1) for b in graded_basis(2, w, "full")]
    failed = 0
    for (p, q), row in zip(pairs, rows):
        defects = [b for b in flat if defect(p, q, b)]
        if not defects:
            assert row.status == "pass" and row.actual == 0
            continue
        failed += 1
        assert row.status == "fail"
        assert row.actual == {
            "defects": len(defects),
            "first-defective-state": defects[0],
            "lhs-minus-rhs": defect(p, q, defects[0]),
        }
    assert 0 < failed < len(pairs)
    text = render_json(rep)  # the witness serializes
    assert '"first-defective-state"' in text


def test_virasoro_sweep_computes_each_basis_state_operator_once(monkeypatch):
    # per basis state: L(k)b for k = -5..5, then L(p)L(q)b and L(q)L(p)b for
    # each of the 21 pairs p < q
    real = cli.virasoro
    calls = []

    def counted(p, s):
        calls.append(p)
        return real(p, s)

    monkeypatch.setattr(cli, "virasoro", counted)
    rep = cli._mode_checks_report(2)
    flat = [b for w in range(3) for b in graded_basis(2, w, "full")]
    assert len(flat) == 8
    assert len(calls) == 53 * len(flat) == 424
    rows = [c for c in rep.checks if c.location == "virasoro-relations"]
    assert len(rows) == 21 and all(c.status == "pass" for c in rows)


def test_the_vacuum_module_tag_needs_membership_not_only_dims(monkeypatch):
    # a closure that drops every generator after the first gives the weight-4
    # singular vector the dims of the Virasoro vacuum module, so tagging by
    # dims alone would pass its row; membership in the closure of omega fails it
    real = cli.closure
    monkeypatch.setattr(
        cli, "closure", lambda N, gens, W, bound="full": real(N, gens[:1], W, bound)
    )
    W = 6
    (j4,) = cli.singular_vectors(2, 4, "pair+:0")
    assert cli.closure(2, [State.omega(2), j4], W, "pair+:0").dims() == cli._virasoro_dims(0, W)
    rep = cli._generation_report(2, W)
    rows = {c.name: c.status for c in rep.checks if c.location == "singular-closure"}
    assert rows == {
        "closure of the weight-0 singular vector #0": "pass",
        "closure of the weight-4 singular vector #0": "fail",
    }


def test_json_report_parses_and_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _ = run_cli(["cg", "--max", "4", "--format", "json", "--out", str(out)])
        assert code == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    rep = parse_report(b1.decode("utf-8"))
    assert rep.task == "cg"
    assert rep.status == "pass"
    assert all(c.location == "cg-parity" for c in rep.checks)


def test_seed_reorders_the_parts_of_all_but_never_its_report(monkeypatch, tmp_path, capsys):
    calls = []

    def part(name, *args):
        calls.append((name, args))
        rep = Report("part")
        rep.check(f"{name}{args}", "fake-part", True, True)
        return rep

    for name in ("_characters_report", "_mode_checks_report", "_generation_report",
                 "_fusion_report", "_cg_report", "_aut_report", "_symn_report"):
        monkeypatch.setattr(cli, name, partial(part, name))
    orders, outs = [], []
    for seed in ("1", "2"):
        calls.clear()
        out = tmp_path / f"s{seed}.json"
        code, _ = run_cli(["all", "--seed", seed, "--format", "json", "--out", str(out)])
        assert code == 0
        orders.append(list(calls))
        outs.append(out.read_bytes())
    assert len(orders[0]) == 16 and sorted(orders[0]) == sorted(orders[1])
    assert orders[0] != orders[1]
    assert outs[0] == outs[1]
    # only `all` has parts to shuffle, so no other subcommand takes a seed
    code, _ = run_cli(["characters", "--seed", "1"])
    assert code == 2
    assert "--seed" in capsys.readouterr().err


def test_the_desk_is_its_subcommand_invocations(capsys):
    # one run of the desk: its digest, each part's checks against the same
    # invocation run alone, and every benchmark part among the desk's parts
    capsys.readouterr()
    code, desk = run_cli(["all", "--format", "json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == DESK_JSON_SHA256
    rows = iter(desk.checks)
    for label, argv in cli.DESK:
        code, part = run_cli(argv.split())
        capsys.readouterr()
        assert code == 0 and part.checks
        for c in part.checks:
            d = next(rows)
            assert (d.name, d.status, d.expected, d.actual, d.location) == (
                f"{label} :: {c.name}", c.status, c.expected, c.actual, c.location
            )
    assert next(rows, None) is None
    workloads = runpy.run_path(str(REFERENCE.parent / "workloads.py"))["WORKLOADS"]
    desk_argv = {argv for _, argv in cli.DESK}
    assert {" ".join(part) for parts in workloads.values() for part in parts} <= desk_argv


def test_the_pinned_report_table_is_well_formed():
    # parses the table only: its reports run through run_pinned_reports.py
    read_table = runpy.run_path(str(PINNED.with_name("run_pinned_reports.py")))["read_table"]
    rows = list(read_table(PINNED).values())
    assert len(rows) >= 33
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _, _, _ in rows)
    runs = [(flags, " ".join(argv)) for _, _, flags, argv in rows]
    assert len(set(runs)) == len(runs)
    assert {flags for flags, _ in runs} <= {"-", "-S", "-X dev -W error"}
    parser = cli._build_parser()
    for _, _, _, argv in rows:
        parser.parse_args(argv)  # a refused argv raises cli._UsageError
    limits = {" ".join(argv): limit for _, limit, _, argv in rows if limit is not None}
    assert limits == {
        "aut --case theta --max-weight 7 --format json": 48,
        "aut --case torus --max-weight 7 --format json": 26,
        "mode-checks --max-weight 12 --format json": 34,
        "cg --max 64 --format json": 60,
    }
    desk_json = {digest for digest, _, _, argv in rows if argv[0] == "all" and argv[-1] == "json"}
    assert desk_json == {DESK_JSON_SHA256}


@pytest.mark.parametrize(
    "text, error",
    [
        ("", ValueError),
        ("# a comment only\n\n", ValueError),
        ("abc | - | -\n", ValueError),
        ("abc | - | -O | symn --n 3\n", ValueError),
        ("abc | lots | - | symn --n 3\n", ValueError),
        (None, OSError),
    ],
    ids=["empty", "comments-only", "three-fields", "unknown-flags", "bad-limit", "missing"],
)
def test_an_unusable_pinned_report_table_raises(tmp_path, text, error):
    # the runner exits 2 on exactly these errors of read_table
    read_table = runpy.run_path(str(PINNED.with_name("run_pinned_reports.py")))["read_table"]
    table = tmp_path / "table.txt"
    if text is not None:
        table.write_text(text, encoding="utf-8")
    with pytest.raises(error):
        read_table(table)


def test_out_failure_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, rep = run_cli(["symn", "--n", "3", "--out", str(target)])
    assert code == 2
    assert rep is not None  # the run completed; only the write failed
    assert "error:" in capsys.readouterr().err


def test_generation_subcommand_is_deterministic(tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        code, rep = run_cli(
            ["generation", "--lattice", "6", "--max-weight", "8",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        assert rep.status == "pass"
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["characters", "--lattice", "4", "--max-weight", "8", "--order", "40"],
        ["symn", "--n", "8"],
        ["aut", "--case", "n4", "--max-weight", "6"],
        ["aut", "--case", "theta", "--max-weight", "5"],
        ["aut", "--case", "torus", "--max-weight", "5"],
        ["cg", "--max", "8"],
        ["fusion", "--m", "2", "--n", "1", "--max-weight", "8"],
        ["generation", "--lattice", "6", "--max-weight", "8"],
    ],
    ids=" ".join,
)
def test_reports_match_the_committed_reference_digests(argv, capsys):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    capsys.readouterr()
    code, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == reference[" ".join(argv)]


def test_symn_n_12_report_matches_its_digest(capsys):
    capsys.readouterr()
    code, _ = run_cli(["symn", "--n", "12", "--format", "json"])
    assert code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "fbaa103fed20af1758ac6af2453a757a509c636d9227ced2d70702b0cf62d99c"


def test_mode_table_lives_for_one_invocation(capsys):
    fusion = ["fusion", "--m", "1", "--n", "1", "--max-weight", "4"]
    run_cli(fusion)
    fresh = len(vertex._MODE_CACHE)
    run_cli(["mode-checks", "--max-weight", "2"])
    assert vertex._MODE_CACHE
    run_cli(fusion)
    assert len(vertex._MODE_CACHE) == fresh


def test_every_part_of_all_starts_with_an_empty_mode_table(monkeypatch, capsys):
    monkeypatch.setattr(vertex, "_MODE_CACHE", {})  # the fake parts' entries stay here
    sizes = []

    def part(*args):
        sizes.append(len(vertex._MODE_CACHE))
        vertex._MODE_CACHE[("part", len(sizes))] = {}
        return Report("part")

    for name in ("_characters_report", "_mode_checks_report", "_generation_report",
                 "_fusion_report", "_cg_report", "_aut_report", "_symn_report"):
        monkeypatch.setattr(cli, name, part)
    code, _ = run_cli(["all", "--seed", "5"])
    assert code == 0
    assert len(sizes) == 16 and set(sizes) == {0}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "voaplus.cli", "symn", "--n", "3", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["status"] == "pass"
    proc2 = subprocess.run(
        [sys.executable, "-m", "voaplus.cli", "symn", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 2


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # together these took about half of the start-up of a short run
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import voaplus.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
