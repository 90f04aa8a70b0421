"""Run every pinned report of the table and check its digest and peak memory.

    python tests/run_pinned_reports.py

The table is `pinned_reports.txt` beside this script; its header states the
row format.  Each row runs once, as a fresh process `python FLAGS -m
voaplus.cli ARGV` on this checkout's `src`, which writes the report to a new
directory under $RUNNER_TEMP (the system temporary directory when that is
unset).  The script compares the report's sha256 with the row's and, where
the row sets a limit, compares the process's peak RSS with it; the peak is
the one `os.wait4` reports for that process alone.  Exit code 0 means every
row matched, 1 that some row did not (each is named), and 2 that the table
is unreadable, malformed or empty.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("pinned_reports.txt")
SRC = Path(__file__).resolve().parent.parent / "src"
FLAGS = {"-": (), "-S": ("-S",), "-X dev -W error": ("-X", "dev", "-W", "error")}


def read_table(path) -> dict:
    """{line number: (sha256, limit in MiB or None, flags, argv)} over the
    rows of the table, skipping blank and `#` lines.  An unreadable file
    raises OSError; a malformed row, named by its line, or an empty table
    raises ValueError."""
    rows = {}
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split("|")]
        if len(fields) != 4 or fields[2] not in FLAGS or not fields[3]:
            raise ValueError(f"{path}:{n}: not a row 'sha256 | limit | flags | argv': {line!r}")
        digest, limit, flags, argv = fields
        try:
            rows[n] = (digest, None if limit == "-" else float(limit), flags, argv.split())
        except ValueError:
            raise ValueError(f"{path}:{n}: the limit is neither '-' nor a number: {limit!r}") from None
    if not rows:
        raise ValueError(f"{path}: the table has no rows")
    return rows


def run_row(n: int, row: tuple, out_dir: str) -> bool:
    """Run the row at line n of the table once and print its outcome; True
    when the report's digest, exit code and peak RSS all hold."""
    digest, limit, flags, argv = row
    command = [sys.executable, *FLAGS[flags], "-m", "voaplus.cli", *argv]
    out = Path(out_dir) / f"line-{n}"
    with open(out, "wb") as fh:
        child = subprocess.Popen(command, stdout=fh, env=dict(os.environ, PYTHONPATH=str(SRC)))
        _, status, usage = os.wait4(child.pid, 0)
    # reaped here, so Popen must not wait for it again
    code = child.returncode = os.waitstatus_to_exitcode(status)
    mib = usage.ru_maxrss / 1024  # KiB on Linux
    actual = hashlib.sha256(out.read_bytes()).hexdigest()
    faults = []
    if code:
        faults.append(f"exit code {code}")
    if actual != digest:
        faults.append(f"sha256 {actual}, pinned {digest}")
    if limit is not None and mib > limit:
        faults.append(f"peak {mib:.1f} MiB above its limit of {limit:g} MiB")
    bound = "" if limit is None else f", limit {limit:g} MiB"
    print(
        f"{'FAIL' if faults else 'ok'} line {n}: python {' '.join(command[1:])}"
        f" (peak {mib:.1f} MiB{bound})" + "".join(f"\n    {fault}" for fault in faults),
        flush=True,
    )
    return not faults


def main() -> int:
    try:
        rows = read_table(TABLE)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = tempfile.mkdtemp(prefix="pinned-reports-", dir=os.environ.get("RUNNER_TEMP") or None)
    print(f"{len(rows)} pinned reports from {TABLE}, written to {out_dir}", flush=True)
    failed = [n for n, row in rows.items() if not run_row(n, row, out_dir)]
    if failed:
        print(f"{len(failed)} of {len(rows)} pinned reports failed, at lines {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
