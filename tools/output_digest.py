"""Digest the CLI outputs that a change meant to keep behaviour must leave unchanged.

Runs a fixed list of 37 spinbundles commands in process, all with
--format json, drops the timing line ("wall_ms") of verify's report, and
prints the first 16 hex digits of each output's sha256 with its command.
Run it before and after a change and compare the listings:

    python3 tools/output_digest.py > before.txt
    python3 tools/output_digest.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spinbundles import cli  # noqa: E402
from spinbundles.experiments import FAULT_TARGETS  # noqa: E402

SMALL = ["--samples", "256", "--ode-steps", "256"]
BUNDLES = ("xi-minus", "xi-plus", "br:-1", "br:0", "br:+1")
LOOPS = ("antipodal", "small-circle:0.4", "great-circle")
FIELDS = ("x3", "x1*x2", "2*x1^2*x3 - x2")
GAUGES = ("odd-linear", "odd-harmonic", "even-constant")


def commands() -> list[list[str]]:
    out = [["verify", "--seed", str(seed)] + scale for scale in ([], SMALL) for seed in range(3)]
    out += [["verify", "--fault-inject", target] + SMALL for target in sorted(FAULT_TARGETS)]
    out += [["holonomy", "--bundle", b, "--loop", loop] for b in BUNDLES for loop in LOOPS]
    out += [["experiment", "--field", f, "--chi", chi] for f in FIELDS for chi in GAUGES]
    out.append(["exchange", "--at", "0.7,1.3"])
    return [argv + ["--format", "json"] for argv in out]


def digest(argv: list[str]) -> str:
    """sha256[:16] of the exit code and the output, without its wall_ms line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    kept = [line for line in buf.getvalue().splitlines(keepends=True) if '"wall_ms"' not in line]
    return hashlib.sha256(f"{code}\n{''.join(kept)}".encode()).hexdigest()[:16]


def main() -> None:
    for argv in commands():
        print(digest(argv), shlex.join(argv))


if __name__ == "__main__":
    main()
