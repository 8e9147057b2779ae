#!/usr/bin/env python3
"""Run every CLI command on every checked-in scenario, in both formats.

    PYTHONPATH=src python scripts/cli_golden.py --out DIR

Each run writes into DIR/<scenario>/<command>-<format>/. Its exit code
and its stdout and stderr, with the output directory replaced by
"<out>", go to DIR/runs.txt, one block per run. Two trees made from two
versions of the package compare with `diff -r`: a change that does not
touch the numerics must leave every file byte-identical.
"""

import argparse
import contextlib
import io
from pathlib import Path

from ioncrystal.cli import _COMMANDS, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FORMATS = ("csv", "record")


def run_all(out: Path) -> list[str]:
    """Run every command x scenario x format under out; return the run log."""
    log = []
    for scenario in sorted(SCENARIOS.glob("*.yaml")):
        for command in _COMMANDS:
            for fmt in FORMATS:
                target = out / scenario.stem / f"{command}-{fmt}"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = main([command, "--scenario", str(scenario),
                                 "--out", str(target), "--format", fmt])
                text = (stdout.getvalue() + stderr.getvalue()).replace(str(target), "<out>")
                log.append(f"{scenario.stem} {command} {fmt}: exit {code}\n{text}")
    return log


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    log = run_all(args.out)
    (args.out / "runs.txt").write_text("".join(log))
    print(f"{len(log)} runs -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_cli())
