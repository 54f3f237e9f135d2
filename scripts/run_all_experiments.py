#!/usr/bin/env python3
"""Run every CLI experiment family into one output tree.

Usage: python scripts/run_all_experiments.py [--out OUTDIR] [--config CONFIG]

Exit status is the worst exit code over the subcommands, so a tolerance
breach anywhere surfaces as a nonzero status here too.
"""
from __future__ import annotations

import argparse
import os
import sys

from carrollsch import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--config", default=None)
    args = parser.parse_args()

    worst = 0
    for sub in sorted(cli.COMMANDS):
        argv = [sub, "--out", os.path.join(args.out, sub)]
        if args.config:
            argv += ["--config", args.config]
        code = cli.main(argv)
        print(f"{sub:12s} exit {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
