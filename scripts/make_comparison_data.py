#!/usr/bin/env python3
"""Regenerate the tail-bound comparison CSVs for the two skewed benchmark shapes.

Writes the tables of betatails._verify.PAPER_TABLES, beta_2_98.csv
(deviations 0..0.05) and beta_2_998.csv (0..0.005),
each with columns epsilon,exact,bernstein,subgaussian,chernoff. Output is
byte-for-byte reproducible, and the sha256 of each CSV is printed after it
is written: these are the digests tests/test_cli.py pins for the two tables.
Plot with any CSV-aware tool, e.g.:

    python scripts/make_comparison_data.py results/
"""

import hashlib
import sys
from pathlib import Path

from betatails._verify import PAPER_TABLES
from betatails.cli import main

JOBS = [
    (str(alpha), str(beta), f"0:{stop}:100", f"beta_{alpha}_{beta}.csv")
    for alpha, beta, stop in PAPER_TABLES
]


def run(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    for alpha, beta, grid, name in JOBS:
        out = out_dir / name
        rc = main([
            "compare", "--alpha", alpha, "--beta", beta,
            "--grid", grid, "--out", str(out),
        ])
        if rc != 0:
            return rc
        print(f"sha256 {hashlib.sha256(out.read_bytes()).hexdigest()}  {out}")
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    sys.exit(run(target))
