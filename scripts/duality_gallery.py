#!/usr/bin/env python3
"""Duality-map gallery: build the reparametrization for each static target.

For every target potential the script constructs the map, evaluates the three
diagnostic residuals (Schwarzian identity, potential roundtrip, inverse-
function identity) and writes one summary row per target.
"""
from __future__ import annotations

import argparse
import os

from carrollsch import (
    inverse_tau,
    inversion_identity_residual,
    roundtrip_residual,
    schwarzian_residual,
)
from carrollsch.cli import _duality_target, _resolve, write_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out")
    parser.add_argument("--E0", type=float, default=1.0)
    parser.add_argument("--n", type=int, default=2048)
    args = parser.parse_args()

    rows = []
    for target in ("free", "constant", "harmonic", "coulomb-like"):
        # the CLI's target table, with its default parameters
        block = _resolve({"duality": {"target": target}}, "duality")
        v, x_range = _duality_target(block)
        dmap = inverse_tau(v, block["E_sch"], args.E0, x_range, n=args.n)
        row = (
            target,
            dmap.x[0],
            dmap.x[-1],
            schwarzian_residual(dmap),
            roundtrip_residual(dmap, v),
            inversion_identity_residual(dmap),
        )
        rows.append(row)
        print(f"{target:12s} schwarzian {row[3]:.3e}  roundtrip {row[4]:.3e}  inversion {row[5]:.3e}")

    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "duality_gallery.csv"),
        [
            "target",
            "x_lo",
            "x_hi",
            "schwarzian_residual",
            "roundtrip_residual",
            "inversion_identity_residual",
        ],
        rows,
    )


if __name__ == "__main__":
    main()
