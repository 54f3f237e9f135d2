"""Physical constants record.

Natural units hbar = m = c = 1 are the library default; every formula keeps
the symbols so that a non-trivial record can be threaded through unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.hbar, self.m, self.c)):
            raise ValueError("hbar, m, c must all be finite and strictly positive")

    @property
    def beta(self) -> float:
        """Dispersion coefficient hbar / (2 m c^3) of the x-evolution."""
        return self.hbar / (2.0 * self.m * self.c**3)

    @property
    def mc3(self) -> float:
        return self.m * self.c**3


NATURAL = PhysicalConstants()
