"""Anharmonic energy spectrum of the effective model without dissipation.

For n photons the dressed pair |n, g> / |n-1, e> forms a closed two-level
block; its exact eigenvalues control where multi-photon resonances sit and
therefore where the blockade can be strong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import EffectiveParams


@dataclass(frozen=True)
class EnergyPair:
    """Eigenenergies of the n-photon dressed doublet, eps_plus >= eps_minus."""

    n: int
    eps_plus: float
    eps_minus: float

    @property
    def splitting(self) -> float:
        return self.eps_plus - self.eps_minus


def eigenenergies(eff: EffectiveParams, n: int) -> EnergyPair:
    """Exact eigenvalues of the {|n, g>, |n-1, e>} block.

    Uses only the dispersive (real) parts of ``eff``, through Re M =
    delta_c - G; dissipation does not enter the level positions.
    """
    if n < 1:
        raise ValueError(f"photon number n must be >= 1, got {n}")
    shift = eff.M.real
    mean = 0.5 * ((2 * n - 1) * shift + (n - 1) * eff.G + eff.delta_e)
    gap = (n - 1) * eff.G - shift + eff.delta_e
    half = 0.5 * math.sqrt(4.0 * n * eff.J * eff.J + gap * gap)
    return EnergyPair(n=n, eps_plus=mean + half, eps_minus=mean - half)


def anharmonicity(eff: EffectiveParams) -> float:
    """Deviation of the two-photon lower branch from twice the one-photon one.

    Zero for a harmonic ladder; a large value means climbing past one photon
    is energetically blocked.
    """
    return eigenenergies(eff, 2).eps_minus - 2.0 * eigenenergies(eff, 1).eps_minus


__all__ = ["EnergyPair", "anharmonicity", "eigenenergies"]
