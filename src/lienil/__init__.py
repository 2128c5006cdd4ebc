"""Exact computations around Lie nilpotency of modular group algebras.

The package computes, for a finite p-group given by a polycyclic
presentation: the Jennings/Lie dimension subgroup chain, the d-sequence,
and the upper Lie nilpotency index of F_p[G]; cross-checks them against a
brute-force Lie power oracle on the group algebra; and evaluates the
executable condition table for the index value 10p-8 on the group.

The package root imports only pcgroup, so importing lienil.oracle does
not import the Jennings route (lienil.dimension and lienil.subgroups).
"""

from lienil.pcgroup import PcGroup, parse_presentation

__all__ = [
    "PcGroup",
    "parse_presentation",
]
