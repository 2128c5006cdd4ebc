"""Exact computations around Lie nilpotency of modular group algebras.

The package computes, for a finite p-group given by a polycyclic
presentation: the Jennings/Lie dimension subgroup chain, the d-sequence,
and the upper Lie nilpotency index of F_p[G]; cross-checks them against a
brute-force Lie power oracle on the group algebra; and evaluates the
executable condition table for the index value 10p-8 on the group.
"""

from lienil.pcgroup import PcGroup, parse_presentation
from lienil.dimension import d_sequence, jennings_index, upper_index

__all__ = [
    "PcGroup",
    "parse_presentation",
    "d_sequence",
    "jennings_index",
    "upper_index",
]
