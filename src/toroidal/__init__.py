"""Toroidal sets as symbolic towers of nested solid tori.

Computes Cech cohomology profiles, genus, stabilized Alexander polynomials
and attractor-realizability obstructions for toroidal sets, with an
independent knot-diagram engine for cross-checking invariants.
"""

__version__ = "0.1.0"
