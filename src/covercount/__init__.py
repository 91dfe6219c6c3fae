"""Numerical thermodynamic formalism for Schottky groups and their Z^d covers:
critical exponents, pressure surfaces, spectral-gap scans, and counting
censuses checked against brute-force enumeration."""

__version__ = "0.1.0"
