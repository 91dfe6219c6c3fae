"""Numerical thermodynamic formalism for Schottky groups and their Z^d covers:
critical exponents, pressure surfaces, spectral-gap scans, and counting
censuses checked against brute-force enumeration."""

__version__ = "0.1.0"

from .hyperbolic import (ElementClass, GeodesicInvariants, MoebiusMap, Model,
                         classify, compose, displacement, geodesic_invariants)
from .schottky import (Disk, GeodesicRecord, OrbitRecord, SchottkyGroup,
                       enumerate_orbit, primitive_classes)
from .shift import MarkovShift, ParryChain, from_schottky, parry_chain
from .transfer import (OperatorSpec, PressureSurface, SpectralResult,
                       critical_exponent, leading_eigenvalue, pressure,
                       pressure_surface, spectral_at_delta, spectral_radius_scan)
from .census import (CensusReport, fit_growth, geodesics_by_homology,
                     holonomy_equidistribution, orbit_by_homology, vector_orbit)
