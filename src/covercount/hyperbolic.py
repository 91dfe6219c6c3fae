"""Moebius-transformation geometry on the upper half plane H2 and half space H3.

Maps are unimodular 2x2 matrices over R (H2) or C (H3), identified
projectively with their negatives.  The base point is o = i in H2 and
o = j = (0, 1) in H3; all displacement values refer to it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import InitVar, dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NotLoxodromic, PoleAtPoint

DET_TOL = 1e-12
CLASSIFY_TOL = 1e-10


class Model(str, Enum):
    H2 = "H2"  # upper half plane, real matrices
    H3 = "H3"  # upper half space, complex matrices


class ElementClass(str, Enum):
    IDENTITY = "Identity"
    ELLIPTIC = "Elliptic"
    PARABOLIC = "Parabolic"
    LOXODROMIC = "HyperbolicOrLoxodromic"


@dataclass(frozen=True)
class MoebiusMap:
    """Unimodular Moebius map; entries normalized to det = 1 on construction.

    Products of unimodular maps are unimodular by construction, and for large
    words recomputing ad - bc cancels catastrophically, so internal
    compositions pass normalize=False and keep the raw product entries.
    """

    a: complex
    b: complex
    c: complex
    d: complex
    model: Model = Model.H2
    normalize: InitVar[bool] = True

    def __post_init__(self, normalize: bool = True):
        a, b, c, d = (complex(self.a), complex(self.b),
                      complex(self.c), complex(self.d))
        if self.model == Model.H2:
            if max(abs(a.imag), abs(b.imag), abs(c.imag), abs(d.imag)) > DET_TOL:
                raise ValueError("H2 maps require real entries")
        if normalize:
            if not all(map(cmath.isfinite, (a, b, c, d))):
                raise ValueError("map entries must be finite")
            det = a * d - b * c
            if abs(det) < DET_TOL:
                raise ValueError("matrix is singular")
            if self.model == Model.H2 and det.real <= 0:
                raise ValueError("H2 maps require positive determinant")
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @property
    def entries(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def trace(self) -> complex:
        return self.a + self.d


def mat_mul(m, n) -> tuple[complex, complex, complex, complex]:
    """Product m @ n of 2x2 matrices given as raw (a, b, c, d) of complex or Split."""
    a, b, c, d = m
    na, nb, nc, nd = n
    return (a * na + b * nc, a * nb + b * nd,
            c * na + d * nc, c * nb + d * nd)


class Split(NamedTuple):
    """Complex arrays as float pairs, combined elementwise in CPython 3.11's
    order for one complex: mat_mul, frob2 and trace_invariants over them keep
    the bits of one complex at a time, numpy's complex does not."""

    real: np.ndarray
    imag: np.ndarray

    def __mul__(self, o):
        return Split(self.real * o.real - self.imag * o.imag,
                     self.real * o.imag + self.imag * o.real)

    def __add__(self, o):
        return Split(self.real + o.real, self.imag + o.imag)

    def __sub__(self, o):
        return Split(self.real - o.real, self.imag - o.imag)

    def __truediv__(self, x: float):  # as CPython 3.11 divides by x + 0j
        ratio = 0.0 / x
        return Split((self.real + self.imag * ratio) / x, (self.imag - self.real * ratio) / x)

    def __abs__(self):
        return np.hypot(self.real, self.imag)  # C hypot, as complex.__abs__


def inverse(g: MoebiusMap) -> MoebiusMap:
    return MoebiusMap(g.d, -g.b, -g.c, g.a, g.model, normalize=False)


def apply_boundary(g: MoebiusMap, x: complex) -> complex:
    """Action on the boundary (R for H2, C for H3).  Raises at the pole."""
    den = g.c * x + g.d
    if abs(den) < 1e-14 * (1.0 + abs(x)):
        raise PoleAtPoint(f"{x} is the pole of the map")
    return (g.a * x + g.b) / den


def frob2(m) -> float:
    """||m||_F^2 of raw (a, b, c, d) entries, as re*re + im*im per entry
    (bit-equal to abs(x) ** 2 for the real entries of H2)."""
    a, b, c, d = m
    return (a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
            + c.real * c.real + c.imag * c.imag + d.real * d.real + d.imag * d.imag)


def displacement(m) -> float:
    """Hyperbolic distance d(o, g o) of the map g with raw (a, b, c, d) entries m.

    Equal to acosh(||g||_F^2 / 2); the Frobenius norm is invariant under the
    stabilizer of o on both sides, so this matches the moved-point formula.
    """
    return math.acosh(max(frob2(m) / 2.0, 1.0))


def classify(g: MoebiusMap) -> ElementClass:
    if max(abs(g.b), abs(g.c), abs(g.a - g.d)) <= CLASSIFY_TOL:
        return ElementClass.IDENTITY
    tr2 = g.trace() ** 2
    if abs(tr2 - 4.0) <= CLASSIFY_TOL:
        return ElementClass.PARABOLIC
    if abs(tr2.imag) <= CLASSIFY_TOL and -CLASSIFY_TOL < tr2.real < 4.0:
        return ElementClass.ELLIPTIC
    return ElementClass.LOXODROMIC


def wrap_angle(theta):
    """theta reduced to (-pi, pi], elementwise."""
    out = np.fmod(theta, 2.0 * math.pi)  # exact, as math.fmod
    return np.where(out > math.pi, out - 2.0 * math.pi,
                    np.where(out <= -math.pi, out + 2.0 * math.pi, out))


def _csqrt(z: Split) -> Split:
    """Elementwise cmath.sqrt of finite z, by CPython's c_sqrt formula
    (np.sqrt of a complex rounds differently where the real part is 0)."""
    ax, ay = np.abs(z.real), np.abs(z.imag)
    tiny = (ax < np.finfo(float).tiny) & (ay < np.finfo(float).tiny)  # hypot is subnormal
    big = 2.0 * np.sqrt(ax / 8.0 + np.hypot(ax / 8.0, ay / 8.0))
    ax = np.ldexp(ax, 53)
    s = np.where(tiny, np.ldexp(np.sqrt(ax + np.hypot(ax, np.ldexp(ay, 53))), -27), big)
    d = ay / (2.0 * s)
    up = z.real >= 0.0
    zero = (z.real == 0.0) & (z.imag == 0.0)
    return Split(np.where(zero, 0.0, np.where(up, s, d)),
                 np.where(zero, z.imag, np.copysign(np.where(up, d, s), z.imag)))


def trace_invariants(tr: Split, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """(length, holonomy) arrays solving tr = +-2 cosh((l + i theta)/2) for
    det-1 matrices with finite traces tr; theta = 0 in the H2 model.  The
    multiplier is the root of larger modulus (past |tr| ~ 1/eps the other is
    all cancellation), and tr itself past |tr| = 1e150, where tr * tr nears
    overflow and 1/lam in tr = lam + 1/lam is below rounding.  Non-loxodromic
    traces give length 0.  Every bit is that of the scalar cmath formula:
    the log and the phase are taken per element by math, as numpy's differ."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = tr * tr
        disc = _csqrt(Split(sq.real - 4.0, sq.imag))  # tr * tr - 4.0 subtracts 4 + 0j
        plus, minus = (tr + disc) / 2.0, (tr - disc) / 2.0
        far, low = abs(tr) > 1e150, abs(minus) > abs(plus)  # max(plus, minus, key=abs)
    lam = Split(*(np.where(far, t, np.where(low, m, p)) for t, m, p in zip(tr, minus, plus)))
    length = 2.0 * np.array([math.log(x) for x in np.maximum(abs(lam), 1.0).tolist()])
    if model == Model.H2:
        return length, np.zeros_like(length)
    phase = [math.atan2(y, x) for x, y in zip(lam.real.tolist(), lam.imag.tolist())]
    return length, wrap_angle(2.0 * np.array(phase))


def geodesic_invariants(g: MoebiusMap) -> tuple[float, float]:
    """(length, holonomy) of a loxodromic map (see trace_invariants)."""
    if classify(g) != ElementClass.LOXODROMIC:
        raise NotLoxodromic(f"element classifies as {classify(g).value}")
    tr = g.trace()
    length, theta = trace_invariants(Split(np.array([tr.real]), np.array([tr.imag])), g.model)
    return float(length[0]), float(theta[0])


def fixed_points(g: MoebiusMap) -> tuple[complex, complex]:
    """(attracting, repelling) boundary fixed points of a loxodromic map."""
    if classify(g) != ElementClass.LOXODROMIC:
        raise NotLoxodromic("fixed points on the boundary require a loxodromic map")
    if abs(g.c) < 1e-14:
        # one fixed point at infinity; the finite one solves (d-a)z = b
        zfin = g.b / (g.a - g.d)
        if abs(g.a) > abs(g.d):
            return complex("inf"), zfin
        return zfin, complex("inf")
    # roots of c z^2 + (d - a) z - b, with the cancellation-free split
    beta = g.d - g.a
    disc = cmath.sqrt(beta * beta + 4.0 * g.b * g.c)
    if abs(beta - disc) > abs(beta + disc):
        q = -0.5 * (beta - disc)
    else:
        q = -0.5 * (beta + disc)
    z1 = q / g.c
    z2 = -g.b / q if abs(q) > 0 else (g.a - g.d - (z1 * g.c)) / g.c
    if abs(g.c * z1 + g.d) >= 1.0:
        return z1, z2
    return z2, z1


# Adjoint representation into SO(2,1): row vectors (A, B, C) are binary
# quadratic forms A x^2 + B xy + C y^2; precomposition with g acts on the
# right and preserves the discriminant, a signature (2,1) form.


def adjoint_so21(m) -> np.ndarray:
    """The SO(2,1) matrix of the H2 map with raw (a, b, c, d) entries m."""
    a, b, c, d = (x.real for x in m)
    return np.array(
        [
            [a * a, 2 * a * b, b * b],
            [a * c, a * d + b * c, b * d],
            [c * c, 2 * c * d, d * d],
        ]
    )


def so21_form(v) -> float:
    """Q(v) = v1^2 - 4 v0 v2, the discriminant preserved by v -> v @ adjoint."""
    return float(v[1] * v[1] - 4.0 * v[0] * v[2])
