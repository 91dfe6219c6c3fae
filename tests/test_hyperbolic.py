import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import compose, scalar_trace_invariants
from covercount.errors import NotLoxodromic, PoleAtPoint
from covercount.hyperbolic import (ElementClass, Model, MoebiusMap, Split, adjoint_so21,
                                   apply_boundary, classify, displacement,
                                   geodesic_invariants, inverse, so21_form,
                                   trace_invariants, wrap_angle)


# Constructors, comparisons and derivatives that only the tests use.

def identity(model: Model = Model.H2) -> MoebiusMap:
    return MoebiusMap(1, 0, 0, 1, model)


def power(g: MoebiusMap, k: int) -> MoebiusMap:
    if k < 0:
        return power(inverse(g), -k)
    out = identity(g.model)
    for _ in range(k):
        out = compose(out, g)
    return out


def projectively_equal(g: MoebiusMap, h: MoebiusMap, tol: float = 1e-9) -> bool:
    """g and -g represent the same map."""
    if g.model != h.model:
        return False
    dplus = max(abs(x - y) for x, y in zip(g.entries, h.entries))
    dminus = max(abs(x + y) for x, y in zip(g.entries, h.entries))
    return min(dplus, dminus) <= tol


def boundary_derivative(g: MoebiusMap, x: complex) -> float:
    """|g'(x)| = 1/|c x + d|^2 on the boundary."""
    den = g.c * x + g.d
    if abs(den) < 1e-14 * (1.0 + abs(x)):
        raise PoleAtPoint(f"{x} is the pole of the map")
    return 1.0 / abs(den) ** 2


def translation(t: float, model: Model = Model.H2) -> MoebiusMap:
    """a_t = diag(e^{t/2}, e^{-t/2}), translation length t along the o-axis."""
    return MoebiusMap(math.exp(t / 2.0), 0, 0, math.exp(-t / 2.0), model)


def rotation(alpha: float) -> MoebiusMap:
    """Rotation by alpha about o = i in the H2 model."""
    ca, sa = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    return MoebiusMap(ca, sa, -sa, ca, Model.H2)


def to_json(g: MoebiusMap) -> dict:
    return {"model": g.model.value, "entries": [[x.real, x.imag] for x in g.entries]}


def from_json(data: dict) -> MoebiusMap:
    a, b, c, d = (complex(re, im) for re, im in data["entries"])
    return MoebiusMap(a, b, c, d, Model(data["model"]))


# The moved-point route to d(o, g o): the oracle for displacement(), which
# reads the distance off the Frobenius norm instead.

def apply_halfspace(g: MoebiusMap, z: complex, t: float) -> tuple[complex, float]:
    """Action on an interior point (z, t), t > 0; H2 points have real z."""
    cz_d = g.c * z + g.d
    den = abs(cz_d) ** 2 + abs(g.c) ** 2 * t * t
    znew = ((g.a * z + g.b) * cz_d.conjugate() + g.a * g.c.conjugate() * t * t) / den
    return znew, t / den


def point_distance(z1: complex, t1: float, z2: complex, t2: float) -> float:
    ch = 1.0 + (abs(z1 - z2) ** 2 + (t1 - t2) ** 2) / (2.0 * t1 * t2)
    return math.acosh(max(ch, 1.0))


def displacement_moved_point(g: MoebiusMap) -> float:
    """d(o, g o) via the explicit orbit point, o = (0, 1)."""
    z, t = apply_halfspace(g, 0j, 1.0)
    return point_distance(0j, 1.0, z, t)


def random_h2(rng) -> MoebiusMap:
    """Random hyperbolic-plane isometry as rot * trans * rot."""
    g = compose(rotation(rng.uniform(0, 2 * math.pi)),
                compose(translation(rng.uniform(0, 3.0)),
                        rotation(rng.uniform(0, 2 * math.pi))))
    return g


def random_h3(rng) -> MoebiusMap:
    a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    if abs(a * d - b * c) < 1e-6:
        a += 1.0
    return MoebiusMap(a, b, c, d, Model.H3)


# -- construction and projective identity -----------------------------------

def test_determinant_normalized():
    g = MoebiusMap(2.0, 0.0, 0.0, 2.0)
    assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12


def test_h2_rejects_complex_entries():
    with pytest.raises(ValueError):
        MoebiusMap(1j, 0, 0, -1j, Model.H2)


def test_h2_rejects_negative_determinant():
    with pytest.raises(ValueError):
        MoebiusMap(1.0, 0.0, 0.0, -1.0, Model.H2)


@pytest.mark.parametrize("entries,model", [((math.nan, 0.0, 0.0, 1.0), Model.H2),
                                           ((math.inf, 0.0, 0.0, 1.0), Model.H2),
                                           ((1.0, complex(0.0, math.nan), 0.0, 1.0), Model.H3)],
                         ids=["nan", "inf", "h3-nan"])
def test_non_finite_entries_rejected(entries, model):
    # these used to normalize to all-NaN entries, which classify called loxodromic
    with pytest.raises(ValueError, match="finite"):
        MoebiusMap(*entries, model)
    MoebiusMap(*entries, model, normalize=False)  # the internal compositions skip the check


def test_projective_equality():
    g = MoebiusMap(2.0, 1.0, 1.0, 1.0)
    neg = MoebiusMap(-2.0, -1.0, -1.0, -1.0, Model.H2, normalize=False)
    assert projectively_equal(g, neg)
    assert not projectively_equal(g, identity())


def test_serialization_roundtrip():
    g = MoebiusMap(1.5, 0.25, 1.0, 1.0)
    back = from_json(to_json(g))
    assert projectively_equal(g, back, tol=1e-14)
    h = MoebiusMap(1 + 1j, 0.5j, 0.25, 1.0, Model.H3)
    assert projectively_equal(h, from_json(to_json(h)), tol=1e-14)


# -- compose -----------------------------------------------------------------

def test_compose_identity():
    g = MoebiusMap(3.0, 1.0, 2.0, 1.0)
    assert projectively_equal(compose(g, identity()), g)
    assert projectively_equal(compose(identity(), g), g)


def test_compose_inverse_is_identity():
    g = MoebiusMap(3.0, 1.0, 2.0, 1.0)
    assert projectively_equal(compose(g, inverse(g)), identity())


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.5), (1.2, -2.0), (2.9, 2.9)])
def test_rotation_composition_on_boundary(alpha, beta):
    # rotations about i compose additively; compare via action on 3 points
    lhs = compose(rotation(alpha), rotation(beta))
    rhs = rotation(alpha + beta)
    for x in (0.0, 1.0, -2.5):
        assert_allclose(complex(apply_boundary(lhs, x)),
                        complex(apply_boundary(rhs, x)), atol=1e-12)


# -- displacement -------------------------------------------------------------

def test_displacement_identity_zero():
    assert displacement(identity().entries) == 0.0


@pytest.mark.parametrize("t", [0.5, 1.0, 3.7])
def test_displacement_of_translation(t):
    assert_allclose(displacement(translation(t).entries), t, atol=1e-12)


def test_displacement_symmetric_and_matches_moved_point(rng):
    for _ in range(1000):
        g = random_h2(rng)
        assert_allclose(displacement(g.entries), displacement(inverse(g).entries), atol=1e-9)
        assert_allclose(displacement(g.entries), displacement_moved_point(g), atol=1e-9)
    for _ in range(200):
        g = random_h3(rng)
        assert_allclose(displacement(g.entries), displacement(inverse(g).entries), atol=1e-9)
        assert_allclose(displacement(g.entries), displacement_moved_point(g), atol=1e-9)


def test_displacement_triangle_inequality(rng):
    for _ in range(500):
        g, h = random_h2(rng), random_h2(rng)
        gh = compose(g, h).entries
        assert displacement(gh) <= displacement(g.entries) + displacement(h.entries) + 1e-9


# -- classification -----------------------------------------------------------

def test_classify_identity():
    assert classify(identity()) == ElementClass.IDENTITY


def test_classify_parabolic_tolerance():
    # trace barely above 2 stays parabolic within the contract tolerance
    g = MoebiusMap(1.0, 1e-13, 0.0, 1.0)
    g2 = MoebiusMap(1.00000000000005, 1.0, 0.0, 1.0 / 1.00000000000005)
    assert classify(g) in (ElementClass.IDENTITY, ElementClass.PARABOLIC)
    assert classify(g2) == ElementClass.PARABOLIC
    assert classify(MoebiusMap(1.0, 1.0, 0.0, 1.0)) == ElementClass.PARABOLIC


def test_classify_elliptic_and_hyperbolic():
    assert classify(rotation(1.0)) == ElementClass.ELLIPTIC
    assert classify(translation(1.0)) == ElementClass.LOXODROMIC


def test_schottky_generators_are_loxodromic(group_b, group_d0):
    for g in group_b.generators + group_d0.generators:
        assert classify(g) == ElementClass.LOXODROMIC


# -- geodesic invariants --------------------------------------------------------

def test_invariants_of_translation():
    length, holonomy = geodesic_invariants(translation(1.0))
    assert_allclose(length, 1.0, atol=1e-12)
    assert holonomy == 0.0


def test_invariants_of_loxodromic_diagonal():
    lam = np.exp((1.0 + 1j * math.pi / 3) / 2)
    g = MoebiusMap(lam, 0, 0, 1 / lam, Model.H3)
    length, holonomy = geodesic_invariants(g)
    assert_allclose(length, 1.0, atol=1e-12)
    assert_allclose(holonomy, math.pi / 3, atol=1e-12)


def test_invariants_conjugation_invariant(rng):
    g = translation(1.3)
    for _ in range(100):
        h = random_h2(rng)
        conj = compose(compose(h, g), inverse(h))
        assert_allclose(geodesic_invariants(conj)[0], 1.3, atol=1e-9)


def test_invariants_power_law(rng):
    for _ in range(20):
        g = random_h3(rng)
        if classify(g) != ElementClass.LOXODROMIC:
            continue
        length, holonomy = geodesic_invariants(g)
        for k in range(2, 6):
            length_k, holonomy_k = geodesic_invariants(power(g, k))
            assert_allclose(length_k, k * length, rtol=1e-8, atol=1e-8)
            dtheta = (holonomy_k - k * holonomy) % (2 * math.pi)
            assert min(dtheta, 2 * math.pi - dtheta) < 1e-8


def test_invariants_reject_elliptic():
    with pytest.raises(NotLoxodromic):
        geodesic_invariants(rotation(0.7))


def invariants(trs, model) -> list[tuple[float, float]]:
    """(length, holonomy) per trace from the array kernel."""
    trs = np.asarray(trs, dtype=complex)
    length, theta = trace_invariants(Split(trs.real.copy(), trs.imag.copy()), model)
    return list(zip(length.tolist(), theta.tolist()))


@pytest.mark.parametrize("R", [1e16, 1e20, 1e30])
def test_trace_invariants_of_large_traces(R):
    # past |tr| ~ 1/eps one root of lam^2 - tr lam + 1 is all cancellation and
    # can still have modulus >= 1; the multiplier is the other root
    for k in range(64):
        lam = R * cmath.exp(2j * math.pi * k / 64)
        [(length, theta)] = invariants([lam + 1 / lam], Model.H3)
        assert_allclose(length, 2 * math.log(R), rtol=1e-14)
        assert abs(wrap_angle(theta - 4 * math.pi * k / 64)) < 1e-12


@pytest.mark.parametrize("model", [Model.H2, Model.H3])
@pytest.mark.parametrize("tr", [1e160, -3e170, 1e300, 1e200 + 1e199j])
def test_trace_invariants_past_the_square_overflow(tr, model):
    # tr * tr overflows past |tr| ~ 1.3e154 (length ~ 709), which gave (inf,
    # nan) or (nan, nan); up there the multiplier is tr to the last bit
    [(length, theta)] = invariants([tr], model)
    assert length == 2 * math.log(abs(tr))
    assert math.isfinite(theta)
    if model == Model.H3:
        assert abs(wrap_angle(theta - 2 * cmath.phase(tr))) < 1e-15
    else:
        assert theta == 0.0


def test_trace_invariants_of_a_long_d0_class(group_d0):
    # 95 letters, tr = -9.7e42 - 5.6e43i: the cancelled root gave length 123.38
    m = group_d0.evaluate((1,) + (-2,) * 88 + (-1, 2, 2, -1, -2, -2))
    lam = max(np.linalg.eigvals(np.array(m.entries).reshape(2, 2)), key=abs)
    [(length, theta)] = invariants([m.trace()], Model.H3)
    assert_allclose(length, 2 * math.log(abs(lam)), rtol=1e-12)
    assert length > 200.0
    assert abs(wrap_angle(theta - 2 * cmath.phase(lam))) < 1e-9


def _kernel_cases(rng):
    """Traces where the array kernel's formula could part from the scalar one."""
    z = rng.standard_normal((2, 3000)) * np.exp(rng.uniform(-5.0, 40.0, 3000))
    y = rng.uniform(0.0, 6.0, 500)  # tr^2 - 4 with a real part of exactly 0
    x = np.sqrt(4.0 + y * y)
    on_axis = [complex(sx * a, sy * b) for a, b in zip(x, y) for sx in (1, -1) for sy in (1, -1)]
    on_axis = [t for t in on_axis if (t * t).real - 4.0 == 0.0]
    near = [np.nextafter(1e150, 0.0), 1e150, np.nextafter(1e150, math.inf)]
    return (list(z[0] + 1j * z[1])                                    # all four quadrants
            + list(z[0] + 0j) + [complex(t, -0.0) for t in z[0][:500]]  # real, both zero signs
            + on_axis
            + [2, -2, 2j, complex(2, -0.0), complex(-2, -0.0), 0, complex(-0.0, -0.0),
               1.5, -1.5, complex(-1.5, -0.0), 2 * cmath.exp(0.3j), 1.9 * cmath.exp(-2.1j),
               complex(2, 1e-310), complex(-2, -5e-324)]               # |tr| <= 2, subnormal roots
            + [complex(x, s * y) for y in (0.5, 3.0, 1e20) for s in (1, -1)
               for x in (0.0, -0.0)]                 # imaginary multipliers: holonomy exactly +-pi
            + [complex(s * t, v) for t in near for s in (1, -1) for v in (0.0, -0.0)]
            + [complex(t * math.cos(0.7), t * math.sin(0.7)) for t in near]
            + [1e160, -3e170, 1e300, 1e200 + 1e199j])                  # past the square overflow


@pytest.mark.parametrize("model", [Model.H2, Model.H3])
def test_trace_invariants_match_the_scalar_formula(model, rng):
    # to the last bit, signs of zeros included: repr tells -0.0 from 0.0
    trs = _kernel_cases(rng)
    if model == Model.H2:
        trs = [complex(t.real, 0.0) for t in map(complex, trs)]
    got = invariants(trs, model)
    assert len(got) > 7000
    assert [repr(x) for x in got] == [repr(scalar_trace_invariants(complex(t), model))
                                      for t in trs]


# -- boundary derivative ---------------------------------------------------------

def test_boundary_derivative_identity():
    for x in (0.0, 2.0, -5.0):
        assert boundary_derivative(identity(), x) == 1.0


def test_boundary_derivative_pole():
    g = MoebiusMap(0.0, 1.0, -1.0, 0.0)  # z -> -1/z
    with pytest.raises(PoleAtPoint):
        boundary_derivative(g, 0.0)


def test_boundary_derivative_chain_rule(rng):
    for _ in range(200):
        g, h = random_h2(rng), random_h2(rng)
        x = rng.uniform(-3, 3)
        lhs = boundary_derivative(compose(g, h), x)
        rhs = boundary_derivative(g, apply_boundary(h, x)) * boundary_derivative(h, x)
        assert_allclose(lhs, rhs, rtol=1e-12)


def test_boundary_derivative_finite_difference_oracle():
    g = translation(1.0)  # diag(e^{1/2}, e^{-1/2})
    eps = 1e-6
    fd = abs(apply_boundary(g, eps) - apply_boundary(g, 0.0)) / eps
    assert_allclose(boundary_derivative(g, 0.0), fd, rtol=1e-4)
    assert_allclose(boundary_derivative(g, 0.0), math.e, rtol=1e-12)


# -- adjoint representation ----------------------------------------------------

def test_adjoint_identity():
    assert_allclose(adjoint_so21(identity().entries), np.eye(3), atol=1e-14)


def test_adjoint_preserves_form(rng):
    for _ in range(100):
        g = random_h2(rng)
        v = rng.normal(size=3)
        assert_allclose(so21_form(v @ adjoint_so21(g.entries)), so21_form(v),
                        rtol=1e-10, atol=1e-10)


def test_adjoint_homomorphism(rng):
    for _ in range(100):
        g, h = random_h2(rng), random_h2(rng)
        assert_allclose(adjoint_so21(compose(g, h).entries),
                        adjoint_so21(g.entries) @ adjoint_so21(h.entries), rtol=1e-9, atol=1e-9)


@given(st.floats(0.1, 3.0), st.floats(0.0, 6.28))
@settings(max_examples=50, deadline=None)
def test_adjoint_projective(t, a):
    g = compose(rotation(a), translation(t))
    neg = MoebiusMap(-g.a, -g.b, -g.c, -g.d, Model.H2, normalize=False)
    assert_allclose(adjoint_so21(g.entries), adjoint_so21(neg.entries), atol=1e-12)
