import dataclasses
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from numpy.testing import assert_allclose
from scipy.fft import dct
from scipy.optimize import brentq
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from covercount import schottky as sk
from covercount import shift as sh
from covercount import transfer as tr
from covercount.errors import (DiscretizationUnstable, HessianNotPD, HolonomyUnavailable,
                               NotConverged, ValidationError)
from covercount.groupfile import load_any, load_group
from covercount.shift import MarkovShift, from_schottky
from covercount.transfer import (OperatorSpec, build_matrix, critical_exponent,
                                 leading_eigenvalue, pressure, pressure_surface,
                                 spectral_at_delta, spectral_radius_scan)

from conftest import toy_full_shift


@pytest.fixture(scope="module")
def toy2_spec():
    return OperatorSpec(toy_full_shift(2, 1.0, [[1], [-1]]))


# -- exact toy operators -------------------------------------------------------

def test_apply_toy_constant_eigenfunction(toy2_spec):
    out = build_matrix(toy2_spec, math.log(2.0)) @ np.ones(2)
    assert_allclose(out, np.ones(2), atol=1e-14)


def test_apply_toy_twisted_constant(toy2_spec):
    s, v = 0.4, 0.9
    out = build_matrix(toy2_spec, s, [v]) @ np.ones(2)
    expected = math.exp(-s) * 2.0 * math.cos(v)
    # L 1 (x) = e^{-s} (e^{iv} + e^{-iv}) independent of x
    assert_allclose(out, np.full(2, expected, dtype=complex), atol=1e-12)


def _twisted_lam(spec, s, v=None, p=0):
    """The certified dominant eigenvalue of L_{s,v,p}: _certified's batch of one,
    as the scan solves a twist that does not scale M's columns."""
    return tr._certified(spec, s, v, p)[1][0][0]


def test_leading_eigenvalue_toy_closed_form(toy2_spec):
    for s in (0.2, 0.7, 1.3):
        r = leading_eigenvalue(toy2_spec, s)
        assert_allclose(r.lam, 2.0 * math.exp(-s), rtol=1e-12)
        lam2 = _twisted_lam(toy2_spec, s, [0.6])
        assert_allclose(abs(lam2), abs(2.0 * math.exp(-s) * math.cos(0.6)), rtol=1e-10)


def test_eigenvalue_conjugation_symmetry(toy2_spec):
    s = complex(0.6, 0.8)
    lam1 = _twisted_lam(toy2_spec, s, [0.5])
    lam2 = _twisted_lam(toy2_spec, s.conjugate(), [-0.5])
    assert abs(lam2 - np.conj(lam1)) < 1e-10


def test_toy_with_holonomy_characters():
    s = toy_full_shift(2, 1.0, [[1], [-1]], theta_values=[0.7, -0.7])
    spec = OperatorSpec(s)
    lam1 = _twisted_lam(spec, complex(0.5, 0.2), [0.3], 2)
    lam2 = _twisted_lam(spec, complex(0.5, -0.2), [-0.3], -2)
    assert abs(lam2 - np.conj(lam1)) < 1e-10


@pytest.mark.parametrize("s", [complex(0.5, 0.0), np.complex128(0.5), complex(0.5, 0.2)])
def test_leading_eigenvalue_refuses_a_complex_s(spec_b, s):
    # the Perron solve is at real s; a twisted spectrum is the scan's
    with pytest.raises(ValidationError, match="real s"):
        leading_eigenvalue(spec_b, s)


def test_leading_eigenvalue_is_real(spectral_b, delta_b):
    assert type(spectral_b.lam) is float and abs(spectral_b.lam - 1.0) < 1e-10
    assert spectral_b.s == delta_b
    assert not np.iscomplexobj(spectral_b.h) and not np.iscomplexobj(spectral_b.rho)


def test_holonomy_unavailable_without_theta(toy2_spec):
    with pytest.raises(HolonomyUnavailable):
        build_matrix(toy2_spec, 0.5, None, 1) @ np.ones(2)


@pytest.mark.parametrize("s", [0.6, complex(0.6, 0.9)])
@pytest.mark.parametrize("v", [None, [0.7, -0.3]])
@pytest.mark.parametrize("u", [None, [0.2, -0.3]])
@pytest.mark.parametrize("p", [0, 1, -1])
def test_toy_matrix_closed_form(toy3_mixed, s, v, u, p):
    # the one-node assembly gives the k x k weight matrix (A o e^{...})^T
    shift = toy3_mixed
    vv = np.zeros(2) if v is None else np.asarray(v)
    uu = np.zeros(2) if u is None else np.asarray(u)
    W = shift.transition * np.exp(-s * shift.tau + shift.f @ (uu + 1j * vv)
                                  + 1j * p * shift.theta)
    assert_allclose(build_matrix(OperatorSpec(shift), s, v, p, u), W.T, rtol=1e-15, atol=0)


def _twist_by_transitions(shift, v, p, u):
    """OperatorSpec.twist one admissible transition at a time, with <u, f>
    summed by math.fsum: the oracle for the one-expression twist."""
    d = shift.d
    f = shift.f.astype(float)
    cw = np.zeros((shift.k,) * 2, dtype=complex if d or p else float)
    for a, b in zip(*np.nonzero(shift.transition)):
        if d:
            cw[a, b] = math.fsum(u * f[a, b]) + 1j * float(v @ f[a, b])
        if p != 0:
            cw[a, b] += 1j * p * shift.theta[a, b]
    return cw


def _build_matrix_by_blocks(spec, s, v=None, p=0, u=None):
    """build_matrix one transition block at a time: the oracle for the
    one-expression assembly, which must match it bit for bit."""
    shift = spec.shift
    grid = spec.grid
    n, N, d = shift.k, grid.nodes_per_disk, shift.d
    v = np.zeros(d) if v is None else np.asarray(v, dtype=float)
    u = np.zeros(d) if u is None else np.asarray(u, dtype=float)
    cw = _twist_by_transitions(shift, v, p, u)
    M = np.zeros((n * N, n * N), dtype=complex)
    for a in range(n):
        for b in range(n):
            if shift.transition[a, b] == 0:
                continue
            wvec = np.exp(s * grid.logd[a, b] + cw[a, b])
            M[b * N:(b + 1) * N, a * N:(a + 1) * N] = wvec[:, None] * grid.interp[a, b]
    return M


@pytest.mark.parametrize("name,nodes", [("b", 24), ("b", 48), ("b", 96), ("c", 20),
                                        ("toy2", None), ("toy3", None), ("toy-d0", None)])
def test_build_matrix_bit_identical_to_blocks(name, nodes, toy3_mixed):
    if name == "toy3":
        shift = toy3_mixed
    elif name == "toy-d0":
        shift = toy_full_shift(3, 1.0, np.zeros((3, 0), dtype=int))
    else:
        obj = load_any(f"fixture:{name}")
        shift = obj if isinstance(obj, MarkovShift) else from_schottky(obj)
    spec, d = OperatorSpec(shift, nodes_per_disk=nodes), shift.d
    ps = [0, 1, -2] if shift.theta is not None else [0]
    for s in (0.6024408060243397, complex(0.6, 2.3)):
        for v in (None, np.resize([0.7, -0.3], d)):
            for u in (None, np.resize([0.2, -0.31], d)):
                for p in ps:
                    got = build_matrix(spec, s, v, p, u)
                    want = _build_matrix_by_blocks(spec, s, v, p, u)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,nodes", [("b", 24), ("c", 20), ("toy2", None), ("toy3", None)])
def test_twist_bit_identical_to_fsum_loop(name, nodes, toy3_mixed):
    if name == "toy3":
        shift = toy3_mixed
    else:
        obj = load_any(f"fixture:{name}")
        shift = obj if isinstance(obj, MarkovShift) else from_schottky(obj)
    spec, d = OperatorSpec(shift, nodes_per_disk=nodes), shift.d
    ps = [0, 1, -2] if shift.theta is not None else [0]
    for v in (np.resize([0.7, -0.3], d), np.resize([-2.9, 1e-3], d)):
        for u in (np.resize([0.2, -0.31], d), np.resize([-1.7, 0.45], d)):
            for p in ps:
                got, want = spec.twist(v, p, u), _twist_by_transitions(shift, v, p, u)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.array_equal(spec.twist(v, p, -u).real, -want.real)  # P(u) = P(-u)


def test_spec_is_frozen_with_one_grid(shift_b, monkeypatch, tmp_path):
    # every grid build appends to a file, so a forked scan or sampler worker
    # that built its own would be counted too
    builds, init = tmp_path / "builds", tr.CollocationGrid.__init__

    def counted(self, *args):
        with open(builds, "a") as fh:
            fh.write("x")
        init(self, *args)

    monkeypatch.setattr(tr.CollocationGrid, "__init__", counted)
    monkeypatch.setattr(sh, "_workers", lambda: 2)
    monkeypatch.setattr(sh, "_cpus", lambda: 2)
    spec = OperatorSpec(shift_b, nodes_per_disk=24)
    surface = pressure_surface(spec)
    assert len(spectral_radius_scan(spec, surface.delta, [0.5, 0.25], [[0.0]]).rows) == 2
    sh.sample_cocycle_batch(surface.spectral, 20, 8, master_seed=1)
    assert builds.read_text() == "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.nodes_per_disk = 48
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.grid = None


def test_spec_compares_and_hashes(toy2_spec):
    # a shift's tables are arrays, so a shift, and with it a spec, compares and
    # hashes by identity: neither call raises on the arrays
    copy = pickle.loads(pickle.dumps(toy2_spec))
    assert toy2_spec == toy2_spec and toy2_spec != copy
    assert hash(toy2_spec) == hash(toy2_spec) and isinstance(hash(copy), int)


@pytest.mark.parametrize("case", ["pressure-toy2-u-nan", "pressure-b-u-inf", "lambda-b-s-nan",
                                  "lambda-b-v-nan", "scan-b-t-inf", "scan-b-delta-nan",
                                  "scan-b-v-nan", "scan-toy2-margin-nan",
                                  "scan-toy2-margin-minus-inf"])
def test_non_finite_s_u_v_are_validation_errors(case, toy2_spec, spec_b, delta_b):
    # each used to warn and then die in numpy's LinAlgError, or, for a scan's
    # margin, flag no point, not even toy2's arithmetic control at t = 2 pi; a
    # RuntimeWarning on the way fails the test too (pyproject's filterwarnings)
    control = (toy2_spec, math.log(2.0), [2.0 * math.pi], [[0.0]])
    calls = {
        "pressure-toy2-u-nan": lambda: pressure(toy2_spec, [math.nan]),
        "pressure-b-u-inf": lambda: pressure(spec_b, [math.inf]),
        "lambda-b-s-nan": lambda: leading_eigenvalue(spec_b, math.nan),
        "lambda-b-v-nan": lambda: tr._certified(spec_b, 0.5, v=[math.nan]),
        "scan-b-t-inf": lambda: spectral_radius_scan(spec_b, delta_b, [0.5, math.inf], [[0.0]]),
        "scan-b-delta-nan": lambda: spectral_radius_scan(spec_b, math.nan, [0.5], [[0.0]]),
        "scan-b-v-nan": lambda: spectral_radius_scan(spec_b, delta_b, [0.5], [[math.nan]]),
        "scan-toy2-margin-nan": lambda: spectral_radius_scan(*control, margin=math.nan),
        "scan-toy2-margin-minus-inf": lambda: spectral_radius_scan(*control, margin=-math.inf),
    }
    with pytest.raises(ValidationError, match="finite"):
        calls[case]()


@pytest.mark.parametrize("grid", [([], [[0.0]], [0]), ([0.5], [], [0]), ([0.5], [[0.0]], [])],
                         ids=["t", "v", "p"])
def test_scan_refuses_an_empty_grid(toy2_spec, grid):
    # an empty scan used to return no rows, and max_abs_lambda() then died in max()
    with pytest.raises(ValidationError, match="at least one"):
        spectral_radius_scan(toy2_spec, math.log(2.0), *grid)


def test_critical_exponent_toys(toy2_spec):
    assert abs(critical_exponent(toy2_spec) - math.log(2.0)) < 1e-12
    spec3 = OperatorSpec(toy_full_shift(3, 2.0, [[1], [0], [-1]]))
    assert abs(critical_exponent(spec3) - math.log(3.0) / 2.0) < 1e-12


def test_pressure_toy_closed_form(toy2_spec):
    for u in np.linspace(-1.0, 1.0, 9):
        assert_allclose(pressure(toy2_spec, [u]), math.log(2.0 * math.cosh(u)),
                        atol=1e-12)
    assert_allclose(pressure(toy2_spec, [0.0]), critical_exponent(toy2_spec),
                    atol=1e-13)


def test_pressure_convexity(toy2_spec):
    u1, u2 = np.array([-0.8]), np.array([1.1])
    for alpha in (0.25, 0.5, 0.75):
        mid = pressure(toy2_spec, alpha * u1 + (1 - alpha) * u2)
        bound = alpha * pressure(toy2_spec, u1) + (1 - alpha) * pressure(toy2_spec, u2)
        assert mid <= bound + 1e-8


def _richardson_surface(spec, step=1e-3):
    """The finite-difference surface that the eigentriple derivatives
    replaced, the oracle for them: central differences of Brent roots of P at
    steps h and h/2, combined by Richardson extrapolation.  Returns the
    gradient and the Hessian at 0."""
    d = spec.shift.d
    cache = {}

    def P(uvec):
        key = tuple(round(float(x), 12) for x in uvec)
        if key not in cache:
            cache[key] = pressure(spec, np.asarray(uvec, dtype=float))
        return cache[key]

    delta = P(np.zeros(d))

    def grad_hess(h):
        e = np.eye(d)
        grad = np.array([(P(h * e[i]) - P(-h * e[i])) / (2 * h) for i in range(d)])
        H = np.zeros((d, d))
        for i in range(d):
            H[i, i] = (P(h * e[i]) - 2 * delta + P(-h * e[i])) / h ** 2
            for j in range(i + 1, d):
                val = (P(h * (e[i] + e[j])) - P(h * (e[i] - e[j]))
                       - P(-h * (e[i] - e[j])) + P(-h * (e[i] + e[j]))) / (4 * h ** 2)
                H[i, j] = H[j, i] = val
        return grad, H

    g1, H1 = grad_hess(step)
    g2, H2 = grad_hess(step / 2)
    H = (4 * H2 - H1) / 3
    return (4 * g2 - g1) / 3, (H + H.T) / 2


@pytest.mark.parametrize("name,nodes", [("b", 24), ("c", 20)])
def test_pressure_surface_matches_finite_differences(name, nodes):
    spec = OperatorSpec(from_schottky(load_group(f"fixture:{name}")), nodes_per_disk=nodes)
    surf = pressure_surface(spec)
    grad, H = _richardson_surface(spec)
    assert_allclose(surf.hessian, H, rtol=1e-7, atol=0)
    d = spec.shift.d
    assert_allclose(surf.sigma, np.linalg.det(H) ** (1.0 / d), rtol=1e-7)
    assert_allclose(surf.gradient, grad, rtol=0, atol=1e-10)


def test_pressure_surface_toy2_closed_form(toy2_spec):
    surf = pressure_surface(toy2_spec)
    assert abs(surf.hessian[0, 0] - 1.0) < 1e-13
    assert abs(surf.sigma - 1.0) < 1e-13
    assert abs(surf.c0 - math.sqrt(2.0 * math.pi)) < 1e-13


def test_pressure_surface_toy_product_d2():
    spec = OperatorSpec(toy_full_shift(4, 1.0, [[1, 1], [1, -1], [-1, 1], [-1, -1]]))
    surf = pressure_surface(spec)
    assert_allclose(surf.hessian, np.eye(2), rtol=0, atol=1e-13)
    assert abs(surf.sigma - 1.0) < 1e-13
    assert abs(surf.c0 - 2.0 * math.pi) < 1e-13


def test_pressure_surface_rejects_degenerate_cocycle():
    # f = 0, and coboundaries f(a, b) = g(b) - g(a) on a 3-symbol full shift,
    # for which P(u) = delta for every u.  The roofs are unequal, so rounding
    # leaves some of their Hessians above 0 and some below.
    with pytest.raises(HessianNotPD):
        pressure_surface(OperatorSpec(toy_full_shift(2, 1.0, [[0], [0]])))
    roof = [[0.7, 1.1, 0.9], [1.3, 0.6, 1.7], [0.8, 1.2, 1.0]]
    for g in ([0, 1, 2], [1, -1, 0], [3, -2, 7], [0, 0, 5], [[1, 0], [0, 1], [2, -1]]):
        gv = np.array(g).reshape(3, -1)
        shift = MarkovShift(transition=np.ones((3, 3), dtype=int),
                            f=gv[None, :, :] - gv[:, None, :], tau=roof)
        with pytest.raises(HessianNotPD):
            pressure_surface(OperatorSpec(shift))


def test_pressure_surface_requires_d_ge_1():
    spec = OperatorSpec(toy_full_shift(2, 1.0, np.zeros((2, 0), dtype=int)))
    with pytest.raises(ValidationError):
        pressure_surface(spec)


# -- collocation ----------------------------------------------------------------

def test_collocation_requires_analytic(toy2_spec):
    with pytest.raises(ValidationError):
        OperatorSpec(toy_full_shift(2, 1.0, [[1], [-1]]), nodes_per_disk=16)


def test_twist_dimension_checked_on_collocation(group_c):
    # a length-1 twist on a d = 2 coding must not broadcast over both classes
    spec = OperatorSpec(from_schottky(group_c), nodes_per_disk=20)
    with pytest.raises(ValidationError, match="dimension 2"):
        build_matrix(spec, 0.5, u=[0.1])
    with pytest.raises(ValidationError, match="dimension 2"):
        build_matrix(spec, 0.5, v=[0.1])


def test_holonomy_unavailable_on_collocation(spec_b, delta_b):
    with pytest.raises(HolonomyUnavailable):
        build_matrix(spec_b, delta_b, None, 1)
    with pytest.raises(HolonomyUnavailable):
        tr._certified(spec_b, delta_b, p=-2)


def test_collocation_rejects_small_grid(shift_b):
    with pytest.raises(ValidationError):
        OperatorSpec(shift_b, nodes_per_disk=4)
    with pytest.raises(ValidationError, match="nodes_per_disk"):
        OperatorSpec(shift_b)  # a Schottky coding has no default grid


def test_chebyshev_coeffs_and_chebval_match_interp_values(spec_b, spectral_b):
    # the series of node values, summed by numpy's chebval in t = (x - z_b) / r_b,
    # is the barycentric interpolant on disk b: at the nodes and between them
    grid = spec_b.grid
    h = np.real(spectral_b.h)
    N = grid.nodes_per_disk
    coeffs = grid.chebyshev_coeffs(h)
    assert coeffs.shape == (4, N)
    t = (np.array(grid.nodes) - grid.centers[:, None]) / grid.radii[:, None]
    at_nodes = [chebval(t[b], coeffs[b]) for b in range(4)]
    assert_allclose(at_nodes, h.reshape(4, N), rtol=1e-13)
    u = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 50))
    pts = grid.centers[:, None] + grid.radii[:, None] * u
    bary = [grid.interp_values(b, pts[b]) @ h[b * N:(b + 1) * N] for b in range(4)]
    assert_allclose([chebval(u[b], coeffs[b]) for b in range(4)], bary, rtol=1e-13)
    # complex node values keep their imaginary part through both steps
    hc = h * np.exp(1j * np.linspace(0.0, 3.0, h.size))
    cc = grid.chebyshev_coeffs(hc)
    assert cc.dtype == complex
    bary = [grid.interp_values(b, pts[b]) @ hc[b * N:(b + 1) * N] for b in range(4)]
    assert_allclose([chebval(u[b], cc[b]) for b in range(4)], bary, rtol=1e-13)


def test_collocation_apply_matches_branch_sum(group_b, spec_b):
    """Oracle: apply the operator matrix to samples of an entire function and
    compare against the direct branch-sum quadrature at every node."""
    import covercount.schottky as sk
    grid = spec_b.grid
    s = 0.75
    F = lambda x: np.exp(0.31 * x) * np.cos(x)
    gvec = np.concatenate([F(grid.nodes[a]) for a in range(4)])
    out = build_matrix(spec_b, s) @ gvec
    worst = 0.0
    for b in range(4):
        for j, x in enumerate(grid.nodes[b]):
            direct = 0.0
            for a in range(4):
                if a == sk.inverse_index(b):
                    continue
                ma = group_b.symbol_matrix(a)
                den = ma[2] * x + ma[3]
                y = (ma[0] * x + ma[1]) / den
                direct += abs(den) ** (-2 * s) * F(y.real)
            worst = max(worst, abs(out[b * grid.nodes_per_disk + j] - direct))
    assert worst < 1e-8


def test_collocation_node_doubling_invariance(spec_b, delta_b):
    r24 = leading_eigenvalue(spec_b, delta_b)
    spec48 = OperatorSpec(spec_b.shift, nodes_per_disk=48)
    r48 = leading_eigenvalue(spec48, delta_b)
    assert abs(r24.lam - r48.lam) < 1e-9


def test_lambda_monotone_decreasing_on_real_axis(spec_b):
    grid = np.linspace(0.1, 1.5, 8)
    vals = [leading_eigenvalue(spec_b, s, check_stability=False).lam for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_delta_brackets_failure_modes(toy2_spec):
    # no root above: weights always below 1 when roof is huge
    spec = OperatorSpec(toy_full_shift(2, 60.0, [[1], [-1]]))
    delta = critical_exponent(spec)  # log(2)/60, still bracketable
    assert_allclose(delta, math.log(2.0) / 60.0, atol=1e-12)


def _scipy_brentq(f, lo, hi, f_lo, f_hi):
    return brentq(f, lo, hi, xtol=tr.BRENT_XTOL, rtol=tr.BRENT_RTOL,
                  maxiter=tr.BRENT_MAXITER)


@pytest.mark.parametrize("name,nodes,solves", [("toy2", None, 4), ("b", 24, 10),
                                               ("b", 48, 10), ("c", 24, 9)])
def test_brent_port_bit_equal_to_scipy(name, nodes, solves, monkeypatch):
    # the port starts from the bracket's eigenvalues, where scipy evaluates
    # both ends again: two eigensolves fewer per root, the same root bits
    obj = load_any(f"fixture:{name}")
    shift = obj if isinstance(obj, MarkovShift) else from_schottky(obj)
    spec = OperatorSpec(shift, nodes_per_disk=nodes)
    twists = [np.resize([0.3, -0.2], shift.d) * k for k in (1.0, -1.5)]
    calls = []  # the root's solves: the uncertified ones
    lead = tr.leading_eigenvalue
    monkeypatch.setattr(tr, "leading_eigenvalue", lambda *a, **kw: calls.append(
        kw.get("check_stability")) or lead(*a, **kw))
    got = [critical_exponent(spec)]
    assert calls.count(False) == solves and len(calls) == solves + 1
    got += [pressure(spec, u) for u in twists]
    monkeypatch.setattr(tr, "_brentq", _scipy_brentq)
    want = [critical_exponent(spec)] + [pressure(spec, u) for u in twists]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_brent_out_of_iterations_is_not_converged(toy2_spec, monkeypatch):
    monkeypatch.setattr(tr, "BRENT_MAXITER", 1)
    with pytest.raises(NotConverged) as err:
        critical_exponent(toy2_spec)
    msg = str(err.value)
    assert msg.startswith("pressure root did not converge in 1 Brent iterations, last s = ")
    assert math.isfinite(float(msg.rsplit(" = ", 1)[1]))


def test_surface_solves_once_at_delta(spec_b, monkeypatch):
    # 10 eigensolves find delta, then one certified eigentriple: the right
    # solve and the left solve; the off-node check solves nothing
    sizes = []
    solve = tr._dominant
    monkeypatch.setattr(tr, "_dominant",
                        lambda M, D=None: sizes.append(M.shape[0]) or solve(M, D))
    pressure_surface(spec_b)
    assert Counter(sizes) == {96: 12}


def test_schottky_pressure_symmetric(spec_b):
    for u in (0.25, 0.6):
        assert abs(pressure(spec_b, [u]) - pressure(spec_b, [-u])) < 1e-8


def test_surface_invariants_on_fixture(spec_b, delta_b, surface_b):
    assert abs(surface_b.delta - delta_b) < 1e-12
    assert np.max(np.abs(surface_b.gradient)) < 1e-4
    assert np.linalg.eigvalsh(surface_b.hessian).min() > 0
    assert surface_b.sigma > 0 and surface_b.c0 > 0


def _periodic_sums(group, n_max, s, v):
    """{n: sum over the cyclically reduced words w of length n of e^{i <v,
    hom w>} e^{-s l(w)} / (1 - e^{-l(w)})}, n <= n_max, with l(w) the
    translation length of w's matrix.  By the trace formula for expanding
    analytic maps (Ruelle, Invent. Math. 34, 1976) this is tr L^n of the
    twisted transfer operator: the coding's points of period n are these
    words.  Words grow letter by letter as arrays of their first and last
    letters, matrices and homology sums."""
    n = group.n_symbols
    mats = np.array([np.reshape(group.symbol_matrix(a), (2, 2)).real for a in range(n)])
    hom = np.array([group.abelianize((sk.letter_of_index(a),)) for a in range(n)], dtype=float)
    first, last, M, H = np.arange(n), np.arange(n), mats, hom
    sums = {}
    for length in range(1, n_max + 1):
        if length > 1:
            word, b = np.divmod(np.arange(len(last) * n), n)
            reduced = b != (last[word] ^ 1)  # ^ 1: the index of the inverse letter
            word, b = word[reduced], b[reduced]
            first, last, M, H = first[word], b, M[word] @ mats[b], H[word] + hom[b]
        cyclic = last != (first ^ 1)
        tr_w = np.abs(np.trace(M[cyclic], axis1=1, axis2=2))  # det 1
        ell = 2.0 * np.log((tr_w + np.sqrt(tr_w * tr_w - 4.0)) / 2.0)
        sums[length] = np.sum(np.exp(1j * (H[cyclic] @ v) - s * ell) / (1.0 - np.exp(-ell)))
    return sums


@pytest.mark.parametrize("name,N,delta,tol", [("b", 48, 0.6024, 1e-9), ("c", 32, 0.6918, 1e-7)])
def test_trace_formula_matches_build_matrix(name, N, delta, tol):
    # The assembled matrix, twists included, against the group's words alone,
    # at s near delta (no solve, so no other check sees the matrix first).
    # Collocation resolves the top of the spectrum, not its tail, so tr M^n
    # matches only once the short words' terms have decayed and only at
    # enough nodes: over n = 4-7, b at N = 48 is within 3.2e-11 relative, c at
    # N = 24 only within 1.2e-6 (s = delta + 2i) and at N = 32 within 4.4e-9.
    group = load_group(f"fixture:{name}")
    spec = OperatorSpec(from_schottky(group), nodes_per_disk=N)
    twist = np.linspace(0.7, -0.3, group.d)
    for s, v in ((delta, np.zeros(group.d)), (delta + 2j, np.zeros(group.d)), (delta, twist)):
        sums = _periodic_sums(group, 7, s, v)
        M = build_matrix(spec, s, v=v)
        P = M @ M @ M
        for n in range(4, 8):
            P = P @ M
            err = abs(np.trace(P) - sums[n]) / abs(sums[n])
            assert err < tol, (s, v, n, err)


# -- scans -----------------------------------------------------------------------

def test_scan_trivial_point_is_one(toy2_spec):
    delta = critical_exponent(toy2_spec)
    rep = spectral_radius_scan(toy2_spec, delta, [0.0], [[0.0]])
    assert abs(rep.rows[0].abs_lambda - 1.0) < 1e-8
    assert not rep.rows[0].violation  # the trivial point is exempt


def test_scan_flags_arithmetic_toy(toy2_spec):
    delta = critical_exponent(toy2_spec)
    rep = spectral_radius_scan(toy2_spec, delta, [2.0 * math.pi], [[0.0]])
    assert rep.rows[0].violation
    assert abs(rep.rows[0].abs_lambda - 1.0) < 1e-10


def test_scan_rows_sorted_and_clean_on_fixture(spec_b, delta_b):
    rep = spectral_radius_scan(spec_b, delta_b, [0.5, 0.25], [[0.0], [3.14]])
    keys = [(r.t, r.v, r.p) for r in rep.rows]
    assert keys == sorted(keys)
    assert not rep.violations
    assert rep.max_abs_lambda() < 1.0


def test_scan_rows_same_bits_in_two_processes(shift_b, delta_b, monkeypatch):
    # at the scan's default of 48 nodes; at 24 the rows t = 1.0 and 1.25 fail
    # the off-node check (test_scan_rejects_an_unresolved_row_at_24_nodes)
    grid = dict(t_grid=[0.5, 0.25, 0.75, 1.0, 1.25], v_grid=[[0.0], [3.14]])
    rows = []
    for workers in (1, 2):
        monkeypatch.setattr(sh, "_workers", lambda: workers)
        spec = OperatorSpec(shift_b, nodes_per_disk=48)
        rows.append(spectral_radius_scan(spec, delta_b, **grid).rows)
    assert rows[0] == rows[1]


def test_scan_batches_only_column_scaling_twists(toy3_mixed, monkeypatch):
    # toy3's f depends on a transition's first symbol alone and its theta does
    # not: the p = 0 twists scale M's columns and go as one batch per t row,
    # every p != 0 twist keeps its own matrix, a batch of one
    spec = OperatorSpec(toy3_mixed)
    v_grid, p_list = [[0.0, 0.0], [0.7, -0.3], [2.0, 1.0]], [0, 1, -2]
    assert tr._column_phases(spec, [0.7, -0.3], 0) is not None
    assert tr._column_phases(spec, [0.7, -0.3], 1) is None
    sizes = []
    solve = tr._dominant
    monkeypatch.setattr(sh, "_workers", lambda: 1)
    monkeypatch.setattr(tr, "_dominant", lambda M, D=None:
                        sizes.append(0 if D is None else len(D)) or solve(M, D))
    rows = spectral_radius_scan(spec, 0.4, [1.3, 0.0], v_grid, p_list).rows
    assert Counter(sizes) == {3: 2, 0: 2 * 6}
    for r in rows:
        want = abs(_twisted_lam(spec, complex(0.4, r.t), r.v, r.p))
        assert abs(r.abs_lambda - want) <= (1e-14 * want if r.p == 0 else 0.0)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "forked"])
def test_scan_batch_keeps_the_doubling_check(shift_b, delta_b, monkeypatch, workers):
    # at N = 24, the eigenfunction at twist 2 pi / 16 of the default grid's
    # fifth t row has off-node residual 1.18e-8, above OFF_NODE_TOL; forked,
    # that row is the child's
    monkeypatch.setattr(sh, "_workers", lambda: workers)
    spec = OperatorSpec(shift_b, nodes_per_disk=24)
    t_grid = np.linspace(0.05, 5.0, 25)[[0, 4]]
    v_grid = [[x] for x in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
    with pytest.raises(DiscretizationUnstable, match=r"^off-node residual 1\.18e-08 > 1e-08$"):
        spectral_radius_scan(spec, delta_b, t_grid, v_grid)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "forked"])
def test_scan_rejects_an_unresolved_row_at_24_nodes(shift_b, delta_b, monkeypatch, workers):
    # the row t = 1.25, v = 0 at N = 24: off-node residual 1.34e-8, where
    # doubling moved lambda by less than 1e-8 and passed it.  The residual is
    # the stricter check; forked, the row is the child's
    monkeypatch.setattr(sh, "_workers", lambda: workers)
    spec = OperatorSpec(shift_b, nodes_per_disk=24)
    assert spectral_radius_scan(spec, delta_b, [0.5], [[0.0]]).rows
    with pytest.raises(DiscretizationUnstable, match=r"^off-node residual 1\.34e-08 > 1e-08$"):
        spectral_radius_scan(spec, delta_b, [0.5, 1.25], [[0.0]])


def test_not_converged_message(toy2_spec, monkeypatch):
    monkeypatch.setattr(tr, "_dominant", lambda M, D=None: [(1.0 + 0j, np.ones(2), 1.2e-3)])
    with pytest.raises(NotConverged) as err:
        leading_eigenvalue(toy2_spec, math.log(2.0))
    assert str(err.value) == "eigensolver did not converge: residual 1.200e-03"


@pytest.mark.parametrize("left_shift,left_res", [(0.0, 1e-3), (1e-6, 0.0)],
                         ids=["residual", "eigenvalue"])
def test_left_eigenpair_checked(toy2_spec, monkeypatch, left_shift, left_res):
    # the right solve is exact; the left one (the second call) is perturbed
    solve, calls = tr._dominant, []

    def perturbed(M, D=None):
        [(lam, z, res)] = solve(M, D)
        calls.append(M)
        if len(calls) == 2:
            return [(lam + left_shift, z, res + left_res)]
        return [(lam, z, res)]

    monkeypatch.setattr(tr, "_dominant", perturbed)
    with pytest.raises(NotConverged, match="left eigenpair"):
        leading_eigenvalue(toy2_spec, math.log(2.0), want_measure=True)
    assert len(calls) == 2


@pytest.mark.parametrize("want_measure", [False, True], ids=["h", "measure"])
def test_perron_vectors_ignore_solver_phase(spec_b, delta_b, monkeypatch, want_measure):
    # an eigensolver's phase is arbitrary: turned by a quarter, the Perron
    # vectors must come out the same, with no false positivity failure
    want = leading_eigenvalue(spec_b, delta_b, want_measure=want_measure)
    solve = tr._dominant

    def rotated(M, D=None):
        return [(lam, 1j * z / z[np.argmax(np.abs(z))], res)
                for lam, z, res in solve(M, D)]

    monkeypatch.setattr(tr, "_dominant", rotated)
    got = leading_eigenvalue(spec_b, delta_b, want_measure=want_measure)
    assert not np.iscomplexobj(got.h) and np.all(got.h > 0)
    assert_allclose(got.h, want.h, rtol=1e-14, atol=0)
    if want_measure:
        assert_allclose(got.rho, want.rho, rtol=1e-14, atol=0)


# -- eigensolver paths -------------------------------------------------------------

def _reference_dominant(M):
    """The eigensolver before its power step reused its product: three
    products with M per step, and the power loop before ARPACK on every
    matrix, from the cold start.  The oracle: every solve agrees with it within
    the kernel's tolerance."""
    n = M.shape[0]
    v0 = np.ones(n, dtype=complex) + 1e-3 * np.linspace(0.0, 1.0, n)
    z = v0 / np.linalg.norm(v0)
    for _ in range(60):
        w = M @ z
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0 + 0j, z, 0.0
        z = w / nw
        lam_new = np.vdot(z, M @ z)
        res = float(np.linalg.norm(M @ z - lam_new * z))
        if res < 1e-12 * max(1.0, abs(lam_new)):
            return lam_new, z, res
    if n > 16:
        try:
            vals, vecs = eigs(M, k=min(3, n - 2), v0=np.asarray(v0, dtype=complex),
                              which="LM", maxiter=5000, tol=1e-14)
            i = int(np.argmax(np.abs(vals)))
            lam, z = vals[i], vecs[:, i]
            res = float(np.linalg.norm(M @ z - lam * z) / np.linalg.norm(z))
            if res < 1e-10 * max(1.0, abs(lam)):
                return lam, z / np.linalg.norm(z), res
        except ArpackNoConvergence:
            pass
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(np.abs(vals)))
    lam, z = vals[i], vecs[:, i]
    return lam, z, float(np.linalg.norm(M @ z - lam * z) / np.linalg.norm(z))


def _solve_one(M):
    """tr._dominant on M alone, the batch of one."""
    [pair] = tr._dominant(M)
    return pair


def _reference_case(case, spec_b, delta_b, toy2_spec):
    """The matrix of a named reference case."""
    if case == "perron-b-delta":
        return build_matrix(spec_b, delta_b)
    if case == "perron-b-half":
        return build_matrix(spec_b, 0.5)
    if case == "perron-toy2":
        return build_matrix(toy2_spec, math.log(2.0))
    M = build_matrix(OperatorSpec(spec_b.shift, nodes_per_disk=48), complex(delta_b, 1.0), [0.5])
    assert M.shape == (192, 192) and np.any(M.imag)
    return M


def _assert_agrees_with_reference(got, want, M):
    # the kernel and ARPACK stop at the same Ritz tolerance: lambda agreed to
    # 1.1e-14 relative over the 400 scan matrices of b at N = 48
    lam, z, res = got
    assert abs(lam - want[0]) <= 1e-13 * abs(want[0])
    assert res < 1e-10 and np.linalg.norm(M @ z - lam * z) / np.linalg.norm(z) < 1e-10


@pytest.mark.parametrize("case", ["perron-b-delta", "perron-b-half", "perron-toy2",
                                  "cold-twisted-b48"])
def test_dominant_kernel_matches_reference(case, spec_b, delta_b, toy2_spec):
    M = _reference_case(case, spec_b, delta_b, toy2_spec)
    _assert_agrees_with_reference(_solve_one(M), _reference_dominant(M), M)


def test_scan_rows_match_reference_solver(shift_b, delta_b, monkeypatch):
    # the oracle builds each point's own matrix M(delta + it, v) and solves it
    # with the reference solver; the scan builds M(delta + it, 0) once per t row
    # and solves the row's twists as its column scalings
    grid = dict(t_grid=[0.5, 0.25, 0.75], v_grid=[[0.0], [3.14]])
    spec = OperatorSpec(shift_b, nodes_per_disk=24)
    solves, builds = [], []
    solve, build = tr._dominant, tr.build_matrix
    monkeypatch.setattr(sh, "_workers", lambda: 1)  # a worker's calls are not recorded here
    monkeypatch.setattr(tr, "_dominant",
                        lambda M, D=None: solves.append((M, D)) or solve(M, D))
    monkeypatch.setattr(tr, "build_matrix", lambda *a, **kw: builds.append(a) or build(*a, **kw))
    got = spectral_radius_scan(spec, delta_b, **grid).rows
    assert len(builds) == len(solves) == 3  # one per t row
    want = [(t, (v,), 0, abs(_reference_dominant(build(spec, complex(delta_b, t), [v]))[0]))
            for t in sorted(grid["t_grid"]) for v in (0.0, 3.14)]
    assert [(r.t, r.v, r.p) for r in got] == [w[:3] for w in want]
    # no trivial point (t > 0): a violation is |lambda| above 1 - margin
    assert [r.violation for r in got] == [w[3] > 1.0 - 1e-3 for w in want]
    assert_allclose([r.abs_lambda for r in got], [w[3] for w in want], rtol=1e-13, atol=0)
    for M, D in solves:
        assert D.shape == (2, M.shape[0])
        for i, pair in enumerate(solve(M, D)):
            A = M * D[i]
            _assert_agrees_with_reference(pair, _reference_dominant(A), A)
    # at production size: the default grid's row t = 0.25625 of b at N = 48, with
    # all 16 twists, against the top modulus of dense eig of each point's matrix
    spec48, t = OperatorSpec(shift_b, nodes_per_disk=48), 0.25625
    axis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    rows = spectral_radius_scan(spec48, delta_b, [t], [[v] for v in axis]).rows
    assert [r.v for r in rows] == [(v,) for v in axis]
    for r in rows:
        want = np.abs(np.linalg.eigvals(build(spec48, complex(delta_b, t), r.v))).max()
        assert abs(r.abs_lambda - want) <= 1e-14


# -- the Krylov-Schur kernel ---------------------------------------------------------

def _planted(n, seed):
    """X^-1 diag(spec) X for a random complex n x n X: the dominant eigenvalue
    lam1, a second one of modulus 0.99 |lam1| at the same phase and the rest
    inside |lam| < |lam1| / 2; with lam1 and a random start vector."""
    rng = np.random.default_rng(seed)
    lam1 = 1.3 * np.exp(0.4j)
    spec = 0.5 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n)) * abs(lam1)
    spec[:2] = lam1, 0.99 * lam1
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = np.linalg.solve(X, X * spec[:, None])
    return M, lam1, rng.standard_normal(n) + 1j * rng.standard_normal(n)


@pytest.mark.parametrize("n", [17, 31, 96, 192])
def test_krylov_schur_matches_dense_eig(n):
    M, _, v0 = _planted(n, seed=n)
    (lam, z), = tr._krylov_schur(M, v0[None])
    vals = np.linalg.eigvals(M)
    want = vals[np.argmax(np.abs(vals))]
    assert abs(lam - want) <= 1e-12 * abs(want)
    assert abs(np.linalg.norm(z) - 1.0) < 1e-14
    assert np.linalg.norm(M @ z - lam * z) <= 1e-12 * np.linalg.norm(M, 2)


@pytest.mark.parametrize("block", [1, 8])
def test_krylov_schur_closed_space_gives_exact_pair(block):
    # v0 in the first diagonal block: the Krylov space closes after `block`
    # vectors, before the basis is full, and its Ritz pair is exact
    rng = np.random.default_rng(block)
    A = rng.standard_normal((block, block)) + 1j * rng.standard_normal((block, block))
    B = 3.0 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
    M = np.zeros((block + 40, block + 40), dtype=complex)
    M[:block, :block], M[block:, block:] = A, B
    v0 = np.zeros(block + 40, dtype=complex)
    v0[:block] = rng.standard_normal(block)
    with np.errstate(all="raise"):
        (lam, z), = tr._krylov_schur(M, v0[None])
    vals = np.linalg.eigvals(A)
    want = vals[np.argmax(np.abs(vals))]
    assert np.isfinite(lam) and np.all(np.isfinite(z))
    assert abs(lam - want) <= 1e-13 * abs(want)
    assert np.linalg.norm(M @ z - lam * z) <= 1e-13 * np.linalg.norm(M, 2)
    assert not np.any(z[block:])


def test_krylov_schur_restart_cap_reaches_dense_path(monkeypatch):
    M, lam1, _ = _planted(96, seed=5)
    monkeypatch.setattr(tr, "KS_RESTARTS", 1)
    assert tr._krylov_schur(M, np.ones((1, 96), dtype=complex)) == [None]
    dense = []
    leading = tr._dense_leading
    monkeypatch.setattr(tr, "_dense_leading", lambda A: dense.append(A) or leading(A))
    lam, z, res = _solve_one(M)  # cold: straight to the kernel
    assert len(dense) == 1 and dense[0] is M
    assert abs(lam - lam1) <= 1e-12 * abs(lam1) and res < 1e-10


@pytest.mark.parametrize("restarts", [20, 1])
def test_krylov_schur_batch_matches_dense_eig(restarts, monkeypatch):
    # one M = diag(P1, P2) of two planted blocks and, per member, its own
    # start and column scaling D_b; each member must agree with dense eig of
    # M D_b.  Member 0 starts inside the first block, so its Krylov space
    # closes after 8 vectors and it leaves the batch mid-cycle.  Member 1's
    # scaling leaves P2's pair at ratio 0.99 on top, so at KS_RESTARTS = 1 it
    # hits the cap and reaches dense eig, from its own start and from
    # _dominant's cold one.  Member 2 turns every column by its own phase, as
    # the scan's twists do.
    P1, P2 = _planted(8, seed=8)[0], _planted(88, seed=88)[0]
    M = np.zeros((96, 96), dtype=complex)
    M[:8, :8], M[8:, 8:] = P1, P2
    rng = np.random.default_rng(96)
    D = np.ones((3, 96), dtype=complex)
    D[0, :8], D[0, 8:] = np.exp(0.7j), 0.4
    D[1, :8], D[1, 8:] = 0.1, np.exp(-1.1j)
    D[2] = np.exp(2j * np.pi * rng.random(96))
    X0 = rng.standard_normal((3, 96)) + 1j * rng.standard_normal((3, 96))
    X0[0, 8:] = 0.0
    monkeypatch.setattr(tr, "KS_RESTARTS", restarts)
    pairs = tr._krylov_schur(M, X0, D)
    assert pairs[0] is not None and not np.any(pairs[0][1][8:])
    assert (pairs[1] is None) == (restarts == 1) and pairs[2] is not None
    dense = []
    leading = tr._dense_leading
    monkeypatch.setattr(tr, "_dense_leading", lambda A: dense.append(A) or leading(A))
    for b, (lam, z, res) in enumerate(tr._dominant(M, D)):
        A = M * D[b]
        vals = np.linalg.eigvals(A)
        want = vals[np.argmax(np.abs(vals))]
        assert abs(lam - want) <= 1e-12 * abs(want)
        assert np.linalg.norm(A @ z - lam * z) <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(z)
    assert len(dense) == (restarts == 1)
    assert all(np.array_equal(A, M * D[1]) for A in dense)


@pytest.mark.parametrize("case", ["perron-b-half", "perron-toy2"])
def test_dominant_path_rule(case, spec_b, delta_b, toy2_spec, monkeypatch):
    # a single matrix with no imaginary part larger than 16 x 16 is a Perron
    # solve: the power loop on M.real from the fixed start, and nothing else.
    # The same matrix as a batch member, or with an imaginary part of 1e-300,
    # goes straight to the kernel from that start; dense eig alone at 16 x 16
    # and below
    M = _reference_case(case, spec_b, delta_b, toy2_spec)
    powers, starts, dense = [], [], []
    power, kernel, leading = tr._power, tr._krylov_schur, tr._dense_leading
    monkeypatch.setattr(tr, "_power", lambda A, x: powers.append((A, x)) or power(A, x))
    monkeypatch.setattr(tr, "_krylov_schur",
                        lambda A, X, D=None: starts.append(X) or kernel(A, X, D))
    monkeypatch.setattr(tr, "_dense_leading", lambda A: dense.append(A) or leading(A))
    _solve_one(M)
    n = M.shape[0]
    start = np.ones(n) + 1e-3 * np.linspace(0.0, 1.0, n)
    if case == "perron-b-half":
        assert n == 96 and len(powers) == 1 and not starts and not dense
        assert np.array_equal(powers[0][0], M.real) and np.array_equal(powers[0][1], start)
        tr._dominant(M, np.ones((1, n)))
        _solve_one(M + 1e-300j)
        assert len(powers) == 1 and len(starts) == 2 and not dense
        assert all(X.shape == (1, n) and np.array_equal(X[0], start) for X in starts)
    else:
        assert n <= 16 and not powers and not starts and len(dense) == 1 and dense[0] is M


@pytest.mark.parametrize("name,nodes,u", [("b", 24, None), ("b", 48, None), ("c", 20, None),
                                          ("c", 24, None), ("c", 24, (0.1, 0.2)),
                                          ("c", 24, (-0.3, 0.25))])
def test_perron_solves_match_dense_eig(name, nodes, u, monkeypatch):
    # every solve of a root (the bracket, Brent, and at delta the certified
    # right solve and the left one for rho) is a power-loop solve, and its
    # lambda agrees with dense eig's to 1e-14
    spec = OperatorSpec(from_schottky(load_any(f"fixture:{name}")), nodes_per_disk=nodes)
    solves, solve = [], tr._dominant

    def recorded(M, D=None):
        pairs = solve(M, D)
        solves.append((M, D, pairs[0][0]))
        return pairs

    monkeypatch.setattr(tr, "_dominant", recorded)
    monkeypatch.setattr(tr, "_krylov_schur", lambda *a: pytest.fail("the kernel ran"))
    if u is None:
        spectral_at_delta(spec, want_measure=True)
    else:
        pressure(spec, u)
    assert len(solves) >= 9
    for M, D, lam in solves:
        assert D is None and not M.imag.any()
        vals = np.linalg.eigvals(M)
        want = vals[np.argmax(np.abs(vals))]
        assert abs(lam - want) <= 1e-14 * abs(want)


def test_power_loop_cap_reaches_the_kernel(monkeypatch):
    # |lam2 / lam1| = 0.999: after PERRON_STEPS steps the loop's estimates
    # still move by far more than 2 ulps, so the Perron solve goes on to the
    # kernel, whose pair matches dense eig's
    rng = np.random.default_rng(40)
    spectrum = np.concatenate([[1.3, 0.999 * 1.3], 0.65 * (2.0 * rng.random(38) - 1.0)])
    X = rng.standard_normal((40, 40))
    M = np.linalg.solve(X, X * spectrum[:, None])  # X^-1 diag(spectrum) X
    assert tr._power(M, np.ones(40) + 1e-3 * np.linspace(0.0, 1.0, 40)) is None
    kernel, dense, calls = tr._krylov_schur, tr._dense_leading, []
    monkeypatch.setattr(tr, "_krylov_schur",
                        lambda A, X0, D=None: calls.append(A) or kernel(A, X0, D))
    monkeypatch.setattr(tr, "_dense_leading", lambda A: pytest.fail("dense eig ran"))
    [(lam, z, res)] = tr._dominant(M + 0j)
    assert len(calls) == 1
    vals = np.linalg.eigvals(M)
    want = vals[np.argmax(np.abs(vals))]
    assert abs(lam - want) <= 1e-12 * abs(want)
    assert abs(np.linalg.norm(z) - 1.0) < 1e-14 and res < 1e-10
    assert np.linalg.norm(M @ z - lam * z) <= 1e-12 * np.linalg.norm(M, 2)


def _dense_dominant(M, D=None):
    """Dense eig on every solve, Perron or not."""
    out = []
    for A in ([M] if D is None else [M * d for d in D]):
        vals, vecs = np.linalg.eig(A)
        i = int(np.argmax(np.abs(vals)))
        lam, z = vals[i], vecs[:, i]
        out.append((lam, z, float(np.linalg.norm(A @ z - lam * z))))
    return out


@pytest.mark.parametrize("name,nodes", [("b", 24), ("c", 20), ("c", 24)])
def test_surface_matches_dense_eig(name, nodes, monkeypatch):
    # delta and sigma from the kernel agree with an all-dense-eig surface to
    # rounding; a power loop stopped at 1e-12 left sigma_c 3.3e-13 off
    spec = OperatorSpec(from_schottky(load_any(f"fixture:{name}")), nodes_per_disk=nodes)
    got = pressure_surface(spec)
    monkeypatch.setattr(tr, "_dominant", _dense_dominant)
    want = pressure_surface(spec)
    assert abs(got.delta - want.delta) <= 1e-14 * want.delta
    assert abs(got.sigma - want.sigma) <= 1e-14 * want.sigma


@pytest.mark.parametrize("N", [8, 20, 24, 48, 96])
def test_cosine_matrix_dct_matches_scipy(group_b, N):
    grid = tr.CollocationGrid(group_b, N)
    rng = np.random.default_rng(N)
    real = rng.standard_normal((4, N))
    for vals in (real, real + 1j * rng.standard_normal((4, N))):
        # DCT-II: coefficients of node values, disk after disk
        want = dct(vals, type=2, axis=-1) / N
        want[:, 0] *= 0.5
        got = grid.chebyshev_coeffs(vals.ravel())
        assert_allclose(got, want, rtol=0, atol=2e-14 * np.abs(want).max())
        # 2N values per row, as the sampler's branch-weight tables
        wide = np.concatenate([vals, vals[:, ::-1] ** 2], axis=-1)
        want = dct(wide, type=2, axis=-1) / (2 * N)
        want[:, 0] *= 0.5
        got = grid.chebyshev_coeffs(wide)
        assert_allclose(got, want, rtol=0, atol=2e-14 * np.abs(want).max())




# -- the off-node residual -------------------------------------------------------

def test_off_node_blocks_match_chebval_and_branch_sum(group_b, spec_b, spectral_b):
    # at disk b's 2N first-kind nodes x, off_eye gives h's interpolant (numpy's
    # chebval on h's coefficients is the oracle) and the off_* blocks give the
    # operator applied to it, the direct sum over branches of |den|^-2s
    # times the interpolant of disk a at the branch image
    import covercount.schottky as sk
    grid, N, s = spec_b.grid, spec_b.nodes_per_disk, 0.75
    h = np.real(spectral_b.h)
    coeffs = grid.chebyshev_coeffs(h)

    def interpolant(a, pts):  # h's interpolant on disk a at pts
        return chebval((pts - grid.centers[a]) / grid.radii[a], coeffs[a])

    x = grid.first_kind_nodes(2 * N)
    Eh = (grid.off_eye @ h.reshape(4, N, 1))[..., 0]
    assert_allclose(Eh, [interpolant(b, x[b]) for b in range(4)], rtol=1e-13)
    R = tr._assemble(spec_b, s, spec_b.twist(), grid.off_logd, grid.off_interp)
    assert R.shape == (4 * 2 * N, 4 * N)
    direct = np.zeros((4, 2 * N))
    for b in range(4):
        for a in range(4):
            if a != sk.inverse_index(b):
                ma = group_b.symbol_matrix(a)
                den = ma[2] * x[b] + ma[3]
                y = ((ma[0] * x[b] + ma[1]) / den).real
                direct[b] += np.abs(den) ** (-2 * s) * interpolant(a, y)
    assert_allclose((R @ h).reshape(4, 2 * N), direct, rtol=1e-12)


def _verdicts(spec, s, phases=None):
    """(residual accepts, doubling accepts) per member of the certified solve
    at s, one member per row of phases (None: the untwisted operator).  The
    oracle is the retired certificate: lambda from a cold solve at 2N nodes
    per disk must agree with lambda at N to within 1e-8 of its modulus."""
    D = None if phases is None else np.repeat(phases, spec.nodes_per_disk, axis=1)
    _, pairs = tr._certified(spec, s, phases=phases, check_stability=False)
    r = tr._off_node_residuals(spec, s, None, 0, None, D, pairs)
    fine = OperatorSpec(spec.shift, nodes_per_disk=2 * spec.nodes_per_disk)
    D2 = None if phases is None else np.repeat(phases, 2 * spec.nodes_per_disk, axis=1)
    lam2 = np.array([lam for lam, _, _ in tr._dominant(build_matrix(fine, s), D2)])
    lam = np.array([lam for lam, _, _ in pairs])
    return r <= tr.OFF_NODE_TOL, np.abs(lam - lam2) <= 1e-8 * np.maximum(np.abs(lam2), 1e-12)


def _scan_verdicts(spec, t_grid, v_count=16):
    delta = critical_exponent(spec)
    axis = np.linspace(0.0, 2.0 * math.pi, v_count, endpoint=False)
    P = np.array([tr._column_phases(spec, [v], 0) for v in axis])
    rows = [_verdicts(spec, complex(delta, t), P) for t in t_grid]
    return np.concatenate([r for r, _ in rows]), np.concatenate([d for _, d in rows])


def _bench_scan_grid(seed):
    """The t grid of the benchmark's scan-b job at seed (bench/workloads.py)."""
    import importlib.util
    import sys
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)  # its dataclasses look their module up
    [argv] = [job.argv for job in workloads.numerics(seed) if job.name == "scan-b"]
    t_min, t_max = (float(argv[argv.index(flag) + 1]) for flag in ("--t-min", "--t-max"))
    return np.linspace(t_min, t_max, 25)


C5_T_GRID = np.linspace(0.05, 5.0, 25)


@pytest.mark.parametrize("case", ["delta-b24", "delta-b48", "delta-c20", "delta-c24",
                                  "c5-b48", "bench-scan-b48-seed1"])
def test_off_node_residual_agrees_with_doubling(case):
    # every shipped configuration: the residual and the doubled solve accept
    # the same points (all of them)
    name, N = ("b", 48) if case.startswith(("c5", "bench")) else (case[6], int(case[7:]))
    spec = OperatorSpec(from_schottky(load_group(f"fixture:{name}")), nodes_per_disk=N)
    if case.startswith("delta"):
        residual, doubling = _verdicts(spec, tr._solve_pressure_root(spec))
    else:
        t_grid = C5_T_GRID if case == "c5-b48" else _bench_scan_grid(1)
        residual, doubling = _scan_verdicts(spec, t_grid)
        assert residual.size == 400
    assert residual.all() and doubling.all()


def test_off_node_residual_no_looser_than_doubling(shift_b):
    # off the shipped configurations the residual is the stricter check: on
    # the C5 grid at N = 24 it accepts no point that doubling rejects (and
    # rejects 25 that doubling accepts); at N = 20, delta of b fails it with
    # r = 2.71e-8 where doubling moved lambda by 1.75e-9
    residual, doubling = _scan_verdicts(OperatorSpec(shift_b, nodes_per_disk=24), C5_T_GRID)
    assert not np.any(residual & ~doubling)
    assert np.count_nonzero(doubling & ~residual) == 25
    spec20 = OperatorSpec(shift_b, nodes_per_disk=20)
    [residual], [doubling] = _verdicts(spec20, tr._solve_pressure_root(spec20))
    assert doubling and not residual
    with pytest.raises(DiscretizationUnstable, match=r"^off-node residual 2\.71e-08 > 1e-08$"):
        critical_exponent(spec20)


def test_scan_row_solves_once_at_n_nodes(shift_b, delta_b, monkeypatch):
    # a C5-size row (N = 48, 16 twists) is one batched solve of the n N x n N
    # matrix; its off-node check solves nothing
    spec = OperatorSpec(shift_b, nodes_per_disk=48)
    solves, dense, solve = [], [], tr._dominant
    monkeypatch.setattr(sh, "_workers", lambda: 1)
    monkeypatch.setattr(tr, "_dominant",
                        lambda M, D=None: solves.append((M, D)) or solve(M, D))
    monkeypatch.setattr(tr, "_dense_leading", lambda A: dense.append(A))
    v_grid = [[x] for x in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)]
    assert len(spectral_radius_scan(spec, delta_b, [1.0], v_grid).rows) == 16
    [(M, D)] = solves
    assert M.shape == (192, 192) and D.shape == (16, 192) and not dense
