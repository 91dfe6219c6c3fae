import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covercount import errors
from covercount import schottky as sk
from covercount import shift as sh
from covercount import transfer as tr
from covercount.errors import DiscretizationUnstable, NotAtCriticalExponent, ValidationError
from covercount.hyperbolic import geodesic_invariants, wrap_angle
from covercount.shift import (MarkovShift, branch_weight_series, cycle_roof_sum,
                              from_schottky, parry_chain, sample_cocycle_batch,
                              sample_trajectory, toy_from_json)

from conftest import canonical_rotation, toy_full_shift


def toy_to_json(shift: MarkovShift) -> dict:
    """The inverse of toy_from_json; only the round-trip test writes toy data."""
    return {
        "transition": shift.transition.tolist(),
        "tau": shift.tau.tolist(),
        "f": shift.f.tolist(),
        "theta": None if shift.theta is None else shift.theta.tolist(),
    }


def test_toy_full_shift_structure():
    s = toy_full_shift(2, 1.0, [[1], [-1]])
    assert s.k == 2 and s.d == 1
    assert np.all(s.transition == 1)
    assert np.all(s.tau == 1.0)
    assert s.f[0, 0, 0] == 1 and s.f[1, 0, 0] == -1
    assert sh._aperiodicity_power(s.transition) == 1


def test_toy_shift_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        toy_full_shift(2, -1.0, [[1], [-1]])


@pytest.mark.parametrize("field,value", [
    ("transition", np.ones((2, 3))), ("f", np.zeros((3, 2, 1))), ("f", np.zeros((2, 2))),
    ("tau", np.ones(2)), ("theta", np.zeros((2, 3)))])
def test_markov_shift_rejects_tables_of_another_k(field, value):
    tables = {"transition": np.ones((2, 2)), "f": np.zeros((2, 2, 1)), "tau": np.ones((2, 2)),
              "theta": np.zeros((2, 2)), field: value}
    with pytest.raises(ValidationError, match=f"^{field} has shape"):
        MarkovShift(**tables)


_TOY2 = {"transition": [[1, 1], [1, 1]], "tau": [[1.0, 1.0], [1.0, 1.0]], "f": [[1], [-1]]}


@pytest.mark.parametrize("data,match", [
    ({**_TOY2, "f": [[0.5], [-1]]}, "^f entries must be integers$"),
    ({"transition": [[1, 1, -1], [1, 1, 1], [1, 1, 1]], "tau": np.ones((3, 3)),
      "f": [[1], [-1], [0]]}, "^transition entries must be 0 or 1$"),
    ({**_TOY2, "theta": [[math.nan, 0.0], [0.0, 0.0]]}, "^theta must be finite$"),
], ids=["f-half", "transition-minus-one", "theta-nan"])
def test_toy_tables_are_read_exactly(data, match):
    # an int64 cast read f = 0.5 as 0; a -1 step was forbidden to the
    # aperiodicity test but allowed to the operator and the Parry chain; a NaN
    # theta reached LAPACK at p = 1
    with pytest.raises(ValidationError, match=match):
        toy_from_json(data)


def test_boolean_transition_rejected():
    # np.isin took True for 1
    with pytest.raises(ValidationError, match="^transition entries must be integers$"):
        MarkovShift(transition=np.ones((2, 2), dtype=bool), f=np.zeros((2, 2, 1), dtype=int),
                    tau=np.ones((2, 2)))


def test_toy_json_roundtrip():
    s = toy_full_shift(3, 0.5, [[1, 0], [0, 1], [-1, -1]])
    back = toy_from_json(toy_to_json(s))
    assert np.array_equal(back.transition, s.transition)
    assert np.array_equal(back.f, s.f)
    assert np.array_equal(back.tau, s.tau)
    assert back.fingerprint() == s.fingerprint()


def test_from_schottky_structure(group_b, shift_b):
    s = shift_b
    assert s.k == 4
    assert s.group is group_b
    assert s.analytic
    # zeros exactly on the letter-followed-by-inverse entries
    for a in range(4):
        for b in range(4):
            assert s.transition[a, b] == (0 if b == (a ^ 1) else 1)
    assert sh._aperiodicity_power(s.transition) == 2
    # f of a transition entering letter g1 is the first homology column
    col = np.asarray(group_b.homology_matrix[:, 0])
    assert np.array_equal(s.f[sk.sym_index(1), sk.sym_index(2)], col)
    assert np.array_equal(s.f[sk.sym_index(-1), sk.sym_index(2)], -col)


def test_aperiodicity_rejects_reducible():
    A = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValidationError):
        MarkovShift(transition=A, f=np.zeros((2, 2, 0), dtype=int), tau=np.ones((2, 2)))


def test_cycle_roof_sums_match_translation_lengths(group_b):
    letters = [1, -1, 2, -2]
    worst = 0.0
    for n in range(1, 6):
        for word in itertools.product(letters, repeat=n):
            if not sk.is_cyclically_reduced(word):
                continue
            if word != canonical_rotation(word):
                continue
            ell, _ = geodesic_invariants(group_b.evaluate(word))
            worst = max(worst, abs(cycle_roof_sum(group_b, word).real - ell))
    assert worst < 1e-9


def test_cycle_roof_rotation_invariance(group_b):
    word = (1, 2, -1, 2, 2)
    base = cycle_roof_sum(group_b, word).real
    for r in range(1, len(word)):
        rot = word[r:] + word[:r]
        assert_allclose(cycle_roof_sum(group_b, rot).real, base, atol=1e-9)


def test_cycle_holonomy_sums_match_invariants(group_d0):
    letters = [1, -1, 2, -2]
    for n in range(1, 5):
        for word in itertools.product(letters, repeat=n):
            if not sk.is_cyclically_reduced(word):
                continue
            if word != canonical_rotation(word):
                continue
            length, holonomy = geodesic_invariants(group_d0.evaluate(word))
            total = cycle_roof_sum(group_d0, word)
            assert_allclose(total.real, length, atol=1e-9)
            dtheta = abs(wrap_angle(total.imag) - holonomy)
            dtheta = dtheta % (2 * math.pi)
            assert min(dtheta, 2 * math.pi - dtheta) < 1e-9


# -- Parry chains ------------------------------------------------------------

def test_parry_chain_toy_uniform():
    for k in (2, 3):
        s = toy_full_shift(k, 1.0, [[1]] + [[-1]] * (k - 1))
        spec = tr.OperatorSpec(s)
        sr = tr.leading_eigenvalue(spec, math.log(k), want_measure=True)
        chain = parry_chain(sr)
        assert_allclose(chain.transitions, np.full((k, k), 1.0 / k), atol=1e-10)
        assert_allclose(chain.stationary, np.full(k, 1.0 / k), atol=1e-10)


def test_parry_chain_requires_critical_exponent(toy2):
    spec = tr.OperatorSpec(toy2)
    sr = tr.leading_eigenvalue(spec, 0.5, want_measure=True)
    with pytest.raises(NotAtCriticalExponent):
        parry_chain(sr)


def test_parry_chain_respects_disk_symmetry(spectral_b):
    # z -> -z swaps each generator with its inverse: p(a -> b) = p(abar -> bbar)
    chain = parry_chain(spectral_b)
    P = chain.transitions
    for a in range(4):
        for b in range(4):
            assert abs(P[a, b] - P[a ^ 1, b ^ 1]) < 1e-6
    assert_allclose(chain.stationary @ chain.transitions, chain.stationary,
                    atol=1e-10)


@pytest.mark.parametrize("kind", ["toy", "schottky"])
def test_parry_chain_requires_eigenmeasure(kind, toy2, spec_b, delta_b):
    if kind == "toy":
        sr = tr.leading_eigenvalue(tr.OperatorSpec(toy2), math.log(2.0))
    else:
        sr = tr.leading_eigenvalue(spec_b, delta_b)
    assert sr.rho is None
    with pytest.raises(ValidationError, match="want_measure"):
        parry_chain(sr)


def _reference_symbol_chain(shift, spectral):
    """The collocation chain before toy and Schottky shifts shared one
    formula: cylinder masses nu([a]) and nu([ab]) of nu = h d rho, with each
    branch's log-derivative and interpolation block formed from the group."""
    disc = spectral.spec.grid
    group = shift.group
    h = np.real(spectral.h)
    ell = np.real(spectral.rho)  # quadrature weights of the eigenmeasure
    n = shift.k
    N = disc.nodes_per_disk
    delta = float(complex(spectral.s).real)
    nu_a = np.array([float(np.dot(ell[a * N:(a + 1) * N], h[a * N:(a + 1) * N]))
                     for a in range(n)])
    nu_ab = np.zeros((n, n))
    for a in range(n):
        ma = group.symbol_matrix(a)
        for b in range(n):
            if shift.transition[a, b] == 0:
                continue
            x = disc.nodes[b]
            den = ma[2] * x + ma[3]
            w = np.exp(delta * -2.0 * np.log(np.abs(den)))
            y = (ma[0] * x + ma[1]) / den
            hvals = disc.interp_values(a, y.real) @ h[a * N:(a + 1) * N]
            nu_ab[a, b] = float(np.dot(ell[b * N:(b + 1) * N], w * hvals))
    return nu_a / nu_a.sum(), nu_ab / nu_ab.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name,nodes", [("b", 24), ("c", 20)])
def test_parry_chain_matches_reference_loop(name, nodes, group_b, group_c):
    shift = from_schottky({"b": group_b, "c": group_c}[name])
    spec = tr.OperatorSpec(shift, nodes_per_disk=nodes)
    sr = tr.leading_eigenvalue(spec, tr.critical_exponent(spec), want_measure=True)
    chain = parry_chain(sr)
    pi, P = _reference_symbol_chain(shift, sr)
    assert_allclose(chain.stationary, pi, rtol=0, atol=1e-14)
    assert_allclose(chain.transitions, P, rtol=0, atol=1e-14)


def test_parry_chain_toy_closed_form(toy3_mixed):
    # p(a -> b) = B[a,b] rho_b / (lambda rho_a), B = A e^{-delta tau}; pi = h rho
    shift = toy3_mixed
    spec = tr.OperatorSpec(shift)
    delta = tr.critical_exponent(spec)
    sr = tr.leading_eigenvalue(spec, delta, want_measure=True)
    chain = parry_chain(sr)
    B = shift.transition * np.exp(-delta * shift.tau)
    rho, h, lam = np.real(sr.rho), np.real(sr.h), sr.lam.real
    # rows of the closed form sum to 1 only up to the eigensolver's residual
    # (power iteration stops at 1e-12 |lambda|); the chain normalizes them
    assert_allclose(chain.transitions, B * rho[None, :] / (lam * rho[:, None]),
                    rtol=0, atol=1e-11)
    assert_allclose(chain.stationary, h * rho / np.dot(h, rho), rtol=0, atol=1e-14)
    assert np.all(chain.transitions[shift.transition == 0] == 0.0)


# -- cocycle sampling ----------------------------------------------------------

def test_sample_cocycle_zero_steps(toy2):
    spec = tr.OperatorSpec(toy2)
    sr = tr.leading_eigenvalue(spec, math.log(2.0), want_measure=True)
    tau, f = sample_cocycle_batch(sr, 0, 1, master_seed=7)
    assert tau[0] == 0.0
    assert np.all(f[0] == 0)


def test_sample_cocycle_constant_roof_exact(toy2):
    spec = tr.OperatorSpec(toy2)
    sr = tr.leading_eigenvalue(spec, math.log(2.0), want_measure=True)
    tau, f = sample_cocycle_batch(sr, 250, 8, master_seed=3)
    assert_allclose(tau, 250.0, atol=1e-12)  # tau_n = n c exactly
    assert f.shape == (8, 1)


def test_sample_cocycle_zero_drift(toy2):
    spec = tr.OperatorSpec(toy2)
    sr = tr.leading_eigenvalue(spec, math.log(2.0), want_measure=True)
    n, m = 400, 600
    tau, f = sample_cocycle_batch(sr, n, m, master_seed=11)
    mean = f[:, 0].mean() / n
    se = f[:, 0].std(ddof=1) / n / math.sqrt(m)
    assert abs(mean) < 3 * se + 1e-12


def test_sampler_deterministic_per_trajectory(toy2, spectral_b, monkeypatch):
    spec = tr.OperatorSpec(toy2)
    sr = tr.leading_eigenvalue(spec, math.log(2.0), want_measure=True)
    for spectral in (sr, spectral_b):
        monkeypatch.setattr(sh, "BATCH", 2)
        t1, f1 = sample_cocycle_batch(spectral, 100, 6, master_seed=5)
        monkeypatch.setattr(sh, "BATCH", 6)
        t2, f2 = sample_cocycle_batch(spectral, 100, 6, master_seed=5)
        assert np.array_equal(t1, t2) and np.array_equal(f1, f2)
        _, f3 = sample_cocycle_batch(spectral, 100, 6, master_seed=6)
        assert not np.array_equal(f1, f3)


def test_uniforms_follow_each_generator_across_chunks():
    count = sh._CHUNK + 3
    rows = [u.copy() for u in sh._uniforms([np.random.default_rng([4, i])
                                              for i in range(3)], count)]
    assert len(rows) == count
    for i, column in enumerate(np.array(rows).T):
        assert np.array_equal(column, np.random.default_rng([4, i]).random(count))


def test_toy_batch_matches_searchsorted_loop(toy3_mixed, monkeypatch):
    monkeypatch.setattr(sh, "BATCH", 16)
    shift = toy3_mixed
    spec = tr.OperatorSpec(shift)
    sr = tr.leading_eigenvalue(spec, tr.critical_exponent(spec), want_measure=True)
    chain = parry_chain(sr)
    n, m, seed = 300, 40, 13
    tau, f = sample_cocycle_batch(sr, n, m, master_seed=seed)
    cum_pi = np.cumsum(chain.stationary)
    cum_p = np.cumsum(chain.transitions, axis=1)
    for i in range(m):
        rng = np.random.default_rng([seed, i])
        state = int(np.searchsorted(cum_pi, rng.random()))
        tau_ref, f_ref = 0.0, np.zeros(shift.d, dtype=np.int64)
        for u in rng.random(n):
            nxt = min(int(np.searchsorted(cum_p[state], u)), shift.k - 1)
            tau_ref += shift.tau[state, nxt]
            f_ref += shift.f[state, nxt]
            state = nxt
        assert tau[i] == tau_ref and np.array_equal(f[i], f_ref)


def test_toy_start_state_above_the_last_cumulative_weight(toy2):
    # the stationary law sums to 1 - 2^-52, within ParryChain's tolerance, and
    # the start uniform 1 - 2^-53 lies above it: the start is the last state
    chain = sh.ParryChain(stationary=np.array([0.5, 0.5 - 2.0 ** -52]),
                          transitions=np.full((2, 2), 0.5))

    class LastUniform:
        def random(self, out=None):
            if out is None:
                return 1.0 - 2.0 ** -53
            out[:] = 1.0 - 2.0 ** -53

    (sym, tau, f), = sh._toy_steps(chain, toy2, 1, [LastUniform()])
    assert sym.tolist() == [1] and tau.tolist() == [1.0]
    assert f.tolist() == [[-1]]  # f[a, b] is symbol a's: the start state was 1


@pytest.mark.parametrize("name,N", [("b", 24), ("c", 24), ("b", 48)], ids=["b", "c", "b-48"])
def test_branch_weight_series_matches_direct_formula(name, N, group_b, group_c):
    # oracle: |den|^-2delta times h's interpolant on disk b at the branch image,
    # summed by numpy's chebval from h's Chebyshev coefficients
    group = {"b": group_b, "c": group_c}[name]
    spec = tr.OperatorSpec(from_schottky(group), nodes_per_disk=N)
    sr = tr.leading_eigenvalue(spec, tr.critical_exponent(spec), want_measure=True)
    grid, nsym = spec.grid, spec.shift.k
    delta = float(sr.s.real)
    coeffs = grid.chebyshev_coeffs(np.real(sr.h))
    G = branch_weight_series(sr)
    t = np.random.default_rng(17).uniform(-1.0, 1.0, 200)
    for s in range(nsym):
        x = grid.centers[s] + grid.radii[s] * t
        for b in range(nsym):
            got = np.polynomial.chebyshev.chebval(t, G[s, b])
            if b == sk.inverse_index(s):
                assert np.all(G[s, b] == 0.0) and np.all(got == 0.0)
                continue
            a_, b_, c_, d_ = np.real(group.symbol_matrix(b))
            den = c_ * x + d_
            y = (a_ * x + b_) / den
            hy = np.polynomial.chebyshev.chebval((y - grid.centers[b]) / grid.radii[b], coeffs[b])
            assert_allclose(got, np.abs(den) ** (-2.0 * delta) * hy, rtol=1e-13, atol=0)


# Reference samplers: the per-branch barycentric loop and the scalar dump loop
# that the vectorized kernel replaced.  The kernel must reproduce
# their picks exactly; x is carried as complex numbers here.

def _reference_schottky_batch(chain, shift, n, rngs, spectral, burn=192):
    group = shift.group
    disc = spectral.spec.grid
    delta = float(spectral.s.real)
    h = np.real(spectral.h)
    N = disc.nodes_per_disk
    nsym = shift.k
    m = len(rngs)
    mats = np.array([group.symbol_matrix(a) for a in range(nsym)])
    f_sym = np.array([group.abelianize((sk.letter_of_index(a),)) for a in range(nsym)],
                     dtype=np.int64).reshape(nsym, group.d)
    cum_pi = np.cumsum(chain.stationary)
    u0 = np.array([r.random() for r in rngs])
    sym = np.minimum(np.searchsorted(cum_pi, u0), nsym - 1).astype(np.int64)
    x = np.array([group.disks[a].center for a in sym], dtype=complex)
    tau_n = np.zeros(m)
    f_n = np.zeros((m, group.d), dtype=np.int64)
    total = n + burn
    done = 0
    rows = np.arange(m)
    while done < total:
        take = min(1024, total - done)
        u = np.stack([r.random(take) for r in rngs], axis=0)
        for j in range(take):
            weights = np.zeros((m, nsym))
            ys = np.zeros((m, nsym), dtype=complex)
            for b in range(nsym):
                allowed = sym != (b ^ 1)
                mb = mats[b]
                with np.errstate(divide="ignore", invalid="ignore"):
                    den = mb[2] * x + mb[3]
                    y = (mb[0] * x + mb[1]) / den
                ys[:, b] = y
                hy = np.zeros(m)
                hy[allowed] = disc.interp_values(b, y[allowed].real) @ h[b * N:(b + 1) * N]
                weights[allowed, b] = np.abs(den[allowed]) ** (-2.0 * delta) * hy[allowed]
            cum = np.cumsum(weights, axis=1)
            pick = np.minimum((cum < (u[:, j] * cum[:, -1])[:, None]).sum(axis=1), nsym - 1)
            mb = mats[pick]
            den = mb[:, 2] * x + mb[:, 3]
            step_tau = 2.0 * np.log(np.abs(den))
            x = ys[rows, pick]
            sym = pick
            if done + j >= burn:
                tau_n += step_tau
                f_n += f_sym[pick]
        done += take
    return tau_n, f_n


def _reference_schottky_dump(chain, shift, n, rng_seed, spectral):
    rng = np.random.default_rng([rng_seed, 0])
    state = int(np.searchsorted(np.cumsum(chain.stationary), rng.random()))
    group = shift.group
    disc = spectral.spec.grid
    delta = float(spectral.s.real)
    h = np.real(spectral.h)
    N = disc.nodes_per_disk
    x = group.disks[state].center
    rows = []
    tau_cum = 0.0
    f_cum = np.zeros(shift.d, dtype=np.int64)
    for step in range(n):
        weights = []
        for b in range(shift.k):
            if state == (b ^ 1):
                weights.append(0.0)
                continue
            mb = group.symbol_matrix(b)
            den = mb[2] * x + mb[3]
            y = (mb[0] * x + mb[1]) / den
            hy = float(disc.interp_values(b, np.array([y.real]))[0] @ h[b * N:(b + 1) * N])
            weights.append(abs(den) ** (-2.0 * delta) * hy)
        cum = np.cumsum(weights)
        b = min(int(np.searchsorted(cum, rng.random() * cum[-1])), shift.k - 1)
        mb = group.symbol_matrix(b)
        den = mb[2] * x + mb[3]
        tau_cum += 2.0 * math.log(abs(den))
        f_cum = f_cum + np.asarray(group.abelianize((sk.letter_of_index(b),)), dtype=np.int64)
        x = (mb[0] * x + mb[1]) / den
        state = b
        rows.append((step, sk.letter_of_index(b), tau_cum, *f_cum.tolist()))
    return rows


@pytest.mark.parametrize("name,seed", [("b", 7), ("b", 20260808), ("c", 7), ("c", 20260808)],
                         ids=["7", "20260808", "c-7", "c-20260808"])
def test_schottky_kernel_matches_reference_loop(name, seed, request):
    shift = request.getfixturevalue(f"shift_{name}")
    spectral = request.getfixturevalue(f"spectral_{name}")
    chain = parry_chain(spectral)
    n, m = 300, 64
    tau, f = sample_cocycle_batch(spectral, n, m, master_seed=seed)
    rngs = [np.random.default_rng([seed, i]) for i in range(m)]
    tau_ref, f_ref = _reference_schottky_batch(chain, shift, n, rngs, spectral)
    assert np.array_equal(tau, tau_ref)
    assert np.array_equal(f, f_ref)


@pytest.mark.parametrize("name", ["b", "c"])
def test_pick_table_bounds_the_series_on_every_cell(name, request):
    # every cell's [LO_r, HI_r] holds C_r / S of the exact path at 64 points inside it
    shift = request.getfixturevalue(f"shift_{name}")
    G = branch_weight_series(request.getfixturevalue(f"spectral_{name}"))
    nsym, cells = shift.k, sh.CELLS
    lo, hi = sh._pick_table(G).reshape(2, nsym - 1, nsym, cells + 2)[..., 1:-1]
    inside = (np.arange(64) + 0.5) / 64
    for s in range(nsym):
        for js in np.array_split(np.arange(cells), 512):
            t = (-1.0 + (js[:, None] + inside) * (2.0 / cells)).ravel()
            cum = sh._series_cum(G, np.full(len(t), s), t)
            theta = (cum[:-1] / cum[-1]).reshape(nsym - 1, len(js), 64)
            assert np.all(lo[:, s, js, None] <= theta) and np.all(theta <= hi[:, s, js, None])


@pytest.mark.parametrize("name", ["b", "c"])
def test_table_picks_match_the_series(name, request):
    # random (state, t, u); the first 1000 have u within 1e-15 of a computed
    # C_r / S and the next 200 a t a few ulps outside [-1, 1]: all of those
    # must go to the series
    shift = request.getfixturevalue(f"shift_{name}")
    G = branch_weight_series(request.getfixturevalue(f"spectral_{name}"))
    table, nsym = sh._pick_table(G), shift.k
    rng = np.random.default_rng(23)
    m, near, out = 50_000, 1000, 200
    sym = rng.integers(0, nsym, m)
    t = rng.uniform(-1.0, 1.0, m)
    u = rng.random(m)
    cum = sh._series_cum(G, sym[:near], t[:near])
    theta = cum[rng.integers(0, nsym - 1, near), np.arange(near)] / cum[-1]
    u[:near] = np.maximum(theta + rng.uniform(-1e-15, 1e-15, near), 0.0)
    side = rng.choice([-1.0, 1.0], out)
    t[near:near + out] = side * (1.0 + rng.integers(1, 5, out) * np.finfo(float).eps)
    pick, unsure = sh._table_picks(table, sym, t, u)
    cum = sh._series_cum(G, sym, t)
    exact = np.minimum((cum < u * cum[-1]).sum(axis=0), nsym - 1)
    assert np.all(unsure[:near + out])
    assert unsure[near + out:].mean() < 1e-2
    assert np.array_equal(pick[~unsure], exact[~unsure])


def test_schottky_dump_matches_reference_loop(shift_b, spectral_b):
    chain = parry_chain(spectral_b)
    rows = sample_trajectory(spectral_b, 400, 7)
    ref = _reference_schottky_dump(chain, shift_b, 400, 7, spectral_b)
    assert len(rows) == len(ref) == 400
    for got, want in zip(rows, ref):
        assert got[:2] == want[:2] and got[3:] == want[3:]  # step, symbol, f_cum
        assert got[2] == pytest.approx(want[2], rel=1e-12)  # tau_cum


def test_toy_dump_matches_reference_loop():
    shift = toy_full_shift(3, 0.7, [[1], [-1], [0]])
    shift = MarkovShift(transition=shift.transition, f=shift.f,
                        tau=shift.tau * np.array([[1.0, 2.0, 0.5]]))
    spec = tr.OperatorSpec(shift)
    sr = tr.leading_eigenvalue(spec, tr.critical_exponent(spec), want_measure=True)
    chain = parry_chain(sr)
    rng = np.random.default_rng([5, 0])
    state = int(np.searchsorted(np.cumsum(chain.stationary), rng.random()))
    cum_p = np.cumsum(chain.transitions, axis=1)
    ref, tau_cum, f_cum = [], 0.0, np.zeros(1, dtype=np.int64)
    for step in range(300):
        nxt = min(int(np.searchsorted(cum_p[state], rng.random())), 2)
        tau_cum += float(shift.tau[state, nxt])
        f_cum = f_cum + shift.f[state, nxt]
        ref.append((step, nxt, tau_cum, *f_cum.tolist()))
        state = nxt
    assert sample_trajectory(sr, 300, 5) == ref


def test_schottky_sampler_statistics(spectral_b, surface_b):
    tau, f = sample_cocycle_batch(spectral_b, 2000, 400, master_seed=9)
    assert np.all(tau > 0)
    z = f[:, 0] / np.sqrt(tau)
    # loose 4-sigma-ish band around the Hessian variance at this sample size
    assert abs(z.var() / surface_b.sigma - 1.0) < 0.35


# -- work shared between processes ---------------------------------------------------


def test_fork_map_runs_other_chunks_in_children():
    # chunk 0 stays here; a result larger than a pipe buffer comes back whole
    out = sh._fork_map(lambda c: (os.getpid(), np.full(50_000, c)), [0, 1, 2])
    pids = [pid for pid, _ in out]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    for c, (_, values) in enumerate(out):
        assert np.array_equal(values, np.full(50_000, c))


def test_fork_map_nested_call_runs_serially():
    inner = lambda c: sh._fork_map(lambda _: os.getpid(), [0, 1])  # noqa: E731
    _, (pid, pid_again) = sh._fork_map(inner, [0, 1])
    assert pid == pid_again != os.getpid()


@pytest.mark.parametrize("raising", [0, 1], ids=["parent-chunk", "child-chunk"])
def test_fork_map_reraises_and_reaps(raising):
    def fn(c):
        if c == raising:
            raise DiscretizationUnstable("off-node residual 3.70e-05 > 1e-08")
        return c

    with pytest.raises(DiscretizationUnstable) as info:
        sh._fork_map(fn, [0, 1, 2])
    assert type(info.value) is DiscretizationUnstable
    assert str(info.value) == "off-node residual 3.70e-05 > 1e-08"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _subclasses(cls):
    return {cls}.union(*(_subclasses(c) for c in cls.__subclasses__()))


def test_every_error_survives_pickling():
    # a worker process's error reaches cli.main by pickle
    samples = [
        errors.CovercountError("plain"), errors.ValidationError("bad group"),
        errors.DisksOverlap([(0, 1)]), errors.PairingBroken(2, "at 1.5"),
        errors.RankDeficientHomology(1, 2), errors.NotLoxodromic("elliptic"),
        errors.PoleAtPoint("z = 3"), errors.BudgetExceeded(100),
        errors.NotConverged("residual 1.2e-03"),
        errors.NotConverged("in 200 Brent iterations", what="pressure root did not converge"),
        errors.DiscretizationUnstable("moved"), errors.BracketFailed("no bracket"),
        errors.HessianNotPD("eigenvalues"), errors.NotAtCriticalExponent("lambda 2"),
        errors.HolonomyUnavailable("no theta"), errors.InsufficientData("3 samples"),
        errors.SingularReference("det 0"),
    ]
    assert {type(e) for e in samples} == _subclasses(errors.CovercountError)
    for e in samples:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e) and str(back) == str(e)
        assert back.__dict__ == e.__dict__


def test_scan_stays_in_one_process_without_a_blas_variable(monkeypatch):
    # unset, OpenBLAS runs one thread per CPU, so the scan's solves take them all
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(sh, "_cpus", lambda: 4)
    assert sh._workers() == 1


@pytest.mark.skipif(sh._cpus() < 2, reason="needs two usable CPUs")
def test_sampler_forks_at_the_default_blas_threads(spectral_b, monkeypatch):
    # a process whose OpenBLAS started one thread per CPU forks the sampler,
    # whose steps call no BLAS, over every usable CPU, with one process's bits
    script = """if True:
        import hashlib, pickle, sys
        from covercount import shift as sh
        spectral = pickle.load(sys.stdin.buffer)
        chunks, fork_map = [], sh._fork_map
        sh._fork_map = lambda fn, parts: chunks.append(len(parts)) or fork_map(fn, parts)
        tau, f = sh.sample_cocycle_batch(spectral, 300, 1000, 3)
        print(chunks[0], hashlib.sha256(tau.tobytes() + f.tobytes()).hexdigest())
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(sh.__file__))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          input=pickle.dumps(spectral_b),
                          timeout=300, check=True)
    forked, bits = done.stdout.decode().split()
    assert int(forked) == sh._cpus()
    monkeypatch.setattr(sh, "_cpus", lambda: 1)
    tau, f = sample_cocycle_batch(spectral_b, 300, 1000, 3)
    assert bits == hashlib.sha256(tau.tobytes() + f.tobytes()).hexdigest()


@pytest.mark.parametrize("n_traj", [1, 7, 4096])
def test_sampler_same_bits_in_two_processes(n_traj, toy2, spectral_b, monkeypatch):
    sr = tr.leading_eigenvalue(tr.OperatorSpec(toy2), math.log(2.0), want_measure=True)
    for spectral in (sr, spectral_b):
        got = []
        for workers in (1, 2):
            monkeypatch.setattr(sh, "_cpus", lambda: workers)
            got.append(sample_cocycle_batch(spectral, 40, n_traj, master_seed=3))
        (t1, f1), (t2, f2) = got
        assert np.array_equal(t1, t2) and np.array_equal(f1, f2)
