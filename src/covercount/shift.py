"""Subshifts of finite type with roof, Z^d cocycle and holonomy data, plus the
Gibbs/Parry sampler used for the cocycle CLT experiments.

Two flavours share one type: hand-built toy shifts carry per-transition
tables with closed-form thermodynamics, and Schottky boundary codings carry
an analytic roof (the log-derivative of the expanding boundary map).  All
per-transition data is indexed (first symbol, second symbol); the cocycle
increment of y = (y0, y1, ...) is the homology vector of the entering letter
y0, and the roof at y is log |(branch_{y0}^{-1})'| at the coded point.
The Parry chain (parry_chain) has one formula for both flavours: it reads
the transfer operator's per-transition blocks, one node per toy symbol.

The equilibrium sampler has one step kernel (_steps) for both flavours,
which advances a whole batch of trajectories per step.  The batch sampler
(sample_cocycle_batch) sums its increments, and the trajectory dump
(sample_trajectory) runs it on one trajectory and records every step.  On
Schottky codings the kernel forms all branch images as one (symbols,
trajectories) array and evaluates the eigenfunction h there by Clenshaw
recurrence on its per-disk Chebyshev coefficients.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from .errors import NotAtCriticalExponent, ValidationError
from .hyperbolic import fixed_points
from .schottky import SchottkyGroup


@dataclass(frozen=True)
class MarkovShift:
    """Aperiodic SFT with 2-block roof/cocycle/holonomy data."""

    k: int
    transition: np.ndarray           # (k, k) 0/1
    f: np.ndarray                    # (k, k, d) integer cocycle increments
    tau: Optional[np.ndarray] = None           # (k, k) roof; None for analytic
    theta: Optional[np.ndarray] = None         # (k, k) holonomy angles
    source: str = "Toy"              # "Toy" | "SchottkyCoding"
    group: Optional[SchottkyGroup] = None
    aperiodicity_power: int = field(default=0, compare=False)

    def __post_init__(self):
        A = np.asarray(self.transition, dtype=np.int64)
        object.__setattr__(self, "transition", A)
        object.__setattr__(self, "f", np.asarray(self.f, dtype=np.int64))
        if self.tau is not None:
            tau = np.asarray(self.tau, dtype=float)
            if np.min(tau[A > 0]) <= 0:
                raise ValidationError("roof must be positive on admissible transitions")
            object.__setattr__(self, "tau", tau)
        if self.theta is not None:
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "aperiodicity_power", _aperiodicity_power(A))

    @property
    def d(self) -> int:
        return self.f.shape[2]

    @property
    def analytic(self) -> bool:
        return self.tau is None

    def fingerprint(self) -> str:
        blob = {
            "k": self.k,
            "A": self.transition.tolist(),
            "f": self.f.tolist(),
            "tau": None if self.tau is None else self.tau.tolist(),
            "theta": None if self.theta is None else self.theta.tolist(),
            "source": self.source,
            "group": None if self.group is None else self.group.fingerprint(),
        }
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def _aperiodicity_power(A: np.ndarray) -> int:
    """Smallest N <= k^2 with A^N > 0 entrywise; raises if none exists."""
    k = A.shape[0]
    P = (A > 0).astype(np.int8)
    M = P.copy()
    for n in range(1, k * k + 1):
        if np.all(M > 0):
            return n
        M = ((M @ P) > 0).astype(np.int8)
    raise ValidationError("transition matrix is not aperiodic")


def toy_full_shift(k: int, c: float, f_values: Sequence[Sequence[int]],
                   theta_values: Optional[Sequence[float]] = None) -> MarkovShift:
    """Full shift on k symbols, constant roof c, per-symbol cocycle values."""
    if k < 2:
        raise ValidationError("toy full shift needs k >= 2")
    if c <= 0:
        raise ValidationError("roof constant must be positive")
    fv = np.asarray(f_values, dtype=np.int64)
    if fv.ndim == 1:
        fv = fv[:, None]
    if fv.shape[0] != k:
        raise ValidationError("need one cocycle value per symbol")
    d = fv.shape[1]
    A = np.ones((k, k), dtype=np.int64)
    tau = np.full((k, k), float(c))
    f = np.zeros((k, k, d), dtype=np.int64)
    for a in range(k):
        f[a, :, :] = fv[a]
    theta = None
    if theta_values is not None:
        theta = np.zeros((k, k))
        for a in range(k):
            theta[a, :] = theta_values[a]
    return MarkovShift(k=k, transition=A, f=f, tau=tau, theta=theta, source="Toy")


def toy_from_json(data: dict) -> MarkovShift:
    A = np.asarray(data["transition"], dtype=np.int64)
    k = A.shape[0]
    tau = np.asarray(data["tau"], dtype=float)
    f = np.asarray(data["f"], dtype=np.int64)
    if f.ndim == 2:  # per-symbol table
        full = np.zeros((k, k, f.shape[1]), dtype=np.int64)
        for a in range(k):
            full[a, :, :] = f[a]
        f = full
    theta = np.asarray(data["theta"], dtype=float) if data.get("theta") is not None else None
    return MarkovShift(k=k, transition=A, f=f, tau=tau, theta=theta, source="Toy")


def from_schottky(group: SchottkyGroup) -> MarkovShift:
    """Boundary coding of a Schottky group: 2g symbols, transitions forbid a
    letter followed by its inverse, analytic roof, per-letter homology."""
    n = group.n_symbols
    A = np.ones((n, n), dtype=np.int64)
    for a in range(n):
        A[a, sk.inverse_index(a)] = 0
    d = group.d
    f = np.zeros((n, n, d), dtype=np.int64)
    for a in range(n):
        f[a, :, :] = np.asarray(group.symbol_homology(a), dtype=np.int64)
    theta = None  # analytic holonomy lives on the group, queried per point
    return MarkovShift(k=n, transition=A, f=f, tau=None, theta=theta,
                       source="SchottkyCoding", group=group)


# -- periodic data of the coding -------------------------------------------


def periodic_point(group: SchottkyGroup, word: Sequence[int]) -> complex:
    """Attracting fixed point of the word's evaluation: the boundary point
    coded by the periodic symbol sequence word^infinity."""
    return fixed_points(group.evaluate(word))[0]


def _roof_term(group: SchottkyGroup, letter: int, x: complex) -> complex:
    """Complex roof log (branch_letter^{-1})'(x) = -2 Log(-c x + a)."""
    a, _, c, _ = group.symbol_matrix(sk.sym_index(letter))
    den = -c * x + a
    return complex(-2.0 * math.log(abs(den)), -2.0 * math.atan2(den.imag, den.real))


def cycle_roof_sum(group: SchottkyGroup, word: Sequence[int]) -> complex:
    """Complex roof sum tau_n + i theta_n along the periodic coding of a
    cyclically reduced word; theta_n is not wrapped.

    Each rotation's branch derivative is evaluated at its own attracting
    fixed point; this avoids iterating the expanding map.  By the chain rule
    the real part equals the translation length of the word's conjugacy
    class, and the imaginary part its holonomy angle modulo 2 pi.
    """
    if not sk.is_cyclically_reduced(word):
        raise ValidationError("cycle roof sums need a cyclically reduced word")
    total = 0j
    for r in range(len(word)):
        rot = tuple(word[r:]) + tuple(word[:r])
        total += _roof_term(group, rot[0], periodic_point(group, rot))
    return total


# -- Parry chain and cocycle sampling ---------------------------------------


@dataclass(frozen=True)
class ParryChain:
    """Symbol-level Markov chain of the equilibrium state at s = delta."""

    stationary: np.ndarray
    transitions: np.ndarray
    delta: float

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValidationError("chain rows must sum to 1")
        pi = np.asarray(self.stationary, dtype=float)
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise ValidationError("stationary vector fails pi P = pi")


def parry_chain(shift: MarkovShift, spectral) -> ParryChain:
    """Markov chain p(a -> b) = nu([ab]) / nu([a]) of nu = h d rho at
    s = delta, with nu([ab]) = sum rho_b exp(delta logd[a,b]) interp[a,b] h_a
    and nu([a]) = sum rho_a h_a over the nodes of the operator blocks.  On a
    toy shift (one node) this is B[a,b] rho_b / (lambda rho_a)."""
    lam = spectral.lam
    if abs(lam - 1.0) > 1e-8 or abs(complex(lam).imag) > 1e-8:
        raise NotAtCriticalExponent(f"leading eigenvalue {lam} != 1")
    if spectral.rho is None:
        raise ValidationError("parry_chain needs rho: leading_eigenvalue(want_measure=True)")
    grid = spectral.discretization
    h = np.real(spectral.h)
    rho = np.real(spectral.rho)
    n, N = shift.k, grid.nodes_per_disk
    delta = float(complex(spectral.s).real)
    nu_a = np.array([float(np.dot(rho[a * N:(a + 1) * N], h[a * N:(a + 1) * N]))
                     for a in range(n)])
    nu_ab = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if shift.transition[a, b] == 0:
                continue
            w = np.exp(delta * grid.logd[a, b])
            hvals = grid.interp[a, b] @ h[a * N:(a + 1) * N]
            nu_ab[a, b] = float(np.dot(rho[b * N:(b + 1) * N], w * hvals))
    return ParryChain(stationary=nu_a / nu_a.sum(),
                      transitions=nu_ab / nu_ab.sum(axis=1, keepdims=True), delta=delta)


def sample_cocycle_batch(chain: ParryChain, shift: MarkovShift, n: int,
                         n_traj: int, master_seed: int, spectral=None,
                         batch: int = 2048) -> tuple[np.ndarray, np.ndarray]:
    """(tau_n, f_n) over n_traj trajectories of n steps each.

    Trajectory i draws its randomness from default_rng([master_seed, i]), so
    results do not depend on batching or parallel schedule.  Toy shifts run
    the exact finite-state chain.  Schottky codings run the equilibrium
    process exactly: random inverse branches weighted by
    |branch'|^delta h(branch x) / h(x) with h the RPF eigenfunction, which
    reverses to the shift with marginal nu; the roof increments are the
    analytic branch derivatives along the trajectory.  Each batch of
    trajectories runs through one step kernel (see _steps); Schottky codings
    first burn in SCHOTTKY_BURN steps from the disk centers.
    """
    taus = np.zeros(n_traj)
    fs = np.zeros((n_traj, shift.d), dtype=np.int64)
    if n == 0:
        return taus, fs
    for lo in range(0, n_traj, batch):
        hi = min(lo + batch, n_traj)
        rngs = [np.random.default_rng([master_seed, i]) for i in range(lo, hi)]
        tau_n, f_n = taus[lo:hi], fs[lo:hi]
        for _, step_tau, step_f in _steps(chain, shift, n, rngs, spectral, SCHOTTKY_BURN):
            tau_n += step_tau
            f_n += step_f
    return taus, fs


def sample_trajectory(chain: ParryChain, shift: MarkovShift, n: int,
                      rng_seed: int, spectral=None) -> list[tuple]:
    """Per-step dump rows (step, symbol, tau_cum, f_cum...) of trajectory 0
    of seed rng_seed, run through the batch kernel with no burn-in.  Schottky
    symbols are letters (1, -1, 2, ...), toy symbols state indices."""
    label = sk.letter_of_index if shift.analytic else int
    rows = []
    tau_cum = 0.0
    f_cum = np.zeros(shift.d, dtype=np.int64)
    rngs = [np.random.default_rng([rng_seed, 0])]
    for step, (sym, step_tau, step_f) in enumerate(_steps(chain, shift, n, rngs,
                                                             spectral, burn=0)):
        tau_cum += float(step_tau[0])
        f_cum += step_f[0]
        rows.append((step, label(int(sym[0])), tau_cum, *f_cum.tolist()))
    return rows


SCHOTTKY_BURN = 192  # steps from the disk centers to the equilibrium of x
_CHUNK = 1024        # steps of uniforms drawn per generator call


def _uniforms(rngs, count: int):
    """count rows of uniforms, one per trajectory; trajectory i's column is
    the stream of rngs[i], drawn _CHUNK steps at a time."""
    for lo in range(0, count, _CHUNK):
        yield from np.stack([r.random(min(_CHUNK, count - lo)) for r in rngs], axis=1)


def _steps(chain: ParryChain, shift: MarkovShift, n: int, rngs, spectral, burn: int):
    """The sampler kernel: n steps of all len(rngs) trajectories at once,
    yielding per step (symbol, roof increment, cocycle increment) arrays.

    Each trajectory first draws its start symbol from the stationary law,
    then one uniform per step (burn-in included).
    """
    if shift.analytic:
        return _schottky_steps(chain, shift, n, rngs, spectral, burn)
    return _toy_steps(chain, shift, n, rngs)


def _toy_steps(chain: ParryChain, shift: MarkovShift, n: int, rngs):
    """The exact finite-state chain, with the 2-block tables read flat."""
    k = shift.k
    cum_p = np.cumsum(chain.transitions, axis=1)
    cum_pi = np.cumsum(chain.stationary)
    tau = shift.tau.ravel()
    f = shift.f.reshape(k * k, shift.d)
    state = np.searchsorted(cum_pi, [r.random() for r in rngs])
    for u in _uniforms(rngs, n):
        nxt = np.minimum((cum_p[state] < u[:, None]).sum(axis=1), k - 1)
        pair = state * k + nxt
        yield nxt, tau.take(pair), f.take(pair, axis=0)
        state = nxt


def _schottky_steps(chain: ParryChain, shift: MarkovShift, n: int, rngs, spectral,
                    burn: int):
    """Backward h-weighted branch chain; Birkhoff sums read along it equal
    forward sums under the equilibrium measure.

    From the point x (real: it stays on the trace of the disks) each step
    weighs every branch b by |gamma_b'(x)|^delta h(gamma_b x) and zeroes the
    inverse of the current symbol, with all (nsym, m) branch images at once
    and h evaluated by Clenshaw on its per-disk Chebyshev coefficients.
    """
    if spectral is None:
        raise ValidationError("schottky sampling needs the spectral result at delta")
    group = shift.group
    grid = spectral.discretization
    coeffs = grid.chebyshev_coeffs(np.real(spectral.h))
    nsym = shift.k
    a, b, c, d = np.array([group.symbol_matrix(s) for s in range(nsym)]).real.T[..., None]
    f_sym = np.array([group.symbol_homology(s) for s in range(nsym)],
                     dtype=np.int64).reshape(nsym, group.d)
    inverse = np.array([sk.inverse_index(s) for s in range(nsym)])
    expo = -2.0 * chain.delta
    cols = np.arange(len(rngs))
    cum_pi = np.cumsum(chain.stationary)
    sym = np.minimum(np.searchsorted(cum_pi, [r.random() for r in rngs]), nsym - 1)
    x = grid.centers[sym]
    for step, u in enumerate(_uniforms(rngs, n + burn)):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            den = c * x + d  # (nsym, m): branch b's image of every trajectory
            # num * (1 / den) is numpy's complex quotient of real operands
            y = (a * x + b) * (1.0 / den)
            w = np.abs(den) ** expo * grid.clenshaw(coeffs, y)
        w[inverse[sym], cols] = 0.0
        cum = np.cumsum(w, axis=0)
        pick = np.minimum((cum < u * cum[-1]).sum(axis=0), nsym - 1)
        if step >= burn:
            yield pick, 2.0 * np.log(np.abs(den[pick, cols])), f_sym[pick]
        x = y[pick, cols]
        sym = pick
