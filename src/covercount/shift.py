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

The equilibrium sampler has one step kernel (_kernel) for both flavours,
which advances a whole batch of trajectories per step.  The batch sampler
(sample_cocycle_batch) sums its increments, and the trajectory dump
(sample_trajectory) runs it on one trajectory and records every step.  Each
takes the spectral result at delta alone, which fixes the shift, the grid
and the Parry chain.  On Schottky codings the step weight of branch b at a
point x of disk s, |gamma_b'(x)|^delta h(gamma_b x), is one fixed analytic
function of x per pair (s, b).  Its Chebyshev series on disk s's interval is
computed once (branch_weight_series) from its values at the 2N first-kind
nodes, which the collocation grid's off-node blocks already hold.  From the
series, a table built once per run (_pick_table) bounds every branch
threshold on each of CELLS cells per disk, so a step picks its branch by a
lookup; only where the bounds straddle the step's uniform does it sum the
series, by elementwise products (_series_cum).  No step calls BLAS, and only
the picked branch's image and roof are formed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from .errors import NotAtCriticalExponent, ValidationError
from .hyperbolic import fixed_points
from .schottky import SchottkyGroup


@dataclass(frozen=True, eq=False)
class MarkovShift:
    """Aperiodic SFT with 2-block roof/cocycle/holonomy data.  Its tables are
    arrays, so a shift compares and hashes by identity."""

    transition: np.ndarray           # (k, k) 0/1
    f: np.ndarray                    # (k, k, d) integer cocycle increments
    tau: Optional[np.ndarray] = None           # (k, k) roof; None for analytic
    theta: Optional[np.ndarray] = None         # (k, k) holonomy angles
    group: Optional[SchottkyGroup] = None

    def __post_init__(self):
        A = np.asarray(self.transition, dtype=np.int64)
        object.__setattr__(self, "transition", A)
        object.__setattr__(self, "f", np.asarray(self.f, dtype=np.int64))
        k = self.k
        for name in ("transition", "f", "tau", "theta"):
            table, ndim = getattr(self, name), 3 if name == "f" else 2
            if table is not None and (np.ndim(table) != ndim or np.shape(table)[:2] != (k, k)):
                raise ValidationError(f"{name} has shape {np.shape(table)}, "
                                      f"not ({k}, {k}{', d' if ndim == 3 else ''})")
        if self.tau is not None:
            tau = np.asarray(self.tau, dtype=float)
            roof = tau[A > 0]
            if not np.all(np.isfinite(roof) & (roof > 0)):
                raise ValidationError("roof must be positive and finite on admissible transitions")
            object.__setattr__(self, "tau", tau)
        if self.theta is not None:
            object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        _aperiodicity_power(A)  # raises unless some power of A is positive

    @property
    def k(self) -> int:
        return len(self.transition)

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
            "source": "Toy" if self.group is None else "SchottkyCoding",
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


def toy_from_json(data: dict) -> MarkovShift:
    A = np.asarray(data["transition"], dtype=np.int64)
    k = A.shape[0]
    tau = np.asarray(data["tau"], dtype=float)
    f = np.asarray(data["f"], dtype=np.int64)
    if f.ndim == 2:  # per-symbol table: row a is every transition (a, b)'s
        f = np.repeat(f[:, None, :], k, axis=1)
    theta = np.asarray(data["theta"], dtype=float) if data.get("theta") is not None else None
    return MarkovShift(transition=A, f=f, tau=tau, theta=theta)


def from_schottky(group: SchottkyGroup) -> MarkovShift:
    """Boundary coding of a Schottky group: 2g symbols, transitions forbid a
    letter followed by its inverse, analytic roof, per-letter homology."""
    n, H = group.n_symbols, group.homology_matrix.T  # H[i]: generator i's class
    A = (np.arange(n)[:, None] != sk.inverse_index(np.arange(n))).astype(np.int64)
    f_sym = np.stack([H, -H], axis=1).reshape(n, group.d)  # symbol 2i + 1 inverts 2i
    f = np.repeat(f_sym[:, None, :], n, axis=1)
    # analytic holonomy lives on the group, queried per point: no theta table
    return MarkovShift(transition=A, f=f, group=group)


# -- periodic data of the coding -------------------------------------------


def _roof_term(group: SchottkyGroup, letter: int, x: complex) -> complex:
    """Complex roof log (branch_letter^{-1})'(x) = -2 Log(-c x + a)."""
    a, _, c, _ = group.symbol_matrix(sk.sym_index(letter))
    den = -c * x + a
    return complex(-2.0 * math.log(abs(den)), -2.0 * math.atan2(den.imag, den.real))


def cycle_roof_sum(group: SchottkyGroup, word: Sequence[int]) -> complex:
    """Complex roof sum tau_n + i theta_n along the periodic coding of a
    cyclically reduced word; theta_n is not wrapped.

    Each rotation's branch derivative is evaluated at its own attracting
    fixed point, the point coded by the rotation repeated forever; this
    avoids iterating the expanding map.  By the chain rule the real part
    equals the translation length of the word's conjugacy class, and the
    imaginary part its holonomy angle modulo 2 pi.
    """
    if not sk.is_cyclically_reduced(word):
        raise ValidationError("cycle roof sums need a cyclically reduced word")
    total = 0j
    for r in range(len(word)):
        rot = tuple(word[r:]) + tuple(word[:r])
        total += _roof_term(group, rot[0], fixed_points(group.evaluate(rot))[0])
    return total


# -- Parry chain and cocycle sampling ---------------------------------------


@dataclass(frozen=True)
class ParryChain:
    """Symbol-level Markov chain of the equilibrium state at s = delta."""

    stationary: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.transitions, dtype=float)
        if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValidationError("chain rows must sum to 1")
        pi = np.asarray(self.stationary, dtype=float)
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise ValidationError("stationary vector fails pi P = pi")


def parry_chain(spectral) -> ParryChain:
    """Markov chain p(a -> b) = nu([ab]) / nu([a]) of nu = h d rho at
    s = delta, with nu([ab]) = sum rho_b exp(delta logd[a,b]) interp[a,b] h_a
    and nu([a]) = sum rho_a h_a over the nodes of the blocks of spectral's
    operator.  On a toy shift (one node) this is B[a,b] rho_b / (lambda rho_a)."""
    lam = spectral.lam
    if abs(lam - 1.0) > 1e-8 or abs(complex(lam).imag) > 1e-8:
        raise NotAtCriticalExponent(f"leading eigenvalue {lam} != 1")
    if spectral.rho is None:
        raise ValidationError("parry_chain needs rho: leading_eigenvalue(want_measure=True)")
    shift, grid = spectral.spec.shift, spectral.spec.grid
    n, N = shift.k, grid.nodes_per_disk
    h, rho = np.real(spectral.h).reshape(n, N), np.real(spectral.rho).reshape(n, N)
    delta = float(complex(spectral.s).real)
    nu_a = np.vecdot(rho, h)
    hvals = (grid.interp @ h[:, None, :, None])[..., 0]  # (a, b, node): interp[a, b] h_a
    nu_ab = np.where(shift.transition != 0,
                     np.vecdot(rho, np.exp(delta * grid.logd) * hvals), 0.0)
    return ParryChain(stationary=nu_a / nu_a.sum(),
                      transitions=nu_ab / nu_ab.sum(axis=1, keepdims=True))


_in_worker = False  # true in a _fork_map child, which never forks again


def _cpus() -> int:
    """Processes for independent work that makes no BLAS call (the sampler's
    steps): the usable CPUs, or 1 without os.fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _workers() -> int:
    """Processes for independent work that calls BLAS (the scan's solves):
    _cpus() over the BLAS threads per process, read as OpenBLAS reads them
    (one per CPU when unset).  Two processes at 2 BLAS threads on 2 CPUs
    took twice as long as one."""
    cpus = _cpus()
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        v = os.environ.get(var, "")
        if v.strip().isdigit() and int(v) > 0:
            return max(1, cpus // int(v))
    return 1  # unset: one BLAS thread per CPU


def _fork_map(fn, chunks: Sequence) -> list:
    """[fn(c) for c in chunks]: chunk 0 here, each other chunk in a forked
    child that pickles back its result or exception and leaves by os._exit,
    flushing no output buffer twice.  The exception is raised here; every
    child is reaped.  Serial for fewer than two chunks and inside a child."""
    global _in_worker
    if len(chunks) < 2 or _in_worker:
        return [fn(c) for c in chunks]
    kids = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    _in_worker = True
                    try:
                        out = (True, fn(chunk))
                    except BaseException as e:  # the parent raises it again
                        out = (False, e)
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(out))
                finally:
                    os._exit(0)
            os.close(w)
            kids.append((pid, r))
        results = [fn(chunks[0])]
        for pid, r in kids:
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise ChildProcessError(f"worker {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in kids:
            os.close(r)
            os.waitpid(pid, 0)


def sample_cocycle_batch(spectral, n: int, n_traj: int,
                         master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(tau_n, f_n) over n_traj trajectories of n steps each of the
    equilibrium state of spectral, the eigentriple at delta.

    Trajectory i draws its randomness from default_rng([master_seed, i]), so
    results do not depend on batching or on the processes that run them: the
    trajectories split into equal contiguous ranges, one per process
    (_fork_map), and each range runs in batches of at most BATCH.
    Toy shifts run the exact finite-state chain.  Schottky codings run the
    equilibrium process exactly: random inverse branches weighted by
    |branch'|^delta h(branch x) / h(x) with h the RPF eigenfunction, which
    reverses to the shift with marginal nu; the roof increments are the
    analytic branch derivatives along the trajectory.  Each batch of
    trajectories runs through one step kernel (see _kernel), built once here,
    with its Parry chain, before any process forks; Schottky codings first
    burn in SCHOTTKY_BURN steps from the disk centers.  The step makes no
    BLAS call, so the ranges go to _cpus() processes whatever the BLAS
    thread count.
    """
    def run(span):
        start, stop = span
        taus = np.zeros(stop - start)
        fs = np.zeros((stop - start, shift.d), dtype=np.int64)
        for lo in range(start, stop, BATCH):
            hi = min(lo + BATCH, stop)
            rngs = [np.random.default_rng([master_seed, i]) for i in range(lo, hi)]
            tau_n, f_n = taus[lo - start:hi - start], fs[lo - start:hi - start]
            for _, step_tau, step_f in steps(n, rngs, SCHOTTKY_BURN):
                tau_n += step_tau
                f_n += step_f
        return taus, fs

    shift = spectral.spec.shift
    if n == 0:
        return np.zeros(n_traj), np.zeros((n_traj, shift.d), dtype=np.int64)
    steps = _kernel(spectral)
    w = max(1, min(_cpus(), n_traj))
    cuts = [n_traj * i // w for i in range(w + 1)]
    parts = _fork_map(run, list(zip(cuts, cuts[1:])))
    return np.concatenate([t for t, _ in parts]), np.concatenate([f for _, f in parts])


def sample_trajectory(spectral, n: int, rng_seed: int) -> list[tuple]:
    """Per-step dump rows (step, symbol, tau_cum, f_cum...) of trajectory 0
    of seed rng_seed, run through the batch kernel with no burn-in.  Schottky
    symbols are letters (1, -1, 2, ...), toy symbols state indices."""
    shift = spectral.spec.shift
    label = sk.letter_of_index if shift.analytic else int
    rows = []
    tau_cum = 0.0
    f_cum = np.zeros(shift.d, dtype=np.int64)
    rngs = [np.random.default_rng([rng_seed, 0])]
    steps = _kernel(spectral)
    for step, (sym, step_tau, step_f) in enumerate(steps(n, rngs, burn=0)):
        tau_cum += float(step_tau[0])
        f_cum += step_f[0]
        rows.append((step, label(int(sym[0])), tau_cum, *f_cum.tolist()))
    return rows


SCHOTTKY_BURN = 192  # steps from the disk centers to the equilibrium of x
_CHUNK = 256         # steps of uniforms drawn per generator call
BATCH = 2048         # trajectories stepped together by sample_cocycle_batch


def _uniforms(rngs, count: int):
    """count rows of uniforms, one per trajectory; trajectory i's column is
    the stream of rngs[i], drawn _CHUNK steps at a time into one block.  A
    row is a view of that block, valid until the next row is drawn."""
    block = np.empty((len(rngs), min(_CHUNK, count)))
    for lo in range(0, count, _CHUNK):
        rows = block[:, :min(_CHUNK, count - lo)]
        for row, r in zip(rows, rngs):
            r.random(out=row)
        yield from rows.T


def _kernel(spectral):
    """The sampler kernel of one run: a function steps(n, rngs, burn) whose
    generator runs n steps of all len(rngs) trajectories at once, yielding
    per step (symbol, roof increment, cocycle increment) arrays.

    Each trajectory first draws its start symbol from the stationary law,
    then one uniform per step (burn-in included).
    """
    chain, shift = parry_chain(spectral), spectral.spec.shift
    if shift.analytic:
        return _schottky_kernel(chain, shift, spectral)
    return lambda n, rngs, burn: _toy_steps(chain, shift, n, rngs)


def _toy_steps(chain: ParryChain, shift: MarkovShift, n: int, rngs):
    """The exact finite-state chain, with the 2-block tables read flat.  The
    next state counts the thresholds cum_p[state, j], j < k - 1, below u:
    as cum_p is nondecreasing, that is the first j with u <= cum_p[state, j],
    capped at k - 1."""
    k = shift.k
    thresholds = np.cumsum(chain.transitions, axis=1).T[:-1].copy()  # (k - 1, k)
    cum_pi = np.cumsum(chain.stationary)
    tau = shift.tau.ravel()
    f = shift.f.reshape(k * k, shift.d)
    state = np.minimum(np.searchsorted(cum_pi, [r.random() for r in rngs]), k - 1)
    for u in _uniforms(rngs, n):
        nxt = np.zeros(len(rngs), dtype=np.intp)
        for column in thresholds:
            nxt += column.take(state) < u
        pair = state * k + nxt
        yield nxt, tau.take(pair), f.take(pair, axis=0)
        state = nxt


def branch_weight_series(spectral) -> np.ndarray:
    """Chebyshev coefficients G, shape (n, n, K), of the sampler's branch
    weights g_{s,b}(x) = |c_b x + d_b|^{-2 delta} h_b(gamma_b x) for x on
    disk s's interval, in t = (x - z_s) / r_s.

    Each weight is read at disk s's 2N first-kind nodes from the grid's
    off-node blocks, exp(delta off_logd[b, s]) off_interp[b, s] h_b (the
    blocks the off-node residual uses), and transformed by DCT-II.  Trailing
    coefficients at most eps times the largest one are dropped, so K follows
    the decay.  Row (s, inverse of s) is zero, as the grid leaves the block
    of that inadmissible branch.
    """
    grid = spectral.spec.grid
    n, N = spectral.spec.shift.k, grid.nodes_per_disk
    delta = float(complex(spectral.s).real)
    h = np.real(spectral.h).reshape(n, 1, N, 1)
    g = np.exp(delta * grid.off_logd) * (grid.off_interp @ h)[..., 0]  # (b, s, node)
    G = grid.chebyshev_coeffs(g.transpose(1, 0, 2))
    size = np.abs(G).max(axis=(0, 1))
    K = int(np.flatnonzero(size > np.finfo(float).eps * size.max())[-1]) + 1
    return G[..., :K]


def _schottky_kernel(chain: ParryChain, shift: MarkovShift, spectral):
    """Backward h-weighted branch chain; Birkhoff sums read along it equal
    forward sums under the equilibrium measure.

    From the point x on disk s's interval (real: it stays on the trace of
    the disks, and s is the last symbol) each step weighs every branch b by
    g_{s,b}(x) = |gamma_b'(x)|^delta h(gamma_b x), zero for the inverse of s,
    and picks the number of running sums C_r = sum_{b <= r} g_{s,b}, r <
    nsym, below u S, S = C_{nsym-1}.  A certified table (_pick_table), built
    here once, bounds each C_r / S on the cell of t = (x - z_s) / r_s and
    decides every r whose bounds do not straddle u: the squeeze principle
    (Devroye, Non-Uniform Random Variate Generation, 1986, II.5).  Only the
    trajectories where some r straddles u, or where t left [-1, 1], sum the
    weights' Chebyshev series (_series_cum), so a step makes no BLAS call.
    Only the picked branch's image and roof are then formed, so x and the
    roof depend on the weights only through the picks.
    """
    group = shift.group
    grid = spectral.spec.grid
    G = branch_weight_series(spectral)
    table = _pick_table(G)
    nsym = shift.k
    a, b, c, d = np.array([group.symbol_matrix(s) for s in range(nsym)]).real.T
    f_sym = shift.f[:, 0]
    cum_pi = np.cumsum(chain.stationary)

    def steps(n: int, rngs, burn: int):
        sym = np.minimum(np.searchsorted(cum_pi, [r.random() for r in rngs]), nsym - 1)
        x = grid.centers[sym]
        for step, u in enumerate(_uniforms(rngs, n + burn)):
            u = u.copy()  # contiguous: the table compare reads u 2 (nsym - 1) times
            t = (x - grid.centers.take(sym)) / grid.radii.take(sym)
            pick, unsure = _table_picks(table, sym, t, u)
            if unsure.any():
                i = np.flatnonzero(unsure)
                cum = _series_cum(G, sym[i], t[i])
                pick[i] = np.minimum((cum < u[i] * cum[-1]).sum(axis=0), nsym - 1)
            den = c.take(pick) * x + d.take(pick)
            if step >= burn:
                yield pick, 2.0 * np.log(np.abs(den)), f_sym.take(pick, axis=0)
            # num * (1 / den) is numpy's complex quotient of real operands
            x = (a.take(pick) * x + b.take(pick)) * (1.0 / den)
            sym = pick

    return steps


# Table cells per disk.  The share of trajectory-steps that sum the series
# falls as 1 / CELLS, while the table (2 nsym (nsym - 1) (CELLS + 2) floats)
# and its build grow with it.  Measured on b (N = 24) and c (N = 20), BLAS at
# 1 thread, 2-vCPU Intel Xeon: the share over 2048 trajectories x 792 steps,
# seeds 1-3, and the median of seeds 1-8 for a batch of 2048 x 1192 steps:
#   CELLS   share b / c       table b / c     build b / c   median batch b / c
#    4096   1.9e-4 / 3.0e-4   0.8 / 2.0 MB     1 / 1.5 ms   0.246 / 0.266 s
#    8192   1.0e-4 / 1.4e-4   1.6 / 3.9 MB     3.5 / 3 ms   0.246 / 0.268 s
#   16384   5.0e-5 / 7.1e-5   3.1 / 7.9 MB     7 / 10 ms    0.241 / 0.283 s
# The batch times tie within the host's noise; 8192 keeps the share near 1e-4.
CELLS = 8192


def _pick_table(G: np.ndarray) -> np.ndarray:
    """Bounds LO_r <= C_r / S <= HI_r, r < nsym - 1, on each of CELLS equal
    cells of t in [-1, 1] per disk s, from the series G of branch_weight_series:
    shape (2, nsym - 1, nsym * (CELLS + 2)), LO then HI.  Disk s's cell j is
    column s * (CELLS + 2) + 1 + j; columns s * (CELLS + 2) and s * (CELLS +
    2) + CELLS + 1 pad t outside [-1, 1] with LO = -inf and HI = inf, which
    every u straddles.

    C_r and S are Chebyshev series, the running sums of G over b, so each
    is evaluated at the CELLS + 1 cell edges by one product per disk.  On a
    cell of width w, F = u S - C_r stays above min(F(t_j), F(t_j+1)) -
    w^2/8 max|F''| for every u in [0, 1], and V. Markov's inequality gives
    max|p''| <= sum |c_k| k^2 (k^2 - 1) / 3 on [-1, 1].  So HI = max_j (C_r +
    E) / S and LO = min_j (C_r - E) / S, where E adds that term to a rounding
    slack.  The slack covers the step's own evaluation of the series (its
    basis by doubling, a sum of K terms and the running adds), the table's,
    and a t whose cell index rounds across an edge: 64 eps sum_k (k^2 + K +
    nsym) sum_b |G_{s,b,k}|, far below the Markov term.  A cell where S is
    not positive at both edges keeps the padding's bounds.
    """
    nsym, _, K = G.shape
    k = np.arange(K, dtype=float)
    C = np.cumsum(G, axis=1)  # C[s, r] is C_r's series, C[s, -1] is S's
    bend = np.abs(C) @ (k * k * (k * k - 1.0) / 3.0)  # (s, r): bound on max |C_r''|
    slack = 64 * np.finfo(float).eps * (np.abs(G).sum(axis=1) @ (k * k + K + nsym))
    width = 2.0 / CELLS
    E = width * width / 8.0 * (bend[:, :-1] + bend[:, -1:]) + slack[:, None]
    basis = _chebyshev_basis(-1.0 + np.arange(CELLS + 1) * width, K)  # at the cell edges
    table = np.empty((2, nsym - 1, nsym, CELLS + 2))
    table[0], table[1] = -np.inf, np.inf
    for s in range(nsym):
        V = C[s] @ basis  # C_r at the edges, S last
        S, e = V[-1], E[s][:, None]
        ok = np.minimum(S[:-1], S[1:]) > 0.0
        S = np.where(S > 0.0, S, 1.0)
        lo, hi = (V[:-1] - e) / S, (V[:-1] + e) / S
        table[0, :, s, 1:-1] = np.where(ok, np.minimum(lo[:, :-1], lo[:, 1:]), -np.inf)
        table[1, :, s, 1:-1] = np.where(ok, np.maximum(hi[:, :-1], hi[:, 1:]), np.inf)
    return table.reshape(2, nsym - 1, nsym * (CELLS + 2))


def _table_picks(table: np.ndarray, sym: np.ndarray, t: np.ndarray, u: np.ndarray):
    """(pick, unsure) from the table of _pick_table for trajectories on disks
    sym at t: pick counts the r with HI_r < u, and unsure marks where that
    count differs from the count of LO_r < u, which a t outside [-1, 1] (a
    padding column) always makes it.  Where unsure is false, pick is the
    series' pick."""
    half = CELLS / 2
    cell = np.clip(t * half + (half + 1.0), 0.0, CELLS + 1.0).astype(np.intp)
    cell += sym * (CELLS + 2)
    below = (table.take(cell, axis=2) < u).view(np.uint8).sum(axis=1, dtype=np.uint8)
    return below[1].astype(np.intp), below[0] != below[1]


def _series_cum(G: np.ndarray, sym: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The running sums C_r, shape (nsym, len(t)), of the branch weights of
    disks sym at t, from their Chebyshev series by elementwise products and
    a sum."""
    T = _chebyshev_basis(t, G.shape[2])
    return np.cumsum((G[sym] * T.T[:, None, :]).sum(axis=2), axis=1).T


def _chebyshev_basis(t: np.ndarray, K: int) -> np.ndarray:
    """T_k(t), k < K, shape (K, len(t)), for any real t.  The known rows k + 1
    double per pass by T_{k+i} = 2 T_k T_i - T_{k-i}, i = 1..k, so the basis
    costs log2(K) passes, not K."""
    T = np.empty((K, len(t)))
    T[0], T[1] = 1.0, t
    known = 2
    while known < K:
        k, j = known - 1, min(known - 1, K - known)
        np.multiply(T[1:j + 1], 2.0 * T[k], out=T[known:known + j])
        T[known:known + j] -= T[k - j:k][::-1]
        known += j
    return T
