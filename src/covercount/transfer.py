"""Three-parameter transfer operators: leading eigenvalues, the critical
exponent, the pressure surface with its Hessian data, and spectral-radius
scans on the critical line.

Schottky codings in the half-plane model are discretized by Chebyshev
collocation on the real trace of each disk; the branch maps send every
admissible interval strictly inside the target interval, so polynomial
interpolation converges geometrically (Trefethen, Approximation Theory and
Approximation Practice, Thm 8.1) and the leading eigenvalue is certified by an
off-node residual: the eigenfunction's interpolant must be an eigenfunction at
the 2N first-kind nodes too, one rectangular product, no second solve.  The
grid builds the blocks for those 2N nodes once, and the equilibrium sampler
tabulates its branch weights from the same blocks.  Toy shifts are the exact
one-node case (logd = -tau, interp = 1), so both kinds share one assembly
from per-transition blocks.

Eigensolves use numpy only (importing this module loads no scipy).  The path
rule is Perron -> power loop -> kernel -> dense.  A Perron solve, at real s
with no imaginary twist (every solve of a root, the certified one at it and
the left one for rho), runs a power loop on the real matrix.  A solve the
loop fails, and every other solve, goes to an in-package Krylov-Schur kernel
that takes a batch: one matrix M with a column scaling D_b per member,
stepped together.  Dense eig is the fallback, and the solver at 16 x 16 and
below.  A single solve is the batch of one; the scan solves each t row's twists, which
scale the block columns of M(delta + i t, 0, 0), as one batch.

The pressure P(u) is a Brent root of lambda(s; u) = 1; its gradient and
Hessian at 0 follow exactly from the eigentriple (lambda, h, rho) at delta by
perturbation theory (pressure_surface), not from differences of roots.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from . import shift as sh
from .errors import (BracketFailed, DiscretizationUnstable, HessianNotPD,
                     HolonomyUnavailable, NotConverged, ValidationError)
from .hyperbolic import Model
from .shift import MarkovShift

RESIDUAL_TOL = 1e-8
OFF_NODE_TOL = 1e-8
BRENT_XTOL, BRENT_RTOL, BRENT_MAXITER = 1e-14, 8.9e-16, 200


def _chebyshev_at_nodes(m: int) -> np.ndarray:
    """T_k(x_j) at the m first-kind nodes x_j = cos(pi (2j + 1) / 2m) of [-1, 1],
    k < m: the cosine matrix of the DCT-II.  The angle's integer multiple is
    reduced mod 4m first, so every angle lies in [0, 2 pi)."""
    jk = np.outer(2 * np.arange(m) + 1, np.arange(m)) % (4 * m)
    return np.cos(np.pi * jk / (2 * m))


class CollocationGrid:
    """Chebyshev nodes (first kind) on each disk's real interval, with the
    log-derivatives logd, shape (n, n, N), and interpolation blocks interp,
    shape (n, n, N, N), of the branch images precomputed per transition.  The
    off_* blocks are the same at disk b's 2N first-kind nodes x (off_interp:
    disk a's N-node basis at the branch image of x, shape (n, n, 2N, N));
    off_eye, shape (n, 2N, N), is disk b's own.  They serve the off-node
    residual and tabulate the sampler's branch weights
    (shift.branch_weight_series).  The blocks of an inadmissible transition
    stay zero.

    A vector of node values, disk after disk, stands for the per-disk
    polynomial interpolants.  interp_values gives the barycentric basis, to
    build the blocks once per grid, so every evaluation away from the nodes
    is one of these blocks.  chebyshev_coeffs (a DCT-II as a product with the
    cosine matrix of its size) turns values at first-kind nodes into the
    Chebyshev series the sampler steps with.
    """

    def __init__(self, group, nodes_per_disk: int):
        if nodes_per_disk < 8:
            raise ValidationError("collocation needs nodes_per_disk >= 8")
        if group.model != Model.H2:
            raise ValidationError("collocation is implemented for the H2 model only")
        self.nodes_per_disk = nodes_per_disk
        n = group.n_symbols
        N = nodes_per_disk
        k = np.arange(N)
        self.bary_w = (-1.0) ** k * np.sin(np.pi * (2 * k + 1) / (2 * N))
        self.centers = np.array([dk.center.real for dk in group.disks])
        self.radii = np.array([dk.radius for dk in group.disks])
        self.nodes = list(self.first_kind_nodes(N))
        off = self.first_kind_nodes(2 * N)
        self.logd, self.off_logd = np.zeros((n, n, N)), np.zeros((n, n, 2 * N))
        self.interp, self.off_interp = np.zeros((n, n, N, N)), np.zeros((n, n, 2 * N, N))
        self.off_eye = np.array([self.interp_values(b, off[b]) for b in range(n)])
        for a in range(n):
            ma = group.symbol_matrix(a)
            ca, da = ma[2], ma[3]
            for b in range(n):
                if b == sk.inverse_index(a):
                    continue
                for x, logd, interp in ((self.nodes[b], self.logd, self.interp),
                                        (off[b], self.off_logd, self.off_interp)):
                    den = ca * x + da
                    logd[a, b] = -2.0 * np.log(np.abs(den))
                    y = (ma[0] * x + ma[1]) / den
                    interp[a, b] = self.interp_values(a, y.real)

    def first_kind_nodes(self, count: int) -> np.ndarray:
        """count Chebyshev nodes of the first kind on each disk's interval,
        shape (n_symbols, count), in decreasing order."""
        ref = np.cos(np.pi * (2 * np.arange(count) + 1) / (2 * count))
        return self.centers[:, None] + self.radii[:, None] * ref

    def interp_values(self, a: int, pts: np.ndarray) -> np.ndarray:
        """Barycentric Lagrange basis values on disk a's nodes at pts."""
        pts = np.atleast_1d(np.asarray(pts, dtype=float))
        diff = pts[:, None] - self.nodes[a][None, :]
        hit = np.abs(diff) <= 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            L = self.bary_w[None, :] / diff
        L[~np.isfinite(L)] = 0.0
        rows_hit = hit.any(axis=1)
        L[rows_hit] = hit[rows_hit].astype(float)
        return L / L.sum(axis=1, keepdims=True)

    def chebyshev_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of the interpolants through values at
        first-kind nodes, along the last axis; node values laid out disk
        after disk (a flat vector) give shape (n_symbols, N)."""
        vals = np.asarray(values)  # complex or real
        if vals.ndim == 1:
            vals = vals.reshape(-1, self.nodes_per_disk)
        m = vals.shape[-1]
        coeffs = vals @ _chebyshev_at_nodes(m) * 2 / m  # first kind: DCT-II
        coeffs[..., 0] *= 0.5
        return coeffs


class ExactGrid:
    """A toy shift as the exact one-node case of collocation: the 1 x 1 block
    of transition (a, b) is its weight e^{-s tau[a, b]}."""

    nodes_per_disk = 1

    def __init__(self, shift: MarkovShift):
        self.logd = -shift.tau[..., None]
        self.interp = np.ones((shift.k, shift.k, 1, 1))


@dataclass(frozen=True)
class OperatorSpec:
    """Shift plus its discretization: grid is the CollocationGrid at
    nodes_per_disk, with the off-node check blocks, or a toy shift's
    ExactGrid, built on construction."""

    shift: MarkovShift
    nodes_per_disk: Optional[int] = None
    grid: CollocationGrid | ExactGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shift.analytic:
            if self.nodes_per_disk is None:
                raise ValidationError("a Schottky coding needs nodes_per_disk")
            if self.shift.group is None:
                raise ValidationError("analytic shift without group data")
            grid = CollocationGrid(self.shift.group, self.nodes_per_disk)
        elif self.nodes_per_disk is not None:
            raise ValidationError("exact toy operators take no collocation nodes")
        else:
            grid = ExactGrid(self.shift)
        object.__setattr__(self, "grid", grid)

    def twist(self, v=None, p: int = 0, u=None) -> np.ndarray:
        """cw[a, b] = <u + iv, f[a, b]> + i p theta[a, b] on the admissible
        transitions, 0 elsewhere.  Each <u, f[a, b]> is one array sum, which
        for the shipped tables (f in {-1, 0, 1}, d <= 2) is a single
        correctly rounded addition, as math.fsum gives; with d >= 3 or
        |f| >= 2 its last bit may differ from fsum's."""
        shift, d = self.shift, self.shift.d
        if p != 0 and shift.theta is None:
            raise HolonomyUnavailable("shift carries no holonomy data")
        v, u = (np.zeros(d) if x is None else np.asarray(x, dtype=float) for x in (v, u))
        if v.shape != (d,) or u.shape != (d,):
            raise ValidationError(f"twist vectors must have dimension {d}")
        if not (np.isfinite(v).all() and np.isfinite(u).all()):
            raise ValidationError(f"twist vectors must be finite, not u = {u}, v = {v}")
        f = shift.f.astype(float)
        cw = f @ u + 1j * (f @ v) if d else np.zeros((shift.k,) * 2)
        if p != 0:
            cw = cw + 1j * p * shift.theta
        return np.where(shift.transition != 0, cw, 0.0)


def build_matrix(spec: OperatorSpec, s: complex, v=None, p: int = 0, u=None) -> np.ndarray:
    """Dense matrix of L_{s,v,p} (with an optional real twist u) on node
    values, disk after disk: block (b, a) of an admissible transition (a, b)
    is exp(s logd[a,b] + <u + iv, f[a,b]> + i p theta[a,b]) interp[a,b]."""
    return _assemble(spec, s, spec.twist(v, p, u), spec.grid.logd, spec.grid.interp)


def _assemble(spec: OperatorSpec, s: complex, cw: np.ndarray, logd: np.ndarray,
              interp: np.ndarray) -> np.ndarray:
    """build_matrix from the blocks logd (n, n, J) and interp (n, n, J, K):
    the rows are the J points of each target disk, the columns its K nodes."""
    if not cmath.isfinite(s):
        raise ValidationError(f"operator at s = {s}: s must be finite")
    n, J, K = spec.shift.k, logd.shape[-1], interp.shape[-1]
    wvec = np.exp(s * logd + cw[:, :, None])  # (a, b, j)
    M = np.empty((n, J, n, K), dtype=complex)  # entry (b, j, a, k)
    np.multiply(wvec.transpose(1, 2, 0)[..., None], interp.transpose(1, 2, 0, 3), out=M)
    M.transpose(0, 2, 1, 3)[spec.shift.transition.T == 0] = 0.0
    return M.reshape(n * J, n * K)


@dataclass
class SpectralResult:
    """Leading eigentriple of spec's operator at s; at delta, with rho, it
    fixes the equilibrium state that shift.sample_cocycle_batch samples."""

    s: complex
    lam: complex
    h: np.ndarray
    rho: Optional[np.ndarray]
    residual: float
    spec: OperatorSpec


def _dense_leading(M: np.ndarray):
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(np.abs(vals)))
    return vals[i], vecs[:, i]


# Krylov-Schur basis size m, thick-restart size and restart cap: median ms per point of the
# serial scan of b at N = 48 (15 runs; 2-vCPU Intel Xeon, BLAS at 1 thread) for (m, keep) =
# (16, 4) 2.37, (20, 6) 2.30, (24, 8) 2.44, (30, 10) 2.17 with 36.8 products per point at N,
# (40, 10) 2.79.  20 restarts of 20 products cost more than dense eig (28 ms at n = 192).
KS_BASIS, KS_KEEP, KS_RESTARTS = 30, 10, 20


def _norms(X: np.ndarray) -> np.ndarray:
    """The 2-norms of X's rows, with the bits of np.linalg.norm."""
    return np.sqrt(np.vecdot(X.real, X.real) + np.vecdot(X.imag, X.imag))


def _keep(mask: np.ndarray, *arrays) -> list:
    return [None if a is None else a[mask] for a in arrays]


def _krylov_schur(M: np.ndarray, starts: np.ndarray, D: Optional[np.ndarray] = None) -> list:
    """For each row x0 of starts, the dominant Ritz pair (lam, z) of M D_b (D_b =
    diag(row b of D), or 1) from x0 by Krylov-Schur (Stewart, SIAM J. Matrix
    Anal. Appl. 23(3), 2001), or None after KS_RESTARTS restarts.  Arnoldi (two
    classical Gram-Schmidt passes) grows an orthonormal basis, the rows of V (C:
    their conjugates), to m vectors; a restart keeps the KS_KEEP largest Ritz
    vectors, orthonormalized by QR.  The stop is ARPACK's, |b_0| <= 1e-14 max(1,
    |lam|); a basis that closes spans an invariant subspace, with an exact top
    pair.  A step is one product of M with the live members' scaled vectors; a
    member that stops or closes leaves the batch, which is compacted then."""
    B, n = starts.shape
    m, k, MT, out, live = min(KS_BASIS, n - 1), KS_KEEP, M.T, [None] * B, np.arange(B)
    V = np.zeros((B, m + 1, n), dtype=complex)
    C, H = np.zeros_like(V), np.zeros((B, m + 1, m), dtype=complex)
    V[:, 0] = starts / _norms(starts)[:, None]
    C[:, 0] = V[:, 0].conj()
    for r in range(KS_RESTARTS):
        for j in range(k if r else 0, m):
            w = (V[:, j] if D is None else D * V[:, j]) @ MT  # one row: M @ v's bits
            h = (C[:, :j + 1] @ w[:, :, None])[:, :, 0]
            w -= (h[:, None] @ V[:, :j + 1])[:, 0]
            h2 = (C[:, :j + 1] @ w[:, :, None])[:, :, 0]
            w -= (h2[:, None] @ V[:, :j + 1])[:, 0]
            H[:, :j + 1, j] = h + h2
            beta = _norms(w)
            closed = beta <= 1e-14 * np.sqrt(np.vecdot(h, h).real)
            if np.count_nonzero(closed):  # the cheapest test, at every step
                for i in np.flatnonzero(closed):
                    vals, Y = np.linalg.eig(H[i, :j + 1, :j + 1])
                    z = Y[:, np.argmax(np.abs(vals))] @ V[i, :j + 1]
                    out[live[i]] = vals[np.argmax(np.abs(vals))], z / np.linalg.norm(z)
                live, V, C, H, w, beta, D = _keep(~closed, live, V, C, H, w, beta, D)
                if not live.size:
                    return out
            H[:, j + 1, j] = beta
            np.divide(w, beta[:, None], out=V[:, j + 1])
            np.conjugate(V[:, j + 1], out=C[:, j + 1])
        vals, Y = np.linalg.eig(H[:, :m])
        top = np.argsort(-np.abs(vals), axis=1, kind="stable")[:, :k]
        Q, _ = np.linalg.qr(Y[np.arange(len(live))[:, None], :, top].transpose(0, 2, 1))
        b, lam = H[:, m, m - 1, None] * Q[:, m - 1], vals[np.arange(len(live)), top[:, 0]]
        done = np.abs(b[:, 0]) <= 1e-14 * np.maximum(1.0, np.abs(lam))
        for i in np.flatnonzero(done):
            z = Q[i, :, 0] @ V[i, :m]
            out[live[i]] = lam[i], z / np.linalg.norm(z)
        if done.all():
            return out
        live, V, C, H, Q, b, D = _keep(~done, live, V, C, H, Q, b, D)
        V[:, :k], V[:, k] = Q.transpose(0, 2, 1) @ V[:, :m], V[:, m]
        C[:, :k + 1] = V[:, :k + 1].conj()
        S = Q.conj().transpose(0, 2, 1) @ H[:, :m] @ Q
        H[:] = 0.0
        H[:, :k, :k], H[:, k, :k] = S, b
    return out


# Power steps before a Perron solve moves on to the kernel: 300 steps cost about one kernel
# solve (4.7 us a step against 1.4 ms at n = 96, 7.0 us against 1.9 ms at n = 192; 2-vCPU
# Intel Xeon, BLAS at 1 thread).  The roots' solves take at most about 200 (b at s = 1).
PERRON_STEPS = 300


def _power(A: np.ndarray, x: np.ndarray):
    """(lam, z, residual) for the real matrix A, whose top eigenvalue is
    positive and simple, by the power method from x: lam = |A z| with |z| = 1
    once two successive estimates agree to 2 ulps; None after PERRON_STEPS."""
    lam, z = 0.0, x / np.linalg.norm(x)
    for _ in range(PERRON_STEPS):
        w = A @ z
        lam, prev = float(np.linalg.norm(w)), lam
        if not lam > 0.0:
            return None
        z = w / lam
        if abs(lam - prev) <= 2 * math.ulp(lam):
            return lam, z, float(np.linalg.norm(A @ z - lam * z))
    return None


def _dominant(M: np.ndarray, D: Optional[np.ndarray] = None, perron: bool = False) -> list:
    """Dominant eigenpairs [(lam, z, residual)] of M D_b for the rows D_b of
    the column scalings D (None: M alone, a batch of one).  Path rule, from a
    fixed near-constant start when M is larger than 16 x 16: a Perron solve
    (perron: the caller's real s with no imaginary twist, D None) runs the
    power loop on M.real; a loop that hits its cap or misses a residual of
    1e-10 max(1, |lam|), and every other member, goes to the kernel; a
    kernel pair that misses it goes to dense eig, as every solve at 16 x 16
    and below does."""
    n, B = M.shape[0], 1 if D is None else len(D)
    start = np.ones(n) + 1e-3 * np.linspace(0.0, 1.0, n)
    # the copy makes M.real contiguous, which BLAS steps about 3x faster than the view
    pair = _power(np.ascontiguousarray(M.real), start) if perron and n > 16 else None
    if pair is not None and pair[2] < 1e-10 * max(1.0, pair[0]):
        return [pair]
    starts = np.tile(start, (B, 1)).astype(complex)
    out = []
    for i, pair in enumerate(_krylov_schur(M, starts, D) if n > 16 else [None] * B):
        A = M if D is None else M * D[i]
        if pair is not None:
            lam, z = pair
            res = float(np.linalg.norm(A @ z - lam * z))
            if res < 1e-10 * max(1.0, abs(lam)):
                out.append((lam, z, res))
                continue
        lam, z = _dense_leading(A)
        out.append((lam, z, float(np.linalg.norm(A @ z - lam * z) / np.linalg.norm(z))))
    return out


def _off_node_residuals(spec: OperatorSpec, s: complex, v, p: int, u,
                        D: Optional[np.ndarray], pairs: list) -> np.ndarray:
    """r = |(R D_b - lam E) h| / (|lam| |E h|) per eigenpair (lam, h) of M D_b:
    R = M(s, v, p, u) evaluated at the 2N first-kind nodes of each disk (n 2N x
    n N, from CollocationGrid's off_* blocks), E h the interpolant of h there.
    Every member in one product; r ~ rounding when h resolves the eigenfunction."""
    grid = spec.grid
    lam, H = np.array([lam for lam, _, _ in pairs]), np.array([h for _, h, _ in pairs])
    R = _assemble(spec, s, spec.twist(v, p, u), grid.off_logd, grid.off_interp)
    Eh = (grid.off_eye @ H.reshape(len(H), -1, grid.nodes_per_disk, 1)).reshape(len(H), -1)
    RDh = (H if D is None else D * H) @ R.T
    return _norms(RDh - lam[:, None] * Eh) / (np.abs(lam) * _norms(Eh))


def _certified(spec: OperatorSpec, s: complex, v=None, p: int = 0, u=None,
               phases: Optional[np.ndarray] = None, check_stability: bool = True,
               perron: bool = False):
    """M = M(s, v, p, u) and _dominant's eigenpairs (lam, h, res) of M D_b, D_b
    scaling block column a by phases[b, a] (None: M alone), each res < RESIDUAL_TOL
    and, with collocation, each off-node residual r <= OFF_NODE_TOL."""
    N, M = spec.grid.nodes_per_disk, build_matrix(spec, s, v, p, u)
    D = None if phases is None else np.repeat(phases, N, axis=1)
    pairs = _dominant(M, D, perron=perron)
    if bad := [res for _, _, res in pairs if not res < RESIDUAL_TOL]:
        raise NotConverged(f"residual {bad[0]:.3e}")
    if spec.shift.analytic and check_stability:
        r = _off_node_residuals(spec, s, v, p, u, D, pairs)
        if bad := [x for x in r if not x <= OFF_NODE_TOL]:
            raise DiscretizationUnstable(f"off-node residual {bad[0]:.2e} > {OFF_NODE_TOL:g}")
    return M, pairs


def leading_eigenvalue(spec: OperatorSpec, s: complex, v=None, p: int = 0,
                       u=None, want_measure: bool = False,
                       check_stability: bool = True) -> SpectralResult:
    """Dominant eigenvalue with certified residual: _certified's batch of one.
    At real s with v = 0 and p = 0 (any real u) the operator is positive, and
    its right and left Perron solves start with _dominant's power loop."""
    is_perron = (abs(complex(s).imag) == 0.0
                 and (v is None or not np.any(np.asarray(v)))
                 and p == 0)
    M, [(lam, h, res)] = _certified(spec, s, v, p, u, check_stability=check_stability,
                                    perron=is_perron)
    rho = None
    # the solver's phase is arbitrary: divide it out before taking real parts
    if is_perron:
        lam = complex(lam.real, 0.0)
        h = np.real(h / h[int(np.argmax(np.abs(h)))])
        if want_measure and np.min(h) <= 0:
            raise NotConverged("Perron eigenfunction is not strictly positive")
    if want_measure:
        [(lamL, rho, resL)] = _dominant(M.T, perron=is_perron)
        gap = abs(lamL - lam)
        if not (resL < RESIDUAL_TOL and gap <= RESIDUAL_TOL * max(1.0, abs(lam))):
            raise NotConverged(f"left eigenpair residual {resL:.3e}, "
                               f"|lambda_left - lambda| = {gap:.3e}")
        if is_perron:
            rho = np.real(rho / rho[int(np.argmax(np.abs(rho)))])
            rho = rho / rho.sum()  # rho(1) = 1
            h = h / float(rho @ h)  # nu = h d rho is a probability
    return SpectralResult(s=s, lam=lam, h=h, rho=rho, residual=float(res), spec=spec)


def _lead_lam_real(spec: OperatorSpec, s: float, u=None) -> float:
    """Leading eigenvalue on the real axis (positive operator), fast path."""
    r = leading_eigenvalue(spec, s, v=None, p=0, u=u, check_stability=False)
    return float(np.real(r.lam))


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float) -> float:
    """Root of f between xpre and xcur, given fpre = f(xpre) and fcur =
    f(xcur) of opposite signs: Brent's method (Brent 1973, Ch. 4) as in
    scipy's brentq.c, step for step, so roots keep its bits."""
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < tol:
            return xcur
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0 else -tol)
        fcur = f(xcur)
    raise NotConverged(f"in {BRENT_MAXITER} Brent iterations, last s = {xcur!r}",
                       what="pressure root did not converge")


def _solve_pressure_root(spec: OperatorSpec, u=None) -> float:
    """Unique s with lambda(s; u) = 1 by bracket expansion + Brent on
    log lambda, started from the bracket's own eigenvalues.

    The lower bracket starts at 1e-3 and halves; the upper bracket stops at
    the first crossing, where the eigenvalue is O(1) and the discretization
    is well resolved.
    """
    lo = 1e-3
    f_lo = _lead_lam_real(spec, lo, u)
    while lo > 1e-12 and f_lo <= 1.0:
        lo *= 0.5
        f_lo = _lead_lam_real(spec, lo, u)
    if f_lo <= 1.0:
        raise BracketFailed(f"lambda({lo}) = {f_lo} <= 1 at the lower bracket")
    hi = max(4.0 * lo, 0.5)
    f_hi = _lead_lam_real(spec, hi, u)
    while f_hi >= 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise BracketFailed("no upper bracket below 1e6")
        f_hi = _lead_lam_real(spec, hi, u)
    if not f_hi > 0.0:
        raise BracketFailed(f"eigenvalue {f_hi} at s = {hi} is not positive")

    def logf(s: float) -> float:
        lam = _lead_lam_real(spec, s, u)
        if lam <= 0.0:
            raise BracketFailed(f"eigenvalue {lam} at s = {s} is not positive")
        return math.log(lam)

    return _brentq(logf, lo, hi, math.log(f_lo), math.log(f_hi))


def spectral_at_delta(spec: OperatorSpec, want_measure: bool = False) -> SpectralResult:
    """The leading eigenpair at delta, the root of lambda(s, 0, 0) = 1, with
    the eigenmeasure too when want_measure; its s is delta.  One certified
    solve at the root, which collocation checks by its off-node residual."""
    return leading_eigenvalue(spec, _solve_pressure_root(spec), want_measure=want_measure)


def critical_exponent(spec: OperatorSpec) -> float:
    """delta: the root of lambda(s, 0, 0) = 1, certified by spectral_at_delta."""
    return spectral_at_delta(spec).s


def pressure(spec: OperatorSpec, u) -> float:
    """P(u): the root of lambda(P(u); weights e^{<u,f>}) = 1; P(0) = delta."""
    u = np.asarray(u, dtype=float)
    return _solve_pressure_root(spec, u=u)


def _solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B by Gaussian elimination with partial pivoting, every step an
    elementwise numpy operation or a sum: no BLAS call, so its bits do not
    depend on the BLAS thread count, as LAPACK's getrf's do."""
    m = len(A)
    W = np.hstack([A, B])  # [A | B], reduced to [U | C] in place
    for k in range(m):
        p = k + int(np.argmax(np.abs(W[k:, k])))
        W[[k, p]] = W[[p, k]]
        W[k + 1:, k:] -= (W[k + 1:, k] / W[k, k])[:, None] * W[k, k:]
    X = W[:, m:]
    for k in range(m - 1, -1, -1):
        X[k] = (X[k] - (W[k, k + 1:m, None] * X[k + 1:]).sum(axis=0)) / W[k, k]
    return X


@dataclass
class PressureSurface:
    delta: float
    gradient: np.ndarray
    hessian: np.ndarray
    sigma: float
    c0: float
    spectral: SpectralResult  # the certified eigentriple at delta


def pressure_surface(spec: OperatorSpec) -> PressureSurface:
    """delta, the gradient and Hessian of P at 0, and the Gaussian constants
    sigma = det(Hess)^{1/d}, C0 = (2 pi / sigma)^{d/2}.

    Exact for the discrete operator M(s, u), from its certified eigentriple
    (lambda, h, rho) at delta, rho h = 1 (Kato, Ch. II 2).  X_p holds the
    coefficient of s (p = 0: logd) or of u_p (f) in the exponent of each entry
    of M (build_matrix), so M_p = X_p o M, lambda_p = rho M_p h and
      lambda_pq = rho (X_p X_q o M) h + rho M_p h_q + rho M_q h_p,
    where (lambda - M + h rho^T) h_p = (M_p - lambda_p) h, one dense solve
    (_solve, whose bits do not depend on the BLAS thread count).
    Implicit differentiation of lambda(P(u), u) = 1 gives grad P and Hess P.

    A cocycle cohomologous to zero leaves a Hessian of rounding size and
    either sign (up to 3.6e-15 of the scale below on 288 random toys), so
    HessianNotPD fires at eigenvalues <= RESIDUAL_TOL times the scale
    max_i |rho (X_i^2 o M) h / lambda_s|.
    """
    shift, grid = spec.shift, spec.grid
    n, N, d = shift.k, grid.nodes_per_disk, shift.d
    if d < 1:
        raise ValidationError("pressure surface needs homology dimension d >= 1")
    sr = spectral_at_delta(spec, want_measure=True)
    delta = sr.s
    h, rho, lam, m = sr.h, sr.rho, sr.lam.real, sr.h.size
    M = build_matrix(spec, delta).real
    X = np.empty((d + 1, n, N, n, N))  # entry (p, b, j, a, k) of X_p
    X[0] = grid.logd.transpose(1, 2, 0)[:, :, :, None]
    X[1:] = shift.f.transpose(2, 1, 0)[:, :, None, :, None]
    X = X.reshape(d + 1, m * m)
    Mp = (X * M.ravel()).reshape(d + 1, m, m)
    rMp = rho @ Mp
    lam_p = rMp @ h
    hp = _solve(lam * np.eye(m) - M + np.outer(h, rho), (Mp @ h - lam_p[:, None] * h).T)
    first = (X * (np.outer(rho, h) * M).ravel()) @ X.T
    cross = rMp @ hp  # rho M_p h_q
    lam_pq = first + cross + cross.T
    lam_s, grad = lam_p[0], -lam_p[1:] / lam_p[0]
    J = np.vstack([grad, np.eye(d)])  # d(s, u) / du along s = P(u)
    H = -(J.T @ lam_pq @ J) / lam_s
    H = (H + H.T) / 2
    if np.max(np.abs(grad)) >= 1e-4:
        raise ValidationError(f"pressure gradient at 0 is {grad}, expected ~0")
    eigs = np.linalg.eigvalsh(H)
    if eigs.min() <= RESIDUAL_TOL * np.max(np.abs(np.diag(first)[1:] / lam_s)):
        raise HessianNotPD(f"Hessian eigenvalues {eigs}")
    sigma = float(np.linalg.det(H) ** (1.0 / d))
    c0 = float((2 * math.pi / sigma) ** (d / 2.0))
    return PressureSurface(delta=delta, gradient=grad, hessian=H, sigma=sigma,
                           c0=c0, spectral=sr)


@dataclass
class ScanRow:
    t: float
    v: tuple
    p: int
    abs_lambda: float
    violation: bool


@dataclass
class ScanReport:
    delta: float
    rows: list

    @property
    def violations(self) -> list:
        return [r for r in self.rows if r.violation]

    def max_abs_lambda(self) -> float:
        return max(r.abs_lambda for r in self.rows)


def _column_phases(spec: OperatorSpec, v, p: int) -> Optional[np.ndarray]:
    """e^{cw[a, b]} (spec.twist) per symbol a if it is the same for every
    admissible b, so M(s, v, p) = M(s, 0, 0) D, D scaling block column a by it; else None."""
    cw, A = spec.twist(v, p), spec.shift.transition != 0
    first = cw[np.arange(spec.shift.k), A.argmax(axis=1)]
    return None if np.any(A & (cw != first[:, None])) else np.exp(first)


def spectral_radius_scan(spec: OperatorSpec, delta: float, t_grid: Sequence[float],
                         v_grid: Sequence, p_list: Sequence[int] = (0,),
                         margin: float = 1e-3) -> ScanReport:
    """|lambda(delta + i t, v, p)| over the grid; any point other than
    (0, 0, trivial) reaching 1 - margin is flagged as a violation.

    A twist whose phase depends on a transition's first symbol alone (every
    twist of a Schottky coding; _column_phases) scales the block columns of
    M(delta + i t, 0, 0): each t row builds that matrix, solves those twists as
    one batch and checks their off-node residuals in one product; any other
    twist solves its own matrix.  Row t_i goes to process i mod
    shift._workers() (shift._fork_map), which inherits the spec's grid; no row
    depends on its process."""
    shift, points, ts = spec.shift, [], sorted(float(t) for t in t_grid)
    if not (ts and len(v_grid) and len(p_list)):
        raise ValidationError("a scan needs at least one t, one v and one p")
    for v in v_grid:
        vv = tuple(np.atleast_1d(np.asarray(v, dtype=float)).tolist())
        if len(vv) != shift.d:
            raise ValidationError(f"scan twist {vv} has wrong dimension")
        points += [(vv, p, _column_phases(spec, vv, p)) for p in p_list]
    P = np.array([ph for _, _, ph in points if ph is not None])

    def scan_rows(ts):
        rows = []
        for t in ts:
            s = complex(delta, t)
            batch = iter(_certified(spec, s, phases=P)[1] if len(P) else [])
            for vv, p, ph in points:
                lam = (next(batch) if ph is not None else _certified(spec, s, vv, p)[1][0])[0]
                mod = float(abs(lam))
                trivial = abs(t) < 1e-15 and not any(abs(x) > 1e-15 for x in vv) and p == 0
                rows.append(ScanRow(t=t, v=vv, p=p, abs_lambda=mod,
                                    violation=(not trivial) and mod > 1.0 - margin))
        return rows

    w = max(1, min(sh._workers(), len(ts)))
    rows = [r for part in sh._fork_map(scan_rows, [ts[i::w] for i in range(w)]) for r in part]
    rows.sort(key=lambda r: (r.t, r.v, r.p))
    return ScanReport(delta=delta, rows=rows)
