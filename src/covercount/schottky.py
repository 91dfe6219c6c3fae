"""Schottky groups: ping-pong validation, reduced-word orbit enumeration with
geometric pruning, the Z^d homology cocycle, and primitive conjugacy classes.

Symbols are letters {1,-1,2,-2,...,g,-g}; letter k > 0 is generator k, -k its
inverse.  The symbol index order 1 < -1 < 2 < -2 < ... orders words: a class
is represented by its Lyndon word (its least rotation), and enumeration order
is deterministic.  Disk j of letter a is the disk the letter maps INTO:
letter a sends the exterior of disk(-a) onto the interior of disk(a).

Both enumerators walk index words (symbol indices, see word_key) depth first
over numpy blocks of <= BLOCK words of one length, in hyp.Split arithmetic,
so every record is that of a walk of single words to the last bit.  They
hold their records as columns: word rows, values, classes (a child's is its
parent's plus its letter's column) and matrices, and raise BudgetExceeded as
soon as they hold more than budget, so a walk over its budget emits nothing.
Otherwise one sort of the padded word rows gives the emission order, and the
records are built as they are emitted (_emit_sorted).
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import hyperbolic as hyp
from .errors import (BudgetExceeded, DisksOverlap, PairingBroken, PoleAtPoint,
                     RankDeficientHomology, ValidationError)
from .hyperbolic import Model, MoebiusMap

PAIRING_TOL = 1e-8
# relative slack of the orbit shadow prune and of the cheap cosh pre-test
# before a record's displacement is compared with T: far above the rounding
# of the pulled-back base point and of cosh, far below any change in the
# records they keep
SHADOW_SLACK = 1e-9
IDENTITY = (1.0 + 0j, 0j, 0j, 1.0 + 0j)  # raw (a, b, c, d) of the empty word


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


def sym_index(letter: int) -> int:
    """1,-1,2,-2,... -> 0,1,2,3,..."""
    return 2 * (abs(letter) - 1) + (0 if letter > 0 else 1)


def letter_of_index(idx: int) -> int:
    k = idx // 2 + 1
    return k if idx % 2 == 0 else -k


def inverse_index(idx: int) -> int:
    return idx ^ 1


def word_key(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(sym_index(a) for a in word)


def is_reduced(word: Sequence[int]) -> bool:
    return all(word[i + 1] != -word[i] for i in range(len(word) - 1))


def is_cyclically_reduced(word: Sequence[int]) -> bool:
    if not word:
        return False
    return is_reduced(word) and word[0] != -word[-1]


Matrix = tuple[complex, complex, complex, complex]  # raw (a, b, c, d)


class OrbitRecord(NamedTuple):
    word: tuple[int, ...]
    displacement: float
    homology: tuple[int, ...]
    matrix: Matrix  # the word's product, bit-identical to group.evaluate(word)


class GeodesicRecord(NamedTuple):
    word: tuple[int, ...]
    length: float
    homology: tuple[int, ...]
    holonomy: float
    matrix: Matrix


def _rank_over_q(mat: Sequence[Sequence[int]]) -> int:
    rows = [[Fraction(int(x)) for x in row] for row in mat]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def numbers_only(values, name: str):
    """values, refused unless it is a number or nested lists (or arrays) of
    numbers: json reads "1.0" as a string and true as a bool, which float(),
    complex() and numpy take for 1.0 and 1."""
    todo = [values]
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif not (x.dtype.kind in "iufc" if isinstance(x, np.ndarray)
                  else isinstance(x, numbers.Number) and not isinstance(x, bool)):
            raise ValidationError(f"{name}: {x!r} is not a number")
    return values


def integer_array(values, name: str) -> np.ndarray:
    """values as int64, refused unless every entry is an integer (the cast
    alone would truncate 0.5 to 0, and would take True for 1)."""
    x = np.asarray(values)
    if not (x.dtype.kind in "iu" or x.dtype.kind == "f"
            and np.all((np.abs(x) < 2.0 ** 53) & (x == np.round(x)))):
        raise ValidationError(f"{name} entries must be integers")
    return x.astype(np.int64)


class SchottkyGroup:
    """Validated Schottky data; immutable once constructed."""

    def __init__(self, generators: Sequence[MoebiusMap],
                 disks_minus: Sequence[Disk], disks_plus: Sequence[Disk],
                 homology_matrix: Sequence[Sequence[int]],
                 model: Model = Model.H2):
        self.model = Model(model)
        self.generators = tuple(generators)
        self.g = len(self.generators)
        # disk per symbol index: letter a maps into disk(sym_index(a))
        disks: list[Disk] = []
        for i in range(self.g):
            disks.append(disks_plus[i])
            disks.append(disks_minus[i])
        self.disks = tuple(disks)
        hom = integer_array(homology_matrix, "homology_matrix")
        if hom.size == 0:
            hom = hom.reshape(0, self.g)
        self.homology_matrix = hom
        self.d = hom.shape[0]
        # matrices per symbol index, as raw (a, b, c, d) tuples
        mats: list[tuple[complex, complex, complex, complex]] = []
        for gen in self.generators:
            mats.append(gen.entries)
            mats.append(hyp.inverse(gen).entries)
        self._mats = tuple(mats)
        # homology increment per symbol index: rows +col, -col per generator
        self._hom = np.stack([hom.T, -hom.T], axis=1).reshape(2 * self.g, self.d)
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        n = 2 * self.g
        if self.g < 2:
            raise ValidationError("need at least 2 generators for a nonelementary group")
        data = [x for dk in self.disks for x in (dk.center, dk.radius)]
        data += [x for gen in self.generators for x in gen.entries]
        if not all(cmath.isfinite(x) for x in data):
            raise ValidationError("disk centers, radii and generator entries must be finite")
        overlaps = [(i, j) for i in range(n) for j in range(i + 1, n)
                    if abs(self.disks[i].center - self.disks[j].center)
                    <= self.disks[i].radius + self.disks[j].radius]
        if overlaps:
            raise DisksOverlap(overlaps)
        if not (0 <= self.d <= self.g):
            raise ValidationError(f"homology dimension {self.d} outside [0, {self.g}]")
        if self.homology_matrix.shape[1] != self.g:
            raise ValidationError("homology matrix must have one column per generator")
        if self.d > 0 and _rank_over_q(self.homology_matrix.tolist()) < self.d:
            raise RankDeficientHomology(_rank_over_q(self.homology_matrix.tolist()), self.d)
        for i, gen in enumerate(self.generators):
            dminus = self.disks[sym_index(-(i + 1))]
            dplus = self.disks[sym_index(i + 1)]
            if gen.model != self.model:
                raise ValidationError(f"generator {i + 1} has wrong model tag")
            try:  # 16 points of disk(-a)'s circle, and one far outside it
                images = [hyp.apply_boundary(gen, dminus.center + dminus.radius
                                             * cmath.exp(2j * math.pi * k / 16))
                          for k in range(16)]
                far = hyp.apply_boundary(gen, dminus.center + 1e7 * dminus.radius)
            except PoleAtPoint as e:
                raise PairingBroken(i + 1, f"({e})") from None
            for k, w in enumerate(images):
                if abs(abs(w - dplus.center) - dplus.radius) > PAIRING_TOL:
                    raise PairingBroken(i + 1, f"(boundary point {k} maps off the paired circle)")
            if abs(far - dplus.center) >= dplus.radius:
                raise PairingBroken(i + 1, "(exterior does not map inside the paired disk)")
        if self.model == Model.H2:
            for i, dk in enumerate(self.disks):
                if abs(dk.center.imag) > 1e-12:
                    raise ValidationError(f"H2 disk {i} must be centered on the real axis")
        for dk in self.disks:
            if abs(dk.center) ** 2 + 1.0 <= dk.radius ** 2:
                raise ValidationError("base point o lies inside a Schottky half-space")

    # -- symbol data ------------------------------------------------------

    @property
    def n_symbols(self) -> int:
        return 2 * self.g

    def symbol_matrix(self, idx: int) -> tuple[complex, complex, complex, complex]:
        return self._mats[idx]

    def abelianize(self, word: Sequence[int]) -> tuple[int, ...]:
        """Class in Z^d of the word: the sum of its symbols' columns."""
        return tuple(self._hom[list(word_key(word))].sum(axis=0).tolist())

    def evaluate(self, word: Sequence[int]) -> MoebiusMap:
        m = IDENTITY
        for letter in word:
            m = hyp.mat_mul(m, self._mats[sym_index(letter)])
        return MoebiusMap(*m, self.model, normalize=False)

    def fingerprint(self) -> str:
        blob = {
            "model": self.model.value,
            "generators": [[[x.real, x.imag] for x in g.entries] for g in self.generators],
            "disks": [[dk.center.real, dk.center.imag, dk.radius] for dk in self.disks],
            "homology": self.homology_matrix.tolist(),
        }
        return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()

    # -- pruning geometry --------------------------------------------------

    def min_cycle_step(self) -> float:
        """Lower bound on the per-letter length gain of cyclic words:
        tau >= -log sup_{D_b} |gamma_a'| = 2 log(|c z_b + d| - |c| r_b) over
        admissible (a, b), the division-free bound primitive_classes prunes with."""
        worst = math.inf
        for a in range(self.n_symbols):
            _, _, c, d = self._mats[a]
            for b in range(self.n_symbols):
                if b == inverse_index(a):
                    continue
                db = self.disks[b]
                gap = abs(c * db.center + d) - abs(c) * db.radius
                if gap <= 0:
                    raise ValidationError("pole inside an admissible disk")
                worst = min(worst, gap)
        step = 2.0 * math.log(worst)
        if step <= 0:
            raise ValidationError("disks too weakly contracted for class enumeration")
        return step


BLOCK = 4096  # most words per walk block: 2048 is 11% slower, 8192 adds 2 MB RSS
EMIT_CHUNK = 512  # records built at a time from the sorted columns


def _entries(M: np.ndarray) -> list:
    """Raw (a, b, c, d) of matrices held as rows re a, im a, ..., im d."""
    return [hyp.Split(M[i], M[i + 1]) for i in range(0, 8, 2)]


def _emit_sorted(found: list, key: Callable, make: Callable, n: int,
                 emit: Callable) -> None:
    """Emit, EMIT_CHUNK at a time, the records held in found as blocks of
    columns (word rows, then one per field after the word), emptying found,
    in the order of key(words padded with 0, lengths): sort rows, primary first."""
    if not found:
        return
    width = max(W.shape[1] for W, *_ in found)
    words = np.concatenate([np.pad(W, ((0, 0), (0, width - W.shape[1]))) for W, *_ in found])
    sizes = np.concatenate([np.full(len(W), W.shape[1]) for W, *_ in found])
    fields = [np.concatenate(col) for col in zip(*(rest for _, *rest in found))]
    found.clear()
    order = np.lexsort(key(words, sizes)[::-1])
    letters = np.array([letter_of_index(idx) for idx in range(n)])
    for s in range(0, len(order), EMIT_CHUNK):
        j = order[s:s + EMIT_CHUNK]
        cols = [f[j].tolist() if f.ndim == 1 else map(tuple, f[j].tolist()) for f in fields]
        for w, k, *rest in zip(letters[words[j]].tolist(), sizes[j].tolist(), *cols):
            emit(make(tuple(w[:k]), *rest))


def enumerate_orbit(group: SchottkyGroup, T: float,
                    emit: Optional[Callable[[OrbitRecord], None]] = None,
                    budget: Optional[int] = None) -> int:
    """Emit every reduced word with displacement <= T exactly once.

    Depth-first with a per-child shadow prune.  Let w be a reduced word and b
    a letter that may follow it.  By ping-pong every reduced word b v sends o
    into the half-space H_b over disk b (validate() checks that o lies outside
    every H_c), so every descendant u = w b v, w b included, has u o in
    w(H_b).  Hence d(o, u o) >= d(o, w(H_b)) = d(p, H_b) with p = w^-1 o =
    (z, t), and for p outside the half-space over the disk (q, r)

        sinh d(p, H_b) = (|z - q|^2 + t^2 - r^2) / (2 r t),

    which is (|z'|^2 + 1 - r'^2) / (2 r') for the image circle (z', r') =
    w(D_b).  The child is dropped before its matrix product when this exceeds
    sinh T, with the relative slack SHADOW_SLACK so that rounding never cuts a
    record at exactly T.  A word is a record when its reported displacement
    acosh(||w||_F^2 / 2) is <= T; the cosh pre-test carries the same slack,
    because cosh(acosh(x)) can round below x.

    The block walk (see the module docstring) starts from the empty word.
    Records are emitted in (first letter, length, index word) order, the
    empty word first.
    """
    if not math.isfinite(T):
        raise ValidationError(f"orbit cut-off T is {T}: it must be finite, not NaN or infinite")
    cosh_cut = math.cosh(T) * (1.0 + SHADOW_SLACK)
    sinh_cut = math.sinh(T) * (1.0 + SHADOW_SLACK)
    n = group.n_symbols
    gens = np.array(group._mats).view(float).T  # rows: re, im of a, b, c, d
    # per letter (rows): its disk's center q and r^2, and 2 r sinh T with the slack
    q = np.array([[dk.center] for dk in group.disks])
    r = np.array([[dk.radius] for dk in group.disks])
    r2, cut = r * r, 2.0 * r * sinh_cut
    idx = np.arange(n, dtype=np.uint8)[:, None]
    stack = [(np.zeros((1, 0), np.uint8), np.array(IDENTITY).view(float)[:, None],
              np.zeros((1, group.d), np.int64))]  # (words, matrices, classes)
    found: list = []  # (words, displacements, classes, matrices) per block
    count = 0
    while stack:
        W, M, H = stack.pop()
        a, b, c, d = _entries(M)
        ch = hyp.frob2((a, b, c, d)) / 2.0
        cand = np.flatnonzero(ch <= cosh_cut)
        disp = np.array([math.acosh(x) for x in np.maximum(ch[cand], 1.0).tolist()])
        ok = disp <= T
        hit = cand[ok]
        count += hit.size
        if budget is not None and count > budget:
            raise BudgetExceeded(budget)
        found.append((W[hit], disp[ok], H[hit], M[:, hit].T.copy().view(complex)))
        # p = w^-1 o = (z, t): z = -(b conj(a) + d conj(c)) t as one complex
        # gave it, but for the signs of zeros, which the squares drop
        t = 1.0 / (a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag)
        zb = b * hyp.Split(a.real, -a.imag) + d * hyp.Split(c.real, -c.imag)
        dzr, dzi = -zb.real * t - q.real, -zb.imag * t - q.imag  # rows: letters
        far = dzr * dzr + dzi * dzi + t * t - r2 > cut * t
        bad = W[:, -1] ^ 1 if W.shape[1] else n
        let, par = np.nonzero(~far & (idx != bad))
        let = let.astype(np.uint8)
        for s in range(0, len(par), BLOCK):  # one child block at a time
            lets, pars = let[s:s + BLOCK], par[s:s + BLOCK]
            CW = np.concatenate([W[pars], lets[:, None]], axis=1)
            CM = np.array(hyp.mat_mul(_entries(M[:, pars]), _entries(gens[:, lets])))
            stack.append((CW, CM.reshape(8, -1), H[pars] + group._hom[lets]))
    if emit is not None:
        key = lambda w, k: [*w[:, :1].T, k, *w.T]  # the empty word (k = 0) first
        _emit_sorted(found, key, OrbitRecord, n, emit)
    return count


def enumerate_orbit_bruteforce(group: SchottkyGroup, T: float, max_len: int) -> list[OrbitRecord]:
    """Prune-free oracle: every reduced word of length <= max_len, filtered by
    displacement <= T.  Exponential in max_len; cross-check use only."""
    out: list[OrbitRecord] = []
    mats = group._mats
    n = group.n_symbols

    def rec_walk(word, m, last):
        disp = hyp.displacement(m)
        if disp <= T:
            out.append(OrbitRecord(word, disp, group.abelianize(word), m))
        if len(word) >= max_len:
            return
        for idx in range(n):
            if last is not None and idx == inverse_index(last):
                continue
            rec_walk(word + (letter_of_index(idx),), hyp.mat_mul(m, mats[idx]), idx)

    rec_walk((), IDENTITY, None)
    return out


def primitive_classes(group: SchottkyGroup, L: float,
                      emit: Optional[Callable[[GeodesicRecord], None]] = None,
                      budget: Optional[int] = None) -> int:
    """Emit every oriented primitive conjugacy class with length <= L once.

    A class is a cyclically reduced word up to rotation, represented by its
    Lyndon word (strictly least rotation) in the order 1 < -1 < 2 < -2 < ...;
    orientation-reversed classes are distinct.

    Words grow as prenecklaces of symbol indices (Fredricksen-Kessler-Maiorana
    / Duval): w of length k and Lyndon period p takes only letters b >= w[k-p],
    keeping p if b = w[k-p], else p = k + 1; no necklace starts otherwise.  w
    is a class when p = k and its last letter is not the inverse of its first.

    Length pruning: with (c, d) the bottom row of w's matrix and D_b = disk
    (z_b, r_b), every completion u of w b has |u'(fix)| <= sup_{D_b} |w'|, as
    later letters only contract; so length(u) >= 2 log(|c z_b + d| - |c| r_b),
    and w b is dropped when |c z_b + d| - |c| r_b > exp(L/2), with no log.
    As |tr| <= |lam| + 1/|lam| = 2 cosh(length/2) for multiplier lam, a
    candidate with |tr| > 2 cosh(L/2) is dropped before its trace invariants
    are taken (exact on H2, one-sided on H3).  Both caps are widened by 1e-12
    and are inf past L ~ 1419, where they overflow.

    The block walk (see the module docstring) takes the trace invariants of
    a block's candidates in one hyp.trace_invariants call.  Classes are
    emitted in the order of a walk of single words: first letter ascending,
    later ones descending, a prefix first.
    """
    if not math.isfinite(L):
        raise ValidationError(f"class cut-off L is {L}: it must be finite, not NaN or infinite")
    group.min_cycle_step()  # validates that all admissible steps contract
    n = group.n_symbols
    with np.errstate(over="ignore"):
        gap_cap = np.exp(L / 2.0) * (1.0 + 1e-12)
        tr_cap = 2.0 * np.cosh(L / 2.0) * (1.0 + 1e-12)
    gens = np.array(group._mats).view(float).T  # rows: re, im of a, b, c, d
    q = np.array([[dk.center] for dk in group.disks])
    centers, radii = hyp.Split(q.real, q.imag), np.array([[dk.radius] for dk in group.disks])
    idx = np.arange(n, dtype=np.uint8)[:, None]
    stack = [(idx.copy(), gens, group._hom.copy(), np.ones(n, dtype=np.int64))]
    found: list = []  # (words, lengths, classes, holonomies, matrices) per block
    count = 0
    while stack:
        W, M, H, p = stack.pop()  # words, matrices, classes, Lyndon periods
        k = W.shape[1]
        a, _, c, d = _entries(M)
        tr = a + d
        cand = np.flatnonzero((p == k) & (W[:, -1] != W[:, 0] ^ 1) & (abs(tr) <= tr_cap))
        if cand.size:  # about half the blocks have none, and a kernel call costs ~60 us
            length, theta = hyp.trace_invariants(hyp.Split(tr.real[cand], tr.imag[cand]),
                                                 group.model)
            ok = (0.0 < length) & (length <= L)
            hit = cand[ok]
            count += hit.size
            if budget is not None and count > budget:
                raise BudgetExceeded(budget)
            found.append((W[hit], length[ok], H[hit], theta[ok],
                          M[:, hit].T.copy().view(complex)))
        gap = abs(c * centers + d) - abs(c) * radii  # rows: letters, columns: words
        low = W[np.arange(len(W)), k - p]
        keep = ~(gap > gap_cap) & (idx >= low) & (idx != W[:, -1] ^ 1)
        let, par = np.nonzero(keep)
        let = let.astype(np.uint8)
        for s in range(0, len(par), BLOCK):  # one child block at a time
            lets, pars = let[s:s + BLOCK], par[s:s + BLOCK]
            CW = np.concatenate([W[pars], lets[:, None]], axis=1)
            CM = np.array(hyp.mat_mul(_entries(M[:, pars]), _entries(gens[:, lets])))
            stack.append((CW, CM.reshape(8, -1), H[pars] + group._hom[lets],
                          np.where(lets == low[pars], p[pars], k + 1)))
    if emit is not None:
        # the first letter ascending, later ones descending, a prefix (padded by 0) first
        later = lambda w, k: np.where(np.arange(1, w.shape[1]) < k[:, None], n - w[:, 1:], 0)
        key = lambda w, k: [w[:, 0], *later(w, k).T]
        _emit_sorted(found, key, GeodesicRecord, n, emit)
    return count
