import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import scalar_trace_invariants
from covercount import schottky as sk
from covercount.errors import (BudgetExceeded, DisksOverlap, PairingBroken,
                               RankDeficientHomology, ValidationError)
from covercount.groupfile import fixture_text, group_from_dict, load_group, pairing_map
from covercount.hyperbolic import Model, frob2, geodesic_invariants, mat_mul
from covercount.schottky import (Disk, SchottkyGroup, canonical_rotation,
                                 enumerate_orbit, enumerate_orbit_bruteforce,
                                 is_cyclically_reduced, is_primitive, is_reduced,
                                 primitive_classes)

# Word operations and a homology query that only the tests use.

def reduce_concat(w1, w2) -> tuple[int, ...]:
    out = list(w1)
    for a in w2:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def word_inverse(word) -> tuple[int, ...]:
    return tuple(-a for a in reversed(word))


def kernel_membership(group, word) -> bool:
    return all(x == 0 for x in group.abelianize(word))


letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words = st.lists(letters, max_size=10).map(tuple)


def simple_group(d=1):
    return group_from_dict({
        "model": "H2",
        "disks": [
            {"minus": {"center": [-3.0, 0.0], "radius": 1.0},
             "plus": {"center": [3.0, 0.0], "radius": 1.0}},
            {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
             "plus": {"center": [9.0, 0.0], "radius": 1.0}},
        ],
        "homology_matrix": [[1, 0]] if d == 1 else np.eye(d, 2, dtype=int).tolist(),
    })


# -- word utilities ----------------------------------------------------------

def test_symbol_order_matches_spec():
    # canonical letter order 1 < -1 < 2 < -2
    assert [sk.letter_of_index(i) for i in range(4)] == [1, -1, 2, -2]
    assert sk.inverse_index(sk.sym_index(1)) == sk.sym_index(-1)


@given(words, words)
@settings(max_examples=200, deadline=None)
def test_reduce_concat_is_reduced(w1, w2):
    r1, r2 = reduce_concat((), w1), reduce_concat((), w2)
    assert is_reduced(reduce_concat(r1, r2))


@given(words)
@settings(max_examples=200, deadline=None)
def test_word_inverse_cancels(w):
    r = reduce_concat((), w)
    assert reduce_concat(r, word_inverse(r)) == ()


def test_canonical_rotation_is_least():
    word = (2, 1, -1)  # not cyclically reduced rotations matter less; use a clean one
    word = (2, 1, 2)
    rot = canonical_rotation(word)
    assert rot == (1, 2, 2)
    assert all(sk.word_key(rot) <= sk.word_key(r) for r in sk.rotations(word))


def test_primitivity():
    assert is_primitive((1, 2))
    assert not is_primitive((1, 2, 1, 2))
    assert not is_primitive((1, 1))
    assert is_primitive((1, 1, 2))


# -- group evaluation and cocycle ---------------------------------------------

def test_evaluate_matches_composition(group_b):
    w1, w2 = (1, 2, -1), (2, 2, 1)
    lhs = group_b.evaluate(w1 + w2)  # concatenation stays reduced
    from covercount.hyperbolic import compose
    rhs = compose(group_b.evaluate(w1), group_b.evaluate(w2))
    assert max(abs(x - y) for x, y in zip(lhs.entries, rhs.entries)) <= 1e-9


def test_abelianize_examples():
    g = group_from_dict({
        "model": "H2",
        "disks": [
            {"minus": {"center": [-3.0, 0.0], "radius": 1.0},
             "plus": {"center": [3.0, 0.0], "radius": 1.0}},
            {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
             "plus": {"center": [9.0, 0.0], "radius": 1.0}},
        ],
        "homology_matrix": [[1, 0], [0, 1]],
    })
    assert g.abelianize(()) == (0, 0)
    assert g.abelianize((1, 2, -1, -2)) == (0, 0)  # commutator
    assert g.abelianize((1, 2, 1)) == (2, 1)
    assert kernel_membership(g, (1, -2, -1, 2))
    assert not kernel_membership(g, (1,))


# -- validation -----------------------------------------------------------------

def test_validate_ok():
    simple_group()  # constructor validates


def test_disks_overlap_rejected():
    with pytest.raises(DisksOverlap):
        group_from_dict({
            "model": "H2",
            "disks": [
                {"minus": {"center": [-3.0, 0.0], "radius": 5.0},
                 "plus": {"center": [3.0, 0.0], "radius": 5.0}},
                {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
                 "plus": {"center": [9.0, 0.0], "radius": 1.0}},
            ],
            "homology_matrix": [[1, 0]],
        })


def test_rank_deficient_homology_rejected():
    with pytest.raises(RankDeficientHomology):
        group_from_dict({
            "model": "H2",
            "disks": [
                {"minus": {"center": [-3.0, 0.0], "radius": 1.0},
                 "plus": {"center": [3.0, 0.0], "radius": 1.0}},
                {"minus": {"center": [-9.0, 0.0], "radius": 1.0},
                 "plus": {"center": [9.0, 0.0], "radius": 1.0}},
            ],
            "homology_matrix": [[0, 0]],
        })


@pytest.mark.parametrize("field", ["radius", "center", "generator"])
def test_non_finite_group_dict_rejected(field):
    # every overlap, pairing and base-point comparison with NaN is false
    data = json.loads(fixture_text("b"))
    plus = data["disks"][0]["plus"]
    if field == "radius":
        plus["radius"] = math.nan
    elif field == "center":
        plus["center"] = [math.nan, 0.0]
    else:
        data["generators"] = [list(gen.entries) for gen in load_group(data).generators]
        data["generators"][0][1] = math.nan
    with pytest.raises(ValidationError, match="finite"):
        load_group(data)


def test_non_finite_disk_rejected_by_constructor():
    g = simple_group()
    with pytest.raises(ValidationError, match="finite"):
        SchottkyGroup(g.generators,
                      [Disk(-3.0 + 0j, math.nan), Disk(-9.0 + 0j, 1.0)],
                      [Disk(3.0 + 0j, 1.0), Disk(9.0 + 0j, 1.0)],
                      [[1, 0]], Model.H2)


def test_broken_pairing_rejected():
    g = simple_group()
    bad = [pairing_map(Disk(-3.0 + 0j, 1.0), Disk(3.0 + 0j, 1.0), Model.H2)] * 2
    with pytest.raises(PairingBroken):
        SchottkyGroup(bad,
                      [Disk(-3.0 + 0j, 1.0), Disk(-9.0 + 0j, 1.0)],
                      [Disk(3.0 + 0j, 1.0), Disk(9.0 + 0j, 1.0)],
                      [[1, 0]], Model.H2)


# -- orbit enumeration -----------------------------------------------------------

def test_enumerate_t0_identity_only():
    g = simple_group()
    records = []
    n = enumerate_orbit(g, 0.0, emit=records.append)
    assert n == 1
    assert records[0].word == ()
    assert records[0].displacement == 0.0


def test_enumerate_below_min_generator():
    g = simple_group()
    min_gen = min(geodesic_invariants(x).length for x in g.generators)
    n = enumerate_orbit(g, min_gen * 0.5)
    assert n == 1


ORACLE_CASES = [
    ("b", 6.0, 11),    # longest emitted word: 7 letters
    ("c", 6.0, 8),     # 6 letters
    ("d0", 8.5, 10),   # 7 letters; H3, where the shadows are 3-dimensional
    ("d1", 8.5, 10),   # 7 letters
]


def _reference_homology(group, word) -> tuple[int, ...]:
    """The homology matrix times the word's exponent sum per generator."""
    exps = np.zeros(group.g, dtype=np.int64)
    for a in word:
        exps[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(int(x) for x in group.homology_matrix @ exps)


def _assert_matches_oracle(group, T, max_len):
    records = []
    enumerate_orbit(group, T, emit=records.append)
    brute = enumerate_orbit_bruteforce(group, T, max_len=max_len)
    # the oracle is complete only if no emitted word comes near its depth
    assert max(len(r.word) for r in records) < max_len
    assert set(r.word for r in records) == set(r.word for r in brute)
    assert len(records) == len(brute)
    assert all(r.homology == _reference_homology(group, r.word) for r in records)


@pytest.mark.parametrize("name,T,max_len", ORACLE_CASES + [
    ("d0", 11.0, 11),  # 10 letters, 1521 records
], ids=["b", "c", "d0", "d1", "d0-large"])
def test_enumerate_matches_bruteforce_oracle(request, name, T, max_len):
    _assert_matches_oracle(request.getfixturevalue(f"group_{name}"), T, max_len)


@pytest.mark.parametrize("name,T,max_len", ORACLE_CASES, ids=["b", "c", "d0", "d1"])
def test_enumerate_oracle_at_record_displacement(request, name, T, max_len):
    # T is the displacement of an emitted record, so the shadow cut and the
    # emit test both sit at a record, which must be emitted
    group = request.getfixturevalue(f"group_{name}")
    records = []
    enumerate_orbit(group, T, emit=records.append)
    edge = max(r.displacement for r in records)
    _assert_matches_oracle(group, edge, max_len)


def test_enumerate_keeps_record_at_its_own_displacement(group_b):
    # the largest displacement emitted at T = 6 is that of (1, 1, -2) and its
    # three ties; cosh of it rounds below ||w||_F^2 / 2, so a cosh test alone
    # dropped all four and returned 31 records
    T = 5.904845882756799
    records = []
    enumerate_orbit(group_b, T, emit=records.append)
    assert len(records) == 35
    assert (1, 1, -2) in {r.word for r in records}
    assert sum(r.displacement == T for r in records) == 4
    assert len(enumerate_orbit_bruteforce(group_b, T, max_len=8)) == 35


def _image_circle(m, q, r):
    """The circle |z - q| = r under a det-1 map with its pole outside."""
    a, b, c, d = m
    den = abs(c * q + d) ** 2 - abs(c) ** 2 * r * r
    center = ((a * q + b) * (c * q + d).conjugate() - a * c.conjugate() * r * r) / den
    return center, r / abs(den)


@pytest.mark.parametrize("name,T,max_len", ORACLE_CASES, ids=["b", "c", "d0", "d1"])
def test_shadow_bound_holds_on_every_split(request, name, T, max_len):
    # the lemma behind the prune: for every reduced u = w b v, with (z, r) the
    # image circle w(D_b), 2 r sinh d(o, u o) >= |z|^2 + 1 - r^2; it holds for
    # any reduced word, so the oracle need not be complete at T + 2
    group = request.getfixturevalue(f"group_{name}")
    checked = 0
    for rec in enumerate_orbit_bruteforce(group, T + 2.0, max_len=max_len):
        for k in range(len(rec.word)):
            w = group.evaluate(rec.word[:k]).entries
            dk = group.disks[sk.sym_index(rec.word[k])]
            z, r = _image_circle(w, dk.center, dk.radius)
            assert abs(z) ** 2 + 1.0 - r * r <= 2.0 * r * math.sinh(rec.displacement)
            checked += 1
    assert checked > 300


def _reference_orbit_words(group, T):
    """Reduced words with displacement <= T, from a depth-first walk that
    drops a child w b only when the image circle (z, r) = w(D_b) puts its
    half-space more than T + 1 from o: the lemma above, with a loose cut."""
    words = []
    cut = math.sinh(T + 1.0)
    stack = [((), sk.IDENTITY, None)]
    while stack:
        word, m, last = stack.pop()
        if sum(abs(x) ** 2 for x in m) / 2.0 <= math.cosh(T):
            words.append(word)
        for idx in range(group.n_symbols):
            if last is not None and idx == sk.inverse_index(last):
                continue
            dk = group.disks[idx]
            z, r = _image_circle(m, dk.center, dk.radius)
            if abs(z) ** 2 + 1.0 - r * r > 2.0 * r * cut:
                continue
            stack.append((word + (sk.letter_of_index(idx),),
                          mat_mul(m, group.symbol_matrix(idx)), idx))
    return words


@pytest.mark.parametrize("name,T", [("b", 13.0), ("c", 12.5), ("d0", 11.0), ("d1", 11.0)],
                         ids=["b", "c", "d0", "d1"])
def test_enumerate_matches_reference_walk(request, name, T):
    # at the census scale, past the reach of the prune-free oracle
    group = request.getfixturevalue(f"group_{name}")
    words = []
    enumerate_orbit(group, T, emit=lambda r: words.append(r.word))
    assert sorted(words, key=sk.word_key) == sorted(_reference_orbit_words(group, T),
                                                    key=sk.word_key)
    assert len(words) > 1500


def test_records_carry_evaluated_matrix(group_b, group_d0):
    for group in (group_b, group_d0):
        orbits, classes = [], []
        enumerate_orbit(group, 7.0, emit=orbits.append)
        primitive_classes(group, 7.0, emit=classes.append)
        for rec in orbits:  # to the last bit, signs of zeros included
            assert repr(rec.matrix) == repr(group.evaluate(rec.word).entries)
        for rec in classes:
            assert rec.matrix == group.evaluate(rec.word).entries


def test_enumerate_no_duplicates_and_reduced(group_b):
    records = []
    enumerate_orbit(group_b, 9.0, emit=records.append)
    seen = set(r.word for r in records)
    assert len(seen) == len(records)
    assert all(is_reduced(r.word) for r in records)


def test_enumerate_count_symmetry(group_b):
    by_xi = {}
    def take(rec):
        by_xi[rec.homology] = by_xi.get(rec.homology, 0) + 1
    enumerate_orbit(group_b, 9.0, emit=take)
    for xi, n in by_xi.items():
        assert by_xi[tuple(-x for x in xi)] == n


def test_enumerate_budget():
    g = simple_group()
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(g, 12.0, budget=5)


def test_enumerate_identity_is_an_ordinary_record(group_b):
    # displacement 0 is above T < 0, and the identity counts against the budget
    records = []
    assert enumerate_orbit(group_b, -1.0, emit=records.append) == 0
    assert records == []
    with pytest.raises(BudgetExceeded):
        enumerate_orbit(group_b, 0.0, budget=0)
    assert enumerate_orbit(group_b, 0.0, emit=records.append, budget=1) == 1
    assert records == [sk.OrbitRecord((), 0.0, (0,), sk.IDENTITY)]


# The scalar depth-first loop that the block orbit walk replaced: one word
# and one Python complex product per node, records collected as visited and
# sorted once.  The block walk must give its records bit for bit and in its
# order; over a budget both raise and emit nothing.

def _scalar_enumerate_orbit(group, T, emit=None, budget=None):
    cosh_cut = math.cosh(T) * (1.0 + sk.SHADOW_SLACK)
    sinh_cut = math.sinh(T) * (1.0 + sk.SHADOW_SLACK)
    mats = group._mats
    letters = [sk.letter_of_index(idx) for idx in range(group.n_symbols)]
    shadows = [(idx, dk.center, dk.radius * dk.radius, 2.0 * dk.radius * sinh_cut)
               for idx, dk in enumerate(group.disks)]
    found = []  # (index word, displacement, matrix) per record
    stack = [((), sk.IDENTITY)]
    while stack:
        w, m = stack.pop()
        ch = frob2(m) / 2.0
        if ch <= cosh_cut:
            disp = math.acosh(max(ch, 1.0))
            if disp <= T:
                found.append((w, disp, m))
                if budget is not None and len(found) > budget:
                    raise BudgetExceeded(budget)
        a, b, c, d = m
        t = 1.0 / (a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag)
        z = -(b * a.conjugate() + d * c.conjugate()) * t
        tt = t * t
        bad = sk.inverse_index(w[-1]) if w else None
        for idx, q, r2, cut in shadows:
            if idx == bad:
                continue
            dz = z - q
            if dz.real * dz.real + dz.imag * dz.imag + tt - r2 > cut * t:
                continue
            stack.append((w + (idx,), mat_mul(m, mats[idx])))
    if emit is not None:
        found.sort(key=lambda rec: (rec[0][:1], len(rec[0]), rec[0]))
        for w, disp, m in found:
            word = tuple(map(letters.__getitem__, w))
            emit(sk.OrbitRecord(word, disp, _reference_homology(group, word), m))
    return len(found)


def _run(fn, group, cut_off, budget=None):
    """(count or "budget", records as reprs: every float to the last bit)."""
    records = []
    try:
        out = fn(group, cut_off, emit=records.append, budget=budget)
    except BudgetExceeded:
        out = "budget"
    return out, [repr(r) for r in records]


@pytest.mark.parametrize("name,T", [("b", 13.0), ("b", 13.35), ("c", 12.5), ("d0", 11.0),
                                    ("d1", 11.0), ("b", 0.0), ("c", -0.5)],
                         ids=["b", "b-vectors-cap", "c", "d0", "d1", "T0", "T-below-0"])
def test_enumerate_matches_scalar_loop(request, name, T):
    group = request.getfixturevalue(f"group_{name}")
    new = _run(enumerate_orbit, group, T)
    assert new == _run(_scalar_enumerate_orbit, group, T)
    assert new[0] > 1500 or T <= 0.0


@pytest.mark.parametrize("block", [1, 2, 7, 100])
@pytest.mark.parametrize("name,T", [("b", 9.0), ("d0", 8.5)], ids=["b", "d0"])
def test_small_orbit_blocks_match_scalar_loop(request, monkeypatch, name, T, block):
    # small blocks split every level into many stack entries, and the records
    # into many emission chunks
    group = request.getfixturevalue(f"group_{name}")
    monkeypatch.setattr(sk, "BLOCK", block)
    monkeypatch.setattr(sk, "EMIT_CHUNK", block)
    ref = _run(_scalar_enumerate_orbit, group, T)
    assert _run(enumerate_orbit, group, T) == ref
    for budget in (0, 1, ref[0] // 3, ref[0] - 1):
        assert _run(enumerate_orbit, group, T, budget) == ("budget", [])


@pytest.mark.parametrize("enumerate_", [enumerate_orbit, primitive_classes],
                         ids=["orbit", "classes"])
@pytest.mark.parametrize("name", ["b", "d0"])
def test_budget_raises_iff_exceeded_and_then_emits_nothing(request, enumerate_, name):
    group = request.getfixturevalue(f"group_{name}")
    total = enumerate_(group, 9.0)
    for budget in (0, 1, total - 1, total, total + 1):
        records = []
        try:
            assert enumerate_(group, 9.0, emit=records.append, budget=budget) == total
        except BudgetExceeded:
            assert total > budget and records == []
        else:
            assert total <= budget and len(records) == total


@pytest.mark.parametrize("enumerate_", [enumerate_orbit, primitive_classes],
                         ids=["orbit", "classes"])
def test_nan_cut_off_is_validation_error(group_b, enumerate_, capped_walks):
    with pytest.raises(ValidationError, match="NaN"):
        enumerate_(group_b, math.nan, budget=50)
    for cut_off in (math.inf, -math.inf):  # +inf prunes nothing either
        with pytest.raises(ValidationError, match="finite"):
            enumerate_(group_b, cut_off, budget=50)


# -- primitive classes -----------------------------------------------------------

def test_classes_below_min_length_empty(group_b):
    min_gen = min(geodesic_invariants(x).length for x in group_b.generators)
    records = []
    assert primitive_classes(group_b, 0.9 * min_gen, emit=records.append) == 0
    assert records == []


def test_classes_orientation_reversal_pairing(group_b):
    records = []
    primitive_classes(group_b, 8.0, emit=records.append)
    assert records
    table = {r.word: r for r in records}
    for r in records:
        mirror = canonical_rotation(word_inverse(r.word))
        assert mirror in table
        rbar = table[mirror]
        assert_allclose(rbar.length, r.length, atol=1e-9)
        assert rbar.homology == tuple(-x for x in r.homology)
        assert abs(rbar.holonomy + r.holonomy) < 1e-9 or \
            abs(abs(rbar.holonomy + r.holonomy) - 2 * math.pi) < 1e-9


def test_classes_proper_powers_excluded(group_b):
    words = []
    primitive_classes(group_b, 8.0, emit=lambda r: words.append(r.word))
    assert (1, 1) not in words
    assert all(is_primitive(w) and is_cyclically_reduced(w) for w in words)
    assert all(w == canonical_rotation(w) for w in words)


def test_classes_unique(group_b):
    words = []
    primitive_classes(group_b, 9.0, emit=lambda r: words.append(r.word))
    assert len(words) == len(set(words))


def test_classes_lengths_match_invariants(group_b):
    records = []
    primitive_classes(group_b, 7.0, emit=records.append)
    for r in records:
        inv = geodesic_invariants(group_b.evaluate(r.word))
        assert_allclose(r.length, inv.length, atol=1e-10)


def test_class_growth_coarse_sanity(group_b, delta_b):
    # d = 0 view: total primitive count against e^{dL}/(dL), within [0.5, 2]
    L = 14.0
    n = primitive_classes(group_b, L)
    predicted = math.exp(delta_b * L) / (delta_b * L)
    assert 0.5 < n / predicted < 2.0


def test_classes_3d_model(group_d0):
    records = []
    primitive_classes(group_d0, 8.0, emit=records.append)
    assert records
    for r in records:
        inv = geodesic_invariants(group_d0.evaluate(r.word))
        assert_allclose(r.length, inv.length, atol=1e-10)
        dtheta = abs(r.holonomy - inv.holonomy_angle) % (2 * math.pi)
        assert min(dtheta, 2 * math.pi - dtheta) < 1e-10
        assert any(abs(r.holonomy) > 1e-3 for r in records)


# Reference enumerator: the rotation-testing loop that the prenecklace
# enumeration replaced.  It visits every reduced word starting with its least
# letter and keeps the ones equal to their canonical rotation and primitive.
# The new enumerator must emit the same records in the same order.

def _reference_primitive_classes(group, L, emit=None, budget=None):
    group.min_cycle_step()
    mats = group._mats
    n = group.n_symbols
    count = 0
    for first_idx in range(n):
        stack = [((sk.letter_of_index(first_idx),), mats[first_idx], first_idx)]
        while stack:
            word, m, last = stack.pop()
            if last != sk.inverse_index(first_idx):
                length, theta = scalar_trace_invariants(m[0] + m[3], group.model)
                if 0.0 < length <= L and word == canonical_rotation(word) \
                        and is_primitive(word):
                    count += 1
                    if budget is not None and count > budget:
                        raise BudgetExceeded(budget)
                    if emit is not None:
                        emit(sk.GeodesicRecord(word, length,
                                              _reference_homology(group, word), theta, m))
            _, _, c, d = m
            bad = sk.inverse_index(last)
            for idx in range(first_idx, n):
                if idx == bad:
                    continue
                dk = group.disks[idx]
                if abs(c) > 1e-14:
                    gap = abs(dk.center + d / c) - dk.radius
                    min_len = 2.0 * math.log(abs(c) * gap)
                else:
                    min_len = 2.0 * math.log(abs(d))
                if min_len > L:
                    continue
                stack.append((word + (sk.letter_of_index(idx),),
                              mat_mul(m, mats[idx]), idx))
    return count


@pytest.mark.parametrize("name,L", [("b", 14.0), ("c", 12.0), ("d0", 13.0), ("d1", 12.0)],
                         ids=["b", "c", "d0", "d1"])
def test_classes_match_reference_loop(request, name, L):
    group = request.getfixturevalue(f"group_{name}")
    new, ref = [], []
    assert primitive_classes(group, L, emit=new.append) == \
        _reference_primitive_classes(group, L, emit=ref.append)
    assert new == ref  # words, float lengths, homology, holonomy and order
    assert len(new) > 300


def test_classes_budget_matches_reference_loop(group_b):
    # over its budget the walk raises and emits nothing; within it, it
    # emits the loop's records
    ref = []
    total = _reference_primitive_classes(group_b, 10.0, emit=ref.append)
    for budget in (0, 1, total // 2, total - 1, total):
        records = []
        try:
            primitive_classes(group_b, 10.0, emit=records.append, budget=budget)
        except BudgetExceeded:
            assert budget < total and records == []
        else:
            assert budget == total and records == ref


def test_classes_past_overflowing_caps(group_b, group_d0):
    # exp(L/2) and cosh(L/2) overflow past L = 1419: the caps turn off and the
    # budget ends the run
    for group in (group_b, group_d0):
        with pytest.raises(BudgetExceeded):
            primitive_classes(group, 1500.0, budget=50)


# The scalar depth-first loop that the block walk replaced: one word and one
# Python complex product per node, records counted and emitted as visited.
# The block walk must give its records bit for bit and in its order; over a
# budget it raises, as the loop does, but emits nothing.

def _scalar_primitive_classes(group, L, emit=None, budget=None):
    group.min_cycle_step()
    mats, disks = group._mats, group.disks
    n = group.n_symbols
    letters = [sk.letter_of_index(idx) for idx in range(n)]
    huge = L >= 1400.0
    gap_cap = math.inf if huge else math.exp(L / 2.0) * (1.0 + 1e-12)
    tr_cap = (2.0 * math.cosh(L / 2.0) * (1.0 + 1e-12)
              if group.model == Model.H2 and not huge else math.inf)
    count = 0
    for first_idx in range(n):
        stack = [((first_idx,), mats[first_idx], 1)]
        while stack:
            w, m, p = stack.pop()
            if (p == len(w) and w[-1] != sk.inverse_index(first_idx)
                    and abs(m[0] + m[3]) <= tr_cap):
                length, theta = scalar_trace_invariants(m[0] + m[3], group.model)
                if 0.0 < length <= L:
                    count += 1
                    if budget is not None and count > budget:
                        raise BudgetExceeded(budget)
                    if emit is not None:
                        word = tuple(map(letters.__getitem__, w))
                        emit(sk.GeodesicRecord(word, length, _reference_homology(group, word),
                                               theta, m))
            _, _, c, d = m
            ac = abs(c)
            bad = sk.inverse_index(w[-1])
            low = w[-p]  # = w[k - p]
            for idx in range(low, n):
                if idx == bad:
                    continue
                dk = disks[idx]
                if abs(c * dk.center + d) - ac * dk.radius > gap_cap:
                    continue
                stack.append((w + (idx,), mat_mul(m, mats[idx]),
                              p if idx == low else len(w) + 1))
    return count


@pytest.mark.parametrize("name,L", [("b", 18.5), ("c", 16.0), ("d0", 17.0), ("d1", 15.0)],
                         ids=["b", "c", "d0", "d1"])
def test_classes_match_scalar_loop(request, name, L):
    # the census sizes; on H3 the loop has no trace cap, so this also checks
    # that the cap drops no class
    group = request.getfixturevalue(f"group_{name}")
    new = _run(primitive_classes, group, L)
    assert new == _run(_scalar_primitive_classes, group, L)
    assert new[0] > 3000


@pytest.mark.parametrize("name", ["b", "d0"])
def test_classes_budget_at_large_length_matches_scalar_loop(request, name):
    # whole levels up to L = 40 would hold about e^24 words; the depth-first
    # block walk meets the budget after a few blocks, as the loop does
    group = request.getfixturevalue(f"group_{name}")
    assert _run(primitive_classes, group, 40.0, budget=1000) == ("budget", [])
    assert _run(_scalar_primitive_classes, group, 40.0, budget=1000)[0] == "budget"


@pytest.mark.parametrize("block", [1, 2, 7, 100])
@pytest.mark.parametrize("name,L", [("b", 12.0), ("d0", 11.0)], ids=["b", "d0"])
def test_small_class_blocks_match_scalar_loop(request, monkeypatch, name, L, block):
    # small blocks split every level into many stack entries, and the classes
    # into many emission chunks
    group = request.getfixturevalue(f"group_{name}")
    monkeypatch.setattr(sk, "BLOCK", block)
    monkeypatch.setattr(sk, "EMIT_CHUNK", block)
    ref = _run(_scalar_primitive_classes, group, L)
    assert _run(primitive_classes, group, L) == ref
    for budget in (0, 1, ref[0] // 3, ref[0] - 1):
        assert _run(primitive_classes, group, L, budget) == ("budget", [])


def _reduced_words(n_letters, max_len):
    """Every reduced word of length 1..max_len over letters +-1..+-n_letters/2."""
    letters = [sk.letter_of_index(i) for i in range(n_letters)]
    level = [(a,) for a in letters]
    while level:
        yield from level
        if len(level[0]) == max_len:
            break
        level = [w + (a,) for w in level for a in letters if a != -w[-1]]


def _lyndon_classes(words):
    return [w for w in words if is_cyclically_reduced(w)
            and w == canonical_rotation(w) and is_primitive(w)]


def test_prenecklace_rule_matches_rotation_test():
    # Tiny disks make every letter add nearly the same length (17.4-19.6), so
    # at L = the longest class of <= 8 letters the length prune cuts no prefix
    # of such a class and every class of >= 9 letters is longer than L.  The
    # classes emitted are then exactly the words the period rule accepts.
    g = group_from_dict({
        "model": "H2",
        "disks": [
            {"minus": {"center": [-3.0, 0.0], "radius": 1e-3},
             "plus": {"center": [3.0, 0.0], "radius": 1e-3}},
            {"minus": {"center": [-9.0, 0.0], "radius": 1e-3},
             "plus": {"center": [9.0, 0.0], "radius": 1e-3}},
        ],
        "homology_matrix": [[1, 0]],
    })
    expected = _lyndon_classes(_reduced_words(g.n_symbols, 8))
    L = max(geodesic_invariants(g.evaluate(w)).length for w in expected)
    words = []
    primitive_classes(g, L, emit=lambda r: words.append(r.word))
    assert len(expected) == 1320  # Lyndon words with no cancelling pair, k <= 8
    assert sorted(words) == sorted(expected)


@pytest.mark.parametrize("name,L,max_len", [
    ("b", 9.0, 10),    # longest emitted word: 7 letters
    ("d0", 9.0, 10),   # 7 letters
], ids=["b", "d0"])
def test_classes_match_bruteforce(request, name, L, max_len):
    group = request.getfixturevalue(f"group_{name}")
    words = []
    primitive_classes(group, L, emit=lambda r: words.append(r.word))
    brute = [w for w in _lyndon_classes(_reduced_words(group.n_symbols, max_len))
             if 0.0 < scalar_trace_invariants(group.evaluate(w).trace(), group.model)[0] <= L]
    # the oracle is complete only if no emitted word comes near its depth
    assert max(len(w) for w in words) < max_len
    assert sorted(words) == sorted(brute)
    assert len(words) == len(set(words))


def _reference_min_cycle_step(group):
    """min_cycle_step before it took primitive_classes' division-free bound:
    sup_{D_b} |gamma_a'| = 1 / (|c| (|z_b + d/c| - r_b))^2, or 1 / |d|^2 at c = 0."""
    worst = -math.inf
    for a in range(group.n_symbols):
        _, _, c, d = group._mats[a]
        for b in range(group.n_symbols):
            if b == sk.inverse_index(a):
                continue
            db = group.disks[b]
            if abs(c) < 1e-14:
                sup = 1.0 / abs(d) ** 2
            else:
                sup = 1.0 / (abs(c) * (abs(db.center + d / c) - db.radius)) ** 2
            worst = max(worst, math.log(sup))
    return -worst


@pytest.mark.parametrize("name", ["b", "c", "d0", "d1"])
def test_min_cycle_step_matches_division_form(name, request):
    group = request.getfixturevalue(f"group_{name}")
    step = group.min_cycle_step()
    assert step > 0
    assert abs(step - _reference_min_cycle_step(group)) <= 1e-12
