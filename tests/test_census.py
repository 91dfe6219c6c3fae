import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from covercount import census as cen
from covercount import hyperbolic as hyp
from covercount.schottky import enumerate_orbit
from covercount.census import (Prediction, checkpoints_linear,
                               fit_growth, geodesics_by_homology,
                               holonomy_equidistribution, orbit_by_homology,
                               vector_orbit)
from covercount.errors import InsufficientData, ValidationError
from covercount.reporting import census_csv_rows


@pytest.fixture(scope="module")
def orbit_b(group_b, delta_b, surface_b):
    cps = checkpoints_linear(4.0, 10.0, 8)
    pred = Prediction(delta=delta_b, sigma=surface_b.sigma)
    return cps, orbit_by_homology(group_b, pred, 10.0, cps)


@pytest.fixture(scope="module")
def geo_b(group_b, delta_b, surface_b):
    cps = checkpoints_linear(6.0, 12.0, 8)
    pred = Prediction(delta=delta_b, sigma=surface_b.sigma)
    return cps, geodesics_by_homology(group_b, pred, 12.0, cps)


# -- fit_growth ------------------------------------------------------------------

def test_fit_growth_exact_exponential():
    T = np.linspace(2.0, 10.0, 9)
    assert abs(fit_growth(T, 3.7 * np.exp(2.0 * T), fix_log_power=0.0) - 2.0) < 1e-9


def test_fit_growth_exponent_with_known_log_power():
    T = np.linspace(3.0, 12.0, 10)
    assert abs(fit_growth(T, np.exp(T) / np.sqrt(T), fix_log_power=-0.5) - 1.0) < 1e-9


def test_fit_growth_constant_series():
    assert abs(fit_growth(np.linspace(1, 5, 6), np.full(6, 4.0), fix_log_power=0.0)) < 1e-9


def test_fit_growth_insufficient():
    with pytest.raises(InsufficientData):
        fit_growth([1, 2, 3], [1, 2, 3], fix_log_power=0.0)
    with pytest.raises(InsufficientData):
        fit_growth(np.arange(1, 7), np.zeros(6), fix_log_power=0.0)


def test_prediction_validates():
    with pytest.raises(ValidationError):
        Prediction(delta=-1.0, sigma=1.0)


# -- binning kernel ----------------------------------------------------------------

def _reference_binning(cps, values, weights=None):
    """The per-record closure the censuses used before the shared kernel: one
    searchsorted per record into per-bin sums, then an in-place cumsum."""
    ncp = len(cps)
    out = np.zeros(ncp, dtype=np.int64 if weights is None else complex)
    for k, x in enumerate(values):
        i = int(np.searchsorted(cps, x, side="left"))
        if i == ncp:
            continue
        out[i] += 1 if weights is None else weights[k]
    np.cumsum(out, out=out)
    return out


def test_tally_matches_per_record_reference():
    rng = np.random.default_rng(7)
    cps = checkpoints_linear(2.0, 6.0, 9)
    # ties exactly at checkpoints, and values past the last one
    values = np.concatenate([rng.uniform(0.0, 8.0, 400), cps, cps[::3], [6.0, 6.5, 9.0]])
    rng.shuffle(values)
    assert (values > cps[-1]).any() and np.isin(cps, values).all()
    got, want = cen._tally(cps, values), _reference_binning(cps, values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    theta = rng.uniform(-math.pi, math.pi, values.size)
    for p in (1, 3):
        w = np.exp(1j * p * theta)
        got, want = cen._tally(cps, values, w), _reference_binning(cps, values, w)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.array_equal(cen._tally(cps, []), np.zeros(9, dtype=np.int64))


# -- orbit census ------------------------------------------------------------------

def test_orbit_census_past_last_checkpoint(group_b, delta_b):
    # T_max above the last checkpoint: the sink still gets every record, and a
    # class appears only with a record at or below the last checkpoint
    cps = checkpoints_linear(3.0, 6.0, 4)
    pred = Prediction(delta=delta_b, sigma=1.0)
    seen, direct = [], []
    rep = orbit_by_homology(group_b, pred, 8.0, cps, sink=seen.append)
    enumerate_orbit(group_b, 8.0, emit=direct.append)
    assert seen == direct
    near = {r.homology for r in seen if r.displacement <= cps[-1]}
    assert set(rep.counts) == near
    assert any(r.homology not in near for r in seen)
    for key, arr in rep.counts.items():
        want = [sum(r.displacement <= T for r in seen if r.homology == key) for T in cps]
        assert arr.tolist() == want
    assert rep.totals.tolist() == [sum(r.displacement <= T for r in seen) for T in cps]


def test_orbit_counts_monotone_and_symmetric(orbit_b):
    cps, rep = orbit_b
    for key, arr in rep.counts.items():
        assert np.all(np.diff(arr) >= 0)
        assert np.array_equal(arr, rep.counts[tuple(-x for x in key)])


def test_orbit_identity_at_small_T(group_b, delta_b):
    cps = checkpoints_linear(0.5, 1.0, 5)
    pred = Prediction(delta=delta_b, sigma=1.0)
    rep = orbit_by_homology(group_b, pred, 1.0, cps, classes=[(0,)])
    assert rep.counts[(0,)][0] == 1  # the identity word
    assert rep.totals[-1] == 1


def test_orbit_marginal_consistency(orbit_b):
    cps, rep = orbit_b
    total_by_class = sum(rep.counts.values())
    assert np.array_equal(total_by_class, rep.totals)


def test_orbit_ratios_positive_where_predicted(orbit_b):
    _, rep = orbit_b
    for key, ratios in rep.ratios.items():
        preds = rep.predictions[key]
        assert np.all(ratios[preds > 0] >= 0)


def test_orbit_class_of_wrong_dimension_is_validation_error(group_b, delta_b):
    cps = checkpoints_linear(3.0, 5.0, 3)
    with pytest.raises(ValidationError, match=r"class \(1, 2\).*d = 1"):
        orbit_by_homology(group_b, Prediction(delta_b, 1.0), 5.0, cps, classes=[(0,), (1, 2)])


def test_orbit_requires_positive_d(group_b, delta_b):
    import covercount.schottky as sk
    group0 = sk.SchottkyGroup(group_b.generators,
                              [group_b.disks[sk.sym_index(-(i + 1))] for i in range(group_b.g)],
                              [group_b.disks[sk.sym_index(i + 1)] for i in range(group_b.g)],
                              [], group_b.model)
    with pytest.raises(ValidationError):
        orbit_by_homology(group0, Prediction(delta_b, 1.0), 8.0,
                          checkpoints_linear(4.0, 8.0, 6))


# -- geodesic census ------------------------------------------------------------------

def test_geodesic_class_symmetry(geo_b):
    _, rep = geo_b
    for key, arr in rep.counts.items():
        assert np.array_equal(arr, rep.counts[tuple(-x for x in key)])


def test_geodesic_absolute_prediction_formula(geo_b, delta_b, surface_b):
    cps, rep = geo_b
    L = cps[-1]
    coef = math.sqrt(2.0 * math.pi * surface_b.sigma)
    expected = math.exp(delta_b * L) / (coef * delta_b * L ** 1.5)
    assert_allclose(rep.predictions[(0,)][-1], expected, rtol=1e-12)


def test_geodesic_reproducible(group_b, delta_b, surface_b):
    cps = checkpoints_linear(6.0, 10.0, 5)
    pred = Prediction(delta=delta_b, sigma=surface_b.sigma)
    r1 = geodesics_by_homology(group_b, pred, 10.0, cps)
    r2 = geodesics_by_homology(group_b, pred, 10.0, cps)
    for key in r1.counts:
        assert np.array_equal(r1.counts[key], r2.counts[key])
    assert np.array_equal(r1.totals, r2.totals)


# -- holonomy census ------------------------------------------------------------------

def test_holonomy_p0_ratio_is_one(group_d0):
    cps = checkpoints_linear(6.0, 10.0, 5)
    rep = holonomy_equidistribution(group_d0, 10.0, [0, 1, -1], cps)
    assert_allclose(rep.ratios[0], np.ones(len(cps)), atol=1e-12)
    # p and -p give conjugate sums, equal moduli
    assert_allclose(rep.ratios[1], rep.ratios[-1], atol=1e-12)


def test_holonomy_requires_h3(group_b):
    with pytest.raises(ValidationError):
        holonomy_equidistribution(group_b, 8.0, [1], checkpoints_linear(4, 8, 5))


def test_class_censuses_reject_checkpoints_past_l_max(group_b, group_d0, delta_b, surface_b):
    cps = checkpoints_linear(4.0, 10.0, 5)
    pred = Prediction(delta=delta_b, sigma=surface_b.sigma)
    with pytest.raises(ValidationError, match="checkpoints exceed L_max"):
        geodesics_by_homology(group_b, pred, 5.0, cps)
    with pytest.raises(ValidationError, match="checkpoints exceed L_max"):
        holonomy_equidistribution(group_d0, 5.0, [1], cps)


# -- vector census ------------------------------------------------------------------

def test_vector_below_norm_is_empty(group_b, delta_b):
    pred = Prediction(delta=delta_b, sigma=1.0)
    cps = np.array([0.3, 0.5, 0.9])
    rep = vector_orbit(group_b, pred, [1.0, 0.0, 1.0], 0.9, cps)
    assert np.array_equal(rep.counts["vectors"], np.zeros(3, dtype=int))


def test_vector_counts_norm_equivalence(group_b, delta_b):
    pred = Prediction(delta=delta_b, sigma=1.0)
    cps = np.exp(np.linspace(5.0, 10.0, 8))
    r_euc = vector_orbit(group_b, pred, [1.0, 0.0, 1.0], float(cps[-1]), cps)
    r_sup = vector_orbit(group_b, pred, [1.0, 0.0, 1.0], float(cps[-1]), cps, norm="sup")
    tail = slice(3, None)
    ratio = r_sup.counts["vectors"][tail] / r_euc.counts["vectors"][tail]
    lo, hi = 3.0 ** -delta_b, 3.0 ** delta_b
    assert np.all(ratio >= lo - 1e-12) and np.all(ratio <= hi + 1e-12)


def test_vector_counts_deduplicated(group_b, delta_b):
    pred = Prediction(delta=delta_b, sigma=1.0)
    cps = np.exp(np.linspace(5.0, 9.0, 6))
    rep = vector_orbit(group_b, pred, [1.0, 0.0, 1.0], float(cps[-1]), cps)
    assert rep.meta["stabilizer_hits"] == 0


@pytest.mark.parametrize("w0", [(1.0, 0.0, 1.0), (2.0, 1.0, 1.0)], ids=["o", "p"])
@pytest.mark.parametrize("norm", ["euclidean", "sup"])
def test_vector_exact_cap_matches_padded_cap(group_b, delta_b, w0, norm):
    # counts at the exact displacement cap equal those enumerated out to the
    # padded cap log(T / ||w0||) + 4 that it replaced
    pred = Prediction(delta=delta_b, sigma=1.0)
    cps = np.exp(np.linspace(6.0, 11.0, 6))
    rep = vector_orbit(group_b, pred, w0, float(cps[-1]), cps, norm=norm)
    norm_fn = {"euclidean": np.linalg.norm, "sup": lambda v: np.max(np.abs(v))}[norm]
    padded = math.log(cps[-1] / norm_fn(np.array(w0))) + 4.0
    assert rep.meta["disp_cap"] < padded - 2.0
    norms = {}

    def take(rec):
        if not any(rec.homology):
            vec = np.array(w0) @ hyp.adjoint_so21(group_b.evaluate(rec.word))
            norms[tuple(np.round(vec, 6))] = norm_fn(vec)

    enumerate_orbit(group_b, padded, emit=take)
    want = [sum(r <= T for r in norms.values()) for T in cps]
    assert rep.counts["vectors"].tolist() == want
    assert want[-1] > 50
    assert rep.meta["stabilizer_hits"] == 0


@pytest.mark.parametrize("w0", [(1.0, 0.0, -1.0), (1.0, 2.0, 1.0)], ids=["indefinite", "degenerate"])
def test_vector_rejects_non_definite_w0(group_b, delta_b, w0):
    pred = Prediction(delta=delta_b, sigma=1.0)
    with pytest.raises(ValidationError, match="definite"):
        vector_orbit(group_b, pred, w0, 100.0, [10.0, 100.0])


def test_vector_unknown_norm_is_validation_error(group_b, delta_b):
    with pytest.raises(ValidationError, match="bogus"):
        vector_orbit(group_b, Prediction(delta_b, 1.0), [1.0, 0.0, 1.0], 1e3, [1e2, 1e3],
                     norm="bogus")


def test_vector_requires_h2(group_d0, delta_b):
    pred = Prediction(delta=delta_b, sigma=1.0)
    with pytest.raises(ValidationError):
        vector_orbit(group_d0, pred, [1.0, 0.0, 1.0], 100.0, [10.0, 100.0])


# -- report plumbing ------------------------------------------------------------------

def test_census_table_rows(orbit_b, geo_b):
    _, rep = orbit_b
    header, rows = census_csv_rows(rep)
    assert header == ["checkpoint", "class", "count", "predicted", "ratio"]
    assert len(rows) == len(rep.counts) * len(rep.checkpoints)
    assert rows[0][:3] == [rep.checkpoints[0], "|".join(map(str, min(rep.counts))),
                           float(rep.counts[min(rep.counts)][0])]
    # geodesic classes other than the trivial one carry no prediction
    _, rep = geo_b
    _, rows = census_csv_rows(rep)
    assert {r[1] for r in rows if math.isnan(r[3]) and math.isnan(r[4])} \
        == {"|".join(map(str, k)) for k in rep.counts if k != (0,)}


def test_checkpoints_validation():
    with pytest.raises(ValidationError):
        checkpoints_linear(5.0, 4.0, 6)
