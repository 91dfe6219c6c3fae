import cmath
import itertools
import math

import numpy as np
import pytest

from covercount import hyperbolic as hyp
from covercount import shift as sh
from covercount import transfer as tr
from covercount.groupfile import load_any, load_group


def toy_full_shift(k, c, f_values, theta_values=None):
    """Full shift on k symbols with constant roof c and per-symbol cocycle
    values (and holonomy angles), through toy_from_json."""
    theta = (None if theta_values is None
             else np.repeat(np.asarray(theta_values, dtype=float)[:, None], k, axis=1))
    return sh.toy_from_json({"transition": np.ones((k, k)), "tau": np.full((k, k), float(c)),
                             "f": np.asarray(f_values, dtype=np.int64), "theta": theta})


def scalar_trace_invariants(tr: complex, model) -> tuple[float, float]:
    """The one-complex-at-a-time cmath formula that hyperbolic.trace_invariants
    computes over arrays, kept as its bit-for-bit oracle."""
    if abs(tr) > 1e150:
        lam = tr
    else:
        disc = cmath.sqrt(tr * tr - 4.0)
        lam = max((tr + disc) / 2.0, (tr - disc) / 2.0, key=abs)
    length = 2.0 * math.log(max(abs(lam), 1.0))
    if model == hyp.Model.H2:
        return length, 0.0
    theta = math.fmod(2.0 * cmath.phase(lam), 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return length, theta


@pytest.fixture
def capped_walks(monkeypatch):
    """Both enumerators fail after 100 matrix products.  A walk to a NaN
    cut-off prunes nothing and admits no record, so no budget would end it,
    and its stack grew by 0.7 GB a second on a 2-vCPU Xeon: this ends it first."""
    real, products = hyp.mat_mul, itertools.count()

    def mat_mul(*args):
        if next(products) >= 100:
            raise RuntimeError("the walk went on past 100 matrix products")
        return real(*args)

    monkeypatch.setattr(hyp, "mat_mul", mat_mul)


@pytest.fixture(scope="session")
def group_b():
    return load_group("fixture:b")


@pytest.fixture(scope="session")
def group_c():
    return load_group("fixture:c")


@pytest.fixture(scope="session")
def group_d0():
    return load_group("fixture:d0")


@pytest.fixture(scope="session")
def group_d1():
    return load_group("fixture:d1")


@pytest.fixture(scope="session")
def toy2():
    return load_any("fixture:toy2")


@pytest.fixture(scope="session")
def toy3_mixed():
    """Toy shift with a forbidden transition, unequal roofs and holonomy."""
    return sh.toy_from_json({
        "transition": [[1, 1, 0], [1, 0, 1], [1, 1, 1]],
        "tau": [[0.7, 1.1, 0.0], [0.9, 0.0, 1.3], [0.5, 1.7, 0.8]],
        "f": [[1, 0], [0, 1], [-1, -1]],
        "theta": [[0.3, -1.2, 0.0], [2.1, 0.0, -0.4], [0.9, 1.6, -2.5]],
    })


@pytest.fixture(scope="session")
def toy2_spec(toy2):
    return tr.OperatorSpec(toy2)


@pytest.fixture(scope="session")
def shift_b(group_b):
    return sh.from_schottky(group_b)


@pytest.fixture(scope="session")
def spec_b(shift_b):
    return tr.OperatorSpec(shift_b, nodes_per_disk=24)


@pytest.fixture(scope="session")
def delta_b(spec_b):
    return tr.critical_exponent(spec_b)


@pytest.fixture(scope="session")
def surface_b(spec_b):
    return tr.pressure_surface(spec_b)


@pytest.fixture(scope="session")
def spectral_b(spec_b, delta_b):
    return tr.leading_eigenvalue(spec_b, delta_b, want_measure=True)


@pytest.fixture(scope="session")
def shift_c(group_c):
    return sh.from_schottky(group_c)


@pytest.fixture(scope="session")
def spectral_c(shift_c):
    spec = tr.OperatorSpec(shift_c, nodes_per_disk=20)
    return tr.leading_eigenvalue(spec, tr.critical_exponent(spec), want_measure=True)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
