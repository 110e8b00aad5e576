import numpy as np
import pytest

from fluidtail.model import ModelParams, is_stable
from fluidtail.spectral import solve_truncated

# The three reference tuples exercised throughout: one per tail regime.
CASE_I = ModelParams(c=1, lam=1.0, mu=3.0, r=1.0)     # pole at 0.5 < alpha1
CASE_II = ModelParams(c=1, lam=1.0, mu=4.0, r=1.0)    # pole exactly at alpha1 = 1
CASE_III = ModelParams(c=3, lam=20.0, mu=30.0, r=10.0)  # no pole; branch point 2.5147
# c=2 tuple whose folded coefficient has a genuine interior zero
CASE_I_C2 = ModelParams(c=2, lam=0.7087, mu=1.7395, r=9.7767)
# c=3 pole 1.4% below alpha1: the truncated oracle's branch-cut modes crowd its leading one
CASE_I_NEAR_BRANCH = ModelParams(c=3, lam=2.2381052974720026, mu=1.2750269391875697,
                                 r=1.4705251570806857)


def random_stable_params(rng, c_choices=(1, 2, 3, 4, 5), max_tries=1000):
    for _ in range(max_tries):
        c = int(rng.choice(c_choices))
        lam = 10.0 ** rng.uniform(-1, 1)
        mu = 10.0 ** rng.uniform(-1, 1)
        r = 10.0 ** rng.uniform(-1, 1)
        if lam >= c * mu:
            continue
        p = ModelParams(c=c, lam=lam, mu=mu, r=r)
        if is_stable(p):
            return p
    raise RuntimeError("could not draw a stable tuple")


def ladder_generator(p):
    """The ladder generator Lam = D^-1 Q_cut + lam e_{c-1} g^T, g from asymptotics._ladder_row."""
    from fluidtail.asymptotics import _ladder_row

    c, i = p.c, np.arange(p.c)
    q = np.diag(-(p.lam + i * p.mu))
    q[i[:-1], i[:-1] + 1] = p.lam
    q[i[1:], i[1:] - 1] = i[1:] * p.mu
    gen = q / (c - i)[:, None]
    if c > 1:
        row, basis, _ = _ladder_row(p)
        gen[-1] += p.lam * row * basis
    else:
        gen[-1, -1] += p.lam   # G = 1
    return gen


def random_stable_c1(rng):
    """Stable c=1 tuple (stability forces mu > lam*(r+1))."""
    lam = 10.0 ** rng.uniform(-1, 1)
    r = 10.0 ** rng.uniform(-1, 1)
    mu = lam * (1.0 + r) * 10.0 ** rng.uniform(0.02, 1.0)
    return ModelParams(c=1, lam=lam, mu=mu, r=r)


@pytest.fixture(scope="session")
def sol_case1():
    return solve_truncated(CASE_I, 400)


@pytest.fixture(scope="session")
def sol_case2():
    return solve_truncated(CASE_II, 400)


@pytest.fixture(scope="session")
def sol_case3():
    return solve_truncated(CASE_III, 400)


@pytest.fixture(scope="session")
def sol_case1_c2():
    return solve_truncated(CASE_I_C2, 300)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
