import math

import numpy as np
import pytest

from conftest import CASE_I, random_stable_params
from fluidtail.errors import CertificateNotFoundError, UnstableModelError
from fluidtail.model import (
    ModelParams,
    _certificate_margins,
    drift_certificate,
    is_stable,
    phase_stationary,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(c=0, lam=1.0, mu=1.0, r=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=1, lam=-1.0, mu=1.0, r=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=1, lam=1.0, mu=1.0, r=0.0)


def test_net_rates():
    p = ModelParams(c=3, lam=1.0, mu=1.0, r=2.5)
    assert p.net_rate(0) == -3.0
    assert p.net_rate(2) == -1.0
    assert p.net_rate(3) == 2.5
    assert np.array_equal(p.net_rates(6), [-3.0, -2.0, -1.0, 2.5, 2.5, 2.5])


def test_stationary_c1_closed_form():
    # xi_0 = 2/3, xi_i = (2/3) 3^-i
    xi = phase_stationary(CASE_I)
    assert xi.prob(0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    for i in range(1, 8):
        assert xi.prob(i) == pytest.approx((2.0 / 3.0) / 3.0 ** i, rel=1e-13)


def test_stationary_c2_closed_form():
    # xi_0 = xi_1 = 1/3, then a ratio-1/2 geometric tail
    p = ModelParams(c=2, lam=1.0, mu=1.0, r=1.0)
    xi = phase_stationary(p)
    assert xi.prob(0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert xi.prob(1) == pytest.approx(1.0 / 3.0, abs=1e-14)
    for i in range(2, 9):
        assert xi.prob(i) == pytest.approx((1.0 / 3.0) * 0.5 ** (i - 1), rel=1e-13)


def test_stationary_matches_balance_equations():
    # truncated birth-death balance as an independent oracle
    p = ModelParams(c=2, lam=1.0, mu=1.0, r=1.0)
    n = 200
    w = np.ones(n + 1)
    for i in range(1, n + 1):
        w[i] = w[i - 1] * p.lam / (min(i, p.c) * p.mu)
    w /= w.sum()
    probs = phase_stationary(p).probs(n + 1)
    assert np.allclose(probs, w, rtol=1e-12, atol=1e-300)


def test_unstable_background_chain_raises():
    with pytest.raises(UnstableModelError):
        phase_stationary(ModelParams(c=1, lam=1.0, mu=1.0, r=1.0))


def test_normalization_and_geometric_tail(rng):
    for _ in range(100):
        p = random_stable_params(rng, c_choices=(1, 2, 3, 5, 8, 25))
        xi = phase_stationary(p)
        head = xi.probs(p.c).sum()
        assert head + xi.tail_mass(p.c) == pytest.approx(1.0, abs=1e-12)
        ratio = p.lam / (p.c * p.mu)
        for i in range(p.c, p.c + 4):
            assert xi.prob(i + 1) / xi.prob(i) == pytest.approx(ratio, rel=1e-14)


def test_stability_closed_form_vs_mean_drift(rng):
    # the inequality verdict must match the sign of the mean drift
    checked = 0
    while checked < 120:
        c = int(rng.choice((1, 2, 3, 4)))
        lam = 10.0 ** rng.uniform(-1, 1)
        mu = 10.0 ** rng.uniform(-1, 1)
        r = 10.0 ** rng.uniform(-1, 1)
        if lam >= c * mu:
            continue
        rep = is_stable(ModelParams(c=c, lam=lam, mu=mu, r=r))
        assert rep.stable == (rep.mean_drift < 0) or abs(rep.mean_drift) < 1e-12
        checked += 1


def test_stability_examples():
    assert is_stable(CASE_I).stable
    rep = is_stable(CASE_I)
    assert (rep.lhs, rep.rhs) == (2.0, 3.0)
    # boundary case (r+1)*lam == mu is classified unstable
    boundary = is_stable(ModelParams(c=1, lam=1.0, mu=3.0, r=2.0))
    assert not boundary.stable
    assert boundary.mean_drift == pytest.approx(0.0, abs=1e-14)


def test_drift_certificate_case1():
    cert = drift_certificate(CASE_I)
    assert cert.s > 0.0 and cert.z > 1.0 and 0.0 < cert.alpha < 0.5359
    assert _certificate_margins(CASE_I, cert.alpha, cert.z).min() == pytest.approx(cert.s)


def test_drift_certificate_grid(rng):
    # every returned certificate is valid; feasibility is guaranteed under
    # the strong condition (r+1)*lam < c*mu (always true for stable c=1)
    found, skipped = 0, 0
    while found + skipped < 60:
        p = random_stable_params(rng)
        try:
            cert = drift_certificate(p, n_grid=160)
        except CertificateNotFoundError:
            assert (p.r + 1.0) * p.lam >= p.c * p.mu
            skipped += 1
            continue
        found += 1
        assert cert.s > 0.0 and cert.z > 1.0
        margins = _certificate_margins(p, cert.alpha, cert.z)
        assert margins.min() >= cert.s - 1e-12
        assert cert.b >= 0.0
    assert found >= 20


def test_drift_certificate_infeasible_tuple():
    # stable, but no certificate of the exp(alpha x) z^i form exists
    p = ModelParams(c=2, lam=0.9, mu=1.0, r=3.0)
    assert is_stable(p).stable
    with pytest.raises(CertificateNotFoundError):
        drift_certificate(p)


def test_certificate_inequality_pointwise():
    # A V <= -s V + b 1{x=0, i<c} evaluated directly from the generator action
    p = ModelParams(c=2, lam=1.0, mu=1.5, r=0.4)
    cert = drift_certificate(p)
    lam, mu, c, r = p.lam, p.mu, p.c, p.r
    al, z, s, b = cert.alpha, cert.z, cert.s, cert.b

    def gen_v(x, i):
        rate_i = p.net_rate(i)
        v = math.exp(al * x) * z ** i
        jump = lam * (z - 1.0) + min(i, c) * mu * (1.0 / z - 1.0)
        drift = rate_i * al if (x > 0 or rate_i >= 0) else 0.0
        return v * (drift + jump)

    for x in (0.0, 0.3, 2.0, 7.5):
        for i in range(0, 12):
            v = math.exp(al * x) * z ** i
            indicator = b if (x == 0.0 and i < c) else 0.0
            assert gen_v(x, i) <= -s * v + indicator + 1e-9 * v


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln

    from fluidtail.model import _log_factorials

    i = np.arange(201)
    ours = _log_factorials(201)
    ref = gammaln(i + 1.0)
    assert ours[0] == ours[1] == 0.0
    np.testing.assert_allclose(ours[2:], ref[2:], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose([math.lgamma(k + 1) for k in range(2, 201)], ref[2:],
                               rtol=1e-14, atol=0.0)
