"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria whose published reference values are contradicted by the model
itself appear twice: a passing test against the corrected, oracle-verified
reference, and an xfail carrying the literal published value with the
contradiction summarised in its reason.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from _forcing_oracle import alpha_of_z, kernel, ratio_chain, rationalized_zero_poly
from conftest import CASE_I, CASE_II, CASE_III, random_stable_c1, random_stable_params
from fluidtail.asymptotics import (
    TailCase,
    analyze,
    boundary_mass_tail,
    classify,
    constant_pole_at_branch,
)
from fluidtail.kernel import branch_points, branch_small_real
from fluidtail.model import ModelParams, is_stable
from fluidtail.roots import find_coeff_zero
from fluidtail.simulate import SimConfig, default_window, fit_tail, simulate
from fluidtail.spectral import fit_decay, solve_truncated
from test_roots import corrected_cubic_c2, printed_cubic_c2


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}")
    assert passed, f"{name}: {detail}"


# -- criterion 1: closed-form zero for c=1 ----------------------------------

def test_criterion_1_closed_form_zero_c1(rng):
    t0 = time.time()
    worst = 0.0
    n_zero = 0
    for _ in range(200):
        p = random_stable_c1(rng)
        zero = find_coeff_zero(p)
        candidate = p.mu / (p.r + 1.0) - p.lam
        if p.mu <= p.lam * (1.0 + p.r) ** 2 * (1.0 + 1e-12):
            assert zero.alpha is not None
            worst = max(worst, abs(zero.alpha - candidate) / max(candidate, 1e-12))
            n_zero += 1
        else:
            # candidate belongs to the large-branch factor: no zero (and the
            # criterion's own in-interval predicate would wrongly accept it)
            assert zero.alpha is None
    elapsed = time.time() - t0
    report(
        "criterion 1 (c=1 closed form, corrected regime)",
        worst < 1e-10 and elapsed < 10.0,
        f"worst rel err {worst:.2e} over {n_zero} zeros, {elapsed:.2f}s",
    )


# -- criterion 2: c=2 cubic ---------------------------------------------------

def test_criterion_2_cubic_agreement_c2(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        p = random_stable_params(rng, c_choices=(2,))
        g = rationalized_zero_poly(p)
        deflated = g[1:]  # remove the structural root at zero
        cubic = corrected_cubic_c2(p)
        scale = deflated[-1] / cubic[-1]
        rel = np.max(np.abs(deflated - scale * cubic) / np.max(np.abs(deflated)))
        worst = max(worst, rel)
    elapsed = time.time() - t0
    report(
        "criterion 2 (c=2 cubic, corrected coefficients)",
        worst < 1e-9 and elapsed < 10.0,
        f"worst rel coeff err {worst:.2e}, {elapsed:.2f}s",
    )


@pytest.mark.xfail(reason="published cubic derives from the unweighted recursion; its "
                          "interior root 0.1617 (c=2, lam=mu=r=1) is absent from the "
                          "truncated spectrum, which converges to the branch point",
                   strict=True)
def test_criterion_2_literal_printed_cubic(rng):
    p = random_stable_params(rng, c_choices=(2,))
    deflated = rationalized_zero_poly(p)[1:]
    cubic = printed_cubic_c2(p)
    scale = deflated[-1] / cubic[-1]
    assert np.max(np.abs(deflated - scale * cubic) / np.max(np.abs(deflated))) < 1e-9


# -- criterion 3: the published c=3 instance ---------------------------------

def test_criterion_3_case3_instance():
    t0 = time.time()
    bp = branch_points(CASE_III)
    zero = find_coeff_zero(CASE_III)
    case, alpha_star = classify(CASE_III, zero)
    # the published alpha1 = 0.5 is NOT reproduced; the branch-point formula
    # gives 2.5147..., and the classification is made with the recomputed value
    ok = (
        case is TailCase.BRANCH_ONLY
        and abs(bp.alpha1 - 2.5147186257614296) < 1e-12
        and abs(bp.alpha1 - 0.5) > 2.0
        and alpha_star == bp.alpha1
    )
    elapsed = time.time() - t0
    report(
        "criterion 3 (c=3 instance: Case III via recomputed branch point)",
        ok and elapsed < 10.0,
        f"alpha1 {bp.alpha1:.6f} (published 0.5 rejected), case {case.label}, {elapsed:.2f}s",
    )


@pytest.mark.xfail(reason="published roots {4, -67, -15+/-5i} are not roots of the "
                          "rationalized polynomial under any derivable recursion; "
                          "recomputed: {0, 2.4833, -3.564, -20.83, -30.79, -87.91}",
                   strict=True)
def test_criterion_3_literal_printed_roots():
    roots = npoly.polyroots(rationalized_zero_poly(CASE_III))
    for target in (4.0, -67.0, -15.0 + 5.0j, -15.0 - 5.0j):
        assert min(abs(roots - target)) < 1e-6 * abs(target)


# -- criterion 4: three-way decay-rate cross-validation ----------------------

@pytest.fixture(scope="module")
def rates_setup():
    solutions = {}
    for name, p in (("I", CASE_I), ("II", CASE_II), ("III", CASE_III)):
        solutions[name] = solve_truncated(p, 400)
    return solutions


def test_criterion_4_spectral_rates(rates_setup):
    t0 = time.time()
    targets = {"I": (CASE_I, 0.5, 1e-3), "II": (CASE_II, 1.0, 2e-2),
               "III": (CASE_III, 2.5147186257614296, 2e-2)}
    details = []
    ok = True
    for name, (p, alpha_star, tol) in targets.items():
        s1 = rates_setup[name].eigenvalues[0].real
        rel = abs(s1 + alpha_star) / alpha_star
        details.append(f"case {name}: |s1+a*|/a* = {rel:.2e} (tol {tol:g})")
        ok = ok and rel < tol
    elapsed = time.time() - t0
    report("criterion 4a (spectral dominant eigenvalues at N=400)",
           ok and elapsed < 60.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_monte_carlo_rates_cases_1_2():
    t0 = time.time()
    details = []
    ok = True
    for p, alpha_star, power in ((CASE_I, 0.5, 0.0), (CASE_II, 1.0, -0.5)):
        horizon = 1e7 / (2.0 * p.lam)  # ~1e7 events
        cfg = SimConfig(params=p, horizon=horizon, warmup=100.0, seed=20240817,
                        sample_stride=(horizon - 100.0) / 2_000_000)
        est = simulate(cfg, fit=False)
        fit = fit_tail(est, window=default_window(est, 1e-2, 1e-4), power=power)
        rel = abs(fit.rate - alpha_star) / alpha_star
        details.append(f"c={p.c},mu={p.mu}: rate {fit.rate:.4f} vs {alpha_star} ({rel:.1%})")
        ok = ok and rel < 0.10
    elapsed = time.time() - t0
    report("criterion 4b (Monte Carlo rates, cases I and II, 1e7 events)",
           ok and elapsed < 120.0, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_4_monte_carlo_case3_vs_oracle(rates_setup):
    # the honest desk-scale check for the third tuple: the simulated survival
    # matches the oracle's over the same window (the asymptotic regime itself
    # is out of reach at this budget; see the xfail below and the notes)
    t0 = time.time()
    p = CASE_III
    horizon = 1e7 / (2.0 * p.lam)
    cfg = SimConfig(params=p, horizon=horizon, warmup=50.0, seed=20240817,
                    sample_stride=(horizon - 50.0) / 2_000_000)
    est = simulate(cfg, fit=False)
    window = default_window(est, 1e-2, 1e-4)
    fit = fit_tail(est, window=window, power=-1.5)
    xs = np.linspace(window[0], window[1], 25)
    surv = rates_setup["III"].survival_grid(xs)
    y = np.log(surv) + 1.5 * np.log(xs)
    design = np.vstack([np.ones_like(xs), xs]).T
    oracle_rate = -float(np.linalg.lstsq(design, y, rcond=None)[0][1])
    rel = abs(fit.rate - oracle_rate) / oracle_rate
    elapsed = time.time() - t0
    report("criterion 4c (case III Monte Carlo vs oracle, same window)",
           rel < 0.10 and elapsed < 60.0,
           f"mc {fit.rate:.4f} vs oracle {oracle_rate:.4f} ({rel:.1%}), {elapsed:.1f}s")


@pytest.mark.xfail(reason="x^-3/2 regime unreachable at 1e7 events for this tuple: "
                          "the window-slope bias is +10%/-15% even on the exact "
                          "oracle curve, before sampling noise")
def test_criterion_4_literal_case3_mc_rate():
    p = CASE_III
    alpha_star = 2.5147186257614296
    horizon = 1e7 / (2.0 * p.lam)
    cfg = SimConfig(params=p, horizon=horizon, warmup=50.0, seed=20240817,
                    sample_stride=(horizon - 50.0) / 2_000_000)
    est = simulate(cfg, fit=False)
    fit = fit_tail(est, window=default_window(est, 1e-2, 1e-4), power=-1.5)
    assert abs(fit.rate - alpha_star) / alpha_star < 0.10


# -- criterion 5: Case I prefactor -------------------------------------------

def test_criterion_5_prefactor_case1(rates_setup):
    t0 = time.time()
    sol = rates_setup["I"]
    rep = analyze(CASE_I)
    dfit = fit_decay(sol, phase=0, window=(40.0, 70.0), fixed_rate=rep.alpha_star)
    rel = abs(dfit.prefactor - rep.prefactor) / rep.prefactor
    elapsed = time.time() - t0
    report("criterion 5 (Case I prefactor, analytic vs spectral, N=400)",
           rel < 0.02 and elapsed < 60.0,
           f"analytic {rep.prefactor:.6f} vs fitted {dfit.prefactor:.6f} ({rel:.2%}), {elapsed:.1f}s")


# -- criterion 6: boundary residue constant -----------------------------------

def test_criterion_6_boundary_residue(rng):
    worst_alpha = 0.0
    all_positive = True
    for _ in range(40):
        p = random_stable_params(rng, c_choices=(1, 2, 3))
        sol = solve_truncated(p, 120)
        bt = boundary_mass_tail(p, sol.boundary_vector())
        worst_alpha = max(worst_alpha, abs(complex(alpha_of_z(p, bt.z_tilde))))
        all_positive = all_positive and bt.d_ztilde > 0.0
    report("criterion 6 (boundary residue: alpha(z~) = 0 and d > 0)",
           worst_alpha < 1e-12 and all_positive,
           f"max |alpha(z~)| = {worst_alpha:.1e}")


# -- criterion 7: invariant property suites -----------------------------------

def test_criterion_7_invariant_suites(rng):
    t0 = time.time()
    # kernel residuals, ordering and the sum identity at real alpha <= alpha1:
    # 1000 points; the large root is c mu / (lam z0), from the product identity
    for _ in range(1000):
        p = random_stable_params(rng)
        alpha = rng.uniform(-3.0, 1.0) * branch_points(p).alpha1
        z0 = branch_small_real(p, alpha)
        z1 = p.c * p.mu / (p.lam * z0)
        scale = max(1.0, abs(alpha) ** 2) * max(p.lam, p.c * p.mu)
        assert abs(kernel(p, alpha, z0)) < 1e-10 * scale
        assert abs(kernel(p, alpha, z1)) < 1e-10 * scale
        assert z0 <= z1 * (1 + 1e-12)
        b = -alpha * p.r + p.lam + p.c * p.mu
        assert abs(z0 + z1 - b / p.lam) < 1e-10 * abs(b) / p.lam

    # small-branch monotonicity and bounds on (0, alpha1): 1000 grid points
    for _ in range(10):
        p = random_stable_params(rng)
        grid = np.linspace(1e-4, 1.0 - 1e-6, 100) * branch_points(p).alpha1
        vals = branch_small_real(p, grid)
        assert np.all(np.diff(vals) > 0)
        assert np.all(vals > 1.0) and np.all(vals < math.sqrt(p.c * p.mu / p.lam))

    # chain range/monotonicity: >= 1000 evaluations
    n_chain = 0
    while n_chain < 1000:
        p = random_stable_params(rng, c_choices=(2, 3, 4))
        chain = ratio_chain(p)
        for a in rng.uniform(0.0, 8.0, 20):
            for i, link in enumerate(chain):
                v, vh = link(a), link(a + 1e-6)
                assert 0.0 < v < (i + 1) * p.mu / p.lam or a == 0.0
                assert vh < v
                n_chain += 1

    # kernel consistency identity at alpha*: 100 tuples
    for _ in range(100):
        p = random_stable_params(rng)
        _, alpha_star = classify(p, find_coeff_zero(p))
        z_star = branch_small_real(p, alpha_star)
        cmu = p.c * p.mu
        lhs = -(p.lam / cmu) * z_star + (p.lam + cmu) / cmu - p.r * alpha_star / cmu
        assert abs(lhs - 1.0 / z_star) < 1e-10

    # stability <-> negative mean drift
    n_stab = 0
    while n_stab < 200:
        c = int(rng.choice((1, 2, 3)))
        lam, mu, r = (10.0 ** rng.uniform(-1, 1) for _ in range(3))
        if lam >= c * mu:
            continue
        p = ModelParams(c=c, lam=lam, mu=mu, r=r)
        rep = is_stable(p)
        assert rep.stable == (rep.mean_drift < 0) or abs(rep.mean_drift) < 1e-12
        n_stab += 1
    elapsed = time.time() - t0
    report("criterion 7 (invariant suites)",
           elapsed < 30.0, f"{elapsed:.1f}s (budget 30s)")


# -- criterion 8: the pole-at-branch tuple -------------------------------------

def test_criterion_8_pole_at_branch_reachable(rates_setup):
    t0 = time.time()
    zero = find_coeff_zero(CASE_II)
    case, alpha_star = classify(CASE_II, zero)
    exact = abs(alpha_star - 1.0) < 1e-9 and abs(branch_points(CASE_II).alpha1 - 1.0) == 0.0
    c2 = constant_pole_at_branch(CASE_II, rates_setup["II"].boundary_vector())
    finite = math.isfinite(c2) and c2 > 0.0
    elapsed = time.time() - t0
    report("criterion 8 (pole-at-branch tuple classifies as Case II)",
           case is TailCase.POLE_AT_BRANCH and exact and finite and elapsed < 10.0,
           f"alpha* = {alpha_star}, c2 = {c2:.6f}, {elapsed:.2f}s")
