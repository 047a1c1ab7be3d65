"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from occens import (
    MaximumKind,
    build_distribution,
    empirical_fluctuations,
    exact_mean,
    layer_decomposition,
    make_spec,
    metropolis_chain,
    mgf,
    predict_boundary,
    predict_interior,
    solve,
)
from occens.entropy import limit_entropy, limit_entropy_hessian_diag
from occens.core import Regime
from occens.sampler import ChainConfig

from helpers import (
    central_diff,
    chain_marginal,
    entropy_spec,
    enumerated_kernel,
    kkt_stationarity_residual,
    limit_entropy_grad,
    oracle_grid_maximize,
    random_spec,
    stirling_log_gamma,
    two_level_spec,
)

REGIMES = ["high_degeneracy", "proportional", "low_degeneracy"]


def report(criterion, passed, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _random_solutions():
    """10 random specs per regime with m in {2, 3}; cached across criteria."""
    rng = np.random.default_rng(20250809)
    cases = []
    for regime in REGIMES:
        for k in range(10):
            m = 2 + k % 2
            boundary = k % 3 != 0
            spec = random_spec(rng, regime, m, boundary)
            cases.append(spec)
    return cases


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for spec in _random_solutions():
        sol = solve(spec)
        best = oracle_grid_maximize(spec, resolution=1000)
        worst = max(worst, float(np.max(np.abs(best - sol.x_star))))
    elapsed = time.perf_counter() - start
    report(1, worst < 3e-3 and elapsed < 10.0,
           f"solver vs grid oracle max-norm {worst:.2e} (< 3e-3) over 30 "
           f"random specs in {elapsed:.2f}s (< 10s)")


def test_criterion_2_kkt_residuals():
    worst_grad = 0.0
    worst_res = 0.0
    checked = 0
    for spec in _random_solutions():
        sol = solve(spec)
        if sol.kind is not MaximumKind.BOUNDARY:
            continue
        checked += 1
        worst_grad = max(worst_grad, kkt_stationarity_residual(spec, sol))
        worst_res = max(worst_res, sol.residual_norm, sol.residual_energy)
    report(2, checked > 0 and worst_grad < 1e-8 and worst_res < 1e-10,
           f"{checked} boundary solutions: max |grad s - (lam*eps+nu)| "
           f"{worst_grad:.2e} (< 1e-8), max constraint residual "
           f"{worst_res:.2e} (< 1e-10)")


def test_criterion_3_closed_form_two_level():
    gaps = []
    for regime in REGIMES:
        sol = solve(two_level_spec(regime))
        gaps.append(float(np.max(np.abs(np.subtract(sol.x_star, [0.6, 0.4])))))
    lam = solve(two_level_spec("high_degeneracy")).lam
    lam_gap = abs(lam - math.log(1.5))
    report(3, max(gaps) < 1e-10 and lam_gap < 1e-10,
           f"x* gap {max(gaps):.2e} (< 1e-10) across regimes; "
           f"|lam - ln 1.5| = {lam_gap:.2e} (< 1e-10)")


def _lln_sweep():
    spec = two_level_spec("proportional")
    sol = solve(spec)
    ns = [32, 64, 128, 256, 512]
    dists = {n: build_distribution(spec, n) for n in ns}
    return spec, sol, ns, dists


def test_criterion_4_lln_convergence():
    start = time.perf_counter()
    _, sol, ns, dists = _lln_sweep()
    errs = [float(np.max(np.abs(exact_mean(dists[n]) - sol.x_star)))
            for n in ns]
    elapsed = time.perf_counter() - start
    increases = sum(b >= a for a, b in zip(errs, errs[1:]))
    report(4, all(e > 0 for e in errs) and increases <= 1
           and errs[-1] < 0.02 and elapsed < 60.0,
           f"mean errors {['%.4f' % e for e in errs]} positive, "
           f"{increases} non-monotone steps (<= 1), final {errs[-1]:.4f} "
           f"(< 0.02), {elapsed:.1f}s (< 60s)")


def test_criterion_5_mgf_convergence():
    _, sol, ns, dists = _lln_sweep()
    probes = [np.array(v) for v in ([0.5, 0.0], [-0.5, 0.0],
                                    [0.0, 0.5], [0.0, -0.5])]
    ok = True
    details = []
    for xi in probes:
        errs = [abs(mgf(dists[n], xi) - math.exp(float(xi @ sol.x_star)))
                for n in ns]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        ok = ok and decreasing
        details.append(f"xi={xi.tolist()}: {errs[0]:.1e}->{errs[-1]:.1e}")
    mgf_zero_gap = abs(mgf(dists[ns[0]], [0.0, 0.0]) - 1.0)
    ok = ok and mgf_zero_gap < 1e-12
    report(5, ok, f"mgf errors decreasing for all probes ({'; '.join(details)}); "
                  f"|mgf(0) - 1| = {mgf_zero_gap:.1e} (< 1e-12)")


def test_criterion_6_interior_fluctuations():
    spec = two_level_spec("high_degeneracy", energy_cap=2)
    sol = solve(spec)
    predicted = predict_interior(spec).covariance[0, 0]
    gaps = []
    final_var = None
    for n in (128, 256, 512):
        acc = empirical_fluctuations(build_distribution(spec, n), sol, spec)
        final_var = float(acc.covariance()[0, 0])
        gaps.append(abs(final_var - predicted))
    within = abs(final_var - predicted) / predicted < 0.15
    monotone = gaps[0] > gaps[1] > gaps[2]
    report(6, within and monotone,
           f"var(sqrt(N)(X1-0.5)) at N=512 is {final_var:.4f} vs predicted "
           f"{predicted} (within 15%); |gap| trend {['%.2e' % g for g in gaps]} "
           f"monotone")


def test_criterion_7_boundary_fluctuations():
    spec = two_level_spec("high_degeneracy")  # q = 1
    dist = build_distribution(spec, 512)
    masses = layer_decomposition(dist).masses
    r10 = float(masses[1] / masses[0])
    r21 = float(masses[2] / masses[1])
    predicted = math.exp(predict_boundary(spec, 512).layer_log_ratio)
    mutual = abs(r10 / r21 - 1.0)
    gap10 = abs(r10 - predicted) / predicted
    gap21 = abs(r21 - predicted) / predicted
    report(7, mutual < 0.10 and gap10 < 0.15 and gap21 < 0.15,
           f"p1/p0={r10:.4f}, p2/p1={r21:.4f} agree within {mutual:.1%} "
           f"(< 10%); vs exp(layer_log_ratio)={predicted:.4f} within "
           f"{max(gap10, gap21):.1%} (< 15%)")


def test_criterion_8_normalization_and_counts():
    from occens import enumerate_states

    worst_pmf_gap = 0.0
    checks = []
    for m, n in [(2, 1), (2, 50), (2, 200), (3, 7), (3, 120), (4, 20),
                 (4, 200)]:
        energies = [str(k + 1) for k in range(m)]
        # c = m keeps G(N) >= m down to N = 1 so distributions build too
        spec = make_spec(energies, [1.0 / m] * m, m, "proportional",
                         c=float(m))
        states = enumerate_states(spec, n, budget=10**8)
        checks.append(states.shape[0] == math.comb(n + m - 1, m - 1))
        dist = build_distribution(spec, n, budget=10**8)
        worst_pmf_gap = max(worst_pmf_gap, abs(float(dist.pmf.sum()) - 1.0))
    boundary = build_distribution(two_level_spec("proportional"), 100)
    worst_pmf_gap = max(worst_pmf_gap, abs(float(boundary.pmf.sum()) - 1.0))
    report(8, all(checks) and worst_pmf_gap <= 1e-12,
           f"stars-and-bars counts exact on {len(checks)} (m, N) pairs up to "
           f"m=4, N=200; worst |sum pmf - 1| = {worst_pmf_gap:.1e} (<= 1e-12)")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: the three-term series truncation residue "
           "at n=10 is ~2e-6 absolute (next term -139/51840/lam^3), i.e. "
           "1.3e-7 relative against ln 10! = 15.1, 13x over the stated 1e-8; "
           "the tolerance holds only for n >~ 20. Asserted at the stated "
           "tolerance so the gap stays on record.")
def test_criterion_9_stirling_validation():
    ns = np.unique(np.round(np.logspace(1, 6, 11)).astype(int))
    rels = np.array([
        abs(stirling_log_gamma(float(n + 1), 2) - math.lgamma(n + 1))
        / abs(math.lgamma(n + 1))
        for n in ns
    ])
    worst = float(rels.max())
    report(9, worst < 1e-8,
           f"order-2 series vs exact log-factorial over n in [10, 1e6]: "
           f"worst relative error {worst:.2e} (< 1e-8); per-n: "
           + ", ".join(f"{n}:{r:.1e}" for n, r in zip(ns, rels)))


def test_criterion_10_sampler_correctness():
    spec = two_level_spec("proportional", energy_cap="3/2")
    dist, states, kernel = enumerated_kernel(spec, 6)
    flow = dist.pmf[:, None] * kernel
    db_gap = float(np.max(np.abs(flow - flow.T)))
    cfg = ChainConfig(steps=1_000_000, seed=424242)
    chain = metropolis_chain(spec, 6, cfg)
    chain_again = metropolis_chain(spec, 6, cfg)
    reproducible = np.array_equal(chain, chain_again)
    tv = 0.5 * float(np.abs(chain_marginal(chain, states) - dist.pmf).sum())
    report(10, db_gap < 1e-15 and tv < 0.02 and reproducible,
           f"detailed-balance gap {db_gap:.1e} (fp-exact), 1e6-step chain "
           f"TV {tv:.4f} (< 0.02), same-seed chains byte-identical: "
           f"{reproducible}")


def test_criterion_11_gradient_hessian_checks():
    rng = np.random.default_rng(77)
    worst_grad = 0.0
    worst_hess = 0.0
    specs = [
        entropy_spec(Regime.HIGH_DEGENERACY, (0.25, 0.45, 0.3)),
        entropy_spec(Regime.PROPORTIONAL, (0.25, 0.45, 0.3), c=1.4),
        entropy_spec(Regime.LOW_DEGENERACY, (0.25, 0.45, 0.3)),
    ]
    for spec in specs:
        for _ in range(100):
            x = rng.dirichlet(np.ones(3))
            x = np.clip(x, 0.05, None)
            x = x / x.sum()
            grad = limit_entropy_grad(spec, x)
            hess = limit_entropy_hessian_diag(spec, x)
            for i in range(3):
                fd_g = central_diff(lambda p: float(limit_entropy(spec, p)),
                                    x, i, 1e-6)
                fd_h = central_diff(
                    lambda p: float(limit_entropy_grad(spec, p)[i]), x, i, 1e-5)
                # relative with a small absolute floor: regime-1 gradients
                # vanish at x = g, where FD noise would swamp a pure ratio
                worst_grad = max(worst_grad,
                                 abs(fd_g - grad[i]) / max(abs(grad[i]), 1e-3))
                worst_hess = max(worst_hess,
                                 abs(fd_h - hess[i]) / abs(hess[i]))
    report(11, worst_grad < 1e-6 and worst_hess < 1e-5,
           f"finite differences over 3 regimes x 100 points: gradient rel "
           f"err {worst_grad:.1e} (< 1e-6), Hessian rel err {worst_hess:.1e} "
           f"(< 1e-5)")
