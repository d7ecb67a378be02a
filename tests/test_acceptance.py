"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Comparison convention: golden values are printed to two decimals, so every
comparison against a printed value allows the stated tolerance plus 0.005
(half a unit of the printed precision). Monte Carlo criteria fix their
seeds; runtimes are asserted where the criterion states a budget.

Criterion 1 compares the tailor-shop fits with golden tables that are
rounded roots of the documented moment system. The printed logit table is
one. The printed log and cloglog tables are not: their alpha columns miss
the rounding bound on the residual by up to 45x and 128x, and the system
has a single root, so no solver of it can print them. Criterion 1[log]
and 1[cloglog] therefore compare against reference roots derived without
privdeg (tests/kapferer_reference.py); the printed tables stay in
tests/golden_kapferer.py, and tests/test_kapferer_diagnostics.py pins the
explanation. Before comparing, criterion 1 checks that its golden table is
itself a rounded root, so a table that is not one cannot become golden.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from golden_kapferer import DEGREE_COLUMN, GOLDEN_TABLES, SIM_CELLS
from kapferer_reference import root_problems

from privdeg.analysis import table_from_degrees
from privdeg.bounds import (HermiteSumRadius, SubExpNormBound, SubGammaTail,
                            bernstein_from_psi1, mc_survival, psi1_norm,
                            tail_bound)
from privdeg.estimator import approx_inverse_s, jacobian, solve
from privdeg.links import (LinkKind, degrees, edge_prob, edge_prob_deriv,
                           expected_degrees, sample_graph)
from privdeg.noise import (DiscreteLaplace, Hermite, TwoSideHermite,
                           TwoSidePoisson, hermite_budget_intensity, pmf,
                           sample)
from privdeg.simulate import Scenario, run_scenario, truth_vector

PRINT_ROUNDING = 0.005  # half a unit in the last printed decimal place
LAM = hermite_budget_intensity(2.0)
NOISE_CASE = TwoSideHermite(4 * LAM / 5, LAM / 5)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}): {detail}"


# ---------------------------------------------------------------------------
# criterion 1: golden tailor-shop tables, +/- 0.01 per printed cell
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("link_name", ["log", "logit", "cloglog"])
def test_criterion_01_kapferer_golden_tables(link_name):
    link = LinkKind.parse(link_name)
    golden = GOLDEN_TABLES[link_name]
    d = np.array(DEGREE_COLUMN, dtype=float)
    not_root = root_problems(link_name, golden, d)
    if not_root:
        _report(1, f"table[{link_name}]", False,
                "golden table fails the root check: " + "; ".join(not_root))
    tol = 0.01 + PRINT_ROUNDING
    t0 = time.perf_counter()
    table = table_from_degrees(d, link)
    elapsed = time.perf_counter() - t0
    bad = []
    if not table.result.exists:
        _report(1, f"table[{link_name}]", False, f"fit does not exist: {table.result.reason}")
    for row in table.rows:
        g_alpha, g_lo, g_hi, g_se = golden[row.vertex]
        diffs = {
            "alpha": abs(row.alpha - g_alpha),
            "lo": abs(row.lo - g_lo),
            "hi": abs(row.hi - g_hi),
            "se": abs(row.se - g_se),
        }
        worst = max(diffs, key=diffs.get)
        if diffs[worst] > tol:
            bad.append(f"v{row.vertex}:{worst} off {diffs[worst]:.3f}")
    ok = not bad and elapsed < 1.0
    detail = f"rows_off={len(bad)}/{len(table.rows)} time={elapsed:.3f}s"
    if bad:
        detail += " worst: " + ", ".join(bad[:4])
    _report(1, f"table[{link_name}]", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: six simulation cells at desk scale
# ---------------------------------------------------------------------------

def test_criterion_02_simulation_cells():
    t0 = time.perf_counter()
    failures = []
    lines = []
    for idx, (link_name, n, L, pair, printed) in enumerate(SIM_CELLS):
        cov_t, len_t, ne_t = printed
        s = Scenario(LinkKind.parse(link_name), n, L, NOISE_CASE,
                     replicates=1000, seed=987650 + idx, pairs=(pair,))
        rep = run_scenario(s)
        p = rep.per_pair[pair]
        ok = (abs(p.coverage_percent - cov_t) <= 3.0 + PRINT_ROUNDING and
              abs(p.mean_ci_length - len_t) <= 0.05 + PRINT_ROUNDING and
              abs(rep.nonexistence_percent - ne_t) <= 2.0 + PRINT_ROUNDING)
        lines.append(
            f"{link_name} n={n} pair={pair}: "
            f"cov {p.coverage_percent:.2f}/{cov_t} "
            f"len {p.mean_ci_length:.3f}/{len_t} "
            f"ne {rep.nonexistence_percent:.2f}/{ne_t}"
            + ("" if ok else "  <-- off"))
        if not ok:
            failures.append(lines[-1])
    elapsed = time.perf_counter() - t0
    for line in lines:
        print("   ", line)
    _report(2, "simulation cells", not failures and elapsed < 600,
            f"{6 - len(failures)}/6 cells in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 3: normality of the standardized pair statistic
# ---------------------------------------------------------------------------

def test_criterion_03_xi_normality():
    base = dict(link=LinkKind.LOGIT, n=100, L=0.0, replicates=1000)
    no_noise = run_scenario(Scenario(noise=None, seed=424241, **base))
    with_noise = run_scenario(Scenario(noise=NOISE_CASE, seed=424242, **base))
    ks0 = stats.kstest(no_noise.xi[(1, 2)], "norm").statistic
    ks1 = stats.kstest(with_noise.xi[(1, 2)], "norm").statistic
    _report(3, "xi_12 normality", ks0 < 0.06 and ks1 < 0.08,
            f"KS no-noise {ks0:.4f} (<0.06), noisy {ks1:.4f} (<0.08)")


# ---------------------------------------------------------------------------
# criterion 4: consistency trend in n, zero noise
# ---------------------------------------------------------------------------

def test_criterion_04_consistency_trend():
    t0 = time.perf_counter()
    truth_scale = {LinkKind.LOG: -1.0, LinkKind.LOGIT: 1.0, LinkKind.CLOGLOG: 0.5}
    ok = True
    details = []
    for link, L in truth_scale.items():
        medians = []
        for n in (50, 100, 200, 400):
            rng = np.random.default_rng(5150 + n)
            truth = truth_vector(n, L)
            errs = []
            for _ in range(200):
                g = sample_graph(link, truth, rng)
                res = solve(link, degrees(g).astype(float))
                if res.exists:
                    errs.append(float(np.max(np.abs(res.alpha_hat - truth))))
            medians.append(float(np.median(errs)))
        decreasing = all(b < a for a, b in zip(medians, medians[1:]))
        ok = ok and decreasing
        details.append(f"{link.value}: " + "->".join(f"{m:.3f}" for m in medians))
    elapsed = time.perf_counter() - t0
    _report(4, "consistency trend", ok and elapsed < 300,
            "; ".join(details) + f" ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 5: Newton agrees with a brute-force residual minimizer at n=4
# ---------------------------------------------------------------------------

def _grid_minimizer(d):
    """Coarse grid scan plus coordinate descent on the squared residual norm."""
    g = np.linspace(-3.0, 3.0, 13)
    mesh = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
    X = mesh[:, :, None] + mesh[:, None, :]
    P = 1.0 / (1.0 + np.exp(-X))
    P[:, np.arange(4), np.arange(4)] = 0.0
    F = d[None, :] - P.sum(axis=2)
    a = mesh[np.argmin(np.sum(F * F, axis=1))].copy()

    def ssq(v):
        Xv = v[:, None] + v[None, :]
        Pv = 1.0 / (1.0 + np.exp(-Xv))
        np.fill_diagonal(Pv, 0.0)
        r = d - Pv.sum(axis=1)
        return float(r @ r)

    step = 0.5
    best = ssq(a)
    while step > 1e-9:
        moved = False
        for i in range(4):
            for sgn in (1.0, -1.0):
                cand = a.copy()
                cand[i] += sgn * step
                val = ssq(cand)
                if val < best:
                    a, best, moved = cand, val, True
        if not moved:
            step *= 0.5
    return a


def test_criterion_05_brute_force_oracle():
    rng = np.random.default_rng(606060)
    worst = 0.0
    for _ in range(50):
        truth = rng.uniform(-1.5, 1.0, 4)
        d = expected_degrees(LinkKind.LOGIT, truth) + rng.uniform(-0.25, 0.25, 4)
        res = solve(LinkKind.LOGIT, d)
        assert res.exists
        oracle = _grid_minimizer(d)
        worst = max(worst, float(np.max(np.abs(res.alpha_hat - oracle))))
    _report(5, "n=4 brute-force oracle", worst < 1e-4,
            f"max coordinate gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 6: derivative / Jacobian correctness
# ---------------------------------------------------------------------------

def test_criterion_06_jacobian_correctness():
    rng = np.random.default_rng(321)
    h = 1e-5
    worst = 0.0
    for link in (LinkKind.LOG, LinkKind.LOGIT, LinkKind.CLOGLOG):
        xs = rng.uniform(-3, -0.1, 1000) if link == LinkKind.LOG \
            else rng.uniform(-3, 3, 1000)
        fd = (np.asarray(edge_prob(link, xs + h)) -
              np.asarray(edge_prob(link, xs - h))) / (2 * h)
        an = np.asarray(edge_prob_deriv(link, xs))
        rel = np.max(np.abs(an - fd) / np.maximum(1.0, np.abs(an)))
        worst = max(worst, float(rel))
    balanced = True
    for link in (LinkKind.LOG, LinkKind.LOGIT, LinkKind.CLOGLOG):
        a = rng.uniform(-1.2, -0.1, 30) if link == LinkKind.LOG \
            else rng.uniform(-1, 1, 30)
        V = jacobian(link, a).matrix
        off = V.copy()
        np.fill_diagonal(off, 0.0)
        balanced = balanced and bool(np.array_equal(np.diag(V), off.sum(axis=1)))
    _report(6, "jacobian correctness", worst < 1e-6 and balanced,
            f"max FD rel err {worst:.2e}, diagonal balance exact: {balanced}")


# ---------------------------------------------------------------------------
# criterion 7: distribution suite
# ---------------------------------------------------------------------------

def test_criterion_07_distribution_suite():
    problems = []

    # pmf normalization
    for mech in (DiscreteLaplace(0.5), TwoSideHermite(4 * LAM / 5, LAM / 5),
                 TwoSidePoisson(1.5, 1.0), Hermite(1.2, 0.8)):
        K = mech.support_cutoff(1e-12)
        total = sum(pmf(mech, k) for k in range(-K, K + 1))
        if not (1 - 1e-9 <= total <= 1 + 1e-12):
            problems.append(f"normalization {mech} = {total}")

    # discrete Laplace = difference of iid geometric counts
    p = 0.5
    for k in range(-30, 31):
        brute = sum((1 - p) * p ** j * (1 - p) * p ** (j - k)
                    for j in range(max(0, k), 300))
        if abs(pmf(DiscreteLaplace(p), k) - brute) > 1e-12:
            problems.append(f"dlap convolution at k={k}")
            break

    # two-sided Poisson = difference of Poisson counts
    m = TwoSidePoisson(1.5, 1.0)
    for k in range(-30, 31):
        brute = sum(stats.poisson.pmf(j, 1.5) * stats.poisson.pmf(j - k, 1.0)
                    for j in range(0, 90))
        if abs(pmf(m, k) - brute) > 1e-12:
            problems.append(f"tsp convolution at k={k}")
            break

    # Hermite probability generating function
    a1, a2 = 1.2, 0.8
    hm = Hermite(a1, a2)
    K = hm.support_cutoff(1e-18)
    ks = np.arange(0, K + 1)
    ps = np.array([pmf(hm, int(k)) for k in ks])
    for s in np.arange(0.1, 0.95, 0.1):
        if abs(float(np.sum(ps * s ** ks)) -
               math.exp(a1 * (s - 1) + a2 * (s * s - 1))) > 1e-12:
            problems.append(f"hermite PGF at s={s:.1f}")
            break

    # chi-square sampler checks at significance 1e-3
    for i, mech in enumerate((DiscreteLaplace(0.5),
                              TwoSideHermite(4 * LAM / 5, LAM / 5),
                              TwoSidePoisson(1.5, 1.0), Hermite(1.2, 0.8))):
        rng = np.random.default_rng(900 + i)
        draws = np.asarray(sample(mech, rng, size=100_000)).astype(int)
        K = mech.support_cutoff(1e-9)
        ks_ = np.arange(-K, K + 1)
        probs = np.array([pmf(mech, int(k)) for k in ks_])
        counts = np.array([(draws == k).sum() for k in ks_], dtype=float)
        expected = probs * draws.size
        keep = expected >= 5
        e = np.concatenate([expected[keep],
                            [expected[~keep].sum() + draws.size * (1 - probs.sum())]])
        c = np.concatenate([counts[keep],
                            [counts[~keep].sum() + (np.abs(draws) > K).sum()]])
        _, pval = stats.chisquare(c, e * c.sum() / e.sum())
        if pval <= 1e-3:
            problems.append(f"chi-square {mech} p={pval:.1e}")

    _report(7, "distribution suite", not problems, "; ".join(problems) or "all checks")


# ---------------------------------------------------------------------------
# criterion 8: every bound kind dominates Monte Carlo survival
# ---------------------------------------------------------------------------

def _dominates(draws, spec, grid=20):
    ts = np.linspace(0.0, float(np.quantile(draws, 0.99995)) + 1e-9, grid)
    emp, se = mc_survival(draws, ts)
    return all(p <= tail_bound(spec, float(t)) + 3 * s
               for t, p, s in zip(ts, emp, se))


def test_criterion_08_bound_domination():
    R = 100_000
    results = {}

    mech = DiscreteLaplace(0.5)
    rng = np.random.default_rng(81)
    draws = np.abs(np.asarray(sample(mech, rng, size=R)))
    results["subexp"] = _dominates(draws, SubExpNormBound(psi1_norm(mech)))

    from privdeg.noise import CenteredGeometric
    mech = CenteredGeometric(0.5)
    rng = np.random.default_rng(82)
    s10 = np.abs(np.asarray(sample(mech, rng, size=(R, 10))).sum(axis=1))
    results["bernstein"] = _dominates(s10, bernstein_from_psi1(psi1_norm(mech), 10))

    mech = NOISE_CASE
    wit = mech.sub_gamma_witness()
    rng = np.random.default_rng(83)
    s10 = np.abs(np.asarray(sample(mech, rng, size=(R, 10))).sum(axis=1))
    results["subgamma_sum"] = _dominates(s10, SubGammaTail(10 * wit.upsilon, wit.c))

    mech = TwoSidePoisson(2.0, 2.0)
    wit = mech.sub_gamma_witness()
    rng = np.random.default_rng(84)
    mx = np.max(np.abs(np.asarray(sample(mech, rng, size=(R, 20)))), axis=1)
    results["subgamma_max"] = _dominates(mx, SubGammaTail(wit.upsilon, wit.c, 20))

    # radius form: P(|mean - mu| >= radius(x)) <= 2 exp(-x)
    n = 50
    hm = Hermite(1.2, 0.8)
    mu, var = hm.moments()
    rng = np.random.default_rng(85)
    dev = np.abs(np.asarray(sample(hm, rng, size=(R, n))).mean(axis=1) - mu)
    spec = HermiteSumRadius(sigma2=n * var, r=2.0, w=1.0 / n)
    ok_h = True
    for x in np.linspace(0.05, 6.0, 20):
        radius = tail_bound(spec, float(x))
        emp = float((dev >= radius).mean())
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / R)
        if emp > 2 * math.exp(-x) + 3 * se:
            ok_h = False
    results["hermite_radius"] = ok_h

    bad = [k for k, v in results.items() if not v]
    _report(8, "bound domination", not bad,
            "violations: " + ", ".join(bad) if bad else "all five kinds dominate")


# ---------------------------------------------------------------------------
# criterion 9: diagonal-inverse error decays like n^-2
# ---------------------------------------------------------------------------

def test_criterion_09_approx_inverse_decay():
    ns = [20, 40, 80, 160]
    errs = []
    for n in ns:
        jac = jacobian(LinkKind.LOGIT, np.zeros(n))
        errs.append(float(np.max(np.abs(np.linalg.inv(jac.matrix) -
                                        approx_inverse_s(jac)))))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    _report(9, "S-approximation decay", abs(slope + 2.0) <= 0.3,
            f"log-log slope {slope:.3f} (target -2 +/- 0.3)")


# ---------------------------------------------------------------------------
# criterion 10: worker-count invariance of simulation reports
# ---------------------------------------------------------------------------

def test_criterion_10_worker_determinism():
    from privdeg.simulate import report_csv
    # 1000 replicates at n = 40 run as three blocks of at most 409, so the
    # 4- and 8-worker runs do start a pool
    s = Scenario(LinkKind.LOGIT, 40, 0.4, NOISE_CASE, replicates=1000, seed=31337)
    reports = [run_scenario(s, workers=w) for w in (1, 4, 8)]
    csvs = {report_csv([r]) for r in reports}
    xi_equal = all(
        np.array_equal(reports[0].xi[pr], rep.xi[pr])
        for rep in reports[1:] for pr in s.pairs)
    _report(10, "worker determinism", len(csvs) == 1 and xi_equal,
            "reports bit-identical across 1, 4, 8 workers")
