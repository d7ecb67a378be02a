import concurrent.futures
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import engine_reference
from privdeg import simulate
from privdeg.estimator import normal_quantile
from privdeg.links import EdgeSampler, LinkKind
from privdeg.netio import ParseError
from privdeg.noise import (ContinuousLaplace, DiscreteLaplace, TwoSideHermite,
                           hermite_budget_intensity, sample)
from privdeg.simulate import (CoverageReport, Scenario, default_pairs,
                              parse_scenario_file, qq_csv, qq_export,
                              report_csv, run_scenario, truth_vector)

LAM = hermite_budget_intensity(2.0)
HERM_CASES = [  # ordered by noise variance
    TwoSideHermite(0.01, (LAM - 0.01) / 4),
    TwoSideHermite(LAM - 0.01, 0.025),
    TwoSideHermite(4 * LAM / 5, LAM / 5),
]


def test_truth_vector_reference():
    assert truth_vector(4, 0.0) == pytest.approx([0, 0, 0, 0])
    t = truth_vector(100, -math.log(math.log(100)))
    assert t[-1] == pytest.approx(-1.52718, abs=5e-6)
    up = truth_vector(10, 1.5)
    assert np.all(np.diff(up) > 0)


def test_default_pairs():
    assert default_pairs(100) == ((1, 2), (50, 51), (99, 100))
    assert default_pairs(3) == ((1, 2), (2, 3))  # each pair once
    assert default_pairs(2) == ((1, 2),)
    assert Scenario(LinkKind.LOGIT, 3, 0.0, None).pairs == ((1, 2), (2, 3))
    with pytest.raises(ValueError, match=r"pair \(1, 2\) is listed twice"):
        Scenario(LinkKind.LOGIT, 10, 0.0, None, pairs=((1, 2), (3, 4), (1, 2)))


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(LinkKind.LOG, 10, 0.5, None)      # log needs L < 0
    with pytest.raises(ValueError):
        Scenario(LinkKind.LOGIT, 10, 0.0, None, pairs=((1, 11),))
    with pytest.raises(ValueError):
        Scenario(LinkKind.LOGIT, 10, 0.0, None, replicates=0)


def test_report_is_worker_count_invariant():
    s = Scenario(LinkKind.LOGIT, 30, 0.4, TwoSideHermite(1.0, 0.5),
                 replicates=48, seed=123)
    reports = [run_scenario(s, workers=w) for w in (1, 3)]
    a, b = reports
    assert a.nonexistence_percent == b.nonexistence_percent
    for pr in s.pairs:
        assert a.per_pair[pr] == b.per_pair[pr]
        assert np.array_equal(a.xi[pr], b.xi[pr])
    assert report_csv([a]) == report_csv([b])


def test_qq_export_sorted_and_guarded():
    s = Scenario(LinkKind.LOGIT, 20, 0.0, None, replicates=40, seed=9)
    rep = run_scenario(s)
    pts = qq_export(rep, (1, 2))
    theo = [t for t, _ in pts]
    emp = [e for _, e in pts]
    assert theo == sorted(theo)
    assert emp == sorted(emp)
    with pytest.raises(LookupError):
        qq_export(rep, (3, 4))
    text = qq_csv(rep, (1, 2))
    assert text.startswith("theoretical,empirical\n")
    assert len(text.strip().splitlines()) == len(pts) + 1


def test_coverage_sanity_no_noise():
    s = Scenario(LinkKind.LOGIT, 200, 0.0, None, replicates=2000, seed=31)
    rep = run_scenario(s)
    assert rep.nonexistence_percent == 0.0
    for pr in s.pairs:
        assert 92.0 <= rep.per_pair[pr].coverage_percent <= 98.0


def test_nonexistence_monotone_in_noise_variance():
    # heavier noise never lowers the nonexistence rate (1 pp Monte Carlo slack)
    L = -math.log(math.log(100))
    rates = []
    for mech in HERM_CASES:
        s = Scenario(LinkKind.LOG, 100, L, mech, replicates=600, seed=77)
        rates.append(run_scenario(s).nonexistence_percent)
    assert rates[1] >= rates[0] - 1.0
    assert rates[2] >= rates[1] - 1.0


def test_cell_without_a_fit_leaves_its_report_fields_empty():
    # at n = 6 this much noise pushes a degree out of (0, n - 1) every time
    s = Scenario(LinkKind.LOGIT, 6, 0.0, ContinuousLaplace(50.0), replicates=5, seed=1)
    rep = run_scenario(s)
    assert rep.nonexistence_percent == 100.0
    csv = report_csv([rep])
    assert "nan" not in csv
    assert csv.splitlines()[1:] == [f"logit,6,5,lap:b=50.0,0,{i},{j},,,100"
                                    for i, j in s.pairs]
    assert qq_export(rep, (1, 2)) == []


def test_degree_deviation_trend():
    # max_i |dtilde_i - E d_i| / sqrt(n log n) does not grow with n for a
    # fixed sub-Gamma noise mechanism (99th percentile over replicates)
    from privdeg.links import degrees, expected_degrees, sample_graph
    from privdeg.noise import sample
    mech = HERM_CASES[2]
    pcts = []
    for n in (50, 100, 200):
        rng = np.random.default_rng(4000 + n)
        truth = truth_vector(n, 1.0)
        want = expected_degrees(LinkKind.LOGIT, truth)
        stats_ = []
        for _ in range(400):
            d = degrees(sample_graph(LinkKind.LOGIT, truth, rng)).astype(float)
            d = d + np.asarray(sample(mech, rng, size=n))
            stats_.append(np.max(np.abs(d - want)) / math.sqrt(n * math.log(n)))
        pcts.append(float(np.quantile(stats_, 0.99)))
    assert pcts[1] <= pcts[0] and pcts[2] <= pcts[1]


@pytest.mark.parametrize("m", [10, 160, 1000, 1500])
def test_qq_export_plotting_positions_equal_scipy_ndtri(m):
    from scipy.special import ndtri
    s = Scenario(LinkKind.LOGIT, 10, 0.0, None, replicates=1)
    rep = CoverageReport(s, {}, 0.0, {(1, 2): np.arange(m, 0, -1.0)})
    theo, emp = zip(*qq_export(rep, (1, 2)))
    want = ndtri((np.arange(1, m + 1) - 0.5) / m)
    # statistics.NormalDist (AS241) and Cephes ndtri round differently
    assert np.all(np.abs(np.array(theo) - want) <= 8 * np.spacing(np.abs(want)))
    assert np.all(np.diff(theo) > 0)
    assert list(emp) == list(range(1, m + 1))


def test_scenario_file_parsing_and_grid():
    text = """
    # cell grid
    link = logit
    n = 30
    L = 0.0, 0.5
    noise = herm2:a1=1.0,a2=0.5; none
    replicates = 8
    seed = 4
    pairs = 1,2; 29,30
    """
    cells = parse_scenario_file(text)
    assert len(cells) == 4
    assert cells[0].noise == TwoSideHermite(1.0, 0.5)
    assert cells[1].L == 0.5
    assert cells[2].noise is None
    assert all(c.pairs == ((1, 2), (29, 30)) for c in cells)
    reports = [run_scenario(c) for c in cells]
    csv = report_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("link,n,replicates,noise,L,pair_i,pair_j")
    assert len(lines) == 1 + 4 * 2  # cells x pairs


def test_scenario_file_errors():
    from privdeg.netio import ParseError
    with pytest.raises(ParseError):
        parse_scenario_file("n = 10\n")            # missing link
    with pytest.raises(ParseError):
        parse_scenario_file("link = logit\nn = 10\npairs = 1-2\n")
    with pytest.raises(ValueError):
        parse_scenario_file("link = huh\nn = 10\n")


@pytest.mark.parametrize("text, key, line", [
    ("link = logit\nn = 10\nreplicate = 5\nseeds = 3\n", "replicate", 3),
    ("# grid\nlink = logit\nn = 10\nL = 0.1\nNoise = none\nWorker: 2\n", "Worker", 6),
], ids=["misspelt", "case-kept"])
def test_scenario_file_rejects_unknown_keys(text, key, line):
    from privdeg.netio import ParseError
    with pytest.raises(ParseError, match=f"line {line}: unknown scenario key '{key}'"):
        parse_scenario_file(text)


def test_shipped_scenario_files_parse():
    root = Path(__file__).parents[1] / "scenarios"
    demo = parse_scenario_file((root / "demo.scenario").read_text())
    assert len(demo) == 1 and demo[0].replicates == 1000
    grid = parse_scenario_file((root / "grid.scenario").read_text())
    assert len(grid) == 4 and grid[0].seed == 7


def test_scenario_file_omitted_keys_take_scenario_defaults():
    assert parse_scenario_file("link = cloglog\nn = 12\n") == \
        [Scenario(LinkKind.CLOGLOG, 12, 0.0, None)]
    (cell,) = parse_scenario_file("link = log\nn = 12\nL = -1\nlevel = 0.9\n"
                                  "noise = None\n")
    assert cell == Scenario(LinkKind.LOG, 12, -1.0, None, level=0.9)


def test_colon_line_splits_at_its_first_separator():
    (cell,) = parse_scenario_file("link: logit\nn: 10\nnoise: dlap:p=0.5\n"
                                  "pairs = 1,2\n")
    assert cell == Scenario(LinkKind.LOGIT, 10, 0.0, DiscreteLaplace(0.5), pairs=((1, 2),))


@pytest.mark.parametrize("line, key", [
    ("n = abc", "n"),
    ("link = huh", "link"),
    ("L = 0.1, x", "L"),
    ("noise = lap:b=1.0; zap:q=1", "noise"),
    ("replicates = 2.5", "replicates"),
    ("seed: -", "seed"),
    ("Pairs = 1,2; 3-4", "Pairs"),
    ("pairs = 1,x", "pairs"),
    ("level = high", "level"),
])
def test_scenario_value_error_names_its_line_and_key(line, key):
    text = f"# cell\n{line}\n" + "".join(
        f"{k} = {v}\n" for k, v in (("link", "logit"), ("n", "10"))
        if not line.lower().startswith(k + " "))
    with pytest.raises(ParseError, match=f"^line 2: bad {key} value: ") as err:
        parse_scenario_file(text)
    assert err.value.line == 2


def test_scenario_file_rejects_a_repeated_key():
    with pytest.raises(ParseError, match="line 4: scenario key 'L' given twice"):
        parse_scenario_file("link = logit\nn = 10\nl = 0.1\nL: 0.2\n")


def test_pool_never_exceeds_the_block_count(monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size a run asks for and maps serially."""

        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # a budget of 60 degrees makes blocks of 3 replicates at n = 20
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 60)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    sc = Scenario(LinkKind.LOGIT, 20, 0.3, TwoSideHermite(1.0, 0.5), replicates=9)
    want = report_csv([run_scenario(sc)])
    assert report_csv([run_scenario(sc, workers=100_000)]) == want
    assert report_csv([run_scenario(sc, workers=2)]) == want
    assert sizes == [3, 2]
    one_block = Scenario(LinkKind.LOGIT, 20, 0.3, None, replicates=3)
    run_scenario(one_block, workers=8)  # a single block runs in-process
    assert sizes == [3, 2]


def _reference_report(scenario: Scenario) -> CoverageReport:
    """The report folded from one-replicate-at-a-time lone fits."""
    records = engine_reference.replicate_records(scenario, normal_quantile(scenario.level))
    kept = [rec for rec in records if rec is not None]
    per_pair, xi = {}, {}
    for col, pr in enumerate(scenario.pairs):
        length = 0.0
        for rec in kept:
            length += rec[col][1]
        hits = sum(int(rec[col][0]) for rec in kept)
        per_pair[pr] = simulate.PairSummary(100.0 * hits / len(kept), length / len(kept))
        xi[pr] = np.array([rec[col][2] for rec in kept])
    ne = 100.0 * (len(records) - len(kept)) / len(records)
    return CoverageReport(scenario, per_pair, ne, xi)


def test_blocks_split_k_groups_and_match_lone_fits_at_any_worker_count(monkeypatch):
    # a budget of 256 degrees makes blocks of 12 replicates at n = 20
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 2**8)
    noise = TwoSideHermite(1.0, 0.5)
    sc = Scenario(LinkKind.LOGIT, 20, 0.3, noise, replicates=60, seed=4,
                  pairs=((1, 2), (10, 11), (19, 20), (3, 17)))
    sampler = EdgeSampler(sc.link, truth_vector(sc.n, sc.L))
    ks = []
    for child in np.random.SeedSequence(sc.seed).spawn(sc.replicates):
        rng = np.random.default_rng(child)
        ks.append(np.unique(sampler.degrees(rng) + sample(noise, rng, size=sc.n)).size)
    blocks = [set(ks[lo:lo + 12]) for lo in range(0, sc.replicates, 12)]
    assert all(a & b for a, b in combinations(blocks, 2))  # k-groups span blocks

    want = _reference_report(sc)
    assert 0 < want.nonexistence_percent < 100
    for workers in (1, 2, 4):
        got = run_scenario(sc, workers=workers)
        assert report_csv([got]) == report_csv([want])
        for pr in sc.pairs:
            assert got.xi[pr].dtype == want.xi[pr].dtype
            assert np.array_equal(got.xi[pr], want.xi[pr])


def test_report_at_n400_is_worker_count_invariant(monkeypatch):
    # k = n = 400 under Laplace noise: multi-threaded LU rounds differently
    # from the one-thread LU of a pool worker, so the in-process run must
    # use one BLAS thread too; a budget of 800 degrees makes 3 blocks
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 800)
    sc = Scenario(LinkKind.CLOGLOG, 400, 1.0, ContinuousLaplace(1.0), replicates=6, seed=1)
    threads = simulate._openblas_threads()
    before = threads[0]() if threads else None
    one, two = (report_csv([run_scenario(sc, workers=w)]) for w in (1, 2))
    assert one == two
    assert (threads[0]() if threads else None) == before  # the caller's count is back
