import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import engine_reference
import netio_reference
from privdeg import cli, noise, simulate
from privdeg import bounds as bounds_mod
from privdeg.bounds import HermiteSumRadius, tail_bound
from privdeg.cli import main
from privdeg.links import LinkKind
from privdeg.noise import TwoSidePoisson
from privdeg.simulate import truth_vector

SCENARIO = """
link = logit
n = 24
L = 0.3
noise = herm2:a1=1.0,a2=0.5
replicates = 40
seed = 11
pairs = 1,2; 23,24
"""


def test_sample_then_privatize_then_estimate(tmp_path):
    graph = tmp_path / "g.edges"
    assert main(["sample", "--link", "logit", "--n", "30", "--L", "0.2",
                 "--seed", "3", "--out", str(graph)]) == 0
    text = graph.read_text()
    assert text.startswith("n=30")

    dtilde = tmp_path / "d.txt"
    assert main(["privatize", str(graph), "--noise", "dlap:p=0.4",
                 "--seed", "5", "--out", str(dtilde)]) == 0
    assert len(dtilde.read_text().strip().splitlines()) == 30

    table = tmp_path / "fit.csv"
    code = main(["estimate", str(dtilde), "--link", "logit", "--out", str(table)])
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "vertex,dtilde,alpha_hat,ci_lo,ci_hi,se"
    assert len(lines) == 31
    assert code in (0, 3)


def test_privatize_no_noise_returns_raw_degrees(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("n=4\n1 2\n2 3\n3 4\n")
    out = tmp_path / "d.txt"
    assert main(["privatize", str(graph), "--noise", "none", "--out", str(out)]) == 0
    vals = [float(line.split()[1]) for line in out.read_text().strip().splitlines()]
    assert vals == [1.0, 2.0, 2.0, 1.0]


def test_analyze_fixture(tmp_path, tailorshop_text):
    src = tmp_path / "shop.dl"
    src.write_text(tailorshop_text)
    out = tmp_path / "table.csv"
    code = main(["analyze", str(src), "--link", "logit", "--noise", "none",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# removed_zero_degree_vertices=17,22"
    assert len(lines) == 2 + 37


def test_estimate_nonexistent_exits_3(tmp_path):
    d = tmp_path / "d.txt"
    d.write_text("0\n3\n2\n3\n")
    assert main(["estimate", str(d), "--link", "logit",
                 "--out", str(tmp_path / "x.csv")]) == 3


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 1\n")
    assert main(["privatize", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert main(["estimate", str(tmp_path / "missing.txt")]) == 2
    badmech = tmp_path / "g.edges"
    badmech.write_text("1 2\n")
    assert main(["privatize", str(badmech), "--noise", "zap:q=1",
                 "--out", str(tmp_path / "o2")]) == 2


def test_simulate_deterministic_across_workers(tmp_path):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    outs = []
    for w in (1, 2):
        out = tmp_path / f"report_{w}.csv"
        assert main(["simulate", str(sc), "--workers", str(w),
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_byte_identical_reruns(tmp_path):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(sc), "--out", str(a)]) == 0
    assert main(["simulate", str(sc), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_qq_subcommand(tmp_path):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    out = tmp_path / "qq.csv"
    assert main(["qq", str(sc), "--pair", "1,2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theoretical,empirical"
    assert len(lines) > 10


def test_qq_out_writes_one_file_per_pair(tmp_path):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    assert main(["qq", str(sc), "--out", str(tmp_path / "all.csv")]) == 0
    assert main(["qq", str(sc), "--pair", "23,24; 1,2",
                 "--out", str(tmp_path / "some.csv")]) == 0
    for i, j in ((1, 2), (23, 24)):
        one = tmp_path / f"one_{i}_{j}.csv"
        assert main(["qq", str(sc), "--pair", f"{i},{j}", "--out", str(one)]) == 0
        assert (tmp_path / f"all_{i}_{j}.csv").read_bytes() == one.read_bytes()
        assert (tmp_path / f"some_{i}_{j}.csv").read_bytes() == one.read_bytes()
    assert not (tmp_path / "all.csv").exists() and not (tmp_path / "some.csv").exists()


@pytest.mark.parametrize("pair, err", [("1,2,3", "bad pair '1,2,3'; expected i,j"),
                                       (";", "--pair ';' names no pair"),
                                       ("1,30", "bad pair (1, 30) for n=24"),
                                       ("2,2", "bad pair (2, 2) for n=24")])
def test_qq_rejects_a_malformed_pair(tmp_path, capsys, monkeypatch, pair, err):
    def no_block(*args):
        raise AssertionError("a bad --pair must fail before any replicate runs")
    monkeypatch.setattr(simulate, "_block", no_block)
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    out = tmp_path / "qq.csv"
    assert main(["qq", str(sc), "--pair", pair, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_qq_pair_overrides_the_scenario_pairs(tmp_path):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO)
    listed = tmp_path / "listed.scenario"
    listed.write_text(SCENARIO.replace("pairs = 1,2; 23,24", "pairs = 5,6"))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["qq", str(sc), "--pair", "5,6", "--out", str(a)]) == 0
    assert main(["qq", str(listed), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_qq_exits_3_when_no_fit_exists(tmp_path, capsys):
    sc = tmp_path / "cell.scenario"
    sc.write_text("link = logit\nn = 6\nL = 0\nnoise = lap:b=50\n"
                  "replicates = 5\nseed = 1\n")
    out = tmp_path / "qq.csv"
    assert main(["qq", str(sc), "--pair", "1,2", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "no fit exists in any of the cell's replicates\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [[], ["--out", "-"], ["--pair", "1,2; 3,4", "--out", "-"]])
def test_qq_of_several_pairs_needs_an_out_file(tmp_path, capsys, monkeypatch, argv):
    def no_block(*args):
        raise AssertionError("qq must refuse before any replicate runs")
    monkeypatch.setattr(simulate, "_block", no_block)
    monkeypatch.chdir(tmp_path)
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO.replace("pairs = 1,2; 23,24", "pairs = 1,2; 3,4; 23,24"))
    assert main(["qq", str(sc), *argv]) == 2
    k = 2 if "--pair" in argv else 3
    assert capsys.readouterr() == ("", f"error: qq of {k} pairs needs --out FILE, "
                                       "one file per pair\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.scenario"]


@pytest.mark.parametrize("command", ["privatize", "analyze"])
def test_missing_noise_exits_2_and_none_releases_raw_degrees(tmp_path, capsys,
                                                              tailorshop_text, command):
    shop = tmp_path / "shop.dl"
    shop.write_text(tailorshop_text)
    out = tmp_path / "out.txt"
    assert main([command, str(shop), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: specify a mechanism with --noise, or --noise none\n"
    assert not out.exists()
    outs = []
    for spelling in ("none", "NONE", ""):
        assert main([command, str(shop), "--noise", spelling, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_scenario_overrides_agree_in_simulate_and_qq(tmp_path, monkeypatch):
    # several blocks, so that a pool would start if any run asked for one
    monkeypatch.setattr(simulate, "_ELEMENT_BUDGET", 24 * 10)

    def no_pool(*args, **kwargs):
        raise AssertionError("--workers 0 and the default of 1 must run in-process")
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", no_pool)
    cell = tmp_path / "cell.scenario"
    cell.write_text(SCENARIO)
    reseeded = tmp_path / "reseeded.scenario"
    reseeded.write_text(SCENARIO.replace("seed = 11", "seed = 5"))
    for cmd in (["simulate"], ["qq", "--pair", "1,2"]):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*cmd, str(cell), "--seed", "5", "--workers", "0",
                     "--out", str(a)]) == 0
        assert main([*cmd, str(reseeded), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def _bounds_rows(tmp_path, *argv):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", *argv, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,bound,empirical,mc_stderr"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_bounds_hermite_radius_uses_the_law_jump(tmp_path):
    rows = _bounds_rows(tmp_path, "--kind", "hermite", "--n", "4", "--reps", "500",
                        "--grid", "6")
    assert len(rows) == 6
    assert all(0 <= bound <= 1 for _, bound, _, _ in rows)
    assert rows[0][1] == 1.0  # 2 exp(-0.05), capped
    mech = TwoSidePoisson(1.0, 1.0)
    rows = _bounds_rows(tmp_path, "--kind", "hermite", "--noise", "tsp:lambda=1,mu=1",
                        "--n", "4", "--reps", "500", "--grid", "6")
    spec = HermiteSumRadius(sigma2=4 * mech.moments()[1], r=1.0, w=0.25)
    xs = np.linspace(0.05, 8.0, 6)
    assert [t for t, _, _, _ in rows] == [tail_bound(spec, float(x)) for x in xs]


def test_bounds_hermite_rejects_a_law_without_jumps(tmp_path, capsys):
    assert main(["bounds", "--kind", "hermite", "--noise", "dlap:p=0.5",
                 "--reps", "100", "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "b.csv").exists()


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    for kind in ("subgamma", "subexp"):
        assert main(["bounds", "--kind", kind, "--noise", "herm2:a1=1,a2=1",
                     "--n", "5", "--reps", "2000", "--grid", "10",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,bound,empirical,mc_stderr"
        assert len(lines) == 11
        for line in lines[1:]:
            t, bound, emp, se = (float(v) for v in line.split(","))
            assert 0 <= bound <= 1 and 0 <= emp <= 1


def test_sample_rejects_bad_link(tmp_path):
    assert main(["sample", "--link", "nope", "--n", "5",
                 "--out", str(tmp_path / "g")]) == 2


LOG_FIT_DEGREES = [26, 17, 16, 15, 5, 3, 2, 1, 6, 9]


def test_estimate_warns_on_positive_log_pair_sum(tmp_path, capsys):
    d = tmp_path / "d.txt"
    d.write_text("".join(f"{v}\n" for v in LOG_FIT_DEGREES))
    out = tmp_path / "fit.csv"
    assert main(["estimate", str(d), "--link", "log", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning: log-link fit" in err and "+1.84" in err
    # the table itself carries no trace of the warning
    assert not any(line.startswith("#") for line in out.read_text().splitlines())
    assert main(["estimate", str(d), "--link", "logit",
                 "--out", str(tmp_path / "logit.csv")]) == 3
    assert "warning" not in capsys.readouterr().err


def test_analyze_warns_on_positive_log_pair_sum(tmp_path, capsys, tailorshop_text):
    src = tmp_path / "shop.dl"
    src.write_text(tailorshop_text)
    for link, warned in (("log", True), ("logit", False)):
        assert main(["analyze", str(src), "--link", link, "--noise", "none",
                     "--out", str(tmp_path / f"{link}.csv")]) == 0
        assert ("warning: log-link fit" in capsys.readouterr().err) == warned


def test_sample_writes_the_loop_extraction_bytes(tmp_path):
    out = tmp_path / "g.edges"
    assert main(["sample", "--link", "logit", "--n", "50", "--L", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    # the dense reference draw: privdeg sample itself calls links.sample_graph
    dense = engine_reference.sample_graph(LinkKind.LOGIT, truth_vector(50, 0.5),
                                          np.random.default_rng(7))
    assert out.read_text() == netio_reference.sample_text(dense)


def _main_in_fresh_python(argv: list[str] | None) -> str:
    """'<exit code> <scipy loaded?>' of main(argv) in a new interpreter;
    argv None only imports the CLI (exit code 0)."""
    code = ("import sys; from privdeg.cli import main; "
            f"argv = {argv!r}; "
            "print(main(argv) if argv else 0, 'scipy' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


@pytest.mark.parametrize("command", ["import", "simulate", "qq", "estimate", "analyze"])
def test_cli_run_does_not_load_scipy(tmp_path, command):
    # the normal quantile is computed without scipy; only the two-sided
    # Poisson pmf imports it, at its first call
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = logit\nn = 10\nL = 0.2\nnoise = herm2:a1=0.1,a2=0.05\n"
                    "replicates = 5\nseed = 3\n")
    degrees = tmp_path / "d.txt"
    degrees.write_text("3\n3\n2\n2\n4\n2\n")
    shop = str(Path(__file__).parent / "data" / "tailorshop_synthetic.dl")
    out = str(tmp_path / "out.csv")
    argv = {
        "import": None,
        "simulate": ["simulate", str(cell), "--out", out],
        "qq": ["qq", str(cell), "--pair", "1,2", "--out", out],
        "estimate": ["estimate", str(degrees), "--link", "logit", "--out", out],
        "analyze": ["analyze", shop, "--link", "logit", "--noise", "none", "--out", out],
    }[command]
    assert _main_in_fresh_python(argv) == "0 False"
    if argv:  # a header and at least three rows
        assert Path(out).read_text().count("\n") >= 4


def test_bounds_path_does_not_load_scipy(tmp_path):
    # psi1 of a two-sided Hermite law and its tail bound need no scipy
    out = tmp_path / "b.csv"
    assert _main_in_fresh_python(["bounds", "--kind", "bernstein", "--noise",
                                  "herm2:a1=1.47,a2=0.37", "--n", "5",
                                  "--reps", "1000", "--out", str(out)]) == "0 False"
    assert out.read_text().startswith("t,bound,empirical,mc_stderr\n")


def test_infinite_normal_quantile_exits_2(tmp_path, capsys, tailorshop_text):
    level = "0.9999999999999999"  # 0.5 + level / 2 rounds to 1
    cell = tmp_path / "cell.scenario"
    cell.write_text(SCENARIO + f"level = {level}\n")
    shop = tmp_path / "shop.dl"
    shop.write_text(tailorshop_text)
    for argv in (["simulate", str(cell)],
                 ["analyze", str(shop), "--noise", "none", "--level", level]):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert "normal quantile is infinite" in capsys.readouterr().err
        assert not out.exists()


def test_simulate_rejects_unknown_scenario_key(tmp_path, capsys):
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = logit\nn = 10\nreplicate = 5\nseeds = 3\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", str(cell), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: line 3: unknown scenario key 'replicate'\n"
    assert not out.exists()


@pytest.mark.parametrize("n", ["1000000000000", "99999999999999999999"])
def test_sample_huge_n_exits_2(tmp_path, capsys, n):
    # numpy refuses the parameter vector at allocation time: nothing is allocated
    assert main(["sample", "--n", n, "--out", str(tmp_path / "g.edges")]) == 2
    assert capsys.readouterr().err == \
        f"error: vertex count n={n} is too large to hold a parameter vector\n"
    assert not (tmp_path / "g.edges").exists()


@pytest.mark.parametrize("n", ["1000000000000", "99999999999999999999"])
def test_analyze_huge_declared_n_exits_2(tmp_path, capsys, n):
    net = tmp_path / "huge.edges"
    net.write_text(f"n={n}\n1 2\n")
    for extra in ([], ["--keep-isolated"]):
        assert main(["analyze", str(net), "--noise", "none",
                     "--out", str(tmp_path / "t.csv"), *extra]) == 2
        assert capsys.readouterr().err == \
            f"error: vertex count n={n} is too large to hold a degree vector\n"
    assert main(["privatize", str(net), "--noise", "none",
                 "--out", str(tmp_path / "p.txt")]) == 2


@pytest.mark.parametrize("flag", ["--n", "--reps", "--grid"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_bounds_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out = tmp_path / "b.csv"
    assert main(["bounds", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["subgammamax", "hermite", "subgamma", "bernstein"])
def test_bounds_unallocatable_draw_table_exits_2(tmp_path, capsys, kind):
    # 1e14 draws are over the cap, so nothing is drawn: the sum kinds
    # would otherwise loop 1e9 times, the table kinds ask for 728 TiB
    out = tmp_path / "b.csv"
    assert main(["bounds", "--kind", kind, "--n", "1000000000", "--reps", "100000",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --reps 100000 x --n 1000000000 = 100000000000000 noise draws "
        f"exceed the cap of {cli._MAX_DRAWS}\n")
    assert not out.exists()


def test_bounds_subexp_draws_count_reps_alone(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bounds", "--kind", "subexp", "--reps", str(cli._MAX_DRAWS + 1),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --reps {cli._MAX_DRAWS + 1} = {cli._MAX_DRAWS + 1} noise draws "
        f"exceed the cap of {cli._MAX_DRAWS}\n")
    assert not out.exists()
    assert main(["bounds", "--kind", "subexp", "--n", "1000000000", "--reps", "100",
                 "--grid", "3", "--out", str(out)]) == 0


def test_bounds_bernstein_sums_one_draw_per_term_at_large_reps(tmp_path):
    # for --reps above 2^15 each block is one row: the draws and their sum
    # are those of --n separate length-reps draws, summed term by term
    mech = noise.parse_mechanism("herm2:a1=1,a2=1")
    n, reps = 3, 40_000
    rng = np.random.default_rng(5)
    sums = sum(noise.sample(mech, rng, size=reps) - mech.moments()[0] for _ in range(n))
    draws = np.abs(sums)
    spec = bounds_mod.bernstein_from_psi1(bounds_mod.psi1_norm(mech), n)
    ts = np.linspace(0.0, max(float(np.quantile(draws, 0.9999)) + 1e-9, 1.0), 20)
    emp, se = bounds_mod.mc_survival(draws, ts)
    want = ["t,bound,empirical,mc_stderr"] + [
        f"{t:.17g},{tail_bound(spec, float(t)):.17g},{p:.17g},{s:.17g}"
        for t, p, s in zip(ts, emp, se)]
    out = tmp_path / "b.csv"
    assert main(["bounds", "--kind", "bernstein", "--noise", "herm2:a1=1,a2=1",
                 "--n", str(n), "--reps", str(reps), "--seed", "5",
                 "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(want) + "\n"


@pytest.mark.parametrize("law", ["geo:q=0.999999", "dlap:p=1e-9",
                                 "herm2:a1=1e-9,a2=1e-9", "tsp:lambda=1e-9,mu=1e-9"])
def test_bounds_at_extreme_noise_intensities(tmp_path, law):
    # psi1_norm starts its search at t = sqrt(var), where exp(|x| / t)
    # overflows; a privdeg RuntimeWarning fails the test (pyproject.toml)
    psi1 = bounds_mod.psi1_norm(noise.parse_mechanism(law))
    assert math.isfinite(psi1) and psi1 > 0
    rows = _bounds_rows(tmp_path, "--kind", "bernstein", "--noise", law,
                        "--n", "3", "--reps", "200", "--grid", "5")
    assert all(math.isfinite(v) for row in rows for v in row)


def test_bounds_draws_in_blocks(tmp_path, monkeypatch):
    sizes = []
    real = noise.sample

    def counting(mech, rng, size=None):
        sizes.append(int(np.prod(size)))
        return real(mech, rng, size=size)
    monkeypatch.setattr(noise, "sample", counting)
    out = tmp_path / "b.csv"
    assert main(["bounds", "--kind", "subgamma", "--n", "1048576", "--reps", "1",
                 "--grid", "3", "--out", str(out)]) == 0
    assert sizes == [2**16] * 16
    for kind, n, reps in (("subgammamax", 300, 1000), ("hermite", 5, 70_000),
                          ("subexp", 1, 100_000)):
        sizes.clear()
        assert main(["bounds", "--kind", kind, "--n", str(n), "--reps", str(reps),
                     "--grid", "3", "--out", str(out)]) == 0
        assert sum(sizes) == (reps if kind == "subexp" else n * reps)
        assert max(sizes) <= max(2**16, reps)


def test_pair_set_of_huge_n_exits_2(tmp_path, capsys):
    # n = 2e7 holds its parameter vector, but not the 364 TiB pair mask
    # that np.triu_indices would build
    cell = tmp_path / "big.scenario"
    cell.write_text("link = logit\nn = 20000000\nreplicates = 1\n")
    for argv in (["sample", "--n", "20000000"], ["simulate", str(cell)]):
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: vertex count n=20000000 is too large to hold its vertex pairs\n"
        assert not out.exists()


def test_sample_alpha_file_draws_at_that_alpha(tmp_path):
    alpha = np.linspace(-1.5, 1.0, 20)
    src = tmp_path / "alpha.txt"
    src.write_text("".join(f"{v!r}\n" for v in alpha.tolist()))
    out = tmp_path / "g.edges"
    assert main(["sample", "--link", "cloglog", "--alpha-file", str(src),
                 "--seed", "4", "--out", str(out)]) == 0
    dense = engine_reference.sample_graph(LinkKind.CLOGLOG, alpha, np.random.default_rng(4))
    assert out.read_text() == netio_reference.sample_text(dense)


ROOT = Path(__file__).parents[1]
REPORTS = ROOT / "tests" / "data" / "reports"


def _assert_golden(tmp_path, monkeypatch, argv: list[str], golden: str) -> None:
    """``privdeg argv`` run from the repository root writes the bytes of
    tests/data/reports/<golden>."""
    monkeypatch.chdir(ROOT)
    out = tmp_path / golden
    assert main([*argv, "--out", str(out)]) == 0
    regen = " ".join(["PYTHONPATH=src python -m privdeg.cli", *argv,
                      "--out", f"tests/data/reports/{golden}"])
    assert out.read_bytes() == (REPORTS / golden).read_bytes(), (
        f"output differs from tests/data/reports/{golden}. If the change is meant, "
        f"regenerate it from the repository root with\n    {regen}\n"
        "and explain each changed digit in CHANGES.md.")


@pytest.mark.parametrize("scenario", ["scenarios/demo.scenario",
                                      "scenarios/grid.scenario",
                                      "tests/data/reports/log_lap.scenario"],
                         ids=lambda p: Path(p).stem)
def test_simulate_reports_equal_the_golden_bytes(tmp_path, monkeypatch, scenario):
    _assert_golden(tmp_path, monkeypatch, ["simulate", scenario, "--workers", "1"],
                   f"{Path(scenario).stem}.csv")


@pytest.mark.parametrize("argv, golden", [
    (["qq", "scenarios/demo.scenario", "--pair", "50,51"], "qq_demo.csv"),
    *((["analyze", "tests/data/tailorshop_synthetic.dl", "--link", link,
        "--noise", "none"], f"analyze_{link}.csv") for link in ("logit", "cloglog")),
], ids=["qq_demo", "analyze_logit", "analyze_cloglog"])
def test_qq_and_analyze_equal_the_golden_bytes(tmp_path, monkeypatch, argv, golden):
    _assert_golden(tmp_path, monkeypatch, argv, golden)


def test_pool_workers_run_one_blas_thread():
    # a forked pool worker runs the initializer; here a fresh interpreter
    # started at two OpenBLAS threads does
    code = ("import ctypes, pathlib, numpy as np\n"
            "from privdeg.simulate import _one_blas_thread\n"
            "libs = (pathlib.Path(np.__file__).resolve().parent.parent / 'numpy.libs')"
            ".glob('*openblas*')\n"
            "get = [f for f in (getattr(ctypes.CDLL(str(p)), n, None) for p in libs\n"
            "       for n in ('scipy_openblas_get_num_threads64_',"
            " 'openblas_get_num_threads')) if f]\n"
            "_one_blas_thread()\n"
            "print(get[0]() if get else 'no bundled openblas')\n")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() in ("1", "no bundled openblas")
