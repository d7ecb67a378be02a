import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import engine_reference
import netio_reference
from privdeg import cli, links, noise, simulate
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


def test_simulate_with_cg_steps_is_deterministic_across_workers(tmp_path):
    # Laplace noise leaves k = n = 120 >= 91 classes, so every Newton step
    # is a CG step; 140 replicates make two blocks of 136 and 4
    sc = tmp_path / "cell.scenario"
    sc.write_text("link = cloglog\nn = 120\nL = 0.4\nnoise = lap:b=1.0\n"
                  "replicates = 140\nseed = 3\n")
    outs = []
    for w in (1, 2):
        out = tmp_path / f"report_{w}.csv"
        assert main(["simulate", str(sc), "--workers", str(w), "--out", str(out)]) == 0
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
                                       ("2,2", "bad pair (2, 2) for n=24"),
                                       ("1,2; 23,24; 1,2", "pair (1, 2) is listed twice")])
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


def test_simulate_rejects_a_pair_listed_twice(tmp_path, capsys):
    sc = tmp_path / "cell.scenario"
    sc.write_text(SCENARIO.replace("pairs = 1,2; 23,24", "pairs = 23,24; 1,2; 23,24"))
    out = tmp_path / "report.csv"
    assert main(["simulate", str(sc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: pair (23, 24) is listed twice\n"
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
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
    # no psi1 norm is computed first, so its errors cannot hide this one
    for law in ("dlap:p=0.5", "geo:q=1e-12"):
        assert main(["bounds", "--kind", "hermite", "--noise", law,
                     "--reps", "100", "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == ("error: --kind hermite needs a compound-Poisson "
                                           f"law (herm, herm2, tsp), got {law}\n")
        assert not (tmp_path / "b.csv").exists()


def test_bounds_bernstein_computes_one_psi1_norm(tmp_path, monkeypatch):
    calls = []
    real = noise.psi1_norm

    def counting(mech):
        calls.append(mech)
        return real(mech)
    monkeypatch.setattr(noise, "psi1_norm", counting)
    monkeypatch.setattr(bounds_mod, "psi1_norm", counting)
    _bounds_rows(tmp_path, "--kind", "bernstein", "--noise", "dlap:p=0.5",
                 "--n", "3", "--reps", "200", "--grid", "5")
    assert calls == [noise.DiscreteLaplace(0.5)]


@pytest.mark.parametrize("kind", ["subexp", "bernstein", "subgamma", "subgammamax",
                                  "hermite"])
def test_bounds_at_laplace_scales_near_the_float_range(tmp_path, capsys, kind):
    # at b = 1e300 the variance 2 b^2 overflows, but psi1 = 2 b does not, so
    # only subexp draws; at b = 9e153 the variance is finite, but (2 psi1)^2
    # overflows. Each ends in one error line or a finite table, never in a
    # traceback, an infinite norm or a NaN.
    for law, codes in (("lap:b=1e300", (0,) if kind == "subexp" else (2,)),
                       ("lap:b=9e153", (0, 2))):
        out = tmp_path / "b.csv"
        code = main(["bounds", "--kind", kind, "--noise", law, "--n", "3",
                     "--reps", "100", "--grid", "5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code in codes
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        else:
            rows = _bounds_rows(tmp_path, "--kind", kind, "--noise", law, "--n", "3",
                                "--reps", "100", "--grid", "5")
            assert all(math.isfinite(v) for row in rows for v in row)
            assert all(0 < bound <= 1 for _, bound, _, _ in rows)


def test_bounds_refuses_a_pmf_table_over_the_cap(tmp_path, capsys):
    out = tmp_path / "b.csv"
    start = time.perf_counter()
    assert main(["bounds", "--kind", "bernstein", "--noise", "herm:a1=1e6,a2=1e6",
                 "--reps", "100", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err == ("error: Hermite(a1=1000000.0, a2=1000000.0): its variance 5e+06 puts its "
                   f"pmf tables over the cap of {noise._MAX_TABLE} support points\n")
    assert not out.exists()


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


def _main_in_fresh_python(argv: list[str] | None, module: str = "scipy") -> str:
    """'<exit code> <module loaded?>' of main(argv) in a new interpreter;
    argv None only imports the CLI (exit code 0)."""
    code = ("import sys; from privdeg.cli import main; "
            f"argv = {argv!r}; "
            f"print(main(argv) if argv else 0, {module!r} in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.strip()


def _small_run(tmp_path: Path, command: str) -> list[str] | None:
    """argv of a quick run of a command on small inputs, writing
    tmp_path/out.csv; None for "import" (import the CLI only)."""
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = logit\nn = 10\nL = 0.2\nnoise = herm2:a1=0.1,a2=0.05\n"
                    "replicates = 5\nseed = 3\n")
    degrees = tmp_path / "d.txt"
    degrees.write_text("3\n3\n2\n2\n4\n2\n")
    shop = str(Path(__file__).parent / "data" / "tailorshop_synthetic.dl")
    out = str(tmp_path / "out.csv")
    return {
        "import": None,
        "simulate": ["simulate", str(cell), "--out", out],
        "qq": ["qq", str(cell), "--pair", "1,2", "--out", out],
        "estimate": ["estimate", str(degrees), "--link", "logit", "--out", out],
        "analyze": ["analyze", shop, "--link", "logit", "--noise", "none", "--out", out],
        "bounds": ["bounds", "--kind", "bernstein", "--noise", "herm2:a1=1.47,a2=0.37",
                   "--n", "5", "--reps", "1000", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["import", "simulate", "qq", "estimate", "analyze"])
def test_cli_run_does_not_load_scipy(tmp_path, command):
    # the normal quantile is computed without scipy, and no privdeg module
    # imports it
    argv = _small_run(tmp_path, command)
    assert _main_in_fresh_python(argv) == "0 False"
    if argv:  # a header and at least three rows
        assert (tmp_path / "out.csv").read_text().count("\n") >= 4


def test_bounds_path_does_not_load_scipy(tmp_path):
    # psi1 of a compound-Poisson law and its tail bound need no scipy
    out = tmp_path / "b.csv"
    for law in ("herm2:a1=1.47,a2=0.37", "tsp:lambda=2,mu=1"):
        assert _main_in_fresh_python(["bounds", "--kind", "bernstein", "--noise", law,
                                      "--n", "5", "--reps", "1000",
                                      "--out", str(out)]) == "0 False"
    assert out.read_text().startswith("t,bound,empirical,mc_stderr\n")


@pytest.mark.parametrize("module", ["numpy.fft", "scipy"])
def test_lone_fit_does_not_load_fft_or_scipy(tmp_path, module):
    # 120 distinct degrees make one lone fit, whose Chebyshev grid takes its
    # coefficients from a cosine matrix
    degrees = tmp_path / "d.txt"
    degrees.write_text("".join(f"{10.0 + 0.37 * i!r}\n" for i in range(120)))
    out = tmp_path / "out.csv"
    assert _main_in_fresh_python(["estimate", str(degrees), "--link", "logit",
                                  "--out", str(out)], module) == "0 False"
    assert out.read_text().count("\n") == 121


@pytest.mark.parametrize("command, module", [
    *(("bounds", f"privdeg.{m}") for m in ("estimator", "simulate", "netio", "links",
                                           "analysis")),
    *(("analyze", f"privdeg.{m}") for m in ("simulate", "bounds")),
    *(("simulate", f"privdeg.{m}") for m in ("bounds", "analysis")),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, module):
    # each command imports its own modules; no package import pulls in the rest
    assert _main_in_fresh_python(_small_run(tmp_path, command), module) == "0 False"


@pytest.mark.parametrize("module", ["concurrent.futures.process", "multiprocessing"])
def test_cli_import_does_not_load_the_process_pool(module):
    # simulate imports ProcessPoolExecutor only when a run starts a pool
    assert _main_in_fresh_python(None, module) == "0 False"


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


def test_bounds_bernstein_draws_each_sum_from_its_n_fold_law(tmp_path):
    # a sum of n herm2(a1, a2) draws is one herm2(n a1, n a2) draw, so the
    # CSV is that of reps such draws, built here without draw_sum
    mech = noise.parse_mechanism("herm2:a1=1,a2=1")
    n, reps = 3, 40_000
    draws = np.abs(noise.sample(noise.TwoSideHermite(n * 1.0, n * 1.0),
                                np.random.default_rng(5), size=reps))
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


@pytest.mark.parametrize("n", [1, 200])
@pytest.mark.parametrize("law", ["lap:b=1", "herm2:a1=1,a2=1"])
def test_subexp_fold_keeps_no_array_but_its_draw(law, n):
    # 2^20 sums (n = 1 is subexp): centred and folded in place, so the traced
    # peak is the draw (with an integer law's int64 array before its conversion)
    mech = noise.parse_mechanism(law)
    reps = 2**20
    tracemalloc.start()
    try:
        got = cli._summed_noise(mech, np.random.default_rng(3), n, reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * reps
    draw = noise.sample(mech, np.random.default_rng(3), reps, terms=n)
    assert np.array_equal(got, np.abs(draw - n * mech.moments()[0]))


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
    # a sum kind makes one noise.sample call of --reps sums of --n terms;
    # subgammamax draws its (n, reps) table in blocks
    calls = []
    real = noise.sample

    def counting(mech, rng, size=None, terms=1):
        calls.append((int(np.prod(size)), terms))
        return real(mech, rng, size=size, terms=terms)
    monkeypatch.setattr(noise, "sample", counting)
    out = tmp_path / "b.csv"
    # a sum whose law is past numpy's range is drawn term by term, in blocks
    assert main(["bounds", "--kind", "subgamma", "--noise", "herm:a1=1,a2=1e13",
                 "--n", "1048576", "--reps", "1", "--grid", "3", "--out", str(out)]) == 0
    assert calls == [(2**16, 1)] * 16
    for kind, n, reps in (("subgamma", 1048576, 1), ("bernstein", 200, 50_000),
                          ("hermite", 5, 70_000), ("subexp", 1, 100_000),
                          ("subgammamax", 300, 1000), ("subgammamax", 3, 70_000)):
        calls.clear()
        assert main(["bounds", "--kind", kind, "--n", str(n), "--reps", str(reps),
                     "--grid", "3", "--out", str(out)]) == 0
        if kind == "subgammamax":
            assert {terms for _, terms in calls} == {1}
            assert sum(size for size, _ in calls) == n * reps
            assert max(size for size, _ in calls) <= max(2**16, reps)
        else:
            assert calls == [(reps, n)]


@pytest.mark.parametrize("law", ["geo:q=1e-12", "dlap:p=0.999999999999",
                                 "herm2:a1=1e12,a2=1", "herm:a1=1,a2=5e11",
                                 "herm2:a1=1,a2=1e12"])
def test_bounds_sum_past_the_generator_range(tmp_path, law):
    # the law of the whole sum is past numpy's negative_binomial / poisson
    # range, or its Hermite draw could wrap in int64, so the sum is drawn
    # term by term; its one |S - E S| is the grid's top, within 10 sd of 0
    n = 16777216
    rows = _bounds_rows(tmp_path, "--kind", "subgamma", "--noise", law,
                        "--n", str(n), "--reps", "1", "--grid", "4")
    assert len(rows) == 4
    assert all(math.isfinite(v) for row in rows for v in row)
    sd = math.sqrt(n * noise.parse_mechanism(law).moments()[1])
    assert rows[-1][0] <= max(10 * sd, 1.0)


def test_bounds_term_past_the_generator_range_exits_2(tmp_path, capsys):
    out = tmp_path / "b.csv"
    for n in ("1", "16777216"):
        assert main(["bounds", "--kind", "subgamma", "--noise", "herm2:a1=1e19,a2=1",
                     "--n", n, "--reps", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: herm2:a1=1e+19,a2=1.0: a draw is past numpy's range\n"
        assert not out.exists()


@pytest.mark.parametrize("law", ["herm:a1=1,a2=5e18", "geo:q=1e-19", "herm2:a1=1e19,a2=1",
                                 "tsp:lambda=1e19,mu=1"])
def test_a_single_draw_past_the_generator_range_exits_2(tmp_path, capsys, law):
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n3 1\n3 4\n")
    scenario = tmp_path / "cell.scenario"
    # two blocks of replicates at n = 1000, so that --workers 2 runs a pool
    scenario.write_text(f"link = logit\nn = 1000\nL = 0.2\nnoise = {law}\n"
                        "replicates = 17\nseed = 1\npairs = 1,2\n")
    out = tmp_path / "out"
    want = f"error: {noise.mechanism_label(noise.parse_mechanism(law))}: " \
        "a draw is past numpy's range\n"
    for argv in (["bounds", "--kind", "subgamma", "--noise", law, "--n", "3"],
                 ["bounds", "--kind", "subgammamax", "--noise", law, "--n", "3"],
                 ["privatize", str(graph), "--noise", law],
                 ["simulate", str(scenario), "--workers", "1"],
                 ["simulate", str(scenario), "--workers", "2"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()


@pytest.mark.parametrize("law", ["lap:b=inf", "lap:b=1e308"])
def test_a_laplace_draw_past_the_float_range_exits_2(tmp_path, capsys, law):
    # a draw could overflow to +-inf; lap:b=1e300 still draws
    graph = tmp_path / "g.edges"
    graph.write_text("1 2\n2 3\n3 1\n3 4\n")
    scenario = tmp_path / "cell.scenario"
    scenario.write_text(f"link = logit\nn = 1000\nL = 0.2\nnoise = {law}\n"
                        "replicates = 17\nseed = 1\npairs = 1,2\n")
    out = tmp_path / "out"
    want = f"error: {noise.mechanism_label(noise.parse_mechanism(law))}: " \
        "a draw is past numpy's range\n"
    for argv in (["privatize", str(graph), "--noise", law],
                 ["simulate", str(scenario), "--workers", "1"],
                 ["simulate", str(scenario), "--workers", "2"]):
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()
    assert main(["privatize", str(graph), "--noise", "lap:b=1e300", "--out", str(out)]) == 0
    degrees = [float(line.split()[1]) for line in out.read_text().splitlines()]
    assert len(degrees) == 4 and all(math.isfinite(d) for d in degrees)


# sha256 of bounds CSVs (--reps 2000 --seed 3) whose draws take the one-term
# path: written by the code that folded term by term, before draw_sum
KEPT_BYTES = {
    ("subexp", "lap:b=1", 7): "c181a75fe555eb178b421965bb403d99bc6591184d15339dab31a32f254fa39a",
    ("subgammamax", "lap:b=1", 7): "668d46482c0be5b5711539bb4f6dabbb6feddb74562f36e76f779dd17717332e",
    ("bernstein", "lap:b=1", 1): "adcfda751b74be5a298c034c484b4848f8586900b9f2fe2cbe5f5355013b956d",
    ("subgamma", "lap:b=1", 1): "e5d285d79b7e16e3f82497d071162ebce930a51cacb2e73d77d1566468ccd233",
    ("subexp", "dlap:p=0.5", 7): "67cc0c478327bfa7696bc725db9192961153a8395f6dbe942cba0af7f29c5352",
    ("subgammamax", "dlap:p=0.5", 7): "23776541169953bf361e777d88778a9646bc3c55c4d0c19fb5bfae52735dd75f",
    ("bernstein", "dlap:p=0.5", 1): "a13a22d3c7a92461c244f6328cb5ee08e5e96f2d553da516c7fec260f4c98a72",
    ("subgamma", "dlap:p=0.5", 1): "f9ecf13dbbee18dd74ffdbb703bc6b415e3148255a16a474ceced07fa790fcfe",
    ("subexp", "geo:q=0.3", 7): "ccd35e984772cb88f90cacac4dec6913796eef474aca87f6b541af51f596df7d",
    ("subgammamax", "geo:q=0.3", 7): "629904cc1596ecf95e96e51af26b3e7cdc14bfc4e621b0311b49eb5e3fb60b67",
    ("bernstein", "geo:q=0.3", 1): "45609ac595c94e77e8923d09ac17f3002b80e4ee26ebbffd53d6fe7f16e4a4e2",
    ("subgamma", "geo:q=0.3", 1): "743d73be2d93b96f90c4e41298da18d1073a53f2ad2df50503be5b6bcaa67517",
    ("subexp", "herm:a1=1,a2=0.5", 7): "5f0c49fa617e5eb934b6f415b9e7153986aa1713f817b0133377927be5450936",
    ("subgammamax", "herm:a1=1,a2=0.5", 7): "fd3299115ff887c8fda8688daa5835df5dceac6ef2deff92ab609e257c611930",
    ("bernstein", "herm:a1=1,a2=0.5", 1): "d7e3f08bfa0880240bb068f43451adf8179dba8e62fe61c41c72961b00ffccf2",
    ("subgamma", "herm:a1=1,a2=0.5", 1): "ae5ad9ea895017f4644caec03581422c378b2fe3ff95aac46a30926be63ff67d",
    ("hermite", "herm:a1=1,a2=0.5", 1): "f1857c7d5e00b52bdd84f93dde87c114a3003b35c6b091934f4dbd8debb2ae1d",
    ("subexp", "herm2:a1=1.2,a2=0.3", 7): "9023b2f3604f2ecfceb011c496043a959ba8a27ca5ee00130634d2acb63fdbdb",
    ("subgammamax", "herm2:a1=1.2,a2=0.3", 7): "2448692461afcbd11883af4f397ac5facde51f79bb6fc9e63a766f7b265a09c0",
    ("bernstein", "herm2:a1=1.2,a2=0.3", 1): "c3b64e1c6e1669682b9511c83dc32417398b8917e4e41063a0cded55d024bffd",
    ("subgamma", "herm2:a1=1.2,a2=0.3", 1): "692482833e4326e64913393134a8da05c9c431471088ea94571eab7e54c8af27",
    ("hermite", "herm2:a1=1.2,a2=0.3", 1): "4054716e82c00642310eb30dacee9033f39cf60858f29d1768532e97ee5c1cc8",
    ("subexp", "tsp:lambda=2,mu=1", 7): "2b4f8ff8aafc22afc1f5b13b840491dcdd85e22cd116872d159d7dbd725336ee",
    ("subgammamax", "tsp:lambda=2,mu=1", 7): "72be53c693c05ce7f51247fd87d78d22419f5c4a148cf183955984f349aa27d9",
    ("bernstein", "tsp:lambda=2,mu=1", 1): "2164301eefee243f148ea1ceb136c0f69c0e6ec0ed06f7aab5a5be410d62b6c6",
    ("subgamma", "tsp:lambda=2,mu=1", 1): "adf2ac9c5274328b2acf65f20196784b3567f38760d7abf9c38a6d0d11da4665",
    ("hermite", "tsp:lambda=2,mu=1", 1): "90562bf8169d959e83cbcaa14e8c5e6d1d2ddff84751707ffacbf16d5567608b",
}


def test_bounds_outputs_that_keep_their_bytes(tmp_path):
    out = tmp_path / "b.csv"
    for (kind, law, n), digest in KEPT_BYTES.items():
        assert main(["bounds", "--kind", kind, "--noise", law, "--n", str(n),
                     "--reps", "2000", "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (kind, law, n)


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


def test_pair_probabilities_that_do_not_fit_in_memory_exit_2(tmp_path, capsys, monkeypatch):
    # the n x n pair sums are built after the pair mask, under the same guard
    def no_memory(alpha):
        raise MemoryError

    monkeypatch.setattr(links, "pair_sum_matrix", no_memory)
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = logit\nn = 50\nreplicates = 1\n")
    for argv in (["sample", "--n", "50"], ["simulate", str(cell)]):
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: vertex count n=50 is too large to hold its vertex pairs\n"
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


def test_blas_thread_pin_keeps_lu_fallback_reports_equal_across_thread_counts(tmp_path):
    # with CG off, every fit at k >= 91 factors V by LU; without the pin,
    # OpenBLAS at 2 threads rounds this cell's report differently than at 1
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = cloglog\nn = 120\nL = 0.5\nnoise = lap:b=1.0\n"
                    "replicates = 12\nseed = 3\n")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report_{threads}.csv"
        code = ("import sys; from privdeg import estimator; "
                "from privdeg.cli import main; estimator._CG_MAX_ITER = 0; "
                f"sys.exit(main(['simulate', {str(cell)!r}, '--out', {str(out)!r}]))")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                              os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], env=env, timeout=300, check=True)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
