import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netio_reference
from privdeg.cli import main
from privdeg.links import LinkKind, sample_graph
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
    assert main(["privatize", str(graph), "--no-noise", "--out", str(out)]) == 0
    vals = [float(line.split()[1]) for line in out.read_text().strip().splitlines()]
    assert vals == [1.0, 2.0, 2.0, 1.0]


def test_analyze_fixture(tmp_path, tailorshop_text):
    src = tmp_path / "shop.dl"
    src.write_text(tailorshop_text)
    out = tmp_path / "table.csv"
    code = main(["analyze", str(src), "--link", "logit", "--no-noise",
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


def test_bounds_subcommand(tmp_path):
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--kind", "subgamma", "--noise", "herm2:a1=1,a2=1",
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
        assert main(["analyze", str(src), "--link", link, "--no-noise",
                     "--out", str(tmp_path / f"{link}.csv")]) == 0
        assert ("warning: log-link fit" in capsys.readouterr().err) == warned


def test_sample_writes_the_loop_extraction_bytes(tmp_path):
    out = tmp_path / "g.edges"
    assert main(["sample", "--link", "logit", "--n", "50", "--L", "0.5",
                 "--seed", "7", "--out", str(out)]) == 0
    g = sample_graph(LinkKind.LOGIT, truth_vector(50, 0.5), np.random.default_rng(7))
    assert out.read_text() == netio_reference.sample_text(g.adjacency)


def test_import_does_not_load_scipy():
    # scipy is imported by the functions that call it, at their first call
    code = "import sys, privdeg.cli; print('scipy' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_bounds_path_does_not_load_scipy(tmp_path):
    # psi1 of a two-sided Hermite law and its tail bound need no scipy
    code = ("import sys; from privdeg.cli import main; "
            "code = main(['bounds', '--kind', 'bernstein', '--noise', "
            "'herm2:a1=1.47,a2=0.37', '--n', '5', '--reps', '1000', "
            f"'--out', {str(tmp_path / 'b.csv')!r}]); "
            "print(code, 'scipy' in sys.modules)")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "0 False"
    assert (tmp_path / "b.csv").read_text().startswith("t,bound,empirical,mc_stderr\n")


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
        assert main(["analyze", str(net), "--no-noise",
                     "--out", str(tmp_path / "t.csv"), *extra]) == 2
        assert capsys.readouterr().err == \
            f"error: vertex count n={n} is too large to hold a degree vector\n"
    assert main(["privatize", str(net), "--no-noise",
                 "--out", str(tmp_path / "p.txt")]) == 2


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
