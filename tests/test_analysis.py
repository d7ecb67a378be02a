import numpy as np
import pytest

from privdeg.analysis import noisy_degrees, table_from_degrees
from privdeg.links import LinkKind
from privdeg.netio import parse_edges, prune_zero_degree, kept_labels
from privdeg.noise import TwoSideHermite


def test_equal_noisy_degrees_get_equal_fits():
    table = table_from_degrees(np.array([3.0, 5.0, 3.0, 5.0, 3.0, 5.0, 4.0, 4.0]),
                               LinkKind.LOGIT)
    assert table.result.exists
    by_deg = {}
    for r in table.rows:
        by_deg.setdefault(r.dtilde, set()).add(round(r.alpha, 10))
    assert all(len(v) == 1 for v in by_deg.values())


def test_rows_are_intervals_around_alpha():
    table = table_from_degrees(np.array([3.0, 4.0, 2.0, 4.0, 1.5, 3.5]),
                               LinkKind.LOGIT)
    for r in table.rows:
        assert r.lo <= r.alpha <= r.hi
        assert r.se > 0


def test_alpha_monotone_in_noisy_degree(tailorshop_text):
    e = parse_edges(tailorshop_text, "ucinet-dl")
    labels = kept_labels(e)
    pruned, removed = prune_zero_degree(e)
    assert removed == [17, 22]
    for link in (LinkKind.LOG, LinkKind.LOGIT, LinkKind.CLOGLOG):
        table = table_from_degrees(noisy_degrees(pruned, None, 0), link, labels=labels)
        assert table.result.exists
        rows = sorted(table.rows, key=lambda r: (r.dtilde, r.vertex))
        for a, b in zip(rows, rows[1:]):
            if b.dtilde > a.dtilde:
                assert b.alpha > a.alpha
            else:
                assert b.alpha == pytest.approx(a.alpha, abs=1e-9)


def test_analyze_with_noise_is_seed_deterministic(tailorshop_text):
    e = parse_edges(tailorshop_text, "ucinet-dl")
    pruned, _ = prune_zero_degree(e)
    mech = TwoSideHermite(1.0, 0.5)
    t1 = table_from_degrees(noisy_degrees(pruned, mech, 99), LinkKind.LOGIT)
    t2 = table_from_degrees(noisy_degrees(pruned, mech, 99), LinkKind.LOGIT)
    assert [r.dtilde for r in t1.rows] == [r.dtilde for r in t2.rows]
    if t1.result.exists and t2.result.exists:
        assert [r.alpha for r in t1.rows] == [r.alpha for r in t2.rows]


def test_nonexistent_fit_marks_rows_absent():
    table = table_from_degrees(np.array([0.0, 3.0, 2.0, 3.0]), LinkKind.LOGIT)
    assert not table.result.exists
    assert table.result.reason
    assert all(r.alpha is None and r.se is None for r in table.rows)


def test_logit_golden_row_vertex_16():
    # published logit fit for the tailor-shop release, vertex 16:
    # 2.10 [1.29, 2.91] (0.41)
    from golden_kapferer import DEGREE_COLUMN
    table = table_from_degrees(np.array(DEGREE_COLUMN, dtype=float), LinkKind.LOGIT)
    row = table.rows[15]
    assert row.vertex == 16 and row.dtilde == 26.0
    assert row.alpha == pytest.approx(2.10, abs=0.011)
    assert row.lo == pytest.approx(1.29, abs=0.011)
    assert row.hi == pytest.approx(2.91, abs=0.011)
    assert row.se == pytest.approx(0.41, abs=0.011)


@pytest.mark.parametrize("d", [[3.0, 2.0, 2.0, 1.0, 2.0], [0.0, 1.0, 2.0, 1.0]])
def test_bad_level_is_rejected_whether_or_not_the_fit_exists(d):
    with pytest.raises(ValueError, match="confidence level"):
        table_from_degrees(np.array(d), LinkKind.LOGIT, level=1.5)
