import math

import numpy as np
import pytest

import engine_reference
from privdeg.links import (DomainError, EdgeSampler, LinkKind, degrees,
                           edge_prob, edge_prob_deriv, edge_prob_matrix,
                           expected_degrees, link_inverse, sample_graph)
from privdeg.netio import EdgeList

LINKS = [LinkKind.LOG, LinkKind.LOGIT, LinkKind.CLOGLOG]


def test_edge_prob_reference_points():
    assert edge_prob(LinkKind.LOGIT, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert edge_prob(LinkKind.LOG, -1.0) == pytest.approx(math.exp(-1), abs=1e-15)
    assert edge_prob(LinkKind.CLOGLOG, 0.0) == pytest.approx(1 - math.exp(-1), abs=1e-15)


def test_log_domain_rejected():
    with pytest.raises(DomainError):
        edge_prob(LinkKind.LOG, 0.0)
    with pytest.raises(DomainError):
        edge_prob_deriv(LinkKind.LOG, 0.2)
    with pytest.raises(DomainError):
        expected_degrees(LinkKind.LOG, np.array([0.1, -0.05]))


def test_prob_range_and_monotonicity():
    for link in LINKS:
        xs = np.linspace(-3, -0.01, 500) if link == LinkKind.LOG \
            else np.linspace(-3, 3, 500)
        ps = np.asarray(edge_prob(link, xs))
        assert np.all((ps > 0) & (ps < 1))
        assert np.all(np.diff(ps) > 0)


def test_deriv_reference_points():
    assert edge_prob_deriv(LinkKind.LOGIT, 0.0, 1) == pytest.approx(0.25, abs=1e-15)
    assert edge_prob_deriv(LinkKind.LOG, -1.0, 1) == pytest.approx(math.exp(-1), abs=1e-15)


def test_deriv_matches_central_difference():
    rng = np.random.default_rng(7)
    for link in LINKS:
        xs = rng.uniform(-3, -0.1, 1000) if link == LinkKind.LOG \
            else rng.uniform(-3, 3, 1000)
        h = 1e-5
        for order in (1, 2):
            if order == 1:
                fd = (np.asarray(edge_prob(link, xs + h)) -
                      np.asarray(edge_prob(link, xs - h))) / (2 * h)
            else:
                fd = (np.asarray(edge_prob_deriv(link, xs + h, 1)) -
                      np.asarray(edge_prob_deriv(link, xs - h, 1))) / (2 * h)
            an = np.asarray(edge_prob_deriv(link, xs, order))
            tol = 1e-6 * np.maximum(1.0, np.abs(an))
            assert np.all(np.abs(an - fd) < tol)


def test_cloglog_deriv_fd_at_point():
    h = 1e-6
    fd = (edge_prob(LinkKind.CLOGLOG, 0.3 + h) - edge_prob(LinkKind.CLOGLOG, 0.3 - h)) / (2 * h)
    assert edge_prob_deriv(LinkKind.CLOGLOG, 0.3, 1) == pytest.approx(fd, abs=1e-8)


def test_link_inverse_round_trip():
    for link in LINKS:
        for p in (0.05, 0.3, 0.5, 0.9):
            x = link_inverse(link, p)
            assert edge_prob(link, x) == pytest.approx(p, abs=1e-12)


def test_expected_degrees_reference():
    out = expected_degrees(LinkKind.LOGIT, np.zeros(3))
    assert out == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
    out = expected_degrees(LinkKind.LOG, -np.ones(4))
    assert out == pytest.approx([3 * math.exp(-2)] * 4, abs=1e-14)


def test_log_domain_check_skips_the_diagonal():
    # the only pair sum is -4; the diagonal 2 alpha_2 = 2 is no pair
    out = expected_degrees(LinkKind.LOG, [-5.0, 1.0])
    assert np.array_equal(out, [math.exp(-4.0), math.exp(-4.0)])
    P = edge_prob_matrix(LinkKind.LOG, np.array([-5.0, 1.0, -3.0]))
    assert np.array_equal(np.diag(P), np.zeros(3))
    with pytest.raises(DomainError):
        expected_degrees(LinkKind.LOG, [-5.0, 1.0, -0.5])


def test_expected_degrees_against_termwise_sum():
    rng = np.random.default_rng(11)
    alpha = rng.uniform(-1.0, 0.8, 5)
    got = expected_degrees(LinkKind.CLOGLOG, alpha)
    # independent oracle: naive termwise summation at extended precision
    want = []
    for i in range(5):
        acc = np.longdouble(0)
        for j in range(5):
            if j != i:
                x = np.longdouble(alpha[i]) + np.longdouble(alpha[j])
                acc += -np.expm1(-np.exp(x, dtype=np.longdouble))
        want.append(float(acc))
    assert got == pytest.approx(want, abs=1e-12)


def test_edge_prob_matrix_symmetric_zero_diag():
    rng = np.random.default_rng(3)
    alpha = rng.normal(0, 1, 8)
    P = edge_prob_matrix(LinkKind.LOGIT, alpha)
    assert np.array_equal(P, P.T)
    assert np.all(np.diag(P) == 0)


def test_sample_graph_limit_case():
    rng = np.random.default_rng(0)
    g = sample_graph(LinkKind.LOG, np.full(10, -20.0), rng)
    assert degrees(g).sum() == 0


def test_sample_graph_mean_degree():
    rng = np.random.default_rng(5)
    alpha = np.zeros(100)
    total = 0.0
    R = 1000
    for _ in range(R):
        total += degrees(sample_graph(LinkKind.LOGIT, alpha, rng)).mean()
    # per-graph mean degree 2E/n with E ~ Binomial(4950, 1/2)
    se = math.sqrt(4 * 4950 * 0.25 / 100 ** 2 / R)
    assert abs(total / R - 49.5) < 4 * se


def test_sample_graph_deterministic():
    alpha = np.linspace(-1, 0.5, 30)
    g1 = sample_graph(LinkKind.LOGIT, alpha, np.random.default_rng(42))
    g2 = sample_graph(LinkKind.LOGIT, alpha, np.random.default_rng(42))
    assert g1 == g2


def test_sample_matches_expected_degrees():
    rng = np.random.default_rng(9)
    alpha = np.linspace(-0.8, 0.8, 25)
    want = expected_degrees(LinkKind.LOGIT, alpha)
    R = 400
    acc = np.zeros(25)
    for _ in range(R):
        acc += degrees(sample_graph(LinkKind.LOGIT, alpha, rng))
    P = edge_prob_matrix(LinkKind.LOGIT, alpha)
    var = (P * (1 - P)).sum(axis=1)
    assert np.all(np.abs(acc / R - want) < 4 * np.sqrt(var / R))


@pytest.mark.parametrize("link", LINKS)
@pytest.mark.parametrize("n", [2, 3, 100, 401])
def test_degree_sampler_matches_sample_graph(link, n):
    rng = np.random.default_rng(n)
    if link == LinkKind.LOG:
        alpha = rng.uniform(-3.0, -0.2, n)
    else:
        alpha = rng.uniform(-1.5, 1.5, n)
    sampler = EdgeSampler(link, alpha)
    for seed in range(4):
        streams = [np.random.default_rng(seed) for _ in range(3)]
        d = sampler.degrees(streams[0])
        g = sample_graph(link, alpha, streams[1])
        dense = engine_reference.sample_graph(link, alpha, streams[2])
        assert d.dtype == float
        assert np.array_equal(d, degrees(g))
        assert np.array_equal(g.edges, np.argwhere(np.triu(dense, 1)) + 1)
        # the noise draw that follows sees the same generator state
        nxt = [s.random() for s in streams]
        assert nxt[0] == nxt[1] == nxt[2]


def test_degrees_edge_cases():
    empty = EdgeList(3, ())
    assert degrees(empty).dtype == np.int64
    assert list(degrees(empty)) == [0, 0, 0]
    complete = EdgeList(4, np.argwhere(np.triu(np.ones((4, 4)), 1)) + 1)
    assert list(degrees(complete)) == [3, 3, 3, 3]


@pytest.mark.parametrize("link", LINKS)
def test_edge_prob_and_derivatives_match_separate_evaluators_bitwise(link):
    # edge_prob and edge_prob_deriv wrap the fused links.link_values; they
    # give the bits of the separate p and p' evaluators they replaced
    # (tests/engine_reference.py) at pair sums of scale 1 to 1000
    rng = np.random.default_rng(5)
    for scale in (1.0, 30.0, 1000.0):
        x = np.concatenate((rng.normal(0.0, scale, 2000), [-np.inf, -0.0, 0.0]))
        if link == LinkKind.LOG:
            x = -np.abs(x) - 1e-3
        p = engine_reference._pm_extended(link, x)
        dp = engine_reference._dpm_extended(link, x)
        second = {LinkKind.LOG: dp, LinkKind.LOGIT: dp * (1.0 - 2.0 * p),
                  LinkKind.CLOGLOG: dp * (1.0 - np.exp(np.clip(x, None, 690.0)))}[link]
        x_before = x.copy()
        assert np.array_equal(edge_prob(link, x), p)
        assert np.array_equal(edge_prob_deriv(link, x), dp)
        assert np.array_equal(edge_prob_deriv(link, x, 2), second)
        assert np.array_equal(x, x_before)  # the input is not overwritten
        assert edge_prob(link, float(x[0])) == p[0]
        assert edge_prob_deriv(link, float(x[0]), 2) == second[0]
