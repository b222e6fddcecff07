import math

import numpy as np
import pytest

from ballwsd.geometry import (Ball, BallConfiguration, GeometryConfig,
                              as_vector, contains, cos_sim, disconnected,
                              load_balls, point_inside, save_balls,
                              verify_configuration)
from ballwsd.inventory import SenseId, Taxonomy


def ball(name, center, radius):
    return Ball(name, np.asarray(center, dtype=float), radius)


class TestVectors:
    def test_as_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_as_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])

    def test_as_vector_checks_dim(self):
        with pytest.raises(ValueError):
            as_vector([1.0, 2.0], dim=3)

    def test_cos_sim_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            a = rng.standard_normal(d)
            b = rng.standard_normal(d)
            want = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert cos_sim(a, b) == pytest.approx(want, abs=1e-12)

    def test_cos_sim_range(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.standard_normal(5), rng.standard_normal(5)
            assert -1.0 - 1e-12 <= cos_sim(a, b) <= 1.0 + 1e-12

    def test_cos_sim_zero_vector_raises(self):
        with pytest.raises(ValueError):
            cos_sim([0.0, 0.0], [1.0, 0.0])

    def test_cos_sim_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            cos_sim([1.0], [1.0, 2.0])


class TestBall:
    def test_radius_must_be_positive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ball("x", [0.0, 0.0], bad)

    def test_center_validated(self):
        with pytest.raises(ValueError):
            ball("x", [float("inf"), 0.0], 1.0)

    def test_dim(self):
        assert ball("x", [1.0, 2.0, 3.0], 0.5).dim == 3


class TestPredicates:
    def test_containment_hand_cases(self):
        outer = ball("o", [0.0, 0.0], 2.0)
        assert contains(outer, ball("i", [0.5, 0.0], 1.0))
        assert contains(outer, outer)                        # inclusive: itself
        assert contains(outer, ball("t", [1.0, 0.0], 1.0))   # inclusive: tangent inside
        assert not contains(outer, ball("b", [1.5, 0.0], 1.0))
        assert not contains(ball("i", [0.5, 0.0], 1.0), outer)

    def test_disconnection_hand_cases(self):
        a = ball("a", [0.0, 0.0], 1.0)
        assert disconnected(a, ball("b", [3.0, 0.0], 1.0))
        assert disconnected(a, ball("t", [2.0, 0.0], 1.0))   # inclusive: tangent
        assert not disconnected(a, ball("c", [1.5, 0.0], 1.0))
        assert not disconnected(a, ball("d", [0.1, 0.0], 0.5))

    def test_predicates_against_norm_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            a = ball("a", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            b = ball("b", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            gap = float(np.linalg.norm(a.center - b.center))
            assert contains(a, b, 0.0) == (gap + b.radius <= a.radius)
            assert disconnected(a, b, 0.0) == (gap >= a.radius + b.radius)

    def test_containment_transitive(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(500):
            c = ball("c", rng.standard_normal(3), float(rng.uniform(0.05, 0.3)))
            shift = rng.standard_normal(3)
            shift *= rng.uniform(0, 0.4) / np.linalg.norm(shift)
            b = ball("b", c.center + shift, c.radius + float(np.linalg.norm(shift)) + 0.1)
            shift2 = rng.standard_normal(3)
            shift2 *= rng.uniform(0, 0.4) / np.linalg.norm(shift2)
            a = ball("a", b.center + shift2, b.radius + float(np.linalg.norm(shift2)) + 0.1)
            assert contains(b, c) and contains(a, b)
            assert contains(a, c)
            hits += 1
        assert hits == 500

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            contains(ball("a", [0.0], 1.0), ball("b", [0.0, 0.0], 1.0))
        with pytest.raises(ValueError):
            disconnected(ball("a", [0.0], 1.0), ball("b", [0.0, 0.0], 1.0))

    def test_point_inside(self):
        b = ball("b", [1.0, 1.0], 0.5)
        assert point_inside([1.0, 1.0], b)
        assert point_inside([1.5, 1.0], b)        # boundary inclusive
        assert not point_inside([1.6, 1.0], b)
        with pytest.raises(ValueError):
            point_inside([1.0], b)


class TestConfigs:
    def test_geometry_config_validation(self):
        GeometryConfig()
        with pytest.raises(ValueError):
            GeometryConfig(epsilon=-1e-9)
        with pytest.raises(ValueError):
            GeometryConfig(margin=1.0)
        with pytest.raises(ValueError):
            GeometryConfig(leaf_radius=0.0)
        with pytest.raises(ValueError):
            GeometryConfig(code_width=0)
        with pytest.raises(ValueError):
            GeometryConfig(prefix_weight=0.0)

    def test_ball_configuration_validation(self):
        b = ball("a.n.01", [0.0, 0.0, 0.0], 1.0)
        cfg = BallConfiguration(dim=3, embedding_prefix_dim=2, balls={"a.n.01": b})
        assert "a.n.01" in cfg and len(cfg) == 1
        assert cfg.get("a.n.01") is b and cfg.get("zzz") is None
        with pytest.raises(ValueError):
            BallConfiguration(dim=3, embedding_prefix_dim=4, balls={})
        with pytest.raises(ValueError):
            BallConfiguration(dim=2, embedding_prefix_dim=1, balls={"a.n.01": b})


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        balls = {}
        for i in range(20):
            name = f"s{i}.n.{i % 4 + 1:02d}"
            balls[name] = ball(name, rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8),
                               float(10.0 ** rng.uniform(-9, 3)))
        cfg = BallConfiguration(dim=7, embedding_prefix_dim=4, balls=balls)
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        back = load_balls(path)
        assert back.dim == 7 and back.embedding_prefix_dim == 4
        assert sorted(back.balls) == sorted(balls)
        for name, b in balls.items():
            rb = back.get(name)
            assert rb.radius == b.radius
            assert np.array_equal(rb.center, b.center)

    def test_save_is_deterministic(self, tmp_path):
        b = ball("a.n.01", [1.0 / 3.0, 2.0 / 7.0], 0.1)
        cfg = BallConfiguration(dim=2, embedding_prefix_dim=1, balls={"a.n.01": b})
        save_balls(cfg, tmp_path / "one.tsv")
        save_balls(cfg, tmp_path / "two.tsv")
        assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "two.tsv").read_bytes()

    def test_load_rejects_missing_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a.n.01\t1.0\t0 0\n")
        with pytest.raises(ValueError):
            load_balls(p)

    def test_load_rejects_duplicate(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#dim 2 prefix 1\na.n.01\t1.0\t0 0\na.n.01\t1.0\t1 1\n")
        with pytest.raises(ValueError):
            load_balls(p)

    def test_load_rejects_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#dim 2 prefix 1\na.n.01\t1.0\n")
        with pytest.raises(ValueError):
            load_balls(p)


def chain_taxonomy():
    a = SenseId("top", "n", 1)
    b = SenseId("mid", "n", 1)
    c1 = SenseId("leaf", "n", 1)
    c2 = SenseId("leaf", "n", 2)
    return a, b, c1, c2, Taxonomy({a: None, b: a, c1: b, c2: b})


class TestVerifier:
    def good_configuration(self):
        a, b, c1, c2, tax = chain_taxonomy()
        balls = {
            str(a): ball(str(a), [0.0, 0.0], 4.0),
            str(b): ball(str(b), [0.5, 0.0], 3.0),
            str(c1): ball(str(c1), [1.5, 0.0], 1.0),
            str(c2): ball(str(c2), [-1.0, 0.0], 1.0),
        }
        return tax, BallConfiguration(dim=2, embedding_prefix_dim=1, balls=balls)

    def test_good_configuration_passes(self):
        tax, cfg = self.good_configuration()
        report = verify_configuration(cfg, tax)
        assert report.ok
        assert report.checked_containment == 3
        assert report.checked_disconnection == 1
        assert "violations:                   0" in report.render()

    def test_containment_violation_detected(self):
        tax, cfg = self.good_configuration()
        cfg.balls["mid.n.01"] = ball("mid.n.01", [0.5, 0.0], 1.2)
        report = verify_configuration(cfg, tax)
        kinds = {v.kind for v in report.violations}
        assert "containment" in kinds
        assert all(v.slack > 0 for v in report.violations)

    def test_disconnection_violation_detected(self):
        tax, cfg = self.good_configuration()
        cfg.balls["leaf.n.02"] = ball("leaf.n.02", [1.0, 0.0], 1.0)
        report = verify_configuration(cfg, tax)
        assert any(v.kind == "disconnection" for v in report.violations)
        assert not report.ok

    def test_missing_parent_ball_reported(self):
        tax, cfg = self.good_configuration()
        del cfg.balls["mid.n.01"]
        report = verify_configuration(cfg, tax)
        assert any(v.kind == "missing" for v in report.violations)

    def test_nodes_without_balls_are_ignored(self):
        a, b, c1, c2, tax = chain_taxonomy()
        balls = {str(a): ball(str(a), [0.0, 0.0], 4.0)}
        cfg = BallConfiguration(dim=2, embedding_prefix_dim=1, balls=balls)
        report = verify_configuration(cfg, tax)
        assert report.ok
        assert report.checked_containment == 0

    def test_co_root_disconnection_checked(self):
        r1, r2 = SenseId("r1", "n", 1), SenseId("r2", "n", 1)
        tax = Taxonomy({r1: None, r2: None})
        balls = {
            str(r1): ball(str(r1), [0.0, 0.0], 1.0),
            str(r2): ball(str(r2), [1.0, 0.0], 1.0),
        }
        cfg = BallConfiguration(dim=2, embedding_prefix_dim=1, balls=balls)
        report = verify_configuration(cfg, tax)
        assert not report.ok
        assert report.violations[0].kind == "disconnection"

    def test_epsilon_tolerance_applies(self):
        a, b = SenseId("a", "n", 1), SenseId("b", "n", 1)
        tax = Taxonomy({a: None, b: a})
        balls = {
            str(a): ball(str(a), [0.0], 1.0),
            str(b): ball(str(b), [0.0], 1.0 + 5e-10),
        }
        cfg = BallConfiguration(dim=1, embedding_prefix_dim=1, balls=balls)
        assert verify_configuration(cfg, tax, GeometryConfig(epsilon=1e-9)).ok
        assert not verify_configuration(cfg, tax, GeometryConfig(epsilon=1e-12)).ok
