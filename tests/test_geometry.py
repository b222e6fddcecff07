import math

import numpy as np
import pytest

from ballwsd.construct import construct_balls
from ballwsd.geometry import (BallConfiguration, GeometryConfig, RowError,
                              as_vector, containment_slack, contains, cos_sim,
                              disconnected, load_balls, overlap_slack,
                              point_inside, save_balls, verify_configuration)
from ballwsd.inventory import SenseId, Taxonomy

from helpers import configuration, random_table, random_taxonomy


def ball(name, center, radius):
    """A `(sense_id, center, radius)` row for `configuration`."""
    return (name, np.asarray(center, dtype=float), radius)


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


class TestPredicates:
    def test_containment_hand_cases(self):
        cfg = configuration([ball("o", [0.0, 0.0], 2.0), ball("i", [0.5, 0.0], 1.0),
                             ball("t", [1.0, 0.0], 1.0), ball("b", [1.5, 0.0], 1.0)])
        assert contains(cfg, "o", "i")
        assert contains(cfg, "o", "o")                      # inclusive: itself
        assert contains(cfg, "o", "t")                      # inclusive: tangent inside
        assert not contains(cfg, "o", "b")
        assert not contains(cfg, "i", "o")

    def test_disconnection_hand_cases(self):
        cfg = configuration([ball("a", [0.0, 0.0], 1.0), ball("b", [3.0, 0.0], 1.0),
                             ball("t", [2.0, 0.0], 1.0), ball("c", [1.5, 0.0], 1.0),
                             ball("d", [0.1, 0.0], 0.5)])
        assert disconnected(cfg, "a", "b")
        assert disconnected(cfg, "a", "t")                  # inclusive: tangent
        assert not disconnected(cfg, "a", "c")
        assert not disconnected(cfg, "a", "d")

    def test_predicates_against_norm_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            a = ball("a", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            b = ball("b", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            cfg = configuration([a, b])
            gap, ra, rb = float(np.linalg.norm(a[1] - b[1])), a[2], b[2]
            assert contains(cfg, "a", "b", 0.0) == (gap + rb <= ra)
            assert disconnected(cfg, "a", "b", 0.0) == (gap >= ra + rb)
            assert containment_slack(cfg, "a", "b", 0.25) == gap + rb - ra - 0.25
            assert overlap_slack(cfg, "a", "b", 0.25) == ra + rb - gap - 0.25

    def test_containment_transitive(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(500):
            c = ball("c", rng.standard_normal(3), float(rng.uniform(0.05, 0.3)))
            shift = rng.standard_normal(3)
            shift *= rng.uniform(0, 0.4) / np.linalg.norm(shift)
            b = ball("b", c[1] + shift, c[2] + float(np.linalg.norm(shift)) + 0.1)
            shift2 = rng.standard_normal(3)
            shift2 *= rng.uniform(0, 0.4) / np.linalg.norm(shift2)
            a = ball("a", b[1] + shift2, b[2] + float(np.linalg.norm(shift2)) + 0.1)
            cfg = configuration([a, b, c])
            assert contains(cfg, "b", "c") and contains(cfg, "a", "b")
            assert contains(cfg, "a", "c")
            hits += 1
        assert hits == 500

    def test_point_inside(self):
        cfg = configuration([ball("b", [1.0, 1.0], 0.5)])
        assert point_inside([1.0, 1.0], cfg, "b")
        assert point_inside([1.5, 1.0], cfg, "b")          # boundary inclusive
        assert not point_inside([1.6, 1.0], cfg, "b")
        with pytest.raises(ValueError):
            point_inside([1.0], cfg, "b")

    def test_unknown_id_raises(self):
        cfg = configuration([ball("a", [0.0], 1.0)])
        for predicate in (contains, disconnected, containment_slack, overlap_slack):
            with pytest.raises(KeyError):
                predicate(cfg, "a", "zzz")
        with pytest.raises(KeyError):
            point_inside([0.0], cfg, "zzz")


class TestConfigs:
    def test_geometry_config_validation(self):
        GeometryConfig()
        for bad in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GeometryConfig(epsilon=bad)
        for bad in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                GeometryConfig(margin=bad)
        with pytest.raises(ValueError):
            GeometryConfig(leaf_radius=0.0)
        with pytest.raises(ValueError):
            GeometryConfig(code_width=0)

    def test_ball_configuration_validation(self):
        cfg = BallConfiguration(["a.n.01"], [[1.0, 2.0, 3.0]], [0.5], 2)
        assert "a.n.01" in cfg and len(cfg) == 1 and cfg.dim == 3
        assert cfg.row == {"a.n.01": 0} and "zzz" not in cfg
        with pytest.raises(ValueError):
            BallConfiguration([], np.zeros((0, 3)), [], 4)
        with pytest.raises(ValueError):
            BallConfiguration(["a.n.01"], np.zeros((1, 3)), [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            BallConfiguration(["a.n.01"], np.zeros(3), [1.0], 1)

    def test_norms_are_one_norm_per_row(self):
        centers = np.random.default_rng(5).standard_normal((40, 33))
        cfg = BallConfiguration([f"s{i}.n.01" for i in range(40)], centers, np.ones(40), 1)
        assert cfg.norms is cfg.norms  # computed once
        assert cfg.norms.tolist() == [float(np.linalg.norm(c)) for c in centers]

    @pytest.mark.parametrize("row, fault, message", [
        (1, "radius", "b.n.01: radius must be positive and finite, got 0.0"),
        (1, "radius-negative", "b.n.01: radius must be positive and finite, got -1.0"),
        (1, "radius-nan", "b.n.01: radius must be positive and finite, got nan"),
        (1, "radius-inf", "b.n.01: radius must be positive and finite, got inf"),
        (2, "center", "c.n.01: center has non-finite entries"),
        (2, "center-inf", "c.n.01: center has non-finite entries"),
        (3, "duplicate", "duplicate sense id 'a.n.01'"),
    ])
    def test_first_bad_row_is_named(self, row, fault, message):
        ids = ["a.n.01", "b.n.01", "c.n.01", "d.n.01", "e.n.01"]
        centers, radii = np.zeros((5, 2)), np.ones(5)
        radii[4] = -1.0  # a later fault is not the one reported
        bad = {"radius": 0.0, "radius-negative": -1.0, "radius-nan": np.nan,
               "radius-inf": np.inf, "center": np.nan, "center-inf": np.inf}
        if fault.startswith("radius"):
            radii[row] = bad[fault]
        elif fault.startswith("center"):
            centers[row, 1] = bad[fault]
        else:
            ids[row] = "a.n.01"
        with pytest.raises(RowError) as exc:
            BallConfiguration(ids, centers, radii, 1)
        assert exc.value.row == row and str(exc.value) == message


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        balls = {}
        for i in range(20):
            name = f"s{i}.n.{i % 4 + 1:02d}"
            balls[name] = ball(name, rng.standard_normal(7) * 10.0 ** rng.integers(-8, 8),
                               float(10.0 ** rng.uniform(-9, 3)))
        cfg = configuration(balls.values(), prefix=4)
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        back = load_balls(path)
        assert back.dim == 7 and back.embedding_prefix_dim == 4
        assert back.ids == sorted(balls)  # rows in the file's sorted-id order
        for name, (_, center, radius) in balls.items():
            assert back.radii[back.row[name]] == radius
            assert np.array_equal(back.centers[back.row[name]], center)

    def test_save_is_deterministic(self, tmp_path):
        b = ball("a.n.01", [1.0 / 3.0, 2.0 / 7.0], 0.1)
        cfg = configuration([b], prefix=1)
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

    @pytest.mark.parametrize("line, message", [
        ("b.n.01\t1.0\t0 nan", "b.n.01: center has non-finite entries"),
        ("b.n.01\t0\t5 5", "b.n.01: radius must be positive and finite, got 0.0"),
        ("b.n.01\t1.0\t5 5 5", "b.n.01: expected 2 coordinates, got 3"),
        ("b.n.01\t1.0\t5 x", "could not convert string to float: 'x'"),
        ("#dim 3 prefix 1", "second '#dim n prefix p' header"),
    ], ids=["nan", "radius-0", "long-row", "token", "second-header"])
    def test_load_error_names_file_and_line(self, tmp_path, line, message):
        p = tmp_path / "bad.tsv"
        p.write_text(f"#dim 2 prefix 1\na.n.01\t1.0\t0 0\n{line}\nc.n.01\t1.0\t9 9\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:3: {message}"


def chain_taxonomy():
    a = SenseId("top", "n", 1)
    b = SenseId("mid", "n", 1)
    c1 = SenseId("leaf", "n", 1)
    c2 = SenseId("leaf", "n", 2)
    return a, b, c1, c2, Taxonomy({a: None, b: a, c1: b, c2: b})


class TestVerifier:
    def good_balls(self):
        a, b, c1, c2, tax = chain_taxonomy()
        balls = {
            str(a): ball(str(a), [0.0, 0.0], 4.0),
            str(b): ball(str(b), [0.5, 0.0], 3.0),
            str(c1): ball(str(c1), [1.5, 0.0], 1.0),
            str(c2): ball(str(c2), [-1.0, 0.0], 1.0),
        }
        return tax, balls

    def test_good_configuration_passes(self):
        tax, balls = self.good_balls()
        cfg = configuration(balls.values(), prefix=1)
        report = verify_configuration(cfg, tax)
        assert report.ok
        assert report.checked_containment == 3
        assert report.checked_disconnection == 1
        assert "violations:                   0" in report.render()

    def test_containment_violation_detected(self):
        tax, balls = self.good_balls()
        balls["mid.n.01"] = ball("mid.n.01", [0.5, 0.0], 1.2)
        cfg = configuration(balls.values(), prefix=1)
        report = verify_configuration(cfg, tax)
        kinds = {v.kind for v in report.violations}
        assert "containment" in kinds
        assert all(v.slack > 0 for v in report.violations)
        # the reported slack is the value the verdict was decided on
        for v in report.violations:
            want = containment_slack(cfg, v.subject, v.other, 1e-9)
            assert v.slack == want

    def test_disconnection_violation_detected(self):
        tax, balls = self.good_balls()
        balls["leaf.n.02"] = ball("leaf.n.02", [1.0, 0.0], 1.0)
        report = verify_configuration(configuration(balls.values(), prefix=1), tax)
        assert any(v.kind == "disconnection" for v in report.violations)
        assert not report.ok

    def test_missing_parent_ball_reported(self):
        tax, balls = self.good_balls()
        del balls["mid.n.01"]
        report = verify_configuration(configuration(balls.values(), prefix=1), tax)
        assert any(v.kind == "missing" for v in report.violations)

    def test_nodes_without_balls_are_ignored(self):
        a, b, c1, c2, tax = chain_taxonomy()
        balls = {str(a): ball(str(a), [0.0, 0.0], 4.0)}
        cfg = configuration(balls.values(), prefix=1)
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
        cfg = configuration(balls.values(), prefix=1)
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
        cfg = configuration(balls.values(), prefix=1)
        assert verify_configuration(cfg, tax, GeometryConfig(epsilon=1e-9)).ok
        assert not verify_configuration(cfg, tax, GeometryConfig(epsilon=1e-12)).ok


# ---------------------------------------------------------------------------
# the row-block verifier against the scalar slack functions, pair by pair

def pairwise_report(config, taxonomy, eps):
    """(containment checked, disconnection checked, violations) of a loop
    that calls the scalar slack functions once per pair of sense ids."""
    checked_c = checked_d = 0
    found = []
    groups = [(p, taxonomy.children_of(p)) for p in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))
    for parent, group in groups:
        kids = [str(k) for k in group if str(k) in config]
        if parent is not None:
            pid = str(parent)
            for kid in kids:
                if pid not in config:
                    found.append(("missing", pid, kid, math.inf))
                    continue
                checked_c += 1
                slack = containment_slack(config, pid, kid, eps)
                if slack > 0.0:
                    found.append(("containment", pid, kid, slack))
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                checked_d += 1
                slack = overlap_slack(config, a, b, eps)
                if slack > 0.0:
                    found.append(("disconnection", a, b, slack))
    return checked_c, checked_d, found


def with_faults(rng, config, n_faults):
    """A copy of `config` in which some radii are inflated, some centers
    are moved next to another ball's, and some rows are dropped."""
    n = len(config)
    centers, radii = config.centers.copy(), config.radii.copy()
    keep = np.ones(n, dtype=bool)
    for i in rng.choice(n, size=min(n, n_faults), replace=False):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            radii[i] *= rng.uniform(1.5, 50.0)
        elif kind == 1:
            centers[i] = centers[int(rng.integers(0, n))] + 1e-3 * rng.standard_normal(config.dim)
        else:
            keep[i] = False
    rows = np.flatnonzero(keep)
    return BallConfiguration([config.ids[i] for i in rows], centers[rows], radii[rows],
                             config.embedding_prefix_dim)


def assert_same_as_pairwise(config, taxonomy, eps=1e-9):
    report = verify_configuration(config, taxonomy, GeometryConfig(epsilon=eps))
    checked_c, checked_d, want = pairwise_report(config, taxonomy, eps)
    assert (report.checked_containment, report.checked_disconnection) == (checked_c, checked_d)
    assert [(v.kind, v.subject, v.other) for v in report.violations] == [w[:3] for w in want]
    for v, w in zip(report.violations, want):
        assert math.isclose(v.slack, w[3], rel_tol=1e-12)
    return report


class TestBlockVerifier:
    def test_random_forests_with_faults(self):
        rng = np.random.default_rng(40)
        kinds = set()
        for _ in range(15):
            tax = random_taxonomy(rng, int(rng.integers(10, 160)), forest_prob=0.5)
            built = construct_balls(tax, random_table(rng, tax, int(rng.integers(2, 9))))
            assert assert_same_as_pairwise(built, tax).ok
            faulted = with_faults(rng, built, int(rng.integers(1, 12)))
            kinds |= {v.kind for v in assert_same_as_pairwise(faulted, tax).violations}
        assert kinds == {"containment", "disconnection", "missing"}

    def test_400_child_star(self):
        rng = np.random.default_rng(41)
        root = SenseId("hub", "n", 1)
        kids = [SenseId(f"k{i}", "n", 1) for i in range(400)]
        tax = Taxonomy({root: None, **{k: root for k in kids}})
        built = construct_balls(tax, random_table(rng, tax, 12))
        report = assert_same_as_pairwise(built, tax)
        assert report.ok and report.checked_disconnection == 400 * 399 // 2
        # every 50th radius x50, as tools/same_bytes.py faults a ball file
        radii = built.radii.copy()
        radii[::50] *= 50.0
        faulted = BallConfiguration(built.ids, built.centers, radii, built.embedding_prefix_dim)
        assert len(assert_same_as_pairwise(faulted, tax).violations) > 400
        assert_same_as_pairwise(with_faults(rng, built, 40), tax)
