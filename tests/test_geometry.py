import base64
import math
import tracemalloc

import numpy as np
import pytest

from ballwsd.cli import UsageError, resolve_config
from ballwsd.construct import construct_balls
from ballwsd.geometry import (EPSILON, BallConfiguration, RowError, VerificationReport,
                              Violation, containment_rule, gaps, load_balls, overlap_rule,
                              save_balls, verify_configuration)
from ballwsd.inventory import SenseId, Taxonomy

from helpers import (ball_row, configuration, random_table, random_taxonomy, sense,
                     with_faults)


def ball(name, center, radius):
    """A `(sense_id, center, radius)` row for `configuration`."""
    return (name, np.asarray(center, dtype=float), radius)


def slacks(config, a, b, eps):
    """(containment slack of ball b in ball a, overlap slack of a and b):
    the rules on the rows' `np.linalg.norm` gap, not on `gaps`.  `a` and
    `b` are SenseIds or their text."""
    i, j = config.row[sense(a)], config.row[sense(b)]
    gap = float(np.linalg.norm(config.centers[i] - config.centers[j]))
    ra, rb = float(config.radii[i]), float(config.radii[j])
    return float(containment_rule(gap, ra, rb, eps)), float(overlap_rule(gap, ra, rb, eps))


def contains(config, outer, inner, eps=1e-9):
    return slacks(config, outer, inner, eps)[0] <= 0.0


def disconnected(config, a, b, eps=1e-9):
    return slacks(config, a, b, eps)[1] <= 0.0


class TestGaps:
    def test_equal_linalg_norm_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for dim in range(1, 301):
            for scale in (1e-9, 1e-3, 1.0, 1e3):
                block = scale * rng.standard_normal((4, dim))
                point = scale * rng.standard_normal(dim)
                want = [float(np.linalg.norm(row - point)) for row in block]
                assert gaps(block, point).tolist() == want
                one = gaps(block[1], point)
                assert one.shape == () and float(one) == want[1]


class TestPredicates:
    def test_containment_hand_cases(self):
        cfg = configuration([ball("o.n.01", [0.0, 0.0], 2.0), ball("i.n.01", [0.5, 0.0], 1.0),
                             ball("t.n.01", [1.0, 0.0], 1.0), ball("b.n.01", [1.5, 0.0], 1.0)])
        assert contains(cfg, "o.n.01", "i.n.01")
        assert contains(cfg, "o.n.01", "o.n.01")            # inclusive: itself
        assert contains(cfg, "o.n.01", "t.n.01")            # inclusive: tangent inside
        assert not contains(cfg, "o.n.01", "b.n.01")
        assert not contains(cfg, "i.n.01", "o.n.01")

    def test_disconnection_hand_cases(self):
        cfg = configuration([ball("a.n.01", [0.0, 0.0], 1.0), ball("b.n.01", [3.0, 0.0], 1.0),
                             ball("t.n.01", [2.0, 0.0], 1.0), ball("c.n.01", [1.5, 0.0], 1.0),
                             ball("d.n.01", [0.1, 0.0], 0.5)])
        assert disconnected(cfg, "a.n.01", "b.n.01")
        assert disconnected(cfg, "a.n.01", "t.n.01")        # inclusive: tangent
        assert not disconnected(cfg, "a.n.01", "c.n.01")
        assert not disconnected(cfg, "a.n.01", "d.n.01")

    def test_predicates_against_norm_arithmetic(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            d = int(rng.integers(1, 6))
            a = ball("a.n.01", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            b = ball("b.n.01", rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
            cfg = configuration([a, b])
            gap, ra, rb = float(np.linalg.norm(a[1] - b[1])), a[2], b[2]
            assert contains(cfg, "a.n.01", "b.n.01", 0.0) == (gap + rb <= ra)
            assert disconnected(cfg, "a.n.01", "b.n.01", 0.0) == (gap >= ra + rb)
            # the tolerance is relative to the smaller radius
            assert slacks(cfg, "a.n.01", "b.n.01", 0.25) == (
                gap + rb - ra - 0.25 * min(ra, rb), ra + rb - gap - 0.25 * min(ra, rb))

    def test_containment_transitive(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(500):
            c = ball("c.n.01", rng.standard_normal(3), float(rng.uniform(0.05, 0.3)))
            shift = rng.standard_normal(3)
            shift *= rng.uniform(0, 0.4) / np.linalg.norm(shift)
            b = ball("b.n.01", c[1] + shift, c[2] + float(np.linalg.norm(shift)) + 0.1)
            shift2 = rng.standard_normal(3)
            shift2 *= rng.uniform(0, 0.4) / np.linalg.norm(shift2)
            a = ball("a.n.01", b[1] + shift2, b[2] + float(np.linalg.norm(shift2)) + 0.1)
            cfg = configuration([a, b, c])
            assert contains(cfg, "b.n.01", "c.n.01") and contains(cfg, "a.n.01", "b.n.01")
            assert contains(cfg, "a.n.01", "c.n.01")
            hits += 1
        assert hits == 500


class TestConfigs:
    def test_geometry_config_validation(self):
        # the ball tests' one setting, epsilon, is checked where the
        # configuration is resolved
        assert resolve_config(None, []).epsilon == EPSILON
        for bad in (-1e-9, 1.0, 2.0, float("nan"), float("inf")):
            with pytest.raises(UsageError, match=r"epsilon must lie in \[0, 1\)"):
                resolve_config(None, [f"epsilon={bad}"])

    def test_ball_configuration_validation(self):
        a = SenseId("a", "n", 1)
        cfg = BallConfiguration([a], [[1.0, 2.0, 3.0]], [0.5], 2)
        assert a in cfg and len(cfg) == 1 and cfg.dim == 3
        assert cfg.row == {a: 0} and SenseId("zzz", "n", 1) not in cfg
        assert "a.n.01" not in cfg  # the text of an id is not a key
        with pytest.raises(ValueError):
            BallConfiguration([], np.zeros((0, 3)), [], 4)
        with pytest.raises(ValueError):
            BallConfiguration([a], np.zeros((1, 3)), [1.0, 2.0], 1)
        with pytest.raises(ValueError):
            BallConfiguration([a], np.zeros(3), [1.0], 1)

    def test_norms_are_one_norm_per_row(self):
        # selection takes the norms of only the candidate rows it gathers
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((400, 116)) * 10.0 ** rng.integers(-6, 6, size=(400, 1))
        cfg = BallConfiguration([SenseId(f"s{i}", "n", 1) for i in range(400)], centers, np.ones(400), 1)
        norms = gaps(cfg.centers, 0.0)
        assert norms.tolist() == [float(np.linalg.norm(c)) for c in centers]
        for k in (1, 2, 3, 8, 40, 400):
            for _ in range(20):
                rows = rng.choice(len(centers), size=k, replace=False)
                assert gaps(cfg.centers[rows], 0.0).tolist() == norms[rows].tolist()

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
        ids = [SenseId(lemma, "n", 1) for lemma in "abcde"]
        centers, radii = np.zeros((5, 2)), np.ones(5)
        radii[4] = -1.0  # a later fault is not the one reported
        bad = {"radius": 0.0, "radius-negative": -1.0, "radius-nan": np.nan,
               "radius-inf": np.inf, "center": np.nan, "center-inf": np.inf}
        if fault.startswith("radius"):
            radii[row] = bad[fault]
        elif fault.startswith("center"):
            centers[row, 1] = bad[fault]
        else:
            ids[row] = SenseId("a", "n", 1)
        with pytest.raises(RowError) as exc:
            BallConfiguration(ids, centers, radii, 1)
        assert exc.value.row == row and str(exc.value) == message

    def test_text_id_is_rejected(self):
        # a text key would miss every SenseId lookup, so the verifier
        # would check no pair and report ok
        ids = [SenseId("a", "n", 1), "b.n.01", SenseId("c", "n", 1)]
        with pytest.raises(RowError) as exc:
            BallConfiguration(ids, np.zeros((3, 2)), np.ones(3), 1)
        assert exc.value.row == 1 and str(exc.value) == "row 1: id 'b.n.01' is not a SenseId"


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
        assert [str(sid) for sid in back.ids] == sorted(balls)  # the file's sorted-id order
        for name, (_, center, radius) in balls.items():
            assert back.radii[back.row[sense(name)]] == radius
            assert np.array_equal(back.centers[back.row[sense(name)]], center)

    def test_blank_lines_load_identically(self, tmp_path):
        rng = np.random.default_rng(6)
        cfg = configuration([ball(f"s{i}.n.01", rng.standard_normal(5), float(r))
                             for i, r in enumerate(rng.uniform(0.1, 2.0, size=6))], prefix=2)
        path, copy = tmp_path / "balls.tsv", tmp_path / "copy.tsv"
        save_balls(cfg, path)
        copy.write_text(path.read_text().replace("\n", "\n\n  \n", 3))
        want, back = load_balls(path), load_balls(copy)
        assert back.ids == want.ids and back.embedding_prefix_dim == want.embedding_prefix_dim
        assert np.array_equal(back.centers, want.centers)
        assert np.array_equal(back.radii, want.radii)

    def test_load_holds_one_copy_of_the_centers(self, tmp_path):
        n, dim = 2000, 128
        rng = np.random.default_rng(9)
        cfg = BallConfiguration([SenseId(f"s{i}", "n", 1) for i in range(n)], rng.standard_normal((n, dim)),
                                np.ones(n), 100)
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        tracemalloc.start()
        try:
            back = load_balls(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        centers = back.centers
        assert peak <= 2 * centers.nbytes, peak / centers.nbytes
        assert centers.dtype == np.float64 and centers.flags.c_contiguous
        assert centers.flags.writeable
        assert np.array_equal(centers[[back.row[sid] for sid in cfg.ids]], cfg.centers)

    def test_save_writes_ids_in_text_order(self, tmp_path):
        # tuple order would put a.n.02 before a.b.n.01 and z.n.99 before z.n.100
        names = ["z.n.99", "a.n.02", "z.n.100", "a.b.n.01"]
        cfg = configuration([ball(name, [float(i)], 1.0) for i, name in enumerate(names)])
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        rows = [line.split("\t")[0] for line in path.read_text().splitlines()[1:]]
        assert rows == ["a.b.n.01", "a.n.02", "z.n.100", "z.n.99"]

    def test_ids_parse_as_the_inventory_reads_them(self, tmp_path):
        p = tmp_path / "balls.tsv"
        p.write_text(f"#dim 1 prefix 1\n{ball_row('x.n.1', '1.0', [0.0])}\n"
                     f"{ball_row('y.n.002', '1.0', [5.0])}\n")
        back = load_balls(p)
        assert back.ids == [SenseId("x", "n", 1), SenseId("y", "n", 2)]
        save_balls(back, p)
        assert [line.split("\t")[0] for line in p.read_text().splitlines()[1:]] == [
            "x.n.01", "y.n.02"]

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
        p.write_text(f"#dim 2 prefix 1\n{ball_row('a.n.01', '1.0', [0, 0])}\n"
                     f"{ball_row('a.n.01', '1.0', [1, 1])}\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:3: duplicate sense id 'a.n.01'"

    def test_load_rejects_two_spellings_of_one_id(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text(f"#dim 2 prefix 1\n{ball_row('x.n.1', '1.0', [0, 0])}\n"
                     f"{ball_row('x.n.01', '1.0', [1, 1])}\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:3: duplicate sense id 'x.n.01'"

    def test_load_rejects_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("#dim 2 prefix 1\na.n.01\t1.0\n")
        with pytest.raises(ValueError):
            load_balls(p)

    @pytest.mark.parametrize("line, message", [
        (ball_row("b.n.01", "1.0", [0, math.nan]), "b.n.01: center has non-finite entries"),
        (ball_row("b.n.01", "0", [5, 5]),
         "b.n.01: radius must be positive and finite, got 0.0"),
        (ball_row("b.n.01", "1.0", [5, 5, 5]), "b.n.01: expected 2 coordinates, got 3"),
        (ball_row("b.n.01", "1.0", [5, 5]).replace("A", "!", 1),
         "b.n.01: center is not base64 float64"),
        ("#dim 3 prefix 1", "second '#dim n prefix p' header"),
        ("b.n.01\t1.0\t" + base64.b64encode(bytes(17)).decode("ascii"),
         "b.n.01: expected 2 coordinates, got 17 bytes"),
        (ball_row("w1.n.x", "1.0", [5, 5]), "malformed sense index in 'w1.n.x'"),
        (ball_row("b", "1.0", [5, 5]), "malformed sense id 'b', want lemma.pos.index"),
    ], ids=["nan", "radius-0", "long-row", "token", "second-header", "ragged-bytes",
            "id-index", "id-parts"])
    def test_load_error_names_file_and_line(self, tmp_path, line, message):
        p = tmp_path / "bad.tsv"
        p.write_text(f"#dim 2 prefix 1\n{ball_row('a.n.01', '1.0', [0, 0])}\n{line}\n"
                     f"{ball_row('c.n.01', '1.0', [9, 9])}\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:3: {message}"

    @pytest.mark.parametrize("dim", [-1, 0])
    @pytest.mark.parametrize("with_row", [False, True], ids=["header-only", "with-row"])
    def test_load_rejects_dim_below_one(self, tmp_path, dim, with_row):
        p = tmp_path / "bad.tsv"
        row = "a.n.01\t1.0\t\n" if with_row else ""
        p.write_text(f"#dim {dim} prefix 1\n{row}")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:1: dim must be >= 1, got {dim}"

    @pytest.mark.parametrize("rows, lineno, message", [
        ([ball_row("a.n.01", "1.0", [0, 0]), ball_row("b.n.01", "0.0", [5, 5]),
          ball_row("c.n.01", "1.0", [9, 9]), ball_row("d.n.01", "1.0", [1, 1]).replace("A", "!")],
         3, "b.n.01: radius must be positive and finite, got 0.0"),
        ([ball_row("a.n.01", "1.0", [0, 0]), ball_row("a.n.01", "1.0", [5, 5]),
          ball_row("w1.n.x", "1.0", [9, 9])],
         3, "duplicate sense id 'a.n.01'"),
        ([ball_row("a.n.01", "1.0", [math.nan, 0]), ball_row("b.n.01", "1.0", [5, 5]),
          ball_row("c.n.01", "1.0", [9])],
         2, "a.n.01: center has non-finite entries"),
    ], ids=["radius-before-token", "duplicate-before-id", "nan-before-short"])
    def test_load_names_the_first_bad_line(self, tmp_path, rows, lineno, message):
        # a row the constructor rejects comes before a line the reader rejects
        p = tmp_path / "b.tsv"
        p.write_text("#dim 2 prefix 1\n" + "".join(row + "\n" for row in rows))
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:{lineno}: {message}"

    @pytest.mark.parametrize("head, prefix", [("", 0), ("", 3), ("", -1), ("#note\n", 3)],
                             ids=["zero", "past-dim", "negative", "line-2"])
    def test_load_rejects_prefix_outside_dim(self, tmp_path, head, prefix):
        p = tmp_path / "b.tsv"
        p.write_text(f"{head}#dim 2 prefix {prefix}\n{ball_row('a.n.01', '1.0', [0, 0])}\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        lineno = head.count("\n") + 1
        assert str(exc.value) == f"{p}:{lineno}: prefix must lie in 1..2, got {prefix}"

    def test_load_rejects_file_with_decimal_centers(self, tmp_path):
        # the ball file format before centers were written as base64
        p = tmp_path / "old.tsv"
        p.write_text("#dim 2 prefix 1\na.n.01\t1.0\t0.5 -0.25\nb.n.01\t0.5\t0 1\n")
        with pytest.raises(ValueError) as exc:
            load_balls(p)
        assert str(exc.value) == f"{p}:2: a.n.01: center is not base64 float64"

    def test_load_accepts_crlf(self, tmp_path):
        # text mode reads universal newlines, so no line keeps its "\r"
        cfg = configuration([ball("a.n.01", [0.1, 0.2], 0.5), ball("b.n.01", [3.0, -4.0], 1.5)],
                            prefix=1)
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = load_balls(path)
        assert back.ids == cfg.ids and back.embedding_prefix_dim == 1
        assert np.array_equal(back.centers, cfg.centers)
        assert np.array_equal(back.radii, cfg.radii)

    def test_extreme_values_round_trip_bit_for_bit(self, tmp_path):
        big = 1.7976931348623157e308
        cfg = configuration([ball("a.n.01", [-0.0, 5e-324, big, -big], 5e-324),
                             ball("b.n.01", [0.0, -5e-324, -0.0, 1.0], big)], prefix=2)
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        back = load_balls(path)
        assert np.array_equal(back.centers.view(np.uint64), cfg.centers.view(np.uint64))
        assert np.array_equal(back.radii.view(np.uint64), cfg.radii.view(np.uint64))

    def test_radius_column_reads_with_float(self, tmp_path):
        # readers outside the package take the radius as text
        rng = np.random.default_rng(5)
        radii = 10.0 ** rng.uniform(-12, 3, size=30)
        cfg = configuration([ball(f"s{i:02d}.n.01", rng.standard_normal(3), float(r))
                             for i, r in enumerate(radii)])
        path = tmp_path / "balls.tsv"
        save_balls(cfg, path)
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        got = np.array([float(radius) for _, radius, _ in rows])
        want = np.array([cfg.radii[cfg.row[sense(sid)]] for sid, _, _ in rows])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
            assert v.slack == slacks(cfg, v.subject, v.other, 1e-9)[0]

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

    def test_render_shows_fifty_violations(self):
        a, b = SenseId("a", "n", 1), SenseId("b", "n", 1)
        report = VerificationReport(violations=[Violation("containment", a, b, 1.0)] * 51)
        lines = report.render().splitlines()
        assert lines[2].split() == ["violations:", "51"]
        assert lines[3:53] == ["  containment: a.n.01 / b.n.01 (slack 1.000e+00)"] * 50
        assert lines[53:] == ["  ... 1 more"]

    def test_epsilon_tolerance_applies(self):
        a, b = SenseId("a", "n", 1), SenseId("b", "n", 1)
        tax = Taxonomy({a: None, b: a})
        balls = {
            str(a): ball(str(a), [0.0], 1.0),
            str(b): ball(str(b), [0.0], 1.0 + 5e-10),
        }
        cfg = configuration(balls.values(), prefix=1)
        assert verify_configuration(cfg, tax, epsilon=1e-9).ok
        assert not verify_configuration(cfg, tax, epsilon=1e-12).ok


# ---------------------------------------------------------------------------
# the row-block verifier against the rules on norm gaps, pair by pair

def pairwise_report(config, taxonomy, eps):
    """(containment checked, disconnection checked, violations) of a loop
    that applies the rules to `np.linalg.norm` once per pair of sense ids."""
    checked_c = checked_d = 0
    found = []
    groups = [(p, taxonomy.children_of(p)) for p in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))
    for parent, group in groups:
        kids = [k for k in group if k in config]
        if parent is not None:
            for kid in kids:
                if parent not in config:
                    found.append(("missing", parent, kid, math.inf))
                    continue
                checked_c += 1
                slack = slacks(config, parent, kid, eps)[0]
                if slack > 0.0:
                    found.append(("containment", parent, kid, slack))
        for i, a in enumerate(kids):
            for b in kids[i + 1:]:
                checked_d += 1
                slack = slacks(config, a, b, eps)[1]
                if slack > 0.0:
                    found.append(("disconnection", a, b, slack))
    return checked_c, checked_d, found


def assert_same_as_pairwise(config, taxonomy, eps=1e-9):
    report = verify_configuration(config, taxonomy, epsilon=eps)
    checked_c, checked_d, want = pairwise_report(config, taxonomy, eps)
    assert (report.checked_containment, report.checked_disconnection) == (checked_c, checked_d)
    assert [(v.kind, v.subject, v.other) for v in report.violations] == [w[:3] for w in want]
    for v, w in zip(report.violations, want):
        assert v.slack == w[3]
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
