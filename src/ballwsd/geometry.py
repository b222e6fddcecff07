"""Ball geometry: n-dimensional balls, region predicates, and file round-trip.

A taxonomy is encoded as a family of balls, one per sense, held as the
rows of one `BallConfiguration`.  A hypernym's ball contains the balls of
its hyponyms; co-hyponym balls are disjoint.  The predicates name balls
by sense id in a configuration and take an explicit tolerance so callers
can trade strictness for float noise.  Comparisons are inclusive at the
boundary: a ball contains itself and tangent balls count as disconnected.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .inventory import Taxonomy


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def cos_sim(a, b) -> float:
    """Cosine similarity of two vectors.

    Raises ValueError on dimension mismatch or a zero-norm argument.
    """
    va = as_vector(a)
    vb = as_vector(b, dim=va.shape[0])
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm input")
    return float(np.dot(va, vb) / (na * nb))


@dataclass
class GeometryConfig:
    """Tolerances and construction knobs shared across the pipeline."""

    epsilon: float = 1e-9
    margin: float = 1.25              # must stay > 1 or nesting slack collapses
    leaf_radius: float = 0.1          # against unit prefixes: the only scale knob
    code_width: int = 16

    def __post_init__(self):
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not 1.0 < self.margin < math.inf:
            raise ValueError("margin must be finite and > 1")
        if not (0.0 < self.leaf_radius < 1.0):
            raise ValueError("leaf_radius must lie in (0, 1)")
        if self.code_width < 1:
            raise ValueError("code_width must be >= 1")


def containment_rule(gap, r_outer, r_inner, epsilon: float):
    """The containment test on a center distance: gap + r_in - r_out - eps.
    Arrays broadcast, so the verifier checks a sibling group with it too."""
    return gap + r_inner - r_outer - epsilon


def overlap_rule(gap, r_a, r_b, epsilon: float):
    """The disconnection test on a center distance: r_a + r_b - gap - eps.
    Arrays broadcast."""
    return r_a + r_b - gap - epsilon


def containment_slack(config: BallConfiguration, outer: str, inner: str,
                      epsilon: float = GeometryConfig.epsilon) -> float:
    """How far ball `inner` sticks out of ball `outer` past the tolerance
    (`containment_rule`).  Positive means not contained."""
    o, i = config.row[outer], config.row[inner]
    gap = float(np.linalg.norm(config.centers[i] - config.centers[o]))
    return containment_rule(gap, float(config.radii[o]), float(config.radii[i]), epsilon)


def overlap_slack(config: BallConfiguration, a: str, b: str,
                  epsilon: float = GeometryConfig.epsilon) -> float:
    """How deep balls `a` and `b` overlap past the tolerance
    (`overlap_rule`).  Positive means they share interior."""
    i, j = config.row[a], config.row[b]
    gap = float(np.linalg.norm(config.centers[i] - config.centers[j]))
    return overlap_rule(gap, float(config.radii[i]), float(config.radii[j]), epsilon)


def contains(config: BallConfiguration, outer: str, inner: str,
             epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff ball `inner` lies inside ball `outer`, within the tolerance."""
    return containment_slack(config, outer, inner, epsilon) <= 0.0


def disconnected(config: BallConfiguration, a: str, b: str,
                 epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff balls `a` and `b` share no interior, within the tolerance."""
    return overlap_slack(config, a, b, epsilon) <= 0.0


def point_inside(v, config: BallConfiguration, sense_id: str,
                 epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff point v lies in the ball of `sense_id`: a ball of radius 0
    at v is contained in it (`containment_rule`)."""
    i = config.row[sense_id]
    gap = float(np.linalg.norm(as_vector(v, dim=config.dim) - config.centers[i]))
    return containment_rule(gap, float(config.radii[i]), 0.0, epsilon) <= 0.0


class RowError(ValueError):
    """A configuration row that fails validation; `row` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class BallConfiguration:
    """All balls of one taxonomy, as rows: sense `ids[i]` has center
    `centers[i]` (an N x dim float64 matrix) and radius `radii[i]`, and
    `row` maps each id to its row.

    The first `embedding_prefix_dim` components of each center are a
    positive multiple of the static word embedding the ball was built from.
    Rows are validated once, here; a ball exists only as its row.
    """

    ids: list[str]
    centers: np.ndarray
    radii: np.ndarray
    embedding_prefix_dim: int
    row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.ids = list(self.ids)
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.radii = np.asarray(self.radii, dtype=np.float64)
        n = len(self.ids)
        if self.centers.ndim != 2 or self.centers.shape[0] != n or self.radii.shape != (n,):
            raise ValueError(f"{n} ids need {n} center rows and {n} radii, "
                             f"got shapes {self.centers.shape} and {self.radii.shape}")
        if not (0 < self.embedding_prefix_dim <= self.dim):
            raise ValueError("need 0 < embedding_prefix_dim <= dim")
        self.row = {}
        for i, sid in enumerate(self.ids):
            self.row.setdefault(sid, i)
        duplicate = np.array([self.row[sid] != i for i, sid in enumerate(self.ids)], dtype=bool)
        bad_center = ~np.isfinite(self.centers).all(axis=1)
        bad_radius = ~(np.isfinite(self.radii) & (self.radii > 0.0))
        bad = duplicate | bad_center | bad_radius
        if bad.any():
            i = int(np.argmax(bad))
            sid = self.ids[i]
            if duplicate[i]:
                raise RowError(i, f"duplicate sense id {sid!r}")
            if bad_center[i]:
                raise RowError(i, f"{sid}: center has non-finite entries")
            raise RowError(i, f"{sid}: radius must be positive and finite, "
                              f"got {float(self.radii[i])}")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, sense_id: str) -> bool:
        return sense_id in self.row

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """|center| of each row, computed on first use.  One 1-d
        `np.linalg.norm` per row, as `cos_sim` takes it: `axis=1` can
        differ in the last bit."""
        return np.array([np.linalg.norm(c) for c in self.centers])


# ---------------------------------------------------------------------------
# serialization
#
# Line format: sense_id <TAB> radius <TAB> c1 c2 ... cn
# Header:      #dim n prefix p
# %.17g guarantees float64 round-trips to the identical bit pattern.

_FMT = "%.17g"
_HEADER = "'#dim n prefix p' header"


def save_balls(config: BallConfiguration, path) -> None:
    """Write one line per ball, in sorted-id order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {config.dim} prefix {config.embedding_prefix_dim}\n")
        for sid in sorted(config.ids):
            i = config.row[sid]
            coords = " ".join(_FMT % c for c in config.centers[i].tolist())
            fh.write(f"{sid}\t{_FMT % config.radii[i]}\t{coords}\n")


def load_balls(path) -> BallConfiguration:
    """Read a ball file.  A malformed row, a row before the header or a
    second header raises one ValueError that starts `path:lineno:`."""
    dim = prefix = None
    ids, radii, rows, linenos = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 4 and parts[0] == "dim" and parts[2] == "prefix":
                        if dim is not None:
                            raise ValueError(f"second {_HEADER}")
                        dim, prefix = int(parts[1]), int(parts[3])
                    continue
                if dim is None:
                    raise ValueError(f"ball row before the {_HEADER}")
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
                sid, radius_s, coords_s = fields
                center = np.array(coords_s.split(), dtype=np.float64)
                if center.shape[0] != dim:
                    raise ValueError(f"{sid}: expected {dim} coordinates, got {center.shape[0]}")
                radius = float(radius_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            ids.append(sid)
            radii.append(radius)
            rows.append(center)
            linenos.append(lineno)
    if dim is None:
        raise ValueError(f"{path}: missing {_HEADER}")
    try:
        return BallConfiguration(ids, np.array(rows).reshape(len(rows), dim), radii, prefix)
    except RowError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# verification

class Violation(NamedTuple):
    kind: str        # "containment" | "disconnection" | "dimension" | "missing"
    subject: str
    other: str
    slack: float     # how far past the tolerance the pair lies (positive = bad)

    def render(self) -> str:
        return f"{self.kind}: {self.subject} / {self.other} (slack {self.slack:.3e})"


@dataclass
class VerificationReport:
    checked_containment: int = 0
    checked_disconnection: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"containment pairs checked:    {self.checked_containment}",
            f"disconnection pairs checked:  {self.checked_disconnection}",
            f"violations:                   {len(self.violations)}",
        ]
        lines.extend("  " + v.render() for v in self.violations[:50])
        if len(self.violations) > 50:
            lines.append(f"  ... {len(self.violations) - 50} more")
        return "\n".join(lines)


def _gaps(block: np.ndarray, point: np.ndarray) -> np.ndarray:
    """|row - point| for each row of `block`.  The batched 1 x d by d x 1
    products take, row by row, the dot product `np.linalg.norm` takes on
    one vector, so each gap equals the scalar slack functions' gap (bit for
    bit where numpy sends both to the same BLAS dot; tests allow 1e-12)."""
    d = block - point
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def verify_configuration(
    config: BallConfiguration,
    taxonomy: "Taxonomy",
    cfg: GeometryConfig | None = None,
) -> VerificationReport:
    """Check every parent-child pair for containment and every co-hyponym
    pair (including co-roots) for disconnection.

    Only taxonomy nodes that have a ball participate; a child with a ball
    whose parent lacks one is reported as "missing" since its nesting
    cannot be verified.  Each sibling group's rows are gathered once:
    containment is one block against the parent's row, disconnection one
    row against the rest of the group after it, so violations come out
    in the order of the pairwise loop.
    """
    cfg = cfg or GeometryConfig()
    eps = cfg.epsilon
    report = VerificationReport()
    found = report.violations
    ids, row, centers, radii = config.ids, config.row, config.centers, config.radii

    groups = [(parent, taxonomy.children_of(parent)) for parent in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))  # co-roots: no covering ball, still disjoint
    for parent, group in groups:
        rows = [r for r in map(row.get, map(str, group)) if r is not None]
        if not rows:
            continue
        kids, block, kid_radii = [ids[r] for r in rows], centers[rows], radii[rows]
        if parent is not None:
            pid = str(parent)
            p = row.get(pid)
            if p is None:
                found.extend(Violation("missing", pid, kid, math.inf) for kid in kids)
            else:
                report.checked_containment += len(rows)
                slack = containment_rule(_gaps(block, centers[p]), radii[p], kid_radii, eps)
                found.extend(Violation("containment", pid, kids[j], float(slack[j]))
                             for j in np.flatnonzero(slack > 0.0))
        for i in range(len(rows) - 1):
            slack = overlap_rule(_gaps(block[i + 1:], block[i]), kid_radii[i],
                                 kid_radii[i + 1:], eps)
            found.extend(Violation("disconnection", kids[i], kids[i + 1 + j], float(slack[j]))
                         for j in np.flatnonzero(slack > 0.0))
        report.checked_disconnection += len(rows) * (len(rows) - 1) // 2
    return report
