"""Ball geometry: n-dimensional balls, region predicates, and file round-trip.

A taxonomy is encoded as a family of balls, one per sense.  A hypernym's
ball contains the balls of its hyponyms; co-hyponym balls are disjoint.
All predicates take an explicit tolerance so callers can trade strictness
for float noise.  Comparisons are inclusive at the boundary: a ball
contains itself and tangent balls count as disconnected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .inventory import Taxonomy


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float64 array, optionally checking length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
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


@dataclass(frozen=True)
class Ball:
    """A sense ball: center vector plus radius."""

    sense_id: str
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_vector(self.center))
        r = float(self.radius)
        if not math.isfinite(r) or r <= 0.0:
            raise ValueError(f"{self.sense_id}: radius must be positive and finite, got {r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


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


def _dimension_error(a: Ball, b: Ball) -> ValueError:
    return ValueError(f"dimension mismatch: {a.sense_id} is {a.dim}-d, {b.sense_id} is {b.dim}-d")


def containment_slack(outer: Ball, inner: Ball, epsilon: float = GeometryConfig.epsilon) -> float:
    """How far `inner` sticks out of `outer` past the tolerance:
    |c_in - c_out| + r_in - r_out - eps.  Positive means not contained."""
    if outer.dim != inner.dim:
        raise _dimension_error(outer, inner)
    gap = float(np.linalg.norm(inner.center - outer.center))
    return gap + inner.radius - outer.radius - epsilon


def overlap_slack(a: Ball, b: Ball, epsilon: float = GeometryConfig.epsilon) -> float:
    """How deep the balls overlap past the tolerance:
    r_a + r_b - |c_a - c_b| - eps.  Positive means they share interior."""
    if a.dim != b.dim:
        raise _dimension_error(a, b)
    gap = float(np.linalg.norm(a.center - b.center))
    return a.radius + b.radius - gap - epsilon


def contains(outer: Ball, inner: Ball, epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff `inner` lies inside `outer`, within the tolerance."""
    return containment_slack(outer, inner, epsilon) <= 0.0


def disconnected(a: Ball, b: Ball, epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff the balls share no interior, within the tolerance."""
    return overlap_slack(a, b, epsilon) <= 0.0


def point_inside(v, ball: Ball, epsilon: float = GeometryConfig.epsilon) -> bool:
    """True iff point v lies in the ball: |v - c| <= r + eps."""
    p = as_vector(v, dim=ball.dim)
    return float(np.linalg.norm(p - ball.center)) <= ball.radius + epsilon


@dataclass
class BallConfiguration:
    """All balls of one taxonomy plus the layout of their center vectors.

    Centers are `dim`-dimensional; the first `embedding_prefix_dim`
    components of each center are a positive multiple of the static word
    embedding the ball was built from.
    """

    dim: int
    embedding_prefix_dim: int
    balls: dict[str, Ball] = field(default_factory=dict)

    def __post_init__(self):
        if not (0 < self.embedding_prefix_dim <= self.dim):
            raise ValueError("need 0 < embedding_prefix_dim <= dim")
        for sid, ball in self.balls.items():
            if ball.dim != self.dim:
                raise ValueError(f"{sid}: ball dimension {ball.dim} != configuration dim {self.dim}")

    def __len__(self) -> int:
        return len(self.balls)

    def __contains__(self, sense_id: str) -> bool:
        return sense_id in self.balls

    def get(self, sense_id: str) -> Ball | None:
        return self.balls.get(sense_id)


# ---------------------------------------------------------------------------
# serialization
#
# Line format: sense_id <TAB> radius <TAB> c1 c2 ... cn
# Header:      #dim n prefix p
# %.17g guarantees float64 round-trips to the identical bit pattern.

_FMT = "%.17g"


def save_balls(config: BallConfiguration, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {config.dim} prefix {config.embedding_prefix_dim}\n")
        for sid in sorted(config.balls):
            ball = config.balls[sid]
            coords = " ".join(_FMT % c for c in ball.center)
            fh.write(f"{sid}\t{_FMT % ball.radius}\t{coords}\n")


def load_balls(path) -> BallConfiguration:
    dim = prefix = None
    balls: dict[str, Ball] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 4 and parts[0] == "dim" and parts[2] == "prefix":
                    dim, prefix = int(parts[1]), int(parts[3])
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            sid, radius_s, coords_s = fields
            if sid in balls:
                raise ValueError(f"{path}:{lineno}: duplicate sense id {sid!r}")
            center = np.array([float(t) for t in coords_s.split()], dtype=np.float64)
            balls[sid] = Ball(sid, center, float(radius_s))
    if dim is None or prefix is None:
        raise ValueError(f"{path}: missing '#dim n prefix p' header")
    return BallConfiguration(dim=dim, embedding_prefix_dim=prefix, balls=balls)


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


def verify_configuration(
    config: BallConfiguration,
    taxonomy: "Taxonomy",
    cfg: GeometryConfig | None = None,
) -> VerificationReport:
    """Check every parent-child pair for containment and every co-hyponym
    pair (including co-roots) for disconnection.

    Only taxonomy nodes that have a ball participate; a child with a ball
    whose parent lacks one is reported as "missing" since its nesting
    cannot be verified.
    """
    cfg = cfg or GeometryConfig()
    eps = cfg.epsilon
    report = VerificationReport()
    balls = config.balls

    groups = [(parent, taxonomy.children_of(parent)) for parent in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))  # co-roots: no covering ball, still disjoint
    for parent, group in groups:
        # (id, ball) of each child that has one, looked up once per group
        kids = [(k, balls[k]) for k in map(str, group) if k in balls]
        if parent is not None:
            pid = str(parent)
            pb = balls.get(pid)
            for kid, kb in kids:
                if pb is None:
                    report.violations.append(Violation("missing", pid, kid, math.inf))
                    continue
                report.checked_containment += 1
                slack = containment_slack(pb, kb, eps)
                if slack > 0.0:
                    report.violations.append(Violation("containment", pid, kid, slack))
        for i, (a, ab) in enumerate(kids):
            for b, bb in kids[i + 1:]:
                report.checked_disconnection += 1
                slack = overlap_slack(ab, bb, eps)
                if slack > 0.0:
                    report.violations.append(Violation("disconnection", a, b, slack))
    return report
