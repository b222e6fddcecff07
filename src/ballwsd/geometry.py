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
    leaf_radius: float = 0.1
    code_width: int = 16
    prefix_weight: float = 1.0

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.margin <= 1.0:
            raise ValueError("margin must be > 1")
        if not (0.0 < self.leaf_radius < 1.0):
            raise ValueError("leaf_radius must lie in (0, 1)")
        if self.code_width < 1:
            raise ValueError("code_width must be >= 1")
        if self.prefix_weight <= 0.0:
            raise ValueError("prefix_weight must be positive")


def contains(outer: Ball, inner: Ball, epsilon: float = 1e-9) -> bool:
    """True iff `inner` lies inside `outer`: |c_in - c_out| + r_in <= r_out + eps."""
    if outer.dim != inner.dim:
        raise ValueError(
            f"dimension mismatch: {outer.sense_id} is {outer.dim}-d, "
            f"{inner.sense_id} is {inner.dim}-d"
        )
    gap = float(np.linalg.norm(inner.center - outer.center))
    return gap + inner.radius <= outer.radius + epsilon


def disconnected(a: Ball, b: Ball, epsilon: float = 1e-9) -> bool:
    """True iff the balls share no interior: |c_a - c_b| >= r_a + r_b - eps."""
    if a.dim != b.dim:
        raise ValueError(
            f"dimension mismatch: {a.sense_id} is {a.dim}-d, {b.sense_id} is {b.dim}-d"
        )
    gap = float(np.linalg.norm(a.center - b.center))
    return gap >= a.radius + b.radius - epsilon


def point_inside(v, ball: Ball, epsilon: float = 1e-9) -> bool:
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

    def ball_of(node) -> Ball | None:
        return balls.get(str(node))

    groups = [(parent, taxonomy.children_of(parent)) for parent in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))  # co-roots: no covering ball, still disjoint
    for parent, group in groups:
        kids = [k for k in group if ball_of(k) is not None]
        if parent is not None:
            pb = ball_of(parent)
            for kid in kids:
                kb = ball_of(kid)
                if pb is None:
                    report.violations.append(Violation("missing", str(parent), str(kid), math.inf))
                    continue
                report.checked_containment += 1
                if not contains(pb, kb, eps):
                    gap = float(np.linalg.norm(kb.center - pb.center)) + kb.radius - pb.radius
                    report.violations.append(Violation("containment", str(parent), str(kid), gap - eps))
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                a, b = ball_of(kids[i]), ball_of(kids[j])
                report.checked_disconnection += 1
                if not disconnected(a, b, eps):
                    overlap = a.radius + b.radius - float(np.linalg.norm(a.center - b.center))
                    report.violations.append(
                        Violation("disconnection", str(kids[i]), str(kids[j]), overlap - eps)
                    )
    return report
