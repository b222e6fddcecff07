"""Ball geometry: n-dimensional balls, the two ball tests, and file round-trip.

A taxonomy is encoded as a family of balls, one per sense, held as the
rows of one `BallConfiguration`.  A hypernym's ball contains the balls of
its hyponyms; co-hyponym balls are disjoint.  `gaps` is the only
centre-distance code, and `containment_rule` and `overlap_rule` are the
only ball tests: the verifier and deduction queries apply them to rows,
with a tolerance relative to the smaller ball.  Comparisons are inclusive
at the boundary: a ball contains itself and tangent balls count as
disconnected.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .inventory import SenseId, Taxonomy


# the ball tests' default tolerance, relative to the smaller ball's radius
EPSILON = 1e-9


def gaps(block, point) -> np.ndarray:
    """|row - point| for each row of `block`; a 1-d block is one row and
    gives a 0-d array.  The batched 1 x d by d x 1 products take, row by
    row, the dot product `np.linalg.norm` takes on one vector, so each gap
    equals `np.linalg.norm(row - point)` bit for bit.  This is the only
    centre-distance code."""
    d = np.asarray(block) - point
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])


def containment_rule(gap, r_outer, r_inner, epsilon: float):
    """The containment test on a center distance:
    gap + r_in - r_out - eps * min(r_out, r_in), so the tolerance scales
    with the smaller ball.  Arrays broadcast, so the verifier checks a
    sibling group with it too."""
    return gap + r_inner - r_outer - epsilon * np.minimum(r_outer, r_inner)


def overlap_rule(gap, r_a, r_b, epsilon: float):
    """The disconnection test on a center distance:
    r_a + r_b - gap - eps * min(r_a, r_b).  Arrays broadcast."""
    return r_a + r_b - gap - epsilon * np.minimum(r_a, r_b)


class RowError(ValueError):
    """A configuration row that fails validation; `row` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(eq=False)
class BallConfiguration:
    """All balls of one taxonomy, as rows: sense `ids[i]` (a `SenseId`,
    the taxonomy's key) has center `centers[i]` (an N x dim float64
    matrix) and radius `radii[i]`, and `row` maps each id to its row.

    The first `embedding_prefix_dim` components of each center are a
    positive multiple of the static word embedding the ball was built from.
    Rows are validated once, here; a ball exists only as its row.
    """

    ids: list[SenseId]
    centers: np.ndarray
    radii: np.ndarray
    embedding_prefix_dim: int
    row: dict[SenseId, int] = field(init=False, repr=False)

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
            if not isinstance(sid, SenseId):
                raise RowError(i, f"row {i}: id {sid!r} is not a SenseId")
            self.row.setdefault(sid, i)
        duplicate = np.array([self.row[sid] != i for i, sid in enumerate(self.ids)], dtype=bool)
        bad_center = ~np.isfinite(self.centers).all(axis=1)
        bad_radius = ~(np.isfinite(self.radii) & (self.radii > 0.0))
        bad = duplicate | bad_center | bad_radius
        if bad.any():
            i = int(np.argmax(bad))
            sid = self.ids[i]
            if duplicate[i]:
                raise RowError(i, f"duplicate sense id '{sid}'")
            if bad_center[i]:
                raise RowError(i, f"{sid}: center has non-finite entries")
            raise RowError(i, f"{sid}: radius must be positive and finite, "
                              f"got {float(self.radii[i])}")

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, sense_id: SenseId) -> bool:
        return sense_id in self.row


# ---------------------------------------------------------------------------
# serialization
#
# Line format: sense_id <TAB> radius <TAB> base64 of the center's "<f8" bytes
# Header:      #dim n prefix p
# The center bytes round-trip bit for bit, as checkpoint arrays do
# (`encoder.save_encoder`); %.17g gives the radius the same guarantee in text.

_FMT = "%.17g"
_HEADER = "'#dim n prefix p' header"


def save_balls(config: BallConfiguration, path) -> None:
    """Write one line per ball, in the sorted text order of the ids."""
    order = [config.row[sid] for sid in sorted(config.ids, key=str)]
    centers = np.ascontiguousarray(config.centers[order], dtype="<f8")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {config.dim} prefix {config.embedding_prefix_dim}\n")
        for i, center in zip(order, centers):
            fh.write(f"{config.ids[i]}\t{_FMT % config.radii[i]}\t"
                     f"{base64.b64encode(center.tobytes()).decode('ascii')}\n")


def load_balls(path) -> BallConfiguration:
    """Read a ball file; ids parse with `SenseId.parse`.  A malformed row
    or id, a repeated id, a row before the header, a header with dim < 1
    or a prefix outside 1..dim, or a second header raises one ValueError
    that starts `path:lineno:` and names the first bad line."""
    dim = prefix = None
    ids, radii, linenos = [], [], []
    buf = bytearray()  # the centers' bytes, one row after another
    bad = None  # the first malformed line; the rows above it are checked first
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
                        n, p = int(parts[1]), int(parts[3])
                        if n < 1:
                            raise ValueError(f"dim must be >= 1, got {n}")
                        if not 0 < p <= n:
                            raise ValueError(f"prefix must lie in 1..{n}, got {p}")
                        dim, prefix = n, p
                    continue
                if dim is None:
                    raise ValueError(f"ball row before the {_HEADER}")
                fields = line.split("\t")
                if len(fields) != 3:
                    raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
                sid, radius_s, center_s = SenseId.parse(fields[0]), fields[1], fields[2]
                try:
                    center = base64.b64decode(center_s, validate=True)
                except ValueError:
                    raise ValueError(f"{sid}: center is not base64 float64") from None
                if len(center) != 8 * dim:
                    got = len(center) // 8 if len(center) % 8 == 0 else f"{len(center)} bytes"
                    raise ValueError(f"{sid}: expected {dim} coordinates, got {got}")
                radius = float(radius_s)
            except ValueError as exc:
                bad = f"{path}:{lineno}: {exc}"
                break
            ids.append(sid)
            radii.append(radius)
            buf += center
            linenos.append(lineno)
    if dim is None:
        raise ValueError(bad or f"{path}: missing {_HEADER}")
    centers = np.frombuffer(buf, dtype="<f8").reshape(len(ids), dim)
    try:
        config = BallConfiguration(ids, centers, radii, prefix)
    except RowError as exc:
        raise ValueError(f"{path}:{linenos[exc.row]}: {exc}") from None
    if bad:
        raise ValueError(bad)
    return config


# ---------------------------------------------------------------------------
# verification

class Violation(NamedTuple):
    kind: str        # "containment" | "disconnection" | "missing"
    subject: SenseId
    other: SenseId
    slack: float     # how far past the tolerance the pair lies (positive = bad)

    def render(self) -> str:
        return f"{self.kind}: {self.subject} / {self.other} (slack {self.slack:.3e})"


@dataclass
class VerificationReport:
    checked_containment: int = 0
    checked_disconnection: int = 0
    violations: list[Violation] = field(default_factory=list)
    within_rounding: int = 0  # violations whose slack is within float64 rounding of their centres

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            f"containment pairs checked:    {self.checked_containment}",
            f"disconnection pairs checked:  {self.checked_disconnection}",
            f"violations:                   {len(self.violations)}",
        ]
        if self.within_rounding:
            lines.append(f"within float64 rounding:      {self.within_rounding} of them, "
                         "past the depth limit (README, Geometry notes)")
        lines.extend("  " + v.render() for v in self.violations[:50])
        if len(self.violations) > 50:
            lines.append(f"  ... {len(self.violations) - 50} more")
        return "\n".join(lines)


def verify_configuration(config: BallConfiguration, taxonomy: Taxonomy,
                         epsilon: float = EPSILON) -> VerificationReport:
    """Check every parent-child pair for containment and every co-hyponym
    pair (including co-roots) for disconnection.

    Only taxonomy nodes that have a ball participate; a child with a ball
    whose parent lacks one is reported as "missing" since its nesting
    cannot be verified.  Each sibling group's rows are gathered once:
    containment is one block against the parent's row, disconnection one
    row against the rest of the group after it, so violations come out
    in the order of the pairwise loop.
    """
    report = VerificationReport()
    found = report.violations
    ids, row, centers, radii = config.ids, config.row, config.centers, config.radii

    groups = [(parent, taxonomy.children_of(parent)) for parent in taxonomy.nodes()]
    groups.append((None, taxonomy.roots()))  # co-roots: no covering ball, still disjoint
    for parent, group in groups:
        rows = [r for r in map(row.get, group) if r is not None]
        if not rows:
            continue
        kids, block, kid_radii = [ids[r] for r in rows], centers[rows], radii[rows]
        if parent is not None:
            p = row.get(parent)
            if p is None:
                found.extend(Violation("missing", parent, kid, math.inf) for kid in kids)
            else:
                report.checked_containment += len(rows)
                slack = containment_rule(gaps(block, centers[p]), radii[p], kid_radii, epsilon)
                found.extend(Violation("containment", parent, kids[j], float(slack[j]))
                             for j in np.flatnonzero(slack > 0.0))
        for i in range(len(rows) - 1):
            slack = overlap_rule(gaps(block[i + 1:], block[i]), kid_radii[i],
                                 kid_radii[i + 1:], epsilon)
            found.extend(Violation("disconnection", kids[i], kids[i + 1 + j], float(slack[j]))
                         for j in np.flatnonzero(slack > 0.0))
        report.checked_disconnection += len(rows) * (len(rows) - 1) // 2
    if found:
        # a miss no larger than the centres' own rounding is the depth limit, not a packing fault
        norms = gaps(centers, 0.0)
        report.within_rounding = sum(
            v.kind != "missing"
            and bool(v.slack <= np.spacing(max(norms[row[v.subject]], norms[row[v.other]])))
            for v in found)
    return report
