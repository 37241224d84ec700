"""Team style analytics: fingerprints, k-means, Ward clustering, PCA.

A team's fingerprint is its per-pattern mean z-score across the season's
matches. The three analyses are deterministic given seeds: k-means uses
k-means++ with ``RESTARTS`` restarts and lowest-restart tie-breaks,
Ward merges break ties on the lexicographically smallest team-id pair,
and PCA axes are sign-fixed so the largest-magnitude loading is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .motifs import pattern_index
from .nullmodel import ZScoreProfile
from .seeding import derive_seed

# k-means keeps the best of RESTARTS k-means++ starts, each refined by at
# most MAX_ITER Lloyd iterations.
RESTARTS = 10
MAX_ITER = 300

# Ward merge heights are the increase in total within-cluster sum of
# squares, not its square root; output schemas carry this tag.
HEIGHT_CONVENTION = "ess_increase"


@dataclass(frozen=True, slots=True)
class TeamFingerprint:
    """Per-team mean z-score vector, indexed by the motif alphabet for k."""

    team_id: str
    k: int
    features: tuple[float, ...]
    matches_used: int

    def __post_init__(self) -> None:
        if self.matches_used < 1:
            raise ValueError("matches_used must be >= 1")
        if len(self.features) != len(pattern_index(self.k).patterns):
            raise ValueError(
                f"feature dimension {len(self.features)} does not match the "
                f"k={self.k} alphabet"
            )
        if not all(isfinite(v) for v in self.features):
            raise ValueError("fingerprint features must be finite")


@dataclass(frozen=True, slots=True)
class ClusterAssignment:
    assignments: dict[str, int]
    centroids: tuple[tuple[float, ...], ...]
    within_ss: float
    total_ss: float
    within_over_total: float
    between_over_total: float


@dataclass(frozen=True, slots=True)
class DendrogramNode:
    """Binary merge node; leaves carry a team id and height 0."""

    height: float
    size: int
    team_id: str | None = None
    left: "DendrogramNode | None" = None
    right: "DendrogramNode | None" = None

    def leaves(self) -> list[str]:
        if self.team_id is not None:
            return [self.team_id]
        assert self.left is not None and self.right is not None
        return self.left.leaves() + self.right.leaves()

    def to_dict(self) -> dict:
        if self.team_id is not None:
            return {"team_id": self.team_id}
        assert self.left is not None and self.right is not None
        return {
            "height": self.height,
            "size": self.size,
            "children": [self.left.to_dict(), self.right.to_dict()],
        }


@dataclass(frozen=True, slots=True)
class Dendrogram:
    root: DendrogramNode
    merge_heights: tuple[float, ...]

    def to_dict(self) -> dict:
        return {"height_convention": HEIGHT_CONVENTION, "tree": self.root.to_dict()}


@dataclass(frozen=True, slots=True)
class PcaProjection:
    coordinates: dict[str, tuple[float, ...]]
    explained_variance_ratio: tuple[float, ...]


def team_fingerprint(profiles: Sequence[ZScoreProfile]) -> TeamFingerprint:
    """Arithmetic mean of one team's per-match z-scores, pattern by pattern."""
    if not profiles:
        raise ValueError("at least one z-score profile is required")
    team_id, k = profiles[0].team_id, profiles[0].k
    sums = np.zeros(len(profiles[0].z))
    for prof in profiles:  # added in profile order, so the float sums are reproducible
        if prof.team_id != team_id or prof.k != k:
            raise ValueError(
                f"profile ({prof.team_id!r}, k={prof.k}) mixed into "
                f"({team_id!r}, k={k})"
            )
        sums += prof.z
    n = len(profiles)
    return TeamFingerprint(
        team_id=team_id,
        k=k,
        features=tuple((sums / n).tolist()),
        matches_used=n,
    )


def _feature_matrix(fingerprints: Iterable[TeamFingerprint]) -> tuple[list[str], np.ndarray]:
    """Teams sorted by id plus their stacked feature rows."""
    fps = sorted(fingerprints, key=lambda f: f.team_id)
    if not fps:
        raise ValueError("no fingerprints given")
    k = fps[0].k
    teams = []
    for fp in fps:
        if fp.k != k:
            raise ValueError(f"mixed k: {fp.team_id!r} has k={fp.k}, expected {k}")
        if fp.team_id in teams:
            raise ValueError(f"duplicate team id {fp.team_id!r}")
        teams.append(fp.team_id)
    return teams, np.array([fp.features for fp in fps], dtype=float)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------


def _kmeans_pp_init(x: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((n_clusters, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, n_clusters):
        total = float(d2.sum())
        if total > 0.0:
            i = int(np.searchsorted(np.cumsum(d2), rng.random() * total, side="right"))
            i = min(i, n - 1)
        else:
            i = int(rng.integers(n))  # all remaining points coincide with a center
        centers[c] = x[i]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    n, n_clusters = x.shape[0], centers.shape[0]
    assign = np.full(n, -1)
    for _ in range(MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_assign = d2.argmin(axis=1)  # ties: lowest cluster index
        own = d2[np.arange(n), new_assign].copy()
        for c in range(n_clusters):
            if (new_assign == c).any():
                continue
            far = int(own.argmax())  # re-seed empty cluster with the farthest point
            if own[far] <= 0.0:
                continue  # every point sits on a centroid; cluster stays empty
            new_assign[far] = c
            own[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n_clusters):
            members = x[assign == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    within = float(((x - centers[assign]) ** 2).sum())
    return assign, centers, within


def _relabel_by_first_use(assign: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Cosmetic canonical labels: cluster 0 is the first team's cluster, etc.
    # order[new] is the old label, so argsort(order) maps old labels to new.
    order = list(dict.fromkeys([*assign.tolist(), *range(centers.shape[0])]))
    return np.argsort(order)[assign], centers[order]


def kmeans(
    fingerprints: Iterable[TeamFingerprint], n_clusters: int, seed: int = 0
) -> ClusterAssignment:
    """Lloyd's algorithm with k-means++ init, best of ``RESTARTS`` runs.

    The run with the lowest within-cluster sum of squares wins; ties go to
    the lowest restart index, so results depend only on (inputs, seed).
    """
    teams, x = _feature_matrix(fingerprints)
    n = len(teams)
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}], got {n_clusters}")
    rngs = (np.random.default_rng(derive_seed(seed, "kmeans", r)) for r in range(RESTARTS))
    runs = [_lloyd(x, _kmeans_pp_init(x, n_clusters, rng)) for rng in rngs]
    assign, centers, within_ss = min(runs, key=lambda run: run[2])  # first of equal runs wins
    assign, centers = _relabel_by_first_use(assign, centers)
    total_ss = float(((x - x.mean(axis=0)) ** 2).sum())
    within_over_total = within_ss / total_ss if total_ss > 0.0 else 1.0
    return ClusterAssignment(
        assignments={team: int(a) for team, a in zip(teams, assign)},
        centroids=tuple(tuple(row) for row in centers.tolist()),
        within_ss=within_ss,
        total_ss=total_ss,
        within_over_total=within_over_total,
        between_over_total=1.0 - within_over_total,
    )


# ---------------------------------------------------------------------------
# Ward hierarchical clustering
# ---------------------------------------------------------------------------


def ward_cluster(fingerprints: Iterable[TeamFingerprint]) -> Dendrogram:
    """Agglomerative merging by minimum increase in within-cluster ESS.

    Singleton costs start at squared-distance/2; merged costs follow the
    Lance-Williams update with Ward coefficients. Ties pick the pair whose
    sorted (team_id, team_id) key is lexicographically smallest.
    """
    teams, x = _feature_matrix(fingerprints)
    if len(teams) < 2:
        raise ValueError("ward clustering needs at least 2 teams")

    # Each cluster is keyed by the index of its smallest team id. Teams are
    # sorted, so a cost key (a, b) has a < b and is its own tie-break.
    n = len(teams)
    nodes = {i: DendrogramNode(height=0.0, size=1, team_id=t) for i, t in enumerate(teams)}
    cost = {
        (i, j): float(((x[i] - x[j]) ** 2).sum()) / 2.0 for i in range(n) for j in range(i + 1, n)
    }
    heights: list[float] = []
    while len(nodes) > 1:
        a, b = min(cost, key=lambda pair: (cost[pair], pair))
        d_ab = cost.pop((a, b))
        heights.append(d_ab)
        left, right = nodes.pop(a), nodes.pop(b)
        n_a, n_b = left.size, right.size
        for c, node in nodes.items():
            ac, bc = (min(a, c), max(a, c)), (min(b, c), max(b, c))
            n_c = node.size
            cost[ac] = (
                (n_a + n_c) * cost[ac] + (n_b + n_c) * cost.pop(bc) - n_c * d_ab
            ) / (n_a + n_b + n_c)
        nodes[a] = DendrogramNode(height=d_ab, size=n_a + n_b, left=left, right=right)

    (root,) = nodes.values()
    return Dendrogram(root=root, merge_heights=tuple(heights))


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def pca_project(
    fingerprints: Iterable[TeamFingerprint],
    n_components: int = 2,
    standardize: bool = False,
) -> PcaProjection:
    """Project fingerprints onto the top principal axes of the SVD.

    Features are mean-centered but not rescaled by default: they are
    already z-scores on a common scale. ``standardize`` divides by the
    per-feature sample standard deviation for sensitivity analysis.
    """
    teams, x = _feature_matrix(fingerprints)
    n, p = x.shape
    if n < 2:
        raise ValueError("pca needs at least 2 teams")
    if not 1 <= n_components <= p:
        raise ValueError(f"n_components must be in [1, {p}], got {n_components}")
    centered = x - x.mean(axis=0)
    if standardize:
        scale = centered.std(axis=0, ddof=1)
        scale[scale == 0.0] = 1.0
        centered = centered / scale
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    flip = vt[np.arange(vt.shape[0]), np.abs(vt).argmax(axis=1)] < 0.0
    u[:, flip] = -u[:, flip]
    avail = min(n_components, s.size)
    coords = np.zeros((n, n_components))
    coords[:, :avail] = u[:, :avail] * s[:avail]
    total = float((s**2).sum())
    ratios = np.zeros(n_components)
    if total > 0.0:
        ratios[:avail] = s[:avail] ** 2 / total
    return PcaProjection(
        coordinates={team: tuple(row) for team, row in zip(teams, coords.tolist())},
        explained_variance_ratio=tuple(ratios.tolist()),
    )
