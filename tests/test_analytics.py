import re
from itertools import product

import numpy as np
import pytest

from flowmotif import (
    TeamFingerprint,
    ZScoreProfile,
    enumerate_patterns,
    kmeans,
    pca_project,
    team_fingerprint,
    ward_cluster,
)
from flowmotif.analytics import _lloyd
from helpers import oracle_ess

PATTERNS = enumerate_patterns(3)
DIM = len(PATTERNS)


def fp(team, *values, k=3, matches=1):
    """Fingerprint with the given leading features, zero-padded to the alphabet."""
    features = tuple(float(v) for v in values) + (0.0,) * (DIM - len(values))
    return TeamFingerprint(team, k, features, matches)


def profile(team, z_value, match="m0"):
    return ZScoreProfile(
        match_id=match,
        team_id=team,
        k=3,
        z=np.full(DIM, float(z_value)),
        degenerate=np.zeros(DIM, dtype=bool),
    )


# ---------------------------------------------------------------------------
# team_fingerprint
# ---------------------------------------------------------------------------


def test_fingerprint_of_one_profile_is_that_profile():
    result = team_fingerprint([profile("t", 1.5)])
    assert result.features == (1.5,) * DIM
    assert result.matches_used == 1


def test_fingerprint_averages_z_scores():
    result = team_fingerprint([profile("t", 1.0, "m0"), profile("t", 3.0, "m1")])
    assert result.features == (2.0,) * DIM


def test_fingerprint_of_equal_profiles_is_idempotent():
    profiles = [profile("t", 0.7, f"m{i}") for i in range(38)]
    result = team_fingerprint(profiles)
    assert result.features == pytest.approx((0.7,) * DIM)
    assert result.matches_used == 38


def test_fingerprint_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        team_fingerprint([])
    with pytest.raises(ValueError, match="mixed"):
        team_fingerprint([profile("a", 1.0), profile("b", 1.0)])


@pytest.mark.parametrize(
    "matches,features,message",
    [
        (0, (0.0,) * DIM, "matches_used must be >= 1"),
        (1, (0.0,) * (DIM - 1), "feature dimension 4 does not match the k=3 alphabet"),
        (1, (float("nan"),) + (0.0,) * (DIM - 1), "fingerprint features must be finite"),
    ],
)
def test_fingerprint_checks_its_fields(matches, features, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        TeamFingerprint("t", 3, features, matches)


@pytest.mark.parametrize(
    "fingerprints,message",
    [
        ([], "no fingerprints given"),
        ([fp("a"), TeamFingerprint("b", 2, (0.0,) * 2, 1)], "mixed k: 'b' has k=2, expected 3"),
        ([fp("b"), fp("a"), fp("b", 1.0)], "duplicate team id 'b'"),
    ],
)
def test_every_analysis_checks_the_fingerprints(fingerprints, message):
    for analysis in (lambda f: kmeans(f, 1), ward_cluster, pca_project):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            analysis(fingerprints)


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------


def exhaustive_best_2_partition(values):
    """Global optimum of the K=2 squared-error objective by enumeration."""
    best = None
    for labels in product(range(2), repeat=len(values)):
        if len(set(labels)) < 2:
            continue
        within = 0.0
        for c in (0, 1):
            members = [v for v, g in zip(values, labels) if g == c]
            mean = sum(members) / len(members)
            within += sum((v - mean) ** 2 for v in members)
        if best is None or within < best[0]:
            best = (within, labels)
    return best


def test_kmeans_recovers_exhaustive_optimum():
    values = [0.0, 0.1, 10.0, 10.1]
    teams = [f"t{i}" for i in range(4)]
    result = kmeans([fp(t, v) for t, v in zip(teams, values)], 2, seed=0)
    best_within, best_labels = exhaustive_best_2_partition(values)
    assert result.within_ss == pytest.approx(best_within, abs=1e-9)
    groups = {frozenset(t for t, g in zip(teams, best_labels) if g == c) for c in (0, 1)}
    found = {
        frozenset(t for t, c in result.assignments.items() if c == g)
        for g in set(result.assignments.values())
    }
    assert found == groups
    centroid_firsts = sorted(c[0] for c in result.centroids)
    assert centroid_firsts == pytest.approx([0.05, 10.05], abs=1e-9)


def test_kmeans_k_equals_n_is_perfect():
    fingerprints = [fp(f"t{i}", float(i)) for i in range(5)]
    result = kmeans(fingerprints, 5, seed=1)
    assert result.within_ss == pytest.approx(0.0, abs=1e-12)
    assert result.between_over_total == pytest.approx(1.0, abs=1e-12)
    assert len(set(result.assignments.values())) == 5


def test_kmeans_outlier_becomes_singleton():
    # one far outlier among 20 teams ends up alone in its cluster
    rng = np.random.default_rng(4)
    fingerprints = [
        fp(f"t{i:02d}", *rng.normal(0.0, 0.05, size=DIM)) for i in range(19)
    ]
    fingerprints.append(fp("zoutlier", *([8.0] * DIM)))
    result = kmeans(fingerprints, 4, seed=2)
    outlier_cluster = result.assignments["zoutlier"]
    assert [t for t, c in result.assignments.items() if c == outlier_cluster] == [
        "zoutlier"
    ]


def test_kmeans_ratio_identity():
    rng = np.random.default_rng(7)
    fingerprints = [fp(f"t{i:02d}", *rng.normal(size=DIM)) for i in range(12)]
    for k_clusters in (1, 2, 3, 5, 12):
        result = kmeans(fingerprints, k_clusters, seed=3)
        assert result.between_over_total + result.within_ss / result.total_ss == (
            pytest.approx(1.0, abs=1e-9)
        )


def test_kmeans_converges_to_fixed_point():
    rng = np.random.default_rng(12)
    fingerprints = [fp(f"t{i:02d}", *rng.normal(size=DIM)) for i in range(15)]
    result = kmeans(fingerprints, 3, seed=5)
    centroids = np.array(result.centroids)
    x = np.array([f.features for f in sorted(fingerprints, key=lambda f: f.team_id)])
    assign = np.array([result.assignments[f"t{i:02d}"] for i in range(15)])
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    assert np.all(d2[np.arange(15), assign] <= d2.min(axis=1) + 1e-12)
    for c in range(3):
        members = x[assign == c]
        assert members.shape[0] > 0
        assert np.allclose(members.mean(axis=0), centroids[c], atol=1e-12)


def test_kmeans_identical_fingerprints_have_zero_between():
    fingerprints = [fp(f"t{i}", 1.0, 2.0) for i in range(6)]
    result = kmeans(fingerprints, 2, seed=0)
    assert result.total_ss == 0.0
    assert result.between_over_total == 0.0


def test_kmeans_is_deterministic():
    rng = np.random.default_rng(8)
    fingerprints = [fp(f"t{i:02d}", *rng.normal(size=DIM)) for i in range(10)]
    assert kmeans(fingerprints, 3, seed=9) == kmeans(fingerprints, 3, seed=9)


def test_lloyd_reseeds_an_empty_cluster_with_the_farthest_point():
    # No point is nearest to the center at 100, so Lloyd's step hands that
    # cluster the point farthest from its own center, 10.
    x = np.array([[0.0], [1.0], [10.0]])
    assign, centers, within = _lloyd(x, np.array([[0.5], [100.0]]))
    assert assign.tolist() == [0, 0, 1]
    assert centers.tolist() == [[0.5], [10.0]]
    assert within == 0.5


def test_kmeans_rejects_bad_k():
    fingerprints = [fp("a", 0.0), fp("b", 1.0)]
    with pytest.raises(ValueError):
        kmeans(fingerprints, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(fingerprints, 3, seed=0)


# ---------------------------------------------------------------------------
# ward
# ---------------------------------------------------------------------------


def test_ward_two_singletons_merge_at_half_squared_distance():
    # distance 5 in feature space -> height 25/2
    dendrogram = ward_cluster([fp("a", 0.0, 0.0), fp("b", 3.0, 4.0)])
    assert dendrogram.merge_heights == (pytest.approx(12.5, abs=1e-9),)


def test_ward_three_collinear_points_match_ess_oracle():
    dendrogram = ward_cluster([fp("a", 0.0), fp("b", 1.0), fp("c", 10.0)])
    first, second = dendrogram.merge_heights
    assert first == pytest.approx(0.5, abs=1e-9)
    rows = [[0.0], [1.0], [10.0]]
    expected = oracle_ess(rows) - oracle_ess(rows[:2])  # ESS increase of final merge
    assert second == pytest.approx(expected, abs=1e-9)
    assert second == pytest.approx(180.5 / 3, abs=1e-9)


def test_ward_duplicates_merge_first_at_zero():
    dendrogram = ward_cluster(
        [fp("a", 1.0), fp("b", 1.0), fp("c", 1.0), fp("d", 9.0)]
    )
    assert dendrogram.merge_heights[0] == 0.0
    assert dendrogram.merge_heights[1] == 0.0
    assert dendrogram.merge_heights[2] > 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ward_heights_monotone_and_root_equals_total_ss(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(14, DIM))
    fingerprints = [fp(f"t{i:02d}", *row) for i, row in enumerate(rows)]
    dendrogram = ward_cluster(fingerprints)
    heights = dendrogram.merge_heights
    assert all(a <= b + 1e-9 for a, b in zip(heights, heights[1:]))
    assert sum(heights) == pytest.approx(oracle_ess(rows.tolist()), rel=1e-9)
    assert sorted(dendrogram.root.leaves()) == [f"t{i:02d}" for i in range(14)]


def test_ward_rejects_single_team():
    with pytest.raises(ValueError):
        ward_cluster([fp("a", 1.0)])


def test_ward_is_deterministic():
    rng = np.random.default_rng(3)
    fingerprints = [fp(f"t{i:02d}", *rng.normal(size=DIM)) for i in range(9)]
    assert ward_cluster(fingerprints) == ward_cluster(fingerprints)


# ---------------------------------------------------------------------------
# pca
# ---------------------------------------------------------------------------


def test_pca_rank_one_data_has_full_first_ratio():
    fingerprints = [fp(f"t{i}", float(i), 2.0 * i, -i) for i in range(6)]
    projection = pca_project(fingerprints, 2)
    assert projection.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
    assert projection.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-9)


def test_pca_is_isometric_on_planar_data():
    rng = np.random.default_rng(5)
    rows = np.zeros((8, DIM))
    rows[:, 0] = rng.normal(size=8)
    rows[:, 1] = rng.normal(size=8)
    fingerprints = [fp(f"t{i}", *row) for i, row in enumerate(rows)]
    projection = pca_project(fingerprints, 2)
    coords = {t: np.array(c) for t, c in projection.coordinates.items()}
    for i in range(8):
        for j in range(i + 1, 8):
            original = np.linalg.norm(rows[i] - rows[j])
            projected = np.linalg.norm(coords[f"t{i}"] - coords[f"t{j}"])
            assert projected == pytest.approx(original, rel=1e-9)


def test_pca_reconstruction_error_matches_eigendecomposition():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(12, DIM))
    fingerprints = [fp(f"t{i:02d}", *row) for i, row in enumerate(rows)]
    centered = rows - rows.mean(axis=0)
    eigenvalues = np.linalg.eigh(centered.T @ centered / (12 - 1))[0][::-1]
    for d in (1, 2, 3):
        projection = pca_project(fingerprints, d)
        coords = np.array(
            [projection.coordinates[f"t{i:02d}"] for i in range(12)]
        )
        reconstruction_error = (
            (centered**2).sum() - (coords**2).sum()
        ) / (12 - 1)
        assert reconstruction_error == pytest.approx(eigenvalues[d:].sum(), abs=1e-9)


def test_pca_ratios_sum_to_one_at_full_dimension():
    rng = np.random.default_rng(9)
    fingerprints = [fp(f"t{i:02d}", *rng.normal(size=DIM)) for i in range(10)]
    projection = pca_project(fingerprints, DIM)
    ratios = projection.explained_variance_ratio
    assert sum(ratios) == pytest.approx(1.0, abs=1e-9)
    assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert all(0.0 <= r <= 1.0 for r in ratios)


def test_pca_is_translation_invariant():
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(7, DIM))
    base = [fp(f"t{i}", *row) for i, row in enumerate(rows)]
    shifted = [fp(f"t{i}", *(row + 13.25)) for i, row in enumerate(rows)]
    a = pca_project(base, 2)
    b = pca_project(shifted, 2)
    for team in a.coordinates:
        assert a.coordinates[team] == pytest.approx(b.coordinates[team], abs=1e-9)


def test_pca_sign_convention_largest_loading_positive():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(9, DIM))
    centered = rows - rows.mean(axis=0)
    fingerprints = [fp(f"t{i}", *row) for i, row in enumerate(rows)]
    projection = pca_project(fingerprints, 2)
    coords = np.array([projection.coordinates[f"t{i}"] for i in range(9)])
    # recover the axes from the projection and check their peak loadings
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    for axis in range(2):
        lead = np.abs(vt[axis]).argmax()
        expected = vt[axis] if vt[axis, lead] > 0 else -vt[axis]
        assert centered @ expected == pytest.approx(coords[:, axis], abs=1e-9)


def test_pca_standardize_matches_a_numpy_oracle():
    # Center, divide by the ddof=1 std, take the SVD and turn each axis so its
    # largest loading is positive. A zero-variance feature keeps scale 1, and
    # rescaling a feature leaves the projection as it is.
    rng = np.random.default_rng(12)
    rows = rng.normal(size=(8, DIM)) * np.array([0.1, 1.0, 30.0, 1.0, 4.0])
    rows[:, 3] = 2.5
    std = rows.std(axis=0, ddof=1)
    scaled = (rows - rows.mean(axis=0)) / np.where(std > 0.0, std, 1.0)
    _, s, vt = np.linalg.svd(scaled, full_matrices=False)
    lead = np.abs(vt).argmax(axis=1)
    vt *= np.sign(vt[np.arange(len(vt)), lead])[:, None]
    expected = scaled @ vt[:3].T
    rescaled = rows * np.array([1000.0, 1.0, 0.01, 1.0, 1.0])
    for data in (rows, rescaled):
        projection = pca_project([fp(f"t{i}", *r) for i, r in enumerate(data)], 3, True)
        coords = np.array([projection.coordinates[f"t{i}"] for i in range(8)])
        assert np.isfinite(coords).all()
        assert coords == pytest.approx(expected, abs=1e-9)
        ratios = projection.explained_variance_ratio
        assert ratios == pytest.approx((s[:3] ** 2 / (s**2).sum()).tolist(), abs=1e-12)


def test_pca_rejects_bad_dims_and_too_few_teams():
    fingerprints = [fp(f"t{i}", float(i)) for i in range(4)]
    with pytest.raises(ValueError):
        pca_project(fingerprints, 0)
    with pytest.raises(ValueError):
        pca_project(fingerprints, DIM + 1)
    with pytest.raises(ValueError):
        pca_project([fp("a", 1.0)], 1)
