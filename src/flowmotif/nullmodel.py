"""Randomized pass-network null models and per-match motif z-scores.

Every policy keeps the possession count and every possession length and
changes only who holds the ball in each touch slot, with no touch
repeating the holder before it:

- ``touch_shuffle_match`` (default) permutes the team-match's touch
  slots at random, then repairs adjacent repeats by swapping the
  offending slot with a random other slot, resampling the permutation
  when ``max_repair_attempts`` sweeps do not suffice. It keeps the
  per-player touch multiset of the match. The repair is biased: it does
  not draw the valid arrangements uniformly.
- ``touch_shuffle_possession`` draws each possession uniformly from the
  valid arrangements of its own touch multiset, exactly. Rejection
  rounds permute a possession for all rows of a batch at once and keep
  the permutations with no adjacent repeat; rows still waiting after
  ``POSSESSION_ROUNDS`` rounds are drawn from exact counts of valid
  arrangements. A possession's observed arrangement is valid, so the
  sampler always terminates.
- ``uniform_walk`` makes each possession a walk on the match's players:
  the first holder is uniform, and every pass goes to a uniformly chosen
  other player. It is exact by construction.

Each team-match draws all its replicates from one random stream, seeded
from (master_seed, match_id, team_id), in batches of ``BATCH_ROWS``
rows. Distributions are therefore reproducible bit-for-bit whatever the
parallelism, and the two teams of a fixture draw different streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .events import PassEvent
from .motifs import MotifCountVector, MotifPattern, enumerate_patterns
from .possessions import Possession, touch_sequence
from .seeding import derive_seed

POLICIES = ("touch_shuffle_match", "touch_shuffle_possession", "uniform_walk")

DEFAULT_REPLICATES = 1000
DEFAULT_MAX_REPAIR_ATTEMPTS = 100

# Replicates randomized and counted together as the rows of one array.
BATCH_ROWS = 64
# Rejection rounds of the possession shuffle before the stragglers are
# drawn from completion counts.
POSSESSION_ROUNDS = 64

# Bound for |z| when the null distribution has zero variance but the real
# count still deviates from it; keeps downstream feature vectors finite.
Z_CAP = 10.0


class DegenerateInputError(ValueError):
    """Input that cannot be randomized under the requested policy."""


@dataclass(frozen=True, slots=True)
class NullModelConfig:
    """How ``null_distribution`` randomizes a team-match.

    ``max_repair_attempts`` bounds the repair sweeps and the resamples of
    ``touch_shuffle_match`` only; the other two policies never repair.
    """

    replicates: int = DEFAULT_REPLICATES
    policy: str = "touch_shuffle_match"
    master_seed: int = 0
    max_repair_attempts: int = DEFAULT_MAX_REPAIR_ATTEMPTS

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")
        if self.max_repair_attempts < 1:
            raise ValueError("max_repair_attempts must be >= 1")


@dataclass(frozen=True, slots=True)
class NullDistribution:
    """Per-pattern sample moments of motif counts over the replicates.

    ``std`` is Bessel-corrected; with a single replicate it is undefined
    and reported as 0 with ``degenerate`` set.
    """

    k: int
    mean: dict[MotifPattern, float]
    std: dict[MotifPattern, float]
    replicates: int
    degenerate: bool


@dataclass(frozen=True, slots=True)
class ZScoreProfile:
    """Standardized motif prevalence of one team in one match.

    ``degenerate`` lists the patterns whose z-score came from a
    zero-variance or single-replicate null rather than the plain formula.
    """

    match_id: str
    team_id: str
    k: int
    z: dict[MotifPattern, float]
    degenerate: frozenset[MotifPattern] = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# Match layout: possessions flattened into arrays for fast shuffling/counting
# ---------------------------------------------------------------------------


class _MatchLayout:
    """Touch slots of one match as integer-coded numpy arrays.

    ``adjacency`` holds every slot index i such that i+1 belongs to the
    same possession; the no-adjacent-repeat constraint applies exactly at
    those positions.
    """

    def __init__(self, possessions: Sequence[Possession]) -> None:
        if possessions:
            self.match_id = possessions[0].match_id
            self.team_id = possessions[0].team_id
        else:
            self.match_id = ""
            self.team_id = ""
        codes: dict[str, int] = {}
        touch_codes: list[int] = []
        lengths: list[int] = []
        for pos in possessions:
            if pos.match_id != self.match_id or pos.team_id != self.team_id:
                raise ValueError(
                    f"possession ({pos.match_id!r}, {pos.team_id!r}) mixed into "
                    f"({self.match_id!r}, {self.team_id!r})"
                )
            seq = touch_sequence(pos)
            lengths.append(len(seq))
            for who in seq:
                code = codes.get(who)
                if code is None:
                    code = len(codes)
                    codes[who] = code
                touch_codes.append(code)
        self.possessions = tuple(possessions)
        self.players = tuple(codes)
        self.touches = np.asarray(touch_codes, dtype=np.int64)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.starts = np.concatenate(([0], np.cumsum(self.lengths)))[:-1]
        in_run = np.ones(self.touches.size, dtype=bool)
        if self.touches.size:
            in_run[self.starts + self.lengths - 1] = False
        self.adjacency = np.flatnonzero(in_run)
        # Valid-arrangement counts of the possession shuffle, kept across batches.
        self.arrangements: dict[bytes, int] = {}

    def window_starts(self, k: int) -> np.ndarray:
        """Global start index of every (k+1)-touch window, per possession."""
        chunks = [
            start + np.arange(length - k)
            for start, length in zip(self.starts.tolist(), self.lengths.tolist())
            if length > k
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def rebuild(self, touches: np.ndarray) -> list[Possession]:
        """Possessions with the given touch assignment and original timestamps."""
        out = []
        for pos, start, length in zip(
            self.possessions, self.starts.tolist(), self.lengths.tolist()
        ):
            names = [self.players[c] for c in touches[start : start + length].tolist()]
            passes = tuple(
                PassEvent(pos.match_id, pos.team_id, names[j], names[j + 1], p.timestamp)
                for j, p in enumerate(pos.passes)
            )
            out.append(Possession(pos.match_id, pos.team_id, passes))
        return out


class _PatternIndex:
    """Vectorized window canonicalization for a fixed k.

    Packs each window's restricted-growth code into a single integer and
    maps it to its position in ``enumerate_patterns(k)``.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.patterns = enumerate_patterns(k)
        base = k + 1
        self._weights = base ** np.arange(k + 1, dtype=np.int64)
        keys = np.array(
            [
                sum((ord(c) - ord("A")) * int(w) for c, w in zip(p, self._weights))
                for p in self.patterns
            ],
            dtype=np.int64,
        )
        self._order = np.argsort(keys)
        self._sorted_keys = keys[self._order]

    def window_counts(self, touches: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        """Occurrence count of every alphabet pattern over the windows."""
        return self.window_counts_batch(touches[None, :], window_starts)[0]

    def window_counts_batch(
        self, touch_rows: np.ndarray, window_starts: np.ndarray
    ) -> np.ndarray:
        """Per-row pattern counts for a stack of touch assignments.

        Counting involves no randomness, so batching replicates here is
        purely an amortization of numpy call overhead; row r's counts are
        exactly ``window_counts(touch_rows[r], window_starts)``.
        """
        n_patterns = len(self.patterns)
        n_rows = touch_rows.shape[0]
        if window_starts.size == 0:
            return np.zeros((n_rows, n_patterns), dtype=np.int64)
        k = self.k
        w = touch_rows[:, window_starts[:, None] + np.arange(k + 1)]
        w = w.reshape(-1, k + 1)
        flat = np.arange(w.shape[0])
        codes = np.zeros_like(w)
        high = np.zeros(w.shape[0], dtype=w.dtype)  # highest code used per window
        for j in range(1, k + 1):
            prev_eq = w[:, :j] == w[:, j : j + 1]
            seen = prev_eq.any(axis=1)
            prior = codes[flat, prev_eq.argmax(axis=1)]
            col = np.where(seen, prior, high + 1)
            codes[:, j] = col
            np.maximum(high, col, out=high)
        packed = codes @ self._weights
        idx = self._order[np.searchsorted(self._sorted_keys, packed)]
        idx += np.repeat(np.arange(n_rows, dtype=np.int64), window_starts.size) * n_patterns
        counts = np.bincount(idx, minlength=n_rows * n_patterns)
        return counts.reshape(n_rows, n_patterns)


# ---------------------------------------------------------------------------
# Shuffle policies
# ---------------------------------------------------------------------------


def _repair_adjacent(
    arr: np.ndarray,
    adjacency: np.ndarray,
    rng: np.random.Generator,
    max_attempts: int,
) -> bool:
    """Swap duplicate-adjacent slots with uniformly random other slots.

    Each sweep rechecks all adjacency positions and swaps every slot still
    offending; returns False once the sweep budget is exhausted so the
    caller can resample the whole permutation.
    """
    size = arr.size
    succ = adjacency + 1
    for _ in range(max_attempts):
        bad = adjacency[arr[adjacency] == arr[succ]]
        if bad.size == 0:
            return True
        partners = rng.integers(0, size - 1, size=bad.size)
        for i, j in zip(bad.tolist(), partners.tolist()):
            if arr[i] != arr[i + 1]:
                continue  # fixed by an earlier swap in this sweep
            slot = i + 1
            if j >= slot:
                j += 1
            arr[slot], arr[j] = arr[j], arr[slot]
    return False


def _match_rows(
    layout: _MatchLayout, rng: np.random.Generator, n_rows: int, max_attempts: int
) -> np.ndarray:
    """Shuffled and repaired rows; a row is reshuffled when its repair runs out of sweeps."""
    out = np.empty((n_rows, layout.touches.size), dtype=layout.touches.dtype)
    for row in out:
        for _ in range(max_attempts):
            row[:] = layout.touches
            rng.shuffle(row)
            if _repair_adjacent(row, layout.adjacency, rng, max_attempts):
                break
        else:
            raise DegenerateInputError(
                f"match {layout.match_id!r}: repair budget exhausted while removing "
                "adjacent repeats"
            )
    return out


def _possession_rows(
    layout: _MatchLayout, rng: np.random.Generator, n_rows: int
) -> np.ndarray:
    """Rows whose possessions are independent uniform valid arrangements.

    A uniform permutation of a possession's touches that has no adjacent
    repeat is uniform over the valid arrangements. So each round permutes
    the possession once per row, all rows at once, and hands the valid
    permutations in order to the rows still waiting for one. Rows still
    waiting after ``POSSESSION_ROUNDS`` rounds are drawn by
    ``_counted_arrangement``. A possession's rounds all have the same
    array shapes: pooling the waiting rows of every possession into one
    draw was as fast, but its ever-changing small arrays stay cached by
    numpy and grew the process's memory by several percent.
    """
    out = np.empty((n_rows, layout.touches.size), dtype=layout.touches.dtype)
    for start, length in zip(layout.starts.tolist(), layout.lengths.tolist()):
        touches = layout.touches[start : start + length]
        block = out[:, start : start + length]
        filled = 0
        for _ in range(POSSESSION_ROUNDS):
            drawn = touches[np.argsort(rng.random((n_rows, length)), axis=1)]
            valid = np.flatnonzero((drawn[:, 1:] != drawn[:, :-1]).all(axis=1))
            valid = valid[: n_rows - filled]
            block[filled : filled + valid.size] = drawn[valid]
            filled += valid.size
            if filled == n_rows:
                break
        for row in range(filled, n_rows):
            block[row] = _counted_arrangement(touches, rng, layout.arrangements)
    return out


def _others(counts: list[int], holder: int) -> tuple[int, ...]:
    """Sorted nonzero counts of every player but ``holder``."""
    return tuple(sorted(c for i, c in enumerate(counts) if c and i != holder))


def _arrangements(counts: tuple[int, ...], memo: dict[bytes, int]) -> int:
    """Arrangements with no adjacent repeat of touches with these player counts.

    ``counts`` is sorted and holds no zeros; players with equal counts are
    interchangeable, so the number depends on nothing else. ``memo`` is
    keyed by the counts as bytes, so a player may hold at most 255 touches
    of a possession. The recursion is twice as deep as the touches.
    """
    key = bytes(counts)
    n = memo.get(key)
    if n is None:
        n = 0 if counts else 1
        for i, c in enumerate(counts):
            if i and counts[i - 1] == c:
                continue  # starts with a player of the same count: same number
            n += counts.count(c) * _after(counts[:i] + counts[i + 1 :], c - 1, memo)
        memo[key] = n
    return n


def _after(others: tuple[int, ...], held: int, memo: dict[bytes, int]) -> int:
    """Valid arrangements that do not start with the last holder.

    The last holder has ``held`` touches left and the other players
    ``others``. The arrangements that do start with the last holder number
    ``_after(others, held - 1)``, so the count alternates over the
    arrangements with ``held``, ``held - 1``, ... 0 touches of theirs.
    """
    n = 0
    for h in range(held + 1):
        n = _arrangements(tuple(sorted(others + (h,))) if h else others, memo) - n
    return n


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n), exact for any size of ``n``."""
    bits = n.bit_length()
    size = (bits + 7) // 8
    while True:
        x = int.from_bytes(rng.bytes(size), "little") >> (8 * size - bits)
        if x < n:
            return x


def _counted_arrangement(
    touches: np.ndarray, rng: np.random.Generator, memo: dict[bytes, int]
) -> np.ndarray:
    """One uniform valid arrangement of a possession's touches.

    Draws a uniform rank among all valid arrangements and decodes it touch
    by touch: each candidate holder takes as many ranks as there are valid
    arrangements of the rest that do not start with them, so every holder
    is drawn with exactly that weight.
    """
    players, counts = np.unique(touches, return_counts=True)
    counts = counts.tolist()
    out = np.empty_like(touches)
    last = -1
    rank = _randbelow(rng, _arrangements(_others(counts, last), memo))
    for t in range(touches.size):
        for j, c in enumerate(counts):
            if j == last or c == 0:
                continue
            n = _after(_others(counts, j), c - 1, memo)
            if rank < n:
                break
            rank -= n
        counts[j] -= 1
        out[t] = players[j]
        last = j
    return out


def _walk_rows(layout: _MatchLayout, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Per-possession walks: a uniform first holder, then uniform steps to another player.

    A step of 1..n-1 places modulo n reaches every other player equally
    often, so each possession is a cumulative sum of steps modulo n.
    """
    n_players = len(layout.players)
    steps = rng.integers(1, n_players, size=(n_rows, layout.touches.size))
    steps[:, layout.starts] = rng.integers(0, n_players, size=(n_rows, layout.starts.size))
    walk = np.cumsum(steps, axis=1)
    before = np.zeros((n_rows, layout.starts.size), dtype=walk.dtype)
    before[:, 1:] = walk[:, layout.starts[1:] - 1]
    walk -= np.repeat(before, layout.lengths, axis=1)
    return walk % n_players


def _draw_rows(
    layout: _MatchLayout,
    policy: str,
    rng: np.random.Generator,
    n_rows: int,
    max_repair_attempts: int,
) -> np.ndarray:
    """``n_rows`` independent replicates of the layout's touches, one per row."""
    if layout.touches.size == 0:
        return np.empty((n_rows, 0), dtype=layout.touches.dtype)
    if policy == "touch_shuffle_match":
        return _match_rows(layout, rng, n_rows, max_repair_attempts)
    if policy == "touch_shuffle_possession":
        return _possession_rows(layout, rng, n_rows)
    return _walk_rows(layout, rng, n_rows)


def _moments(
    total: np.ndarray, total_sq: np.ndarray, reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and Bessel-corrected std of counts from their sums over ``reps`` replicates.

    The numerator ``reps*total_sq - total*total`` is formed in Python
    integers, since in int64 it wraps once replicates x count passes about
    3e9. With one replicate the std is undefined and returned as 0.
    """
    mean = total / reps
    if reps < 2:
        return mean, np.zeros_like(mean)
    numerator = np.array(
        [reps * sq - s * s for s, sq in zip(total.tolist(), total_sq.tolist())],
        dtype=np.float64,
    )
    var = numerator / (reps * (reps - 1))
    return mean, np.sqrt(np.maximum(var, 0.0))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def randomize_possessions(
    possessions: Sequence[Possession],
    policy: str = "touch_shuffle_match",
    seed: int = 0,
    max_repair_attempts: int = DEFAULT_MAX_REPAIR_ATTEMPTS,
) -> list[Possession]:
    """One randomized replicate of a match's possessions.

    The output has the same possession count, the same lengths, and the
    original timestamps; only who occupies each touch slot changes.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    layout = _MatchLayout(possessions)
    rng = np.random.default_rng(seed)
    return layout.rebuild(_draw_rows(layout, policy, rng, 1, max_repair_attempts)[0])


def null_distribution(
    possessions: Sequence[Possession],
    k: int,
    config: NullModelConfig,
) -> NullDistribution:
    """Motif-count moments over ``config.replicates`` randomized replicates.

    All replicates come from one random stream seeded from (master seed,
    match id, team id). Counts are accumulated as exact integers before
    the moments are taken, so the result is independent of any execution
    order.
    """
    layout = _MatchLayout(possessions)
    pidx = _PatternIndex(k)
    window_starts = layout.window_starts(k)
    n = len(pidx.patterns)
    total = np.zeros(n, dtype=np.int64)
    total_sq = np.zeros(n, dtype=np.int64)
    reps = config.replicates
    rng = np.random.default_rng(
        derive_seed(config.master_seed, layout.match_id, layout.team_id)
    )
    for done in range(0, reps, BATCH_ROWS):
        rows = _draw_rows(
            layout, config.policy, rng, min(BATCH_ROWS, reps - done), config.max_repair_attempts
        )
        counts = pidx.window_counts_batch(rows, window_starts)
        total += counts.sum(axis=0)
        total_sq += (counts * counts).sum(axis=0)
    mean, std = _moments(total, total_sq, reps)
    return NullDistribution(
        k=k,
        mean=dict(zip(pidx.patterns, mean.tolist())),
        std=dict(zip(pidx.patterns, std.tolist())),
        replicates=reps,
        degenerate=reps < 2,
    )


def z_scores(real: MotifCountVector, null: NullDistribution) -> ZScoreProfile:
    """Standard scores of the real counts against the null distribution.

    Zero-variance patterns get z=0 when the real count matches the null
    mean and a sign-capped z=±Z_CAP (flagged) when it does not.
    """
    if real.k != null.k:
        raise ValueError(f"k mismatch: counts have k={real.k}, null has k={null.k}")
    z: dict[MotifPattern, float] = {}
    flagged = set()
    for pattern in enumerate_patterns(real.k):
        count = real.counts[pattern]
        mean = null.mean[pattern]
        std = null.std[pattern]
        if std > 0.0:
            z[pattern] = (count - mean) / std
        elif count == mean:
            z[pattern] = 0.0
        else:
            z[pattern] = Z_CAP if count > mean else -Z_CAP
            flagged.add(pattern)
        if null.degenerate:
            flagged.add(pattern)
    return ZScoreProfile(
        match_id=real.match_id,
        team_id=real.team_id,
        k=real.k,
        z=z,
        degenerate=frozenset(flagged),
    )
