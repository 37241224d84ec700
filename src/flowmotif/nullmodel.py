"""Randomized pass-network null models and per-match motif z-scores.

Every policy keeps the possession count and every possession length and
changes only who holds the ball in each touch slot, with no touch
repeating the holder before it:

- ``touch_shuffle_match`` (default) permutes the team-match's touch
  slots at random, then repairs adjacent repeats by swapping the
  offending slot with a random other slot, resampling the permutation
  when ``MAX_REPAIR_ATTEMPTS`` sweeps do not suffice. The rows of a batch
  are shuffled and repaired together, each with the law of a row repaired
  on its own. It keeps the per-player touch multiset of the match. The
  repair is biased: it does not draw the valid arrangements uniformly.
- ``touch_shuffle_possession`` draws each possession uniformly from the
  valid arrangements of its own touch multiset.
- ``uniform_walk`` makes each possession a walk on the match's players:
  the first holder is uniform, and every pass goes to a uniformly chosen
  other player.

The last two policies randomize every possession on its own, so
``null_distribution`` adds up exact per-possession moments for them
instead of drawing replicates. A walk window's pattern law is the same at
every position, and windows that share no touch are independent, so a
possession's walk moments follow from its window count and the joint
pattern law of two windows at most k apart, counted once per (players,
k) from the pattern alphabet. Under the possession shuffle, a
possession's moments depend only on its signature, its sorted player
counts, and one counting DP over touch positions gives them exactly, once
per (signature, k), for every signature whose DP fits a budget of
``STATE_VALUES`` values: all of at most ``EXACT_TOUCHES[k]`` touches, and
longer ones with few arrangements. Every possession the shuffle draws, the
ones past the budget in ``null_distribution`` and all of them in
``randomize_possessions``, takes rejection rounds, which keep the uniform
permutations with no adjacent repeat, and rows still waiting after
``POSSESSION_ROUNDS`` rounds are drawn from exact counts of valid
arrangements. The budget reads the same counts, and like the moments they
are kept for the process. A possession's observed arrangement is valid, so
the sampler always terminates. The sample variance of the sampled
possessions adds to the exact one.

Each team-match draws its sampled rows from one random stream, seeded
from (master_seed, match_id, team_id), in batches of ``BATCH_ROWS``
rows, and counts each batch in one call. Distributions are therefore
reproducible bit-for-bit whatever the parallelism, and the two teams of a
fixture draw different streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, factorial, perm, prod
from typing import Sequence

import numpy as np

from .events import PassRuns, PassTable
from .motifs import MotifCountVector, TouchCodes, pattern_index
from .possessions import Possession, possession_runs
from .seeding import derive_seed

POLICIES = ("touch_shuffle_match", "touch_shuffle_possession", "uniform_walk")

DEFAULT_REPLICATES = 1000

# Repair sweeps, and resamples of the rows they leave dirty, of the match
# shuffle before it gives up on a team-match.
MAX_REPAIR_ATTEMPTS = 100

# Replicates randomized together as the rows of one array. Wider batches
# make fewer numpy calls per replicate; 512 rows and more grew peak RSS.
BATCH_ROWS = 256
# Rejection rounds of the possession shuffle before the stragglers are
# drawn from completion counts.
POSSESSION_ROUNDS = 64
# Most values the counting DP may hold for one signature, 8 MiB; past them
# a possession is sampled.
STATE_VALUES = 2**20
# Touches of the longest possession whose exact moments need no count of
# its arrangements, by k (entry k): over every signature of at most this
# many touches the DP holds at most STATE_VALUES values; one more touch
# would pass that.
EXACT_TOUCHES = (0, 34, 26, 20, 14, 10, 8, 6, 5)
# Touches left at which the DP's states are kept for every signature.
SHARED_TOUCHES = 12

# Bound for |z| when the null distribution has zero variance but the real
# count still deviates from it; keeps downstream feature vectors finite.
Z_CAP = 10.0


class DegenerateInputError(ValueError):
    """Input that cannot be randomized under the requested policy."""


@dataclass(frozen=True, slots=True)
class NullModelConfig:
    """How ``null_distribution`` randomizes a team-match.

    ``policy`` is one of ``POLICIES``. The repair sweeps and resamples of
    ``touch_shuffle_match`` are bounded by the module constant
    ``MAX_REPAIR_ATTEMPTS``; the other two policies never repair.
    """

    replicates: int = DEFAULT_REPLICATES
    policy: str = "touch_shuffle_match"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}, expected one of {POLICIES}")


@dataclass(frozen=True, slots=True)
class NullDistribution:
    """Per-pattern null moments of a team-match's motif counts.

    ``mean`` and ``std`` are float arrays aligned with
    ``enumerate_patterns(k)``. They add the exact moments of the possessions
    that need no sampling to the sample moments, Bessel-corrected, of the
    ``sampled_possessions`` others over ``replicates`` rows: every
    possession is sampled under the match shuffle, none under the walk.
    With a single replicate ``std`` is reported as 0 with ``degenerate``
    set, whatever the policy.
    """

    k: int
    mean: np.ndarray
    std: np.ndarray
    replicates: int
    degenerate: bool
    sampled_possessions: int = 0


@dataclass(frozen=True, slots=True)
class ZScoreProfile:
    """Standardized motif prevalence of one team in one match.

    ``z`` is a float array and ``degenerate`` a bool array, both aligned
    with ``enumerate_patterns(k)``. ``degenerate`` marks the patterns whose
    z-score came from a zero-variance or single-replicate null rather than
    the plain formula.
    """

    match_id: str
    team_id: str
    k: int
    z: np.ndarray
    degenerate: np.ndarray


# ---------------------------------------------------------------------------
# Shuffle policies
# ---------------------------------------------------------------------------


def _match_rows(codes: TouchCodes, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Shuffled and repaired rows, all rows of the batch together.

    Each row is a uniform permutation of the touches. ``in_run`` marks the
    slots whose next slot is in the same possession: all but the slot
    before each possession's start, where the first start's is the row's
    last slot. A repair sweep finds, in every row, the slots that repeat
    the holder before them and swaps each, in slot order, with a uniform
    other slot of its row, unless an earlier swap of the sweep fixed it.
    ``slots[c]`` holds every row's c-th offending slot as an index into
    ``flat``, so each c swaps on all rows at once, and ``steps`` the
    distance to its partner, taken only while the slot still repeats. A row
    with fewer offending slots points at the spare last cell, whose -1 is
    no player's code, so nothing moves. A row still dirty after
    ``MAX_REPAIR_ATTEMPTS`` sweeps is reshuffled; the rows start together
    and a clean row stays clean, so such rows are all due at once.
    """
    touches = codes.touches
    size = touches.size
    cells = n_rows * size
    flat = np.full(cells + 1, -1, dtype=touches.dtype)
    out = flat[:-1].reshape(n_rows, size)
    out[:] = touches
    rng.permuted(out, axis=1, out=out)
    in_run = np.ones((n_rows, size), dtype=bool)
    in_run[:, codes.starts - 1] = False
    in_run = in_run.reshape(-1)[:-1]
    base = np.arange(n_rows) * size
    for _ in range(MAX_REPAIR_ATTEMPTS):
        for _ in range(MAX_REPAIR_ATTEMPTS):
            bad = np.flatnonzero((flat[1:cells] == flat[: cells - 1]) & in_run)
            if not bad.size:
                return out
            row = bad // size
            per_row = np.bincount(row, minlength=n_rows)
            rank = np.arange(bad.size) - (np.cumsum(per_row) - per_row)[row]
            slots = np.full((per_row.max(), n_rows), cells)
            slots[rank, row] = bad + 1
            steps = rng.integers(0, size - 1, slots.shape) + base
            steps += steps >= slots
            steps -= slots
            for slot, prev, step in zip(slots, slots - 1, steps):
                held = flat[slot]
                swap = slot + (flat[prev] == held) * step
                flat[slot] = flat[swap]
                flat[swap] = held
        dirty = np.flatnonzero(per_row)
        out[dirty] = rng.permuted(np.tile(touches, (dirty.size, 1)), axis=1)
    raise DegenerateInputError(
        f"match {codes.match_id!r}: repair budget exhausted while removing adjacent repeats"
    )


class _SignatureMoments:
    """Exact moments of a possession's counts under the shuffle, by one counting DP.

    A state of the DP is a touch position: the last k touches relabelled by
    first appearance, those players' remaining touches, and the sorted
    remaining touches of every other player, who are interchangeable. Its
    value sums, over the valid completions of the state, their count N and,
    for every pattern of ``columns``, the sums S of the pattern's window
    counts and Q of their squares (the second-order expectation semiring).
    A touch that completes a window of pattern p maps a child's (N, S, Q)
    to (N, S + N e_p, Q + (2 S_p + N) e_p). A state adds up its children in
    a fixed order, so its value is a pure function of the state, whatever
    was computed before it, and each column the same bits whatever the
    other columns are.

    A state is reached only if it can be completed: with ``rest`` touches
    left, the last holder holds at most half of them and every other player
    at most half of ``rest + 1``. A DP over the whole alphabet keeps its
    states of at most ``SHARED_TOUCHES`` touches left, and never more than
    ``EXACT_TOUCHES[k] - k``, for every signature; those are states of
    signatures within ``EXACT_TOUCHES[k]``. Every other state lives while one
    signature is computed. A state's key takes a byte per number, so a
    signature must hold fewer than 256 touches.
    """

    def __init__(self, k: int, columns: tuple[int, ...]) -> None:
        letters = pattern_index(k).letters
        self.k = k
        self.n_patterns = len(letters)
        self.columns = columns
        # every full window of a pattern of ``columns``: its column, the next
        # window and which of its labels that keeps, in their new order
        self.steps = {}
        for i, full in enumerate(map(tuple, letters[list(columns)].tolist())):
            kept = tuple(dict.fromkeys(full[1:]))
            self.steps[full] = i, tuple(kept.index(t) for t in full[1:]), kept
        whole = len(columns) == self.n_patterns
        self.shared_touches = min(SHARED_TOUCHES, EXACT_TOUCHES[k] - k) if whole else -1
        self.shared = _StateValues(1 + 2 * len(columns))

    def moments(self, signature: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Mean and population variance of every pattern's count over the valid arrangements."""
        value = self._value((), (), signature, sum(signature), _StateValues(self.shared.width))
        n, columns = len(self.columns), list(self.columns)
        mean = value[1 : 1 + n] / value[0]
        full_mean, full_var = np.zeros(self.n_patterns), np.zeros(self.n_patterns)
        full_mean[columns] = mean
        full_var[columns] = value[1 + n :] / value[0] - mean * mean
        return full_mean, full_var

    def _value(
        self,
        window: tuple[int, ...],
        held: tuple[int, ...],
        others: tuple[int, ...],
        rest: int,
        local: _StateValues,
    ) -> np.ndarray:
        """(N, S, Q) of a state with ``rest`` touches left, from its children."""
        states = self.shared if rest <= self.shared_touches else local
        key = bytes((len(window), *window, *held, *others))
        known = states.get(key)
        if known is not None:
            return known
        n = len(self.columns)
        value = np.zeros(1 + 2 * n)
        value[0] = not rest
        last = window[-1] if window else -1
        new = len(held)
        moves = [(a, 1, c) for a, c in enumerate(held) if c and a != last]
        moves += [(new, others.count(c), c) for c in sorted(set(others))]
        if rest % 2:
            # a player holding half of the touches left, rounded up, must hold the next
            moves = [m for m in moves if 2 * m[2] == rest + 1] or moves
        for a, weight, c in moves:
            if a == new:
                i = others.index(c)
                after, left = held + (c - 1,), others[:i] + others[i + 1 :]
            else:
                after, left = held[:a] + (c - 1,) + held[a + 1 :], others
            full = window + (a,)
            column = None
            if len(full) > self.k:
                column, full, kept = self.steps[full]
                if 0 not in kept and after[0]:
                    left = tuple(sorted(left + after[:1]))
                after = tuple([after[t] for t in kept])
            child = self._value(full, after, left, rest - 1, local)
            value += child if weight == 1 else weight * child
            if column is not None:
                count, total = weight * child[0], weight * child[1 + column]
                value[1 + column] += count
                value[1 + n + column] += 2 * total + count
        return states.add(key, value)


class _StateValues:
    """Values of DP states by a bytes key each, as rows of float64 blocks.

    Rows of blocks took less time and memory than one bytes value per key.
    """

    BLOCK_ROWS = 1024

    def __init__(self, width: int) -> None:
        self.width = width
        self.rows: dict[bytes, int] = {}
        self.blocks: list[np.ndarray] = []

    def get(self, key: bytes) -> np.ndarray | None:
        row = self.rows.get(key)
        if row is None:
            return None
        return self.blocks[row // self.BLOCK_ROWS][row % self.BLOCK_ROWS]

    def add(self, key: bytes, value: np.ndarray) -> np.ndarray:
        row = len(self.rows)
        if row % self.BLOCK_ROWS == 0:
            self.blocks.append(np.empty((self.BLOCK_ROWS, self.width)))
        self.rows[key] = row
        out = self.blocks[-1][row % self.BLOCK_ROWS]
        out[:] = value
        return out


@cache
def _pattern_counts(k: int) -> np.ndarray:
    """Every pattern's label counts, largest first and padded with zeros, a row each."""
    letters = pattern_index(k).letters
    counts = (letters[:, :, None] == np.arange(k + 1)).sum(axis=1)
    return -np.sort(-counts, axis=1)


@cache
def _shuffle_dp(k: int, columns: tuple[int, ...]) -> _SignatureMoments:
    """The counting DP of k over ``columns``, whose shared states live as long as the process."""
    return _SignatureMoments(k, columns)


@cache
def _signature_moments(
    signature: tuple[int, ...], k: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact per-pattern mean and variance of a possession's counts under the shuffle.

    The possession shuffle draws every valid arrangement of the touches
    equally often, so these are the mean and population variance of the
    window counts over them. The DP's columns are the patterns whose label
    counts fit under the signature's, as every window's must. No touch
    position has more states than the signature has arrangements up to
    swaps of players with equal counts, since each state starts a
    different set of them. None when that bound, over every position,
    times the values of a state passes ``STATE_VALUES``, unless the
    signature is within ``EXACT_TOUCHES[k]``, and when the sums could pass
    the largest float: the possession is then sampled. Only the moments are
    kept, not the DP's states of more than ``SHARED_TOUCHES`` touches left.
    """
    touches = sum(signature)
    if touches > 255:
        return None
    counts = sorted(signature, reverse=True)[: k + 1]
    fits = (_pattern_counts(k) <= counts + [0] * (k + 1 - len(counts))).all(axis=1)
    columns = tuple(np.flatnonzero(fits).tolist())
    if touches > EXACT_TOUCHES[k]:
        arrangements = _arrangements(signature)
        classes = arrangements // prod(map(factorial, Counter(signature).values()))
        if (touches + 1) * classes * (1 + 2 * len(columns)) > STATE_VALUES:
            return None
        if arrangements * touches**2 > 2**1000:  # N and the sums of squares stay finite
            return None
    moments = _shuffle_dp(k, columns).moments(signature)
    for m in moments:
        m.flags.writeable = False
    return moments


def _rejection_rows(touches: np.ndarray, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """``n_rows`` independent uniform valid arrangements of one possession's touches.

    A uniform permutation of the touches that has no adjacent repeat is
    uniform over the valid arrangements. So each rejection round permutes
    the touches once per row, all rows at once, and hands the valid
    permutations in order to the rows still waiting for one. A uniform
    permutation of last round's rows is again a uniform permutation of the
    touches, so the rounds permute one array in place. Rows still waiting
    after ``POSSESSION_ROUNDS`` rounds are drawn by ``_counted_arrangement``.
    A possession's rounds all have the same array shapes: pooling the
    waiting rows of every possession into one draw was as fast, but its
    ever-changing small arrays stay cached by numpy and grew the process's
    memory by several percent.
    """
    drawn = np.tile(touches, (n_rows, 1))
    out = np.empty_like(drawn)
    filled = 0
    for _ in range(POSSESSION_ROUNDS):
        rng.permuted(drawn, axis=1, out=drawn)
        valid = np.flatnonzero((drawn[:, 1:] != drawn[:, :-1]).all(axis=1))
        valid = valid[: n_rows - filled]
        out[filled : filled + valid.size] = drawn[valid]
        filled += valid.size
        if filled == n_rows:
            break
    for row in range(filled, n_rows):
        out[row] = _counted_arrangement(touches, rng)
    return out


def _possession_rows(codes: TouchCodes, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Rows whose possessions are independent uniform valid arrangements.

    Every possession, in order, takes ``_rejection_rows``; the counting DP
    serves only the exact moments of ``null_distribution``. The possessions
    are cut out by slicing: ``np.split`` took about 40 µs for 25
    possessions against 7 µs (2-core Xeon VM), and made the possession
    shuffle 3% slower.
    """
    blocks = [
        _rejection_rows(codes.touches[start : start + length], rng, n_rows)
        for start, length in zip(codes.starts.tolist(), codes.lengths.tolist())
    ]
    return np.concatenate(blocks, axis=1)


def _others(counts: list[int], holder: int) -> tuple[int, ...]:
    """Sorted nonzero counts of every player but ``holder``."""
    return tuple(sorted(c for i, c in enumerate(counts) if c and i != holder))


# Exact counts of ``_arrangements`` and ``_after``, each a pure function of
# its key, kept for the life of the process.
_COUNTS: dict[tuple, int] = {}


def _arrangements(counts: tuple[int, ...]) -> int:
    """Arrangements with no adjacent repeat of touches with these player counts.

    ``counts`` is sorted and holds no zeros; players with equal counts are
    interchangeable, so the number depends on nothing else, and ``_COUNTS``
    keeps it under the key ``counts``. The recursion is at most twice as
    deep as the touches.
    """
    n = _COUNTS.get(counts)
    if n is None:
        n = 0 if counts else 1
        for i, c in enumerate(counts):
            if i and counts[i - 1] == c:
                continue  # starts with a player of the same count: same number
            n += counts.count(c) * _after(counts[:i] + counts[i + 1 :], c - 1)
        _COUNTS[counts] = n
    return n


def _after(others: tuple[int, ...], held: int) -> int:
    """Valid arrangements that do not start with the last holder.

    The last holder has ``held`` touches left and the other players
    ``others``. The arrangements that do start with the last holder number
    ``_after(others, held - 1)``, so the count alternates over the
    arrangements with ``held``, ``held - 1``, ... 0 touches of theirs.
    ``_COUNTS`` keeps every ``_after(others, h)`` under the key ``(others,
    h)``; they are filled upwards in h from the highest one it holds.
    """
    n = _COUNTS.get((others, held))
    if n is None:
        h = held
        while h and (others, h - 1) not in _COUNTS:
            h -= 1
        n = _COUNTS[others, h - 1] if h else 0
        for h in range(h, held + 1):
            n = _arrangements(tuple(sorted(others + (h,))) if h else others) - n
            _COUNTS[others, h] = n
    return n


def _randbelow(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n), exact for any size of ``n``."""
    bits = n.bit_length()
    size = (bits + 7) // 8
    while True:
        x = int.from_bytes(rng.bytes(size), "little") >> (8 * size - bits)
        if x < n:
            return x


def _counted_arrangement(touches: np.ndarray, rng: np.random.Generator) -> np.ndarray:
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
    rank = _randbelow(rng, _arrangements(_others(counts, last)))
    for t in range(touches.size):
        for j, c in enumerate(counts):
            if j == last or c == 0:
                continue
            n = _after(_others(counts, j), c - 1)
            if rank < n:
                break
            rank -= n
        counts[j] -= 1
        out[t] = players[j]
        last = j
    return out


def _walk_rows(codes: TouchCodes, rng: np.random.Generator, n_rows: int) -> np.ndarray:
    """Per-possession walks: a uniform first holder, then uniform steps to another player.

    A step of 1..n-1 places modulo n reaches every other player equally
    often, so each possession is a cumulative sum of steps modulo n.
    ``null_distribution`` does not draw walks; it takes their exact moments.
    """
    n_players = len(codes.players)
    steps = rng.integers(1, n_players, size=(n_rows, codes.touches.size))
    steps[:, codes.starts] = rng.integers(0, n_players, size=(n_rows, codes.starts.size))
    walk = np.cumsum(steps, axis=1)
    before = np.zeros((n_rows, codes.starts.size), dtype=walk.dtype)
    before[:, 1:] = walk[:, codes.starts[1:] - 1]
    walk -= np.repeat(before, codes.lengths, axis=1)
    return walk % n_players


@cache
def _walk_joint(n_players: int, k: int) -> np.ndarray:
    """Pattern law of a walk's windows, alone and in pairs.

    Row d holds, for every pattern, the chance that the windows starting
    at touches i and i + d both have it, for d = 0..k; row 0 is the law of
    one window. The walk's law does not change when players are
    relabelled, so these chances do not depend on i. A walk of m touches
    has chance 1 / (n (n-1)^(m-1)), and n(n-1)...(n-x+1) walks with x
    players share one pattern of who repeats whom.

    A pattern P with b letters is its own first window. The window d
    touches later starts with P's touches d..k, which must have the
    pattern of P's first k + 1 - d touches, with c letters. Its last d
    touches then follow P: a touch whose letter came earlier in the window
    repeats that player, and each of the b - c touches that bring a new
    letter takes either one of the b - c players that only P's first d
    touches hold, or a player new to the walk. Taking j of the former, in
    C(b-c, j) (b-c)!/(b-c-j)! ways, leaves 2b - c - j players in the walk.
    The cost grows with the alphabet, not with the walks.
    """
    letters = pattern_index(k).letters
    b = letters.max(axis=1).astype(np.int64) + 1
    # walks[x]: walks of one pattern with x players
    walks = np.cumprod(np.r_[1.0, np.arange(n_players, n_players - 2 * k - 1, -1).clip(0)])
    ways = np.array([[comb(r, j) * perm(r, j) for j in range(k + 1)] for r in range(k + 1)])
    joint = np.empty((k + 1, len(letters)))
    joint[0] = walks[b]
    for d in range(1, k + 1):
        head, tail = letters[:, : k + 1 - d], letters[:, d:]
        same = np.ones(len(letters), dtype=bool)
        for i, j in zip(*np.triu_indices(k + 1 - d, 2)):
            same &= (head[:, i] == head[:, j]) == (tail[:, i] == tail[:, j])
        new = b - 1 - head.max(axis=1)
        picks = (ways[new, j] * walks[np.maximum(b + new - j, 0)] for j in range(d + 1))
        joint[d] = same * sum(picks)
    joint /= n_players * (n_players - 1.0) ** (k + np.arange(k + 1)[:, None])
    joint.flags.writeable = False
    return joint


def _walk_moments(codes: TouchCodes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance of the team-match's counts under ``uniform_walk``.

    With p and q_d from ``_walk_joint``, a possession with W windows adds
    W p to the mean and W p (1 - p) + 2 sum_{d=1..k} max(W - d, 0) (q_d - p^2)
    to the variance. Windows more than k apart share no touch and are
    independent, and so are the possessions.
    """
    n = len(pattern_index(k).patterns)
    windows = np.maximum(codes.lengths - k, 0)
    # pairs[d]: pairs of windows d apart in the same possession
    pairs = np.maximum(windows - np.arange(k + 1)[:, None], 0).sum(axis=1)
    if not pairs[0]:
        return np.zeros(n), np.zeros(n)
    joint = _walk_joint(len(codes.players), k)
    p = joint[0]
    return pairs[0] * p, pairs[0] * p * (1 - p) + 2 * (pairs[1:] @ (joint[1:] - p * p))


def _draw_rows(
    codes: TouchCodes, policy: str, rng: np.random.Generator, n_rows: int
) -> np.ndarray:
    """``n_rows`` independent replicates of the touches, one per row."""
    if codes.touches.size == 0:
        return np.empty((n_rows, 0), dtype=codes.touches.dtype)
    if policy == "touch_shuffle_match":
        return _match_rows(codes, rng, n_rows)
    if policy == "touch_shuffle_possession":
        return _possession_rows(codes, rng, n_rows)
    return _walk_rows(codes, rng, n_rows)


def _moments(
    total: np.ndarray, total_sq: np.ndarray, reps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and Bessel-corrected variance of counts from their sums over ``reps`` replicates.

    The numerator ``reps*total_sq - total*total`` is formed in Python
    integers, since in int64 it wraps once replicates x count passes about
    3e9. With one replicate the variance is undefined and returned as 0.
    """
    mean = total / reps
    if reps < 2:
        return mean, np.zeros_like(mean)
    numerator = np.array(
        [reps * sq - s * s for s, sq in zip(total.tolist(), total_sq.tolist())],
        dtype=np.float64,
    )
    return mean, numerator / (reps * (reps - 1))


def _sampled_moments(
    codes: TouchCodes, k: int, config: NullModelConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and variance of the counts over ``config.replicates`` rows.

    The rows come from one random stream seeded from (master seed, match
    id, team id), in batches of ``BATCH_ROWS``, and each batch is counted
    in one call. Under the possession shuffle ``codes`` holds only the
    possessions past the counting DP's budget. Counts are accumulated as
    exact integers before the moments are taken.
    """
    pidx = pattern_index(k)
    window_starts = codes.window_starts(k)
    total = np.zeros(len(pidx.patterns), dtype=np.int64)
    total_sq = np.zeros_like(total)
    reps = config.replicates
    rng = np.random.default_rng(derive_seed(config.master_seed, codes.match_id, codes.team_id))
    for done in range(0, reps, BATCH_ROWS):
        rows = _draw_rows(codes, config.policy, rng, min(BATCH_ROWS, reps - done))
        counts = pidx.window_counts(rows, window_starts)
        total += counts.sum(axis=0)
        total_sq += (counts * counts).sum(axis=0)
    return _moments(total, total_sq, reps)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def randomize_possessions(
    possessions: Sequence[Possession], policy: str = "touch_shuffle_match", seed: int = 0
) -> PassRuns:
    """One randomized replicate of a match's possessions, as ``Possession`` rows.

    The output has the same possession count, the same lengths, and the
    original timestamps; only who occupies each touch slot changes.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    runs = possession_runs(possessions)
    codes = TouchCodes(runs)
    row = _draw_rows(codes, policy, np.random.default_rng(seed), 1)[0]
    passes = runs.passes
    index = {name: i for i, name in enumerate(passes.names)}
    held = np.array([index[p] for p in codes.players], dtype=np.int32)[row]
    first = np.zeros(row.size, dtype=bool)
    first[codes.starts] = True
    ids = np.stack([passes.match, passes.team, held[~np.roll(first, -1)], held[~first]])
    return PassRuns(PassTable(passes.names, ids, passes.timestamp), runs.starts, Possession)


def null_distribution(
    possessions: Sequence[Possession],
    k: int,
    config: NullModelConfig,
) -> NullDistribution:
    """Per-pattern moments of the team-match's motif counts under ``config.policy``.

    The walk's moments are exact, and so are those of every possession
    within the counting DP's budget under the possession shuffle
    (``_signature_moments``); a possession with fewer than k + 1 touches has
    no window and adds nothing. The other possessions, all of them under
    the match shuffle, are sampled by ``_sampled_moments``. The possessions
    of a team-match are independent under the possession shuffle, so the
    moments of the two parts add.
    """
    runs = possession_runs(possessions)
    codes = TouchCodes(runs)
    n = len(pattern_index(k).patterns)
    mean, var = np.zeros(n), np.zeros(n)
    sampled = len(runs)
    if config.policy == "uniform_walk":
        mean, var = _walk_moments(codes, k)
        sampled = 0
    elif config.policy == "touch_shuffle_possession":
        picks = []
        for i, (start, length) in enumerate(zip(codes.starts.tolist(), codes.lengths.tolist())):
            if length <= k:
                continue
            counts = Counter(codes.touches[start : start + length].tolist())
            moments = _signature_moments(tuple(sorted(counts.values())), k)
            if moments is None:
                picks.append(i)
            else:
                mean += moments[0]
                var += moments[1]
        sampled = len(picks)
        if picks:
            codes = TouchCodes([runs[i] for i in picks])
    if sampled:
        sampled_mean, sampled_var = _sampled_moments(codes, k, config)
        mean += sampled_mean
        var += sampled_var
    reps = config.replicates
    std = np.sqrt(np.maximum(var, 0.0)) if reps > 1 else np.zeros(n)
    return NullDistribution(k, mean, std, reps, reps < 2, sampled)


def z_scores(real: MotifCountVector, null: NullDistribution) -> ZScoreProfile:
    """Standard scores of the real counts against the null distribution.

    Zero-variance patterns get z=0 when the real count matches the null
    mean and a sign-capped z=±Z_CAP (flagged) when it does not.
    """
    if real.k != null.k:
        raise ValueError(f"k mismatch: counts have k={real.k}, null has k={null.k}")
    diff = real.counts - null.mean
    spread = null.std > 0.0
    z = np.divide(diff, null.std, out=np.sign(diff) * Z_CAP, where=spread)
    degenerate = (~spread & (diff != 0.0)) | null.degenerate
    return ZScoreProfile(real.match_id, real.team_id, real.k, z, degenerate)
