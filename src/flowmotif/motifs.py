"""Flow-motif canonicalization, alphabet enumeration, and counting.

A k-pass motif is the window of k+1 consecutive touches relabeled by
order of first appearance (first distinct player A, second B, ...), so
the pattern keeps the structure of the exchange and forgets who played.
For k=3 the alphabet is ABAB, ABAC, ABCA, ABCB, ABCD.

One index per k (``pattern_index``) owns the alphabet, as rows of label
codes with their strings, and is the one classifier: a team-match's touches
are laid out as integer codes once, and it gives every window its pattern
at once. Other modules never parse a pattern's letters.
``count_motifs`` counts them for the possessions of any number of
team-matches at once: one call classifies all their windows, and one
``bincount`` sums them per team-match into ``MotifCounts``.
``extract_motifs`` lists them for one possession, and the null model's
``TouchCodes`` re-codes the same layout by first appearance and counts its
randomized replicates the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator

import numpy as np

from .events import PassRuns
from .possessions import Possession, possession_runs

DEFAULT_K = 3
# Largest k: its alphabet has 4,140 patterns, and each k past it about five
# times as many.
MAX_K = 8

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

MotifPattern = str


def enumerate_patterns(k: int) -> list[MotifPattern]:
    """All valid k-pass motif patterns, in lexicographic order, as a new list.

    Valid means: starts with A, each letter is either already seen or the
    next unused one (restricted growth), and no two adjacent letters are
    equal. The list is a copy of ``pattern_index(k).patterns``, built once
    per process, for any k from 2 to ``MAX_K``.
    """
    return list(pattern_index(k).patterns)


def extract_motifs(possession: Possession, k: int = DEFAULT_K) -> list[MotifPattern]:
    """Canonicalized sliding windows of k consecutive passes.

    A possession of n passes yields max(0, n-k+1) motifs; windows never
    span possession boundaries.
    """
    index = pattern_index(k)
    touches, first = _touch_layout(possession_runs([possession]))
    window_starts = _window_starts(first, touches.size, k)
    found = index.window_patterns(touches[None, :], window_starts)[0]
    return [index.patterns[i] for i in found.tolist()]


def _touch_layout(runs: PassRuns) -> tuple[np.ndarray, np.ndarray]:
    """Every possession's touches back to back, in the codes of their pass table.

    Returns the touches and the index of each possession's first touch.
    """
    passes, starts = runs.passes, runs.starts
    size = len(passes) + len(starts)
    first = starts + np.arange(len(starts))
    touches = np.empty(size, dtype=passes.codes.dtype)
    touches[first] = passes.passer[starts]
    received = np.ones(size, dtype=bool)
    received[first] = False
    touches[received] = passes.receiver
    return touches, first


def _team_matches(runs: PassRuns) -> tuple[list[str], list[str], np.ndarray]:
    """The ids of the team-matches of possessions, and where each but the first begins.

    The array holds the index of the first possession of every team-match
    after the first. A team-match's possessions must be consecutive.
    """
    names = runs.passes.names
    # each possession's match and team codes, side by side, read as one int64
    key = runs.passes.codes[:2].T.take(runs.starts, axis=0).view(np.int64).ravel()
    later = (key[1:] != key[:-1]).nonzero()[0] + 1
    keys = key[:1].tolist() + key[later].tolist()
    codes = np.array(keys, dtype=np.int64).view(np.int32).tolist()
    match_ids, team_ids = [names[c] for c in codes[::2]], [names[c] for c in codes[1::2]]
    if len(set(keys)) < len(keys):
        i = next(i for i in range(1, len(keys)) if keys[i] in keys[:i])
        _raise_mixed(match_ids, team_ids, i)
    return match_ids, team_ids, later


def _raise_mixed(match_ids: list[str], team_ids: list[str], i: int) -> None:
    """Refuse possessions whose ``i``-th team-match follows one it must not."""
    ids, before = [(match_ids[j], team_ids[j]) for j in (i, i - 1)]
    raise ValueError(f"possessions of {ids!r} mixed with those of {before!r}")


def _window_starts(first: np.ndarray, size: int, k: int) -> np.ndarray:
    """Index of the first touch of every (k+1)-touch window within a possession.

    ``first`` holds the index of each possession's first touch among
    ``size`` touches; a window fits when no possession starts in its last
    k touches.
    """
    owner = np.zeros(size, dtype=np.int64)
    owner[first] = 1
    owner = owner.cumsum()
    return np.flatnonzero(owner[k:] == owner[: max(size - k, 0)])


class TouchCodes:
    """The touches of one team-match's possessions as integer player codes.

    Players are coded 0, 1, 2, ... in order of first appearance, and
    ``players[c]`` is the player of code ``c``. ``touches`` holds every
    possession's touches back to back, ``lengths`` the touch count of each
    possession and ``starts`` the index of its first touch in ``touches``,
    all int64 arrays. ``match_id``/``team_id`` are the possessions' own,
    which must all agree, and empty when there are none.
    """

    def __init__(self, possessions: Iterable[Possession]) -> None:
        runs = possession_runs(possessions)
        match_ids, team_ids, _ = _team_matches(runs)
        if len(match_ids) > 1:
            _raise_mixed(match_ids, team_ids, 1)
        touches, first = _touch_layout(runs)
        names = runs.passes.names
        # A stable sort puts each player's first touch ahead of their others;
        # ranking the players by that touch gives their codes.
        order = touches.argsort(kind="stable")
        ranked = touches[order]
        new = np.ones(touches.size, dtype=bool)
        new[1:] = ranked[1:] != ranked[:-1]
        appear = order[new].argsort()
        code = np.empty_like(appear)
        code[appear] = np.arange(appear.size)
        self.touches = np.empty_like(order)
        self.touches[order] = code[new.cumsum() - 1]
        self.players = tuple([names[c] for c in ranked[new][appear].tolist()])
        self.match_id = match_ids[0] if match_ids else ""
        self.team_id = team_ids[0] if team_ids else ""
        self.starts = first
        self.lengths = np.diff(first, append=touches.size)

    def window_starts(self, k: int) -> np.ndarray:
        """Index of the first touch of every (k+1)-touch window within a possession."""
        return _window_starts(self.starts, self.touches.size, k)


class _PatternIndex:
    """The k-pass alphabet, and the classifier of touch windows by it, all at once.

    ``letters`` holds each pattern's labels as codes (A is 0, B is 1, ...),
    a row each in lexicographic order, as a read-only int64 array;
    ``patterns`` spells the rows as strings and ``position`` maps a pattern
    to its row. The rows are grown label by label: each row takes every
    label it has seen and the next unused one, except the label it ends on.

    A window's pattern is fixed by which of its touches share a player.
    Adjacent touches never do, so the key of a window has one bit per pair
    of touches two or more apart, set when the pair shares a player. The
    keys of the alphabet come from the same function, applied to
    ``letters`` as players. Each of a window's k + 1 positions is gathered
    once for all rows and windows, the pairs are compared one distance at a
    time, and their bits are summed into a key of one, two or four bytes,
    so a batch of rows costs about as many numpy calls as one row. Up to 16
    pairs (k <= 6) a table indexed by key gives the pattern; past that the
    keys are looked up in sorted order.
    """

    def __init__(self, k: int) -> None:
        if not 2 <= k <= MAX_K:
            raise ValueError(f"k must be between 2 and {MAX_K}, got {k}")
        rows = [[0]]
        for _ in range(k):
            rows = [r + [c] for r in rows for c in range(max(r) + 2) if c != r[-1]]
        self.letters = np.array(rows)
        self.letters.flags.writeable = False
        self.patterns = tuple(["".join([_LETTERS[c] for c in r]) for r in rows])
        self.position = {p: i for i, p in enumerate(self.patterns)}
        self._offsets = np.arange(k + 1)[:, None]
        self._distances = range(2, k + 1)
        pairs = k * (k - 1) // 2
        key_type = np.uint8 if pairs <= 8 else np.uint16 if pairs <= 16 else np.uint32
        self._bits = (1 << np.arange(pairs)).astype(key_type)
        keys = self._keys(self.letters, np.zeros(1, dtype=np.int64))[:, 0]
        if pairs <= 16:
            table = np.zeros(1 << pairs, dtype=np.intp)
            table[keys] = np.arange(keys.size)
            self._lookup = table.take
        else:
            order = np.argsort(keys)
            sorted_keys = keys[order]
            self._lookup = lambda found: order[np.searchsorted(sorted_keys, found)]

    def _keys(self, touch_rows: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        held = touch_rows[:, window_starts + self._offsets]  # rows x positions x windows
        # rows x pairs x windows, the pairs one distance after another
        shared = np.concatenate([held[:, d:] == held[:, :-d] for d in self._distances], axis=1)
        return np.einsum("rpw,p->rw", shared.view(np.uint8), self._bits)

    def window_patterns(self, touch_rows: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        """Each window's index in ``patterns``, one row per row of touches."""
        return self._lookup(self._keys(touch_rows, window_starts))

    def window_counts(self, touch_rows: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        """Per-row count of every pattern over the windows, aligned with ``patterns``."""
        n_rows, n_patterns = touch_rows.shape[0], len(self.patterns)
        idx = self.window_patterns(touch_rows, window_starts)
        idx += np.arange(0, n_rows * n_patterns, n_patterns)[:, None]
        counts = np.bincount(idx.ravel(), minlength=n_rows * n_patterns)
        return counts.reshape(n_rows, n_patterns)


@cache
def pattern_index(k: int) -> _PatternIndex:
    """The alphabet and window classifier for k, built once per process."""
    return _PatternIndex(k)


@dataclass(slots=True)
class MotifCountVector:
    """Per-match, per-team motif occurrence counts over the full alphabet.

    ``counts`` is an int64 array aligned with ``enumerate_patterns(k)``,
    with zeros for patterns that never occurred.
    """

    match_id: str
    team_id: str
    k: int
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(slots=True)
class MotifCounts:
    """Motif counts of consecutive team-matches: a sized sequence of ``MotifCountVector`` rows.

    ``counts`` is a (team-matches x patterns) int64 array, a row per
    team-match aligned with ``enumerate_patterns(k)``; ``match_ids`` and
    ``team_ids`` key its rows. Indexing or iterating builds the rows, each
    over a view of its row of ``counts``.
    """

    match_ids: list[str]
    team_ids: list[str]
    k: int
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> MotifCountVector:
        return MotifCountVector(self.match_ids[i], self.team_ids[i], self.k, self.counts[i])

    def __iter__(self) -> Iterator[MotifCountVector]:
        return map(self.__getitem__, range(len(self)))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def count_motifs(
    possessions: Iterable[Possession],
    k: int = DEFAULT_K,
    *,
    match_id: str = "",
    team_id: str = "",
) -> MotifCounts:
    """Aggregate motif counts over possessions, one row per team-match in possession order.

    Each team-match's possessions must be consecutive, as segmentation gives
    them. Every window is classified in one call over all touches, and the
    windows are summed per team-match in one ``bincount``. With no
    possessions the result is one row of zeros, keyed by
    ``match_id``/``team_id``; otherwise the ids are the possessions' own.
    """
    index = pattern_index(k)
    n_patterns = len(index.patterns)
    runs = possession_runs(possessions)
    if not len(runs):
        return MotifCounts([match_id], [team_id], k, np.zeros((1, n_patterns), dtype=np.int64))
    match_ids, team_ids, later = _team_matches(runs)
    touches, first = _touch_layout(runs)
    window_starts = _window_starts(first, touches.size, k)
    found = index.window_patterns(touches[None, :], window_starts)[0]
    if later.size:  # each window of a later team-match moves to that team-match's row
        found += np.searchsorted(first[later], window_starts, side="right") * n_patterns
    counts = np.bincount(found, minlength=len(match_ids) * n_patterns)
    return MotifCounts(match_ids, team_ids, k, counts.reshape(-1, n_patterns))
