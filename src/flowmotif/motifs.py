"""Flow-motif canonicalization, alphabet enumeration, and counting.

A k-pass motif is the window of k+1 consecutive touches relabeled by
order of first appearance (first distinct player A, second B, ...), so
the pattern keeps the structure of the exchange and forgets who played.
For k=3 the alphabet is ABAB, ABAC, ABCA, ABCB, ABCD.

Counting codes a team-match's touches as integers once (``TouchCodes``)
and classifies all windows at once (``pattern_index``); the null model
counts its randomized replicates through the same two steps. The string
functions ``canonicalize`` and ``extract_motifs`` spell the definition out
one window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from .possessions import Possession, touch_sequence

DEFAULT_K = 3

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

MotifPattern = str


def canonicalize(window: Sequence[str]) -> MotifPattern:
    """Relabel a touch window by order of first appearance.

    The output is independent of the actual player identifiers; any
    injective renaming of the window yields the same pattern.
    """
    labels: dict[str, str] = {}
    out: list[str] = []
    prev: str | None = None
    for who in window:
        if who == prev:
            raise ValueError(f"adjacent duplicate touch {who!r} in window")
        prev = who
        label = labels.get(who)
        if label is None:
            if len(labels) >= len(_LETTERS):
                raise ValueError("more distinct players than available labels")
            label = _LETTERS[len(labels)]
            labels[who] = label
        out.append(label)
    return "".join(out)


def enumerate_patterns(k: int) -> list[MotifPattern]:
    """All valid k-pass motif patterns, in lexicographic order.

    Valid means: starts with A, each letter is either already seen or the
    next unused one (restricted growth), and no two adjacent letters are
    equal. The alphabet is computed, never hard-coded, so any k works.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k + 1 > len(_LETTERS):
        raise ValueError(f"k={k} needs more than {len(_LETTERS)} labels")
    out: list[str] = []

    def extend(prefix: list[str], used: int) -> None:
        if len(prefix) == k + 1:
            out.append("".join(prefix))
            return
        for code in range(used + 1):  # seen labels plus the next unused one
            ch = _LETTERS[code]
            if ch == prefix[-1]:
                continue
            extend(prefix + [ch], used + 1 if code == used else used)

    extend(["A"], 1)
    return out


def extract_motifs(possession: Possession, k: int = DEFAULT_K) -> list[MotifPattern]:
    """Canonicalized sliding windows of k consecutive passes.

    A possession of n passes yields max(0, n-k+1) motifs; windows never
    span possession boundaries.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    seq = touch_sequence(possession)
    return [canonicalize(seq[i : i + k + 1]) for i in range(len(seq) - k)]


class TouchCodes:
    """The touches of one team-match's possessions as integer player codes.

    Players are coded 0, 1, 2, ... in order of first appearance, and
    ``players[c]`` is the player of code ``c``. ``touches`` holds every
    possession's touches back to back, ``lengths`` the touch count of each
    possession and ``starts`` the index of its first touch in ``touches``,
    an int64 array. ``match_id``/``team_id`` are only used when
    ``possessions`` is empty; otherwise they are taken from the
    possessions, which must all agree.
    """

    def __init__(
        self, possessions: Sequence[Possession], match_id: str = "", team_id: str = ""
    ) -> None:
        if possessions:
            match_id, team_id = possessions[0].match_id, possessions[0].team_id
        codes: dict[str, int] = {}
        touches: list[int] = []
        lengths: list[int] = []
        starts: list[int] = []
        for pos in possessions:
            if pos.match_id != match_id or pos.team_id != team_id:
                raise ValueError(
                    f"possession ({pos.match_id!r}, {pos.team_id!r}) mixed into "
                    f"({match_id!r}, {team_id!r})"
                )
            starts.append(len(touches))
            touches.append(codes.setdefault(pos.passes[0].passer, len(codes)))
            touches.extend([codes.setdefault(p.receiver, len(codes)) for p in pos.passes])
            lengths.append(len(pos.passes) + 1)
        self.match_id = match_id
        self.team_id = team_id
        self.players = tuple(codes)
        self.touches = np.array(touches, dtype=np.int64)
        self.lengths = lengths
        self.starts = np.array(starts, dtype=np.int64)

    def window_starts(self, k: int) -> np.ndarray:
        """Index of the first touch of every (k+1)-touch window within a possession."""
        starts: list[int] = []
        base = 0
        for length in self.lengths:
            starts.extend(range(base, base + length - k))
            base += length
        return np.array(starts, dtype=np.int64)


class _PatternIndex:
    """Classifies touch windows of a fixed k by their pattern, all at once.

    A window's pattern is fixed by which of its touches share a player.
    Adjacent touches never do, so the key of a window has one bit per pair
    of touches two or more apart, set when the pair shares a player. The
    keys of the alphabet come from the same function, applied to each
    pattern's own letters as players.
    """

    def __init__(self, k: int) -> None:
        self.patterns = enumerate_patterns(k)
        self._left, self._right = np.triu_indices(k + 1, 2)
        self._bits = 1 << np.arange(self._left.size, dtype=np.int64)
        letters = np.array([[ord(c) for c in p] for p in self.patterns])
        keys = self._keys(letters, np.zeros(1, dtype=np.int64))[:, 0]
        self._order = np.argsort(keys)
        self._sorted_keys = keys[self._order]

    def _keys(self, touch_rows: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        left = touch_rows[:, window_starts[:, None] + self._left]
        right = touch_rows[:, window_starts[:, None] + self._right]
        return (left == right) @ self._bits

    def window_counts(self, touch_rows: np.ndarray, window_starts: np.ndarray) -> np.ndarray:
        """Per-row count of every pattern over the windows, aligned with ``patterns``."""
        n_rows, n_patterns = touch_rows.shape[0], len(self.patterns)
        keys = self._keys(touch_rows, window_starts)
        idx = self._order[np.searchsorted(self._sorted_keys, keys)]
        idx += np.arange(0, n_rows * n_patterns, n_patterns)[:, None]
        counts = np.bincount(idx.ravel(), minlength=n_rows * n_patterns)
        return counts.reshape(n_rows, n_patterns)


@cache
def pattern_index(k: int) -> _PatternIndex:
    """The window classifier for k, built once per process."""
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


def count_motifs(
    possessions: Iterable[Possession],
    k: int = DEFAULT_K,
    *,
    match_id: str = "",
    team_id: str = "",
) -> MotifCountVector:
    """Aggregate motif counts over possessions of one match and team.

    ``match_id``/``team_id`` are only used when ``possessions`` is empty;
    otherwise they are taken from the possessions, which must all agree.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    codes = TouchCodes(list(possessions), match_id, team_id)
    counts = pattern_index(k).window_counts(codes.touches[None, :], codes.window_starts(k))
    return MotifCountVector(codes.match_id, codes.team_id, k, counts[0])
