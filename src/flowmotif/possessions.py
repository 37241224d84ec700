"""Possession segmentation: split match logs into consecutive-pass chains.

A possession is a maximal run of passes in which each receiver makes the
next pass and the gap between consecutive passes never exceeds ``t_max``
seconds. Segmentation is greedy left-to-right, so no possession can
absorb the first pass of its successor. One call cuts one log, or every
log of a command at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .events import MatchEventLog, PassRuns, PassTable

DEFAULT_T_MAX = 5.0


@dataclass(frozen=True, slots=True)
class SegmentationConfig:
    """Chaining parameters. ``t_max`` is the allowed gap between passes."""

    t_max: float = DEFAULT_T_MAX

    def __post_init__(self) -> None:
        if not self.t_max > 0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")


@dataclass(frozen=True, slots=True)
class Possession:
    """A chain of n >= 1 passes of one team in one match where the ball never left the team.

    ``passes`` may be given as any sequence of ``PassEvent`` and is held as
    a ``PassTable``.
    """

    match_id: str
    team_id: str
    passes: PassTable

    def __post_init__(self) -> None:
        passes = self.passes
        if not isinstance(passes, PassTable):
            passes = PassTable.from_events(passes)
            object.__setattr__(self, "passes", passes)
        if not len(passes):
            raise ValueError("possession must contain at least one pass")
        i = passes.outsider(self.match_id, self.team_id)
        if i is not None:
            raise ValueError(
                f"pass {passes[i]!r} is not of ({self.match_id!r}, {self.team_id!r})"
            )
        _, _, passer, receiver = passes.codes.tolist()
        times = passes.timestamp.tolist()
        if receiver[:-1] != passer[1:] or times != sorted(times):
            names = passes.names
            for received, passed, a, b in zip(receiver, passer[1:], times, times[1:]):
                if received != passed:
                    raise ValueError(
                        f"broken chain: {names[received]!r} received but "
                        f"{names[passed]!r} passed next"
                    )
                if b < a:
                    raise ValueError("passes not in time order")

    def __len__(self) -> int:
        return len(self.passes)


def segment_possessions(
    logs: MatchEventLog | PassRuns, config: SegmentationConfig = SegmentationConfig()
) -> PassRuns:
    """Greedy maximal segmentation of sorted match logs into ``Possession`` rows.

    ``logs`` is one log, or the runs of logs that ``group_by_match`` returns;
    one log is the case of a single run. Every log is cut in one pass over
    their pass table, with a cut at every log's first pass, so a possession
    never spans two logs. Every input pass lands in exactly one possession,
    and concatenating the possessions in order reproduces the input sequence.
    """
    passes = logs.passes if isinstance(logs, PassRuns) else logs.events
    cut = np.ones(len(passes), dtype=bool)
    chained = passes.receiver[:-1] == passes.passer[1:]
    in_time = np.diff(passes.timestamp) <= config.t_max
    cut[1:] = ~(chained & in_time)
    if isinstance(logs, PassRuns):
        cut[logs.starts] = True
    return PassRuns(passes, np.flatnonzero(cut), Possession)


def possession_runs(possessions: Iterable[Possession]) -> PassRuns:
    """Possessions as runs of one pass table: ``segment_possessions`` output as it is."""
    if isinstance(possessions, PassRuns):
        return possessions
    possessions = list(possessions)
    lengths = np.array([len(pos.passes) for pos in possessions], dtype=np.int64)
    passes = PassTable.concat([pos.passes for pos in possessions])
    return PassRuns(passes, np.cumsum(lengths) - lengths, Possession)


def touch_sequence(possession: Possession) -> tuple[str, ...]:
    """Ordered ball holders: the first passer, then every receiver.

    n passes yield n+1 touches; chaining plus the no-self-pass invariant
    guarantee no two adjacent touches are the same player.
    """
    passes = possession.passes
    names = passes.names
    return (names[passes.passer[0]],) + tuple([names[c] for c in passes.receiver.tolist()])
