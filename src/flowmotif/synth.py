"""Synthetic pass-event generation with parameterized team styles.

Possessions are first-order random walks over a squad: the ball goes back
to the previous holder with probability ``back_pass_bias`` and otherwise
uniformly to any other player. Timestamps are laid out so that possession
segmentation recovers the generated possessions exactly (1 s between
passes inside a possession, t_max + 1 s between possessions). This gives
ground truth for end-to-end tests without licensed event data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .events import MatchEventLog, PassTable
from .possessions import DEFAULT_T_MAX, SegmentationConfig
from .seeding import derive_seed

DEFAULT_MATCHES = 38


@dataclass(frozen=True, slots=True)
class TeamStyleParams:
    """Knobs of one synthetic team's passing style.

    ``back_pass_bias`` is probability mass added on top of the uniform
    choice for returning the ball to the player it just came from.
    """

    squad_size: int = 11
    possessions_per_match: int = 40
    mean_possession_length: float = 4.0
    back_pass_bias: float = 0.0
    matches: int = DEFAULT_MATCHES
    team_id: str = ""

    def __post_init__(self) -> None:
        if self.squad_size < 4:
            raise ValueError(f"squad_size must be >= 4, got {self.squad_size}")
        if self.possessions_per_match < 1:
            raise ValueError("possessions_per_match must be >= 1")
        if self.mean_possession_length < 1.0:
            raise ValueError("mean_possession_length must be >= 1")
        if not 0.0 <= self.back_pass_bias <= 1.0:
            raise ValueError(f"back_pass_bias must be in [0, 1], got {self.back_pass_bias}")
        if self.matches < 1:
            raise ValueError("matches must be >= 1")


def generate_match(
    params: TeamStyleParams,
    match_index: int,
    seed: int,
    t_max: float = DEFAULT_T_MAX,
) -> MatchEventLog:
    """One synthetic match log for the given team parameters.

    Deterministic in (params, match_index, seed); reruns are bit-identical.
    ``t_max`` must be one that segmentation accepts.
    """
    SegmentationConfig(t_max)
    team_id = params.team_id or "team"
    match_id = f"{team_id}-m{match_index:03d}"
    rng = np.random.default_rng(seed)
    squad = params.squad_size
    players = [f"p{i:02d}" for i in range(squad)]
    lengths = rng.geometric(1.0 / params.mean_possession_length, size=params.possessions_per_match)

    rows: list[tuple[str, str, str, str, float]] = []
    t = 0.0
    for n_passes in lengths.tolist():
        holder = int(rng.integers(squad))
        previous: int | None = None
        for _ in range(n_passes):
            if previous is not None and rng.random() < params.back_pass_bias:
                nxt = previous
            else:
                nxt = int(rng.integers(squad - 1))
                if nxt >= holder:
                    nxt += 1
            rows.append((match_id, team_id, players[holder], players[nxt], t))
            previous, holder = holder, nxt
            t += 1.0
        # jump past t_max so the next possession can never chain onto this one
        t += t_max  # last in-possession step already added 1.0
    return MatchEventLog(match_id, team_id, PassTable.from_rows(rows))


def generate_league(
    teams: Sequence[TeamStyleParams],
    seed: int,
    t_max: float = DEFAULT_T_MAX,
) -> list[MatchEventLog]:
    """All match logs of a league: one log per team per matchday."""
    logs: list[MatchEventLog] = []
    for i, params in enumerate(teams):
        team_id = params.team_id or f"team{i:02d}"
        resolved = replace(params, team_id=team_id)
        for m in range(params.matches):
            logs.append(
                generate_match(resolved, m, derive_seed(seed, team_id, m), t_max=t_max)
            )
    return logs
