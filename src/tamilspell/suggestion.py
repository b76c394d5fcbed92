"""Suggestion record the checker builds for each kept candidate."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Strategy(Enum):
    """Which generator produced a suggestion; order is the merge priority."""

    CONJOINED = "conjoined"
    MAYANGOLI = "mayangoli"
    KEYBOARD = "keyboard"
    EDIT = "edit"
    FOREIGN = "foreign"

    @property
    def priority(self) -> int:
        return _PRIORITY[self]


_PRIORITY = {s: i for i, s in enumerate(Strategy)}


@dataclass(frozen=True, slots=True)
class Suggestion:
    """One candidate correction: the word, its origin, and a distance score."""

    candidate: str
    strategy: Strategy
    score: int

    def as_dict(self) -> dict:
        return {
            "candidate": self.candidate,
            "strategy": self.strategy.value,
            "score": self.score,
        }
