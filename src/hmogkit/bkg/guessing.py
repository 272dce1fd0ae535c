"""How hard is it to open someone else's commitment with your own biometrics.

The attacker holds every user's commitment and password and a probe vector
per user. The input is a table that says which probe opens which
commitment, and this module opens nothing itself. For a target, probes are
tried in a fixed global order: users ranked by how many foreign commitments
their probe opens (most first, ties by user id). The guessing distance of a
target is log2 of the attempt number at which it first opens; targets no
foreign probe opens count as not guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# bound here as well as in experiments: the benchmark's tracer wraps both names
from .commitment import open_commitment  # noqa: F401


@dataclass(frozen=True)
class GuessingReport:
    distances: dict[str, float]      # guessed targets only
    not_guessed: tuple[str, ...]

    @property
    def mean_distance(self) -> float:
        if not self.distances:
            return float("nan")
        return sum(self.distances.values()) / len(self.distances)

    @property
    def not_guessed_pct(self) -> float:
        total = len(self.distances) + len(self.not_guessed)
        return 100.0 * len(self.not_guessed) / total if total else 0.0


def guessing_distance(opened, users: Sequence[str]) -> GuessingReport:
    """opened[j, i]: does users[j]'s probe open users[i]'s commitment. The
    table is square, and users names each of its users once."""
    opened = np.asarray(opened, dtype=bool)
    if opened.shape != (len(users), len(users)) or len(set(users)) != len(users):
        raise ValueError("the table must cover the same users on both axes")
    foreign_opens = opened.sum(axis=1) - opened.diagonal()
    order = sorted(range(len(users)), key=lambda j: (-foreign_opens[j], users[j]))
    distances: dict[str, float] = {}
    missed: list[str] = []
    for t in sorted(range(len(users)), key=users.__getitem__):
        hit = next((k for k, j in enumerate((j for j in order if j != t), start=1)
                    if opened[j, t]), None)
        if hit is None:
            missed.append(users[t])
        else:
            distances[users[t]] = math.log2(hit)
    return GuessingReport(distances=distances, not_guessed=tuple(missed))
