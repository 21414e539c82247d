"""Maximum-likelihood identification over a finite candidate set.

The use case: a student watches an agent act and identifies which of a
few known behavioural models (labelled by an integer parameter) produced
the actions. The action-count vector is a sufficient statistic for an
i.i.d. categorical likelihood, so the correction process plugs in here
unchanged, with the terminal reward swapped for an identification score.
Only the model lives here; ``experiments.run_bio`` samples and replays.

Candidate sets ship as data files, not code constants, so other forward
models drop in without edits. The default set has three models over four
actions, labelled 1, 4 and 8.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .core import Categorical, ConfigError, CountVector
from .mdp import TerminalReward

CANDIDATE_FILE_VERSION = 1


@dataclass(frozen=True)
class CandidateModel:
    theta: int
    action_dist: Categorical


@dataclass(frozen=True)
class CandidateSet:
    models: tuple[CandidateModel, ...]

    def __post_init__(self) -> None:
        if len(self.models) < 2:
            raise ValueError("need at least two candidate models")
        labels = [m.theta for m in self.models]
        if len(set(labels)) != len(labels):
            raise ValueError("candidate labels must be distinct")
        counts = {m.action_dist.k for m in self.models}
        if len(counts) != 1:
            raise ValueError("all candidates must share one action count")

    def labels(self) -> tuple[int, ...]:
        return tuple(m.theta for m in self.models)

    def by_label(self, theta: int) -> CandidateModel:
        for m in self.models:
            if m.theta == theta:
                return m
        raise KeyError(f"no candidate labelled {theta}")

    @classmethod
    def from_file(cls, path: str | Path) -> "CandidateSet":
        return _parse_candidates(Path(path).read_bytes(), str(path))


def _parse_candidates(raw: bytes, source: str) -> CandidateSet:
    """Candidate set from the UTF-8 JSON bytes of ``source``; a ``ConfigError``
    names the file and, for an undecodable or wrongly shaped document, the fault."""
    try:
        data = json.loads(raw.decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError(f"must hold a JSON object, got {type(data).__name__}")
        if data.get("version") != CANDIDATE_FILE_VERSION:
            raise ValueError(f"unsupported candidate file version {data.get('version')!r}")
        models = data.get("models")
        if not (isinstance(models, list) and all(isinstance(m, dict) for m in models)):
            raise ValueError(f"field 'models' must be a list of objects, got {models!r}")
        for i, m in enumerate(models):
            if type(m.get("theta")) is not int:
                raise ValueError(f"field 'models[{i}].theta' must be an integer")
            probs = m.get("probs")
            if not (isinstance(probs, list) and all(type(p) in (int, float) for p in probs)):
                raise ValueError(f"field 'models[{i}].probs' must be a list of numbers")
        return CandidateSet(tuple(
            CandidateModel(m["theta"], Categorical(tuple(m["probs"]))) for m in models
        ))
    except ValueError as exc:
        raise ConfigError(f"candidate file {source}: {exc}") from None


def default_candidates() -> CandidateSet:
    path = resources.files("corrlearn").joinpath("data/candidates_default.json")
    return _parse_candidates(path.read_bytes(), str(path))


def negative_log_likelihood(counts: CountVector, model: CandidateModel) -> float:
    """-sum_a counts[a] * ln p(a); +inf when an impossible action was seen.

    Infinity is a value here, not an error: it just rules the model out.
    """
    if counts.k != model.action_dist.k:
        raise ValueError(f"dimension mismatch: {counts.k} vs {model.action_dist.k}")
    total = 0.0
    for c, p in zip(counts.counts, model.action_dist.probs):
        if c == 0:
            continue
        if p == 0.0:
            return math.inf
        total -= c * math.log(p)
    return total


def ml_estimate(counts: CountVector, candidates: CandidateSet) -> int | None:
    """Label of the candidate minimising the negative log likelihood, or
    None for counts that no candidate explains.

    Ties break to the smallest label.
    """
    if counts.total < 1:
        raise ValueError("no observations")
    best = math.inf
    best_label: int | None = None
    for model in sorted(candidates.models, key=lambda m: m.theta):
        nll = negative_log_likelihood(counts, model)
        if nll < best:
            best = nll
            best_label = model.theta
    return best_label


def bio_terminal_reward(theta0_label: int, candidates: CandidateSet) -> TerminalReward:
    """Identification reward on final counts: -|estimate - theta0|, or the
    worst misidentification for counts that no candidate explains."""
    candidates.by_label(theta0_label)  # raises KeyError for unknown labels
    worst = max(abs(label - theta0_label) for label in candidates.labels())

    def evaluate(counts: CountVector) -> float:
        label = ml_estimate(counts, candidates)
        return -worst if label is None else -abs(label - theta0_label)

    return TerminalReward(evaluate)
