"""Budget-constrained correction of discrete observation streams.

A student estimates a categorical parameter from observations; a teacher
who knows the true parameter may intercept and re-label a limited number
of them. The package provides the exact optimal online teacher (finite
horizon dynamic programming over the enumerated decision process), the
offline batch corrector it is compared against, concentration bounds on
the achievable variance reduction, a likelihood-based identification
variant, and seeded experiment runners behind a CLI.
"""

from .batch import batch_correct
from .core import Categorical, sample_sequence, spawn
from .dp import solve
from .mdp import MdpSpec, l1_terminal_reward
from .teacher import replay_all

__version__ = "0.1.0"

__all__ = [
    "Categorical",
    "MdpSpec",
    "batch_correct",
    "l1_terminal_reward",
    "replay_all",
    "sample_sequence",
    "solve",
    "spawn",
]
