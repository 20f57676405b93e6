"""Gym-style RL environments for the cache guessing game.

The environment implements the paper's formulation (Sec. III-B): the agent
controls an attacker that accesses/flushes cache lines, triggers a victim
whose access depends on a hidden secret address, and finally guesses the
secret.  Observations are a sliding window of (latency, action, step,
victim-triggered) tuples; rewards follow Table II.
"""

from repro.env.config import EnvConfig, RewardConfig
from repro.env.actions import Action, ActionKind, ActionSpace
from repro.env.observation import ObservationEncoder, LatencyObservation
from repro.env.spaces import Discrete, Box
from repro.env.backends import (
    CacheBackend,
    SimulatedCacheBackend,
    HierarchyBackend,
    make_backend,
)
from repro.env.protocol import Env
from repro.env.guessing_game import CacheGuessingGameEnv, StepResult
from repro.env.batched_env import BatchedGuessingGame, config_supports_batching
from repro.env.covert_env import MultiGuessCovertEnv
from repro.env.wrappers import (
    EnvWrapper,
    MissCountDetectionWrapper,
    AutocorrelationPenaltyWrapper,
    SVMDetectionWrapper,
)
from repro.env.hardware_env import BlackboxHardwareEnv

__all__ = [
    "EnvConfig",
    "RewardConfig",
    "Action",
    "ActionKind",
    "ActionSpace",
    "ObservationEncoder",
    "LatencyObservation",
    "Discrete",
    "Box",
    "CacheBackend",
    "SimulatedCacheBackend",
    "HierarchyBackend",
    "make_backend",
    "Env",
    "CacheGuessingGameEnv",
    "StepResult",
    "BatchedGuessingGame",
    "config_supports_batching",
    "MultiGuessCovertEnv",
    "EnvWrapper",
    "MissCountDetectionWrapper",
    "AutocorrelationPenaltyWrapper",
    "SVMDetectionWrapper",
    "BlackboxHardwareEnv",
]
