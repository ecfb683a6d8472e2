"""Runtime: the programming API and thread driver for simulated apps."""

from repro.runtime.env import Env
from repro.runtime.runner import RunResult, Runtime
from repro.runtime.shared import SharedArray

__all__ = [
    "Env",
    "Runtime",
    "RunResult",
    "SharedArray",
]
