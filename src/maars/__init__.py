"""Multi-rate attack-aware randomized scheduling toolkit."""

from importlib import resources
from pathlib import Path

__version__ = "0.1.0"

DEFAULT_DECAY_RATE = -0.5  # target continuous-time decay rate (1/s)


def data_path(*parts: str) -> Path:
    """Path to a bundled data file, e.g. data_path('tasksets', 'minimal.json')."""
    return Path(resources.files("maars") / "data" / Path(*parts))
