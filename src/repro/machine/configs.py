"""Machine presets.

Three configurations are provided:

* :func:`default_machine_config` — the *scaled* machine used by the default
  experiment campaigns.  Its cache hierarchy keeps the Opteron's structure
  (two levels, 64-byte lines, 2-way L1, 16-way L2) but is scaled down so that
  the paper's in-L1 / out-of-L1 regimes are crossed at transform sizes that a
  pure-Python trace simulation can sweep in seconds: the L1 holds ``2^11``
  doubles (so the default "small" size 2^9 occupies a quarter of L1, just as
  the paper's 2^9 sits comfortably inside the Opteron's L1) and the L2 holds
  ``2^13`` doubles (so the default "large" size 2^13 overflows L1 and exactly
  fills L2).  That is not the paper's regime: its 2^18 doubles are twice the
  Opteron's 1 MB L2, where L2 misses vary across plans; on this machine 2^14
  has that ratio (ROADMAP item 1, DESIGN §2).
* :func:`opteron_like_config` — the full Opteron 244 geometry (64 KB 2-way L1,
  1 MB 16-way L2).  Usable for smaller sweeps or when longer runtimes are
  acceptable.
* :func:`tiny_machine_config` — a very small machine for unit tests, where
  cache boundaries are crossed by transforms of only a few dozen elements.
"""

from __future__ import annotations

from repro.machine.cache import CacheConfig
from repro.machine.cpu import CycleModel, InstructionCostModel
from repro.machine.machine import MachineConfig, SimulatedMachine
from repro.util.rng import RandomState

__all__ = [
    "default_machine_config",
    "default_machine",
    "opteron_like_config",
    "opteron_like",
    "tiny_machine_config",
    "tiny_machine",
    "MACHINE_PRESETS",
]


def default_machine_config(noise_sigma: float = 0.05) -> MachineConfig:
    """The scaled two-level machine used by the default experiments."""
    return MachineConfig(
        name="scaled-opteron",
        l1=CacheConfig(size_bytes=16 * 1024, line_size=64, associativity=2, name="L1d"),
        l2=CacheConfig(size_bytes=64 * 1024, line_size=64, associativity=16, name="L2"),
        instruction_model=InstructionCostModel(),
        cycle_model=CycleModel(noise_sigma=noise_sigma),
    )


def opteron_like_config(noise_sigma: float = 0.05) -> MachineConfig:
    """The paper's Opteron 244 cache geometry (64 KB 2-way L1, 1 MB 16-way L2)."""
    return MachineConfig(
        name="opteron-244",
        l1=CacheConfig(size_bytes=64 * 1024, line_size=64, associativity=2, name="L1d"),
        l2=CacheConfig(size_bytes=1024 * 1024, line_size=64, associativity=16, name="L2"),
        instruction_model=InstructionCostModel(),
        cycle_model=CycleModel(noise_sigma=noise_sigma),
    )


def tiny_machine_config(noise_sigma: float = 0.0) -> MachineConfig:
    """A miniature machine whose cache boundaries sit at tiny transform sizes.

    L1 holds 32 doubles (2^5) and L2 holds 256 doubles (2^8); unit tests can
    exercise in-cache and out-of-cache behaviour with transforms of size 2^4
    to 2^9 in microseconds.  Noise is disabled by default so tests are exact.
    """
    return MachineConfig(
        name="tiny",
        l1=CacheConfig(size_bytes=256, line_size=32, associativity=2, name="L1d"),
        l2=CacheConfig(size_bytes=2048, line_size=32, associativity=4, name="L2"),
        instruction_model=InstructionCostModel(),
        cycle_model=CycleModel(noise_sigma=noise_sigma),
    )


def default_machine(noise_sigma: float = 0.05, rng: RandomState = None) -> SimulatedMachine:
    """A ready-to-use :class:`SimulatedMachine` with the default configuration."""
    return SimulatedMachine(default_machine_config(noise_sigma=noise_sigma), rng=rng)


def opteron_like(noise_sigma: float = 0.05, rng: RandomState = None) -> SimulatedMachine:
    """A ready-to-use machine with the Opteron-like configuration."""
    return SimulatedMachine(opteron_like_config(noise_sigma=noise_sigma), rng=rng)


def tiny_machine(noise_sigma: float = 0.0, rng: RandomState = None) -> SimulatedMachine:
    """A ready-to-use miniature machine for tests and quick examples."""
    return SimulatedMachine(tiny_machine_config(noise_sigma=noise_sigma), rng=rng)


#: Mapping of preset names to configuration factories (used by the CLI-style
#: experiment entry points and by the documentation).
MACHINE_PRESETS = {
    "default": default_machine_config,
    "scaled-opteron": default_machine_config,
    "opteron": opteron_like_config,
    "opteron-244": opteron_like_config,
    "tiny": tiny_machine_config,
}
