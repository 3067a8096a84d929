"""Experiment-scale configuration.

The paper's campaigns use transform sizes 2^9 and 2^18 with 10,000 random
samples each, measured on real hardware.  A pure-Python execution-driven
simulation cannot sweep that scale in interactive time, so every experiment in
this reproduction is parameterised by an :class:`ExperimentScale`:

* :func:`default_scale` — the scaled campaign of the committed suite specs
  (sizes matched to the scaled machine of
  :func:`repro.machine.configs.default_machine_config`).
* :func:`paper_scale` — the paper's true sizes and sample count, for use with
  the Opteron-like machine when long runtimes are acceptable.
* :func:`ci_scale` — a miniature campaign for unit tests.

A suite spec picks one of these presets or overrides single fields
(``"scale": {"sample_count": 2000}``; see :mod:`repro.suite.spec`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_positive_int

__all__ = ["ExperimentScale", "default_scale", "paper_scale", "ci_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by all experiments."""

    #: Exponent of the in-cache ("small") transform size.
    small_size: int = 9
    #: Exponent of the out-of-cache ("large") transform size.
    large_size: int = 13
    #: Largest exponent in the canonical-algorithm sweeps (Figures 1–3).
    canonical_max_size: int = 15
    #: Number of RSU random samples per campaign (the paper uses 10,000).
    #: A batched campaign prepares its samples as one batch, whose int32 line
    #: space counts lines of one set class (see
    #: :meth:`repro.machine.machine.SimulatedMachine.prepare_batch`): 8,192
    #: distinct samples of size 2^21 with 64-byte lines raise on a machine
    #: with one class, 512 times as many on ``opteron``.
    sample_count: int = 400
    #: Base random seed for samplers and the cycle-noise draws.
    seed: int = 20070122

    def __post_init__(self) -> None:
        check_positive_int(self.small_size, "small_size")
        check_positive_int(self.large_size, "large_size")
        check_positive_int(self.canonical_max_size, "canonical_max_size")
        check_positive_int(self.sample_count, "sample_count")
        if self.small_size >= self.large_size:
            raise ValueError(
                f"small_size ({self.small_size}) must be smaller than large_size "
                f"({self.large_size})"
            )

    def with_samples(self, sample_count: int) -> "ExperimentScale":
        """A copy with a different sample count."""
        return replace(self, sample_count=sample_count)

    def describe(self) -> str:
        """One-line summary used in reports."""
        return (
            f"small=2^{self.small_size}, large=2^{self.large_size}, "
            f"canonical sweep up to 2^{self.canonical_max_size}, "
            f"{self.sample_count} samples, seed={self.seed}"
        )


def default_scale() -> ExperimentScale:
    """The scaled campaign of the committed suite specs (see DESIGN.md)."""
    return ExperimentScale()


def paper_scale() -> ExperimentScale:
    """The paper's true campaign sizes (2^9, 2^18, sweep to 2^20, 10,000 samples)."""
    return ExperimentScale(
        small_size=9,
        large_size=18,
        canonical_max_size=20,
        sample_count=10_000,
    )


def ci_scale() -> ExperimentScale:
    """A miniature campaign for fast unit tests (paired with the tiny machine)."""
    return ExperimentScale(
        small_size=4,
        large_size=7,
        canonical_max_size=8,
        sample_count=40,
    )
