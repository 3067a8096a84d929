"""The numbers the paper reports, and the claims the reproduction checks.

The ``PAPER_*`` constants are transcribed from the paper text and captions
(Andrews & Johnson, IPPS 2007).  :data:`CLAIMS` states each finding the
reproduction is judged by -- one entry per figure plus the correlation and
space-size tables -- beside the paper's number and a predicate over the
finished suite units' artifacts that returns the reproduced number and
whether the claim holds (see DESIGN.md section 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.config import ExperimentScale
from repro.models.theory import rsu_instruction_moments

__all__ = [
    "PAPER_SMALL_SIZE",
    "PAPER_LARGE_SIZE",
    "PAPER_SAMPLE_COUNT",
    "PAPER_RHO_SMALL_INSTRUCTIONS",
    "PAPER_RHO_LARGE_INSTRUCTIONS",
    "PAPER_RHO_LARGE_MISSES",
    "PAPER_RHO_LARGE_COMBINED",
    "PAPER_BEST_ALPHA",
    "PAPER_BEST_BETA",
    "PAPER_CROSSOVER_SIZE",
    "PAPER_L1_BOUNDARY_SIZE",
    "PAPER_PRUNING_EXAMPLE",
    "PAPER_MACHINE",
    "PAPER_HISTOGRAM_BINS",
    "PAPER_PERCENTILES",
    "Claim",
    "CLAIMS",
]

#: Transform sizes of the two sampling campaigns (exponents of 2).
PAPER_SMALL_SIZE = 9
PAPER_LARGE_SIZE = 18

#: Random samples per campaign.
PAPER_SAMPLE_COUNT = 10_000

#: Correlation between instruction count and cycles for the in-L1 size (Fig. 6).
PAPER_RHO_SMALL_INSTRUCTIONS = 0.96

#: Correlation between instruction count and cycles for the out-of-L1 size (Fig. 7).
PAPER_RHO_LARGE_INSTRUCTIONS = 0.77

#: Correlation between L1 cache misses and cycles for the out-of-L1 size (Fig. 8).
PAPER_RHO_LARGE_MISSES = 0.66

#: Correlation of the optimal combined model for the out-of-L1 size (Fig. 9).
PAPER_RHO_LARGE_COMBINED = 0.92

#: Optimal combined-model coefficients on the paper's 0.05-step grid (Fig. 9).
PAPER_BEST_ALPHA = 1.00
PAPER_BEST_BETA = 0.05

#: Size exponent at which recursive algorithms overtake the iterative one
#: (Figure 1: "the cross over occurs at the L2 cache boundary").
PAPER_CROSSOVER_SIZE = 18

#: Size exponent of the L1 boundary on the paper's Opteron (Figure 3: the
#: iterative algorithm has the fewest misses up to this size).
PAPER_L1_BOUNDARY_SIZE = 14

#: The pruning example of Figure 10: to stay within 5% of the best at size
#: 2^9, algorithms with more than 7e4 instructions can be discarded.
PAPER_PRUNING_EXAMPLE = {"size": 9, "percentile": 5.0, "instruction_threshold": 7e4}

#: Hardware and toolchain of the paper's measurements.
PAPER_MACHINE = {
    "cpu": "AMD Opteron 244, 1.8 GHz, single core, 64-bit",
    "l1": "64 KB, 2-way set associative",
    "l2": "1 MB, 16-way set associative",
    "counters": "PAPI 3.x",
    "compiler": "gcc 3.4.4 -march=opteron -m64 -O2 -fomit-frame-pointer -fstrict-aliasing",
}

#: Histogram bin count used in Figures 4 and 5.
PAPER_HISTOGRAM_BINS = 50

#: Performance percentiles plotted in Figures 10 and 11.
PAPER_PERCENTILES = (1.0, 5.0, 10.0)



#: Finished suite units' JSON artifacts, keyed by experiment id.
Artifacts = Mapping[str, Mapping[str, Any]]


@dataclass(frozen=True)
class Claim:
    """One finding of the paper and the check that decides it."""

    statement: str
    #: The paper's number (``None`` where the paper states no number).
    paper: Any
    #: ``check(artifacts, scale) -> (reproduced, holds)``.
    check: Callable[[Artifacts, ExperimentScale], tuple[Any, bool]]


def _figure1(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure1"]
    sizes, ratios, crossover = unit["sizes"], unit["ratios"], unit["crossover"]
    l1_boundary, l2_boundary = unit["l1_boundary"], unit["l2_boundary"]
    # The crossover happens only once the transform overflows the caches: at
    # or just beyond the L1/L2 boundaries on the scaled machine.
    holds = crossover is not None and l1_boundary < crossover <= l2_boundary + 2
    # In cache the iterative algorithm is the closest to the best plan ...
    holds = holds and all(
        ratios["iterative"][i] <= ratios["left"][i] + 1e-6
        for i, n in enumerate(sizes)
        if 4 <= n <= l1_boundary
    )
    # ... and out of cache the right recursive algorithm beats the left one.
    holds = holds and all(
        ratios["right"][i] < ratios["left"][i] for i, n in enumerate(sizes) if n > l2_boundary
    )
    return crossover, holds


def _figure2(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure2"]
    ratios = unit["ratios"]
    holds = all(
        ratios["iterative"][i] <= ratios["right"][i] + 1e-9
        and ratios["right"][i] <= ratios["left"][i] + 1e-9
        for i, n in enumerate(unit["sizes"])
        if n >= 2
    )
    return ratios["left"][-1] / ratios["iterative"][-1], holds


def _figure3(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure3"]
    sizes, l1_boundary = unit["sizes"], unit["l1_boundary"]
    iterative, right, left = (unit["values"][name] for name in ("iterative", "right", "left"))
    # Inside L1 every plan takes the same cold misses; beyond it the iterative
    # algorithm no longer has the fewest.
    holds = all(
        iterative[i] == right[i] == left[i] for i, n in enumerate(sizes) if n <= l1_boundary
    ) and all(right[i] < iterative[i] for i, n in enumerate(sizes) if n > l1_boundary + 1)
    fewest_until = max(
        n for i, n in enumerate(sizes) if iterative[i] <= min(right[i], left[i])
    )
    return fewest_until, holds


def _figure4(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure4"]
    cycles, instructions = unit["summaries"]["cycles"], unit["summaries"]["instructions"]
    skew_gap = abs(cycles["skewness"] - instructions["skewness"])
    cv_gap = abs(cycles["coefficient_of_variation"] - instructions["coefficient_of_variation"])
    holds = (
        unit["metrics"] == ["cycles", "instructions"]
        and unit["n"] == scale.small_size
        and skew_gap < 0.75
        and cv_gap < 0.15
    )
    return skew_gap, holds


def _figure5(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure5"]
    summaries = unit["summaries"]
    cycles, instructions = summaries["cycles"], summaries["instructions"]
    skew_gap = cycles["skewness"] - instructions["skewness"]
    holds = (
        unit["metrics"] == ["cycles", "instructions", "l1_misses"]
        and unit["n"] == scale.large_size
        and summaries["l1_misses"]["coefficient_of_variation"]
        > instructions["coefficient_of_variation"]
        and abs(skew_gap) > 0.0
    )
    return skew_gap, holds


def _figure6(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure6"]
    holds = (
        unit["count"] == scale.sample_count
        and unit["correlation"] > 0.9
        and {"iterative", "left", "right", "best"} <= set(unit["references"])
    )
    return unit["correlation"], holds


def _figure7(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure7"]
    rho = unit["correlation"]
    # The left recursive algorithm's cycle count exceeds almost the whole sample.
    holds = (
        0.0 < rho < artifacts["figure6"]["correlation"]
        and unit["references"]["left"][1] > unit["y_p95"]
    )
    return rho, holds


def _figure8(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    rho = artifacts["figure8"]["correlation"]
    return rho, 0.0 < rho < artifacts["figure9"]["best"]["rho"]


def _figure9(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure9"]
    best = unit["best"]
    holds = (
        best["rho"] >= unit["rho_instructions"]
        and best["rho"] >= unit["rho_misses"]
        and best["rho"] > 0.85
        and best["beta"] > 0.0
    )
    return best["rho"], holds


def _pruning_curves_reach_limits(unit: Mapping[str, Any]) -> bool:
    return all(abs(c["final_cumulative"] - c["limit"]) < 0.02 for c in unit["curves"])


def _figure10(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure10"]
    top5 = unit["safe_thresholds"]["5"]
    holds = (
        unit["n"] == scale.small_size
        and _pruning_curves_reach_limits(unit)
        and top5["threshold"] < unit["max_model_value"]
        and top5["discarded"] > 0.25
    )
    return top5["threshold"], holds


def _figure11(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["figure11"]
    discarded = unit["safe_thresholds"]["5"]["discarded"]
    holds = (
        unit["n"] == scale.large_size
        and "Instructions" in unit["model_label"]
        and "Misses" in unit["model_label"]
        and _pruning_curves_reach_limits(unit)
        and discarded > 0.2
        and discarded >= unit["instructions_baseline"]["5"]["discarded"] - 0.15
    )
    return discarded, holds


def _correlations(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    unit = artifacts["correlations"]
    holds = (
        unit["satisfies_paper_ordering"]
        and unit["rho_small_instructions"] > 0.9
        and unit["rho_large_instructions"] < unit["rho_small_instructions"]
        and unit["rho_large_combined"] > 0.85
    )
    reproduced = tuple(
        unit[f"rho_{which}"]
        for which in ("small_instructions", "large_instructions", "large_misses", "large_combined")
    )
    return reproduced, holds


def _theory(artifacts: Artifacts, scale: ExperimentScale) -> tuple[Any, bool]:
    rows = artifacts["theory"]["rows"]
    counts = [row["count"] for row in rows]
    # Strictly growing, and growing faster than 4^n but no faster than 7^n.
    holds = all(b > a for a, b in zip(counts, counts[1:]))
    holds = holds and all(4.0 <= b / a <= 7.2 for a, b in zip(counts[4:], counts[5:]))
    # The instruction-count extremes differ from n = 2 on, and at n = 10 they
    # bracket the exact RSU mean.
    holds = holds and all(
        row["min_instructions"] < row["max_instructions"] for row in rows if row["n"] >= 2
    )
    row10 = next(row for row in rows if row["n"] == 10)
    mean10 = rsu_instruction_moments(10).mean
    holds = holds and row10["min_instructions"] <= mean10 <= row10["max_instructions"]
    return rows[-1]["growth"], holds


#: One entry per paper experiment (``repro.suite.figures.PAPER_EXPERIMENTS``).
CLAIMS: dict[str, Claim] = {
    "figure1": Claim(
        "iterative fastest in cache; right recursive overtakes it past the cache "
        "boundaries and beats the left recursive algorithm (crossover size)",
        PAPER_CROSSOVER_SIZE,
        _figure1,
    ),
    "figure2": Claim(
        "iterative has the lowest instruction count at every size, left recursive the "
        "highest (left/iterative at the largest size)",
        None,
        _figure2,
    ),
    "figure3": Claim(
        "canonical algorithms take the same cold misses inside L1; beyond it the "
        "iterative algorithm no longer has the fewest (last size it has the fewest)",
        PAPER_L1_BOUNDARY_SIZE,
        _figure3,
    ),
    "figure4": Claim(
        "cycle and instruction histograms have very similar shapes in cache "
        "(skewness gap)",
        None,
        _figure4,
    ),
    "figure5": Claim(
        "out of cache the cycle histogram acquires skew the instruction histogram "
        "lacks, from the wider miss distribution (skewness gap)",
        None,
        _figure5,
    ),
    "figure6": Claim(
        "instructions and cycles correlate strongly in cache (rho)",
        PAPER_RHO_SMALL_INSTRUCTIONS,
        _figure6,
    ),
    "figure7": Claim(
        "the instruction/cycle correlation drops out of cache; left recursive lies "
        "beyond the sample (rho)",
        PAPER_RHO_LARGE_INSTRUCTIONS,
        _figure7,
    ),
    "figure8": Claim(
        "misses alone correlate positively but below the combined model (rho)",
        PAPER_RHO_LARGE_MISSES,
        _figure8,
    ),
    "figure9": Claim(
        f"alpha*I + beta*M with beta > 0 restores a correlation near the in-cache "
        f"level; the paper's optimum is ({PAPER_BEST_ALPHA:.2f}, {PAPER_BEST_BETA:.2f}) "
        f"(best rho)",
        PAPER_RHO_LARGE_COMBINED,
        _figure9,
    ),
    "figure10": Claim(
        "a threshold well below the maximum instruction count keeps every top-5% "
        "algorithm and discards a substantial tail (safe threshold)",
        PAPER_PRUNING_EXAMPLE["instruction_threshold"],
        _figure10,
    ),
    "figure11": Claim(
        "the same pruning works out of cache once misses enter the model "
        "(fraction discarded)",
        None,
        _figure11,
    ),
    "correlations": Claim(
        "in-cache rho(I) > out-of-cache rho(I), and the combined model restores it "
        "(rho: small I, large I, large M, combined)",
        (
            PAPER_RHO_SMALL_INSTRUCTIONS,
            PAPER_RHO_LARGE_INSTRUCTIONS,
            PAPER_RHO_LARGE_MISSES,
            PAPER_RHO_LARGE_COMBINED,
        ),
        _correlations,
    ),
    "theory": Claim(
        "the algorithm space grows between 4^n and ~7^n and the instruction-count "
        "extremes bracket the RSU mean (growth ratio at the largest size)",
        None,
        _theory,
    ),
}
