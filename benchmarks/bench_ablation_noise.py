"""Ablation — measurement-noise level of the cycle model.

The cycle model adds multiplicative noise standing in for the run-to-run
variance of real hardware measurements.  This ablation recomputes the headline
correlations of Section 4 with the noise disabled and at twice the default
level, showing how much of the correlation gap is intrinsic (cache behaviour)
versus measurement noise.
"""

from __future__ import annotations

from _bench_utils import run_once

import repro
from repro.analysis.pearson import pearson_correlation
from repro.machine.configs import default_machine
from repro.models.combined import optimize_combined_model
from repro.util.tables import format_table


def test_ablation_cycle_noise_level(benchmark, scale):
    sample_count = max(scale.sample_count // 2, 50)
    n = scale.large_size

    def run():
        rows = []
        for sigma in (0.0, 0.05, 0.10):
            machine = default_machine(noise_sigma=sigma)
            table = repro.session(machine=machine, scale=scale).campaign(n, sample_count)
            rho_i = pearson_correlation(table.instructions, table.cycles)
            rho_m = pearson_correlation(table.l1_misses, table.cycles)
            _, _, rho_c = optimize_combined_model(
                table.instructions, table.l1_misses, table.cycles
            ).best
            rows.append([sigma, rho_i, rho_m, rho_c])
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["noise sigma", "rho(I, cyc)", "rho(M, cyc)", "rho(combined, cyc)"],
            rows,
            title=f"Ablation: cycle-model noise, size 2^{n}, {sample_count} samples",
        )
    )

    noise_free, default, doubled = rows
    # Even with zero measurement noise the instruction-only correlation is
    # imperfect out of cache (the gap is structural: it comes from misses).
    assert noise_free[1] < 0.999
    # More noise can only weaken the correlations.
    assert doubled[1] <= noise_free[1] + 0.02
    assert doubled[3] <= noise_free[3] + 0.02
    # The combined model stays ahead of instructions alone at every noise level.
    for _, rho_i, _, rho_c in rows:
        assert rho_c >= rho_i - 1e-9
