"""§7.2 "Temporary vs. Permanent Materialization".

The paper classifies every materialized result by its cheaper refresh
strategy: recomputation (→ temporary materialization) vs incremental
maintenance (→ permanent materialization).  Its headline numbers: out of
1600 results overall about 1000 preferred recomputation and 600 maintenance;
at 1–5% update rates the split was 281:306 (maintenance-leaning), while at
50–90% it flipped to 360:88 in favour of recomputation.

We reproduce the *direction* of that flip: at low update rates a clear
majority of results prefers incremental maintenance, at high update rates a
clear majority prefers recomputation.
"""

from repro.bench.experiments import run_temp_vs_perm
from benchmarks.helpers import write_comparison


def test_temp_vs_perm_flip_with_update_rate():
    """Low update rates favour maintenance; high update rates favour recomputation."""
    result = run_temp_vs_perm(update_percentages=(0.01, 0.05, 0.50, 0.90))
    write_comparison(
        "tempperm",
        "tempperm: materialized results classified by cheaper refresh strategy",
        {
            "overall_temporary(recompute)": result.overall.temporary,
            "overall_permanent(maintain)": result.overall.permanent,
            "low_update_temporary": result.low_update.temporary,
            "low_update_permanent": result.low_update.permanent,
            "high_update_temporary": result.high_update.temporary,
            "high_update_permanent": result.high_update.permanent,
        },
    )
    assert result.overall.total > 0
    # At 1-5% update rates incremental maintenance dominates (paper: 281:306).
    assert result.low_update.permanent >= result.low_update.temporary
    # At 50-90% update rates recomputation dominates (paper: 360:88).
    assert result.high_update.temporary > result.high_update.permanent
