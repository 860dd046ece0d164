"""Figure 7: cumulative share of dynamically accessed states vs out-degree.

Paper: although the maximum out-degree is 770, 97% of the states fetched
from memory during decoding have 15 or fewer arcs -- the observation the
Section IV-B bandwidth optimisation is built on.
"""

import numpy as np

from benchmarks.common import format_table, report

DEGREES = (1, 2, 4, 8, 15, 16, 32, 64, 770)
PAPER_AT_15 = 97.0


def compute(comparison):
    histogram = comparison.runs["CPU"].search.degree_histogram
    cdf = 100.0 * np.cumsum(histogram) / histogram.sum()
    rows = [[d, float(cdf[min(d, cdf.size - 1)])] for d in DEGREES]
    return rows, int(np.flatnonzero(histogram)[-1])


def test_fig07_state_arcs_cdf(std_comparison):
    rows, max_degree = compute(std_comparison)
    text = format_table(
        f"Figure 7 -- cumulative %% of dynamically fetched states vs arcs "
        f"(paper: 97% <= 15 arcs; max degree here {max_degree})",
        ["<= arcs", "measured cumulative %"],
        rows,
    )
    report("fig07_state_arcs_cdf", text)

    cdf = dict((r[0], r[1]) for r in rows)
    # Shape: the overwhelming majority of visited states are small.
    assert cdf[15] > 85.0
    # The tail exists but is tiny.
    assert cdf[770] == 100.0
    assert cdf[1] < cdf[15]
