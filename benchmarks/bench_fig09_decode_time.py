"""Figure 9: decoding time per second of speech for all six platforms.

Paper values (seconds of decode per second of speech, read off the figure):
CPU ~0.30, GPU ~0.031, ASIC ~0.035, ASIC+State ~0.034, ASIC+Arc ~0.019,
ASIC+State&Arc ~0.018.  All systems are real-time (< 1 s/s).
"""

from benchmarks.common import PLATFORM_ORDER, format_table, report

PAPER_S_PER_S = {
    "CPU": 0.298,
    "GPU": 0.0305,
    "ASIC": 0.0347,
    "ASIC+State": 0.0339,
    "ASIC+Arc": 0.0186,
    "ASIC+State&Arc": 0.0179,
}


def compute(comparison):
    rows = []
    for name in PLATFORM_ORDER:
        r = comparison.runs[name]
        rows.append(
            [
                name,
                PAPER_S_PER_S[name],
                r.decode_time_per_speech_second,
                "yes" if r.realtime else "NO",
            ]
        )
    return rows


def test_fig09_decode_time(std_comparison):
    rows = compute(std_comparison)
    text = format_table(
        "Figure 9 -- decode time per second of speech",
        ["platform", "paper (s/s)", "measured (s/s)", "real-time"],
        rows,
    )
    report("fig09_decode_time", text)

    measured = {r[0]: r[2] for r in rows}
    # Shape: every system decodes in real time.
    assert all(v < 1.0 for v in measured.values())
    # CPU is an order of magnitude slower than everything else.
    assert measured["CPU"] > 5 * measured["GPU"]
    # The prefetching configurations are the fastest.
    assert measured["ASIC+State&Arc"] < measured["ASIC"]
    assert measured["ASIC+Arc"] < measured["ASIC"]
