"""Tables I, II and III: hardware parameters of the three platforms.

These are configuration tables rather than measurements; the benchmark
asserts that our defaults reproduce every row and prints them side by side.
"""

from benchmarks.common import format_table, report
from repro.accel import AcceleratorConfig
from repro.energy import INTEL_I7_6700K
from repro.gpu import GTX980


def compute():
    acc = AcceleratorConfig()
    t1 = [
        ["Technology", "28 nm", f"{acc.technology_nm} nm"],
        ["Frequency", "600 MHz", f"{acc.frequency_hz / 1e6:.0f} MHz"],
        ["State Cache", "512 KB, 4-way, 64 B/line",
         f"{acc.state_cache.size_bytes // 1024} KB, {acc.state_cache.assoc}-way, "
         f"{acc.state_cache.line_bytes} B/line"],
        ["Arc Cache", "1 MB, 4-way, 64 B/line",
         f"{acc.arc_cache.size_bytes // 2**20} MB, {acc.arc_cache.assoc}-way, "
         f"{acc.arc_cache.line_bytes} B/line"],
        ["Token Cache", "512 KB, 2-way, 64 B/line",
         f"{acc.token_cache.size_bytes // 1024} KB, {acc.token_cache.assoc}-way, "
         f"{acc.token_cache.line_bytes} B/line"],
        ["Acoustic Likelihood Buffer", "64 KB",
         f"{acc.acoustic_buffer_bytes // 1024} KB"],
        ["Hash Table", "768 KB, 32K entries",
         f"{acc.hash_table.size_bytes // 1024} KB, "
         f"{acc.hash_table.num_entries // 1024}K entries"],
        ["Memory Controller", "32 in-flight requests",
         f"{acc.mem_max_inflight} in-flight requests"],
        ["State Issuer", "8 in-flight states",
         f"{acc.state_issuer_inflight} in-flight states"],
        ["Arc Issuer", "8 in-flight arcs",
         f"{acc.arc_issuer_inflight} in-flight arcs"],
        ["Token Issuer", "32 in-flight tokens",
         f"{acc.token_issuer_inflight} in-flight tokens"],
        ["Acoustic Likelihood Issuer", "1 in-flight arc",
         f"{acc.acoustic_issuer_inflight} in-flight arc"],
        ["Likelihood Evaluation Unit", "4 fp adders, 2 fp comparators",
         f"{acc.fp_adders} fp adders, {acc.fp_comparators} fp comparators"],
    ]
    t2 = [
        ["CPU", "Intel Core i7 6700K", INTEL_I7_6700K.name],
        ["Number of cores", "4", str(INTEL_I7_6700K.num_cores)],
        ["Technology", "14 nm", f"{INTEL_I7_6700K.technology_nm} nm"],
        ["Frequency", "4.2 GHz", f"{INTEL_I7_6700K.frequency_hz / 1e9:.1f} GHz"],
        ["L3", "8 MB", f"{INTEL_I7_6700K.l3_mb} MB"],
    ]
    t3 = [
        ["GPU", "NVIDIA GeForce GTX 980", GTX980.name],
        ["Streaming multiprocessors", "16 (2048 threads/SM)",
         f"{GTX980.num_sms} ({GTX980.threads_per_sm} threads/SM)"],
        ["Technology", "28 nm", f"{GTX980.technology_nm} nm"],
        ["Frequency", "1.28 GHz", f"{GTX980.frequency_hz / 1e9:.2f} GHz"],
        ["L2 cache", "2 MB", f"{GTX980.l2_mb} MB"],
    ]
    return t1, t2, t3


def test_tables_1_2_3():
    t1, t2, t3 = compute()
    text = "\n\n".join(
        [
            format_table("Table I -- accelerator parameters",
                         ["parameter", "paper", "ours"], t1),
            format_table("Table II -- CPU parameters",
                         ["parameter", "paper", "ours"], t2),
            format_table("Table III -- GPU parameters",
                         ["parameter", "paper", "ours"], t3),
        ]
    )
    report("tables_1_2_3", text)
    for table in (t1, t2, t3):
        for _param, paper, ours in table:
            # Normalised equality: every row of ours matches the paper.
            assert paper.replace(" ", "").lower() == ours.replace(" ", "").lower(), (
                paper, ours
            )
