"""Decoding through the timing proxy changes nothing but the clock."""

import numpy as np

from repro.datasets import SyntheticGraphConfig
from repro.decoder.kernel import DecoderConfig
from repro.graph import GraphRecipe, compile_graph
from repro.system import StreamingServer, make_memory_workload

from benchmarks.e2e.harness import install_spans
from benchmarks.e2e.tracing import BACKEND_OPS, Tracer


def _serve(server, scores, partials):
    sids = [server.open_session() for _ in scores]
    partial_words = []
    for start in range(0, scores[0].num_frames, 10):
        for sid, s in zip(sids, scores):
            server.push(sid, s.matrix[start:start + 10])
        server.drain()
        if partials:
            partial_words.append([server.partial(sid).words for sid in sids])
    for sid in sids:
        server.close_input(sid)
    server.drain()
    return [server.result(sid) for sid in sids], partial_words


def test_decode_through_the_proxy_is_bit_identical():
    graph = compile_graph(
        GraphRecipe.synthetic_graph(
            SyntheticGraphConfig(num_states=1500, num_phones=30, seed=5)
        )
    ).graph
    workload = make_memory_workload(
        num_utterances=3, frames_per_utterance=120, beam=8.0, max_active=200,
        seed=9, graph=graph,
    )
    config = DecoderConfig(beam=8.0, max_active=200, commit_interval=25)

    plain, plain_partials = _serve(
        StreamingServer(graph, config), workload.scores, partials=True
    )
    server = StreamingServer(graph, config)
    tracer = Tracer()
    proxy, restore = install_spans(server, tracer)
    try:
        traced, traced_partials = _serve(server, workload.scores, partials=True)
    finally:
        restore()

    assert traced_partials == plain_partials
    for a, b in zip(plain, traced):
        assert a.result.words == b.result.words
        assert a.result.log_likelihood == b.result.log_likelihood
        assert a.result.committed_len == b.result.committed_len
        for counter in ("arcs_processed", "epsilon_arcs_processed",
                        "tokens_created", "tokens_pruned"):
            assert getattr(a.result.stats, counter) == getattr(b.result.stats, counter)
        assert list(a.result.stats.active_tokens_per_frame) == list(
            b.result.stats.active_tokens_per_frame
        )
        assert a.stats.trace_peak_bytes == b.stats.trace_peak_bytes

    totals = tracer.totals()
    assert totals["kernel.sweep"][0] == 120      # one fused sweep per frame
    assert totals["traceback.commit"][0] > 0
    assert totals["backend.trace_reachable"][0] == totals["traceback.commit"][0]
    assert totals["backend.expand_fused"][0] == 120
    assert proxy.rows_gathered > 0
    assert {n for n in totals if n.startswith("backend.")} <= {
        "backend." + op for op in BACKEND_OPS
    }

    # restore() put everything back: a new decode records nothing.
    spans = len(tracer)
    assert server.decoder.kernel.backend is proxy._inner
    _serve(StreamingServer(graph, config), workload.scores, partials=False)
    assert len(tracer) == spans


def test_proxy_reports_the_inner_backend_name():
    from repro.decoder.backends import resolve_backend
    from benchmarks.e2e.tracing import TimingBackend

    inner = resolve_backend("numpy")
    proxy = TimingBackend(inner, Tracer())
    assert proxy.name == "numpy"
    first = np.array([0, 3], dtype=np.int64)
    counts = np.array([2, 1], dtype=np.int64)
    got = proxy.csr_gather(first, counts)
    want = inner.csr_gather(first, counts)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert proxy.rows_gathered == 3
