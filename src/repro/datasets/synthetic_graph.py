"""Large random decoding graphs with Kaldi-like statistics.

Composition of a real lexicon and LM cannot practically reach the paper's
graph scale (13.7M states, 34.8M arcs) in pure Python, so the memory-system
experiments use graphs generated directly with the published statistics:

* arc/state ratio ≈ 2.55 (34M arcs / 13.4M states),
* heavily skewed out-degrees (most states small, max 770; 95%+ of states
  directly addressable with N = 16 -- paper, Section IV-B and Figure 7),
* ≈ 11.5% epsilon arcs (paper, Section II),
* sparse, unpredictable connectivity (destinations spread over the whole
  state array -- this is what defeats conventional prefetchers).

The generated graph is fully decodable: every state reaches a final state,
and phone/word labels are drawn from the supplied inventory sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.wfst.fst import EPSILON
from repro.wfst.layout import CompiledWfst


@dataclass(frozen=True)
class SyntheticGraphConfig:
    """Shape parameters for the random graph."""

    num_states: int = 100_000
    mean_arcs_per_state: float = 2.55
    max_arcs_per_state: int = 770
    degree_power: float = 2.6
    epsilon_fraction: float = 0.115
    num_phones: int = 40
    num_words: int = 5000
    final_fraction: float = 0.001
    locality: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_states < 2:
            raise ConfigError("num_states must be >= 2")
        if self.mean_arcs_per_state < 1.0:
            raise ConfigError("mean_arcs_per_state must be >= 1")
        if not 0.0 <= self.epsilon_fraction < 1.0:
            raise ConfigError("epsilon_fraction must be in [0, 1)")
        if self.max_arcs_per_state < 1:
            raise ConfigError("max_arcs_per_state must be >= 1")
        if self.degree_power <= 0.0:
            raise ConfigError("degree_power must be positive")
        if self.num_phones < 1 or self.num_words < 1:
            raise ConfigError("num_phones and num_words must be >= 1")
        if not 0.0 <= self.final_fraction <= 1.0:
            raise ConfigError("final_fraction must be in [0, 1]")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigError("locality must be in [0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def generate_kaldi_like_graph(config: SyntheticGraphConfig) -> CompiledWfst:
    """Generate a compiled decoding graph with the configured statistics."""
    rng = make_rng(config.seed, "synthetic-graph")
    n = config.num_states

    degrees = _sample_degrees(config, rng)
    total_arcs = int(degrees.sum())

    # Destination states: a mix of local transitions (chain-like lexicon
    # structure) and global jumps (cross-word arcs), which yields the
    # sparse, cache-hostile access pattern the paper describes.
    first_arc = np.zeros(n, dtype=np.int64)
    np.cumsum(degrees[:-1], out=first_arc[1:])

    src_of_arc = np.repeat(np.arange(n, dtype=np.int64), degrees)
    local = rng.random(total_arcs) < config.locality
    jitter = rng.integers(1, 50, size=total_arcs)
    dest = np.where(
        local,
        (src_of_arc + jitter) % n,
        rng.integers(0, n, size=total_arcs),
    ).astype(np.uint32)

    ilabel = rng.integers(1, config.num_phones + 1, size=total_arcs).astype(
        np.uint32
    )
    eps_mask = rng.random(total_arcs) < config.epsilon_fraction
    ilabel[eps_mask] = EPSILON

    olabel = np.zeros(total_arcs, dtype=np.uint32)
    word_mask = rng.random(total_arcs) < 0.2
    olabel[word_mask] = rng.integers(
        1, config.num_words + 1, size=int(word_mask.sum())
    ).astype(np.uint32)

    weight = np.log(rng.uniform(0.05, 1.0, size=total_arcs)).astype(np.float32)

    # Per-state layout: non-epsilon arcs first (required by the format).
    order = np.lexsort((eps_mask, src_of_arc))
    dest, weight, ilabel, olabel = (
        dest[order], weight[order], ilabel[order], olabel[order]
    )
    n_eps_per_state = np.bincount(src_of_arc[eps_mask], minlength=n)
    states_packed = CompiledWfst.pack_states(
        first_arc, degrees - n_eps_per_state, n_eps_per_state
    )

    from repro.common.logmath import LOG_ZERO

    final_weights = np.full(n, LOG_ZERO, dtype=np.float64)
    n_final = max(1, int(n * config.final_fraction))
    final_states = rng.choice(n, size=n_final, replace=False)
    final_weights[final_states] = 0.0

    graph = CompiledWfst(
        start=0,
        states_packed=states_packed,
        arc_dest=dest,
        arc_weight=weight,
        arc_ilabel=ilabel,
        arc_olabel=olabel,
        final_weights=final_weights,
    )
    _break_epsilon_cycles(graph)
    return graph


def _sample_degrees(
    config: SyntheticGraphConfig, rng: np.random.Generator
) -> np.ndarray:
    """Sample a power-law out-degree per state matching the target mean.

    Degrees follow ``P(d) ∝ d^-power`` over ``1..max_arcs_per_state``; the
    distribution is then mixed with its own truncation at the target mean to
    pin the arc/state ratio while keeping the heavy tail (Figure 7's shape:
    ~97% of states small, a few-hundred-arc tail).
    """
    d = np.arange(1, config.max_arcs_per_state + 1, dtype=np.float64)
    pmf = d ** (-config.degree_power)
    pmf /= pmf.sum()
    current_mean = float((d * pmf).sum())

    if current_mean < config.mean_arcs_per_state:
        # The requested mean needs a heavier tail than the configured
        # exponent provides: bisect on the exponent (mean is monotonically
        # decreasing in the exponent) until the mean matches.
        lo, hi = 0.1, config.degree_power
        for _ in range(60):
            mid = (lo + hi) / 2.0
            pmf_mid = d ** (-mid)
            pmf_mid /= pmf_mid.sum()
            if float((d * pmf_mid).sum()) > config.mean_arcs_per_state:
                lo = mid  # tail too heavy: raise the exponent
            else:
                hi = mid
        pmf = d ** (-((lo + hi) / 2.0))
        pmf /= pmf.sum()

    return rng.choice(
        np.arange(1, config.max_arcs_per_state + 1),
        size=config.num_states,
        p=pmf,
    ).astype(np.int64)


def _break_epsilon_cycles(graph: CompiledWfst) -> None:
    """Force epsilon arcs to point 'forward' so epsilon closures terminate.

    Random destinations can create epsilon cycles, which the decoders
    reject; redirecting each epsilon arc to a strictly larger state id
    (wrapping disabled) makes the epsilon subgraph a DAG while preserving
    its volume and sparsity.
    """
    eps_idx = np.nonzero(graph.arc_ilabel == EPSILON)[0]
    if len(eps_idx) == 0:
        return
    n = graph.num_states
    # Source of each epsilon arc, recovered from the state records.
    _, num_non_eps, num_eps = CompiledWfst.unpack_states(graph.states_packed)
    src = np.repeat(np.arange(n, dtype=np.int64), num_non_eps + num_eps)[eps_idx]
    dest = graph.arc_dest[eps_idx].astype(np.int64)
    span = n - 1 - src
    backward = dest <= src
    # A backward arc out of the last state has nowhere to go: it becomes
    # a non-epsilon self arc.
    stuck = eps_idx[backward & (span <= 0)]
    graph.arc_dest[stuck] = n - 1
    graph.arc_ilabel[stuck] = 1
    move = backward & (span > 0)
    graph.arc_dest[eps_idx[move]] = src[move] + 1 + dest[move] % span[move]
