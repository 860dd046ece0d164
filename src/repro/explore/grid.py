"""Declarative parameter grids over accelerator configurations.

A sweep point is a mapping from dotted field paths to values:

* ``"mem_latency_cycles"`` -- a top-level
  :class:`~repro.accel.config.AcceleratorConfig` field;
* ``"arc_cache.size_bytes"`` -- a field of a nested config dataclass
  (``state_cache`` / ``arc_cache`` / ``token_cache`` / ``hash_table``);
* ``"beam"`` -- the *workload* beam width (changes the functional search,
  so the runner records a fresh trace for each distinct value);
* ``"pruning"`` / ``"target_active"`` -- the workload pruning strategy
  (``"beam"`` or ``"adaptive"``; see
  :class:`repro.decoder.kernel.DecoderConfig`), likewise re-traced per
  distinct value -- the executable form of the paper's Fig. 9 beam
  ablation axis.

The Section IV-B comparator count N is the config field
``"state_direct_max_arcs"``: a point's replayer walks the graph's sorted
layout for its N, relabelling the one baseline trace.

:class:`ParameterGrid` expands dimensions into their cartesian product in
declaration order; :func:`apply_overrides` materialises one point into an
:class:`~repro.accel.config.AcceleratorConfig`, validating every path.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, is_dataclass, replace
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.accel.config import AcceleratorConfig
from repro.decoder.kernel import PRUNING_STRATEGIES

#: Paths handled by the sweep runner rather than the config dataclass.
WORKLOAD_KEYS = frozenset({"beam", "pruning", "target_active"})


def _field_names(obj: Any) -> frozenset:
    return frozenset(f.name for f in fields(obj))


def apply_overrides(
    base: AcceleratorConfig, overrides: Dict[str, Any]
) -> AcceleratorConfig:
    """Build a configuration from ``base`` with ``overrides`` applied.

    Workload-level keys (:data:`WORKLOAD_KEYS`) are skipped -- the sweep
    runner consumes those.  Unknown paths raise
    :class:`~repro.common.errors.ConfigError` so a typo'd sweep fails
    loudly instead of silently re-running the base design.
    """
    top: Dict[str, Any] = {}
    nested: Dict[str, Dict[str, Any]] = {}
    base_fields = _field_names(base)
    for path, value in overrides.items():
        if path in WORKLOAD_KEYS:
            continue
        head, _, rest = path.partition(".")
        if head not in base_fields:
            raise ConfigError(
                f"unknown sweep parameter {path!r}: {head!r} is not a field "
                f"of AcceleratorConfig"
            )
        if not rest:
            top[head] = value
            continue
        child = getattr(base, head)
        if not is_dataclass(child):
            raise ConfigError(
                f"sweep parameter {path!r} is invalid: {head!r} is not a "
                f"nested configuration"
            )
        if "." in rest or rest not in _field_names(child):
            raise ConfigError(
                f"unknown sweep parameter {path!r}: no field {rest!r} on "
                f"{type(child).__name__}"
            )
        nested.setdefault(head, {})[rest] = value
    for head, sub in nested.items():
        top[head] = replace(getattr(base, head), **sub)
    return replace(base, **top)


def parse_sweep_value(text: str) -> Any:
    """Parse one CLI sweep value: bool, int (with K/M/G suffix), float, or
    a pruning-strategy name (for the ``pruning`` workload axis)."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    # Only known strategy names pass as strings -- anything else
    # non-numeric keeps raising ConfigError instead of leaking a truthy
    # string into a config field.
    if lowered in PRUNING_STRATEGIES:
        return lowered
    scale = 1
    if lowered and lowered[-1] in "kmg":
        scale = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}[lowered[-1]]
        lowered = lowered[:-1]
    try:
        return int(lowered) * scale
    except ValueError:
        pass
    try:
        value = float(lowered)
    except ValueError:
        raise ConfigError(f"cannot parse sweep value {text!r}") from None
    if scale != 1:
        return int(value * scale)
    return value


class ParameterGrid:
    """A cartesian product of sweep dimensions, expanded in declaration order.

    >>> grid = ParameterGrid([
    ...     ("arc_cache.size_bytes", [256 * 1024, 1024 * 1024]),
    ...     ("prefetch_enabled", [False, True]),
    ... ])
    >>> len(grid)
    4
    """

    def __init__(
        self, dimensions: Sequence[Tuple[str, Iterable[Any]]]
    ) -> None:
        self.dimensions: List[Tuple[str, Tuple[Any, ...]]] = []
        for path, values in dimensions:
            values = tuple(values)
            if not values:
                raise ConfigError(f"sweep dimension {path!r} has no values")
            self.dimensions.append((path, values))

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "ParameterGrid":
        """Parse CLI specs of the form ``path=value[,value...]``."""
        dims = []
        for spec in specs:
            path, sep, values = spec.partition("=")
            if not sep or not path or not values:
                raise ConfigError(
                    f"malformed sweep spec {spec!r} (expected "
                    f"'path=value[,value...]')"
                )
            dims.append(
                (path.strip(), [parse_sweep_value(v) for v in values.split(",")])
            )
        return cls(dims)

    def __len__(self) -> int:
        n = 1
        for _, values in self.dimensions:
            n *= len(values)
        return n

    def points(self) -> List[Dict[str, Any]]:
        """Every grid point as an override mapping, product-ordered."""
        if not self.dimensions:
            return [{}]
        paths = [path for path, _ in self.dimensions]
        return [
            dict(zip(paths, combo))
            for combo in itertools.product(
                *(values for _, values in self.dimensions)
            )
        ]


def describe_point(overrides: Dict[str, Any]) -> str:
    """A stable human-readable label for one sweep point."""
    if not overrides:
        return "base"
    return " ".join(
        f"{path}={_fmt_value(v)}" for path, v in overrides.items()
    )


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, int) and value >= 1024 and value % 1024 == 0:
        if value % (1024 ** 2) == 0:
            return f"{value // 1024 ** 2}M"
        return f"{value // 1024}K"
    return str(value)
