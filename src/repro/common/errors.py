"""Exception hierarchy for the repro package (library plumbing; no direct
paper counterpart).

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class GraphError(ReproError):
    """A WFST is malformed or an operation on it is undefined."""


class DecodeError(ReproError):
    """Decoding failed (e.g. no surviving path, empty input)."""


class SimulationError(ReproError):
    """The cycle-accurate simulator reached an inconsistent state."""


class AnalysisError(ReproError):
    """The static-analysis framework could not run (bad config, unreadable
    source, corrupt version-guard file)."""


class TierError(ReproError):
    """The sharded serving tier could not accept or route work."""


class AdmissionError(TierError):
    """A new session was load-shed at the front door (admission limit)."""


class BackpressureError(TierError):
    """A push was load-shed because its shard's queue is saturated."""
