"""Exception hierarchy for the repro library.

Every error raised on purpose by this package derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An invalid machine, cache, or engine configuration was supplied."""


class AllocationError(ReproError):
    """The simulated address space (or a TCM region) could not satisfy an
    allocation request."""


class CalibrationError(ReproError):
    """The micro-benchmark calibration could not solve a per-operation
    energy cost (e.g. a benchmark never exercised the target operation)."""


class DatabaseError(ReproError):
    """Base class for errors raised by the mini database engine."""


class CatalogError(DatabaseError):
    """An unknown table, column, or index was referenced."""


class SqlError(DatabaseError):
    """The SQL front-end rejected a statement."""


class PlanError(DatabaseError):
    """A physical plan was malformed (wrong arity, unbound column, ...)."""


class TraceError(ReproError):
    """The observability layer was misused (mismatched span enter/exit,
    finishing a trace with spans still open, ...)."""


class DiffError(ReproError):
    """Two snapshots could not be compared (unrecognised artifact,
    mismatched kinds, or different schema versions)."""


class ServeError(ReproError):
    """The serving layer was misused at runtime (dispatching a request
    that is not queued, releasing a slot twice, ...)."""


class FaultError(ReproError):
    """An injected fault surfaced to the execution layer.  Raised only
    when a :class:`~repro.faults.FaultInjector` is installed; a plain
    run can never see one."""


class FaultConfigError(ConfigError, FaultError):
    """A fault plan or injection site was misconfigured: an unknown
    site name, or a probability outside ``[0, 1]``.  Subclasses both
    :class:`ConfigError` (it is a configuration problem, caught at
    construction) and :class:`FaultError` (it belongs to the fault
    layer), so either family of handler sees it."""


class ClusterError(ReproError):
    """The simulated cluster was misused at runtime (an event for an
    unknown node, a response for a request that never dispatched, ...)."""


class TransientDiskError(FaultError):
    """A simulated disk read failed transiently.  The failed attempt
    still cost real device time, carried in :attr:`elapsed_s` so the
    caller charges it before retrying."""

    def __init__(self, block: int, elapsed_s: float):
        super().__init__(
            f"transient read error at block {block} "
            f"(after {elapsed_s:.3e}s of device time)"
        )
        self.block = block
        self.elapsed_s = elapsed_s


class PageCorruptionError(FaultError):
    """A page failed its checksum repeatedly and could not be repaired
    by re-reading it from disk."""
