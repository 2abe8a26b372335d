"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class of every error raised by this package."""


class OutOfMemoryError(ReproError):
    """The buddy allocator cannot satisfy an allocation request."""


class MappingError(ReproError):
    """An inconsistent virtual-to-physical mapping operation."""


class PageFaultError(MappingError):
    """Translation requested for an unmapped virtual page."""


class TraceFormatError(ReproError):
    """A persisted trace file exists but does not parse as one
    (truncated write, wrong members, garbage bytes)."""


class OrchestrationError(ReproError):
    """Invalid use of the experiment orchestrator, or state corruption
    (e.g. a memoised mapping whose content digest no longer matches)."""


class CellFailedError(OrchestrationError):
    """A matrix cell is being served from the failure ledger: its job
    exhausted every retry, so the cell has no result.  Reports catch
    this and render a gap instead of crashing."""
