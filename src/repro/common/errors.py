"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """Invalid configuration value or inconsistent setup."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class RdmaError(ReproError):
    """Errors raised by the RDMA verbs layer (bad keys, QP state, ...)."""


class MemoryRegionError(RdmaError):
    """Out-of-bounds access or invalid remote key on a memory region."""


class QpFlushedError(RdmaError):
    """A posted work request completed in error: the transport gave up on
    the peer (RC retry budget exceeded — the peer crashed, or the path
    stayed down beyond the detection bound). The matching completion-queue
    entry carries ``WcStatus.RETRY_EXC_ERR`` / ``WcStatus.WR_FLUSH_ERR``."""


class FlowError(ReproError):
    """Errors raised by the DFI flow layer."""


class FlowClosedError(FlowError):
    """Push into (or misuse of) a flow that has already been closed."""


class FlowAbortedError(FlowError):
    """A source aborted the flow; raised from the targets' consume path
    (the fault-tolerance extension — paper Section 7 future work)."""


class FlowTimeoutError(FlowError):
    """A blocking flow operation made no progress within its configured
    bound (``FlowOptions.peer_timeout`` on the consume side,
    ``FlowOptions.max_backoff_retries`` on the ring-full push side) and
    the peer is not *known* to have failed — the peer may merely be slow
    or stalled. Compare :class:`FlowPeerFailedError`."""


class FlowPeerFailedError(FlowError):
    """A flow peer (source or target endpoint) is gone: its node crashed
    or the path to it stayed unreachable beyond the failure-detection
    bound. Raised from push/close on the source side (per the flow's
    ``on_target_failure`` policy) and from consume on the target side."""


class SchemaError(FlowError):
    """Tuple does not match the flow schema, or invalid schema definition."""


class RegistryError(FlowError):
    """Flow registry lookup/initialization failures (unknown or duplicate
    flow names, source/target index out of range, ...)."""


class MpiError(ReproError):
    """Errors raised by the MPI baseline runtime."""
