"""Exception hierarchy for the repro package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Subclasses distinguish the major failure domains:
device wearout, coding/crypto, and design-space infeasibility.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeviceWornOutError(ReproError):
    """An operation traversed a wearout device that has already failed.

    Raised by stateful hardware simulations (switches, structures,
    decision trees) when an access cannot be served because the underlying
    device has reached the end of its sampled lifetime.
    """


class RegisterDestroyedError(ReproError):
    """A read-destructive register was read more than once."""


class CodingError(ReproError):
    """Base class for secret-sharing / error-correction failures."""


class InsufficientSharesError(CodingError):
    """Fewer than the threshold ``k`` shares were supplied for recovery.

    Carries structured context so resilient access layers can report and
    route around the failure: ``supplied`` live shares vs the ``required``
    threshold k, the ``bank_id`` of the copy that failed, and how many
    shares were lost to readout ``timeouts`` (as opposed to dead
    switches).  All context fields are optional; raisers that predate the
    enrichment still work.
    """

    def __init__(self, message: str, *, supplied: int | None = None,
                 required: int | None = None, bank_id: int | None = None,
                 timeouts: int | None = None) -> None:
        super().__init__(message)
        self.supplied = supplied
        self.required = required
        self.bank_id = bank_id
        self.timeouts = timeouts


class DecodingFailure(CodingError):
    """A Reed-Solomon decode could not produce a valid codeword.

    ``bank_id`` identifies the copy whose shares failed to decode and
    ``n`` / ``k`` its code parameters (correction radius
    ``(n - k - missing) // 2``), when the raiser knows them.
    """

    def __init__(self, message: str, *, bank_id: int | None = None,
                 n: int | None = None, k: int | None = None) -> None:
        super().__init__(message)
        self.bank_id = bank_id
        self.n = n
        self.k = k


class CryptoError(ReproError):
    """Base class for cipher-layer failures."""


class KeyConsumedError(CryptoError):
    """A one-time key was used for a second encryption or decryption."""


class AuthenticationError(CryptoError):
    """Ciphertext failed its integrity check (wrong key or tampering)."""


class DesignSpaceError(ReproError):
    """Base class for design-space solver failures."""


class InfeasibleDesignError(DesignSpaceError):
    """No architecture satisfies the requested degradation criteria.

    Carries the search bounds that were exhausted so callers can report
    actionable diagnostics (e.g. "increase max_devices or relax p_fail").
    """

    def __init__(self, message: str, *, alpha: float | None = None,
                 beta: float | None = None) -> None:
        super().__init__(message)
        self.alpha = alpha
        self.beta = beta


class ConfigurationError(ReproError):
    """Invalid user-supplied parameters (negative counts, k > n, ...)."""


class AllCensoredError(ConfigurationError):
    """A censored-data fit was asked to run with zero failure events.

    The censored Weibull likelihood is unbounded when every observation
    is right-censored (any scale large enough explains "still alive"),
    so there is no MLE to report.  Kept distinct from plain
    :class:`ConfigurationError` so capacity estimators can tell "not
    enough wear observed yet" apart from malformed input - and so the
    bootstrap's degenerate-resample fallback still catches it.

    ``observations`` carries how many observations were supplied (all of
    them censored) when the raiser knows it.
    """

    def __init__(self, message: str, *, observations: int | None = None) -> None:
        super().__init__(message)
        self.observations = observations


class ParallelExecutionError(ReproError):
    """A shard of a parallel campaign failed after exhausting its retries.

    Carries structured context so callers (and the CLI) can report which
    contiguous trial range failed and why: the ``shard`` as a
    ``(start, stop)`` index pair, how many ``attempts`` were made, the
    failure ``kind`` (``"crash"`` for a dead worker process,
    ``"timeout"`` for an overdue shard, ``"error"`` for an exception the
    trial function raised), and the underlying ``cause`` when one was
    captured.  Finished shards are never lost: their checkpoint files
    survive the error, so rerunning the campaign resumes instead of
    restarting.
    """

    def __init__(self, message: str, *, shard: tuple[int, int] | None = None,
                 attempts: int | None = None, kind: str | None = None,
                 cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
        self.kind = kind
        self.cause = cause


class CheckpointMismatchError(ConfigurationError):
    """A checkpoint on disk belongs to a different campaign.

    Raised when resuming and the stored meta (seed, trial count, design,
    fault config) does not match the requested campaign.  Kept distinct
    from plain :class:`ConfigurationError` so callers - the CLI maps it
    to exit code 2 - can refuse loudly instead of silently restarting or
    conflating it with an ordinary campaign failure.
    """


class LedgerCorruptionError(ConfigurationError):
    """The service wear ledger is damaged beyond the recoverable cases.

    A torn *trailing* WAL record (the one write a SIGKILL can interrupt)
    is expected damage: recovery truncates it and continues.  Anything
    else - an unparseable record before the tail, a sequence-number gap,
    or replayed state disagreeing with a snapshot - means the ledger no
    longer proves the wear history, and a limited-use service must
    refuse to serve rather than risk double-spending device wear.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 seq: int | None = None) -> None:
        super().__init__(message)
        self.path = path
        self.seq = seq


class LedgerWriteError(ReproError):
    """A write to the service wear ledger failed; it accepts no more.

    Raised (chained to the ``OSError``) when the WAL write, flush or
    fsync of a batch fails, and by every later append, snapshot or
    rotation of that ledger.  A failed drain snapshot is reported as
    one too, after the ledger closed.  Records after a lost one would leave a
    sequence gap that recovery refuses, and a snapshot would claim the
    lost records, so the ledger stops at the first failure and the
    service restarts through recovery instead.
    """
