"""Exception taxonomy: one FivegsimError subclass per cause.

- ConfigError: a topology or scenario that cannot run (config, the CLI's
  argument checks). CLI exit 2.
- FlowError: a refusal, an operation its state does not allow (the SMF's
  session set-up, the UE's session calls, a run's failed invariants or a
  reliability run's UE without a session). An NF answers a refused peer
  request with ERROR. CLI exit 1.
- wirefmt.WireFormatError: peer bytes or text that break a wire contract;
  every reader of peer text raises it, and NfEntity.handle_packet drops it
  (the UPF answers a malformed rule program with ERROR). CLI exit 1.
- nwdaf.SchemaError: an imported log that breaks the export format. Exit 2.
- simnet.SimNetError: a caller that breaks the fabric's contract. Exit 1.
"""


class FivegsimError(Exception):
    """Base class for simulator-specific failures."""


class ConfigError(FivegsimError):
    """Topology or scenario configuration is invalid."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FlowError(FivegsimError):
    """An operation was refused in the state it was asked in."""
