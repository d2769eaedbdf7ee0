"""Shared exception types, and the byte cap every size-scaled allocation is checked against."""

# Largest working set any one call plans for, in bytes. Fixed rather than
# taken from the host's memory, so whether a run is refused never depends on
# the machine.
BYTES_CAP = 1 << 30


class DomainError(ValueError):
    """An operation received values outside its domain."""


class ConfigError(DomainError):
    """Invalid configuration: bad schedule, unknown preset, malformed config file."""


class CapacityError(DomainError):
    """A generator ran out of distinct items or positions."""


class FileFormatError(Exception):
    """An input file does not decode as the UTF-8 text, JSON or embedding
    layout its reader expects; a reader's message names the file."""


def check_bytes(needed: int, what: str) -> None:
    """Raise DomainError naming `what` and `needed` when it passes BYTES_CAP.
    Callers check before they allocate."""
    if needed > BYTES_CAP:
        raise DomainError(f"{what} needs about {needed} bytes, over the {BYTES_CAP}-byte cap")
