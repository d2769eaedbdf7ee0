"""Shared exception types."""


class DomainError(ValueError):
    """An operation received values outside its domain."""


class ConfigError(DomainError):
    """Invalid configuration: bad schedule, unknown preset, malformed config file."""


class CapacityError(DomainError):
    """A generator ran out of distinct items or positions."""


class FileFormatError(Exception):
    """An input file does not decode as the UTF-8 text or JSON its reader
    expects; the message names the file."""
