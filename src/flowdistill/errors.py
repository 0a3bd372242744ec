"""Exception hierarchy shared across the package."""


class FlowDistillError(Exception):
    """Base class for package-specific failures."""


class ConfigError(FlowDistillError):
    """A configuration value is invalid or inconsistent."""


class NumericsError(FlowDistillError):
    """A computation produced non-finite values."""


class StoreFormatError(FlowDistillError):
    """A trajectory-store file could not be parsed."""


class StoreIntegrityError(FlowDistillError):
    """A trajectory store does not match its generating model."""

