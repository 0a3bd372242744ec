"""Exception hierarchy shared across the package, config range checks,
and the per-type annotation lookup they and the payload codec share."""

import functools
import math
import types
import typing


class FlowDistillError(Exception):
    """Base class for package-specific failures."""


class ConfigError(FlowDistillError):
    """A configuration value is invalid or inconsistent."""


class NumericsError(FlowDistillError):
    """A computation produced non-finite values."""


class IntegrationError(NumericsError):
    """An Euler integration of a velocity model produced a non-finite state."""


class StoreFormatError(FlowDistillError):
    """A trajectory-store, model or checkpoint file, or a config payload
    being decoded, is malformed or of another format or version."""


class StoreIntegrityError(FlowDistillError):
    """A trajectory store does not match its generating model."""


@functools.cache
def type_hints(kind) -> types.MappingProxyType:
    """`typing.get_type_hints(kind)`, resolved once per type and read-only,
    since every caller shares it."""
    return types.MappingProxyType(typing.get_type_hints(kind))


def check_fields(checks, prefix: str = ""):
    """Raise a ConfigError naming the first field whose check fails;
    `checks` holds (field, whether it holds, what the field must be)."""
    for field, holds, want in checks:
        if not holds:
            raise ConfigError(f"config field {prefix}{field} must be {want}")


def check_numbers(kind, values, prefix: str, zero_ok=()):
    """Check that each int or float field of the section type `kind` has
    a positive, finite value in `values`, or zero if it is in `zero_ok`."""
    check_fields([(name, (0 <= v if name in zero_ok else 0 < v) and v < math.inf,
                   ("non-negative" if name in zero_ok else "positive") + " and finite")
                  for name, hint in type_hints(kind).items() if hint in (int, float)
                  for v in [values[name]]], prefix)
