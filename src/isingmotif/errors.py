"""Exception types shared across the package."""


class IsingMotifError(Exception):
    """Base class for all package-specific errors."""


class LatticeTooSmall(IsingMotifError):
    """A ball of radius r needs n > 2*rho*r to avoid wrapping onto itself."""


class SignatureMismatch(IsingMotifError):
    """A motif was applied to a lattice with different (d, rho, p)."""


class FamilyTooLarge(IsingMotifError):
    """An enumeration of local configurations would exceed the member cap."""


class TooLargeForExact(IsingMotifError):
    """Full enumeration of the configuration space exceeds the site cap."""


class MissingSpin(IsingMotifError):
    """A partial spin assignment does not cover every required vertex."""


class NotClean(IsingMotifError):
    """Operation requires a clean motif (no positives on the outer shell)."""


class MotifScheduleMismatch(IsingMotifError):
    """The motif's positive count does not match the field schedule's target."""


class NotNormalized(IsingMotifError):
    """A count distribution's masses do not sum to one."""


class NonFiniteLimit(IsingMotifError):
    """The Poisson limit c**k * exp(-2 b gamma) is not a finite float, or is 0.0 as a divisor."""


class DegenerateFit(IsingMotifError):
    """Not enough usable points for a log-log rate fit."""


class AntiferromagneticUnsupported(IsingMotifError):
    """Perfect sampling requires a nonnegative pair potential."""


class FerromagneticOnly(IsingMotifError):
    """This bound is only valid for a nonnegative pair potential."""


class CoalescenceTimeout(IsingMotifError):
    """Coupled chains failed to coalesce within the work limit."""


class MotifFileError(IsingMotifError):
    """A motif file could not be parsed."""


class ConfigError(IsingMotifError):
    """Base class for run-configuration problems."""


class ParseError(ConfigError):
    """A run configuration could not be parsed (bad key, value, or syntax)."""


class ValidationError(ConfigError):
    """A parsed run configuration violates an invariant."""
