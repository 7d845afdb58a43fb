"""Exception hierarchy for the semigroup laboratory."""


class SemilabError(Exception):
    """Base class for all laboratory errors."""


class DimensionMismatch(SemilabError):
    pass


class SingularResolvent(SemilabError):
    """mu is within tolerance of the spectrum; (mu - A) cannot be inverted."""


class EigenFailure(SemilabError):
    pass


class ContourCrossesSpectrum(SemilabError):
    pass


class MissingDerivative(SemilabError):
    pass


class EmptyProbeSet(SemilabError):
    pass


class NonpositiveM(SemilabError):
    pass


class DegenerateReMu(SemilabError):
    pass


class NeumannDivergence(SemilabError):
    pass


class SlowConvergence(SemilabError):
    pass


class NotDiagonal(SemilabError):
    pass


class ConfigError(SemilabError):
    """Malformed description file or experiment configuration."""
