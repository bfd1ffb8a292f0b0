"""Exception types shared across the package."""


class FlowError(Exception):
    """Base class for all package-specific failures."""


class GridTooSmallError(FlowError, ValueError):
    """Grid cannot hold the requested spectral band without truncation loss."""


class OversizeError(FlowError, ValueError):
    """Brute-force evaluation requested beyond its cost guard."""


class PositivityError(FlowError, ValueError):
    """A field that must be strictly positive touched zero or went negative."""


class IntegrationError(FlowError, RuntimeError):
    """Time stepping produced a non-finite derivative or state."""


class AnalysisError(FlowError, ValueError):
    """Post-processing could not be carried out on the given trajectory."""


class ConfigError(FlowError, ValueError):
    """Run configuration is malformed or violates an invariant."""


class TrajectoryError(FlowError, ValueError):
    """Trajectory file is missing, torn, or not in the expected format."""


class VersionError(TrajectoryError):
    """Trajectory file format version does not match this build."""
