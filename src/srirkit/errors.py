"""Exception types shared across the package.

Plain ``ValueError`` is used for garden-variety bad arguments (mismatched
sample rates, out-of-range parameters); the classes below exist where a
caller may reasonably want to catch a specific failure mode.
"""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable signal."""


class NoOnsetError(DegenerateInputError):
    """No sample exceeds the onset threshold (all-silent input)."""


class DegenerateBandError(DegenerateInputError):
    """A filterbank band produced zero energy where a ratio is required."""

    def __init__(self, band_index: int, center_hz: float, channel: str):
        self.band_index = band_index
        self.center_hz = center_hz
        self.channel = channel
        super().__init__(
            f"zero RMS in band {band_index} ({center_hz:.1f} Hz) of channel {channel!r}"
        )


class LostDirectPathError(DegenerateInputError):
    """The direct (order-0) arrival does not fit in a rendered response, as
    when the source sits within a kernel half-width of a receiver."""


class MissingHrirError(ValueError):
    """Grid directions without a close-enough HRIR."""

    def __init__(self, offenders):
        self.offenders = list(offenders)
        super().__init__(
            "no HRIR within tolerance for grid directions: "
            + ", ".join(str(i) for i in self.offenders)
        )


class InsufficientDecayError(ValueError):
    """Decay range too small for the requested reverberation-time fit."""

    def __init__(self, measured_range_db: float, required_range_db: float):
        self.measured_range_db = float(measured_range_db)
        self.required_range_db = float(required_range_db)
        super().__init__(
            f"decay range {measured_range_db:.1f} dB < required "
            f"{required_range_db:.1f} dB"
        )


class ConfigurationError(ValueError):
    """A pipeline or CLI configuration is incomplete or inconsistent."""


class TruncatedResponseWarning(UserWarning):
    """A rendered response could not contain every image-source arrival."""
