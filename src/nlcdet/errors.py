"""Exception hierarchy shared across the library."""


class NlcdetError(Exception):
    """Base class for all library errors."""


class BehindCamera(NlcdetError):
    """A point has no finite image position: it lies at or behind the camera
    plane (depth <= 0), or so close to it that (u, v) overflows."""


class InvalidValue(NlcdetError, ValueError):
    """An input value the library does not accept, such as a NaN, an infinity
    or a number beyond +-``geometry.MAX_ABS_VALUE``."""


class ShapeError(NlcdetError):
    """Tensor or layer shapes are inconsistent."""


class Underdetermined(NlcdetError):
    """Too few correspondences to attempt a box solve."""


class EmptyForeground(NlcdetError):
    """A masked loss was requested with zero foreground elements."""


class LabelError(NlcdetError):
    """Classification label outside the valid class range."""


class KittiIOError(NlcdetError):
    """Base class for file-format errors."""


class MissingField(KittiIOError):
    """A required key is absent from a calibration file."""


class MalformedMatrix(KittiIOError):
    """A calibration matrix has the wrong number of elements."""


class ParseError(KittiIOError):
    """A token could not be parsed; carries line (and column) context."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class TruncatedFile(KittiIOError):
    """Binary payload length is not a whole number of records."""


class DegenerateCalib(KittiIOError):
    """Calibration matrices are singular; frame conversion undefined."""
