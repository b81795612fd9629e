"""Vehicle geometry, actuator limits and sensor parameters."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


def is_real(value, low=-math.inf, high=math.inf, closed=False) -> bool:
    """Whether ``value`` is a real number with ``low < value < high``
    (``low <= value`` when ``closed``); a bool, a string or NaN never is.
    A float skips the ABC check (about 0.3 µs), as the plant step tests
    its inputs at every call."""
    return (type(value) is float or isinstance(value, numbers.Real)
            and not isinstance(value, bool)) \
        and (low <= value if closed else low < value) and value < high


def is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool never is."""
    return type(value) is int or \
        isinstance(value, numbers.Integral) and not isinstance(value, bool)


def real_tuple(value, n, low=-math.inf, closed=False):
    """``value``, a list, tuple or 1-D array of ``n`` numbers that ``is_real``
    accepts with ``low`` and ``closed``, as a tuple of floats; else None."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    if isinstance(value, (list, tuple)) and len(value) == n and \
            all(is_real(v, low, closed=closed) for v in value):
        return tuple(float(v) for v in value)
    return None


@dataclass(frozen=True)
class VehicleParams:
    """Geometric and actuator parameters of the tractor / dolly / semitrailer chain.

    Defaults correspond to the full-scale test vehicle (a 6x4 tractor towing
    a dolly-steered semitrailer).  Lengths in meters, curvature in 1/m,
    curvature rate in 1/(m s), angles in radians.
    """

    L1: float = 4.62      # tractor wheelbase
    L2: float = 3.87      # dolly drawbar length (hitch to dolly axle)
    L3: float = 8.00      # semitrailer axle to dolly axle
    M1: float = 1.66      # off-axle hitch offset behind the tractor's rear axle
    u_max: float = 0.18   # max tractor curvature
    udot_max: float = 0.13  # max tractor curvature rate
    La: float = 1.73      # semitrailer front overhang ahead of its axle
    b: float = 2.45       # semitrailer front width
    phi: float = 140.0 * math.pi / 180.0  # LIDAR horizontal field of view

    def __post_init__(self):
        for name in ("L1", "L2", "L3", "M1", "u_max", "udot_max", "La", "b"):
            if not is_real(getattr(self, name), 0.0):
                raise ValueError(f"{name} must be a positive, finite number")
        if not is_real(self.phi, 0.0, 2.0 * math.pi):
            raise ValueError("phi must lie in (0, 2*pi)")

    @classmethod
    def from_file(cls, path) -> "VehicleParams":
        """Load parameters from a plain-text ``key = value`` file.

        Lines starting with ``#`` and blank lines are ignored; unknown keys
        raise ValueError.  Keys not present keep their defaults.
        """
        known = {f.name for f in fields(cls)}
        overrides = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"{path}:{lineno}: unknown parameter {key!r}")
                overrides[key] = float(value)
        return cls(**overrides)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
