"""Nominal paths: generation, serialization and station queries.

A nominal path is an arc-length-sampled sequence of full vehicle states plus
the nominal tractor curvature, satisfying dx/ds = dir * f(x, u) where s is
the distance traveled by the semitrailer axle and dir in {-1, +1} is the
motion direction (backward paths have dir = -1 while s still increases along
the direction of travel).
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .exceptions import InfeasiblePath, OutOfDomain, ProjectionLost
from .model import chain_terms, derivatives_batch
from .params import VehicleParams, is_real


@dataclass(frozen=True)
class PathSample:
    s: float
    x3r: float
    y3r: float
    theta3r: float
    beta3r: float
    beta2r: float
    ur: float
    v3r_sign: float
    kappa3r: float


@dataclass
class NominalPath:
    """Uniformly sampled nominal path.

    The eight field arrays are the only store of the samples: every query,
    :func:`interpolate` and :func:`project` included, reads them, so a
    write to an array is seen by all of them.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta3: np.ndarray
    beta3: np.ndarray
    beta2: np.ndarray
    u: np.ndarray
    kappa3: np.ndarray
    direction: float
    delta_s: float
    s_end_true: float = field(default=None)  # end of real path data, before any extension

    def __post_init__(self):
        if self.s_end_true is None:
            self.s_end_true = self.s_end

    @property
    def s_end(self) -> float:
        return self.s.item(-1)

    def __len__(self):
        return len(self.s)

    def sample(self, i) -> PathSample:
        """The sample at index ``i``; an index array gives the arrays of
        those samples' fields."""
        field_of = float if np.ndim(i) == 0 else np.asarray
        s, x, y, th, b3, b2, u, k3 = (field_of(a[i]) for a in (
            self.s, self.x, self.y, self.theta3, self.beta3, self.beta2,
            self.u, self.kappa3))
        return PathSample(s, x, y, th, b3, b2, u, self.direction, k3)

    def copy(self) -> "NominalPath":
        """The same path in new arrays."""
        return NominalPath(
            s=self.s.copy(), x=self.x.copy(), y=self.y.copy(),
            theta3=self.theta3.copy(), beta3=self.beta3.copy(),
            beta2=self.beta2.copy(), u=self.u.copy(), kappa3=self.kappa3.copy(),
            direction=self.direction, delta_s=self.delta_s,
            s_end_true=self.s_end_true,
        )

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "x3r", "y3r", "theta3r", "beta3r", "beta2r",
                             "ur", "v3r_sign", "kappa3r"])
            for i in range(len(self.s)):
                writer.writerow([repr(float(v)) for v in (
                    self.s[i], self.x[i], self.y[i], self.theta3[i], self.beta3[i],
                    self.beta2[i], self.u[i], self.direction, self.kappa3[i])])

    @classmethod
    def read_csv(cls, path) -> "NominalPath":
        data = np.genfromtxt(path, delimiter=",", names=True)
        data = np.atleast_1d(data)
        s = data["s"]
        if len(s) < 2:
            raise InfeasiblePath("path CSV must contain at least two samples")
        delta_s = float(s[1] - s[0])
        if not np.allclose(np.diff(s), delta_s, atol=1e-9):
            raise InfeasiblePath("path CSV must be uniformly sampled in s")
        return cls(
            s=np.asarray(s, dtype=float),
            x=np.asarray(data["x3r"], dtype=float),
            y=np.asarray(data["y3r"], dtype=float),
            theta3=np.asarray(data["theta3r"], dtype=float),
            beta3=np.asarray(data["beta3r"], dtype=float),
            beta2=np.asarray(data["beta2r"], dtype=float),
            u=np.asarray(data["ur"], dtype=float),
            kappa3=np.asarray(data["kappa3r"], dtype=float),
            direction=float(data["v3r_sign"][0]),
            delta_s=delta_s,
        )


def interpolate(path: NominalPath, s) -> PathSample:
    """PathSample at station s by linear interpolation between the two
    samples around it (angles stored unwrapped); raises OutOfDomain outside
    [0, s_end], NaN included.

    The two samples are read from the arrays as Python floats, which round
    as numpy's float64 scalars do, so the fields are the bits of the same
    arithmetic on the arrays at a fraction of numpy's per-call cost.
    """
    s = float(s)
    s_end = path.s_end
    if not (-1e-9 <= s <= s_end + 1e-9):
        raise OutOfDomain(f"station {s} outside [0, {s_end:.3f}]")
    last = len(path.s) - 1
    # np.clip's argument order, which decides the sign of a zero
    pos = min(float(last), max(0.0, s / path.delta_s))
    i = min(int(pos), last - 1)
    t = pos - i
    x, y, th, b3, b2, u, k3 = [(1.0 - t) * a.item(i) + t * a.item(i + 1) for a in (
        path.x, path.y, path.theta3, path.beta3, path.beta2, path.u, path.kappa3)]
    return PathSample(s, x, y, th, b3, b2, u, path.direction, k3)


def eq_residuals(params, path: NominalPath) -> np.ndarray:
    """Per-interval residual of x_{k+1} - x_k - delta_s * dir * f(x_k, u_k),
    f the flow per unit of semitrailer travel."""
    X = np.vstack([path.x, path.y, path.theta3, path.beta3, path.beta2])
    # the time derivatives at unit forward speed, per unit of C1 = v3 / v
    rates, c1 = derivatives_batch(params, X[:, :-1], path.u[:-1], 1.0)
    step = np.diff(X, axis=1) - path.delta_s * path.direction * (rates / c1)
    return np.linalg.norm(step, axis=0)


# the most samples a generated path may hold: 200 km at 0.2 m (eight
# float64 arrays, 61 MiB)
MAX_PATH_SAMPLES = 10 ** 6


def _sample_count(length, delta_s) -> int:
    """Samples of a path of ``length`` meters at spacing ``delta_s``, both
    ends included; raises ValueError unless delta_s is positive and finite
    and the count is a finite number no larger than MAX_PATH_SAMPLES."""
    if not (math.isfinite(delta_s) and delta_s > 0.0):
        raise ValueError(f"delta_s must be positive and finite, got {delta_s}")
    intervals = length / delta_s
    if not (math.isfinite(intervals) and round(intervals) < MAX_PATH_SAMPLES):
        raise ValueError(f"a path of {length} m at {delta_s} m spacing would "
                         f"exceed {MAX_PATH_SAMPLES} samples")
    return round(intervals) + 1


def generate_straight(length, direction, delta_s=0.2) -> NominalPath:
    """Straight path along the x-axis with all angles and curvatures zero.
    Raises ValueError unless the direction is -1 or +1 and the length is
    positive and gives at most MAX_PATH_SAMPLES samples at a positive,
    finite delta_s."""
    if not (is_real(direction) and direction in (-1, 1)):
        raise ValueError(f"direction must be -1 or +1, got {direction!r}")
    if length <= 0.0:
        raise ValueError("length must be positive")
    n = _sample_count(length, delta_s)
    s = np.arange(n) * delta_s
    zeros = np.zeros(n)
    return NominalPath(
        s=s, x=direction * s, y=zeros.copy(), theta3=zeros.copy(),
        beta3=zeros.copy(), beta2=zeros.copy(), u=zeros.copy(), kappa3=zeros.copy(),
        direction=float(direction), delta_s=float(delta_s),
    )


# the figure-eight's smoothstep blends and its straight leads at either end (m)
_BLEND, _LEAD = 16.0, 2.0


def _eight_breaks(radius) -> np.ndarray:
    """Segment boundaries of the figure-eight's heading-rate profile: lead,
    blend, a hold of 2 pi radius - 16 m, a double blend, hold, blend, lead."""
    hold = 2.0 * math.pi * radius - _BLEND
    return np.cumsum([0.0, _LEAD, _BLEND, hold, 2.0 * _BLEND, hold, _BLEND, _LEAD])


def figure_eight_length(radius) -> float:
    """Length in meters of the figure-eight of ``radius``, 4 pi radius + 36."""
    return float(_eight_breaks(radius)[-1])


def _smoothstep_profile(breaks, levels, s):
    """Piecewise profile at the stations ``s``: constant levels joined by
    smoothstep ramps.

    ``breaks`` are segment boundaries s_0 < s_1 < ... ; segment i spans
    [s_i, s_{i+1}] and ramps from levels[i] to levels[i+1] (equal levels give
    a constant segment).  Returns the (value, slope) arrays.
    """
    i = np.clip(np.searchsorted(breaks, s, side="right") - 1, 0, len(levels) - 2)
    a, b = levels[i], levels[i + 1]
    length = breaks[i + 1] - breaks[i]
    t = np.clip((s - breaks[i]) / length, 0.0, 1.0)
    return a + (b - a) * t * t * (3.0 - 2.0 * t), (b - a) * 6.0 * t * (1.0 - t) / length


def _tractor_curvature(params, sb2, cb2, wl):
    """Solve the beta3 flow equation R1(beta2, u) = w for u in closed form,
    from sin and cos of beta2 and wl = w L2 cos(beta3).  Arithmetic only, so
    floats and numpy arrays give the same bits."""
    return (sb2 - wl * cb2) / (params.M1 * (cb2 + wl * sb2))


def _math_map(fn, a) -> np.ndarray:
    """libm's ``fn`` on every element of the float array ``a``, where numpy's
    arctan, tan and square round otherwise; called once per run of equal
    bits (0.0 and -0.0 differ), as libm gives one argument's bits one result."""
    bits = a.view(np.int64)
    first = np.ones(len(a), bool)
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    first = np.flatnonzero(first)
    values = np.fromiter(map(fn, a[first].tolist()), float, len(first))
    return values.repeat(np.diff(first, append=len(a)))


def _rk4_sum(h, k1, k2, k3, k4) -> np.ndarray:
    """The running sum from 0 of RK4 steps of length h, one step per set of
    stage rates: the state at every step start and at the end."""
    steps = h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.add.accumulate(np.concatenate([[0.0], steps]))


# the travel direction a figure-eight is built in: its internal joint
# dynamics are stable that way
_EIGHT_VBAR = -1.0


def _eight_stations(params, radius, h, m):
    """beta3r, tan(beta3r), cos(beta3r) and wl = w L2 cos(beta3r), w the
    beta3 flow target, at the m substep starts of the figure-eight of
    ``radius`` and then at the m - 1 midpoints between them."""
    gm = 1.0 / radius
    levels = np.array([0.0, 0.0, gm, gm, -gm, -gm, 0.0, 0.0])
    # substep starts, summed in the order of s += h, so s_j + h is s_{j+1}
    steps = np.full(m, h)
    steps[0] = 0.0
    starts = np.add.accumulate(steps)
    g, g_s = _smoothstep_profile(_eight_breaks(radius), levels,
                                 np.concatenate([starts, starts[:-1] + 0.5 * h]))
    L3, vbar = params.L3, _EIGHT_VBAR
    b3 = _math_map(math.atan, L3 * vbar * g)
    cb3 = np.cos(b3)
    # (L3 g) ** 2 by libm's pow, as a float squares: (2.0).__rpow__(v) = v ** 2.0
    wl = (L3 * g_s / (1.0 + _math_map((2.0).__rpow__, L3 * g)) + vbar * g) \
        * params.L2 * cb3
    return b3, _math_map(math.tan, b3), cb3, wl


def _eight_poses(h, rate, m):
    """theta3, x and y at the m substep starts, from the heading rate at
    the starts and then the midpoints.  theta3's stage rates depend on s
    alone (k2 = k3, at the midpoint), so its RK4 steps are known before the
    sum, and with them the stages of x and y."""
    r_start, r_mid = rate[:m], rate[m:]
    th = _rk4_sum(h, r_start[:-1], r_mid, r_mid, r_start[1:])
    th0 = th[:-1]
    stages = (th0, th0 + 0.5 * h * r_start[:-1], th0 + 0.5 * h * r_mid, th0 + h * r_mid)
    vbar = _EIGHT_VBAR
    return (th, _rk4_sum(h, *(vbar * np.cos(a) for a in stages)),
            _rk4_sum(h, *(vbar * np.sin(a) for a in stages)))


def _eight_beta2(params, h, sub, cb3, wl, m) -> np.ndarray:
    """beta2r at every sub-th substep start from 0, stepped by RK4 on
    cos(beta3r) and wl at the m substep starts and then the midpoints.

    A step is a deterministic map of beta2 on its six stage inputs, so once
    a step returns beta2's own bits, every later step with the same inputs'
    bits would too, and their run ends there: in the constant-curvature
    holds, once beta2 settles, which skips 3147 of the 7185 steps of the
    radius-20 build at delta_s 0.2."""
    sin, cos = math.sin, math.cos
    M1, L2, M1_L2 = params.M1, params.L2, params.M1 / params.L2
    vbar = _EIGHT_VBAR
    # memoryviews index as plain floats; lists of them would add about
    # 1 MB to the peak RSS of a radius-20 build
    cb3_start, cb3_mid = memoryview(cb3[:m]), memoryview(cb3[m:])
    wl_start, wl_mid = memoryview(wl[:m]), memoryview(wl[m:])
    # the first step of every run; step j has step j - 1's inputs' bits when
    # starts j - 1, j and j + 1 agree, and midpoints j - 1 and j
    cb, wb = cb3.view(np.int64), wl.view(np.int64)
    start_eq = (cb[1:m] == cb[:m - 1]) & (wb[1:m] == wb[:m - 1])
    mid_eq = (cb[m + 1:] == cb[m:-1]) & (wb[m + 1:] == wb[m:-1])
    firsts = np.flatnonzero(~(start_eq[:-1] & start_eq[1:] & mid_eq)) + 1
    firsts = [0] + firsts.tolist() if m > 1 else []
    bits_of = struct.Struct("d").pack

    def rate(b2, cb3, wl):
        # _tractor_curvature, then n2 / c1 of chain_terms, written out: two
        # more calls per stage make the loop about half again as slow
        sb2, cb2 = sin(b2), cos(b2)
        u = (sb2 - wl * cb2) / (M1 * (cb2 + wl * sb2))
        return vbar * (u - sb2 / L2 + M1_L2 * cb2 * u) / (cb3 * (cb2 + M1 * sb2 * u))

    b2s = np.zeros(m)   # beta2 at every substep start
    out = memoryview(b2s)
    b2 = 0.0
    for first, end in zip(firsts, firsts[1:] + [m - 1]):
        c0, cm, c1 = cb3_start[first], cb3_mid[first], cb3_start[first + 1]
        w0, wm, w1 = wl_start[first], wl_mid[first], wl_start[first + 1]
        for j in range(first + 1, end + 1):
            k1 = rate(b2, c0, w0)
            k2 = rate(b2 + 0.5 * h * k1, cm, wm)
            k3 = rate(b2 + 0.5 * h * k2, cm, wm)
            k4 = rate(b2 + h * k3, c1, w1)
            b2, before = b2 + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), b2
            out[j] = b2
            if j < end and bits_of(b2) == bits_of(before):
                b2s[j + 1:end + 1] = b2
                break
    return b2s[::sub].copy()


def _remember(cache, key, value, size=4):
    """Put ``value`` in the insertion-ordered ``cache``, dropping the
    oldest entry beyond ``size``."""
    cache[key] = value
    if len(cache) > size:
        cache.pop(next(iter(cache)))


_eights = {}   # generate_figure_eight's last backward builds


def generate_figure_eight(radius, direction, delta_s=0.2,
                          params=None) -> NominalPath:
    """Closed figure-eight nominal path with peak semitrailer curvature 1/radius.

    The semitrailer heading-rate profile g(s) is designed directly (two
    constant-curvature lobes of one full turn each, joined by 16 m
    smoothstep blends, with 2 m of straight line at either end), beta3r
    follows in closed form from kappa3r = tan(beta3r)/L3 and the tractor
    curvature is solved algebraically from the beta3 flow equation, so the
    result satisfies the path flow equation by construction.

    The path is integrated by RK4 with 5 substeps per sample, all on
    arrays but for beta2.  g, its slope, beta3r and the beta3 flow target w
    are evaluated at once at every substep start and midpoint; theta3r, x
    and y follow as running sums of their RK4 increments, since theta3r's
    rate depends on s alone.  beta2r is the one state stepped in a Python
    loop, on the precomputed stage inputs.  libm runs once per run of equal
    arguments, and the beta2 loop stops a run of equal stage inputs at a
    fixed point: both are deterministic maps of bits, so the samples keep
    the bits of the scalar RK4 of the four states in plain Python.  Raises
    InfeasiblePath if the implied tractor curvature or curvature rate
    exceeds the actuator limits, and ValueError unless the direction is -1
    or +1, the radius is positive and the path, 4 pi radius + 36 m long,
    gives at most MAX_PATH_SAMPLES samples at a positive, finite delta_s.

    The path is always integrated backward, and a process keeps its last
    four backward builds by (radius, delta_s, params) and the number types
    of radius and delta_s, so it builds each distinct eight once.  Every
    call gets new arrays, a copy of the kept build or its reversal for
    direction +1, so a write to one call's path reaches no other.  A build
    that raises keeps nothing.
    """
    if not (is_real(direction) and direction in (-1, 1)):
        raise ValueError(f"direction must be -1 or +1, got {direction!r}")
    if params is None:
        params = VehicleParams()
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if 2.0 * math.pi * radius <= _BLEND:  # no room for the constant-curvature hold
        raise InfeasiblePath("radius too small for the 16 m blends")
    n = _sample_count(figure_eight_length(radius), delta_s)
    # equal numbers of other types round otherwise (np.float32 radius);
    # the params' fields are Python floats
    key = (radius, delta_s, params, type(radius), type(delta_s))
    back = _eights.get(key)
    if back is None:
        back = _backward_eight(params, radius, delta_s, n)
        _remember(_eights, key, back)
    return reverse_path(back) if direction == 1 else back.copy()


def _backward_eight(params, radius, delta_s, n) -> NominalPath:
    """The backward figure-eight of :func:`generate_figure_eight`, n samples
    at spacing delta_s; raises InfeasiblePath as it does."""
    sub = 5  # RK4 substeps per sample interval
    h = delta_s / sub
    m = sub * (n - 1) + 1  # substep starts, the last one the path end
    # the path keeps copies at the samples, none of the substep arrays
    keep = np.arange(0, m, sub)

    b3, tan_b3, cb3, wl = _eight_stations(params, radius, h, m)
    th, x, y = (a[keep] for a in _eight_poses(h, _EIGHT_VBAR * tan_b3 / params.L3, m))
    b2s = _eight_beta2(params, h, sub, cb3, wl, m)
    sb2, cb2 = np.sin(b2s), np.cos(b2s)
    us = _tractor_curvature(params, sb2, cb2, wl[keep])
    if np.max(np.abs(us)) > params.u_max:
        raise InfeasiblePath(
            f"implied tractor curvature {np.max(np.abs(us)):.3f} exceeds {params.u_max}")
    # nominal curvature rate must leave room for the controller's slew constraint
    du_ds = np.abs(np.diff(us)) / delta_s
    c1_nom = chain_terms(params, sb2, cb2, cb3[keep], us)[0]
    c_max = params.udot_max / np.maximum(c1_nom[:-1], 1e-9)
    if np.any(du_ds > c_max):
        raise InfeasiblePath("implied nominal curvature rate exceeds the slew limit")

    return NominalPath(
        s=np.arange(n) * delta_s, x=x, y=y, theta3=th, beta3=b3[keep], beta2=b2s,
        u=us, kappa3=tan_b3[keep] / params.L3, direction=_EIGHT_VBAR,
        delta_s=float(delta_s),
    )


def reverse_path(path: NominalPath) -> NominalPath:
    """Same geometry traversed in the opposite direction (sample order flipped)."""
    return NominalPath(
        s=path.s.copy(),
        x=path.x[::-1].copy(), y=path.y[::-1].copy(), theta3=path.theta3[::-1].copy(),
        beta3=path.beta3[::-1].copy(), beta2=path.beta2[::-1].copy(),
        u=path.u[::-1].copy(), kappa3=path.kappa3[::-1].copy(),
        direction=-path.direction, delta_s=path.delta_s,
        s_end_true=path.s_end_true,
    )


def equilibrium_joint(params, beta3):
    """Steady-cornering hitch angle and tractor curvature for a fixed beta3.

    At the returned (beta2, u) both joint-angle flow components vanish, so the
    chain traces a circle of semitrailer curvature tan(beta3)/L3 with all
    joint angles constant: u = sin b2 / (L2 + M1 cos b2) zeroes the beta2
    rate, and b2 solves L3 sin b2 - L2 sin b3 cos b2 = M1 sin b3.
    """
    sb3 = math.sin(beta3)
    a = params.L2 * sb3
    b2 = math.atan2(a, params.L3) + math.asin(params.M1 * sb3 / math.hypot(params.L3, a))
    return b2, math.sin(b2) / (params.L2 + params.M1 * math.cos(b2))


def extend_for_horizon(params, path: NominalPath, extra) -> NominalPath:
    """Append a constant-curvature tail past the end of the path.

    The tail continues the final semitrailer curvature (from the last
    beta3) as an exact circular arc, a straight line when the path ends
    straight, with the steady-cornering beta2 and tractor curvature of
    :func:`equilibrium_joint`.  Unlike integrating the open-loop flow, which
    is unstable for backward paths, it never winds up the joint angles.
    The junction is not smooth: where the path ends before its joint angles
    settle, beta2 and the tractor curvature jump to their steady values at
    ``s_end_true``.  On the backward figure-eight of radius 20 (extended by
    12 m) they jump from 0.0234 rad and 0.0141 1/m to 0 and 0, and
    :func:`eq_residuals` is 0.0205 on the junction interval (index 1437)
    against at most 1.13e-3 on every other one.  s_end_true still marks the
    end of the real path data.
    """
    n_extra = int(math.ceil(extra / path.delta_s))
    if n_extra <= 0:
        return path
    b3 = float(path.beta3[-1])
    kappa = math.tan(b3) / params.L3
    b2, u_eq = equilibrium_joint(params, b3)
    x0, y0, th0 = float(path.x[-1]), float(path.y[-1]), float(path.theta3[-1])
    ds = path.delta_s * path.direction * np.arange(1, n_extra + 1)
    th = th0 + kappa * ds
    if abs(kappa) > 1e-12:
        xs = x0 + (np.sin(th) - math.sin(th0)) / kappa
        ys = y0 - (np.cos(th) - math.cos(th0)) / kappa
    else:
        xs = x0 + np.cos(th0) * ds
        ys = y0 + np.sin(th0) * ds
    n_old = len(path)
    return NominalPath(
        s=np.arange(n_old + n_extra) * path.delta_s,
        x=np.concatenate([path.x, xs]),
        y=np.concatenate([path.y, ys]),
        theta3=np.concatenate([path.theta3, th]),
        beta3=np.concatenate([path.beta3, np.full(n_extra, b3)]),
        beta2=np.concatenate([path.beta2, np.full(n_extra, b2)]),
        u=np.concatenate([path.u, np.full(n_extra, u_eq)]),
        kappa3=np.concatenate([path.kappa3, np.full(n_extra, kappa)]),
        direction=path.direction, delta_s=path.delta_s,
        s_end_true=path.s_end_true,
    )


def project(path: NominalPath, p, s_prev, window=2.0) -> float:
    """Station of the orthogonal projection of point p onto the polyline
    through the samples, the path that :func:`interpolate` sees.

    The nearest point in [s_prev - window, s_prev + window] is the foot of
    the perpendicular on a chord, clipped to the chord and the window (on a
    tie the first wins); the returned station never decreases below s_prev.
    Raises ProjectionLost when that point is the forward window edge inside
    the path, i.e. no local projection exists inside the window.  The chord
    loop clamps by comparisons, with the bits of the builtin min and max at
    half their cost.
    """
    px, py = float(p[0]), float(p[1])
    lo = max(0.0, s_prev - window)
    hi = min(path.s_end, s_prev + window)
    if hi <= lo:
        raise ProjectionLost("projection window collapsed at the path end")

    ds = path.delta_s
    last = len(path.s) - 1
    k_lo = min(math.floor(lo / ds), last - 1)
    k_hi = max(min(math.ceil(hi / ds), last), k_lo + 1)
    # the samples of the window's chords k_lo .. k_hi - 1
    xs, ys = path.x[k_lo:k_hi + 1].tolist(), path.y[k_lo:k_hi + 1].tolist()
    s_best, d2_best = lo, math.inf
    for k, ax, ay, bx, by in zip(range(k_lo, k_hi), xs, ys, xs[1:], ys[1:]):
        ex, ey = bx - ax, by - ay
        ee = ex * ex + ey * ey
        t = ((px - ax) * ex + (py - ay) * ey) / ee if ee > 0.0 else 0.0
        # min(hi, max(lo, (k + min(1.0, max(0.0, t))) * ds)): each clamp
        # keeps its bound on a tie or NaN, as min/max keep their first
        # argument (lo < hi)
        t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0
        s = (k + t) * ds
        s = (s if s < hi else hi) if s > lo else lo
        t = s / ds - k
        dx, dy = ax + t * ex - px, ay + t * ey - py
        d2 = dx * dx + dy * dy
        if d2 < d2_best:
            s_best, d2_best = s, d2
    if s_best >= hi and hi < path.s_end - 1e-9 and hi > s_prev + 1e-9:
        raise ProjectionLost("nearest point is at the forward edge of the search window")
    return max(s_best, float(s_prev))
