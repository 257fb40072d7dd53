"""Coupled-mode design arithmetic for the integrated realization.

Directional couplers exchange power sinusoidally with polarization-
specific beat lengths (birefringence makes the H and V cycles differ),
so splitting ratios are set purely by coupler length:

    cross_power(L) = sin^2(pi L / beat)

This module solves coupler lengths for target split ratios, calibrates
the notched-ring polarization rotators from measured anchor points, and
synthesizes imperfect element matrices for fabrication-tolerance sweeps
of the gate circuit.  Beat lengths are calibrated inputs; their
sensitivities to geometry changes default to zero and must be
configured explicitly before running tolerance studies.

A tolerance sweep computes the coupling angles of every perturbed coupler
at every grid point as one (points, couplers, 2) array.  It then evaluates
the grid in batches of at most `_SWEEP_BATCH` points, so its memory does
not grow with the grid: the netlist's elements are realized once, the
couplers' matrices of a whole batch are filled from their angles in one
step, and the circuit rows the readout needs, per point, are composed and
read out at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .fock import H, V, Polarization
from .gate import (
    COUPLER_KINDS,
    ElementSpec,
    Netlist,
    _as_tuple,
    _fidelity,
    _number,
    _once,
    _pairs,
    coupler_angles,
    coupler_operators,
    extract_gate,  # perfbench traces and restores design.extract_gate by name
    ideal_cphase,
)

DIMENSIONS = ("width", "height", "gap")

# Grid sizes beyond which the solvers and the sweep refuse to allocate.  A
# length scan point or whole-beat candidate costs a few floats, and a sweep
# point its row of results; its circuit and permanents live only while its
# batch is evaluated.
MAX_SCAN_POINTS = 10**6
MAX_SWEEP_POINTS = 10_001

# The length solver's scan step and the width to which golden-section search
# refines each local minimum, both in um.
GRID_STEP_UM = 0.01
REFINE_TOL_UM = 1e-4

# Grid points evaluated together by `tolerance_sweep`.  A batch's
# intermediates grow with the outputs the herald accepts: a batch of 64
# adds about 7 MB to the peak for the shipped herald, and about 35 MB for a
# herald on the photon count of one port alone.
_SWEEP_BATCH = 64


class PhysicsError(ValueError):
    """Raised when a physics configuration fails validation."""


@dataclass(frozen=True)
class CouplerDesign:
    """Reference design of one coupler type, fabricated as `elements`.

    `targets` and `weights` are the (H, V) bar powers the length solver
    aims for and their weights in its residual; `search_range_um` is the
    default length range searched and `reference_um` the reference
    working-point length.
    """

    elements: tuple[str, ...]
    targets: tuple[float, float]
    weights: tuple[float, float]
    search_range_um: tuple[float, float]
    reference_um: float


# The reference designs of the default netlist's couplers.  The V-preserving
# filter f2 is not solved but enumerated at whole V beats, with its residual
# the squared miss of the H bar-power target.
COUPLER_DESIGNS = MappingProxyType({
    "pbs": CouplerDesign(("PBS1", "PBS2", "PBS3"), (1.0, 0.0), (1.0, 1e6), (60.0, 80.0), 70.72),
    "ppbs": CouplerDesign(("PPBS",), (1.0, 1.0 / 3.0), (1.0, 1.0), (30.0, 40.0), 35.90),
    "f1": CouplerDesign(("F1",), (0.25, 0.0), (1.0, 0.0), (5.0, 20.0), 12.00),
    "f2": CouplerDesign(("F2",), (1.0 / 3.0, 1.0), (1.0, 0.0), (80.0, 90.0), 83.20),
})


# The range rules of physics numbers, by the text that states them.
_RANGES = MappingProxyType({
    "positive": lambda x: x > 0,
    "non-negative": lambda x: x >= 0,
    "in [0, 1]": lambda x: 0 <= x <= 1,
})


def _float(value: object, what: str, rule: str | None = None) -> float:
    """`value` as a float: a number (`gate._number`) within `rule`, or PhysicsError naming `what`."""
    number = float(_number(value, what, PhysicsError))
    if rule is not None and not _RANGES[rule](number):
        raise PhysicsError(f"{what} must be {rule}, got {value!r}")
    return number


@dataclass(frozen=True)
class NotchAnchor:
    """One measured notch conversion, checked when it is made.

    `length_um` is non-negative and `conversion`, the power fraction turned
    to the orthogonal polarization, in [0, 1]; both are stored as floats.
    A fault raises PhysicsError naming the field.
    """

    length_um: float
    input_pol: Polarization
    conversion: float

    def __post_init__(self):
        if not isinstance(self.input_pol, Polarization):
            raise PhysicsError(f"notch anchor input_pol {self.input_pol!r} is not a Polarization (H or V)")
        for field, rule in (("length_um", "non-negative"), ("conversion", "in [0, 1]")):
            object.__setattr__(self, field, _float(getattr(self, field), f"notch anchor {field}", rule))


DEFAULT_NOTCH_ANCHORS = (
    NotchAnchor(0.75, V, 0.25),
    NotchAnchor(2.90, H, 0.50),
    NotchAnchor(2.75, V, 0.50),
)


@dataclass(frozen=True)
class NotchCalibration:
    """Anchor-exact, piecewise-linear notch-length -> conversion maps.

    Interpolation is per input polarization and never extrapolates:
    the published curves are only trusted at the anchor points.  The
    anchors, a list or tuple of NotchAnchors, are stored as a tuple; any
    other value, or two anchors of one polarization at one length, raise
    PhysicsError naming it when the calibration is made.
    """

    anchors: tuple[NotchAnchor, ...] = DEFAULT_NOTCH_ANCHORS

    def __post_init__(self):
        anchors = _as_tuple(self.anchors, "notch anchors", "NotchAnchors", PhysicsError, NotchAnchor)
        object.__setattr__(self, "anchors", anchors)
        _once([(a.input_pol.value, a.length_um) for a in anchors],
              "notch anchor (input_pol, length_um)", PhysicsError)

    def _segment(self, pol: Polarization) -> list[NotchAnchor]:
        pts = sorted(
            (a for a in self.anchors if a.input_pol is pol),
            key=lambda a: a.length_um,
        )
        if not pts:
            raise ValueError(f"no calibration anchors for input polarization {pol.value}")
        return pts

    def conversion(self, notch_length_um: float, input_pol: Polarization) -> float:
        pts = self._segment(input_pol)
        lo, hi = pts[0].length_um, pts[-1].length_um
        if not (lo <= notch_length_um <= hi):
            raise ValueError(
                f"notch length {notch_length_um} um outside calibrated span "
                f"[{lo}, {hi}] um for {input_pol.value} input (no extrapolation)"
            )
        for a, b in zip(pts, pts[1:]):
            if a.length_um <= notch_length_um <= b.length_um:
                f = (notch_length_um - a.length_um) / (b.length_um - a.length_um)
                return a.conversion + f * (b.conversion - a.conversion)
        return pts[-1].conversion


@dataclass(frozen=True)
class CouplerPhysics:
    """Calibrated coupler behavior: beat lengths, sensitivities, design lengths.

    Checked when it is made, in Python or from a file: each number obeys
    `_float` and is stored as a float, and every fault raises PhysicsError.
    beat_h / beat_v are full power-exchange cycle lengths in um, positive.
    sensitivities always holds one (dimension, (H, V)) pair per DIMENSIONS
    entry, in that order: the beat-length shift in um per nm of that
    deviation, (0.0, 0.0) for a dimension left out.  coupler_lengths are
    the non-negative fabricated lengths by element name, sorted by name;
    by default the reference lengths of COUPLER_DESIGNS.  Both tables are
    lists or tuples of (str, value) pairs (`gate._pairs`); any other table,
    an unknown dimension, a name given twice, a pair of another shape and
    a notch that is not a NotchCalibration are refused.
    """

    beat_h: float = 35.80
    beat_v: float = 8.32
    sensitivities: tuple[tuple[str, tuple[float, float]], ...] = ()
    coupler_lengths: tuple[tuple[str, float], ...] = tuple(
        (name, design.reference_um)
        for design in COUPLER_DESIGNS.values()
        for name in design.elements
    )
    notch: NotchCalibration = NotchCalibration()

    def __post_init__(self):
        if not isinstance(self.notch, NotchCalibration):
            raise PhysicsError(f"notch must be a NotchCalibration, got {self.notch!r}")
        given = _pairs(self.sensitivities, "sensitivities", "sensitivity dimension", PhysicsError)
        for dim, pair in given.items():
            if dim not in DIMENSIONS:
                raise PhysicsError(f"unknown sensitivity dimension {dim!r}; expected one of {DIMENSIONS}")
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise PhysicsError(f"sensitivities for {dim!r} must be a tuple (H, V), got {pair!r}")
        lengths = _pairs(self.coupler_lengths, "coupler_lengths", "coupler name", PhysicsError)
        for field in ("beat_h", "beat_v"):
            object.__setattr__(self, field, _float(getattr(self, field), field, "positive"))
        object.__setattr__(self, "sensitivities", tuple(
            (dim, tuple(_float(s, f"sensitivity {pol} for {dim!r}") for pol, s in zip("HV", pair)))
            for dim, pair in (dict.fromkeys(DIMENSIONS, (0.0, 0.0)) | given).items()
        ))
        object.__setattr__(self, "coupler_lengths", tuple(
            (name, _float(lengths[name], f"coupler length of {name!r}", "non-negative"))
            for name in sorted(lengths)
        ))

    def with_sensitivities(self, dimension: str, s_h: float, s_v: float) -> "CouplerPhysics":
        """A copy with the (H, V) sensitivities of `dimension` replaced, checked as when made."""
        sensitivities = {**dict(self.sensitivities), dimension: (s_h, s_v)}
        return replace(self, sensitivities=tuple(sensitivities.items()))


def cross_power(length_um: float, beat_um: float) -> float:
    """Power fraction transferred to the adjacent waveguide after `length_um`.

    A length or beat that is not finite raises ValueError naming it; a
    beat so short against the length that pi L / beat is not finite
    raises PhysicsError naming both.
    """
    if not (0 < beat_um < math.inf and 0 <= length_um < math.inf):  # one test on the solvers' hot path
        for what, value in (("coupler length", length_um), ("beat length", beat_um)):
            if not math.isfinite(value):
                raise ValueError(f"{what} {value} um is not finite")
        if beat_um <= 0:
            raise ValueError(f"beat length must be positive, got {beat_um}")
        raise ValueError(f"coupler length must be non-negative, got {length_um}")
    phase = math.pi * length_um / beat_um
    if not math.isfinite(phase):
        raise _short_beat(beat_um, length_um)
    return math.sin(phase) ** 2


def _short_beat(beat_um: float, length_um: float) -> PhysicsError:
    return PhysicsError(
        f"beat length {beat_um} um is too short for a coupler length of "
        f"{length_um} um: pi L / beat is not finite"
    )


def bar_power(length_um: float, beat_um: float) -> float:
    """Power fraction remaining in the original waveguide."""
    return 1.0 - cross_power(length_um, beat_um)


@dataclass(frozen=True)
class LengthSolution:
    length_um: float
    bar_h: float
    bar_v: float
    residual: float


def solve_coupler_length(
    physics: CouplerPhysics,
    targets: tuple[float, float],
    weights: tuple[float, float],
    length_range: tuple[float, float],
    count: int = 3,
) -> list[LengthSolution]:
    """Best coupler lengths for target bar powers (weighted least squares).

    Scans a dense grid (step at most GRID_STEP_UM) over `length_range`,
    refines each local minimum by golden-section search to REFINE_TOL_UM,
    and returns the `count` lowest-residual solutions; ties break toward
    shorter length.  A range refused by `_length_range`, a count by
    `_check_count`, a target outside [0, 1] or a range needing more than
    MAX_SCAN_POINTS scan points raises ValueError; a beat too short for the
    lengths scanned raises PhysicsError (see `cross_power`).
    """
    lo, hi = _length_range(length_range)
    _check_count(count)
    for t in targets:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"bar-power target {t} outside [0, 1]")
    t_h, t_v = targets
    w_h, w_v = weights

    def residual(L: float) -> float:
        dh = bar_power(L, physics.beat_h) - t_h
        dv = bar_power(L, physics.beat_v) - t_v
        return w_h * dh * dh + w_v * dv * dv

    span = (hi - lo) / GRID_STEP_UM
    if not span <= MAX_SCAN_POINTS - 1:  # ceil(span) + 1 scan points
        raise ValueError(
            f"length range [{lo}, {hi}] um needs more than {MAX_SCAN_POINTS} "
            f"scan points at step {GRID_STEP_UM} um"
        )
    n = max(2, int(math.ceil(span)) + 1)
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values = [residual(L) for L in grid]

    minima: list[float] = []
    for i, val in enumerate(values):
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i + 1 < n else math.inf
        if val <= left and val <= right:
            a = grid[max(0, i - 1)]
            b = grid[min(n - 1, i + 1)]
            minima.append(_golden_section(residual, a, b))

    solutions = [
        LengthSolution(
            L,
            bar_power(L, physics.beat_h),
            bar_power(L, physics.beat_v),
            residual(L),
        )
        for L in minima
    ]
    solutions.sort(key=lambda s: (s.residual, s.length_um))
    deduped: list[LengthSolution] = []
    for s in solutions:
        if all(abs(s.length_um - d.length_um) > 10 * REFINE_TOL_UM for d in deduped):
            deduped.append(s)
    return deduped[:count]


def _length_range(length_range: tuple[float, float]) -> tuple[float, float]:
    """(lo, hi) of a solver's length range; ValueError unless both are finite and hi > lo >= 0."""
    lo, hi = length_range
    for bound in (lo, hi):
        if not math.isfinite(bound):
            raise ValueError(f"length range bound {bound} um is not finite")
    if not hi > lo >= 0:
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    return lo, hi


def _check_count(count: int) -> None:
    """ValueError unless a solver's solution count is an int, not a bool, of at least 1."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise ValueError(f"solution count must be an int, got {count!r}")
    if count < 1:
        raise ValueError(f"solution count must be at least 1, got {count}")


def _golden_section(f, a: float, b: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > REFINE_TOL_UM:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def enumerate_v_perfect_lengths(
    physics: CouplerPhysics, length_range: tuple[float, float], count: int | None = None
) -> list[LengthSolution]:
    """Lengths at which the V polarization stays entirely in its waveguide.

    These are the integer multiples of beat_v inside the range, in
    ascending order, each annotated with its bar_h power (residual is the
    squared H deviation from the 1/3 bar-power goal of COUPLER_DESIGNS["f2"]).
    With `count`, only the `count` shortest are built.  A range or count
    that `solve_coupler_length` refuses, or a range of MAX_SCAN_POINTS V
    beats or more, which can hold more than that many candidates, raises
    ValueError; a V beat so short that hi / beat_v is not finite raises
    PhysicsError instead, and so does a beat for which `cross_power` does.
    """
    lo, hi = _length_range(length_range)
    if count is not None:
        _check_count(count)
    if not math.isfinite(hi / physics.beat_v):  # the beat is at fault, not the range
        raise _short_beat(physics.beat_v, hi)
    if not (hi - lo) / physics.beat_v < MAX_SCAN_POINTS:
        raise ValueError(
            f"length range [{lo}, {hi}] um spans {MAX_SCAN_POINTS} or more V beats"
        )
    target_h = COUPLER_DESIGNS["f2"].targets[0]
    out = []
    k = max(1, int(math.ceil(lo / physics.beat_v - 1e-12)))
    while k * physics.beat_v <= hi + 1e-12 and (count is None or len(out) < count):
        L = k * physics.beat_v
        if L >= lo - 1e-12:
            bh = bar_power(L, physics.beat_h)
            out.append(
                LengthSolution(L, bh, bar_power(L, physics.beat_v), (bh - target_h) ** 2)
            )
        k += 1
    return out


# -- fabrication-tolerance synthesis ----------------------------------------

def delta_theta(
    length_um: float | np.ndarray,
    beat_um: float | np.ndarray,
    sensitivity_um_per_nm: float | np.ndarray,
    delta_nm: float | np.ndarray,
) -> float | np.ndarray:
    """Coupling-angle drift when the beat length shifts linearly with geometry.

    theta(L) = pi L / beat; a beat shift of s * delta changes the angle by
    pi L (1/(beat + s d) - 1/beat) at the fixed fabricated length.  The
    arguments broadcast: floats give a float, arrays an array of drifts.
    A perturbed beat that is non-positive or not finite raises PhysicsError
    naming it and its delta, the first in delta order.  The arithmetic
    trips no numpy warning; a drift too large for a float comes back
    non-finite.
    """
    deltas = np.asarray(delta_nm, dtype=float)
    with np.errstate(all="ignore"):
        shifted = beat_um + sensitivity_um_per_nm * deltas
        bad = ~((shifted > 0) & (shifted < math.inf))
        if bad.any():
            first = tuple(np.argwhere(bad)[0])
            beat = float(shifted[first])
            raise PhysicsError(
                f"perturbed beat length {beat} um at delta "
                f"{float(np.broadcast_to(deltas, bad.shape)[first])} nm is "
                f"{'non-positive' if beat <= 0 else 'not finite'}; "
                "sensitivity model out of validity"
            )
        drift = math.pi * length_um * (1.0 / shifted - 1.0 / beat_um)
    return float(drift) if np.ndim(drift) == 0 else drift


def perturbed_angles(
    netlist: Netlist,
    physics: CouplerPhysics,
    dimension: str,
    delta_nm: float | np.ndarray,
) -> tuple[tuple[str, ...], np.ndarray]:
    """Coupling angles of the netlist's couplers under a geometry deviation of `delta_nm` nm.

    The couplers are the pbs, ppbs and filter elements with a configured
    design length, named in netlist order; a length configured for a name
    that is no such element of the netlist raises PhysicsError naming it and
    listing the netlist's couplers, so a misspelt name is never left
    unperturbed without a word.  Each gets its own angles
    (`gate.coupler_angles`) plus the `delta_theta` drift at its fixed
    fabricated length, so at delta = 0 the angles are the elements' own.
    Returns the names and the angles, of shape delta.shape + (couplers, 2)
    with (theta_h, theta_v) last.  Each deviation is checked: a nonzero one
    needs nonzero sensitivities (ValueError), one beyond 10 nm warns once
    per call, and a perturbed beat or an angle that is non-positive or not
    finite raises PhysicsError naming the element and the delta.  A
    dimension not in DIMENSIONS raises KeyError naming it.
    """
    sensitivities = np.array(dict(physics.sensitivities)[dimension])
    deltas = np.asarray(delta_nm, dtype=float)
    if np.any(deltas != 0.0) and not sensitivities.any():
        raise ValueError(
            f"sensitivities for {dimension!r} are all zero; configure "
            "CouplerPhysics.sensitivities (a physics file's sensitivities_um_per_nm, "
            "um per nm) before running a nonzero tolerance study"
        )
    design_lengths = dict(physics.coupler_lengths)
    known = [el.name for el in netlist.elements if el.kind in COUPLER_KINDS]
    unknown = [name for name in design_lengths if name not in known]
    if unknown:
        raise PhysicsError(
            f"coupler length {unknown[0]!r} names no pbs, ppbs or filter of the netlist "
            f"(its couplers: {', '.join(known) or 'none'})"
        )
    widest = float(np.max(np.abs(deltas), initial=0.0))
    if widest > 10.0:
        warnings.warn(
            f"|delta| = {widest} nm exceeds the 10 nm envelope the "
            "linear sensitivity model was specified for",
            stacklevel=3,
        )
    # every configured length names a coupler, so these are the couplers with one
    couplers = [(el, design_lengths[el.name]) for el in netlist.elements
                if el.name in design_lengths]
    names = tuple(el.name for el, _ in couplers)
    if not couplers:
        return names, np.zeros(deltas.shape + (0, 2))
    lengths = np.array([[length] for _, length in couplers])
    beats = np.array([physics.beat_h, physics.beat_v])
    try:
        drifts = delta_theta(lengths, beats, sensitivities, deltas[..., None, None])
    except PhysicsError as exc:  # the beats are shared, so the first coupler meets them first
        raise PhysicsError(f"element {names[0]!r}: {exc}") from None
    angles = np.array([coupler_angles(el) for el, _ in couplers], dtype=float) + drifts
    finite = np.isfinite(angles)
    if not finite.all():
        # the first by element, then polarization, then delta
        k, pol, *at = np.argwhere(~np.moveaxis(finite, (-2, -1), (0, 1)))[0]
        delta = float(deltas[tuple(at)])
        raise PhysicsError(
            f"element {names[k]!r}: coupling angle theta_{'hv'[pol]} at delta {delta} nm "
            f"is {angles[(*at, k, pol)]}, not finite"
        )
    return names, angles


def synthesize_imperfect_elements(
    netlist: Netlist,
    physics: CouplerPhysics,
    dimension: str,
    delta_nm: float,
) -> dict[str, ElementSpec]:
    """Element overrides for one geometry deviation of `delta_nm` nanometers.

    Every coupler of `perturbed_angles` gets its perturbed angles as float
    `theta_h`/`theta_v`, with that function's checks, so at delta = 0 the
    overrides equal the elements as given.  An array of deviations raises
    ValueError: a grid's angles come from `perturbed_angles`.
    """
    if np.ndim(delta_nm) != 0:
        raise ValueError(
            f"one deviation is one device, got an array of shape {np.shape(delta_nm)}; "
            "perturbed_angles takes a grid"
        )
    names, angles = perturbed_angles(netlist, physics, dimension, delta_nm)
    return {
        name: netlist.element(name).with_params(theta_h=th_h, theta_v=th_v)
        for name, (th_h, th_v) in zip(names, angles.tolist())
    }


def sweep_deltas(delta_range_nm: tuple[float, float], step_nm: float) -> list[float]:
    """The deltas LO + n step of a tolerance sweep, for n = 0, 1, ... while not above HI.

    A slack of 1e-9 step keeps HI itself when the step divides the range.
    A bound or step that is not finite (ValueError naming it), a step that
    is not positive, HI < LO, or a grid of more than MAX_SWEEP_POINTS
    points raises ValueError.
    """
    lo, hi = delta_range_nm
    for what, value in (("delta range bound", lo), ("delta range bound", hi), ("step", step_nm)):
        if not math.isfinite(value):
            raise ValueError(f"{what} {value} nm is not finite")
    if step_nm <= 0:
        raise ValueError(f"step must be positive, got {step_nm}")
    if hi < lo:
        raise ValueError(f"invalid delta range [{lo}, {hi}]")
    last = (hi - lo) / step_nm + 1e-9
    if not last < MAX_SWEEP_POINTS:
        raise ValueError(
            f"a sweep of [{lo}, {hi}] nm at step {step_nm} nm has more than "
            f"{MAX_SWEEP_POINTS} points"
        )
    return [lo + i * step_nm for i in range(math.floor(last) + 1)]


@dataclass(frozen=True)
class SweepRow:
    delta_nm: float
    element_bars: tuple[tuple[str, float, float], ...]  # (name, bar_h, bar_v)
    herald_probabilities: tuple[float, float, float, float]
    fidelity: float


def tolerance_sweep(
    netlist: Netlist,
    physics: CouplerPhysics,
    dimension: str,
    delta_range_nm: tuple[float, float] = (-10.0, 10.0),
    step_nm: float = 1.0,
    phi: float = math.pi,
) -> list[SweepRow]:
    """Gate performance across a geometry-deviation grid.

    One row per grid point of `sweep_deltas`, in ascending delta order.
    One `perturbed_angles` call gives the (points, couplers, 2) angles of
    the whole grid, with its checks.  The grid is then evaluated in batches
    of at most `_SWEEP_BATCH` consecutive points: one `coupler_operators`
    call per batch, which composes the netlist's realized elements with the
    couplers' matrices of the batch filled from their angles, and one call
    of `process_fidelity`'s core on its operators, which `coupler_operators`
    has already checked.  A netlist without a perturbed coupler takes the
    same loop: its angles have no coupler axis, and `coupler_operators`
    then gives the netlist's own operator at every point.  Each row
    equals `extract_gate` on the netlist perturbed by its own delta
    (`synthesize_imperfect_elements`), bit for bit whatever the batch size;
    the bars are cos^2 of the perturbed angles, by element name, taken in
    one pass over the grid's angles.  A phase that is not finite raises
    ValueError naming phi, before anything else is computed.
    """
    ideal = ideal_cphase(phi)
    deltas = sweep_deltas(delta_range_nm, step_nm)
    names, angles = perturbed_angles(netlist, physics, dimension, np.array(deltas))
    probs, fidelity = [], []
    for start in range(0, len(deltas), _SWEEP_BATCH):
        operators, batch_probs = coupler_operators(
            netlist, names, angles[start : start + _SWEEP_BATCH], phi
        )
        probs += batch_probs.tolist()
        fidelity += _fidelity(operators, ideal).tolist()

    order = sorted(range(len(names)), key=names.__getitem__)
    sorted_names = [names[k] for k in order]
    # bit for bit math.cos(theta) ** 2: np.cos matches math.cos, and np.float_power is libm's pow
    bars = np.float_power(np.cos(angles[:, order]), 2.0)
    return [
        SweepRow(delta, tuple(zip(sorted_names, bars_h, bars_v)), tuple(row_probs), row_fidelity)
        for delta, bars_h, bars_v, row_probs, row_fidelity
        in zip(deltas, bars[..., 0].tolist(), bars[..., 1].tolist(), probs, fidelity)
    ]
