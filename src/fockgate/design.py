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

A tolerance sweep is evaluated as one batch: the coupling angles of the
whole deviation grid are arrays, so the perturbed netlist builds stacks
of element matrices, one circuit matrix per grid point, and the gate is
read off the whole stack at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fock import H, V, Polarization
from .gate import (
    ElementSpec,
    Netlist,
    circuit_matrix,
    extract_gate,  # perfbench traces and restores design.extract_gate by name
    heralded_operators,
    ideal_cphase,
    process_fidelity,
)

DIMENSIONS = ("width", "height", "gap")

# Nominal design lengths (um) for the default netlist's coupler-based
# elements; the r-prefixed entries are the ring-transfer couplers of the
# wave-plate assemblies, carried for documentation.
DEFAULT_COUPLER_LENGTHS = {
    "PBS1": 70.72,
    "PBS2": 70.72,
    "PBS3": 70.72,
    "PPBS": 35.90,
    "F1": 12.00,
    "F2": 83.20,
}


@dataclass(frozen=True)
class Geometry:
    """Waveguide cross-section and coupler gap, in nm; wavelength in um."""

    width_nm: float = 350.0
    height_nm: float = 350.0
    gap_nm: float = 250.0
    wavelength_um: float = 1.55


@dataclass(frozen=True)
class NotchAnchor:
    length_um: float
    input_pol: Polarization
    conversion: float  # power fraction converted to the orthogonal polarization


DEFAULT_NOTCH_ANCHORS = (
    NotchAnchor(0.75, V, 0.25),
    NotchAnchor(2.90, H, 0.50),
    NotchAnchor(2.75, V, 0.50),
)


@dataclass(frozen=True)
class NotchCalibration:
    """Anchor-exact, piecewise-linear notch-length -> conversion maps.

    Interpolation is per input polarization and never extrapolates:
    the published curves are only trusted at the anchor points.
    """

    anchors: tuple[NotchAnchor, ...] = DEFAULT_NOTCH_ANCHORS

    def _segment(self, pol: Polarization) -> list[NotchAnchor]:
        pts = sorted(
            (a for a in self.anchors if a.input_pol is pol),
            key=lambda a: a.length_um,
        )
        if not pts:
            raise ValueError(f"no calibration anchors for input polarization {pol}")
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
                if b.length_um == a.length_um:
                    return a.conversion
                f = (notch_length_um - a.length_um) / (b.length_um - a.length_um)
                return a.conversion + f * (b.conversion - a.conversion)
        return pts[-1].conversion


@dataclass(frozen=True)
class CouplerPhysics:
    """Calibrated coupler behavior: beat lengths, geometry, sensitivities.

    beat_h / beat_v are full power-exchange cycle lengths in um.
    sensitivities[dimension][pol] is the beat-length shift in um per nm
    of the given geometric deviation; all default to zero.
    """

    beat_h: float = 35.80
    beat_v: float = 8.32
    geometry: Geometry = Geometry()
    sensitivities: tuple[tuple[str, tuple[float, float]], ...] = (
        ("width", (0.0, 0.0)),
        ("height", (0.0, 0.0)),
        ("gap", (0.0, 0.0)),
    )
    coupler_lengths: tuple[tuple[str, float], ...] = tuple(
        sorted(DEFAULT_COUPLER_LENGTHS.items())
    )
    notch: NotchCalibration = NotchCalibration()
    ring_radius_um: float = 8.00
    notch_width_nm: float = 175.0
    notch_height_nm: float = 175.0

    def __post_init__(self):
        if self.beat_h <= 0 or self.beat_v <= 0:
            raise ValueError("beat lengths must be positive")

    def beat(self, pol: Polarization) -> float:
        return self.beat_h if pol is H else self.beat_v

    def sensitivity(self, dimension: str, pol: Polarization) -> float:
        for dim, (sh, sv) in self.sensitivities:
            if dim == dimension:
                return sh if pol is H else sv
        raise KeyError(f"unknown dimension {dimension!r}; expected one of {DIMENSIONS}")

    def with_sensitivities(self, dimension: str, s_h: float, s_v: float) -> "CouplerPhysics":
        if dimension not in DIMENSIONS:
            raise KeyError(f"unknown dimension {dimension!r}")
        updated = tuple(
            (dim, (s_h, s_v) if dim == dimension else vals)
            for dim, vals in self.sensitivities
        )
        return replace(self, sensitivities=updated)

    def length_of(self, element_name: str) -> float | None:
        for name, length in self.coupler_lengths:
            if name == element_name:
                return length
        return None

    def configured(self, dimension: str) -> bool:
        return any(
            self.sensitivity(dimension, pol) != 0.0 for pol in (H, V)
        )


def cross_power(length_um: float, beat_um: float) -> float:
    """Power fraction transferred to the adjacent waveguide after `length_um`."""
    if beat_um <= 0:
        raise ValueError(f"beat length must be positive, got {beat_um}")
    if length_um < 0:
        raise ValueError(f"coupler length must be non-negative, got {length_um}")
    return math.sin(math.pi * length_um / beat_um) ** 2


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
    grid_step: float = 0.01,
    refine_tol: float = 1e-4,
) -> list[LengthSolution]:
    """Best coupler lengths for target bar powers (weighted least squares).

    Scans a dense grid (step <= 0.01 um) over `length_range`, refines each
    local minimum by golden-section search to `refine_tol` um, and returns
    the `count` lowest-residual solutions; ties break toward shorter length.
    """
    lo, hi = length_range
    if not (hi > lo >= 0):
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    if count < 1:
        raise ValueError(f"solution count must be at least 1, got {count}")
    for t in targets:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"bar-power target {t} outside [0, 1]")
    t_h, t_v = targets
    w_h, w_v = weights

    def residual(L: float) -> float:
        dh = bar_power(L, physics.beat_h) - t_h
        dv = bar_power(L, physics.beat_v) - t_v
        return w_h * dh * dh + w_v * dv * dv

    n = max(2, int(math.ceil((hi - lo) / grid_step)) + 1)
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values = [residual(L) for L in grid]

    minima: list[float] = []
    for i, val in enumerate(values):
        left = values[i - 1] if i > 0 else math.inf
        right = values[i + 1] if i + 1 < n else math.inf
        if val <= left and val <= right:
            a = grid[max(0, i - 1)]
            b = grid[min(n - 1, i + 1)]
            minima.append(_golden_section(residual, a, b, refine_tol))

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
        if all(abs(s.length_um - d.length_um) > 10 * refine_tol for d in deduped):
            deduped.append(s)
    return deduped[:count]


def _golden_section(f, a: float, b: float, tol: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
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
    physics: CouplerPhysics, length_range: tuple[float, float]
) -> list[LengthSolution]:
    """Lengths at which the V polarization stays entirely in its waveguide.

    These are the integer multiples of beat_v inside the range, in
    ascending order, each annotated with its bar_h power (residual is the
    squared H deviation from the 1/3 bar-power goal the filter needs).
    """
    lo, hi = length_range
    if not (hi > lo >= 0):
        raise ValueError(f"invalid length range [{lo}, {hi}]")
    out = []
    k = max(1, int(math.ceil(lo / physics.beat_v - 1e-12)))
    while k * physics.beat_v <= hi + 1e-12:
        L = k * physics.beat_v
        if L >= lo - 1e-12:
            bh = bar_power(L, physics.beat_h)
            out.append(
                LengthSolution(L, bh, bar_power(L, physics.beat_v), (bh - 1.0 / 3.0) ** 2)
            )
        k += 1
    return out


# -- fabrication-tolerance synthesis ----------------------------------------

def _ideal_thetas(el: ElementSpec) -> tuple[float, float] | None:
    """Ideal coupler angles (radians) of a coupler-based element; bar amplitude is cos(theta).

    The PBS V block uses reflection form (swap at pi/2), the PPBS and
    filters use rotation form, matching the gate's conventions.
    """
    p = el.param_dict
    if el.kind == "pbs":
        return (0.0, math.pi / 2.0)
    if el.kind == "ppbs":
        return (
            math.acos(min(1.0, p.get("bar_h", 1.0))),
            math.acos(min(1.0, p.get("bar_v", 1.0 / math.sqrt(3.0)))),
        )
    if el.kind == "filter":
        return (math.acos(p["t_h"]), math.acos(p["t_v"]))
    return None


def delta_theta(
    length_um: float,
    beat_um: float,
    sensitivity_um_per_nm: float,
    delta_nm: float | np.ndarray,
) -> float | np.ndarray:
    """Coupling-angle drift when the beat length shifts linearly with geometry.

    theta(L) = pi L / beat; a beat shift of s * delta changes the angle by
    pi L (1/(beat + s d) - 1/beat) at the fixed fabricated length.  A float
    delta gives a float, an array of deltas an array of drifts; any
    non-positive perturbed beat raises ValueError.
    """
    shifted = beat_um + sensitivity_um_per_nm * np.asarray(delta_nm, dtype=float)
    bad = shifted <= 0
    if bad.any():
        raise ValueError(
            f"perturbed beat length {float(shifted[bad][0])} um is non-positive; "
            "sensitivity model out of validity"
        )
    drift = math.pi * length_um * (1.0 / shifted - 1.0 / beat_um)
    return drift if np.ndim(delta_nm) else float(drift)


def synthesize_imperfect_elements(
    netlist: Netlist,
    physics: CouplerPhysics,
    dimension: str,
    delta_nm: float | np.ndarray,
) -> dict[str, ElementSpec]:
    """Element overrides for a geometry deviation of `delta_nm` nanometers.

    Every coupler-based element with a configured design length gets its
    coupling angles `theta_h`/`theta_v` recomputed from the angle drift at
    its fixed fabricated length; at delta = 0 the overrides equal the
    ideal elements.  `delta_nm` may be an array of deviations: the angles
    are then arrays of its shape, and the overridden netlist builds stacks
    of element and circuit matrices, one per deviation.  Each deviation is
    checked: a nonzero one needs nonzero sensitivities (ValueError), one
    that makes a beat length non-positive raises ValueError, and one
    beyond 10 nm warns.
    """
    if dimension not in DIMENSIONS:
        raise KeyError(f"unknown dimension {dimension!r}; expected one of {DIMENSIONS}")
    deltas = np.asarray(delta_nm, dtype=float)
    if np.any(deltas != 0.0) and not physics.configured(dimension):
        raise ValueError(
            f"sensitivities for {dimension!r} are all zero; configure "
            "CouplerPhysics.sensitivities (um per nm) before running a "
            "nonzero tolerance study"
        )
    widest = float(np.max(np.abs(deltas), initial=0.0))
    if widest > 10.0:
        import warnings

        warnings.warn(
            f"|delta| = {widest} nm exceeds the 10 nm envelope the "
            "linear sensitivity model was specified for",
            stacklevel=2,
        )
    overrides: dict[str, ElementSpec] = {}
    for el in netlist.elements:
        thetas = _ideal_thetas(el)
        length = physics.length_of(el.name)
        if thetas is None or length is None:
            continue
        th_h = thetas[0] + delta_theta(
            length, physics.beat_h, physics.sensitivity(dimension, H), delta_nm
        )
        th_v = thetas[1] + delta_theta(
            length, physics.beat_v, physics.sensitivity(dimension, V), delta_nm
        )
        overrides[el.name] = el.with_params(theta_h=th_h, theta_v=th_v)
    return overrides


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

    One row per grid point in ascending delta order.  The whole grid is
    evaluated as one batch: one `synthesize_imperfect_elements` call on the
    array of deltas, one overridden netlist whose circuit matrix is a
    stack with one matrix per point, and one `heralded_operators` call on
    that stack.  Each row equals `extract_gate` on the netlist perturbed
    by its own delta; the bars are cos^2 of the override angles, by
    element name.
    """
    if step_nm <= 0:
        raise ValueError(f"step must be positive, got {step_nm}")
    lo, hi = delta_range_nm
    if hi < lo:
        raise ValueError(f"invalid delta range [{lo}, {hi}]")
    n = int(round((hi - lo) / step_nm))
    deltas = [lo + i * step_nm for i in range(n + 1)]

    overrides = synthesize_imperfect_elements(netlist, physics, dimension, np.array(deltas))
    perturbed = netlist.with_overrides(overrides)
    unitary = circuit_matrix(perturbed)
    # a netlist without overridden couplers has one circuit for every point
    unitary = np.broadcast_to(unitary, (len(deltas),) + unitary.shape[-2:])
    operators, probs = heralded_operators(perturbed, unitary, phi)
    ideal = ideal_cphase(phi)

    def bars(name: str, key: str) -> list[float]:
        return [math.cos(t) ** 2 for t in overrides[name].param_dict[key].tolist()]

    columns = [(name, bars(name, "theta_h"), bars(name, "theta_v")) for name in sorted(overrides)]
    return [
        SweepRow(
            delta,
            tuple((name, bar_h[i], bar_v[i]) for name, bar_h, bar_v in columns),
            tuple(probs[i].tolist()),
            process_fidelity(operators[i], ideal),
        )
        for i, delta in enumerate(deltas)
    ]
