"""File formats: netlist and physics JSON, deterministic CSV, SVG plots.

Circuits are data: the JSON netlist schema mirrors the Netlist dataclass
(mode declarations, ordered element entries with port wiring, herald
pattern, qubit encoding) so alternative wirings can be supplied without
code changes.  Tables are comma-separated UTF-8 with LF line endings and
a header row; numbers are written with 12 significant digits so equal
configurations produce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .fock import H, V, Polarization
from .design import (
    CouplerPhysics,
    NotchAnchor,
    NotchCalibration,
    PhysicsError,
)
from .gate import (
    ElementSpec,
    HeraldTerm,
    Netlist,
    NetlistError,
    PortDecl,
    QubitEncoding,
    _number,
    circuit_matrix,
)

SIG_DIGITS = 12


def format_number(value: float) -> str:
    """Fixed 12-significant-digit rendering used in every table.

    A float whose 12-digit form reads as an integer gets a ".0" suffix,
    so 1.0 and 0.9999999999999998 both render as "1.0".
    """
    if not isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(value)
        return f"{value:.{SIG_DIGITS}g}"
    text = f"{value:.{SIG_DIGITS}g}"
    if not any(ch in text for ch in ".en"):  # "inf" and "nan" contain "n"
        text += ".0"
    return text


def format_complex(value: complex) -> str:
    return f"{format_number(value.real)}{'+' if value.imag >= 0 else '-'}{format_number(abs(value.imag))}j"


# -- netlist JSON ------------------------------------------------------------


def _pol_from_str(s: str, error: type[ValueError] = NetlistError) -> Polarization:
    try:
        return Polarization(s)
    except ValueError:
        raise error(f"unknown polarization {s!r}; expected 'H' or 'V'") from None


def _params_to_json(params: Mapping[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in params.items():
        if key == "matrix":
            m = np.asarray(value, dtype=complex)
            out[key] = [[[float(c.real), float(c.imag)] for c in row] for row in m]
        else:
            out[key] = value
    return out


def _params_from_json(name: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Element parameters from JSON, a `matrix` of [re, im] pairs as complex numbers.

    `ElementSpec` checks every parameter against its kind's rules.
    """
    if not isinstance(params, Mapping):
        raise NetlistError(f"element {name!r} parameters must be an object, got {params!r}")
    return {key: _matrix_from_json(name, value) if key == "matrix" else value
            for key, value in params.items()}


def _matrix_from_json(name: str, value: Any) -> list[list[complex]]:
    """A wave plate `matrix`: 2 rows of 2 [re, im] pairs, each number as `gate._number` takes it."""
    what = f"element {name!r} parameter 'matrix'"
    pairs = isinstance(value, list) and len(value) == 2 and all(
        isinstance(row, list) and len(row) == 2
        and all(isinstance(pair, list) and len(pair) == 2 for pair in row)
        for row in value
    )
    if not pairs:
        raise NetlistError(f"{what} must be 2 rows of 2 [re, im] pairs, got {value!r}")
    return [
        [complex(_number(re, what, NetlistError), _number(im, what, NetlistError)) for re, im in row]
        for row in value
    ]


def netlist_to_dict(netlist: Netlist) -> dict[str, Any]:
    return {
        "ports": [{"name": p.name, "role": p.role} for p in netlist.ports],
        "elements": [
            {
                "name": el.name,
                "kind": el.kind,
                "ports": list(el.ports),
                "params": _params_to_json(el.param_dict),
            }
            for el in netlist.elements
        ],
        "herald": [
            {
                "ports": list(t.ports),
                "pols": [p.value for p in t.pols],
                "count": t.count,
            }
            for t in netlist.herald
        ],
        "encoding": {
            "target": netlist.encoding.target,
            "control": netlist.encoding.control,
            "program": netlist.encoding.program,
        },
    }


def netlist_from_dict(data: Mapping[str, Any]) -> Netlist:
    try:
        ports = tuple(
            PortDecl(p["name"], p.get("role", "internal")) for p in data["ports"]
        )
        elements = tuple(
            ElementSpec(
                el["name"],
                el["kind"],
                tuple(_list(el["ports"], f"element {el['name']!r} ports")),
                tuple(sorted(_params_from_json(el["name"], el.get("params", {})).items())),
            )
            for el in data["elements"]
        )
        herald = tuple(_herald_term(i, t) for i, t in enumerate(data["herald"]))
        enc = data["encoding"]
        encoding = QubitEncoding(enc["target"], enc["control"], enc["program"])
        return Netlist(ports, elements, herald, encoding)
    except NetlistError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise NetlistError(f"malformed netlist document: {exc}") from exc


def _herald_term(i: int, t: Mapping[str, Any]) -> HeraldTerm:
    """Herald term `i` of a netlist document; a term has no name, so its faults name its index."""
    ports = tuple(_list(t["ports"], f"herald term {i} ports"))
    pols = tuple(_pol_from_str(p) for p in _list(t["pols"], f"herald term {i} pols"))
    try:
        return HeraldTerm(ports, pols, t["count"])
    except NetlistError as exc:
        raise NetlistError(exc.args[0].replace("herald term", f"herald term {i}", 1)) from exc


def _list(value: Any, what: str) -> list:
    """`value` if it is a JSON list; a string would split into characters."""
    if not isinstance(value, list):
        raise NetlistError(f"{what} must be a list, got {value!r}")
    return value


def load_netlist(path: str | Path) -> Netlist:
    """Read a netlist JSON and check that its circuit can be realized.

    Each element, herald term and the netlist check themselves when they
    are made, with the rules a netlist built in Python obeys.  Composing
    the circuit matrix, which the netlist then keeps, makes a matrix that
    is not unitary fail here too, with NetlistError, before any work.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistError(f"netlist file {path} is not valid JSON: {exc}") from exc
    netlist = netlist_from_dict(data)
    circuit_matrix(netlist)
    return netlist


def save_netlist(netlist: Netlist, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(netlist_to_dict(netlist), indent=2) + "\n", encoding="utf-8"
    )


# -- physics JSON ------------------------------------------------------------


def physics_to_dict(physics: CouplerPhysics) -> dict[str, Any]:
    return {
        "beat_um": {"H": physics.beat_h, "V": physics.beat_v},
        "coupler_lengths_um": dict(physics.coupler_lengths),
        "sensitivities_um_per_nm": {
            dim: {"H": vals[0], "V": vals[1]} for dim, vals in physics.sensitivities
        },
        "notch_anchors": [
            {
                "length_um": a.length_um,
                "input_pol": a.input_pol.value,
                "conversion": a.conversion,
            }
            for a in physics.notch.anchors
        ],
    }


def _object(value: Any, keys: Iterable[str] | None, where: str) -> Mapping[str, Any]:
    """`value` as a JSON object whose keys are among `keys` (any key when None)."""
    if not isinstance(value, Mapping):
        raise PhysicsError(f"{where} must be an object, got {value!r}")
    unknown = [key for key in value if keys is not None and key not in keys]
    if unknown:
        raise PhysicsError(f"unknown key {unknown[0]!r} in {where}")
    return value


_POLS = ("H", "V")
_ANCHOR_KEYS = ("length_um", "input_pol", "conversion")


def physics_from_dict(data: Any) -> CouplerPhysics:
    """Physics from the document `physics_to_dict` writes; a key left out keeps its default.

    This reads the JSON shape only: objects take only the keys
    `physics_to_dict` writes (any dimension and element name), a
    polarization is "H" or "V", `notch_anchors` is a list and each anchor
    has all its keys; a fault there raises PhysicsError.  The values go as
    given to `CouplerPhysics` and `NotchAnchor`, which check them as they
    check values made in Python.  A polarization left out of a
    sensitivity is 0; `coupler_lengths_um` and `notch_anchors`, when
    given, replace the defaults as a whole.
    """
    doc = _object(data, ("beat_um", "coupler_lengths_um", "sensitivities_um_per_nm", "notch_anchors"),
                  "physics document")
    beat = _object(doc.get("beat_um", {}), _POLS, "beat_um")
    sensitivities = _object(doc.get("sensitivities_um_per_nm", {}), None, "sensitivities_um_per_nm")
    fields = {f"beat_{pol.lower()}": value for pol, value in beat.items()}
    fields["sensitivities"] = tuple(
        (dim, tuple(_object(pols, _POLS, f"sensitivities_um_per_nm.{dim}").get(p, 0.0) for p in _POLS))
        for dim, pols in sensitivities.items()
    )
    if "coupler_lengths_um" in doc:
        lengths = _object(doc["coupler_lengths_um"], None, "coupler_lengths_um")
        fields["coupler_lengths"] = tuple(lengths.items())
    if "notch_anchors" in doc:
        if not isinstance(doc["notch_anchors"], list):
            raise PhysicsError(f"notch_anchors must be a list, got {doc['notch_anchors']!r}")
        fields["notch"] = NotchCalibration(tuple(_anchor(a) for a in doc["notch_anchors"]))
    return CouplerPhysics(**fields)


def _anchor(value: Any) -> NotchAnchor:
    """A notch anchor from its JSON object, which holds all of `_ANCHOR_KEYS`."""
    anchor = _object(value, _ANCHOR_KEYS, "notch anchor")
    for key in _ANCHOR_KEYS:
        if key not in anchor:
            raise PhysicsError(f"notch anchor lacks key {key!r}")
    pol = _pol_from_str(anchor["input_pol"], PhysicsError)
    return NotchAnchor(anchor["length_um"], pol, anchor["conversion"])


def load_physics(path: str | Path) -> CouplerPhysics:
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PhysicsError(f"physics file {path} is not valid JSON: {exc}") from exc
    return physics_from_dict(data)


def save_physics(physics: CouplerPhysics, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(physics_to_dict(physics), indent=2) + "\n", encoding="utf-8"
    )


# -- CSV ----------------------------------------------------------------------


def render_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """CSV text with LF endings; floats use the fixed 12-digit format."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append("true" if cell else "false")
            elif isinstance(cell, complex):
                cells.append(format_complex(cell))
            elif isinstance(cell, float):
                cells.append(format_number(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    Path(path).write_text(render_csv(header, rows), encoding="utf-8", newline="\n")


# -- SVG line plot -------------------------------------------------------------


def write_svg_line_plot(
    path: str | Path,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Minimal deterministic SVG line chart (no plotting dependency), 720 x 480 px."""
    width, height, margin = 720, 480, 64
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    xs = list(x)
    all_y = [y for ys in series.values() for y in ys]
    if not xs or not all_y:
        raise ValueError("plot requires at least one point")
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(all_y), max(all_y)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad

    def px(v: float) -> float:
        return margin + (v - x_min) / (x_max - x_min) * plot_w

    def py(v: float) -> float:
        return height - margin - (v - y_min) / (y_max - y_min) * plot_h

    colors = ["#1f6fb2", "#c24f1d", "#2d8a4e", "#7b4fa6", "#b2261f"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{width/2:.1f}" y="{height-16}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{xlabel}</text>',
        f'<text x="18" y="{height/2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {height/2:.1f})">{ylabel}</text>',
    ]
    # axis ticks: five per axis
    for i in range(5):
        xv = x_min + (x_max - x_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height-margin+18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin-8}" y="{py(yv)+4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{yv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{margin}" y1="{py(yv):.1f}" x2="{width-margin}" '
            f'y2="{py(yv):.1f}" stroke="#ddd" stroke-width="0.5"/>'
        )
    for k, (name, ys) in enumerate(series.items()):
        color = colors[k % len(colors)]
        points = " ".join(f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{width-margin-6}" y="{margin+16+14*k}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
