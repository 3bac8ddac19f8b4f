"""Figures of merit: area-delay and power-delay products, node scaling,
and cycle-count-to-latency conversion.

All hardware measurements (LUTs, silicon area, critical path delay, power,
operating frequency) are inputs supplied from synthesis reports; nothing
here claims to derive them. Results carry their unit as data.
"""

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum

UM2_S = "um^2*s"
LUT_S = "LUT*s"
MW_S = "mW*s"


@dataclass(frozen=True)
class Quantity:
    """A value tagged with its unit; reports carry the unit next to it."""
    value: float
    unit: str


class PlatformKind(Enum):
    ASIC = "ASIC"
    FPGA = "FPGA"


# each kind's one size field and the unit of its area-delay product
_SIZE = {PlatformKind.ASIC: ("area_um2", UM2_S),
         PlatformKind.FPGA: ("luts", LUT_S)}

# each numeric field's rule: _check requires a finite number, not a bool,
# that meets it
_RULES = {"area_um2": "positive", "luts": "positive whole",
          "cpd_ns": "positive", "power_mw": "non-negative",
          "tech_nm": "positive", "power_listed_w": "non-negative",
          "scale_to_nm": "positive", "lut_area_um2": "positive"}
_HOLDS = {"positive": lambda x: x > 0, "non-negative": lambda x: x >= 0,
          "positive whole": lambda x: x > 0 and float(x).is_integer()}


def _check(field: str, value) -> None:
    """Raise ValueError, naming field, unless value is a finite number,
    not a bool, that meets field's rule."""
    rule = _RULES[field]
    try:
        ok = (not isinstance(value, bool) and math.isfinite(value)
              and _HOLDS[rule](value))
    except (TypeError, OverflowError):  # not a number, or an int past float
        ok = False
    if not ok:
        raise ValueError(f"{field} must be a finite {rule} number, got "
                         f"{value!r}")


@dataclass(frozen=True)
class PlatformMetrics:
    """One platform's measured figures.

    Exactly one of area_um2 (ASIC) / luts (FPGA) must be present, matching
    kind, and every numeric field given meets its rule in _RULES.
    power_listed_w records a power figure whose source quoted watts;
    when it disagrees with power_mw by a factor of 1000 the report carries
    a unit-discrepancy warning instead of guessing the intent.
    """
    kind: PlatformKind
    cpd_ns: float
    power_mw: float
    tech_nm: float
    area_um2: float | None = None
    luts: int | None = None
    name: str = ""
    power_listed_w: float | None = None

    def __post_init__(self):
        size = _SIZE[self.kind][0]
        given = [f for f, _ in _SIZE.values() if getattr(self, f) is not None]
        if given != [size]:
            raise ValueError(f"{self.kind.value} metrics need {size} and no "
                             f"other size field, got {given}")
        for f in fields(self):
            value = getattr(self, f.name)
            optional_and_absent = value is None and f.default is None
            if f.name in _RULES and not optional_and_absent:
                _check(f.name, value)

    @property
    def cpd_seconds(self) -> float:
        return self.cpd_ns * 1e-9

    def unit_warning(self) -> str | None:
        if self.power_listed_w is None:
            return None
        if math.isclose(self.power_listed_w * 1000.0, self.power_mw):
            return None
        return (f"{self.name or self.kind.value}: source lists power as "
                f"{self.power_listed_w} W but the figures are computed with "
                f"{self.power_mw} mW; the source units are inconsistent")


def adp(m: PlatformMetrics) -> Quantity:
    """Area-delay product: silicon area (ASIC) or LUT count (FPGA) x CPD."""
    field, unit = _SIZE[m.kind]
    return Quantity(getattr(m, field) * m.cpd_seconds, unit)


def pdp(m: PlatformMetrics) -> Quantity:
    """Power-delay product: total power (mW) x CPD (s)."""
    return Quantity(m.power_mw * m.cpd_seconds, MW_S)


def scale_area(area: Quantity, from_nm: float, to_nm: float) -> Quantity:
    """Classical technology scaling: area x (to/from)^2, unit preserved."""
    _check("tech_nm", from_nm)
    _check("scale_to_nm", to_nm)
    ratio = to_nm / from_nm  # squared by multiplying: overflow gives inf
    return Quantity(area.value * ratio * ratio, area.unit)


def scaled_fpga_adp(m: PlatformMetrics, to_nm: float,
                    lut_area_um2: float = 1.0) -> Quantity:
    """FPGA ADP converted to um^2*s at another node.

    lut_area_um2 is the assumed silicon area of one LUT at the FPGA's own
    node; there is no physical default, so 1.0 is only a normalization
    that callers should treat as an explicit modeling assumption.
    """
    if m.kind is not PlatformKind.FPGA:
        raise ValueError("tech scaling of LUT area applies to FPGA metrics")
    at_native = Quantity(m.luts * lut_area_um2 * m.cpd_seconds, UM2_S)
    return scale_area(at_native, m.tech_nm, to_nm)


def latency(cycles: int, freq_hz: float) -> float:
    """Wall-clock seconds for a cycle count at a clock frequency that is
    positive, finite and high enough for a finite latency in microseconds."""
    if not 0 < freq_hz < math.inf:
        raise ValueError(f"frequency must be positive and finite, got "
                         f"{freq_hz}")
    seconds = cycles / freq_hz
    if not math.isfinite(seconds * 1e6):
        raise ValueError(f"frequency {freq_hz} Hz is too low for a finite "
                         f"latency")
    return seconds


def format_sig(x: float, sig: int = 3) -> str:
    return f"{x:.{sig - 1}e}"


# Measured inputs for the modeled accelerator: post-place-and-route on an
# Artix-7 (28 nm fabric) and logic synthesis on 65 nm CMOS. The FPGA total
# power is quoted in watts by the source; see PlatformMetrics.unit_warning.
REFERENCE_INPUTS = {
    "lut_area_um2": 1.0,
    "scale_to_nm": 65,
    "platforms": [
        {
            "name": "ASIC (65 nm)",
            "kind": "ASIC",
            "area_um2": 464866.0,
            "cpd_ns": 1.77,
            "power_mw": 0.129,  # 0.005 static + 0.124 dynamic
            "tech_nm": 65,
        },
        {
            "name": "FPGA (Artix-7)",
            "kind": "FPGA",
            "luts": 5108,
            "cpd_ns": 4.50,
            "power_mw": 1.2,
            "power_listed_w": 1.2,
            "tech_nm": 28,
        },
    ],
}


def metrics_from_dict(entry: dict) -> PlatformMetrics:
    """The PlatformMetrics of one platform entry of a metrics document;
    null in an optional field means the field is absent."""
    if not isinstance(entry, dict):
        raise ValueError(f"platform entry must be an object: {entry!r}")
    try:
        kind = PlatformKind(entry["kind"])
    except (KeyError, ValueError):
        raise ValueError(f"platform entry needs kind ASIC or FPGA: {entry!r}")
    extra = set(entry) - {f.name for f in fields(PlatformMetrics)}
    if extra:
        raise ValueError(f"unknown metric field(s) {sorted(extra)}")
    if not isinstance(entry.get("name", ""), str):
        raise ValueError(f"platform name must be a string, got "
                         f"{entry['name']!r}")
    missing = [f.name for f in fields(PlatformMetrics)
               if f.default is MISSING and f.name not in entry]
    if missing:
        raise ValueError(f"platform entry missing field(s) {missing}")
    return PlatformMetrics(**dict(entry, kind=kind))


def _row(platform: str, m: PlatformMetrics, a: Quantity, p: Quantity,
         provenance: str) -> dict:
    """One report row: the platform's finite ADP a and PDP p with units."""
    for label, q in (("ADP", a), ("PDP", p)):
        if not math.isfinite(q.value):
            raise ValueError(f"{platform}: {label} {q.value} is not finite")
    return {
        "platform": platform,
        "kind": m.kind.value,
        "cpd_ns": m.cpd_ns,
        "adp": a.value, "adp_unit": a.unit, "adp_3sf": format_sig(a.value),
        "pdp": p.value, "pdp_unit": p.unit, "pdp_3sf": format_sig(p.value),
        "provenance": provenance,
    }


def fom_report(metrics: list[PlatformMetrics], scale_to_nm: float | None = None,
               lut_area_um2: float = 1.0) -> dict:
    """A comparison-table-shaped report: one row per platform plus a
    tech-scaled row per FPGA entry when a target node is given."""
    rows = []
    warnings = []
    for m in metrics:
        p = pdp(m)
        rows.append(_row(m.name or m.kind.value, m, adp(m), p,
                         "inputs measured; products derived"))
        w = m.unit_warning()
        if w:
            warnings.append(w)
        if m.kind is PlatformKind.FPGA and scale_to_nm is not None:
            rows.append(_row(
                f"{m.name or 'FPGA'} (tech-scaled to {scale_to_nm:g} nm)", m,
                scaled_fpga_adp(m, scale_to_nm, lut_area_um2), p,
                f"scaled with (to/from)^2 assuming {lut_area_um2:g} um^2 per "
                f"LUT at {m.tech_nm:g} nm"))
    return {"rows": rows, "warnings": warnings}


def report_from_doc(doc) -> dict:
    """The report for a metrics document: an object with a "platforms"
    list of entries for metrics_from_dict and the optional positive
    scale_to_nm and lut_area_um2 (default 1.0) passed on to fom_report."""
    if not isinstance(doc, dict) or not isinstance(doc.get("platforms"), list):
        raise ValueError('metrics file must be an object with a "platforms" '
                         'list')
    extra = set(doc) - {"platforms", "scale_to_nm", "lut_area_um2"}
    if extra:
        raise ValueError(f"unknown metrics file field(s) {sorted(extra)}")
    scale_to_nm = doc.get("scale_to_nm")
    if scale_to_nm is not None:
        _check("scale_to_nm", scale_to_nm)
    lut_area_um2 = doc.get("lut_area_um2", 1.0)
    _check("lut_area_um2", lut_area_um2)
    metrics = [metrics_from_dict(e) for e in doc["platforms"]]
    return fom_report(metrics, scale_to_nm=scale_to_nm,
                      lut_area_um2=lut_area_um2)


def _csv_field(value) -> str:
    """value as one RFC 4180 field: quoted, with doubled quotes, only when
    it holds a comma, a quote or a line break."""
    text = str(value)  # PlatformMetrics does not type-check its name
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def report_to_csv(report: dict) -> str:
    header = "platform,kind,cpd_ns,adp,adp_unit,pdp,pdp_unit"
    lines = [header]
    for r in report["rows"]:
        lines.append(f"{_csv_field(r['platform'])},{r['kind']},{r['cpd_ns']},"
                     f"{r['adp_3sf']},{r['adp_unit']},"
                     f"{r['pdp_3sf']},{r['pdp_unit']}")
    return "\n".join(lines) + "\n"
