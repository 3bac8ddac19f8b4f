"""Figures of merit: area-delay and power-delay products, node scaling,
and cycle-count-to-latency conversion.

All hardware measurements (LUTs, silicon area, critical path delay, power,
operating frequency) are inputs supplied from synthesis reports; nothing
here claims to derive them. fom_report computes every product from them
and checks its own report-level inputs; report_from_doc only parses a
metrics document into those inputs. Each report row carries its units.
"""

import math
from dataclasses import MISSING, dataclass, fields
from enum import Enum

UM2_S = "um^2*s"
LUT_S = "LUT*s"
MW_S = "mW*s"


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

    kind must be a PlatformKind and name a string. Exactly one of
    area_um2 (ASIC) / luts (FPGA) must be present, matching kind, and
    every numeric field given meets its rule in _RULES.
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
        if not isinstance(self.kind, PlatformKind):
            raise ValueError(f"kind must be a PlatformKind, got {self.kind!r}")
        if not isinstance(self.name, str):
            raise ValueError(f"platform name must be a string, got "
                             f"{self.name!r}")
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

    def unit_warning(self) -> str | None:
        if self.power_listed_w is None:
            return None
        if math.isclose(self.power_listed_w * 1000.0, self.power_mw):
            return None
        return (f"{self.name or self.kind.value}: source lists power as "
                f"{self.power_listed_w} W but the figures are computed with "
                f"{self.power_mw} mW; the source units are inconsistent")


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
    missing = [f.name for f in fields(PlatformMetrics)
               if f.default is MISSING and f.name not in entry]
    if missing:
        raise ValueError(f"platform entry missing field(s) {missing}")
    return PlatformMetrics(**dict(entry, kind=kind))


def _row(platform: str, m: PlatformMetrics, adp: float, adp_unit: str,
         pdp: float, provenance: str) -> dict:
    """One report row: the platform's finite ADP (in adp_unit) and PDP."""
    for label, value in (("ADP", adp), ("PDP", pdp)):
        if not math.isfinite(value):
            raise ValueError(f"{platform}: {label} {value} is not finite")
    return {
        "platform": platform,
        "kind": m.kind.value,
        "cpd_ns": m.cpd_ns,
        "adp": adp, "adp_unit": adp_unit, "adp_3sf": f"{adp:.2e}",
        "pdp": pdp, "pdp_unit": MW_S, "pdp_3sf": f"{pdp:.2e}",
        "provenance": provenance,
    }


def fom_report(metrics: list[PlatformMetrics], scale_to_nm: float | None = None,
               lut_area_um2: float = 1.0) -> dict:
    """A comparison-table-shaped report: one row per platform plus a
    tech-scaled row per FPGA entry when a target node is given.

    With CPD in seconds, a row's ADP is its size field (area_um2 in
    um^2*s, luts in LUT*s) x CPD and its PDP is power_mw x CPD in mW*s.
    The tech-scaled row's ADP, in um^2*s, is
    luts x lut_area_um2 x CPD x ratio x ratio with ratio = scale_to_nm /
    tech_nm. lut_area_um2 is the assumed silicon area of one LUT at the
    FPGA's own node; there is no physical default, so 1.0 is only a
    normalization. scale_to_nm (when given) and lut_area_um2 must be
    finite positive numbers.
    """
    if scale_to_nm is not None:
        _check("scale_to_nm", scale_to_nm)
    _check("lut_area_um2", lut_area_um2)
    rows = []
    warnings = []
    for m in metrics:
        size, adp_unit = _SIZE[m.kind]
        cpd_s = m.cpd_ns * 1e-9
        pdp = m.power_mw * cpd_s
        rows.append(_row(m.name or m.kind.value, m, getattr(m, size) * cpd_s,
                         adp_unit, pdp, "inputs measured; products derived"))
        w = m.unit_warning()
        if w:
            warnings.append(w)
        if m.kind is PlatformKind.FPGA and scale_to_nm is not None:
            # squared by multiplying: an overflow gives inf, not an error
            ratio = scale_to_nm / m.tech_nm
            rows.append(_row(
                f"{m.name or 'FPGA'} (tech-scaled to {scale_to_nm:g} nm)", m,
                m.luts * lut_area_um2 * cpd_s * ratio * ratio, UM2_S, pdp,
                f"scaled with (to/from)^2 assuming {lut_area_um2:g} um^2 per "
                f"LUT at {m.tech_nm:g} nm"))
    return {"rows": rows, "warnings": warnings}


def report_from_doc(doc) -> dict:
    """The report for a metrics document: an object with a "platforms"
    list of entries for metrics_from_dict and the optional scale_to_nm and
    lut_area_um2 (default 1.0), which fom_report checks."""
    if not isinstance(doc, dict) or not isinstance(doc.get("platforms"), list):
        raise ValueError('metrics file must be an object with a "platforms" '
                         'list')
    extra = set(doc) - {"platforms", "scale_to_nm", "lut_area_um2"}
    if extra:
        raise ValueError(f"unknown metrics file field(s) {sorted(extra)}")
    metrics = [metrics_from_dict(e) for e in doc["platforms"]]
    return fom_report(metrics, scale_to_nm=doc.get("scale_to_nm"),
                      lut_area_um2=doc.get("lut_area_um2", 1.0))


def _csv_field(text: str) -> str:
    """text as one RFC 4180 field: quoted, with doubled quotes, only when
    it holds a comma, a quote or a line break."""
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
