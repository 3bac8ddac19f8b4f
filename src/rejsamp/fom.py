"""Figures of merit: area-delay and power-delay products, node scaling,
and cycle-count-to-latency conversion.

All hardware measurements (LUTs, silicon area, critical path delay, power,
operating frequency) are inputs supplied from synthesis reports; nothing
here claims to derive them. fom_report is the one entry point: it checks a
metrics document and computes every product from the figures in it. Each
report row carries its units.
"""

import math

UM2_S = "um^2*s"
LUT_S = "LUT*s"
MW_S = "mW*s"

# each kind's one size field and the unit of its area-delay product
_SIZE = {"ASIC": ("area_um2", UM2_S), "FPGA": ("luts", LUT_S)}

# a platform entry's fields, in the order _platform checks the numeric
# ones; null in an optional one other than name means the field is absent
_REQUIRED = ("cpd_ns", "power_mw", "tech_nm")
_FIELDS = ("kind", *_REQUIRED, "area_um2", "luts", "name", "power_listed_w")

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


def _platform(entry) -> dict:
    """One platform entry of a metrics document, checked, with every field
    of _FIELDS present: name "" and an absent optional field None.

    kind is "ASIC" or "FPGA" and name a string. Exactly one of area_um2
    (ASIC) / luts (FPGA) is given, matching kind, and every numeric field
    given meets its rule in _RULES. power_listed_w records a power figure
    whose source quoted watts; when it disagrees with power_mw by a factor
    of 1000 the report carries a unit-discrepancy warning instead of
    guessing the intent.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"platform entry must be an object: {entry!r}")
    kind = entry.get("kind")
    if not (isinstance(kind, str) and kind in _SIZE):
        raise ValueError(f"platform entry needs kind ASIC or FPGA: {entry!r}")
    extra = set(entry) - set(_FIELDS)
    if extra:
        raise ValueError(f"unknown metric field(s) {sorted(extra)}")
    missing = [f for f in _REQUIRED if f not in entry]
    if missing:
        raise ValueError(f"platform entry missing field(s) {missing}")
    m = {**dict.fromkeys(_FIELDS), "name": "", **entry}
    if not isinstance(m["name"], str):
        raise ValueError(f"platform name must be a string, got {m['name']!r}")
    size = _SIZE[kind][0]
    given = [f for f, _ in _SIZE.values() if m[f] is not None]
    if given != [size]:
        raise ValueError(f"{kind} metrics need {size} and no other size "
                         f"field, got {given}")
    for f in _FIELDS:
        if f in _RULES and (f in _REQUIRED or m[f] is not None):
            _check(f, m[f])
    return m


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
# power is quoted in watts by the source; see _platform's power_listed_w.
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


def _row(platform: str, m: dict, adp: float, adp_unit: str, pdp: float,
         provenance: str) -> dict:
    """One report row: the platform's finite ADP (in adp_unit) and PDP."""
    for label, value in (("ADP", adp), ("PDP", pdp)):
        if not math.isfinite(value):
            raise ValueError(f"{platform}: {label} {value} is not finite")
    return {
        "platform": platform,
        "kind": m["kind"],
        "cpd_ns": m["cpd_ns"],
        "adp": adp, "adp_unit": adp_unit, "adp_3sf": f"{adp:.2e}",
        "pdp": pdp, "pdp_unit": MW_S, "pdp_3sf": f"{pdp:.2e}",
        "provenance": provenance,
    }


def fom_report(doc) -> dict:
    """The comparison-table-shaped report of a metrics document: one row
    per platform plus a tech-scaled row per FPGA entry when a target node
    is given.

    doc is an object with a "platforms" list of entries (see _platform)
    and the optional scale_to_nm (null means absent) and lut_area_um2
    (default 1.0), which must be finite positive numbers. With CPD in
    seconds, a row's ADP is its size field (area_um2 in um^2*s, luts in
    LUT*s) x CPD and its PDP is power_mw x CPD in mW*s. The tech-scaled
    row's ADP, in um^2*s, is luts x lut_area_um2 x CPD x ratio x ratio
    with ratio = scale_to_nm / tech_nm. lut_area_um2 is the assumed
    silicon area of one LUT at the FPGA's own node; there is no physical
    default, so 1.0 is only a normalization.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("platforms"), list):
        raise ValueError('metrics file must be an object with a "platforms" '
                         'list')
    extra = set(doc) - {"platforms", "scale_to_nm", "lut_area_um2"}
    if extra:
        raise ValueError(f"unknown metrics file field(s) {sorted(extra)}")
    platforms = [_platform(e) for e in doc["platforms"]]
    scale_to_nm = doc.get("scale_to_nm")
    lut_area_um2 = doc.get("lut_area_um2", 1.0)
    if scale_to_nm is not None:
        _check("scale_to_nm", scale_to_nm)
    _check("lut_area_um2", lut_area_um2)
    rows = []
    warnings = []
    for m in platforms:
        size, adp_unit = _SIZE[m["kind"]]
        name = m["name"] or m["kind"]
        cpd_s = m["cpd_ns"] * 1e-9
        pdp = m["power_mw"] * cpd_s
        rows.append(_row(name, m, m[size] * cpd_s, adp_unit, pdp,
                         "inputs measured; products derived"))
        listed = m["power_listed_w"]
        if listed is not None and not math.isclose(listed * 1000.0,
                                                   m["power_mw"]):
            warnings.append(f"{name}: source lists power as {listed} W but "
                            f"the figures are computed with {m['power_mw']} "
                            f"mW; the source units are inconsistent")
        if m["kind"] == "FPGA" and scale_to_nm is not None:
            # squared by multiplying: an overflow gives inf, not an error
            ratio = scale_to_nm / m["tech_nm"]
            rows.append(_row(
                f"{name} (tech-scaled to {scale_to_nm:g} nm)", m,
                m["luts"] * lut_area_um2 * cpd_s * ratio * ratio, UM2_S, pdp,
                f"scaled with (to/from)^2 assuming {lut_area_um2:g} um^2 per "
                f"LUT at {m['tech_nm']:g} nm"))
    return {"rows": rows, "warnings": warnings}


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
