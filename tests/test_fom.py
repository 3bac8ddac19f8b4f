import csv
import io
import math

import pytest

from rejsamp import fom
from rejsamp.fom import fom_report, latency


def round_sig(x: float, sig: int = 3) -> float:
    if x == 0:
        return 0.0
    return round(x, -int(math.floor(math.log10(abs(x)))) + sig - 1)


ASIC = dict(kind="ASIC", area_um2=464866.0, cpd_ns=1.77, power_mw=0.129,
            tech_nm=65, name="ASIC (65 nm)")
FPGA = dict(kind="FPGA", luts=5108, cpd_ns=4.50, power_mw=1.2, tech_nm=28,
            name="FPGA (Artix-7)", power_listed_w=1.2)


def report(*platforms, **top) -> dict:
    """The report of a metrics document of platforms and top-level fields."""
    return fom_report({"platforms": list(platforms), **top})


def row(m: dict) -> dict:
    """The measured (first) report row of platform entry m alone."""
    return report(m)["rows"][0]


def test_adp_reference_values():
    a = row(ASIC)
    assert (a["adp_unit"], round_sig(a["adp"])) == (fom.UM2_S, 8.23e-4)
    f = row(FPGA)
    assert (f["adp_unit"], round_sig(f["adp"])) == (fom.LUT_S, 2.30e-5)


def test_pdp_reference_values():
    assert (row(ASIC)["pdp_unit"], round_sig(row(ASIC)["pdp"])) == \
        (fom.MW_S, 2.28e-10)
    assert round_sig(row(FPGA)["pdp"]) == 5.40e-9
    zero = dict(ASIC, power_mw=0.0)
    assert row(zero)["pdp"] == 0.0


@pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
def test_products_linear_in_cpd(factor):
    scaled = dict(ASIC, cpd_ns=ASIC["cpd_ns"] * factor)
    assert row(scaled)["adp"] == pytest.approx(row(ASIC)["adp"] * factor)
    assert row(scaled)["pdp"] == pytest.approx(row(ASIC)["pdp"] * factor)


def scaled_row(tech_nm: float, to_nm: float) -> dict:
    """The tech-scaled row of a 1-LUT, 1 s FPGA at tech_nm, so its ADP is
    the area scaling factor alone."""
    one = dict(kind="FPGA", luts=1, cpd_ns=1e9, power_mw=1.0, tech_nm=tech_nm)
    return report(one, scale_to_nm=to_nm)["rows"][1]


def test_scale_area():
    assert scaled_row(28, 65)["adp"] == pytest.approx((65 / 28) ** 2)
    assert scaled_row(28, 65)["adp"] == pytest.approx(5.389, abs=1e-3)
    assert scaled_row(45, 45)["adp"] == 1.0
    assert scaled_row(65, 28)["adp_unit"] == fom.UM2_S
    with pytest.raises(ValueError, match="scale_to_nm"):
        scaled_row(28, 0)


def test_scaled_fpga_adp_reference_row():
    rows = report(ASIC, FPGA, scale_to_nm=65, lut_area_um2=1.0)["rows"]
    assert [r["platform"] for r in rows] == [
        "ASIC (65 nm)", "FPGA (Artix-7)",
        "FPGA (Artix-7) (tech-scaled to 65 nm)"]
    s = rows[2]
    assert s["adp_unit"] == fom.UM2_S
    assert round_sig(s["adp"]) == 1.24e-4
    assert s["adp"] == pytest.approx(rows[1]["adp"] * (65 / 28) ** 2)
    # no scaled row for an ASIC, or without a target node
    assert len(report(ASIC, scale_to_nm=65)["rows"]) == 1
    assert len(report(FPGA)["rows"]) == 1


@pytest.mark.parametrize("field,value", [
    ("lut_area_um2", -1.0), ("lut_area_um2", True),
    ("lut_area_um2", float("nan")), ("scale_to_nm", 0)])
def test_report_checks_its_own_inputs(field, value):
    # checked even when no row would use the value
    for platforms in ([FPGA], [ASIC], []):
        with pytest.raises(ValueError, match=field):
            report(*platforms, **{"scale_to_nm": 65, field: value})


@pytest.mark.parametrize("cycles,freq,quoted", [
    (8525, 222e6, 38.4),
    (8525, 565e6, 15.0),
    (3893, 565e6, 6.8),
    (4632, 565e6, 8.1),
])
def test_latency_reference_values(cycles, freq, quoted):
    # quoted figures are truncations: agree within one unit in the last digit
    assert abs(latency(cycles, freq) * 1e6 - quoted) < 0.1


def test_latency_validation():
    for freq in (0, -1e6, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            latency(100, freq)
    # finite seconds, but the latency in microseconds overflows
    with pytest.raises(ValueError, match="too low"):
        latency(8525, 1e-300)


def test_metrics_validation():
    fields = dict(kind="FPGA", luts=10, cpd_ns=1.0, power_mw=1.0, tech_nm=28)
    for match, entry in [("area_um2", dict(fields, kind="ASIC", luts=100)),
                         ("luts", dict(fields, luts=None, area_um2=1.0)),
                         ("cpd", dict(fields, cpd_ns=0)),
                         ("no other size field", dict(fields, area_um2=1.0)),
                         ("tech_nm", dict(fields, tech_nm=float("inf"))),
                         ("power_mw", dict(fields, power_mw=True)),
                         ("luts", dict(fields, luts=True)),
                         ("cpd_ns", dict(fields, cpd_ns="x"))]:
        with pytest.raises(ValueError, match=match):
            row(entry)


def test_unit_warning_only_on_disagreement():
    assert len(report(FPGA)["warnings"]) == 1
    consistent = dict(FPGA, power_mw=1200.0)
    assert report(consistent)["warnings"] == []


def test_report_rows_and_warnings():
    rep = report(ASIC, FPGA, scale_to_nm=65, lut_area_um2=1.0)
    assert [r["adp_3sf"] for r in rep["rows"]] == \
        ["8.23e-04", "2.30e-05", "1.24e-04"]
    assert [r["pdp_3sf"] for r in rep["rows"]] == \
        ["2.28e-10", "5.40e-09", "5.40e-09"]
    assert len(rep["warnings"]) == 1 and "1.2 W" in rep["warnings"][0]


def test_empty_report():
    rep = report()
    assert rep == {"rows": [], "warnings": []}
    assert fom.report_to_csv(rep).count("\n") == 1  # header only


@pytest.mark.parametrize("name", ["a,b", 'say "hi"', "two\nlines", "cr\rx"])
def test_csv_quotes_the_platform_name(name):
    text = fom.report_to_csv(report(dict(ASIC, name=name)))
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert len(rows) == 2 and len(rows[1]) == 7
    assert rows[1][0] == name


def test_platform_entry_schema():
    with pytest.raises(ValueError, match="kind"):
        row({"cpd_ns": 1.0})
    with pytest.raises(ValueError, match="unknown"):
        row({"kind": "ASIC", "area_um2": 1.0, "cpd_ns": 1.0, "power_mw": 0.1,
             "tech_nm": 65, "bogus": 1})
    with pytest.raises(ValueError, match="missing"):
        row({"kind": "ASIC", "area_um2": 1.0, "power_mw": 0.1, "tech_nm": 65})
