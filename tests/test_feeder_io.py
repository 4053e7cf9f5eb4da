import copy
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltvar as vv

from helpers import NUMBERS, package_outcome

# the embedded sce42 document as stored: ohm units, capacity-style inverters
SCE42_DOC = json.loads(resources.files("voltvar.data").joinpath("sce42.json").read_text())


def edited(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` (keys and indices) set."""
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


class TestBuiltinSce42:
    def test_shape(self, sce42):
        assert sce42.n == 41
        assert sce42.slack_label == 1
        assert len(sce42.labels) == 41

    def test_first_line_impedance(self, sce42):
        # line from the substation into bus 2: 0.259 + j0.808 ohm
        k = sce42.position[2]
        assert sce42.parent[k] == -1
        assert sce42.r[k] == pytest.approx(0.259 / 152.52, rel=1e-12)
        assert sce42.x[k] == pytest.approx(0.808 / 152.52, rel=1e-12)

    def test_peak_load_split_by_power_factor(self, sce42):
        k = sce42.position[34]
        assert sce42.p_c[k] == pytest.approx(0.9 * 1.34, rel=1e-12)
        assert sce42.q_c[k] == pytest.approx(math.sin(math.acos(0.9)) * 1.34, rel=1e-12)

    def test_pv_fleet(self, sce42):
        caps = {sce42.labels[k]: inv.p for k, inv in sce42.inverters.items()}
        assert caps == pytest.approx(
            {2: 1.0, 12: 3.0, 26: 2.0, 29: 1.8, 31: 2.5}
        )
        for k, inv in sce42.inverters.items():
            assert inv.s == pytest.approx(1.1 * inv.p, rel=1e-12)
            assert inv.rho is None
        assert set(sce42.curve_specs) == set(sce42.inverters)

    def test_zero_reactance_line_floored_and_recorded(self, sce42):
        assert sce42.meta["floored_lines"] == [(28, 29)]
        k = sce42.position[29]
        assert sce42.x[k] == pytest.approx(1e-3 / 152.52, rel=1e-12)
        assert sce42.x[k] > 0

    def test_bases(self, sce42):
        assert sce42.bases.v_kv == 12.35
        assert sce42.bases.s_kva == 1000.0
        assert sce42.bases.z_ohm == 152.52

    def test_total_load_magnitude(self, sce42):
        total_mva = np.hypot(sce42.p_c, sce42.q_c).sum()
        assert total_mva == pytest.approx(10.30, abs=1e-9)


class TestKnobs:
    def test_load_scale(self):
        half = vv.load_feeder("builtin:sce42", load_scale=0.5)
        full = vv.load_feeder("builtin:sce42")
        np.testing.assert_allclose(half.p_c, 0.5 * full.p_c, rtol=1e-15)
        np.testing.assert_allclose(half.q_c, 0.5 * full.q_c, rtol=1e-15)

    def test_power_factor(self):
        unity = vv.load_feeder("builtin:sce42", power_factor=1.0)
        assert np.all(unity.q_c == 0)
        k = unity.position[34]
        assert unity.p_c[k] == pytest.approx(1.34, rel=1e-12)

    def test_pv_knobs(self):
        f = vv.load_feeder(
            "builtin:sce42", pv_operating_fraction=0.5, inverter_oversize=2.0, tan_rho=1.0
        )
        inv = f.inverters[f.position[12]]
        assert inv.p == pytest.approx(1.5)
        assert inv.s == pytest.approx(6.0)
        assert inv.rho == pytest.approx(math.atan(1.0))
        lo, hi = vv.reactive_limits(inv)
        assert hi == pytest.approx(1.5)  # power-factor cone binds


class TestErrors:
    @pytest.mark.parametrize("pf", [1.2, 0.0, -0.5, float("nan")])
    def test_power_factor_out_of_range(self, pf):
        with pytest.raises(vv.ParseError):
            vv.load_feeder("builtin:sce42", power_factor=pf)

    @pytest.mark.parametrize("knob", ["load_scale", "pv_operating_fraction",
                                      "inverter_oversize"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_knob_is_named(self, knob, bad):
        with pytest.raises(vv.InvalidRecord, match=knob):
            vv.load_feeder("builtin:sce42", **{knob: bad})

    def test_negative_load_scale_rejected(self):
        with pytest.raises(vv.InvalidRecord, match="load_scale"):
            vv.load_feeder("builtin:sce42", load_scale=-0.5)
        empty = vv.load_feeder("builtin:sce42", load_scale=0.0)
        assert not np.any(empty.p_c) and not np.any(empty.q_c)

    @pytest.mark.parametrize("path, bad, field", [
        (("buses", 1, "id"), "x", "id"),
        (("buses", 1, "id"), None, "id"),
        (("buses", -1, "id"), 42.7, "id"),  # once truncated to bus 42
        (("buses", 1, "p_c"), "x", "p_c"),
        (("buses", 1, "p_c"), None, "p_c"),
        (("lines", 0, "r"), "x", "r"),
        (("lines", 0, "r"), None, "r"),
        (("lines", 0, "to"), 2.5, "to"),
        (("inverters", 0, "s"), None, "s"),
        (("inverters", 0, "rho"), "x", "rho"),
        (("v0",), None, "v0"),
        (("slack",), "x", "slack"),
        (("buses",), 5, "buses"),
        (("inverters",), 5, "inverters"),
    ])
    def test_malformed_values_name_their_field(self, sce42, path, bad, field):
        # each once raised a bare ValueError or TypeError, or was truncated
        with pytest.raises(vv.ParseError) as err:
            vv.load_feeder(edited(vv.feeder_to_dict(sce42), path, bad))
        assert err.value.field == field

    @pytest.mark.parametrize("knob, bad", [
        ("load_scale", "2"), ("power_factor", "0.9"), ("tan_rho", "x"),
        ("pv_operating_fraction", None), ("inverter_oversize", [1.1]),
        # numbers that give no inverter once named the inverter's rho, p and s
        ("tan_rho", -1.0), ("inverter_oversize", 0.0), ("pv_operating_fraction", 2.0),
    ])
    def test_non_numeric_knob_is_named(self, knob, bad):
        with pytest.raises(vv.InvalidRecord, match=knob):
            vv.load_feeder("builtin:sce42", **{knob: bad})

    def test_duplicate_inverter_is_named(self):
        # the last record for a bus once silently replaced the earlier ones
        doc = copy.deepcopy(SCE42_DOC)
        doc["inverters"].append({**doc["inverters"][0], "capacity_mw": 9.0})
        with pytest.raises(vv.ParseError, match="bus 2") as err:
            vv.load_feeder(doc)
        assert err.value.field == "bus"

    def test_curve_not_an_object(self, sce42):
        doc = vv.feeder_to_dict(sce42)
        doc["inverters"][0]["curve"] = [1, 2]
        with pytest.raises(vv.ParseError) as err:
            vv.load_feeder(doc)
        assert err.value.field == "curve"

    def test_unknown_builtin(self):
        with pytest.raises(vv.ParseError):
            vv.load_feeder("builtin:nope")

    def test_missing_file_is_named(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(vv.ParseError, match="absent.json"):
            vv.load_feeder(str(path))

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(vv.ParseError):
            vv.load_feeder(str(p))

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null", '"builtin:sce42"'])
    def test_json_file_not_an_object(self, tmp_path, text):
        p = tmp_path / "not_an_object.json"
        p.write_text(text)
        with pytest.raises(vv.ParseError, match="JSON object"):
            vv.load_feeder(str(p))

    def test_missing_field(self):
        doc = {"unit": "pu", "buses": [{"id": 0}, {"id": 1}], "lines": [{"from": 0, "to": 1}]}
        with pytest.raises(vv.ParseError) as err:
            vv.load_feeder(doc)
        assert err.value.field == "r"

    def test_ohm_document_needs_bases(self):
        doc = {"unit": "ohm", "buses": [{"id": 0}, {"id": 1}],
               "lines": [{"from": 0, "to": 1, "r": 0.1, "x": 0.1}]}
        with pytest.raises(vv.ParseError) as err:
            vv.load_feeder(doc)
        assert err.value.field == "bases"

    def test_bad_unit(self):
        with pytest.raises(vv.ParseError):
            vv.load_feeder({"unit": "kV", "buses": [], "lines": []})

    def test_cycle_in_file(self):
        doc = {
            "unit": "pu",
            "buses": [{"id": i} for i in range(3)],
            "lines": [
                {"from": 0, "to": 1, "r": 0.1, "x": 0.1},
                {"from": 1, "to": 2, "r": 0.1, "x": 0.1},
                {"from": 2, "to": 0, "r": 0.1, "x": 0.1},
            ],
        }
        with pytest.raises(vv.CycleDetected):
            vv.load_feeder(doc)


class TestRoundTrip:
    def test_export_reload_identical(self, sce42, tmp_path):
        path = tmp_path / "sce42_pu.json"
        vv.save_feeder(sce42, path)
        again = vv.load_feeder(str(path))
        assert vv.feeders_equal(sce42, again)
        assert vv.feeder_hash(sce42) == vv.feeder_hash(again)

    def test_hash_tracks_content(self, sce42):
        other = vv.load_feeder("builtin:sce42", load_scale=0.9)
        assert vv.feeder_hash(sce42) != vv.feeder_hash(other)

    def test_exported_document_is_pu(self, sce42, tmp_path):
        path = tmp_path / "out.json"
        vv.save_feeder(sce42, path)
        doc = json.loads(path.read_text())
        assert doc["unit"] == "pu"
        assert {b["id"] for b in doc["buses"]} == set(range(1, 43))


# a document's records and the fields they may carry, in either unit
DOC_FIELDS = {
    "buses": ("id", "v_nom", "p_c", "q_c", "p_g", "load_mva", "p_c_mw", "q_c_mvar", "p_g_mw"),
    "lines": ("from", "to", "r", "x"),
    "inverters": ("bus", "capacity_mw", "s", "p", "rho", "curve"),
}
DOC_VALUES = NUMBERS + (None, True, 3.7, [], {})
KNOBS = ("power_factor", "load_scale", "pv_operating_fraction", "inverter_oversize", "tan_rho")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pu=st.booleans(), data=st.data())
def test_documents_raise_only_package_errors(sce42, pu, data):
    # the sce42 document, as stored (ohm) or exported (pu), with up to three
    # values, records or lists replaced and maybe one knob perturbed, either
    # raises an exception of the package or loads a finite feeder
    doc = copy.deepcopy(vv.feeder_to_dict(sce42) if pu else SCE42_DOC)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        where = data.draw(st.sampled_from(
            ("slack", "v0", "unit", "bases", "bases field", "record", "field", *DOC_FIELDS)))
        value = data.draw(st.sampled_from(DOC_VALUES), label="value")
        kind = data.draw(st.sampled_from(sorted(DOC_FIELDS)))
        recs = doc.get(kind)
        if where == "bases field" and isinstance(doc.get("bases"), dict):
            doc["bases"][data.draw(st.sampled_from(("v_kv", "s_kva", "z_ohm")))] = value
        elif where in ("record", "field") and isinstance(recs, list) and recs:
            i = data.draw(st.integers(0, len(recs) - 1))
            if where == "field" and isinstance(recs[i], dict):
                recs[i][data.draw(st.sampled_from(DOC_FIELDS[kind]))] = value
            else:
                recs[i] = value
        elif where not in ("bases field", "record", "field"):
            doc[where] = value
    knobs = data.draw(st.dictionaries(st.sampled_from(KNOBS), st.sampled_from(DOC_VALUES),
                                      max_size=1))
    feeder = package_outcome(lambda: vv.load_feeder(doc, **knobs))
    if feeder is not None:
        for a in (feeder.r, feeder.x, feeder.p_c, feeder.q_c, feeder.p_g, feeder.v_nom,
                  *vv.limits_arrays(feeder)):
            assert np.isfinite(a).all()
        assert math.isfinite(feeder.v0)
