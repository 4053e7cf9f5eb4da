import json
import math

import numpy as np
import pytest

import voltvar as vv


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
