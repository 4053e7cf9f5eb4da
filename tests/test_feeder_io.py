import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path

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
        assert sce42.meta["floored_lines"] == ((28, 29),)
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


class TestReadOnly:
    def test_specs_and_meta_refuse_item_assignment(self, sce42):
        # each once changed the feeder in place: a spec's alpha reached every
        # later config and feeder_hash, and the floored lines every run report
        with pytest.raises(TypeError):
            sce42.curve_specs[0]["alpha"] = 99.0
        with pytest.raises(TypeError):
            sce42.meta["floored_lines"][0] = (1, 2)
        assert not hasattr(sce42.meta["floored_lines"], "append")
        assert vv.feeder_hash(sce42) == vv.feeder_hash(vv.load_feeder(SCE42_DOC))

    def test_table_points_are_not_the_documents(self):
        doc = copy.deepcopy(SCE42_DOC)
        points = [[-0.1, 0.5], [-0.02, 0.0], [0.02, 0.0], [0.1, -0.5]]
        doc["inverters"][0]["curve"] = {"type": "table", "points": points}
        f = vv.load_feeder(doc)
        stored = f.curve_specs[f.position[doc["inverters"][0]["bus"]]]["points"]
        with pytest.raises(TypeError):
            stored[0] = [0.0, 0.0]
        points[0][1] = 9.0
        assert stored[0] == (-0.1, 0.5)
        assert vv.feeder_to_dict(f)["inverters"][0]["curve"]["points"][0] == [-0.1, 0.5]


class TestCache:
    def test_equal_knobs_share_one_feeder(self):
        assert vv.load_feeder("builtin:sce42") is vv.load_feeder("builtin:sce42")
        pf = vv.load_feeder("builtin:sce42", power_factor=0.95)
        assert vv.load_feeder("builtin:sce42", power_factor=0.95) is pf
        assert pf is not vv.load_feeder("builtin:sce42")

    def test_load_scale_scales_a_fresh_copy(self):
        a, b = (vv.load_feeder("builtin:sce42", load_scale=0.7) for _ in range(2))
        uncached = vv.load_feeder(SCE42_DOC, load_scale=0.7)
        assert a is not b
        assert a.meta["load_scale"] == 0.7
        for f in (a, b):
            assert vv.feeders_equal(f, uncached)
            for field in ("p_c", "q_c", "p_g", "r", "x", "v_nom", "parent"):
                assert np.array_equal(getattr(f, field), getattr(uncached, field))

    @pytest.mark.parametrize("knob", ["tan_rho", "pv_operating_fraction"])
    def test_signed_zeros_stay_apart(self, knob):
        neg, pos = (vv.load_feeder("builtin:sce42", **{knob: z}) for z in (-0.0, 0.0))
        assert neg is not pos
        assert vv.feeder_hash(neg) != vv.feeder_hash(pos)
        assert vv.feeder_hash(neg) == vv.feeder_hash(vv.load_feeder(SCE42_DOC, **{knob: -0.0}))
        assert vv.feeder_hash(pos) == vv.feeder_hash(vv.load_feeder(SCE42_DOC, **{knob: 0.0}))

    def test_an_int_knob_keeps_its_type(self):
        for pf in (1, 1.0, 1, 1.0):
            assert type(vv.load_feeder("builtin:sce42", power_factor=pf).meta["power_factor"]) \
                is type(pf)

    @pytest.mark.parametrize("knob", ["power_factor", "load_scale", "pv_operating_fraction",
                                      "inverter_oversize", "tan_rho"])
    @pytest.mark.parametrize("bad", [math.nan, True, -1.0, 10**400],
                             ids=["nan", "bool", "negative", "huge-int"])
    def test_a_rejected_knob_raises_every_time(self, knob, bad, monkeypatch):
        monkeypatch.setattr(vv.feeder_io, "_BUILTIN_FEEDERS", {})
        errors = []
        for _ in range(2):
            with pytest.raises((vv.InvalidRecord, vv.ParseError)) as err:
                vv.load_feeder("builtin:sce42", **{knob: bad})
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]
        assert vv.feeder_io._BUILTIN_FEEDERS == {}

    def test_a_load_that_raises_stores_nothing(self, monkeypatch):
        monkeypatch.setattr(vv.feeder_io, "_BUILTIN_FEEDERS", {})
        with pytest.raises(vv.InvalidRecord, match="pv_operating_fraction"):
            vv.load_feeder("builtin:sce42", pv_operating_fraction=2.0)
        with pytest.raises(vv.InvalidRecord, match="overflows the load"):
            vv.load_feeder("builtin:sce42", load_scale=1.7e308)
        assert vv.feeder_io._BUILTIN_FEEDERS == {}

    def test_the_cache_keeps_its_bound(self, monkeypatch):
        monkeypatch.setattr(vv.feeder_io, "_BUILTIN_FEEDERS", {})
        bound = vv.feeder_io._BUILTIN_CACHE_SIZE
        fractions = [0.05 * (i + 1) for i in range(bound + 3)]
        loaded = [vv.load_feeder("builtin:sce42", pv_operating_fraction=x) for x in fractions]
        assert len(vv.feeder_io._BUILTIN_FEEDERS) == bound
        assert vv.load_feeder("builtin:sce42", pv_operating_fraction=fractions[-1]) \
            is loaded[-1]
        assert vv.load_feeder("builtin:sce42", pv_operating_fraction=fractions[0]) \
            is not loaded[0]
        assert len(vv.feeder_io._BUILTIN_FEEDERS) == bound

    def test_threads_share_the_cache_safely(self, monkeypatch):
        # more knob sets than the bound, and a stand-in for the build, so
        # threads store and evict at once, thousands of times
        monkeypatch.setattr(vv.feeder_io, "_BUILTIN_FEEDERS", {})
        monkeypatch.setattr(vv.feeder_io, "_document", lambda source: (None, source))
        monkeypatch.setattr(vv.feeder_io, "_from_document", lambda doc, origin, *knobs: knobs)
        bound = vv.feeder_io._BUILTIN_CACHE_SIZE
        fractions = [0.05 * (i + 1) for i in range(bound + 4)]
        wrong, errors = [], []

        def work(k):
            try:
                for i in range(3000):
                    x = fractions[(k + i) % len(fractions)]
                    if vv.load_feeder("builtin:sce42", pv_operating_fraction=x)[1] != x:
                        wrong.append(x)
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []
        assert len(vv.feeder_io._BUILTIN_FEEDERS) == bound

    def test_paths_and_dicts_build_anew(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vv.feeder_io, "_BUILTIN_FEEDERS", {})
        path = tmp_path / "sce42.json"
        path.write_text(json.dumps(SCE42_DOC))
        for source in (SCE42_DOC, str(path), path):
            assert vv.load_feeder(source) is not vv.load_feeder(source)
        assert vv.feeder_io._BUILTIN_FEEDERS == {}


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

    @pytest.mark.parametrize("tan_rho", [10**400, -(10**400)])
    def test_tan_rho_past_float_range_is_named(self, tan_rho):
        # 10**400 once raised a bare OverflowError from math.atan
        with pytest.raises(vv.InvalidRecord, match="tan_rho"):
            vv.load_feeder("builtin:sce42", tan_rho=tan_rho)
        unbounded = vv.load_feeder("builtin:sce42", tan_rho=math.inf)
        assert {inv.rho for inv in unbounded.inverters.values()} == {math.pi / 2}

    def test_load_scale_that_overflows_a_load_is_rejected(self):
        doc = edited(vv.feeder_to_dict(vv.load_feeder("builtin:sce42")), ("buses", 3, "q_c"),
                     1e10)
        vv.load_feeder(doc, load_scale=1e290)
        with pytest.raises(vv.InvalidRecord, match="load_scale=1e.300 overflows the load"):
            vv.load_feeder(doc, load_scale=1e300)

    @pytest.mark.parametrize("source", [None, 3.5])
    def test_source_of_another_type_is_named(self, source):
        # each once raised a bare TypeError from open()
        with pytest.raises(vv.ParseError, match=type(source).__name__):
            vv.load_feeder(source)

    @pytest.mark.parametrize("source", ["0", "True"])
    def test_int_source_leaves_the_standard_streams_open(self, source):
        # open() once took these as file descriptors: 0 read the feeder from
        # stdin, True read stdout, and each closed its descriptor
        code = ("import os, voltvar as vv\n"
                "try:\n"
                f"    vv.load_feeder({source})\n"
                "except vv.ParseError as exc:\n"
                "    os.fstat(0), os.fstat(1)\n"
                "    print('ParseError:', exc)\n")
        src = str(Path(vv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(SCE42_DOC),
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ParseError:"), proc.stdout

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

    def test_builtin_names_are_the_shipped_documents_only(self, tmp_path):
        # a relative name once loaded any file as package data, under a
        # builtin label, and sce42 under a second name
        (tmp_path / "outside.json").write_text(json.dumps(SCE42_DOC))
        data = Path(vv.__file__).resolve().parent / "data"
        outside = os.path.relpath(tmp_path / "outside", data)
        for name in (outside, "../data/sce42"):
            with pytest.raises(vv.ParseError, match="unknown builtin feeder"):
                vv.load_feeder(f"builtin:{name}")

    def test_missing_file_is_named(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(vv.ParseError, match="absent.json"):
            vv.load_feeder(str(path))

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(vv.ParseError):
            vv.load_feeder(str(p))

    def test_json_number_past_the_digit_limit_is_named(self, tmp_path):
        # json reads such an int with int(), whose bare ValueError once escaped
        p = tmp_path / "huge_id.json"
        p.write_text('{"unit": "pu", "buses": [{"id": 1' + "0" * 5000 + "}]}")
        with pytest.raises(vv.ParseError, match="huge_id.json: unreadable JSON"):
            vv.load_feeder(str(p))

    @pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null", '"builtin:sce42"'])
    def test_json_file_not_an_object(self, tmp_path, text):
        p = tmp_path / "not_an_object.json"
        p.write_text(text)
        with pytest.raises(vv.ParseError, match="JSON object"):
            vv.load_feeder(str(p))

    @pytest.mark.parametrize("key", ["buses", "lines"])
    def test_missing_record_list_is_named(self, sce42, key):
        doc = vv.feeder_to_dict(sce42)
        del doc[key]
        with pytest.raises(vv.ParseError) as err:
            vv.load_feeder(doc)
        assert err.value.field == key

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

    # (path in sce42's per-unit document, new value): each a fact that
    # feeders_equal compares
    @pytest.mark.parametrize("path, value", [
        (("buses", 1, "p_c"), 0.5),
        (("buses", 1, "q_c"), 0.2),
        (("buses", 1, "p_g"), 0.1),
        (("buses", 1, "v_nom"), 1.01),
        (("lines", 0, "r"), 0.002),
        (("lines", 0, "x"), 0.006),
        (("lines", 1, "from"), 1),  # bus 3 hangs off the slack
        (("v0",), 1.02),
        (("inverters", 0, "s"), 1.2),
        (("inverters", 0, "p"), 0.9),
        (("inverters", 0, "rho"), 0.3),
        (("inverters", 0, "curve", "alpha"), 12.0),
        (("inverters", 0, "curve"), {"type": "droop", "alpha": 10.0}),
    ], ids=["p_c", "q_c", "p_g", "v_nom", "r", "x", "parent", "v0", "s", "p", "rho",
            "curve-alpha", "curve-keys"])
    def test_a_copy_differing_in_one_fact_is_unequal(self, sce42, path, value):
        other = vv.load_feeder(edited(vv.feeder_to_dict(sce42), path, value))
        assert not vv.feeders_equal(sce42, other)
        assert not vv.feeders_equal(other, sce42)

    def test_name_bases_meta_and_signed_zeros_are_not_compared(self, sce42):
        doc = vv.feeder_to_dict(sce42)
        unbased = copy.deepcopy(doc)
        del unbased["bases"]
        others = [vv.load_feeder(d) for d in (
            edited(doc, ("name",), "other"), edited(doc, ("bases", "v_kv"), 4.16), unbased,
            edited(doc, ("buses", 1, "p_c"), -0.0))]
        others.append(dataclasses.replace(sce42, meta={"name": "other"}))
        for other in others:
            assert vv.feeders_equal(sce42, other)
            assert vv.feeders_equal(other, sce42)


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
