"""Feeder JSON ingestion, per-unit conversion and the embedded test feeder.

A feeder document is a single JSON object with arrays ``buses``, ``lines``
and ``inverters`` plus a ``bases`` object.  ``unit`` selects how numbers
are read:

* ``"ohm"``: impedances in ohms, loads as ``load_mva`` (split by the run's
  power factor) or explicit ``p_c_mw``/``q_c_mvar``, generation in MW, and
  inverters by ``capacity_mw``.  Everything is converted to per unit at
  ingestion using ``bases``.
* ``"pu"``: all values are taken literally (``p_c``, ``q_c``, ``p_g``,
  inverter ``s``/``p``/``rho``, impedances in p.u.).

``load_feeder("builtin:sce42")`` returns the embedded 42-bus utility
feeder (41 lines, five PV inverters, 12.35 kV / 1000 kVA bases).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import threading
from collections.abc import Mapping
from importlib import resources
from types import MappingProxyType

import numpy as np

from .exceptions import InvalidRecord, ParseError
from .network import (Bases, Bus, Inverter, Line, _doc_float, _is_number, _plain, _readonly,
                      _real, _shown, build_feeder)

BUILTIN_PREFIX = "builtin:"
DEFAULT_POWER_FACTOR = 0.9
DEFAULT_PV_OPERATING_FRACTION = 1.0
DEFAULT_INVERTER_OVERSIZE = 1.1
DEFAULT_MIN_IMPEDANCE_OHM = 1e-3

# builtin feeders at load scale 1, by source and exact knobs, oldest first
_BUILTIN_CACHE_SIZE = 8
_BUILTIN_FEEDERS = {}
_BUILTIN_LOCK = threading.Lock()


_REQUIRED = object()


def _number(rec, key, context, default=_REQUIRED, integral=False):
    """The number at ``rec[key]``: a float, or an int when ``integral``.

    An absent key gives ``default`` unless the value is required, and a
    null one gives None when the default is None.  A missing required
    value, a value that is not a number (a numeric string counts) and a
    non-integral one where an integer is needed raise ParseError naming
    the field.
    """
    # dict first: an isinstance check against the Mapping ABC costs more
    raw = rec.get(key, default) if isinstance(rec, (dict, Mapping)) else _REQUIRED
    if type(raw) is (int if integral else float):  # as JSON parses most values
        return raw
    if raw is _REQUIRED:
        raise ParseError(f"missing required value in {context}", field=key)
    if raw is None and default is None:
        return None
    try:
        value = _doc_float(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float range
        raise ParseError(f"{context} needs a number, got {_shown(raw)}", field=key) from exc
    if not integral:
        return value
    if not value.is_integer():
        raise ParseError(f"{context} needs an integer, got {_shown(raw)}", field=key)
    return raw if isinstance(raw, int) else int(value)


def _records(doc, key, required=True):
    """The list of records at ``doc[key]``; an absent optional one is empty."""
    recs = doc.get(key, _REQUIRED if required else [])
    if recs is _REQUIRED:
        raise ParseError("missing required value in document", field=key)
    if not isinstance(recs, (list, tuple)):
        raise ParseError(f"{key} must be a list of records, got {_shown(recs)}", field=key)
    return recs


def load_feeder(
    source,
    power_factor=DEFAULT_POWER_FACTOR,
    load_scale=1.0,
    pv_operating_fraction=DEFAULT_PV_OPERATING_FRACTION,
    inverter_oversize=DEFAULT_INVERTER_OVERSIZE,
    tan_rho=None,
):
    """Load and validate a feeder from a path, builtin name, or parsed dict.

    Parameters
    ----------
    source : str | pathlib.Path | dict
        File path, ``"builtin:<name>"``, or an already-parsed document.
        The builtin names are those of the documents shipped in
        ``voltvar.data``.
    power_factor : float
        Lagging power factor in (0, 1] used to split ``load_mva`` entries
        into real and reactive consumption.
    load_scale : float
        Multiplier on all loads; finite and non-negative (0 is valid).
    pv_operating_fraction : float
        Inverter real output as a fraction of nameplate capacity.
    inverter_oversize : float
        Apparent capacity as a multiple of nameplate, so reactive headroom
        exists even at full real output; below ``pv_operating_fraction`` a
        capacity-style inverter raises InvalidRecord naming both.
    tan_rho : float, optional
        Power-factor limit applied to capacity-style inverters, at least 0
        (inf is valid); None keeps the capacity circle as the only bound.

    In ``"ohm"`` documents, impedances below ``DEFAULT_MIN_IMPEDANCE_OHM``
    (zeros appear in some published datasets) are lifted to it before
    per-unit conversion; ``meta`` records the floor and the lifted lines.

    The feeder is built at load scale 1 and ``load_scale`` scales a copy.
    A builtin feeder at scale 1 is built once per process for each knob
    set, the same in type and bits (``-0.0`` is not ``0.0``, nor ``1``
    ``1.0``), and then shared: a Feeder is read-only all the way down.
    At most ``_BUILTIN_CACHE_SIZE`` are kept, the oldest dropped first.
    """
    load_scale = _real("load_scale", load_scale, "nonnegative")
    pv_operating_fraction = _real("pv_operating_fraction", pv_operating_fraction, "nonnegative")
    inverter_oversize = _real("inverter_oversize", inverter_oversize, "nonnegative")
    if not _is_number(power_factor):
        raise InvalidRecord(f"power_factor must be a number, got {_shown(power_factor)}")
    if tan_rho is not None:
        _real("tan_rho", tan_rho, "optional")
    if not 0 < power_factor <= 1:
        raise ParseError(f"power factor must lie in (0, 1], got {_shown(power_factor)}",
                         field="power_factor")
    knobs = (power_factor, pv_operating_fraction, inverter_oversize, tan_rho)
    key = None
    if isinstance(source, str) and source.startswith(BUILTIN_PREFIX):
        exact = tuple(map(_exact, knobs))
        key = None if None in exact else (source, exact)
    feeder = _BUILTIN_FEEDERS.get(key)
    if feeder is None:
        feeder = _from_document(*_document(source), *knobs)
    scaled = feeder if load_scale == 1.0 else _with_load_scale(feeder, load_scale)
    if key is not None and key not in _BUILTIN_FEEDERS:
        with _BUILTIN_LOCK:
            _BUILTIN_FEEDERS[key] = feeder
            while len(_BUILTIN_FEEDERS) > _BUILTIN_CACHE_SIZE:
                del _BUILTIN_FEEDERS[next(iter(_BUILTIN_FEEDERS))]
    return scaled


def _exact(value):
    """``value``'s type and bits, so that -0.0 and 0.0, or 1 and 1.0, key
    apart; None for a type whose bits this does not read."""
    kind = type(value)
    if kind is float:
        return kind, value.hex()
    return (kind, value) if kind is int or value is None else None


@functools.cache
def _builtin_names():
    """The names of the feeder documents shipped in ``voltvar.data``."""
    return frozenset(ref.name[:-len(".json")] for ref in resources.files("voltvar.data").iterdir()
                     if ref.name.endswith(".json") and ref.is_file())


def _document(source):
    """The parsed document of ``source`` and the origin its meta records."""
    if isinstance(source, dict):
        return source, "<dict>"
    if isinstance(source, str) and source.startswith(BUILTIN_PREFIX):
        name = source[len(BUILTIN_PREFIX):]
        if name not in _builtin_names():
            raise ParseError(f"unknown builtin feeder {_shown(name)}")
        ref = resources.files("voltvar.data").joinpath(f"{name}.json")
        return json.loads(ref.read_text()), source
    if not isinstance(source, (str, bytes, os.PathLike)):
        # open() would take an int as a file descriptor, and close it
        raise ParseError(f"a feeder source must be a dict, a path or 'builtin:<name>', "
                         f"got {type(source).__name__}")
    try:
        with open(source) as fh:
            return json.load(fh), str(source)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: invalid JSON at line {exc.lineno}") from exc
    except ValueError as exc:  # an int of more digits than Python reads, or bad UTF-8
        raise ParseError(f"{source}: unreadable JSON: {exc}") from exc
    except FileNotFoundError as exc:
        raise ParseError(f"{source}: no such feeder file") from exc


def _from_document(doc, origin, power_factor, pv_operating_fraction, inverter_oversize,
                   tan_rho):
    """The feeder of document ``doc`` at load scale 1, for knobs that
    :func:`load_feeder` has checked."""
    if not isinstance(doc, Mapping):
        raise ParseError(f"{origin}: a feeder document must be a JSON object")

    unit = doc.get("unit", "pu")
    if unit not in ("ohm", "pu"):
        raise ParseError(f"unit must be 'ohm' or 'pu', got {_shown(unit)}", field="unit")

    bases = None
    if "bases" in doc:
        b = doc["bases"]
        bases = Bases(
            v_kv=_number(b, "v_kv", "bases"),
            s_kva=_number(b, "s_kva", "bases"),
            z_ohm=_number(b, "z_ohm", "bases", 0.0),
        )
    if unit == "ohm" and bases is None:
        raise ParseError("ohm-unit files need a bases object", field="bases")
    s_base_mva = bases.s_kva / 1e3 if bases else 1.0
    z_base = bases.z_ohm if bases else 1.0

    cap_rho = None if tan_rho is None else math.atan(tan_rho)  # of a capacity_mw inverter
    tan_phi = math.tan(math.acos(power_factor))
    buses = []
    for rec in _records(doc, "buses"):
        ctx = "bus record"
        bid = _number(rec, "id", ctx, integral=True)
        v_nom = _number(rec, "v_nom", ctx, 1.0)
        if unit == "ohm":
            if "load_mva" in rec:
                mva = _number(rec, "load_mva", ctx)
                p_c = power_factor * mva / s_base_mva
                q_c = tan_phi * p_c
            else:
                p_c = _number(rec, "p_c_mw", ctx, 0.0) / s_base_mva
                q_c = _number(rec, "q_c_mvar", ctx, 0.0) / s_base_mva
            p_g = _number(rec, "p_g_mw", ctx, 0.0) / s_base_mva
        else:
            p_c = _number(rec, "p_c", ctx, 0.0)
            q_c = _number(rec, "q_c", ctx, 0.0)
            p_g = _number(rec, "p_g", ctx, 0.0)
        buses.append(Bus(id=bid, v_nom=v_nom, p_c=p_c, q_c=q_c, p_g=p_g))

    floor = DEFAULT_MIN_IMPEDANCE_OHM
    floored = []
    lines = []
    for rec in _records(doc, "lines"):
        a = _number(rec, "from", "line record", integral=True)
        b = _number(rec, "to", "line record", integral=True)
        r = _number(rec, "r", "line record")
        x = _number(rec, "x", "line record")
        if unit == "ohm":
            if 0.0 <= r < floor or 0.0 <= x < floor:
                floored.append((a, b))
                r = max(r, floor) if r >= 0 else r
                x = max(x, floor) if x >= 0 else x
            r, x = r / z_base, x / z_base
        lines.append(Line(from_bus=a, to_bus=b, r=r, x=x))

    inverters = {}
    curve_specs = {}
    for rec in _records(doc, "inverters", required=False):
        ctx = "inverter record"
        bus = _number(rec, "bus", ctx, integral=True)
        if bus in inverters:
            raise ParseError(f"duplicate inverter records for bus {bus}", field="bus")
        if unit == "ohm" or "capacity_mw" in rec:
            cap = _number(rec, "capacity_mw", ctx) / s_base_mva
            p = pv_operating_fraction * cap
            s = inverter_oversize * cap
            if p > s and cap > 0.0:
                raise InvalidRecord(
                    f"pv_operating_fraction={pv_operating_fraction} exceeds inverter_oversize="
                    f"{inverter_oversize}, so the inverter at bus {bus} would run at p > s")
            rho = cap_rho
        else:
            s = _number(rec, "s", ctx)
            p = _number(rec, "p", ctx)
            rho = _number(rec, "rho", ctx, None)
        inverters[bus] = Inverter(s=s, p=p, rho=rho)
        if "curve" in rec:
            if not isinstance(rec["curve"], Mapping):
                raise ParseError(f"inverter curve at bus {bus} must be an object",
                                 field="curve")
            curve_specs[bus] = rec["curve"]

    meta = {
        "name": doc.get("name", ""),
        "source": origin,
        "unit": unit,
        "power_factor": power_factor,
        "load_scale": 1.0,
        "pv_operating_fraction": pv_operating_fraction,
        "inverter_oversize": inverter_oversize,
        "tan_rho": tan_rho,
        "floored_lines": floored,
        "min_impedance_ohm": DEFAULT_MIN_IMPEDANCE_OHM,
    }
    return build_feeder(
        buses,
        lines,
        inverters=inverters,
        bases=bases,
        slack_label=_number(doc, "slack", "document", 0, integral=True),
        v0=_number(doc, "v0", "document", 1.0),
        curve_specs=curve_specs,
        meta=meta,
    )


def _with_load_scale(feeder, load_scale):
    """``feeder``, loaded at scale 1, with its loads scaled by ``load_scale``:
    a ``dataclasses.replace`` copy with ``p_c``, ``q_c`` and
    ``meta["load_scale"]`` changed.  :func:`load_feeder` and a ``load_scale``
    sweep both scale this way."""
    load_scale = _real("load_scale", load_scale, "nonnegative")
    with np.errstate(over="ignore"):  # an overflowing load is rejected below
        p_c, q_c = load_scale * feeder.p_c, load_scale * feeder.q_c
    bad = ~np.isfinite((p_c, q_c)).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidRecord(f"load_scale={load_scale} overflows the load at bus "
                            f"{feeder.labels[k]}: p_c={p_c[k]}, q_c={q_c[k]}")
    return dataclasses.replace(feeder, p_c=_readonly(p_c), q_c=_readonly(q_c),
                               meta=MappingProxyType({**feeder.meta, "load_scale": load_scale}))


def feeder_to_dict(feeder):
    """Canonical per-unit document for a built feeder (round-trips exactly)."""
    buses = [{"id": feeder.slack_label}]
    for k, lab in enumerate(feeder.labels):
        buses.append(
            {
                "id": lab,
                "v_nom": float(feeder.v_nom[k]),
                "p_c": float(feeder.p_c[k]),
                "q_c": float(feeder.q_c[k]),
                "p_g": float(feeder.p_g[k]),
            }
        )
    lines = []
    for k, lab in enumerate(feeder.labels):
        p = feeder.parent[k]
        lines.append(
            {
                "from": feeder.slack_label if p < 0 else feeder.labels[p],
                "to": lab,
                "r": float(feeder.r[k]),
                "x": float(feeder.x[k]),
            }
        )
    inverters = []
    for k in sorted(feeder.inverters):
        inv = feeder.inverters[k]
        rec = {
            "bus": feeder.labels[k],
            "s": inv.s,
            "p": inv.p,
            "rho": inv.rho,
        }
        if k in feeder.curve_specs:
            rec["curve"] = _plain(feeder.curve_specs[k])
        inverters.append(rec)
    doc = {
        "name": feeder.meta.get("name", ""),
        "unit": "pu",
        "slack": feeder.slack_label,
        "v0": feeder.v0,
        "buses": buses,
        "lines": lines,
        "inverters": inverters,
    }
    if feeder.bases is not None:
        doc["bases"] = {
            "v_kv": feeder.bases.v_kv,
            "s_kva": feeder.bases.s_kva,
            "z_ohm": feeder.bases.z_ohm,
        }
    return doc


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def save_feeder(feeder, path):
    _write_json(path, feeder_to_dict(feeder))


def feeder_hash(feeder):
    """Stable content hash of the canonical feeder document."""
    payload = json.dumps(feeder_to_dict(feeder), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def feeders_equal(a, b):
    """Equality of the canonical documents of two feeders, less ``name`` and
    ``bases``; floats compare with ``==``, so -0.0 equals 0.0."""
    def doc(feeder):
        return {k: v for k, v in feeder_to_dict(feeder).items() if k not in ("name", "bases")}
    return doc(a) == doc(b)
