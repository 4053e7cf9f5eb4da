"""The verdict rule of ``tools/ab.py`` on fixed samples (no runs, no timing)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
SPEC = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]  # IQR/median 0.015
WIDE = [6.0] * 5 + [14.0] * 5  # median 10, IQR 8: wider than the 0.25 bound


def scaled(xs, factor, losses=0):
    """``xs`` times ``factor``, except the first ``losses`` rounds, which B loses."""
    return [x * (factor if i >= losses else 1 / factor) for i, x in enumerate(xs)]


CASES = [
    ("lower", STEADY, scaled(STEADY, 1.3), "worse"),
    ("higher", STEADY, scaled(STEADY, 0.7), "worse"),
    ("lower", WIDE, scaled(WIDE, 1.5), "worse"),  # worse outranks unresolved
    ("lower", STEADY, scaled(STEADY, 0.8), "better"),
    ("higher", STEADY, scaled(STEADY, 1.2), "better"),
    ("lower", STEADY, scaled(STEADY, 0.8, losses=1), "better"),  # 9 of 10 rounds
    ("lower", STEADY, scaled(STEADY, 0.8, losses=2), "within bound"),  # 8 of 10
    ("lower", STEADY, scaled(STEADY, 1.05), "within bound"),
    ("higher", STEADY, scaled(STEADY, 0.95), "within bound"),
    ("lower", STEADY, STEADY, "within bound"),
    ("lower", WIDE, WIDE, "unresolved"),
    ("higher", WIDE, WIDE, "unresolved"),
    ("lower", WIDE, scaled(WIDE, 0.9), "unresolved"),
    # every run of B beats every run of A, so a wide A resolves; the medians
    # differ by 5, less than A's IQR of 8, so B is not better
    ("lower", WIDE, [5.0] * 10, "within bound"),
    ("higher", WIDE, [15.0] * 10, "within bound"),
]


@pytest.mark.parametrize("better, a, b, want", CASES,
                         ids=[f"{i}-{c[0]}-{c[3]}" for i, c in enumerate(CASES)])
def test_verdict(better, a, b, want):
    assert ab.verdict(a, b, better, 0.25) == want
