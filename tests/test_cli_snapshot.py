"""Byte identity of the CLI: a fresh ``tools/cli_snapshot.py`` snapshot
must hash to ``tests/golden/cli_snapshot.sha256``, file by file."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_snapshot.py"
MANIFEST = ROOT / "tests" / "golden" / "cli_snapshot.sha256"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_snapshot_matches_the_manifest(tmp_path):
    tool = _tool()
    out = tmp_path / "snapshot"
    # a fresh process, as the manifest was written, so no state of this one leaks in
    subprocess.run([sys.executable, str(TOOL), str(out)], check=True, cwd=tmp_path)
    want, got = tool.read_manifest(MANIFEST), tool.digests(out)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (
        f"CLI outputs differ from {MANIFEST.name}: {moved} (missing, new or changed). "
        "A change of numpy, BLAS or CPU can move the last bits of BLAS calls such as "
        "the SVDs; if that is the cause, rewrite the manifest with `python3 "
        "tools/cli_snapshot.py OUT_DIR --manifest tests/golden/cli_snapshot.sha256` "
        "and say why in the change.")
