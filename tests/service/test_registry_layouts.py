"""Byte-for-byte pins of the two on-disk registry layouts.

One smoke structure is written through :func:`open_registry` into a flat
root and into a sharded one.  Every file the registry leaves behind (lock
files aside) is pinned by name and sha256, so a refactor of the registry
code cannot silently change what existing deployments read back: the
structure files, each ``index.json`` and the sharding marker.
"""

import hashlib

import pytest

from repro.core.generator import GeneratorConfig
from repro.parallel.sharding import open_registry
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)

KEY = "40768bbf328045a7-b4533920e3991bb1"
STRUCTURE_SHA = "42929bd7fe1ac5733d90e410e3ada2af70271ae742c508534f420718f02eff90"
INDEX_SHA = "578e9e388a9401ed239dba8ea6681976c6307032ae00193c8210b267ff3cd0aa"
MARKER_SHA = "c6f9ff20db2ce18d6942dc098afd0fa9eedd463849b737689a93fc9889327263"

LAYOUTS = {
    "flat": {
        f"{KEY}.json": STRUCTURE_SHA,
        "index.json": INDEX_SHA,
    },
    "sharded": {
        f"40/{KEY}.json": STRUCTURE_SHA,
        "40/index.json": INDEX_SHA,
        "sharding.json": MARKER_SHA,
    },
}


def _files(root):
    """``{relative path: sha256}`` of every file under ``root`` but the locks."""
    files = {}
    for path in root.rglob("*"):
        relative = path.relative_to(root)
        if relative.parts[0] == ".locks" or not path.is_file():
            continue
        files[relative.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layout_files_are_pinned(tmp_path, layout):
    root = tmp_path / "registry"
    if layout == "sharded":
        registry = open_registry(root, sharded=True)
    else:
        registry = open_registry(root)
    registry.get_or_generate(build_chain_circuit(), SMOKE)
    assert _files(root) == LAYOUTS[layout]
