"""Persist generated multi-placement structures.

The whole point of a multi-placement structure is that it is generated once
per topology and reused across synthesis runs; JSON (de)serialization makes
that reuse possible across processes.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Union

from repro.api.placement import Placement
from repro.circuit.block import Block
from repro.circuit.devices import DeviceType
from repro.circuit.net import Net, Terminal
from repro.circuit.netlist import Circuit
from repro.circuit.pin import Pin
from repro.circuit.symmetry import SymmetryGroup
from repro.core.placement_entry import DimensionRange
from repro.core.structure import MultiPlacementStructure
from repro.cost.cost_function import CostBreakdown
from repro.geometry.floorplan import FloorplanBounds
from repro.geometry.rect import Rect

FORMAT_VERSION = 1


# --------------------------------------------------------------------------- #
# Circuit <-> dict
# --------------------------------------------------------------------------- #
def circuit_to_dict(circuit: Circuit) -> Dict[str, Any]:
    """Plain-data form of a circuit."""
    return {
        "name": circuit.name,
        "blocks": [
            {
                "name": block.name,
                "min_w": block.min_w,
                "max_w": block.max_w,
                "min_h": block.min_h,
                "max_h": block.max_h,
                "device_type": block.device_type.value,
                "generator": block.generator,
                "symmetry_group": block.symmetry_group,
                "pins": {pin.name: [pin.fx, pin.fy] for pin in block.pins.values()},
            }
            for block in circuit.blocks
        ],
        "nets": [
            {
                "name": net.name,
                "terminals": [[t.block, t.pin] for t in net.terminals],
                "weight": net.weight,
                "external": net.external,
                "io_position": list(net.io_position),
            }
            for net in circuit.nets
        ],
        "symmetry_groups": [
            {
                "name": group.name,
                "pairs": [list(pair) for pair in group.pairs],
                "self_symmetric": list(group.self_symmetric),
            }
            for group in circuit.symmetry_groups
        ],
    }


def circuit_from_dict(data: Dict[str, Any]) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output."""
    circuit = Circuit(data["name"])
    for block_data in data["blocks"]:
        pins = {
            name: Pin(name, fx, fy)
            for name, (fx, fy) in block_data.get("pins", {}).items()
        }
        circuit.add_block(
            Block(
                name=block_data["name"],
                min_w=block_data["min_w"],
                max_w=block_data["max_w"],
                min_h=block_data["min_h"],
                max_h=block_data["max_h"],
                device_type=DeviceType(block_data.get("device_type", "generic")),
                generator=block_data.get("generator"),
                symmetry_group=block_data.get("symmetry_group"),
                pins=pins,
            )
        )
    for net_data in data["nets"]:
        circuit.add_net(
            Net(
                name=net_data["name"],
                terminals=tuple(Terminal(block, pin) for block, pin in net_data["terminals"]),
                weight=net_data.get("weight", 1.0),
                external=net_data.get("external", False),
                io_position=tuple(net_data.get("io_position", (0.0, 0.5))),
            )
        )
    for group_data in data.get("symmetry_groups", []):
        circuit.add_symmetry_group(
            SymmetryGroup(
                group_data["name"],
                tuple(tuple(pair) for pair in group_data.get("pairs", [])),
                tuple(group_data.get("self_symmetric", [])),
            )
        )
    return circuit


# --------------------------------------------------------------------------- #
# Structure <-> dict
# --------------------------------------------------------------------------- #
def structure_to_dict(structure: MultiPlacementStructure) -> Dict[str, Any]:
    """Plain-data form of a structure (circuit, bounds, placements, fallback)."""
    return {
        "format_version": FORMAT_VERSION,
        "circuit": circuit_to_dict(structure.circuit),
        "bounds": {"width": structure.bounds.width, "height": structure.bounds.height},
        "fallback_anchors": (
            [list(anchor) for anchor in structure.fallback_anchors]
            if structure.fallback_anchors is not None
            else None
        ),
        "placements": [
            {
                "index": placement.index,
                "anchors": [list(anchor) for anchor in placement.anchors],
                "ranges": [list(r.as_tuple()) for r in placement.ranges],
                "average_cost": placement.average_cost,
                "best_cost": placement.best_cost,
                "best_dims": [list(d) for d in placement.best_dims],
            }
            for placement in structure
        ],
    }


def structure_from_dict(data: Dict[str, Any]) -> MultiPlacementStructure:
    """Rebuild a structure from :func:`structure_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported structure format version {version!r}")
    circuit = circuit_from_dict(data["circuit"])
    bounds = FloorplanBounds(data["bounds"]["width"], data["bounds"]["height"])
    structure = MultiPlacementStructure(circuit, bounds)
    if data.get("fallback_anchors") is not None:
        structure.set_fallback([tuple(anchor) for anchor in data["fallback_anchors"]])
    for placement_data in data["placements"]:
        structure.add_placement(
            anchors=[tuple(anchor) for anchor in placement_data["anchors"]],
            ranges=[DimensionRange.from_tuple(r) for r in placement_data["ranges"]],
            average_cost=placement_data["average_cost"],
            best_cost=placement_data["best_cost"],
            best_dims=[tuple(d) for d in placement_data.get("best_dims", [])],
            index=placement_data["index"],
        )
    return structure


# --------------------------------------------------------------------------- #
# Placement <-> dict
# --------------------------------------------------------------------------- #
def placement_to_dict(placement: Placement) -> Dict[str, Any]:
    """Lossless plain-data form of a :class:`~repro.api.Placement`.

    Unlike :meth:`Placement.as_dict` (a report format that drops the cost
    breakdown and the dimension vector), this form round-trips through
    :func:`placement_from_dict` exactly — it is the wire format placements
    travel in between parallel workers and golden-fixture files.
    """
    return {
        "placer": placement.placer,
        "source": placement.source,
        "elapsed_seconds": placement.elapsed_seconds,
        "rects": {
            name: [rect.x, rect.y, rect.w, rect.h]
            for name, rect in placement.rects.items()
        },
        "cost": placement.cost.as_dict(),
        "metadata": {
            key: ([list(d) for d in value] if key == "dims" else value)  # type: ignore[union-attr]
            for key, value in placement.metadata.items()
        },
    }


def placement_from_dict(data: Dict[str, Any]) -> Placement:
    """Rebuild a placement from :func:`placement_to_dict` output.

    ``metadata["dims"]`` is restored to its tuple-of-tuples form; every
    other metadata value must be JSON-native (which is all the built-in
    engines store there).
    """
    metadata = {
        key: (
            tuple((int(w), int(h)) for w, h in value) if key == "dims" else value
        )
        for key, value in data.get("metadata", {}).items()
    }
    return Placement(
        rects={
            name: Rect(int(x), int(y), int(w), int(h))
            for name, (x, y, w, h) in data["rects"].items()
        },
        cost=CostBreakdown(**{str(k): float(v) for k, v in data["cost"].items()}),
        placer=data["placer"],
        source=data.get("source", ""),
        elapsed_seconds=data.get("elapsed_seconds", 0.0),
        metadata=metadata,
    )


# --------------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------------- #
def save_structure(structure: MultiPlacementStructure, path: Union[str, Path]) -> Path:
    """Write a structure to ``path`` as JSON and return the path.

    The write is atomic: the JSON goes to a temporary file in the same
    directory which is then moved over ``path`` with :func:`os.replace`, so
    a crashed or concurrent writer can never leave a truncated structure
    behind — readers see either the old file or the new one.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(structure_to_dict(structure), indent=2))
    return path


def write_atomic(path: Path, payload: str) -> None:
    """Write ``payload`` to ``path`` through a temp file and :func:`os.replace`.

    The temp file is ``.{name}.XXXX.tmp`` in the same directory, removed
    again if the write fails; a writer killed between the two steps leaves
    it behind for :meth:`~repro.service.registry.StructureRegistry.reap_temp_files`.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_structure(path: Union[str, Path]) -> MultiPlacementStructure:
    """Load a structure previously written by :func:`save_structure`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        data = json.load(handle)
    return structure_from_dict(data)
