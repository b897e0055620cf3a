"""Tests for the on-disk structure registry."""

import json
import threading

import pytest

from repro.core.generator import GeneratorConfig
from repro.parallel.sharding import open_registry
from repro.service.registry import (
    INDEX_NAME,
    LOCK_DIR_NAME,
    StructureRegistry,
    advisory_lock,
)
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)


@pytest.fixture
def registry(tmp_path):
    return StructureRegistry(tmp_path / "registry")


class TestGetOrGenerate:
    def test_generates_on_first_sight_then_loads(self, registry):
        circuit = build_chain_circuit()
        assert not registry.contains(circuit, SMOKE)
        first, generated = registry.fetch(circuit, SMOKE)
        assert generated
        assert registry.contains(circuit, SMOKE)
        second, generated = registry.fetch(circuit, SMOKE)
        assert not generated
        assert second.num_placements == first.num_placements
        assert second.fallback_anchors == first.fallback_anchors

    def test_fetch_reports_the_outcome(self, registry):
        circuit = build_chain_circuit()
        _, generated = registry.fetch(circuit, SMOKE)
        assert generated
        _, generated = registry.fetch(circuit, SMOKE)
        assert not generated

    def test_configs_occupy_separate_slots(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        registry.get_or_generate(circuit, GeneratorConfig.smoke(seed=8))
        assert len(registry) == 2

    def test_none_and_default_config_share_a_slot(self, registry):
        circuit = build_chain_circuit()
        assert registry.key_for(circuit, None) == registry.key_for(circuit, GeneratorConfig())

    def test_persists_across_instances(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        reopened = StructureRegistry(registry.root)
        assert len(reopened) == 1
        assert reopened.contains(circuit, SMOKE)
        loaded, generated = reopened.fetch(circuit, SMOKE)
        assert not generated
        assert loaded.num_placements > 0


class TestPutGet:
    def test_get_returns_none_when_absent(self, registry):
        assert registry.get(build_chain_circuit(), SMOKE) is None

    def test_put_indexes_and_saves(self, registry, generated_chain_structure):
        entry = registry.put(generated_chain_structure, SMOKE)
        assert (registry.root / entry.filename).exists()
        assert entry.num_placements == generated_chain_structure.num_placements
        assert entry.num_blocks == generated_chain_structure.circuit.num_blocks
        assert registry.keys() == [entry.key]
        assert registry.entry(entry.key) == entry
        loaded = registry.get(generated_chain_structure.circuit, SMOKE)
        assert loaded.num_placements == generated_chain_structure.num_placements

    def test_put_replaces_existing_slot(self, registry, generated_chain_structure):
        registry.put(generated_chain_structure, SMOKE)
        registry.put(generated_chain_structure, SMOKE)
        assert len(registry) == 1

    def test_clear_removes_files_and_entries(self, registry, generated_chain_structure):
        entry = registry.put(generated_chain_structure, SMOKE)
        registry.clear()
        assert len(registry) == 0
        assert not (registry.root / entry.filename).exists()
        assert StructureRegistry(registry.root).keys() == []


class TestDurability:
    def test_no_temp_files_left_behind(self, registry, generated_chain_structure):
        registry.put(generated_chain_structure, SMOKE)
        leftovers = [p for p in registry.root.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_index_is_valid_json_after_every_write(self, registry, generated_chain_structure):
        registry.put(generated_chain_structure, SMOKE)
        with (registry.root / INDEX_NAME).open() as handle:
            data = json.load(handle)
        assert data["format_version"] == 1
        assert len(data["entries"]) == 1

    def test_concurrent_writers_do_not_lose_entries(self, registry, generated_chain_structure):
        # Two registry instances share one directory; each indexes its own
        # structure without having seen the other's write.
        other = StructureRegistry(registry.root)
        registry.put(generated_chain_structure, SMOKE)
        other.put(generated_chain_structure, GeneratorConfig.smoke(seed=99))
        reopened = StructureRegistry(registry.root)
        assert len(reopened) == 2

    def test_put_waits_for_the_key_generation_lock(
        self, registry, generated_chain_structure
    ):
        # A fetch generating the key holds this lock; a put that ran inside
        # it could be overwritten by that generation, or interleave its
        # file and index entry with it.
        circuit = generated_chain_structure.circuit
        key = registry.key_for(circuit, SMOKE)
        put = threading.Thread(
            target=registry.put, args=(generated_chain_structure, SMOKE)
        )
        with advisory_lock(registry.root / LOCK_DIR_NAME / f"{key}.lock"):
            put.start()
            put.join(timeout=0.5)
            assert put.is_alive()
            assert not registry.contains(circuit, SMOKE)
        put.join(timeout=30)
        assert not put.is_alive()
        assert registry.contains(circuit, SMOKE)

    def test_unsupported_index_version_rejected(self, tmp_path):
        root = tmp_path / "registry"
        root.mkdir()
        (root / INDEX_NAME).write_text(json.dumps({"format_version": 99, "entries": []}))
        with pytest.raises(ValueError):
            StructureRegistry(root)

    def test_reload_picks_up_sibling_writes(self, registry, generated_chain_structure):
        sibling = StructureRegistry(registry.root)
        entry = sibling.put(generated_chain_structure, SMOKE)
        # The first instance read the index before the sibling's write, and
        # sees it without an explicit reload.
        circuit = generated_chain_structure.circuit
        assert len(registry) == 1
        assert registry.keys() == [entry.key]
        assert registry.contains(circuit, SMOKE)
        assert registry.get(circuit, SMOKE).num_placements == entry.num_placements


class TestLayoutFromRoot:
    def test_sharded_root_opens_sharded(self, tmp_path):
        root = tmp_path / "registry"
        circuit = build_chain_circuit()
        open_registry(root, sharded=True).get_or_generate(circuit, SMOKE)
        registry = StructureRegistry(root)
        assert registry.shard_chars == 2
        structure, generated = registry.fetch(circuit, SMOKE)
        assert not generated
        assert structure.num_placements > 0
        assert not (root / INDEX_NAME).exists()


class TestTempFileReaping:
    """A writer killed between mkstemp and os.replace leaks a ``*.tmp`` file."""

    def test_stale_temp_files_reaped_on_open(self, tmp_path):
        import os

        root = tmp_path / "registry"
        root.mkdir()
        stale = root / ".victim.json.abc123.tmp"
        stale.write_text('{"partial": ')
        os.utime(stale, (0, 0))  # crashed long ago
        registry = StructureRegistry(root)
        assert not stale.exists()
        assert len(registry) == 0  # and it never shows up as an entry

    def test_fresh_temp_files_survive(self, tmp_path):
        # A young temp file may belong to a write in flight in another
        # process; reaping it would break that writer's os.replace.
        root = tmp_path / "registry"
        root.mkdir()
        fresh = root / ".victim.json.def456.tmp"
        fresh.write_text('{"partial": ')
        StructureRegistry(root)
        assert fresh.exists()

    def test_explicit_reap_with_zero_age(self, tmp_path):
        root = tmp_path / "registry"
        registry = StructureRegistry(root)
        fresh = root / ".victim.json.xyz.tmp"
        fresh.write_text('{"partial": ')
        reaped = registry.reap_temp_files(max_age_seconds=0.0)
        assert fresh in reaped
        assert not fresh.exists()

    def test_interrupted_save_structure_cleans_up(self, tmp_path, generated_chain_structure, monkeypatch):
        # Force the final rename to fail: the temp file must not survive.
        from repro.core import serialization

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(serialization.os, "replace", boom)
        target = tmp_path / "structure.json"
        with pytest.raises(OSError):
            serialization.save_structure(generated_chain_structure, target)
        monkeypatch.undo()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert not target.exists()
