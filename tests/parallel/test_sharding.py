"""Tests for the shard-aware registry and layout auto-detection."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.generator import GeneratorConfig
from repro.parallel.sharding import ShardOwnerMap, open_registry
from repro.service.registry import MARKER_NAME, StructureRegistry, advisory_lock
from tests.conftest import build_chain_circuit

SMOKE = GeneratorConfig.smoke(seed=7)


@pytest.fixture
def registry(tmp_path):
    return open_registry(tmp_path / "registry", sharded=True)


class TestSharding:
    def test_keys_land_in_prefix_shards(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        key = registry.key_for(circuit, SMOKE)
        shard_dir = registry.root / key[: registry.shard_chars]
        assert shard_dir.is_dir()
        assert (shard_dir / f"{key}.json").exists()
        assert registry.keys() == [key]
        assert len(registry) == 1

    def test_distinct_configs_distinct_slots(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        registry.get_or_generate(circuit, GeneratorConfig.smoke(seed=8))
        assert len(registry) == 2

    def test_fetch_generates_once_then_loads(self, registry):
        circuit = build_chain_circuit()
        _, generated = registry.fetch(circuit, SMOKE)
        assert generated
        _, generated = registry.fetch(circuit, SMOKE)
        assert not generated

    def test_cross_instance_visibility(self, registry):
        # A structure put by one instance is immediately fetchable by a
        # second instance sharing the root (the reload-under-lock path).
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        sibling = open_registry(registry.root, sharded=True)
        structure, generated = sibling.fetch(circuit, SMOKE)
        assert not generated
        assert structure.num_placements > 0
        assert sibling.contains(circuit, SMOKE)

    def test_marker_pins_shard_chars(self, tmp_path):
        root = tmp_path / "registry"
        open_registry(root, sharded=True, shard_chars=3)
        reopened = open_registry(root, sharded=True, shard_chars=1)
        assert reopened.shard_chars == 3
        with (root / MARKER_NAME).open() as handle:
            assert json.load(handle)["shard_chars"] == 3

    def test_entries_and_entry_lookup(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        key = registry.key_for(circuit, SMOKE)
        entries = registry.entries()
        assert [entry.key for entry in entries] == [key]
        assert registry.entry(key) == entries[0]
        assert registry.entry("0" * 33) is None

    def test_clear_empties_every_shard(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        registry.get_or_generate(build_chain_circuit(num_blocks=3, name="c3"), SMOKE)
        registry.clear()
        assert len(registry) == 0
        assert open_registry(registry.root, sharded=True).keys() == []

    def test_invalid_shard_chars_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_registry(tmp_path / "r", sharded=True, shard_chars=0)

    def test_unreadable_shard_index_raises_on_first_use(self, registry):
        circuit = build_chain_circuit()
        key = registry.key_for(circuit, SMOKE)
        shard_dir = registry.root / key[: registry.shard_chars]
        shard_dir.mkdir()
        (shard_dir / "index.json").write_text(
            json.dumps({"format_version": 99, "entries": []})
        )
        reopened = open_registry(registry.root)  # opening reads no shard index
        with pytest.raises(ValueError):
            reopened.fetch(circuit, SMOKE)


class TestStaleAggregates:
    """Regressions: aggregate views must see other writers' additions.

    ``fetch``/``contains`` always reloaded under lock, but ``__len__`` /
    ``keys()`` / ``entries()`` used to serve each shard's cached index —
    a second process's writes were invisible until this instance happened
    to touch the same shard through the fetch path.
    """

    def test_aggregates_see_sibling_writes_to_a_cached_shard(self, tmp_path):
        registry = open_registry(tmp_path / "registry", sharded=True, shard_chars=1)
        circuit = build_chain_circuit()
        # Two configs whose keys share a shard, found deterministically by
        # fingerprinting (keys are stable across runs).
        by_shard = {}
        for seed in range(64):
            config = GeneratorConfig.smoke(seed=seed)
            key = registry.key_for(circuit, config)
            by_shard.setdefault(key[:1], []).append((config, key))
            if len(by_shard[key[:1]]) == 2:
                (first, first_key), (second, second_key) = by_shard[key[:1]]
                break
        else:  # pragma: no cover - 64 keys over 16 shards always collide
            pytest.fail("no two configs shared a shard")
        registry.get_or_generate(circuit, first)
        assert len(registry) == 1  # the shard's index is now cached
        sibling = open_registry(registry.root, sharded=True, shard_chars=1)
        sibling.get_or_generate(circuit, second)
        assert len(registry) == 2
        assert set(registry.keys()) == {first_key, second_key}
        assert {entry.key for entry in registry.entries()} == {first_key, second_key}

    def test_aggregates_see_writes_from_another_process(self, tmp_path):
        root = tmp_path / "registry"
        registry = open_registry(root, sharded=True)
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, GeneratorConfig.smoke(seed=7))
        assert len(registry) == 1
        script = textwrap.dedent(
            f"""
            from repro.circuit.builder import CircuitBuilder
            from repro.circuit.devices import DeviceType
            from repro.core.generator import GeneratorConfig
            from repro.parallel.sharding import open_registry

            builder = CircuitBuilder("chain")
            for i in range(4):
                builder.block(f"m{{i}}", 4, 12, 4, 12, device_type=DeviceType.GENERIC)
            for i in range(3):
                builder.simple_net(f"n{{i}}", [f"m{{i}}", f"m{{i + 1}}"])
            registry = open_registry({str(root)!r}, sharded=True)
            registry.get_or_generate(builder.build(), GeneratorConfig.smoke(seed=8))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            cwd=os.getcwd(),
            env=env,
            timeout=120,
        )
        # The writer was a different process; this instance's aggregate
        # views must reflect its addition without an explicit reload.
        assert len(registry) == 2
        assert len(registry.keys()) == 2
        assert len(registry.entries()) == 2


class TestShardOwnerMap:
    def test_owner_assignment_is_deterministic_and_in_range(self):
        owners = ShardOwnerMap(workers=4)
        for prefix in ("00", "7f", "ff", "a3"):
            slot = owners.owner_for(prefix)
            assert 0 <= slot < 4
            assert owners.owner_for(prefix) == slot  # stable

    def test_hex_prefixes_spread_across_workers(self):
        owners = ShardOwnerMap(workers=4, shard_chars=2)
        slots = {owners.owner_for(f"{value:02x}") for value in range(256)}
        assert slots == {0, 1, 2, 3}

    def test_owner_for_key_uses_the_prefix(self):
        owners = ShardOwnerMap(workers=3, shard_chars=2)
        key = "ab" + "0" * 30
        assert owners.prefix_for(key) == "ab"
        assert owners.owner_for_key(key) == owners.owner_for("ab")

    def test_non_hex_prefix_falls_back_to_a_digest(self):
        owners = ShardOwnerMap(workers=5)
        slot = owners.owner_for("zz")
        assert 0 <= slot < 5
        assert owners.owner_for("zz") == slot

    def test_assignments_partition_keys_by_owner(self):
        owners = ShardOwnerMap(workers=2, shard_chars=1)
        keys = [f"{value:x}{'0' * 31}" for value in range(16)]
        assignments = owners.assignments(keys)
        assert sorted(key for keys in assignments.values() for key in keys) == sorted(
            keys
        )
        for slot, slot_keys in assignments.items():
            assert all(owners.owner_for_key(key) == slot for key in slot_keys)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardOwnerMap(workers=0)
        with pytest.raises(ValueError):
            ShardOwnerMap(workers=2, shard_chars=0)


class TestOpenRegistry:
    def test_fresh_root_defaults_to_flat(self, tmp_path):
        assert open_registry(tmp_path / "fresh").shard_chars is None

    def test_fresh_root_sharded_on_request(self, tmp_path):
        assert open_registry(tmp_path / "fresh", sharded=True).shard_chars == 2

    def test_existing_layouts_autodetected(self, tmp_path, generated_chain_structure):
        flat_root = tmp_path / "flat"
        StructureRegistry(flat_root).put(generated_chain_structure, SMOKE)
        sharded_root = tmp_path / "sharded"
        open_registry(sharded_root, sharded=True, shard_chars=3)
        assert open_registry(flat_root).shard_chars is None
        assert open_registry(sharded_root).shard_chars == 3

    def test_layout_conflicts_raise(self, tmp_path, generated_chain_structure):
        flat_root = tmp_path / "flat"
        StructureRegistry(flat_root).put(generated_chain_structure, SMOKE)
        with pytest.raises(ValueError):
            open_registry(flat_root, sharded=True)
        sharded_root = tmp_path / "sharded"
        open_registry(sharded_root, sharded=True)
        with pytest.raises(ValueError):
            open_registry(sharded_root, sharded=False)


class TestAdvisoryLock:
    def test_lock_creates_file_and_releases(self, tmp_path):
        lock_path = tmp_path / "locks" / "key.lock"
        with advisory_lock(lock_path):
            assert lock_path.exists()
        # Re-acquirable after release (same process).
        with advisory_lock(lock_path):
            pass

    def test_reap_temp_files_across_shards(self, registry):
        circuit = build_chain_circuit()
        registry.get_or_generate(circuit, SMOKE)
        key = registry.key_for(circuit, SMOKE)
        shard_dir = registry.root / key[: registry.shard_chars]
        stale = shard_dir / ".victim.json.abc.tmp"
        stale.write_text("{}")
        import os

        os.utime(stale, (0, 0))  # pretend the writer died long ago
        reaped = registry.reap_temp_files()
        assert stale in reaped
        assert not stale.exists()
