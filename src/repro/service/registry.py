"""On-disk structure library: the offline half of the service.

The registry owns a directory of serialized multi-placement structures plus
JSON indexes mapping registry keys
(:func:`repro.service.fingerprint.structure_key`) to the file holding each
structure.  Its central operation is ``fetch``: return the stored structure
for a (circuit, config) pair, generating and persisting it first if this is
the first time the topology is seen.

The root says which of two layouts it holds:

* **flat** — every structure file and one ``index.json`` in the root;
* **sharded** — a ``sharding.json`` marker in the root, and each key's
  structure file and index entry in ``root/<prefix>/``, where the prefix is
  the key's first ``shard_chars`` characters (persisted in the marker).
  Writers touching different shards never contend on one index.

Both layouts share one protocol, so any number of processes and threads
can share one root:

* **Exactly-once generation** — a ``fetch`` that misses takes a per-key
  advisory ``flock`` in ``root/.locks/``, re-reads the index, and generates
  only if the key is still absent; a hit takes no lock.  A ``put`` holds
  the same lock, so a structure put in place is never overwritten by a
  sibling's generation of its key.
* **No lost entries** — every index update re-reads, merges and rewrites
  its directory's ``index.json`` under that directory's ``flock``.
* **No torn files** — every write goes through a temp file and
  :func:`os.replace`.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple, Union

try:  # POSIX advisory locks; elsewhere concurrent writers are unguarded.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.circuit.netlist import Circuit
from repro.core.generator import GeneratorConfig, MultiPlacementGenerator
from repro.core.serialization import load_structure, save_structure, write_atomic
from repro.core.structure import MultiPlacementStructure
from repro.obs.spans import clock, is_enabled as _obs_enabled, metrics as _obs_metrics, span
from repro.service.fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    structure_key,
)
from repro.utils.logging_utils import get_logger

LOGGER = get_logger("service.registry")

INDEX_NAME = "index.json"
INDEX_FORMAT_VERSION = 1
MARKER_NAME = "sharding.json"
MARKER_FORMAT_VERSION = 1
LOCK_DIR_NAME = ".locks"

#: Temp files older than this are considered orphaned by a crashed writer.
STALE_TEMP_SECONDS = 60.0


@contextlib.contextmanager
def advisory_lock(path: Path) -> Iterator[None]:
    """Hold an exclusive advisory file lock on ``path`` for the block.

    The lock file is created if missing and never deleted (deleting a lock
    file while another process blocks on it reintroduces the race the lock
    exists to prevent).  Each call opens its own file description, so the
    lock also excludes other threads of this process.  On platforms
    without ``fcntl`` this is a no-op.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platforms
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = open(path, "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    finally:
        handle.close()


@dataclass(frozen=True)
class RegistryEntry:
    """One structure known to the registry."""

    key: str
    circuit_name: str
    circuit_fingerprint: str
    config_fingerprint: str
    #: File name of the serialized structure, relative to its index's directory.
    filename: str
    num_blocks: int
    num_placements: int

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form stored in the index file."""
        return {
            "key": self.key,
            "circuit_name": self.circuit_name,
            "circuit_fingerprint": self.circuit_fingerprint,
            "config_fingerprint": self.config_fingerprint,
            "filename": self.filename,
            "num_blocks": self.num_blocks,
            "num_placements": self.num_placements,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RegistryEntry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            key=str(data["key"]),
            circuit_name=str(data["circuit_name"]),
            circuit_fingerprint=str(data["circuit_fingerprint"]),
            config_fingerprint=str(data["config_fingerprint"]),
            filename=str(data["filename"]),
            num_blocks=int(data["num_blocks"]),
            num_placements=int(data["num_placements"]),
        )


class StructureRegistry:
    """A directory of serialized structures with ``get_or_generate`` semantics.

    Parameters
    ----------
    root:
        The registry directory.  Created (with parents) if it does not
        exist.  A root holding a sharding marker opens sharded with the
        persisted ``shard_chars``; any other root is flat.
    shard_chars:
        Makes a fresh root sharded, with this many leading key characters
        selecting a key's shard directory.  Ignored for a root that is
        already sharded; a flat root that already holds an index raises.
    """

    def __init__(
        self, root: Union[str, Path], shard_chars: Optional[int] = None
    ) -> None:
        if shard_chars is not None and shard_chars < 1:
            raise ValueError("shard_chars must be at least 1")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._shard_chars = self._read_marker()
        if self._shard_chars is None and shard_chars is not None:
            self._shard_chars = self._create_marker(shard_chars)
        #: Each index directory ("" for a flat root) -> its entries as last
        #: read.  A dict is replaced whole, never mutated, so readers need
        #: no lock.
        self._indexes: Dict[str, Dict[str, RegistryEntry]] = {}
        self.reap_temp_files()
        if self._shard_chars is None:
            self._read_index("")  # a flat root's index is checked on open

    @property
    def root(self) -> Path:
        """The registry directory."""
        return self._root

    @property
    def shard_chars(self) -> Optional[int]:
        """Leading key characters that select a shard; ``None`` for a flat root."""
        return self._shard_chars

    def __len__(self) -> int:
        return len(self.entries())

    def keys(self) -> List[str]:
        """All registry keys, re-read from disk, sorted."""
        return [entry.key for entry in self.entries()]

    def entries(self) -> List[RegistryEntry]:
        """All index entries, re-read from disk, sorted by key."""
        found: Dict[str, RegistryEntry] = {}
        for shard in self._shards():
            found.update(self._read_index(shard))
        return [found[key] for key in sorted(found)]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalize(config: Optional[GeneratorConfig]) -> GeneratorConfig:
        """``None`` means the default config — key and generate it as such."""
        return config if config is not None else GeneratorConfig()

    def key_for(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> str:
        """The registry key of ``circuit`` under ``config``.

        ``config=None`` and ``config=GeneratorConfig()`` are the same slot:
        both generate with the default configuration, so they must not
        occupy (and regenerate) two.
        """
        return structure_key(circuit, self._normalize(config))

    def entry(self, key: str) -> Optional[RegistryEntry]:
        """The index entry under ``key``, or ``None``.

        A key missing from this instance's view re-reads its index, so a
        structure another process indexed since is found.
        """
        shard = self._shard(key)
        entries = self._indexes.get(shard)
        if entries is None or key not in entries:
            entries = self._read_index(shard)
        return entries.get(key)

    def contains(self, circuit: Circuit, config: Optional[GeneratorConfig] = None) -> bool:
        """True when a structure for (``circuit``, ``config``) is registered."""
        return self.entry(self.key_for(circuit, config)) is not None

    def get(
        self, circuit: Circuit, config: Optional[GeneratorConfig] = None
    ) -> Optional[MultiPlacementStructure]:
        """Load the stored structure for (``circuit``, ``config``), or ``None``."""
        entry = self.entry(self.key_for(circuit, config))
        return None if entry is None else self._load(entry)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #
    def put(
        self,
        structure: MultiPlacementStructure,
        config: Optional[GeneratorConfig] = None,
    ) -> RegistryEntry:
        """Persist ``structure`` under its (circuit, config) key and index it.

        An existing structure under the same key is replaced atomically.
        The write holds the key's generation lock, so it never interleaves
        with another put of the key or with a ``fetch`` generating it.
        """
        key = self.key_for(structure.circuit, config)
        with self._key_lock(key):
            return self._store(key, structure, config)

    def _store(
        self,
        key: str,
        structure: MultiPlacementStructure,
        config: Optional[GeneratorConfig],
    ) -> RegistryEntry:
        """Save ``structure`` and index it; the caller holds ``key``'s lock."""
        circuit = structure.circuit
        entry = RegistryEntry(
            key=key,
            circuit_name=circuit.name,
            circuit_fingerprint=circuit_fingerprint(circuit),
            config_fingerprint=config_fingerprint(self._normalize(config)),
            filename=f"{key}.json",
            num_blocks=circuit.num_blocks,
            num_placements=structure.num_placements,
        )
        shard = self._shard(key)
        save_structure(structure, self._root / shard / entry.filename)
        with self._updating_index(shard) as entries:
            entries[key] = entry
        return entry

    def fetch(
        self,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> Tuple[MultiPlacementStructure, bool]:
        """``(structure, generated)``, generating **exactly once** across processes.

        ``generated`` is True when the structure was built by this call
        and False when it was served from disk.  A stored structure loads
        without a lock.  On a miss the caller takes the per-key advisory
        lock, re-reads the index (a sibling may have generated while it
        waited), and generates only if the key is still absent, so
        concurrent first-sight fetches serialize on the lock and every one
        after the first loads from disk.
        """
        key = self.key_for(circuit, config)
        with span("registry.fetch", circuit=circuit.name) as obs_span:
            entry = self.entry(key)
            if entry is None:
                lock_requested = clock()
                with self._key_lock(key):
                    if _obs_enabled():
                        # How long this process queued behind siblings for the
                        # per-key generation lock — the cross-process
                        # contention signal of the exactly-once path.
                        _obs_metrics().observe(
                            "registry.lock_wait_seconds", clock() - lock_requested
                        )
                    entry = self._read_index(self._shard(key)).get(key)
                    if entry is None:
                        LOGGER.info(
                            "registry miss for circuit %s (key %s); generating",
                            circuit.name,
                            key,
                        )
                        obs_span.set(hit=False)
                        with span("registry.generate", circuit=circuit.name):
                            structure = MultiPlacementGenerator(
                                circuit, self._normalize(config)
                            ).generate()
                        self._store(key, structure, config)
                        if _obs_enabled():
                            _obs_metrics().inc("registry.generations")
                        return structure, True
                obs_span.set(lock_waited=True)
            obs_span.set(hit=True)
            if _obs_enabled():
                _obs_metrics().inc("registry.loads")
            return self._load(entry), False

    def get_or_generate(
        self,
        circuit: Circuit,
        config: Optional[GeneratorConfig] = None,
    ) -> MultiPlacementStructure:
        """The stored structure for (``circuit``, ``config``), generating if absent."""
        structure, _ = self.fetch(circuit, config)
        return structure

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def reap_temp_files(self, max_age_seconds: float = STALE_TEMP_SECONDS) -> List[Path]:
        """Delete orphaned ``*.tmp`` files left by crashed writers.

        Atomic writes stage their payload in a ``.{name}.XXXX.tmp`` file
        before :func:`os.replace`; a writer killed between the two steps
        leaks the temp file forever.  Files younger than
        ``max_age_seconds`` are left alone — they may belong to a write in
        flight in another process.  Runs automatically on registry open
        over every index directory; returns the paths it removed.
        """
        reaped: List[Path] = []
        now = time.time()
        for shard in self._shards():
            try:
                candidates = list((self._root / shard).iterdir())
            except OSError:
                continue
            for path in candidates:
                if not (path.is_file() and path.suffix == ".tmp"):
                    continue
                try:
                    if now - path.stat().st_mtime < max_age_seconds:
                        continue
                    path.unlink()
                    reaped.append(path)
                except OSError:
                    continue  # a concurrent writer finished (or reaped) it first
        return reaped

    def clear(self) -> None:
        """Delete every registered structure file and empty every index."""
        for shard in self._shards():
            with self._updating_index(shard) as entries:
                for entry in entries.values():
                    try:
                        os.unlink(self._root / shard / entry.filename)
                    except OSError:
                        pass
                entries.clear()

    # ------------------------------------------------------------------ #
    # Layout
    # ------------------------------------------------------------------ #
    def _read_marker(self) -> Optional[int]:
        marker = self._root / MARKER_NAME
        if not marker.exists():
            return None
        with marker.open("r", encoding="utf-8") as handle:
            data = json.load(handle)
        version = data.get("format_version")
        if version != MARKER_FORMAT_VERSION:
            raise ValueError(f"unsupported sharding marker version {version!r}")
        return int(data["shard_chars"])

    def _create_marker(self, shard_chars: int) -> int:
        if (self._root / INDEX_NAME).exists():
            raise ValueError(f"registry at {self._root} is flat; cannot open sharded")
        # Under a lock, so two processes opening one fresh root agree on
        # shard_chars.
        with advisory_lock(self._root / LOCK_DIR_NAME / "marker.lock"):
            persisted = self._read_marker()
            if persisted is not None:
                return persisted
            write_atomic(
                self._root / MARKER_NAME,
                json.dumps(
                    {"format_version": MARKER_FORMAT_VERSION, "shard_chars": shard_chars}
                ),
            )
        return shard_chars

    def _key_lock(self, key: str) -> ContextManager[None]:
        """The advisory lock that serializes generating and writing ``key``."""
        return advisory_lock(self._root / LOCK_DIR_NAME / f"{key}.lock")

    def _shard(self, key: str) -> str:
        """The directory, relative to the root, that holds ``key``."""
        return key[: self._shard_chars] if self._shard_chars else ""

    def _shards(self) -> List[str]:
        """Every index directory present, relative to the root, sorted."""
        if not self._shard_chars:
            return [""]
        return sorted(
            path.name
            for path in self._root.iterdir()
            if path.is_dir() and path.name != LOCK_DIR_NAME
        )

    def _load(self, entry: RegistryEntry) -> MultiPlacementStructure:
        return load_structure(self._root / self._shard(entry.key) / entry.filename)

    # ------------------------------------------------------------------ #
    # Index I/O
    # ------------------------------------------------------------------ #
    def _read_index(self, shard: str) -> Dict[str, RegistryEntry]:
        """Re-read ``shard``'s index from disk into this instance's view."""
        path = self._root / shard / INDEX_NAME
        entries: Dict[str, RegistryEntry] = {}
        if path.exists():
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
            version = data.get("format_version")
            if version != INDEX_FORMAT_VERSION:
                raise ValueError(f"unsupported registry index version {version!r}")
            entries = {
                entry["key"]: RegistryEntry.from_dict(entry) for entry in data["entries"]
            }
        self._indexes[shard] = entries
        return entries

    @contextlib.contextmanager
    def _updating_index(self, shard: str) -> Iterator[Dict[str, RegistryEntry]]:
        """Yield ``shard``'s on-disk entries to change, then write them back.

        The read, the caller's change and the write all happen under the
        directory's index lock, so concurrent writers merge rather than
        overwrite each other's entries.
        """
        lock_name = f"index.{shard}.lock" if shard else "index.lock"
        with advisory_lock(self._root / LOCK_DIR_NAME / lock_name):
            entries = dict(self._read_index(shard))
            yield entries
            payload = json.dumps(
                {
                    "format_version": INDEX_FORMAT_VERSION,
                    "entries": [entries[key].to_dict() for key in sorted(entries)],
                },
                indent=2,
            )
            write_atomic(self._root / shard / INDEX_NAME, payload)
            self._indexes[shard] = entries

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StructureRegistry(root={str(self._root)!r}, "
            f"shard_chars={self._shard_chars})"
        )
