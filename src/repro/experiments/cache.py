"""On-disk result cache for experiment sweeps.

Every sweep point is keyed by a content hash of its *spec* — sweep
name, algorithm, (N, P, seed), adversary factory, tick budget, fairness
window — and its :class:`~repro.experiments.runner.RunPoint` is stored
as one small JSON file under that key.  The cache therefore doubles as
the sweep's checkpoint: re-running an interrupted sweep skips every key
already on disk and executes only the missing points.

Layout (one directory per sweep, sanitized)::

    <root>/
      <sweep-name>/
        checkpoint.json          # progress manifest (informational,
                                 # written once per sweep per run)
        <sha256-of-point-spec>.json

Entries are written atomically (temp file + ``os.replace``) so a kill
mid-write never leaves a half entry under the final name.  Every entry
(and the checkpoint) carries a content checksum: corruption that still
parses as JSON — a flipped bit in a stored measure — is detected on
read just like truncation, logged, discarded, and self-healed by
recompute instead of silently loaded.  ``corrupt_discarded`` counts
those discards so the engine can surface them in its stats.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pathlib
import re
import tempfile
import time
from typing import Any, Dict, Optional

from repro.experiments.runner import RunPoint

_LOG = logging.getLogger(__name__)

#: Bump when the *key* material (fingerprint scheme) changes: old
#: entries then miss instead of deserializing garbage.
CACHE_VERSION = 1

#: Entry-body schema.  Schema 2 added the content ``checksum``; schema 1
#: entries (pre-checksum) are still accepted — the migration shim below —
#: so existing caches are not invalidated wholesale.
ENTRY_SCHEMA = 2


def fingerprint(obj: Any) -> str:
    """A stable, process-independent description of a spec component.

    Used to build cache keys, so it must not involve ``id()``/``repr``
    of bare instances (memory addresses) and must recurse through the
    factory combinators.  Precedence:

    * ``None`` and scalars — literal;
    * an object with a ``fingerprint()`` method — delegated;
    * ``functools.partial`` — the wrapped callable plus bound args;
    * a dataclass *instance* — qualified name plus every field;
    * a class or function — its qualified name;
    * anything else — qualified class name plus sorted ``__dict__``.
    """
    if obj is None:
        return "none"
    if isinstance(obj, (bool, int, float, str)):
        return repr(obj)
    if isinstance(obj, (tuple, list)):
        inner = ",".join(fingerprint(item) for item in obj)
        return f"[{inner}]"
    if hasattr(obj, "fingerprint") and callable(obj.fingerprint):
        return str(obj.fingerprint())
    if isinstance(obj, functools.partial):
        keywords = ",".join(
            f"{key}={fingerprint(value)}"
            for key, value in sorted(obj.keywords.items())
        )
        args = ",".join(fingerprint(value) for value in obj.args)
        return f"partial({fingerprint(obj.func)};{args};{keywords})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{field.name}={fingerprint(getattr(obj, field.name))}"
            for field in dataclasses.fields(obj)
        )
        return f"{_qualname(type(obj))}({fields})"
    if isinstance(obj, type) or callable(obj):
        return _qualname(obj)
    state = ",".join(
        f"{key}={fingerprint(value)}"
        for key, value in sorted(vars(obj).items())
    )
    return f"{_qualname(type(obj))}({state})"


def _qualname(obj: Any) -> str:
    module = getattr(obj, "__module__", type(obj).__module__)
    name = getattr(obj, "__qualname__", type(obj).__qualname__)
    return f"{module}.{name}"


def point_key(
    sweep: str,
    algorithm: Any,
    n: int,
    p: int,
    seed: int,
    adversary: Any,
    max_ticks: Optional[int],
    fairness_window: Optional[int],
    lane: str = "fast",
    runner: Any = None,
) -> str:
    """The content hash identifying one sweep point's spec."""
    material = "|".join([
        f"v{CACHE_VERSION}",
        sweep,
        fingerprint(algorithm),
        str(n), str(p), str(seed),
        fingerprint(adversary),
        str(max_ticks), str(fairness_window),
    ])
    if lane != "fast":
        # Every lane is model-invisible (the differential suite holds
        # them identical), but keying the lane keeps any divergence
        # investigable.  Appended only off the default lane so default
        # entries keep their keys.
        material += f"|lane-{lane}"
    if runner is not None:
        # A custom point runner changes what a point *measures* (e.g.
        # the persistent-memory checkpoint sweep), so it is key
        # material; appended only when set so default sweeps keep their
        # pre-existing keys.
        material += f"|runner={fingerprint(runner)}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("._") or "sweep"
    return cleaned[:80]


def entry_checksum(key: str, point: Dict[str, Any]) -> str:
    """Content checksum binding a point payload to its key.

    Computed over the canonical JSON of the point dict, so any mutation
    of a stored measure — even one that still parses — fails the check.
    """
    material = key + "|" + json.dumps(
        point, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed store of completed :class:`RunPoint` s."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)
        #: Corrupt (present-but-invalid) entries discarded by this
        #: instance; the engine diffs it to report corruption in stats.
        self.corrupt_discarded = 0

    def _sweep_dir(self, sweep: str) -> pathlib.Path:
        return self.root / _sanitize(sweep)

    def entry_path(self, sweep: str, key: str) -> pathlib.Path:
        """Where ``key``'s entry lives (whether or not it exists yet)."""
        return self._sweep_dir(sweep) / f"{key}.json"

    def load(self, sweep: str, key: str) -> Optional[RunPoint]:
        """The cached point for ``key``, or ``None``.

        A missing entry and a corrupted one are the same thing to the
        caller — the point just recomputes.  Corrupted files are
        logged, counted, and deleted so they cannot shadow a later good
        write.  Schema-1 entries (written before checksums existed) are
        still accepted; schema-2 entries must pass their checksum.
        """
        path = self.entry_path(sweep, key)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._discard(path, f"unreadable entry ({exc})")
            return None
        try:
            if payload["version"] != CACHE_VERSION or payload["key"] != key:
                raise ValueError("stale or mismatched entry")
            if payload.get("schema", 1) >= 2:
                stored = payload.get("checksum")
                if stored != entry_checksum(key, payload["point"]):
                    raise ValueError("checksum mismatch")
            return RunPoint.from_dict(payload["point"])
        except (KeyError, TypeError, ValueError) as exc:
            self._discard(path, str(exc))
            return None

    def store(self, sweep: str, key: str, point: RunPoint,
              elapsed: float) -> None:
        directory = self._sweep_dir(sweep)
        directory.mkdir(parents=True, exist_ok=True)
        point_dict = point.to_dict()
        payload = {
            "version": CACHE_VERSION,
            "schema": ENTRY_SCHEMA,
            "key": key,
            "point": point_dict,
            "elapsed_s": elapsed,
            "checksum": entry_checksum(key, point_dict),
        }
        _atomic_write_json(self.entry_path(sweep, key), payload)

    def write_checkpoint(self, sweep: str, done: int, total: int) -> None:
        """Progress manifest — informational; the entries are the truth.

        The engine writes it once per sweep, when the run ends; a run
        killed mid-sweep leaves the previous run's manifest (or none).
        """
        directory = self._sweep_dir(sweep)
        directory.mkdir(parents=True, exist_ok=True)
        body = {
            "version": CACHE_VERSION,
            "schema": ENTRY_SCHEMA,
            "sweep": sweep,
            "done": done,
            "total": total,
            "updated_unix": time.time(),
        }
        body["checksum"] = hashlib.sha256(
            json.dumps(body, sort_keys=True,
                       separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        _atomic_write_json(directory / "checkpoint.json", body)

    def read_checkpoint(self, sweep: str) -> Optional[Dict[str, Any]]:
        """The progress manifest, or ``None`` when missing or corrupt.

        Pre-checksum (schema-1) checkpoints are accepted as-is; a
        schema-2 checkpoint failing its checksum is treated as corrupt.
        The entries are still the truth either way — a bad checkpoint
        costs nothing but the progress readout.
        """
        path = self._sweep_dir(sweep) / "checkpoint.json"
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("schema", 1) >= 2:
            stored = payload.get("checksum")
            body = {k: v for k, v in payload.items() if k != "checksum"}
            expected = hashlib.sha256(
                json.dumps(body, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
            ).hexdigest()
            if stored != expected:
                self.corrupt_discarded += 1
                _LOG.warning(
                    "discarding corrupt checkpoint %s: checksum mismatch",
                    path,
                )
                return None
        return payload

    def _discard(self, path: pathlib.Path, reason: str) -> None:
        self.corrupt_discarded += 1
        _LOG.warning("discarding corrupt cache entry %s: %s", path, reason)
        try:
            path.unlink()
        except OSError:
            pass


def _atomic_write_json(path: pathlib.Path, payload: Dict[str, Any]) -> None:
    descriptor, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            json.dump(payload, handle)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
