"""Simulator state checkpoint/restore.

A long-horizon run (minutes of simulated time, hours of wall-clock) must
survive preemption the way the sweep service's grids already do: SIGKILL
at any point, restart, and finish with a digest bit-identical to the
uninterrupted run.  The unit of durability here is the whole simulation
object graph — scheduler entries, the packets in flight, per-flow
transport state, hosts, proxies, the RNG substreams seeded so far, and
whatever fold state the caller nests alongside them — captured *between*
``run()`` segments, when the simulator is quiescent and pause/resume is
already exactly equivalent to one long run.  What a class holds only as a
cache it leaves out of its own pickled state (the packet pool's free list);
this module does not know which classes those are.

Why not plain :mod:`pickle`?  The graph holds a handful of closures and
lambdas (completion callbacks, orchestration policies, probe bodies) that
pickle rejects.  :class:`_CheckpointPickler` extends it: module-level
functions still go by reference, and everything else — lambdas, local
functions, bound closures — is serialized structurally via
:mod:`marshal` (code object) plus its cell contents, which flow through
the regular pickle memo so objects shared between a closure and the rest
of the graph restore as one object, not copies.

Restore runs the same interpreter and library version that saved; the
file header records :data:`CHECKPOINT_SCHEMA_VERSION`, the Python
version, and a payload digest, and :func:`load_checkpoint` refuses
mismatches rather than resuming silently wrong.  Every failure on either
side — unwritable path, truncated or foreign header, corrupt payload —
is a :class:`CheckpointError`.

Known limitation: a closure cell that is *rebound* (``nonlocal x; x = …``)
after a checkpoint restores with its saved contents but loses cell
identity-sharing with other closures over the same variable.  The
simulation graph mutates shared containers instead of rebinding cells
(the lint rules push that way), so this does not arise in practice.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import marshal
import os
import pickle
import struct
import sys
import types
from pathlib import Path
from typing import Any

from repro.errors import SimulationError
from repro.telemetry.instrumentation import NULL_INSTRUMENTATION

#: Bump when the checkpoint file layout or pickling strategy changes in a
#: way that old files must not be restored into new code.
#:
#:   1 — initial format: magic + version + python tag + sha256 + payload.
#:   2 — seq-free scheduler: calendar entries are ``(time, payload)``, the
#:       scheduler keeps no sequence or pending counter, and an Event holds
#:       no link back to its scheduler.
#:   3 — one dispatch loop: the scheduler keeps no per-tick batch list
#:       and gains ``_hooked``, the end of the block of the current bucket
#:       already handed to the tie-break hook; a receiver's held delayed-ACK
#:       tail and mark are ``_ack_tail`` and ``_ack_marked``.
#:   4 — one probe slot: the simulator's trace-sink attribute and its
#:       ``sanitizer`` slot become ``probe``.
CHECKPOINT_SCHEMA_VERSION = 4

_MAGIC = b"RPCKPT\x00"
#: magic, schema version, length of the python tag; the tag and the payload's
#: sha256 follow, then the payload.
_HEADER_FIXED = struct.Struct(f"<{len(_MAGIC)}sIH")
_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or safely restored."""


def _python_tag() -> str:
    """Interpreter fingerprint; marshal'd code objects are version-locked."""
    return f"cpython-{sys.version_info.major}.{sys.version_info.minor}"


def _null_instrumentation() -> Any:
    """Restore hook: the no-op instrumentation singleton, by reference."""
    return NULL_INSTRUMENTATION


def _rebuild_function(
    code_bytes: bytes,
    module: str,
    name: str,
    qualname: str,
    defaults: tuple[Any, ...] | None,
    kwdefaults: dict[str, Any] | None,
    cells: tuple[Any, ...] | None,
) -> types.FunctionType:
    """Reconstruct a marshal-serialized function (lambda/local closure)."""
    code = marshal.loads(code_bytes)
    mod = sys.modules.get(module)
    if mod is None:
        mod = importlib.import_module(module)
    closure = None
    if cells is not None:
        closure = tuple(types.CellType(value) for value in cells)
    fn = types.FunctionType(code, mod.__dict__, name, defaults, closure)
    fn.__qualname__ = qualname
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    return fn


def _resolves_by_reference(fn: types.FunctionType) -> bool:
    """True when default pickle-by-qualname would find this exact object."""
    module = sys.modules.get(fn.__module__)
    if module is None:
        return False
    obj: Any = module
    for part in fn.__qualname__.split("."):
        if part == "<locals>":
            return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


class _CheckpointPickler(pickle.Pickler):
    """Pickler that additionally serializes closures and lambdas."""

    def reducer_override(self, obj: Any) -> Any:  # noqa: D102 - pickle hook
        if obj is NULL_INSTRUMENTATION:
            return (_null_instrumentation, ())
        if isinstance(obj, types.FunctionType):
            if _resolves_by_reference(obj):
                return NotImplemented  # plain by-reference pickling
            try:
                code_bytes = marshal.dumps(obj.__code__)
            except ValueError as exc:  # pragma: no cover - exotic code objects
                raise CheckpointError(
                    f"cannot serialize function {obj.__qualname__!r}: {exc}"
                ) from exc
            cells: tuple[Any, ...] | None = None
            if obj.__closure__ is not None:
                cells = tuple(cell.cell_contents for cell in obj.__closure__)
            return (
                _rebuild_function,
                (
                    code_bytes,
                    obj.__module__,
                    obj.__name__,
                    obj.__qualname__,
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    cells,
                ),
            )
        return NotImplemented


def dumps(payload: Any) -> bytes:
    """Serialize an object graph with closure support."""
    buffer = io.BytesIO()
    _CheckpointPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps` (plain unpickling; rebuilders are importable)."""
    return pickle.loads(blob)


def save_checkpoint(path: str | Path, payload: Any) -> Path:
    """Atomically write ``payload`` as a versioned checkpoint file.

    The caller is responsible for quiescence: checkpoint between
    ``Simulator.run`` segments, never from inside an event callback (the
    engine enforces this).  Objects holding OS resources — open files,
    sockets, a probe writing to either — are not checkpointable and
    surface here as :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        body = dumps(payload)
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload is not serializable: {exc!r}") from exc
    tag = _python_tag().encode()
    digest = hashlib.sha256(body).digest()
    header = _HEADER_FIXED.pack(_MAGIC, CHECKPOINT_SCHEMA_VERSION, len(tag)) + tag + digest
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("wb") as fh:
            fh.write(header)
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        # No litter beside the last good file, which is untouched: it is only
        # ever replaced by a fully synced successor.
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return path


def load_checkpoint(path: str | Path) -> Any:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint")
    truncated = f"checkpoint {path} is truncated (incomplete header)"
    if len(blob) < _HEADER_FIXED.size:
        raise CheckpointError(truncated)
    _magic, version, tag_len = _HEADER_FIXED.unpack_from(blob)
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {version} != supported {CHECKPOINT_SCHEMA_VERSION}"
        )
    offset = _HEADER_FIXED.size + tag_len
    if len(blob) < offset + _DIGEST_BYTES:
        raise CheckpointError(truncated)
    try:
        tag = blob[_HEADER_FIXED.size:offset].decode()
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} has an undecodable python tag") from exc
    if tag != _python_tag():
        raise CheckpointError(
            f"checkpoint written by {tag}, running {_python_tag()}: "
            "marshal'd code objects are not portable across interpreter versions"
        )
    digest = blob[offset:offset + _DIGEST_BYTES]
    body = blob[offset + _DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"checkpoint {path} is corrupt (digest mismatch)")
    try:
        return loads(body)
    except Exception as exc:
        raise CheckpointError(f"cannot restore checkpoint {path}: {exc!r}") from exc
