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
cache it leaves out of its own pickled state (the network's forwarding
view); this module does not know which classes those are.

The format is plain :mod:`pickle`, so the graph must hold only what
pickle carries: data, instances of importable classes, and functions and
bound methods that resolve *by reference* (module-level functions, methods,
:func:`functools.partial` over them).  A lambda or a local closure in the
graph is refused as a :class:`CheckpointError` at save time; the graph
keeps its callbacks picklable by reference instead.  The file header
records :data:`CHECKPOINT_SCHEMA_VERSION` and a payload digest, and
:func:`load_checkpoint` refuses mismatches rather than resuming silently
wrong.  Every failure on either side — unwritable path, truncated or
foreign header, corrupt payload — is a :class:`CheckpointError`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import struct
from pathlib import Path
from typing import Any

from repro.errors import SimulationError

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
#:   5 — plain pickle: the header drops the python tag, and functions go
#:       by reference only (no serialized code objects).
#:   6 — one relay: a Naive proxy's flows are ``RelayChain``s (the class
#:       ``NaiveRelayedFlow`` is gone), whose legs relay through
#:       ``partial(_relay_one, next_leg.sender)``.
#:   7 — one runner: the open-loop engine gains the job-list source and its
#:       per-job bookkeeping, indexes the whole sending fabric, and draws
#:       selection from ``orchestration:select``.
#:   8 — one observer slot: the simulator's ``instrumentation`` attribute
#:       (and the ``NULL_INSTRUMENTATION`` it pickled by name) is gone.
#:   9 — one streamlined proxy: the ``repro.proxy.trimless`` module is
#:       gone; a ``StreamlinedProxy`` pickles its ``detector`` and, when it
#:       has one, the learned sender ids, with the trackers in the detector
#:       alone.
#:  10 — no packet pool: the simulator pickles no pool, and a ``Packet``
#:       carries its wire fields only (its four pool-bookkeeping slots are
#:       gone).
#:  11 — one line config: an ``InterDcConfig`` pickles one latency per
#:       segment in ``segment_delays_ps``, in place of its router count and
#:       single backbone delay, and the separate multi-DC config is gone.
#:  12 — one event per hop: an ``OutputPort`` pickles ``_free_at``,
#:       ``_lost`` and ``_pool_ports`` in place of ``busy``,
#:       ``_serializing`` and the prebound ``_tx_cb``; a pending
#:       serialization end is no longer a calendar entry.
#:  13 — an idle port skips its queue: an ``OutputPort`` pickles
#:       ``_idle_pass``, and ``QueueStats`` no longer has ``dequeued``.
#:  14 — one port queue: every per-port queue is an ``EcnQueue`` that
#:       pickles its ``control_lane``/``trim`` switches, ``IDLE_PASS``,
#:       ``data_bytes`` and ``_data``/``_control`` lanes; ``DropTailQueue``,
#:       ``TrimmingQueue`` and ``HostQueue`` are gone.
CHECKPOINT_SCHEMA_VERSION = 14

_MAGIC = b"RPCKPT\x00"
#: magic and schema version; the payload's sha256 follows, then the payload.
_HEADER_FIXED = struct.Struct(f"<{len(_MAGIC)}sI")
_DIGEST_BYTES = hashlib.sha256().digest_size


class CheckpointError(SimulationError):
    """A checkpoint could not be written, read, or safely restored."""


def dumps(payload: Any) -> bytes:
    """Serialize an object graph (plain pickle, highest protocol)."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps`."""
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
    except Exception as exc:
        raise CheckpointError(f"checkpoint payload is not serializable: {exc!r}") from exc
    digest = hashlib.sha256(body).digest()
    header = _HEADER_FIXED.pack(_MAGIC, CHECKPOINT_SCHEMA_VERSION) + digest
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
    _magic, version = _HEADER_FIXED.unpack_from(blob)
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint schema {version} != supported {CHECKPOINT_SCHEMA_VERSION}"
        )
    offset = _HEADER_FIXED.size
    if len(blob) < offset + _DIGEST_BYTES:
        raise CheckpointError(truncated)
    digest = blob[offset:offset + _DIGEST_BYTES]
    body = blob[offset + _DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"checkpoint {path} is corrupt (digest mismatch)")
    try:
        return loads(body)
    except Exception as exc:
        raise CheckpointError(f"cannot restore checkpoint {path}: {exc!r}") from exc
