"""The basic incast job description and its fixed-shape generators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError


@dataclass(frozen=True)
class IncastJob:
    """One many-to-one transfer: ``sender_indices`` (hosts in the sending
    datacenter) each send their share to ``receiver_index`` (a host in the
    receiving datacenter), starting at ``start_ps``.

    Indices are resolved against the built topology by whichever runner
    executes the job, which keeps workload generation independent of any
    concrete network object.
    """

    name: str
    sender_indices: tuple[int, ...]
    receiver_index: int
    flow_bytes: tuple[int, ...]
    start_ps: int = 0

    def __post_init__(self) -> None:
        if not self.sender_indices:
            raise WorkloadError(f"incast {self.name!r} needs at least one sender")
        if len(self.flow_bytes) != len(self.sender_indices):
            raise WorkloadError(
                f"incast {self.name!r}: {len(self.sender_indices)} senders but "
                f"{len(self.flow_bytes)} flow sizes"
            )
        if any(b <= 0 for b in self.flow_bytes):
            raise WorkloadError(f"incast {self.name!r}: flow sizes must be positive")
        if self.start_ps < 0:
            raise WorkloadError(f"incast {self.name!r}: start time must be non-negative")

    @property
    def degree(self) -> int:
        """Number of simultaneous senders."""
        return len(self.sender_indices)

    @property
    def total_bytes(self) -> int:
        """Sum of all flows."""
        return sum(self.flow_bytes)


def uniform_incast(
    name: str,
    degree: int,
    total_bytes: int,
    receiver_index: int = 0,
    sender_offset: int = 0,
    start_ps: int = 0,
) -> IncastJob:
    """An equal-split incast from ``degree`` consecutive senders."""
    if degree < 1:
        raise WorkloadError("degree must be at least 1")
    if total_bytes < degree:
        raise WorkloadError("need at least one byte per sender")
    base, extra = divmod(total_bytes, degree)
    return IncastJob(
        name=name,
        sender_indices=tuple(range(sender_offset, sender_offset + degree)),
        receiver_index=receiver_index,
        flow_bytes=tuple(base + (1 if i < extra else 0) for i in range(degree)),
        start_ps=start_ps,
    )


def periodic_incasts(
    bursts: int,
    period_ps: int,
    degree: int = 4,
    total_bytes: int = 10_000_000,
    receiver_index: int = 0,
    sender_offset: int = 0,
    name: str = "burst",
) -> list[IncastJob]:
    """A strictly periodic incast train (ML-training-style synchronization).

    The pattern-aware controller's target: identical bursts every
    ``period_ps``, all aimed at one destination.
    """
    if bursts < 1:
        raise WorkloadError("bursts must be at least 1")
    if period_ps <= 0:
        raise WorkloadError("period_ps must be positive")
    return [
        uniform_incast(f"{name}{i}", degree, total_bytes, receiver_index,
                       sender_offset, start_ps=i * period_ps)
        for i in range(bursts)
    ]
