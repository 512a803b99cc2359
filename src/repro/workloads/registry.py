"""The workload registry: every traffic mix as declarative data.

The scheme registry (PR 5) proved the pattern: harnesses stay generic and
new behaviours plug in as frozen specs, no core edits.  Workload
construction gets the same treatment.  A :class:`WorkloadSpec` names one
generator twice over:

* ``build(**params)`` — the offline form: produce a complete
  :class:`~repro.workloads.incast.IncastJob` list from explicit
  parameters (what the existing generator functions already do);
* ``tenant(request)`` — the open-loop form used by
  :mod:`repro.workloads.engine`: given one arriving tenant's
  :class:`TenantRequest` (seed, drawn total bytes, host-pool sizes),
  produce that tenant's jobs with *relative* times and indices; the
  engine offsets starts to the arrival instant and folds indices onto
  the fabric.

Third-party mixes register the same way schemes do::

    from repro.workloads.registry import register_workload, TenantRequest

    @register_workload("my-mix", display_name="My Mix")
    def build_my_mix(*, jobs: int = 4, **_: object) -> list[IncastJob]:
        ...

and then ``repro.build_workload("my-mix", jobs=8)`` and engine mixes
naming ``"my-mix"`` both resolve with no core edits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.errors import WorkloadError
from repro.workloads.georeplication import QuorumConfig, quorum_write_jobs
from repro.workloads.incast import IncastJob, periodic_incasts, uniform_incast
from repro.workloads.moe import MoEConfig, moe_combine_jobs, moe_dispatch_jobs
from repro.workloads.storage import ReconstructionConfig, reconstruction_jobs


@dataclass(frozen=True)
class TenantRequest:
    """One open-loop tenant, as the engine hands it to a workload builder."""

    index: int  #: tenant ordinal (unique per run)
    seed: int  #: per-tenant RNG seed (derived; stable across resume)
    total_bytes: int  #: heavy-tail drawn volume for the whole tenant
    sender_pool: int  #: hosts available on the sending side
    receiver_pool: int  #: hosts available on the receiving side

    def __post_init__(self) -> None:
        if self.total_bytes < 1:
            raise WorkloadError("total_bytes must be positive")
        if self.sender_pool < 1 or self.receiver_pool < 1:
            raise WorkloadError("host pools must be at least 1")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload generator, fully described."""

    name: str
    display_name: str
    #: offline builder: explicit params -> complete job list
    build: Callable[..., list[IncastJob]]
    #: open-loop per-tenant builder; None = not usable in engine mixes
    tenant: Callable[[TenantRequest], list[IncastJob]] | None = None
    description: str = ""


class WorkloadRegistry:
    """Name -> :class:`WorkloadSpec`, in registration order."""

    def __init__(self) -> None:
        self._specs: dict[str, WorkloadSpec] = {}

    def register(self, spec: WorkloadSpec, *, replace: bool = False) -> WorkloadSpec:
        """Add ``spec``; refuses silent redefinition unless ``replace``."""
        if spec.name in self._specs and not replace:
            raise WorkloadError(
                f"workload {spec.name!r} is already registered; pass "
                "replace=True to override it"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove a workload (tests and plugin teardown)."""
        self._specs.pop(name, None)

    def get(self, name: str) -> WorkloadSpec:
        """Look up a workload; unknown names list what *is* registered."""
        spec = self._specs.get(name)
        if spec is None:
            raise WorkloadError(
                f"unknown workload {name!r}; registered workloads: "
                f"{', '.join(self._specs)}"
            )
        return spec

    def names(self) -> tuple[str, ...]:
        """All registered workload names, in registration order."""
        return tuple(self._specs)

    def tenant_names(self) -> tuple[str, ...]:
        """Names of workloads usable as open-loop engine mixes."""
        return tuple(n for n, s in self._specs.items() if s.tenant is not None)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[WorkloadSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry every harness consults.
WORKLOAD_REGISTRY = WorkloadRegistry()


def register_workload(
    name: str,
    *,
    display_name: str | None = None,
    tenant: Callable[[TenantRequest], list[IncastJob]] | None = None,
    description: str = "",
    registry: WorkloadRegistry | None = None,
    replace: bool = False,
) -> Callable[[Callable[..., list[IncastJob]]], Callable[..., list[IncastJob]]]:
    """Decorator form of registration: wraps a ``build(**params)`` function."""

    def decorate(
        build: Callable[..., list[IncastJob]],
    ) -> Callable[..., list[IncastJob]]:
        # `registry or WORKLOAD_REGISTRY` would mis-route the first spec:
        # an empty WorkloadRegistry has len() == 0 and is therefore falsy.
        target = registry if registry is not None else WORKLOAD_REGISTRY
        target.register(
            WorkloadSpec(
                name=name,
                display_name=display_name if display_name is not None else name,
                build=build,
                tenant=tenant,
                description=description,
            ),
            replace=replace,
        )
        return build

    return decorate


def build_workload(name: str, /, **params: Any) -> list[IncastJob]:
    """Build the named workload's job list (the top-level ``repro`` export).

    The workload name is positional-only so builders that themselves take
    a ``name`` parameter (e.g. ``uniform``) can receive it via ``params``.
    """
    return WORKLOAD_REGISTRY.get(name).build(**params)


# -- built-in registrations ---------------------------------------------------
#
# Tenant builders keep each tenant small on purpose: an open-loop run
# launches thousands of tenants, so one tenant is one-or-a-few incasts
# whose combined volume equals the drawn total_bytes.


def _split_even(total: int, parts: int) -> tuple[int, ...]:
    base, extra = divmod(max(total, parts), parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


def _tenant_uniform(req: TenantRequest) -> list[IncastJob]:
    """One equal-split incast: degree 4 (or the whole pool if smaller)."""
    degree = min(4, req.sender_pool)
    return [
        IncastJob(
            name=f"tenant{req.index}-uniform",
            sender_indices=tuple(range(degree)),
            receiver_index=0,
            flow_bytes=_split_even(req.total_bytes, degree),
        )
    ]


def _tenant_moe_dispatch(req: TenantRequest) -> list[IncastJob]:
    """A one-step MoE dispatch sized to the drawn volume."""
    senders = min(4, req.sender_pool)
    experts = min(2, req.receiver_pool)
    token_bytes = 4096
    tokens = max(1, req.total_bytes // (senders * token_bytes))
    cfg = MoEConfig(
        senders=senders,
        experts=experts,
        tokens_per_sender=tokens,
        token_bytes=token_bytes,
        seed=req.seed,
    )
    return moe_dispatch_jobs(cfg)


def _tenant_reconstruction(req: TenantRequest) -> list[IncastJob]:
    """One k-of-n EC reconstruction read sized to the drawn volume."""
    k = min(4, req.sender_pool)
    cfg = ReconstructionConfig(
        data_fragments=k,
        fragment_bytes=max(1, req.total_bytes // k),
        servers=req.sender_pool,
        seed=req.seed,
    )
    return reconstruction_jobs(cfg)


def _tenant_quorum(req: TenantRequest) -> list[IncastJob]:
    """One quorum-write epoch sized to the drawn volume."""
    shards = min(6, req.sender_pool)
    cfg = QuorumConfig(
        shards=shards,
        batch_bytes_mean=max(1, req.total_bytes // shards),
        batch_bytes_jitter=0.4,
        seed=req.seed,
    )
    return quorum_write_jobs(cfg)


def _build_uniform(**params: Any) -> list[IncastJob]:
    return [uniform_incast(**params)]


def _build_moe_dispatch(**params: Any) -> list[IncastJob]:
    return moe_dispatch_jobs(MoEConfig(**params))


def _build_moe_combine(**params: Any) -> list[IncastJob]:
    return moe_combine_jobs(MoEConfig(**params))


def _build_reconstruction(**params: Any) -> list[IncastJob]:
    return reconstruction_jobs(ReconstructionConfig(**params))


def _build_quorum(**params: Any) -> list[IncastJob]:
    return quorum_write_jobs(QuorumConfig(**params))


def _register_builtins() -> None:
    entries: list[tuple[str, str, Callable[..., list[IncastJob]],
                        Callable[[TenantRequest], list[IncastJob]] | None, str]] = [
        ("uniform", "Uniform incast", _build_uniform, _tenant_uniform,
         "One equal-split fixed-degree incast (paper §4)."),
        ("periodic", "Periodic bursts", periodic_incasts, None,
         "Strictly periodic incast train (ML-training synchronization)."),
        ("moe-dispatch", "MoE dispatch", _build_moe_dispatch, _tenant_moe_dispatch,
         "Zipf-gated all-to-all dispatch, one incast per expert."),
        ("moe-combine", "MoE combine", _build_moe_combine, None,
         "The return phase: experts fan back into each worker."),
        ("ec-reconstruct", "EC reconstruction", _build_reconstruction,
         _tenant_reconstruction,
         "k-of-n erasure-coded fragment reads to one orchestrator."),
        ("quorum", "Quorum writes", _build_quorum, _tenant_quorum,
         "Front-end shards flushing write batches to a replica leader."),
    ]
    for name, display, build, tenant, description in entries:
        if name not in WORKLOAD_REGISTRY:
            WORKLOAD_REGISTRY.register(
                WorkloadSpec(
                    name=name,
                    display_name=display,
                    build=build,
                    tenant=tenant,
                    description=description,
                )
            )


_register_builtins()


def tenant_jobs(
    spec: WorkloadSpec,
    req: TenantRequest,
    *,
    start_ps: int,
    sender_offset: int,
    receiver_offset: int,
) -> list[IncastJob]:
    """Materialize one tenant's jobs onto the fabric.

    The builder emits pool-relative indices and relative start times; this
    folds sender/receiver indices onto the actual host pools (rotating by
    the per-tenant offsets so concurrent tenants spread out) and shifts
    starts to the arrival instant.
    """
    if spec.tenant is None:
        raise WorkloadError(
            f"workload {spec.name!r} has no open-loop tenant builder; "
            f"engine mixes must come from: tenant-capable workloads"
        )
    jobs = []
    for job in spec.tenant(req):
        jobs.append(
            replace(
                job,
                # Tenant-unique names: selectors and registries key per-job
                # state by name, and builders reuse names across tenants.
                name=f"t{req.index}:{job.name}",
                sender_indices=tuple(
                    (i + sender_offset) % req.sender_pool for i in job.sender_indices
                ),
                receiver_index=(job.receiver_index + receiver_offset)
                % req.receiver_pool,
                start_ps=start_ps + job.start_ps,
            )
        )
    return jobs
