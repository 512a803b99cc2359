"""Competitor schemes from the related work, as pure registry plug-ins.

The proxy's in-family variants all live in :mod:`repro.schemes`; this
package holds the outside contenders a skeptical reviewer would ask the
proxy to beat, wired exclusively through the public
:func:`~repro.schemes.register_scheme` API — zero edits to the simulator
core:

* ``repflow`` — RepFlow/RepNet-style flow replication over disjoint
  spray lanes with first-copy-wins dedup (:mod:`repro.competitors.repflow`);
* ``pulser`` — switch-side incast detection multicasting early congestion
  pulses to all senders (:mod:`repro.competitors.pulser`);
* ``pulser-dist`` — the same notifier driven by the distributed
  in-network sketch detector (:mod:`repro.patterns.distributed`).

Importing this package registers **nothing** (harnesses enumerate
``SCHEME_REGISTRY.names()`` when they run and tests pin the built-in
five, :data:`repro.schemes.SCHEMES`); call :func:`install` to add the
competitors and :func:`uninstall` to remove them again.  The CLI
drivers that sweep every registered scheme (``bakeoff``, ``recovery``,
``workload``, ``races``, ``service``) run inside :func:`installed`, so
an in-process call leaves the registry as it found it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

from repro.competitors.pulser import PulserAgent, _wire_pulser, _wire_pulser_dist
from repro.competitors.repflow import _wire_repflow
from repro.schemes import SCHEME_REGISTRY, SchemeRegistry, register_scheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.schemes import SchemeContext, SchemeWiring

    #: wiring callable + display name + crash-semantics blurb, per scheme
    _WiringSpec = tuple[Callable[["SchemeContext"], "SchemeWiring"], str, str]

#: Names this package contributes, in presentation order.
COMPETITOR_SCHEMES = ("repflow", "pulser", "pulser-dist")


def install(
    *, registry: SchemeRegistry | None = None, replace: bool = False
) -> tuple[str, ...]:
    """Register every competitor scheme; returns the names installed.

    Idempotent by default: already-registered names are left alone unless
    ``replace`` is True.
    """
    target = registry if registry is not None else SCHEME_REGISTRY
    installed: list[str] = []
    wirings: "dict[str, _WiringSpec]" = {
        "repflow": (
            _wire_repflow,
            "RepFlow (replicated, disjoint spray)",
            "no proxy: nothing to crash; each flow survives one lane loss",
        ),
        "pulser": (
            _wire_pulser,
            "Pulser (explicit incast notification)",
            "no proxy process: the notifier rides the receiver host",
        ),
        "pulser-dist": (
            _wire_pulser_dist,
            "Pulser (distributed sketch detector)",
            "no proxy process: the notifier rides the receiver host",
        ),
    }
    for name in COMPETITOR_SCHEMES:
        if name in target and not replace:
            continue
        wire, display, crash = wirings[name]
        register_scheme(
            name,
            display_name=display,
            crash_semantics=crash,
            registry=target,
            replace=replace,
        )(wire)
        installed.append(name)
    return tuple(installed)


@contextmanager
def installed() -> Iterator[tuple[str, ...]]:
    """Install the competitors for a ``with`` block, then remove exactly
    the names :func:`install` added (ones already registered stay)."""
    names = install()
    try:
        yield names
    finally:
        for name in names:
            SCHEME_REGISTRY.unregister(name)


def uninstall(*, registry: SchemeRegistry | None = None) -> None:
    """Remove every competitor scheme (test teardown, plugin unload)."""
    target = registry if registry is not None else SCHEME_REGISTRY
    for name in COMPETITOR_SCHEMES:
        target.unregister(name)


__all__ = [
    "COMPETITOR_SCHEMES",
    "PulserAgent",
    "install",
    "installed",
    "uninstall",
]
