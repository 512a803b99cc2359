"""Incast programming abstraction (paper §6, "proxying through programming
abstraction").

Application developers declare their components and the incast-like
communication among them (:mod:`repro.abstraction.annotations`); at
deployment time the provider maps components onto datacenters and converts
every *inter-datacenter* incast into a proxy-assisted one, transparently
to the application (:mod:`repro.abstraction.deployment`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.abstraction.annotations": ["AppGraph", "Component", "IncastDecl"],
    "repro.abstraction.deployment": [
        "DeploymentPlan", "DeploymentPlanner", "PlannedIncast",
    ],
})

__all__ = [
    "AppGraph",
    "Component",
    "DeploymentPlan",
    "DeploymentPlanner",
    "IncastDecl",
    "PlannedIncast",
]
