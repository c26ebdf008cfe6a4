"""Fault injection and degradation-tolerance tooling.

Real Dyninst/PAPI deployments are lossy: stack walks truncate, samples
drop, spawn tags vanish, and debug info gets stripped.  This package
makes those failure modes reproducible — :mod:`faults` describes *what*
to break (deterministic, seedable), :mod:`inject` breaks it, and
:mod:`stability` quantifies how stable the blame rankings stay under
each fault class.
"""

from .faults import FAULT_CLASSES, FaultPlan
from .inject import FaultInjector, InjectionStats
from .stability import compare_reports, kendall_tau, ranking, top_n_overlap

__all__ = [
    "FAULT_CLASSES",
    "FaultInjector",
    "FaultPlan",
    "InjectionStats",
    "compare_reports",
    "kendall_tau",
    "ranking",
    "top_n_overlap",
]
