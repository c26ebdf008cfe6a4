"""repro — reproduction of "Data Centric Performance Measurement
Techniques for Chapel Programs" (Zhang & Hollingsworth, 2017).

Public API tour:

* :func:`repro.compile_source` — mini-Chapel source -> IR module;
* :class:`repro.Profiler` (``repro.tooling``) — the four-step pipeline:
  static blame analysis, sampled execution, post-mortem processing,
  presentation — configured by one :class:`repro.RunConfig`;
* :mod:`repro.views` — flat data-centric / code-centric / hybrid views;
* :mod:`repro.baselines` — pprof-style and HPCToolkit-style comparators;
* :mod:`repro.bench` — the paper's three benchmarks (MiniMD, CLOMP,
  LULESH) plus the experiment harness regenerating each table/figure.

The top-level names resolve on first use, so importing a light
subpackage (the artifact reader, the views) never loads the compiler.
"""

__version__ = "1.0.0"

#: Top-level name → the module that defines it.
_EXPORTS = {
    "compile_source": "repro.compiler.lower",
    "lower_program": "repro.compiler.lower",
    "ProfileResult": "repro.tooling.profiler",
    "Profiler": "repro.tooling.profiler",
    "run_only": "repro.tooling.profiler",
    "AdaptiveConfig": "repro.run_config",
    "RunConfig": "repro.run_config",
}

__all__ = [*_EXPORTS, "__version__"]


def tool_version() -> str:
    """The version ``--version`` prints and artifacts record in
    ``created_by``: the installed distribution's, else ``__version__``."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed (src checkout on PYTHONPATH)
        return __version__


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(_EXPORTS[name]), name)
