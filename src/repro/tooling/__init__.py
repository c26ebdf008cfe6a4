"""High-level tool facade: the :class:`Profiler` pipeline and the CLI.

``Profiler``, ``ProfileResult`` and ``run_only`` resolve on first use,
so ``repro-profile view|merge|diff`` never load the pipeline."""

__all__ = ["ProfileResult", "Profiler", "run_only"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import profiler

    return getattr(profiler, name)
