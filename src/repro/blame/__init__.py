"""The paper's core contribution: variable blame.

Static side (step 1): :class:`~repro.blame.static_info.ModuleBlameInfo`
— data flow (:mod:`dataflow`), control dependence (:mod:`control_deps`),
backward slices / BlameSets (:mod:`slices`), exit variables
(:mod:`exit_vars`), transfer functions (:mod:`transfer`).

Dynamic side (step 3): :mod:`postmortem` (stack gluing) and
:mod:`attribution` (isBlamed + interprocedural bubbling), producing a
:class:`~repro.blame.report.BlameReport` (optionally merged across
locales by :mod:`aggregate`).
"""
