"""Execution-with-sampling substrate: simulated PMU, Dyninst-style
monitor, raw sample records, and address resolution (paper §IV.B–C).
"""
