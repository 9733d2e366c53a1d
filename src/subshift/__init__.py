"""Subgroup-shift analysis toolkit.

Quantifies how the choice of subgroup partition limits bias mitigation under
spurious-correlation shift: exact minimum-divergence tables over a small
discrete outcome space, plus a synthetic-data harness that trains mitigation
methods against the same partitions and correlates their test performance
with the divergence bound.
"""

__version__ = "0.1.0"
