"""Public face of the polynomial kernel.

The kernel itself lives in ``_kernel_py``; this module re-exports its
functions under one stable name.  ``expr`` reaches them as
``backend.poly_mul`` and friends, and the per-layer tracer of the
benchmark (``perfbench/tracer.py``) wraps the kernel by rebinding the
names here, so the module stays even though there is one kernel.  It
exports no subtraction: a difference is a sum with a negated operand.
``BACKEND`` names the kernel in use and is recorded in benchmark
environment probes.
"""

from ._kernel_py import (
    RAT_ONE,
    poly_add,
    poly_add_mul,
    poly_mul,
    poly_neg,
    poly_scale,
    rat_add,
    rat_inv,
    rat_make,
    rat_mul,
    rat_parts,
)

BACKEND = "python"
