"""Backend selection for the exact-rational matrix kernels.

The compiled extension ``_speedups`` (Cython) is used when importable;
otherwise the pure-Python twin ``pure`` is used.  Both expose the same
functions and produce bit-identical results; ``BACKEND`` names the active
one.
"""

try:
    from . import _speedups as _impl  # type: ignore[attr-defined]
except ImportError:
    from . import pure as _impl

BACKEND = _impl.BACKEND
q_add = _impl.q_add
q_sub = _impl.q_sub
q_mul = _impl.q_mul
q_div = _impl.q_div
mat_mul = _impl.mat_mul
mat_rank = _impl.mat_rank
mat_inverse = _impl.mat_inverse
charpoly = _impl.charpoly
inertia = _impl.inertia

__all__ = [
    "BACKEND",
    "q_add",
    "q_sub",
    "q_mul",
    "q_div",
    "mat_mul",
    "mat_rank",
    "mat_inverse",
    "charpoly",
    "inertia",
]
