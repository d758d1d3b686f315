"""Per-layer timing and counters, attached to hermicert from outside.

The library has no tracing of its own.  :class:`Tracer` replaces chosen
module-level functions with wrappers that count calls and add up inclusive
wall seconds, and puts the originals back on exit.  A function imported by
name into several modules (``signature`` lives in certify, certificates and
jsonio; ``rank`` in cli, hermite, certify and numroots, the latter as
``rat_rank``) is replaced in every hermicert namespace that holds it, found
by identity.  The kernel backend modules themselves are left alone, so
kernel counters see only the calls that cross the ``hermicert._kernels``
boundary, not the backend's internal calls to itself.

Each probe counts only its outermost call: recursion (``rational_reconstruct``
calls itself for negative values) and nesting inside the same probe group
are neither double counted nor double timed.
"""

from __future__ import annotations

import importlib
import sys
import time

# Backend modules whose internal calls are not kernel-boundary calls.
BACKEND_MODULES = ("hermicert._kernels.pure", "hermicert._kernels._speedups")


def bindings(original) -> list[tuple[object, str]]:
    """Every (module, name) in hermicert bound to ``original``, outside the
    kernel backend modules."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name in BACKEND_MODULES:
            continue
        if mod_name != "hermicert" and not mod_name.startswith("hermicert."):
            continue
        found += [(mod, var) for var, value in vars(mod).items() if value is original]
    return found


class Probe:
    __slots__ = ("calls", "seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.depth = 0


def _distinct_products(ext) -> int:
    """Distinct power-sum monomials of an extended basis: one float power
    sum is computed for each in ``approx_extended_hermite``."""
    monos = ext.extension
    return len({tuple(x + y for x, y in zip(a, b)) for a in monos for b in monos})


def _max_bits(result) -> int:
    nums, dens = result
    return max(max(map(abs, nums), default=0).bit_length(), max(dens, default=1).bit_length())


# probe name -> functions it wraps, as (module, attribute path).
PROBES = {
    "numroots.select_basis": [("hermicert.numroots", "select_basis")],
    "numroots.sigma_min": [("hermicert.numroots", "smallest_singular_value")],
    "hermite.approx": [("hermicert.hermite", "approx_extended_hermite")],
    "hermite.reconstruct": [("hermicert.hermite", "reconstruct_hermite")],
    "hermite.build_nonradical": [("hermicert.hermite", "build_nonradical")],
    "ratrecon.reconstruct": [("hermicert.ratrecon", "rational_reconstruct")],
    "certify": [
        ("hermicert.certify", "certify_pipeline"),
        ("hermicert.certify", "certify_nonradical"),
    ],
    "certify.mult_matrices": [("hermicert.certify", "mult_matrices")],
    "certify.squarefree": [("hermicert.certify", "check_squarefree")],
    "certify.commute_membership": [("hermicert.certify", "check_commute_and_membership")],
    "certify.trace_grid": [("hermicert.certify", "_trace_grid")],
    "certify.hermite_for_g": [("hermicert.certify", "hermite_for_g")],
    "certificates": [
        ("hermicert.certificates", "certify_ball"),
        ("hermicert.certificates", "certify_nonneg"),
        ("hermicert.certificates", "real_root_count"),
    ],
    "certificates.signature": [("hermicert.certify", "signature")],
    "linalg.char_poly": [("hermicert.linalg", "char_poly")],
    "linalg.inertia": [("hermicert.linalg", "inertia_ldl")],
    "linalg.rank": [("hermicert.linalg", "rank")],
    "linalg.inverse": [("hermicert.linalg", "inverse")],
    "polynomials.eval_at_matrices": [("hermicert.polynomials", "MultiPoly.eval_at_matrices")],
    "kernels.mat_mul": [("hermicert._kernels", "mat_mul")],
    "kernels.charpoly": [("hermicert._kernels", "charpoly")],
    "jsonio.report": [("hermicert.jsonio", "report_to_json")],
}


class Tracer:
    """Context manager that installs every probe in :data:`PROBES`.

    Besides the probes it keeps two counters measured where the work
    happens: ``power_sums`` (distinct float power sums) and
    ``max_entry_bits`` (largest numerator or denominator bit length in a
    kernel matrix product).
    """

    def __init__(self):
        self.probes = {name: Probe() for name in PROBES}
        self.power_sums = 0
        self.max_entry_bits = 0
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, targets in PROBES.items():
            for module_name, path in targets:
                self._install(self.probes[name], module_name, path)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _install(self, probe: Probe, module_name: str, path: str):
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = self._wrap(probe, original, path)
        # A method has one binding, its class attribute.
        for mod, var in [(owner, attr)] if outer else bindings(original):
            self._patch(mod, var, wrapper)

    def _patch(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, probe: Probe, original, path: str):
        after = {"approx_extended_hermite": self._count_power_sums, "mat_mul": self._note_bits}.get(path)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if probe.depth:
                return original(*args, **kwargs)
            probe.depth += 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                probe.seconds += clock() - start
                probe.calls += 1
                probe.depth -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_power_sums(self, args, result):
        self.power_sums += _distinct_products(args[1])

    def _note_bits(self, args, result):
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(result))

    def metrics(self, operations: int) -> dict[str, float]:
        """Per-operation values of every per-layer metric."""
        p = self.probes

        def per_op(x):
            return x / operations

        return {
            "numroots.select_basis_s": per_op(p["numroots.select_basis"].seconds),
            "numroots.sigma_min_calls": per_op(p["numroots.sigma_min"].calls),
            "hermite.approx_s": per_op(p["hermite.approx"].seconds),
            "hermite.reconstruct_s": per_op(p["hermite.reconstruct"].seconds),
            "hermite.build_nonradical_s": per_op(p["hermite.build_nonradical"].seconds),
            "hermite.power_sums": per_op(self.power_sums),
            "ratrecon.reconstruct_calls": per_op(p["ratrecon.reconstruct"].calls),
            "certify.calls": per_op(p["certify"].calls),
            "certify.total_s": per_op(p["certify"].seconds),
            "certify.mult_matrices_s": per_op(p["certify.mult_matrices"].seconds),
            "certify.squarefree_s": per_op(p["certify.squarefree"].seconds),
            "certify.commute_membership_s": per_op(p["certify.commute_membership"].seconds),
            "certify.trace_grid_s": per_op(p["certify.trace_grid"].seconds),
            "certify.hermite_for_g_calls": per_op(p["certify.hermite_for_g"].calls),
            "certify.hermite_for_g_s": per_op(p["certify.hermite_for_g"].seconds),
            "certificates.total_s": per_op(p["certificates"].seconds),
            "certificates.signature_calls": per_op(p["certificates.signature"].calls),
            "certificates.signature_s": per_op(p["certificates.signature"].seconds),
            "linalg.char_poly_calls": per_op(p["linalg.char_poly"].calls),
            "linalg.char_poly_s": per_op(p["linalg.char_poly"].seconds),
            "linalg.inertia_s": per_op(p["linalg.inertia"].seconds),
            "linalg.rank_calls": per_op(p["linalg.rank"].calls),
            "linalg.rank_s": per_op(p["linalg.rank"].seconds),
            "linalg.inverse_s": per_op(p["linalg.inverse"].seconds),
            "polynomials.eval_at_matrices_s": per_op(p["polynomials.eval_at_matrices"].seconds),
            "kernels.mat_mul_calls": per_op(p["kernels.mat_mul"].calls),
            "kernels.mat_mul_s": per_op(p["kernels.mat_mul"].seconds),
            "kernels.charpoly_s": per_op(p["kernels.charpoly"].seconds),
            "kernels.max_entry_bits": self.max_entry_bits,
            "jsonio.report_s": per_op(p["jsonio.report"].seconds),
        }
