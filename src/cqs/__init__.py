"""Exact classification of first-order deformations of cyclic quotient
surface singularities.

The package converts among five equivalent descriptions of a singularity
(group action, abc invariants, toric cone, continued fraction, rational
interval), computes the graded dimensions of T1 and of its V-, W-, VW-
and qG-subspaces in closed form, and re-derives every closed-form answer
with brute-force lattice-point oracles.  All arithmetic is exact.

``cqs.<name>`` is the public class or function ``name`` of the first of
``lattice``, ``representations``, ``cone_geometry`` and ``deformations``
that defines it, imported on first use; ``import cqs`` itself loads none
of them.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for names the package itself does not hold
    if not name.startswith("_"):
        from importlib import import_module
        from types import UnionType

        for stem in ("lattice", "representations", "cone_geometry", "deformations"):
            module = import_module(f"{__name__}.{stem}")
            obj = getattr(module, name, None)
            # a union alias such as SingularityForm is judged by its members
            members = obj.__args__ if isinstance(obj, UnionType) else (obj,)
            if all(getattr(m, "__module__", None) == module.__name__ for m in members):
                return obj
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
