"""The benchmark's tracer wraps package functions by name; they must exist.

``perfbench/run.py`` lists the functions it times in ``SPANNED`` and counts
calls of two methods.  A rename or removal in the package would otherwise
show only when the benchmark runs with ``--trace 1``.
"""

import pathlib
import types

import halfhandle
from halfhandle.morse_data import CriticalPoint
from halfhandle.slice_topology import SliceComplex

RUN = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    """perfbench/run.py as a module, compiled from its source so that no
    bytecode cache is written next to it; its top level imports only the
    standard library and runs nothing."""
    module = types.ModuleType("perfbench_run")
    module.__file__ = str(RUN)
    exec(compile(RUN.read_text(), str(RUN), "exec"), vars(module))
    return module


def test_every_traced_name_resolves_on_the_package():
    spanned = load_run().SPANNED
    assert spanned
    for module, attrs in spanned.items():
        for attr in attrs:
            assert callable(getattr(getattr(halfhandle, module), attr)), (module, attr)
    assert callable(SliceComplex.effect_for)
    assert callable(CriticalPoint.__post_init__)
