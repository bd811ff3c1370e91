"""The benchmark's tracer (`perfbench/tracing.py`) wraps homalgebra functions
and methods by name; a name the program no longer defines reads as 0 in
every traced metric.  This pins the standing rule that every such name
stays defined: the tracer is installed over the loaded modules, must miss
nothing, counts a product, and is uninstalled again.  Nothing under
`perfbench/` is changed."""

import importlib.util
import sys
from pathlib import Path

import homalgebra.algebra
import homalgebra.cli
import homalgebra.fileio
import homalgebra.identities
import homalgebra.parser
from homalgebra import scalars
from homalgebra.scalars import Scalar

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # leave no bytecode cache under perfbench/
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_tracer_finds_every_name_it_wraps():
    tracing = _load_tracing()
    originals = (scalars.normalize, scalars.Polynomial.__mul__,
                 scalars.Scalar.__add__, homalgebra.cli.main)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert scalars.normalize is not originals[0]
        Scalar.var("a") * Scalar.var("b")
        assert tracer.counts["scalars.Scalar.mul"] == 1
        assert tracer.counts["scalars.Polynomial.mul"] == 1
    finally:
        tracer.uninstall()
    assert (scalars.normalize, scalars.Polynomial.__mul__,
            scalars.Scalar.__add__, homalgebra.cli.main) == originals
