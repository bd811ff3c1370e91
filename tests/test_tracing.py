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


def _calls(tracer, name):
    return tracer.summary().get(name, (0, 0.0, 0.0))[0]


def test_sums_take_no_gcd_of_the_multiplied_out_result():
    # Henrici's sum: a polynomial operand needs no gcd at all, and coprime
    # denominators need only the gcd that finds them coprime; neither sum
    # normalizes its result
    a, b = Scalar.gens(["a", "b"])
    over_a, over_b = 1 / (a * a + b), 1 / (b + 1)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with_polynomial = [over_a + b, b - over_a]
        polynomial_gcds = _calls(tracer, "scalars.poly_gcd")
        polynomial_normalizes = _calls(tracer, "scalars.normalize")
        coprime = over_a - over_b
        sum_gcds = _calls(tracer, "scalars.poly_gcd")
        scalars.poly_gcd(over_a.den, over_b.den)
        den_gcds = _calls(tracer, "scalars.poly_gcd") - sum_gcds
        normalizes = _calls(tracer, "scalars.normalize")
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert polynomial_gcds == polynomial_normalizes == 0
    assert sum_gcds == den_gcds > 0 and normalizes == 0
    assert [str(s) for s in with_polynomial + [coprime]] == [
        "(a^2*b + b^2 + 1)/(a^2 + b)", "(a^2*b + b^2 - 1)/(a^2 + b)",
        "(-a^2 + 1)/(a^2*b + a^2 + b^2 + b)"]
