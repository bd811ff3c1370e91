"""Algebra file format: round trips, validation, determinism."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from homalgebra import catalog, fileio
from homalgebra.algebra import AlgebraSpec, LinMap, Param, mul
from homalgebra.errors import ParseError, ValidationError
from homalgebra.fileio import load, loads, save, saves
from homalgebra.parser import parse_scalar_expr
from homalgebra.identities import builtin_names, check_builtin
from homalgebra.scalars import Monomial, Polynomial, Scalar


def test_save_load_roundtrip_every_catalog_entry(tmp_path):
    for key in catalog.list_keys():
        entry = catalog.get(key)
        path = tmp_path / (key + ".json")
        save(entry.algebra, path, maps=entry.maps)
        loaded = load(path)
        assert loaded.algebra == entry.algebra
        for name, m in entry.maps.items():
            assert loaded.maps[name] == m


def test_emitted_octonions_reload_product():
    entry = catalog.get("octonions")
    text = saves(entry.algebra, maps=entry.maps)
    loaded = loads(text)
    A = loaded.algebra
    assert mul(A, A.basis_vector("e5"), A.basis_vector("e6")) == \
        A.basis_vector("e1")


def test_zero_algebra_satisfies_everything():
    text = json.dumps({
        "name": "zero", "dim": 2, "basis": ["x", "y"],
        "params": [], "mu": [], "maps": {},
    })
    A = loads(text).algebra.with_identity_alpha()
    for name in builtin_names():
        b = check_builtin(A, name)
        assert b.holds, name


def test_unknown_basis_label_rejected():
    text = json.dumps({
        "name": "bad", "dim": 2, "basis": ["x", "y"],
        "mu": [{"i": "x", "j": "e9", "value": {"x": "1"}}],
    })
    with pytest.raises(ValidationError) as exc:
        loads(text)
    assert "e9" in str(exc.value)


def test_undeclared_parameter_rejected():
    text = json.dumps({
        "name": "bad", "dim": 1, "basis": ["x"],
        "mu": [{"i": "x", "j": "x", "value": {"x": "q"}}],
    })
    with pytest.raises(ValidationError) as exc:
        loads(text)
    assert "q" in str(exc.value)


def test_each_distinct_scalar_string_is_parsed_once_per_file(monkeypatch):
    parsed = []

    def counting(text, params):
        parsed.append(text)
        return parse_scalar_expr(text, params)

    monkeypatch.setattr(fileio, "parse_scalar_expr", counting)
    text = json.dumps({
        "name": "t", "dim": 2, "basis": ["x", "y"],
        "params": [{"name": "a", "nonzero": False}],
        "mu": [{"i": "x", "j": "x", "value": {"x": "a/2", "y": "1"}},
               {"i": "x", "j": "y", "value": {"y": "a/2"}},
               {"i": "y", "j": "x", "value": {"y": "1"}}],
        "maps": {"f": [["1", "0"], ["0", "a/2"]]},
    })
    A = loads(text).algebra
    assert sorted(parsed) == ["0", "1", "a/2"]
    assert A.mu[0][3] == Scalar.var("a") / 2
    # the memo lives for one call only
    loads(text)
    assert sorted(parsed) == ["0", "0", "1", "1", "a/2", "a/2"]


def test_a_bad_scalar_string_fails_at_its_first_occurrence():
    text = json.dumps({
        "name": "bad", "dim": 1, "basis": ["x"],
        "mu": [{"i": "x", "j": "x", "value": {"x": "1 +"}}],
        "maps": {"f": [["1 +"]]},
    })
    with pytest.raises(ValidationError) as exc:
        loads(text)
    message = str(exc.value)
    assert "mu[0].value[x]" in message and "maps[f]" not in message


@pytest.mark.parametrize("values", [("1", "2"), ("0", "1"), ("1", "0")])
def test_a_product_listed_twice_is_rejected(values):
    # a zero constant counts as listed, so neither order is taken
    text = json.dumps({
        "name": "bad", "dim": 1, "basis": ["e"],
        "mu": [{"i": "e", "j": "e", "value": {"e": v}} for v in values],
    })
    with pytest.raises(ValidationError, match="duplicate structure constant"):
        loads(text)


def test_json_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        loads("{ not json")
    assert exc.value.line == 1


def test_twist_must_name_a_map():
    text = json.dumps({
        "name": "bad", "dim": 1, "basis": ["x"], "twist": "alpha",
    })
    with pytest.raises(ValidationError):
        loads(text)


def test_bad_matrix_shape_rejected():
    text = json.dumps({
        "name": "bad", "dim": 2, "basis": ["x", "y"],
        "maps": {"alpha": [["1", "0"]]},
    })
    with pytest.raises(ValidationError):
        loads(text)


def _one_param_file(param, value="a"):
    return json.dumps({
        "name": "t", "dim": 1, "basis": ["x"], "params": [param],
        "mu": [{"i": "x", "j": "x", "value": {"x": value}}],
    })


@pytest.mark.parametrize("nonzero", ["false", "true", 0, 1, None])
def test_nonzero_must_be_a_json_boolean(nonzero):
    # bool("false") is true: a string would load as nonzero and save back
    # as true
    with pytest.raises(ValidationError, match=r"params\[0\]\.nonzero"):
        loads(_one_param_file({"name": "a", "nonzero": nonzero}))
    for flag in (False, True):
        A = loads(_one_param_file({"name": "a", "nonzero": flag})).algebra
        assert A.params == (Param("a", flag),)
        assert json.loads(saves(A))["params"] == [
            {"name": "a", "nonzero": flag}]


@pytest.mark.parametrize("name", [5, "", "p q", " a", "a$", "2a", "a+b",
                                  None, ["a"]])
def test_a_parameter_name_is_one_identifier(name):
    # no scalar expression could refer to these names
    with pytest.raises(ValidationError, match=r"params\[0\]\.name") as exc:
        loads(_one_param_file({"name": name}, "1"))
    assert json.dumps(name) in str(exc.value)


@pytest.mark.parametrize("name", ["a", "_", "a_2", "alpha10", "B_x"])
def test_identifier_names_load(name):
    A = loads(_one_param_file({"name": name}, name)).algebra
    assert A.param_names() == (name,)
    assert A.mu[0][3] == Scalar.var(name)


@pytest.mark.parametrize("value", [True, False, None, 1.5, [1], {"a": 1}])
def test_a_scalar_entry_is_a_string_or_an_integer(value):
    # a JSON true or null is no scalar, and must not be read as the
    # parameter 'True' or 'None'
    for doc in (_one_param_file({"name": "a"}, value),
                json.dumps({"name": "t", "dim": 1, "basis": ["x"],
                            "maps": {"f": [[value]]}})):
        with pytest.raises(ValidationError,
                           match="must be a string or an integer") as exc:
            loads(doc)
        assert "undeclared" not in str(exc.value)


def test_integer_entries_load_as_their_strings():
    A = loads(_one_param_file({"name": "a"}, -3)).algebra
    assert A.mu[0][3] == Scalar.from_fraction(-3)
    f = loads(json.dumps({"name": "t", "dim": 1, "basis": ["x"],
                          "maps": {"f": [[7]]}})).maps["f"]
    assert f == LinMap([[7]])


def test_a_bad_declaration_exits_2_with_a_message(tmp_path, capsys):
    from homalgebra import cli
    path = tmp_path / "bad.json"
    path.write_text(_one_param_file({"name": "a", "nonzero": "false"}))
    assert cli.main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "params[0].nonzero must be true or false" in err


def test_save_is_deterministic(tmp_path):
    entry = catalog.get("alt4_mu1_twist_alpha2")
    first = saves(entry.algebra, maps=entry.maps)
    second = saves(entry.algebra, maps=entry.maps)
    assert first == second
    # and survives a round trip byte-identically
    third = saves(loads(first).algebra, maps=loads(first).maps,
                  twist=loads(first).twist)
    assert third == first


def test_twist_designation_round_trips():
    entry = catalog.get("octonions_twist_diag")
    text = saves(entry.algebra, maps=entry.maps)
    loaded = loads(text)
    assert loaded.twist == "oct_diag"
    assert loaded.algebra.alpha == entry.maps["oct_diag"]


def test_unit_round_trips():
    entry = catalog.get("octonions")
    loaded = loads(saves(entry.algebra, maps=entry.maps))
    assert loaded.algebra.unit == 0


def test_twist_name_collision_avoided():
    # an unrelated map already named 'alpha' must not swallow the twist map
    from homalgebra.algebra import identity
    entry = catalog.get("hom_assoc_3d")
    other = identity(3)
    loaded = loads(saves(entry.algebra, maps={"alpha": other}))
    assert loaded.algebra.alpha == entry.algebra.alpha
    assert loaded.maps["alpha"] == other
    assert loaded.twist == "_alpha"


# --- random round trips ----------------------------------------------------------
#
# Parametric tables whose parameter names exercise the digit-aware order
# (a2 < a10, x_2 < x_10) and whose constants carry fractional coefficients
# and denominators, with named maps, a twist and a unit.

PARAM_NAMES = ("a2", "a10", "b", "x_2", "x_10")
LABELS = ("e0", "u", "e10")


def _polys(names):
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    exps = (st.dictionaries(st.sampled_from(names), st.integers(1, 2),
                            max_size=2) if names else st.just({}))
    return st.lists(st.tuples(coeff, exps), max_size=2).map(
        lambda spec: Polynomial({Monomial(e): c for c, e in spec}))


@st.composite
def _scalars(draw, names):
    num = draw(_polys(names))
    den = draw(_polys(names).filter(lambda p: not p.is_zero()))
    return Scalar(num, den)


@st.composite
def algebra_files(draw):
    dim = draw(st.integers(1, len(LABELS)))
    basis = LABELS[:dim]
    params = draw(st.lists(st.sampled_from(PARAM_NAMES), unique=True,
                           max_size=3))
    params = [Param(name, draw(st.booleans())) for name in params]
    scalars = _scalars(tuple(p.name for p in params))
    index = st.integers(0, dim - 1)
    mu = draw(st.dictionaries(st.tuples(index, index, index), scalars,
                              min_size=1, max_size=4))
    maps = draw(st.dictionaries(
        st.sampled_from(("f", "alpha", "g2", "g10")),
        st.lists(st.lists(scalars, min_size=dim, max_size=dim),
                 min_size=dim, max_size=dim).map(LinMap),
        max_size=2))
    twist = draw(st.sampled_from((None,) + tuple(sorted(maps))))
    unit = draw(st.one_of(st.none(), index))
    algebra = AlgebraSpec("rand", dim, basis, params,
                          [(i, j, k, c) for (i, j, k), c in mu.items()],
                          alpha=maps[twist] if twist else None, unit=unit)
    return algebra, maps, twist


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=algebra_files())
def test_random_tables_round_trip(drawn):
    algebra, maps, twist = drawn
    text = saves(algebra, maps=maps, twist=twist)
    loaded = loads(text)
    assert loaded.algebra == algebra
    assert loaded.maps == maps
    assert loaded.twist == twist
    assert saves(loaded.algebra, maps=loaded.maps, twist=loaded.twist) == text
