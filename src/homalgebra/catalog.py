"""Built-in reference algebras, endomorphism families and twisted tables.

The twisted tables are stored as independent data, not generated from the
base tables: recomputing the twist and comparing against the stored entries
is a deliberate cross-check (see tests).  Each entry records the verdicts
claimed for it by its source material in `expected`; the test suite reports
where a claim disagrees with the computed truth instead of silently fixing
either side.
"""

from __future__ import annotations

from .algebra import AlgebraSpec, LinMap, Param
from .errors import UnknownKey
from .parser import parse_scalar_expr
from .record import Record
from .scalars import Scalar, declared_variables


class CatalogEntry(Record):
    __slots__ = ("key", "algebra", "maps", "provenance", "expected")

    def __init__(self, key, algebra, maps, provenance, expected=()):
        self.key = key
        self.algebra = algebra
        self.maps = maps
        self.provenance = provenance
        self.expected = expected    # of (identity name, "holds" | "fails")


def _scalars(params):
    declared = declared_variables([p.name for p in params])
    return lambda text: parse_scalar_expr(text, declared)


def _table_from_rows(basis, rows):
    """rows: {row_label: list of entry strings in basis column order}.

    Entry syntax: '0', 'e4', '-e4', 'a*b e4', '-a*b e4' (coefficient then
    target label, sign folded into the coefficient).
    """
    table = {}
    for li, entries in rows.items():
        for lj, cell in zip(basis, entries):
            cell = cell.strip()
            if cell == "0":
                continue
            neg = cell.startswith("-")
            if neg:
                cell = cell[1:]
            if " " in cell:
                coeff, target = cell.split(" ")
            else:
                coeff, target = "1", cell
            table[(li, lj)] = {target: ("-" if neg else "") + coeff}
        if len(entries) != len(basis):
            raise ValueError("row %r has %d entries" % (li, len(entries)))
    return table


def _resolve(table, params):
    parse = _scalars(params)
    return {key: {t: parse(expr) for t, expr in value.items()}
            for key, value in table.items()}


# --- 3-dimensional twisted-associative family ------------------------------------

_AB = (Param("a", nonzero=True), Param("b", nonzero=True))


def _hom_assoc_3d():
    basis = ("e1", "e2", "e3")
    table = _resolve({
        ("e1", "e1"): {"e1": "a"},
        ("e1", "e2"): {"e2": "a"},
        ("e2", "e1"): {"e2": "a"},
        ("e1", "e3"): {"e3": "b"},
        ("e3", "e1"): {"e3": "b"},
        ("e2", "e2"): {"e2": "a"},
        ("e2", "e3"): {"e3": "b"},
    }, _AB)
    alpha = LinMap.diagonal([Scalar.var("a"), Scalar.var("a"), Scalar.var("b")])
    algebra = AlgebraSpec.from_table("hom_assoc_3d", basis, table,
                                     params=_AB, alpha=alpha)
    return CatalogEntry(
        key="hom_assoc_3d",
        algebra=algebra,
        maps={"alpha": algebra.alpha},
        provenance="3-dimensional twisted-associative family over a, b; "
                   "the product e3*e1 is read symmetrically as b e3 to match "
                   "e1*e3",
        expected=(("hom_associative", "holds"),),
    )


# --- the two 4-dimensional alternative non-associative algebras --------------------

_A4_PARAMS_1 = tuple(Param("a%d" % i, nonzero=(i == 2)) for i in range(1, 6))
_A4_PARAMS_2 = tuple(Param("a%d" % i, nonzero=(i in (2, 5))) for i in range(1, 7))
_A4_BASIS = ("e0", "e1", "e2", "e3")


def _alpha1():
    parse = _scalars(_A4_PARAMS_1)
    cols = {
        "e0": {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        "e1": {},
        "e2": {"e2": "a4", "e3": "a4*a3/a2"},
        "e3": {"e2": "a5", "e3": "a5*a3/a2"},
    }
    return _linmap_from_columns(cols, _A4_BASIS, parse)


def _alpha2():
    parse = _scalars(_A4_PARAMS_2)
    cols = {
        "e0": {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        "e1": {"e1": "a4"},
        "e2": {"e2": "-a4*a2/a5", "e3": "-a4*a3/a5"},
        "e3": {"e1": "a5", "e2": "a6", "e3": "(a6*a3-a5)/a2"},
    }
    return _linmap_from_columns(cols, _A4_BASIS, parse)


def _linmap_from_columns(cols, basis, parse):
    index = {label: i for i, label in enumerate(basis)}
    n = len(basis)
    rows = [[Scalar.zero()] * n for _ in range(n)]
    for lj, column in cols.items():
        for li, expr in column.items():
            rows[index[li]][index[lj]] = parse(expr)
    return LinMap(rows)


def _alt4_mu1():
    table = _resolve({
        ("e0", "e0"): {"e0": "1"},
        ("e0", "e1"): {"e1": "1"},
        ("e2", "e0"): {"e2": "1"},
        ("e2", "e3"): {"e1": "1"},
        ("e3", "e0"): {"e3": "1"},
        ("e3", "e2"): {"e1": "-1"},
    }, ())
    algebra = AlgebraSpec.from_table("alt4_mu1", _A4_BASIS, table,
                                     params=_A4_PARAMS_2)
    return CatalogEntry(
        key="alt4_mu1",
        algebra=algebra,
        maps={"alpha1": _alpha1(), "alpha2": _alpha2()},
        provenance="first of the two 4-dimensional alternative but not "
                   "associative algebras; endomorphism families alpha1 "
                   "(a2 != 0) and alpha2 (a2, a5 != 0) attached",
        expected=(("left_hom_alternative", "holds"),
                  ("right_hom_alternative", "holds"),
                  ("hom_associative", "fails")),
    )


def _alt4_mu2():
    table = _resolve({
        ("e0", "e0"): {"e0": "1"},
        ("e0", "e2"): {"e2": "1"},
        ("e0", "e3"): {"e3": "1"},
        ("e1", "e0"): {"e1": "1"},
        ("e2", "e3"): {"e1": "1"},
        ("e3", "e2"): {"e1": "-1"},
    }, ())
    algebra = AlgebraSpec.from_table("alt4_mu2", _A4_BASIS, table,
                                     params=_A4_PARAMS_2)
    return CatalogEntry(
        key="alt4_mu2",
        algebra=algebra,
        maps={"alpha1": _alpha1(), "alpha2": _alpha2()},
        provenance="second 4-dimensional alternative non-associative algebra, "
                   "anti-isomorphic to the first via e1 -> -e1",
        expected=(("left_hom_alternative", "holds"),
                  ("right_hom_alternative", "holds"),
                  ("hom_associative", "fails")),
    )


_TWIST_CLAIMS = (("left_hom_alternative", "holds"),
                 ("right_hom_alternative", "holds"))


def _alt4_twist(key, table, params, map_name, alpha, provenance):
    """A 4-dimensional table twisted by alpha, which is also attached as the
    map map_name."""
    algebra = AlgebraSpec.from_table(key, _A4_BASIS, _resolve(table, params),
                                     params=params, alpha=alpha)
    return CatalogEntry(key=key, algebra=algebra,
                        maps={map_name: algebra.alpha},
                        provenance=provenance, expected=_TWIST_CLAIMS)


def _alt4_mu1_twist_alpha1():
    return _alt4_twist("alt4_mu1_twist_alpha1", {
        ("e0", "e0"): {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        ("e2", "e0"): {"e2": "a4", "e3": "a4*a3/a2"},
        ("e3", "e0"): {"e2": "a5", "e3": "a5*a3/a2"},
    }, _A4_PARAMS_1, "alpha1", _alpha1(),
        "first 4-dimensional table twisted by alpha1; products landing on e1 "
        "vanish because alpha1(e1) = 0")


def _alt4_mu2_twist_alpha1():
    return _alt4_twist("alt4_mu2_twist_alpha1", {
        ("e0", "e0"): {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        ("e0", "e2"): {"e2": "a4", "e3": "a4*a3/a2"},
        ("e0", "e3"): {"e2": "a5", "e3": "a5*a3/a2"},
    }, _A4_PARAMS_1, "alpha1", _alpha1(),
        "second 4-dimensional table twisted by alpha1")


def _alt4_mu1_twist_alpha2():
    return _alt4_twist("alt4_mu1_twist_alpha2", {
        ("e0", "e0"): {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        ("e0", "e1"): {"e1": "a4"},
        ("e2", "e0"): {"e2": "-a4*a2/a5", "e3": "-a4*a3/a5"},
        ("e2", "e3"): {"e1": "a4"},
        # alpha2(e3); a printed transcription of this family shows a bare e3
        # here, which is inconsistent with the twist and with alpha2(e1)=a4 e1
        ("e3", "e0"): {"e1": "a5", "e2": "a6", "e3": "(a6*a3-a5)/a2"},
        ("e3", "e2"): {"e1": "-a4"},
    }, _A4_PARAMS_2, "alpha2", _alpha2(),
        "first 4-dimensional table twisted by alpha2; the (e3, e0) product is "
        "alpha2(e3)")


def _alt4_mu2_twist_alpha2():
    return _alt4_twist("alt4_mu2_twist_alpha2", {
        ("e0", "e0"): {"e0": "1", "e1": "a1", "e2": "a2", "e3": "a3"},
        ("e0", "e2"): {"e2": "-a4*a2/a5", "e3": "-a4*a3/a5"},
        ("e0", "e3"): {"e1": "a5", "e2": "a6", "e3": "(a6*a3-a5)/a2"},
        ("e1", "e0"): {"e1": "a4"},
        ("e2", "e3"): {"e1": "a4"},
        ("e3", "e2"): {"e1": "-a4"},
    }, _A4_PARAMS_2, "alpha2", _alpha2(),
        "second 4-dimensional table twisted by alpha2")


# --- octonions ----------------------------------------------------------------------

_OCT_BASIS = ("u", "e1", "e2", "e3", "e4", "e5", "e6", "e7")
_OCT_PARAMS = (Param("a"), Param("b"), Param("c"))

# row label multiplied by column label, columns in basis order
_OCT_ROWS = {
    "u":  ["u",   "e1",  "e2",  "e3",  "e4",  "e5",  "e6",  "e7"],
    "e1": ["e1",  "-u",  "e4",  "e7",  "-e2", "e6",  "-e5", "-e3"],
    "e2": ["e2",  "-e4", "-u",  "e5",  "e1",  "-e3", "e7",  "-e6"],
    "e3": ["e3",  "-e7", "-e5", "-u",  "e6",  "e2",  "-e4", "e1"],
    "e4": ["e4",  "e2",  "-e1", "-e6", "-u",  "e7",  "e3",  "-e5"],
    "e5": ["e5",  "-e6", "e3",  "-e2", "-e7", "-u",  "e1",  "e4"],
    "e6": ["e6",  "e5",  "-e7", "e4",  "-e3", "-e1", "-u",  "e2"],
    "e7": ["e7",  "e3",  "e6",  "-e1", "e5",  "-e4", "-e2", "-u"],
}

_OCT_TWIST_ROWS = {
    "u":  ["u",         "a e1",     "b e2",     "c e3",     "a*b e4",   "b*c e5",   "a*b*c e6", "a*c e7"],
    "e1": ["a e1",      "-u",       "a*b e4",   "a*c e7",   "-b e2",    "a*b*c e6", "-b*c e5",  "-c e3"],
    "e2": ["b e2",      "-a*b e4",  "-u",       "b*c e5",   "a e1",     "-c e3",    "a*c e7",   "-a*b*c e6"],
    "e3": ["c e3",      "-a*c e7",  "-b*c e5",  "-u",       "a*b*c e6", "b e2",     "-a*b e4",  "a e1"],
    "e4": ["a*b e4",    "b e2",     "-a e1",    "-a*b*c e6", "-u",      "a*c e7",   "c e3",     "-b*c e5"],
    "e5": ["b*c e5",    "-a*b*c e6", "c e3",    "-b e2",    "-a*c e7",  "-u",       "a e1",     "a*b e4"],
    "e6": ["a*b*c e6",  "b*c e5",   "-a*c e7",  "a*b e4",   "-c e3",    "-a e1",    "-u",       "b e2"],
    "e7": ["a*c e7",    "c e3",     "a*b*c e6", "-a e1",    "b*c e5",   "-a*b e4",  "-b e2",    "-u"],
}


def _oct_diag():
    parse = _scalars(_OCT_PARAMS)
    entries = [parse(t) for t in
               ("1", "a", "b", "c", "a*b", "b*c", "a*b*c", "a*c")]
    return LinMap.diagonal(entries)


def _octonions():
    table = _resolve(_table_from_rows(_OCT_BASIS, _OCT_ROWS), _OCT_PARAMS)
    algebra = AlgebraSpec.from_table("octonions", _OCT_BASIS, table,
                                     params=_OCT_PARAMS, unit="u")
    return CatalogEntry(
        key="octonions",
        algebra=algebra,
        maps={"oct_diag": _oct_diag()},
        provenance="Cayley octonion table with unit u, imaginary units "
                   "squaring to -u; diagonal scaling family oct_diag attached",
        expected=(("left_hom_alternative", "holds"),
                  ("right_hom_alternative", "holds"),
                  ("hom_associative", "fails")),
    )


def _octonions_twist_diag():
    table = _resolve(_table_from_rows(_OCT_BASIS, _OCT_TWIST_ROWS), _OCT_PARAMS)
    algebra = AlgebraSpec.from_table("octonions_twist_diag", _OCT_BASIS, table,
                                     params=_OCT_PARAMS, alpha=_oct_diag())
    return CatalogEntry(
        key="octonions_twist_diag",
        algebra=algebra,
        maps={"oct_diag": algebra.alpha},
        provenance="octonion product composed with the diagonal scaling "
                   "family; stored as an independent transcription of the "
                   "twist.  Caution: oct_diag is not an algebra endomorphism "
                   "for symbolic a, b, c (defect (a^2-1)(-u) at (e1, e1)), so "
                   "the twist-construction guarantees do not cover this table",
        expected=(("left_hom_alternative", "holds"),
                  ("right_hom_alternative", "holds")),
    )


# --- polarized Jordan table ------------------------------------------------------------


def _hom_jordan_3d():
    basis = ("e1", "e2", "e3")
    table = _resolve({
        ("e1", "e1"): {"e1": "a"},
        ("e1", "e2"): {"e2": "a"},
        ("e2", "e1"): {"e2": "a"},
        ("e1", "e3"): {"e3": "b"},
        ("e3", "e1"): {"e3": "b"},
        ("e2", "e2"): {"e2": "a"},
        ("e2", "e3"): {"e3": "1/2*b"},
        ("e3", "e2"): {"e3": "1/2*b"},
    }, _AB)
    alpha = LinMap.diagonal([Scalar.var("a"), Scalar.var("a"), Scalar.var("b")])
    algebra = AlgebraSpec.from_table("hom_jordan_3d", basis, table,
                                     params=_AB, alpha=alpha)
    return CatalogEntry(
        key="hom_jordan_3d",
        algebra=algebra,
        maps={"alpha": algebra.alpha},
        provenance="polarization of the 3-dimensional twisted-associative "
                   "family; both (e2, e3) and (e3, e2) carry b/2 e3 so the "
                   "table is commutative (a printed transcription shows 0 at "
                   "(e3, e2), which polarization rules out)",
        expected=(("commutative", "holds"), ("hom_jordan", "holds")),
    )


# every entry's builder, in the presentation order; an entry is built on its
# first lookup
_BUILDERS = {
    "hom_assoc_3d": _hom_assoc_3d,
    "alt4_mu1": _alt4_mu1,
    "alt4_mu2": _alt4_mu2,
    "alt4_mu1_twist_alpha1": _alt4_mu1_twist_alpha1,
    "alt4_mu2_twist_alpha1": _alt4_mu2_twist_alpha1,
    "alt4_mu1_twist_alpha2": _alt4_mu1_twist_alpha2,
    "alt4_mu2_twist_alpha2": _alt4_mu2_twist_alpha2,
    "octonions": _octonions,
    "octonions_twist_diag": _octonions_twist_diag,
    "hom_jordan_3d": _hom_jordan_3d,
}

_ENTRIES = {}   # key -> entry, for the entries built so far


def list_keys():
    """All catalog keys, in a fixed presentation order."""
    return tuple(_BUILDERS)


def get(key):
    """Catalog entry by key; raises UnknownKey otherwise."""
    entry = _ENTRIES.get(key)
    if entry is None:
        try:
            build = _BUILDERS[key]
        except KeyError:
            raise UnknownKey("no catalog entry named %r" % key) from None
        entry = _ENTRIES[key] = build()
    return entry
