"""Algebra file format (JSON) and verification reports.

A file holds one algebra: name, dim, basis labels, parameter declarations,
the sparse product table keyed by basis labels, optional named maps (square
matrices of scalar expressions), an optional twist designation naming the
map that acts as the twisting map, and an optional unit label.  Omitted
products are zero.  Scalar entries use the expression grammar from
homalgebra.parser.

Saving is canonical: fixed key order, products sorted in basis order,
scalars printed in canonical form.  load(save(A)) reproduces A exactly.
"""

from __future__ import annotations

import json

from .algebra import AlgebraSpec, LinMap, Param
from .errors import DivisionByZero, ParseError, ValidationError
from .parser import declared_variables, parse_scalar_expr
from .record import Record


class AlgebraFile(Record):
    """A loaded algebra together with its named maps."""

    __slots__ = ("algebra", "maps", "twist")
    __hash__ = None

    def __init__(self, algebra, maps, twist=None):
        self.algebra = algebra
        self.maps = maps
        self.twist = twist


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text, source=str(path))


def loads(text, source="<string>"):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid algebra file %s: %s" % (source, exc.msg),
                         exc.pos, exc.lineno, exc.colno,
                         expected="well-formed JSON", found=None) from None
    except RecursionError:
        raise ValidationError("%s: JSON nested too deeply" % source) from None
    except ValueError:
        # json turns a number into an int past Python's conversion limit
        raise ValidationError("%s: JSON number has too many digits"
                              % source) from None
    if not isinstance(doc, dict):
        raise ValidationError("%s: algebra file must be a JSON object" % source)

    name = _need(doc, "name", str, source)
    dim = _need(doc, "dim", int, source)
    if dim <= 0:
        raise ValidationError("%s: dim must be positive" % source)
    basis = _need(doc, "basis", list, source)
    if len(basis) != dim or not all(isinstance(b, str) for b in basis):
        raise ValidationError("%s: basis must list %d labels" % (source, dim))
    if len(set(basis)) != dim:
        raise ValidationError("%s: basis labels must be distinct" % source)
    index = {label: i for i, label in enumerate(basis)}

    params = []
    for pos, p in enumerate(_need(doc, "params", list, source, default=[])):
        if not isinstance(p, dict) or "name" not in p:
            raise ValidationError("%s: params[%d] must be {name, nonzero}"
                                  % (source, pos))
        params.append(Param(str(p["name"]), bool(p.get("nonzero", False))))
    param_names = [p.name for p in params]
    if len(set(param_names)) != len(param_names):
        raise ValidationError("%s: duplicate parameter declaration" % source)

    def resolve(label, where):
        if not isinstance(label, str) or label not in index:
            raise ValidationError("%s: %s references unknown basis label %r"
                                  % (source, where, label))
        return index[label]

    # each distinct scalar string is parsed once per file: Scalars are
    # immutable, so its entries can share the value
    parsed = {}
    declared = declared_variables(param_names)

    def parse(expr, where):
        value = parsed.get(expr)
        if value is None:
            try:
                value = parse_scalar_expr(expr, declared)
            except (ParseError, DivisionByZero) as exc:
                raise ValidationError("%s: %s: %s"
                                      % (source, where, exc)) from None
            parsed[expr] = value
        return value

    mu = []
    for pos, entry in enumerate(_need(doc, "mu", list, source, default=[])):
        where = "mu[%d]" % pos
        if not isinstance(entry, dict) or not {"i", "j", "value"} <= set(entry):
            raise ValidationError("%s: %s must be {i, j, value}" % (source, where))
        if not isinstance(entry["value"], dict):
            raise ValidationError("%s: %s.value must be an object"
                                  % (source, where))
        i = resolve(entry["i"], where)
        j = resolve(entry["j"], where)
        for lk, expr in entry["value"].items():
            k = resolve(lk, where + ".value")
            mu.append((i, j, k, parse(str(expr), "%s.value[%s]" % (where, lk))))

    maps = {}
    for mname, matrix in sorted(_need(doc, "maps", dict, source,
                                      default={}).items()):
        where = "maps[%s]" % mname
        if (not isinstance(matrix, list) or len(matrix) != dim
                or any(not isinstance(row, list) or len(row) != dim
                       for row in matrix)):
            raise ValidationError("%s: %s must be a %dx%d matrix"
                                  % (source, where, dim, dim))
        rows = [[parse(str(matrix[r][c]), "%s[%d][%d]" % (where, r, c))
                 for c in range(dim)] for r in range(dim)]
        maps[mname] = LinMap(rows)

    twist = doc.get("twist")
    alpha = None
    if twist is not None:
        if not isinstance(twist, str) or twist not in maps:
            raise ValidationError("%s: twist %r does not name a map"
                                  % (source, twist))
        alpha = maps[twist]

    unit = doc.get("unit")
    unit_index = resolve(unit, "unit") if unit is not None else None

    try:
        algebra = AlgebraSpec(name, dim, basis, params=params, mu=mu,
                              alpha=alpha, unit=unit_index)
    except ValueError as exc:
        raise ValidationError("%s: %s" % (source, exc)) from None
    return AlgebraFile(algebra=algebra, maps=maps, twist=twist)


def _need(doc, key, kind, source, default=None):
    """doc[key], checked to be a kind; a missing key is an error unless a
    default is given."""
    if key not in doc:
        if default is not None:
            return default
        raise ValidationError("%s: missing field %r" % (source, key))
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError("%s: field %r must be %s"
                              % (source, key, kind.__name__))
    return value


def saves(algebra, maps=None, twist=None):
    """Canonical file text for an algebra and its named maps."""
    maps = dict(maps or {})
    if algebra.alpha is not None:
        if twist is None:
            for mname, m in maps.items():
                if m == algebra.alpha:
                    twist = mname
                    break
            else:
                twist = "alpha"
                while twist in maps:   # avoid clobbering an unrelated map
                    twist = "_" + twist
                maps[twist] = algebra.alpha
        elif twist not in maps:
            maps[twist] = algebra.alpha
    doc = {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.basis),
        "params": [{"name": p.name, "nonzero": p.nonzero} for p in algebra.params],
        "mu": _mu_entries(algebra),
        "maps": {mname: [[str(m.entry(r, c)) for c in range(m.dim)]
                         for r in range(m.dim)]
                 for mname, m in sorted(maps.items())},
    }
    if twist is not None:
        doc["twist"] = twist
    if algebra.unit is not None:
        doc["unit"] = algebra.basis[algebra.unit]
    return json.dumps(doc, indent=2) + "\n"


def _mu_entries(algebra):
    grouped = {}
    for i, j, k, c in algebra.mu:
        grouped.setdefault((i, j), {})[k] = c
    out = []
    for (i, j) in sorted(grouped):
        value = {algebra.basis[k]: str(c)
                 for k, c in sorted(grouped[(i, j)].items())}
        out.append({"i": algebra.basis[i], "j": algebra.basis[j], "value": value})
    return out


def save(algebra, path, maps=None, twist=None):
    text = saves(algebra, maps=maps, twist=twist)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# --- reports -----------------------------------------------------------------------


class CheckRecord(Record):
    __slots__ = ("identity", "strategy", "verdict", "witness", "assumptions",
                 "elapsed", "note")
    __hash__ = None

    def __init__(self, identity, strategy, verdict, witness=None,
                 assumptions=(), elapsed=0.0, note=""):
        self.identity = identity
        self.strategy = strategy
        self.verdict = verdict
        self.witness = witness
        self.assumptions = assumptions
        self.elapsed = elapsed
        self.note = note

    def to_json(self):
        # elapsed is intentionally omitted: identical inputs must give
        # byte-identical machine-readable reports
        out = {
            "identity": self.identity,
            "strategy": self.strategy,
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness else None,
            "assumptions": list(self.assumptions),
        }
        if self.note:
            out["note"] = self.note
        return out


class Report(Record):
    __slots__ = ("command", "subject", "records", "notes")
    __hash__ = None

    def __init__(self, command, subject, records=None, notes=None):
        self.command = command
        self.subject = subject
        self.records = [] if records is None else records
        self.notes = [] if notes is None else notes

    def add(self, record):
        self.records.append(record)

    @property
    def all_hold(self):
        return all(r.verdict != "fails" for r in self.records)

    def to_json(self):
        return {
            "command": self.command,
            "subject": self.subject,
            "notes": list(self.notes),
            "checks": [r.to_json() for r in self.records],
            "all_hold": self.all_hold,
        }

    def render_json(self):
        return json.dumps(self.to_json(), indent=2) + "\n"

    def render_text(self):
        lines = ["%s: %s" % (self.command, self.subject)]
        for note in self.notes:
            lines.append("  note: %s" % note)
        for r in self.records:
            line = "  %-38s %-8s %s" % (r.identity, "[%s]" % r.strategy, r.verdict)
            if r.elapsed:
                line += "  (%.3fs)" % r.elapsed
            lines.append(line)
            if r.assumptions:
                lines.append("      assuming: %s" % ", ".join(r.assumptions))
            if r.witness is not None:
                w = r.witness
                detail = []
                if w.at:
                    detail.append("at (%s)" % ", ".join(w.at))
                if w.coordinate:
                    detail.append("coordinate %s" % w.coordinate)
                if w.residual is not None:
                    detail.append("residual %s" % w.residual)
                lines.append("      witness: %s" % "; ".join(detail))
                if w.specialization:
                    binds = "; ".join(
                        "%s = (%s)" % (v, ", ".join(str(c) for c in coords))
                        for v, coords in sorted(w.specialization.items()))
                    lines.append("      counterexample: %s" % binds)
            if r.note:
                lines.append("      note: %s" % r.note)
        lines.append("result: %s" % ("all checks hold" if self.all_hold
                                     else "some checks fail"))
        return "\n".join(lines) + "\n"
