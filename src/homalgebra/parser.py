"""Parsers for the scalar expression syntax and the identity language.

Scalar grammar (used in algebra files and on the command line):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := uint | ident | '(' expr ')'        '-' allowed as unary prefix

Identity grammar:

    equation := iexpr '=' iexpr
    iexpr    := ['-'] iterm (('+'|'-') iterm)*  |  '0'
    iterm    := [rational '*'] ifactor
    ifactor  := ident
              | 'al' ['^' uint] '(' iexpr ')'
              | 'mu' '(' iexpr ',' iexpr ')'
              | '(' iexpr ')'

Identifiers other than al/mu are identity variables, collected in first-use
order.  Rational coefficients are literal p or p/q; parametric coefficients
are only available through the programmatic AST.  The parsed equation is
normalized to lhs - rhs = 0.

Both grammars recurse once per open bracket, so the tokenizer refuses input
nested deeper than _MAX_NESTING; both refuse an exponent (of a scalar or of
al) above _MAX_EXPONENT.  An integer token is ASCII digits only, at most
_MAX_DIGITS of them.

This module holds the syntax of the identity language: its tree (Var,
Alpha, Mu, Scale, Sum under an IdentityAST), the parser and the printer
identity_to_text.  Evaluation and checking live in homalgebra.identities.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ArityError, ParseError, UndeclaredParameter
from .record import Record
from .scalars import Scalar, _Wide

_SYMBOLS = ("+", "-", "*", "/", "^", "(", ")", ",", "=")
_MAX_NESTING = 100   # far beyond real expressions, within Python's stack
# a scalar power costs one multiplication per unit of its exponent, and
# al^32 of a 4-dim parametric map takes 5 compositions, by halving; the
# paper's identities use al^2 at most
_MAX_EXPONENT = 32
# far beyond any coefficient in practice, well within Python's int-string
# conversion limit (4300 digits)
_MAX_DIGITS = 1000
_DIGITS = frozenset("0123456789")


# --- the identity tree ------------------------------------------------------------


class _Node(Record):
    """A node of the identity tree.  The tree is never changed after it is
    built, so each node computes its hash once, in __init__: the evaluation
    memo hashes every node it visits.  The slot _hash is not a field; the
    fields are the __slots__ of each node class."""

    __slots__ = ("_hash",)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self._values() == other._values()


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self._hash = hash((name,))


class Alpha(_Node):
    __slots__ = ("power", "child")

    def __init__(self, power, child):
        if power < 1:
            raise ValueError("Alpha power must be >= 1")
        self.power = power
        self.child = child
        self._hash = hash((power, child))


class Mu(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._hash = hash((left, right))


class Scale(_Node):
    __slots__ = ("coeff", "child")

    def __init__(self, coeff, child):
        self.coeff = coeff      # a Scalar
        self.child = child
        self._hash = hash((coeff, child))


class Sum(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms      # tuple of (sign, node) with sign +1 / -1
        self._hash = hash((terms,))


class IdentityAST(_Node):
    """Expression asserted to vanish for all values of its variables."""

    __slots__ = ("vars", "body")

    def __init__(self, vars, body):
        self.vars = vars
        self.body = body
        self._hash = hash((vars, body))


def _subterms(node):
    """Every node of the tree under node, in pre-order: a node before its
    children, children left to right."""
    yield node
    if isinstance(node, (Alpha, Scale)):
        yield from _subterms(node.child)
    elif isinstance(node, Mu):
        yield from _subterms(node.left)
        yield from _subterms(node.right)
    elif isinstance(node, Sum):
        for _, child in node.terms:
            yield from _subterms(child)


def identity_to_text(ast):
    """Surface form of an AST in the identity grammar, as 'expr = 0'."""
    return "%s = 0" % _node_text(ast.body, top=True)


def _node_text(node, top=False):
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Alpha):
        head = "al" if node.power == 1 else "al^%d" % node.power
        return "%s(%s)" % (head, _node_text(node.child, top=True))
    if isinstance(node, Mu):
        return "mu(%s, %s)" % (_node_text(node.left, top=True),
                               _node_text(node.right, top=True))
    if isinstance(node, Scale):
        coeff = node.coeff.num.constant_value()
        return "%s*%s" % (coeff, _node_text(node.child))
    if isinstance(node, Sum):
        if not node.terms:
            return "0"
        parts = []
        for sign, child in node.terms:
            text = _node_text(child)
            if not parts:
                parts.append(text if sign > 0 else "-" + text)
            else:
                parts.append((" + " if sign > 0 else " - ") + text)
        body = "".join(parts)
        return body if top else "(%s)" % body
    raise TypeError("unknown AST node %r" % (node,))


class _Token:
    __slots__ = ("kind", "text", "offset", "line", "column")

    def __init__(self, kind, text, offset, line, column):
        self.kind = kind
        self.text = text
        self.offset = offset
        self.line = line
        self.column = column

    def __repr__(self):
        return "_Token(%s, %r)" % (self.kind, self.text)


def _tokenize(text):
    tokens = []
    i, line, col, depth = 0, 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start, sline, scol = i, line, col
        if ch in _DIGITS:
            while i < n and text[i] in _DIGITS:
                i += 1
                col += 1
            if i - start > _MAX_DIGITS:
                raise ParseError("integer of %d digits exceeds the limit %d"
                                 % (i - start, _MAX_DIGITS), start, sline, scol,
                                 expected="at most %d digits" % _MAX_DIGITS,
                                 found=text[start:start + 20] + "...")
            tokens.append(_Token("int", text[start:i], start, sline, scol))
        elif ch.isalpha() or ch == "_":
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("ident", text[start:i], start, sline, scol))
        elif ch in _SYMBOLS:
            depth += (ch == "(") - (ch == ")")
            if depth > _MAX_NESTING:
                raise ParseError("nesting deeper than %d levels" % _MAX_NESTING,
                                 start, sline, scol, expected="')'", found=ch)
            i += 1
            col += 1
            tokens.append(_Token(ch, ch, start, sline, scol))
        else:
            raise ParseError("unexpected character %r" % ch, start, sline, scol,
                             expected="token", found=ch)
    tokens.append(_Token("eof", "", n, line, col))
    return tokens


class _Cursor:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind, description=None):
        tok = self.current
        if tok.kind != kind:
            raise ParseError(
                "expected %s, found %r" % (description or kind, tok.text or "end of input"),
                tok.offset, tok.line, tok.column,
                expected=description or kind, found=tok.text)
        return self.advance()

    def exponent(self, description):
        """The integer after '^', refused at its token above _MAX_EXPONENT."""
        tok = self.expect("int", description)
        if int(tok.text) > _MAX_EXPONENT:
            raise ParseError("exponent %s exceeds the limit %d"
                             % (tok.text, _MAX_EXPONENT),
                             tok.offset, tok.line, tok.column,
                             expected="exponent <= %d" % _MAX_EXPONENT,
                             found=tok.text)
        return tok

    def fail(self, description):
        tok = self.current
        raise ParseError(
            "expected %s, found %r" % (description, tok.text or "end of input"),
            tok.offset, tok.line, tok.column,
            expected=description, found=tok.text)


# --- scalar expressions --------------------------------------------------------


def declared_variables(names):
    """The params of parse_scalar_expr for the scalars of one table and its
    maps: names as variables in one layout, so those scalars need no
    re-pack, or names as they are when that layout would be wide, so that
    each scalar takes a layout of the names it uses."""
    gens = Scalar.gens(names)
    if gens and isinstance(gens[0].num.ring, _Wide):
        return names
    return dict(zip(names, gens))


def parse_scalar_expr(text, params):
    """Parse a scalar expression over the declared parameter names params,
    or over a dict of them to their variables in one layout, which the
    expressions parsed with that dict share (see declared_variables)."""
    cur = _Cursor(text)
    declared = params
    if not isinstance(params, dict):
        # the declared names the expression uses, as variables in one layout
        used = list(set(params).intersection(
            t.text for t in cur.tokens if t.kind == "ident"))
        declared = dict(zip(used, Scalar.gens(used))) if used else {}
    value = _scalar_expr(cur, declared)
    if cur.current.kind != "eof":
        cur.fail("end of input")
    return value


def _scalar_expr(cur, declared):
    negate = False
    while cur.current.kind in ("+", "-"):
        if cur.advance().kind == "-":
            negate = not negate
    value = _scalar_term(cur, declared)
    if negate:
        value = -value
    while cur.current.kind in ("+", "-"):
        op = cur.advance().kind
        rhs = _scalar_term(cur, declared)
        value = value + rhs if op == "+" else value - rhs
    return value


def _scalar_term(cur, declared):
    value = _scalar_factor(cur, declared)
    while cur.current.kind in ("*", "/"):
        op = cur.advance().kind
        rhs = _scalar_factor(cur, declared)
        value = value * rhs if op == "*" else value / rhs
    return value


def _scalar_factor(cur, declared):
    negate = False
    while cur.current.kind == "-":
        cur.advance()
        negate = not negate
    base = _scalar_base(cur, declared)
    if cur.current.kind == "^":
        cur.advance()
        base = base ** int(cur.exponent("integer exponent").text)
    return -base if negate else base


def _scalar_base(cur, declared):
    tok = cur.current
    if tok.kind == "int":
        cur.advance()
        return Scalar.from_fraction(int(tok.text))
    if tok.kind == "ident":
        if tok.text not in declared:
            raise UndeclaredParameter(
                "undeclared parameter %r" % tok.text,
                tok.offset, tok.line, tok.column,
                expected="declared parameter", found=tok.text)
        cur.advance()
        return declared[tok.text]
    if tok.kind == "(":
        cur.advance()
        value = _scalar_expr(cur, declared)
        cur.expect(")", "closing parenthesis")
        return value
    cur.fail("number, parameter or parenthesized expression")


# --- identities ------------------------------------------------------------------


def parse_identity(text):
    """Parse an equation of the identity language into an IdentityAST."""
    cur = _Cursor(text)
    lhs = _iexpr(cur)
    cur.expect("=", "'='")
    rhs = _iexpr(cur)
    if cur.current.kind != "eof":
        cur.fail("end of input")
    body = _sum_terms(_signed_terms(lhs, 1) + _signed_terms(rhs, -1))
    variables = dict.fromkeys(n.name for n in _subterms(body) if isinstance(n, Var))
    return IdentityAST(vars=tuple(variables), body=body)


def _sum_terms(terms):
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return Sum(tuple(terms))


def _iexpr(cur):
    # literal zero: the empty sum
    if cur.current.kind == "int" and cur.current.text == "0":
        cur.advance()
        return Sum(())
    terms = []
    sign = 1
    if cur.current.kind in ("+", "-"):
        if cur.advance().kind == "-":
            sign = -1
    terms.extend(_signed_terms(_iterm(cur), sign))
    while cur.current.kind in ("+", "-"):
        op = cur.advance().kind
        terms.extend(_signed_terms(_iterm(cur), 1 if op == "+" else -1))
    return _sum_terms(terms)


def _signed_terms(node, sign):
    if isinstance(node, Sum):
        return [(sign * s, child) for s, child in node.terms]
    return [(sign, node)]


def _iterm(cur):
    if cur.current.kind == "int":
        # rational coefficient: INT ['/' INT] '*' ifactor
        num_tok = cur.advance()
        coeff = Fraction(int(num_tok.text))
        if cur.current.kind == "/":
            cur.advance()
            den_tok = cur.expect("int", "integer denominator")
            if int(den_tok.text) == 0:
                raise ParseError("zero denominator in coefficient",
                                 den_tok.offset, den_tok.line, den_tok.column,
                                 expected="nonzero integer", found=den_tok.text)
            coeff /= int(den_tok.text)
        cur.expect("*", "'*' after coefficient")
        child = _ifactor(cur)
        if coeff == 1:
            return child
        return Scale(Scalar.from_fraction(coeff), child)
    return _ifactor(cur)


def _ifactor(cur):
    tok = cur.current
    if tok.kind == "ident":
        cur.advance()
        if tok.text == "mu":
            return Mu(*_arguments(cur, "mu", 2, "',' or ')' in mu(...)"))
        if tok.text == "al":
            power = 1
            if cur.current.kind == "^":
                cur.advance()
                ptok = cur.exponent("integer power")
                power = int(ptok.text)
                if power < 1:
                    raise ParseError("al power must be >= 1",
                                     ptok.offset, ptok.line, ptok.column,
                                     expected="positive integer", found=ptok.text)
            return Alpha(power, *_arguments(cur, "al", 1, "')' in al(...)"))
        return Var(tok.text)
    if tok.kind == "(":
        cur.advance()
        inner = _iexpr(cur)
        cur.expect(")", "closing parenthesis")
        return inner
    cur.fail("variable, mu(...), al(...) or parenthesized expression")


def _arguments(cur, head, arity, closing):
    """The arity arguments of head(...); closing describes the token expected
    after an argument."""
    open_tok = cur.expect("(", "'(' after %s" % head)
    args = [_iexpr(cur)]
    while cur.current.kind == ",":
        cur.advance()
        args.append(_iexpr(cur))
    cur.expect(")", closing)
    if len(args) != arity:
        noun = "argument" if arity == 1 else "arguments"
        raise ArityError("%s takes exactly %d %s, got %d"
                         % (head, arity, noun, len(args)),
                         open_tok.offset, open_tok.line, open_tok.column,
                         expected="%d %s" % (arity, noun),
                         found="%d" % len(args))
    return args
