"""Relational expressions and the identity DSL.

Grammar (an inclusion between two relational expressions, with variable
kind declarations up front)::

    decl      := ("cong" | "tol" | "adm") name+ ";"
    expr      := term ("o" term)*
    term      := factor ("&" factor)*
    factor    := name | "(" expr ")" | "conv(" expr ")"
               | "gen_adm(" expr {"," expr} ")" | "gen_tol(" ... ")"
               | "gen_cong(" ... ")"
               | "alt(" expr "," expr "," count ")" | "pow(" expr "," count ")"
    count     := integer | "k"
    statement := decl* expr "<=" expr

``o`` is relational composition, ``&`` intersection, ``conv`` converse,
``gen_*`` the least relation of a kind containing the union of the
arguments, ``alt(X, Y, m)`` the alternating composition X o Y o X o ...
with m factors, and ``pow(X, h)`` the h-fold composition.  A count of 0
denotes the identity relation; ``k`` is the symbolic scan parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .relations import ADMISSIBLE, CONGRUENCE, TOLERANCE

K = "k"  # the symbolic count
# The most factors an alternation of a given count spells out: each is a
# list item, so a count the caller cannot bound would exhaust the memory.
MAX_FACTORS = 10_000

KIND_KEYWORDS = {"cong": CONGRUENCE, "tol": TOLERANCE, "adm": ADMISSIBLE}
GEN_KEYWORDS = {"gen_adm": ADMISSIBLE, "gen_tol": TOLERANCE,
                "gen_cong": CONGRUENCE}
_KIND_TO_GEN = {v: k for k, v in GEN_KEYWORDS.items()}
RESERVED = set(KIND_KEYWORDS) | set(GEN_KEYWORDS) | {"conv", "alt", "pow",
                                                     "o", "k"}


class DslError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class VarE:
    name: str


@dataclass(frozen=True)
class ComposeE:
    items: tuple


@dataclass(frozen=True)
class MeetE:
    items: tuple


@dataclass(frozen=True)
class ConvE:
    item: object


@dataclass(frozen=True)
class GenE:
    kind: str
    items: tuple


@dataclass(frozen=True)
class AltE:
    first: object
    second: object
    count: object  # int >= 0 or K


@dataclass(frozen=True)
class PowE:
    item: object
    count: object


RelExpr = object


def compose(*items) -> RelExpr:
    """n-ary composition; flattens nested compositions."""
    flat = []
    for it in items:
        if isinstance(it, ComposeE):
            flat.extend(it.items)
        else:
            flat.append(it)
    if not flat:
        raise DslError("empty composition")
    if len(flat) == 1:
        return flat[0]
    return ComposeE(tuple(flat))


def meet(*items) -> RelExpr:
    """n-ary intersection; flattens and drops exact duplicates."""
    flat = []
    for it in items:
        parts = it.items if isinstance(it, MeetE) else (it,)
        for p in parts:
            if p not in flat:
                flat.append(p)
    if not flat:
        raise DslError("empty intersection")
    if len(flat) == 1:
        return flat[0]
    return MeetE(tuple(flat))


def _check_count(count):
    if count == K:
        return
    if not isinstance(count, int) or count < 0:
        raise DslError(f"count must be a nonnegative integer or 'k': {count!r}")


def children(e: RelExpr) -> tuple:
    """The direct subexpressions of a node, in order."""
    if isinstance(e, (ComposeE, MeetE, GenE)):
        return e.items
    if isinstance(e, (ConvE, PowE)):
        return (e.item,)
    if isinstance(e, AltE):
        return (e.first, e.second)
    if isinstance(e, VarE):
        return ()
    raise DslError(f"not an expression: {e!r}")


def rebuild(e: RelExpr, kids) -> RelExpr:
    """A node of ``e``'s type and fields with the children ``kids``.

    Built directly: nested compositions and intersections are kept as
    given, not flattened as ``compose`` and ``meet`` would.
    """
    kids = tuple(kids)
    if isinstance(e, (ComposeE, MeetE)):
        return type(e)(kids)
    if isinstance(e, GenE):
        return GenE(e.kind, kids)
    if isinstance(e, ConvE):
        return ConvE(*kids)
    if isinstance(e, PowE):
        return PowE(*kids, e.count)
    if isinstance(e, AltE):
        return AltE(*kids, e.count)
    if isinstance(e, VarE):
        return e
    raise DslError(f"not an expression: {e!r}")


def alternation(first, second, m: int) -> RelExpr:
    """The composition first o second o first o ... of m >= 1 factors,
    flattened like ``compose``; at most ``MAX_FACTORS`` factors."""
    if m > MAX_FACTORS:
        raise DslError(f"an alternation of m = {m} factors passes the bound "
                       f"of {MAX_FACTORS}")
    return compose(*[(first, second)[i % 2] for i in range(m)])


def expr_vars(e: RelExpr) -> set[str]:
    """The variable names in ``e``, collected into one set from an explicit
    stack of the nodes still to visit."""
    out: set[str] = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, VarE):
            out.add(x.name)
        else:
            stack.extend(children(x))
    return out


def has_symbolic(e: RelExpr) -> bool:
    return (getattr(e, "count", None) == K
            or any(map(has_symbolic, children(e))))


def substitute_k(e: RelExpr, k: int) -> RelExpr:
    _check_count(k)

    def sub(x):
        x = rebuild(x, map(sub, children(x)))
        return replace(x, count=k) if getattr(x, "count", None) == K else x
    return sub(e)


def push_converse(e: RelExpr, kinds: dict[str, str]) -> RelExpr:
    """Eliminate converses over symmetric subexpressions structurally.

    Congruence and tolerance variables and closures are their own
    converses; compositions reverse; alternations reverse according to the
    parity of their (concrete) count.
    """

    def conv(x):
        if isinstance(x, VarE):
            if kinds.get(x.name) in (CONGRUENCE, TOLERANCE):
                return x
            return ConvE(x)
        if isinstance(x, ConvE):
            return push_converse(x.item, kinds)
        if isinstance(x, ComposeE):
            return ComposeE(tuple(conv(i) for i in reversed(x.items)))
        if isinstance(x, GenE) and x.kind in (CONGRUENCE, TOLERANCE):
            return push_converse(x, kinds)
        if isinstance(x, AltE):
            if x.count == K:
                raise DslError("cannot take converse of symbolic alternation")
            if x.count % 2 == 0:
                return AltE(conv(x.second), conv(x.first), x.count)
        return rebuild(x, map(conv, children(x)))

    if isinstance(e, ConvE):
        return conv(push_converse(e.item, kinds))
    return rebuild(e, (push_converse(x, kinds) for x in children(e)))


# ---------------------------------------------------------------------------
# Identities


@dataclass(frozen=True)
class Contains:
    """Side condition: eval(sup) must contain eval(sub)."""

    sup: object
    sub: object


@dataclass(frozen=True)
class Identity:
    """A named inclusion lhs <= rhs with declared variable kinds."""

    name: str
    var_kinds: tuple  # ((name, kind), ...) in declaration order
    lhs: object
    rhs: object
    side_conditions: tuple = ()

    def kinds(self) -> dict[str, str]:
        return dict(self.var_kinds)

    def __post_init__(self):
        declared = {n for n, _ in self.var_kinds}
        used = expr_vars(self.lhs) | expr_vars(self.rhs)
        for c in self.side_conditions:
            used |= expr_vars(c.sup) | expr_vars(c.sub)
        missing = used - declared
        if missing:
            raise DslError(
                f"undeclared variables: {', '.join(sorted(missing))}")


# ---------------------------------------------------------------------------
# Printing


def expr_str(e: RelExpr) -> str:
    def factor(x) -> str:
        s = expr_str(x)
        if isinstance(x, (ComposeE, MeetE)):
            return f"({s})"
        return s

    if isinstance(e, VarE):
        return e.name
    if isinstance(e, ComposeE):
        return " o ".join(factor(i) for i in e.items)
    if isinstance(e, MeetE):
        return " & ".join(factor(i) for i in e.items)
    if isinstance(e, ConvE):
        return f"conv({expr_str(e.item)})"
    if isinstance(e, GenE):
        inner = ", ".join(expr_str(i) for i in e.items)
        return f"{_KIND_TO_GEN[e.kind]}({inner})"
    if isinstance(e, AltE):
        return (f"alt({expr_str(e.first)}, {expr_str(e.second)}, "
                f"{e.count})")
    if isinstance(e, PowE):
        return f"pow({expr_str(e.item)}, {e.count})"
    raise DslError(f"not an expression: {e!r}")


def identity_str(ident: Identity) -> str:
    by_kind: dict[str, list[str]] = {}
    for name, kind in ident.var_kinds:
        by_kind.setdefault(kind, []).append(name)
    decls = []
    for kw, kind in KIND_KEYWORDS.items():
        if kind in by_kind:
            decls.append(f"{kw} {' '.join(by_kind[kind])};")
    stmt = f"{expr_str(ident.lhs)} <= {expr_str(ident.rhs)}"
    return " ".join(decls + [stmt])


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "();,&":
            tokens.append((c, i))
            i += 1
            continue
        if text.startswith("<=", i):
            tokens.append(("<=", i))
            i += 2
            continue
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
            continue
        raise DslError(f"unexpected character {c!r}", i)
    return tokens


# Deepest bracket nesting the parser accepts.  The deepest catalog
# expression, DSTAR(3), nests 8 levels; every walk over a parsed expression
# takes a few frames per level, so this stays well inside Python's
# recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self):
        return (self.tokens[self.pos][1] if self.pos < len(self.tokens)
                else self.tokens[-1][1] if self.tokens else 0)

    def next(self, expected: str | None = None):
        if self.pos >= len(self.tokens):
            raise DslError(f"unexpected end of input"
                           + (f", expected {expected!r}" if expected else ""),
                           self.here())
        tok, at = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise DslError(f"expected {expected!r}, got {tok!r}", at)
        self.pos += 1
        return tok

    def parse_statement(self) -> Identity:
        var_kinds = []
        declared = set()
        while self.peek() in KIND_KEYWORDS:
            kind = KIND_KEYWORDS[self.next()]
            names = []
            while self.peek() not in (";", None):
                name = self.next()
                if not name[0].isalpha() and name[0] != "_":
                    raise DslError(f"bad variable name {name!r}", self.here())
                if name in RESERVED:
                    raise DslError(f"reserved word {name!r} as variable",
                                   self.here())
                if name in declared:
                    raise DslError(f"variable {name!r} declared twice",
                                   self.here())
                declared.add(name)
                names.append(name)
            self.next(";")
            if not names:
                raise DslError("empty declaration", self.here())
            var_kinds.extend((n, kind) for n in names)
        lhs = self.parse_expr()
        self.next("<=")
        rhs = self.parse_expr()
        if self.pos != len(self.tokens):
            raise DslError(f"trailing input {self.peek()!r}", self.here())
        return Identity("adhoc", tuple(var_kinds), lhs, rhs)

    def parse_expr(self):
        if self.depth == MAX_DEPTH:
            raise DslError(f"expression nested deeper than {MAX_DEPTH} "
                           f"levels", self.here())
        self.depth += 1
        items = [self.parse_term()]
        while self.peek() == "o":
            self.next()
            items.append(self.parse_term())
        self.depth -= 1
        return compose(*items)

    def parse_term(self):
        items = [self.parse_factor()]
        while self.peek() == "&":
            self.next()
            items.append(self.parse_factor())
        return meet(*items)

    def parse_count(self):
        tok = self.next()
        if tok == "k":
            return K
        if tok.isdigit():
            return int(tok)
        raise DslError(f"expected count, got {tok!r}", self.here())

    def parse_factor(self):
        tok = self.peek()
        at = self.here()
        if tok == "(":
            self.next()
            e = self.parse_expr()
            self.next(")")
            return e
        if tok == "conv":
            self.next()
            self.next("(")
            e = self.parse_expr()
            self.next(")")
            return ConvE(e)
        if tok in GEN_KEYWORDS:
            self.next()
            self.next("(")
            items = [self.parse_expr()]
            while self.peek() == ",":
                self.next()
                items.append(self.parse_expr())
            self.next(")")
            return GenE(GEN_KEYWORDS[tok], tuple(items))
        if tok in ("alt", "pow"):
            self.next()
            self.next("(")
            first = self.parse_expr()
            self.next(",")
            if tok == "alt":
                second = self.parse_expr()
                self.next(",")
                count = self.parse_count()
                self.next(")")
                return AltE(first, second, count)
            count = self.parse_count()
            self.next(")")
            return PowE(first, count)
        if tok is None:
            raise DslError("unexpected end of input", at)
        if tok[0].isdigit():
            raise DslError(f"unexpected number {tok!r}", at)
        if tok in RESERVED:
            raise DslError(f"unexpected keyword {tok!r}", at)
        self.next()
        return VarE(tok)


def parse_identity(text: str) -> Identity:
    """Parse a DSL statement into an Identity named ``adhoc``."""
    return _Parser(text).parse_statement()
