"""Finite algebras given by operation tables, plus the ``.alg`` text format.

The universe of an algebra of size ``n`` is always ``{0, ..., n-1}``.
Operation tables are stored flat, row-major in lexicographic order of the
argument tuples with the *last* argument varying fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AlgebraError(ValueError):
    """Invalid algebra data (bad signature, table, or element)."""


class AlgebraFormatError(AlgebraError):
    """Malformed ``.alg`` input; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Signature:
    """Operation names with arities.  Names are unique, arities >= 0."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate operation name in signature")
        for name, arity in self.ops:
            if arity < 0:
                raise AlgebraError(f"operation {name!r} has negative arity")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def arity(self, name: str) -> int:
        for opname, arity in self.ops:
            if opname == name:
                return arity
        raise AlgebraError(f"unknown operation {name!r}")


class FiniteAlgebra:
    """Immutable finite algebra: a universe size and one table per operation."""

    def __init__(self, name: str, size: int, signature: Signature,
                 tables: dict[str, "np.ndarray | list[int]"]):
        if size < 1:
            raise AlgebraError("size must be positive")
        if size > 1 << 16:
            raise AlgebraError(f"size {size} exceeds 65536: table entries "
                               f"are 16-bit")
        if set(tables) != set(signature.names()):
            raise AlgebraError("tables do not match signature")
        self.name = name
        self.size = size
        self.signature = signature
        self.tables = {}
        for opname, arity in signature.ops:
            table = np.asarray(tables[opname], dtype=np.int64).ravel()
            if table.shape != (size ** arity,):
                raise AlgebraError(
                    f"operation {opname!r}: table has {table.size} entries, "
                    f"expected {size ** arity}")
            if table.size and (table.min() < 0 or table.max() >= size):
                raise AlgebraError(f"operation {opname!r}: entry out of range")
            table = table.astype(np.uint16)
            table.setflags(write=False)
            self.tables[opname] = table

    def apply(self, op: str, args: tuple[int, ...] | list[int]) -> int:
        """Look up one operation value; validates name, arity and arguments."""
        arity = self.signature.arity(op)
        if len(args) != arity:
            raise AlgebraError(
                f"operation {op!r} expects {arity} arguments, got {len(args)}")
        index = 0
        for a in args:
            if not 0 <= a < self.size:
                raise AlgebraError(f"argument {a} out of range")
            index = index * self.size + a
        return int(self.tables[op][index])

    def _key(self):
        return (self.name, self.size, self.signature.ops,
                tuple(self.tables[n].tobytes() for n in self.signature.names()))

    def __eq__(self, other):
        return isinstance(other, FiniteAlgebra) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, size={self.size})"


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse the ``.alg`` format.

    Line 1: ``algebra <name>``; line 2: ``size <n>``; then per operation a
    header ``op <name> <arity>`` followed by ``n^arity`` integers.  Lines
    starting with ``#`` are comments.
    """
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            continue
        for tok in line.split():
            tokens.append((tok, lineno))

    pos = 0

    def take(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][1] if tokens else 1
            raise AlgebraFormatError(f"unexpected end of input, expected {what}", last)
        tok = tokens[pos]
        pos += 1
        return tok

    tok, line = take("'algebra'")
    if tok != "algebra":
        raise AlgebraFormatError(f"expected 'algebra', got {tok!r}", line)
    name, _ = take("algebra name")

    tok, line = take("'size'")
    if tok != "size":
        raise AlgebraFormatError(f"expected 'size', got {tok!r}", line)
    tok, line = take("size value")
    try:
        size = int(tok)
    except ValueError:
        raise AlgebraFormatError(f"size is not an integer: {tok!r}", line) from None
    if size < 1:
        raise AlgebraFormatError("size must be positive", line)

    ops: list[tuple[str, int]] = []
    tables: dict[str, list[int]] = {}
    while pos < len(tokens):
        tok, line = take("'op'")
        if tok != "op":
            raise AlgebraFormatError(f"expected 'op', got {tok!r}", line)
        opname, _ = take("operation name")
        tok, line = take("operation arity")
        try:
            arity = int(tok)
        except ValueError:
            raise AlgebraFormatError(f"arity is not an integer: {tok!r}", line) from None
        if arity < 0:
            raise AlgebraFormatError("arity must be nonnegative", line)
        if opname in tables:
            raise AlgebraFormatError(f"duplicate operation {opname!r}", line)
        if size > 1 and arity > (len(tokens) - pos).bit_length():
            # size ** arity exceeds the tokens left; do not compute it
            raise AlgebraFormatError(f"table for {opname!r} is too short",
                                     line)
        entries = []
        for _ in range(size ** arity):
            tok, line = take(f"table entry for {opname!r}")
            if tok == "op":
                raise AlgebraFormatError(
                    f"table for {opname!r} is too short", line)
            try:
                value = int(tok)
            except ValueError:
                raise AlgebraFormatError(
                    f"table entry is not an integer: {tok!r}", line) from None
            if not 0 <= value < size:
                raise AlgebraFormatError(
                    f"entry out of range: {value} (size {size})", line)
            entries.append(value)
        ops.append((opname, arity))
        tables[opname] = entries

    return FiniteAlgebra(name, size, Signature(tuple(ops)), tables)


def serialize_algebra(a: FiniteAlgebra) -> str:
    """Canonical ``.alg`` form: operations ordered by name, fixed layout."""
    out = [f"algebra {a.name}", f"size {a.size}"]
    for opname in sorted(a.signature.names()):
        arity = a.signature.arity(opname)
        out.append(f"op {opname} {arity}")
        table = a.tables[opname]
        if arity == 0:
            out.append(str(int(table[0])))
        else:
            # one line per fixed prefix, the last argument varying along it
            for row in table.reshape(-1, a.size):
                out.append(" ".join(str(int(v)) for v in row))
    return "\n".join(out) + "\n"
