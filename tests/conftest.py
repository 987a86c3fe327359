import importlib.resources

import numpy as np
import pytest

from modbench.algebras import FiniteAlgebra, Signature, parse_algebra
from modbench.checks import PWContext
from modbench.free import CapExceeded, FreeAlgebra

CORPUS = ("one", "z2", "lattice2", "chain3", "semilattice2", "pixley3")


def load_corpus(name: str) -> FiniteAlgebra:
    res = importlib.resources.files("modbench") / "data" / f"{name}.alg"
    return parse_algebra(res.read_text())


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in CORPUS}


@pytest.fixture(scope="session")
def z2(corpus):
    return corpus["z2"]


@pytest.fixture(scope="session")
def lattice2(corpus):
    return corpus["lattice2"]


@pytest.fixture(scope="session")
def chain3(corpus):
    return corpus["chain3"]


@pytest.fixture(scope="session")
def semilattice2(corpus):
    return corpus["semilattice2"]


@pytest.fixture(scope="session")
def pixley3(corpus):
    return corpus["pixley3"]


@pytest.fixture(scope="session")
def one(corpus):
    return corpus["one"]


_CTX_CACHE: dict = {}


@pytest.fixture(scope="session")
def pw_context():
    """Per-algebra PWContext cache shared by the whole session (free
    algebras are the expensive part)."""

    def get(algebra: FiniteAlgebra) -> PWContext:
        if algebra not in _CTX_CACHE:
            _CTX_CACHE[algebra] = PWContext(algebra)
        return _CTX_CACHE[algebra]

    return get


# ---------------------------------------------------------------------------
# Random small algebras (deterministic)


def random_algebra(rng, size=None, max_arity=3, n_ops=None,
                   name="rand") -> FiniteAlgebra:
    size = size if size is not None else rng.choice([2, 2, 3, 3, 4])
    n_ops = n_ops if n_ops is not None else rng.choice([1, 1, 2])
    ops = []
    tables = {}
    for i in range(n_ops):
        arity = rng.choice(range(1, max_arity + 1))
        ops.append((f"f{i}", arity))
        tables[f"f{i}"] = [rng.randrange(size) for _ in range(size ** arity)]
    return FiniteAlgebra(name, size, Signature(tuple(ops)), tables)


MAJ2 = [0, 0, 0, 1, 0, 1, 1, 1]        # majority on {0,1}
MEDIAN3 = None  # filled lazily


def median3_table():
    # median of the 3-chain = majority lattice term
    table = []
    for x in range(3):
        for y in range(3):
            for z in range(3):
                table.append(sorted((x, y, z))[1])
    return table


def m5_text() -> str:
    """``m5.alg``: five elements and one ternary operation returning the
    middle value of its arguments."""
    rows = [" ".join(str(sorted((x, y, z))[1]) for z in range(5))
            for x in range(5) for y in range(5)]
    return "\n".join(["algebra m5", "size 5", "op m 3", *rows]) + "\n"


def jonsson_friendly_algebra(rng, idx: int) -> FiniteAlgebra:
    """Small algebras likely to be congruence distributive: majority-style
    ternary operations with random extra structure."""
    kind = idx % 3
    if kind == 0:
        size = 2
        tables = {"m": list(MAJ2)}
        ops = [("m", 3)]
        if rng.random() < 0.7:
            ops.append(("g", rng.choice([1, 2])))
            tables["g"] = [rng.randrange(size)
                           for _ in range(size ** ops[-1][1])]
    elif kind == 1:
        size = 3
        tables = {"m": median3_table()}
        ops = [("m", 3)]
        if rng.random() < 0.7:
            ops.append(("g", 1))
            tables["g"] = [rng.randrange(3) for _ in range(3)]
    else:
        size = rng.choice([2, 3])
        ops = [("f", 3)]
        # ternary discriminator pattern restricted to the chosen size
        table = []
        for x in range(size):
            for y in range(size):
                for z in range(size):
                    table.append(z if x == y else x)
        tables = {"f": table}
    return FiniteAlgebra(f"cd{idx}", size, Signature(tuple(ops)), tables)


# ---------------------------------------------------------------------------
# A built free algebra as a plain finite algebra (small ones only), the
# oracle for the partition and saturation routes


def induced_table(f: FreeAlgebra, op: str,
                  guard: int = 4_000_000) -> np.ndarray:
    """The operation table ``op`` induces on the elements of ``f``."""
    arity = f.base.signature.arity(op)
    n = f.n_elements
    if n ** arity > guard:
        raise CapExceeded(f"induced table for {op!r} needs {n ** arity} "
                          f"entries (guard {guard})", n)
    table = f.base.tables[op]
    lookup = {f.vecs[i].tobytes(): i for i in range(n)}
    out = np.empty(n ** arity, dtype=np.int64)
    for flat in range(n ** arity):
        rest, args = flat, []
        for _ in range(arity):
            args.append(rest % n)
            rest //= n
        args.reverse()
        idx = np.zeros(f.vecs.shape[1], dtype=np.int64)
        for e in args:
            idx = idx * f.base.size + f.vecs[e]
        out[flat] = lookup[table[idx].astype(np.uint8).tobytes()]
    return out


def free_as_algebra(f: FreeAlgebra) -> FiniteAlgebra:
    tables = {op: induced_table(f, op) for op in f.base.signature.names()}
    return FiniteAlgebra(f"F({f.base.name},{f.g})", f.n_elements,
                         f.base.signature, tables)
