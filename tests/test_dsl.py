import pytest
from hypothesis import given, settings, strategies as st

from modbench.catalog import CATALOG, CatalogError, get_entry
from modbench.dsl import (MAX_FACTORS, AltE, ComposeE, ConvE, DslError,
                          GenE, K, MeetE, PowE, VarE, _check_count,
                          alternation, children, compose, expr_str, expr_vars, has_symbolic, identity_str,
                          meet, parse_identity, push_converse, rebuild,
                          substitute_k)
from modbench.relations import ADMISSIBLE, CONGRUENCE, TOLERANCE


def test_parse_day_example():
    text = "cong a b g; a & (b o (a & g) o b) <= alt(a&b, a&g, k)"
    ident = parse_identity(text)
    assert dict(ident.var_kinds) == {n: CONGRUENCE for n in "abg"}
    assert isinstance(ident.lhs, MeetE)
    assert isinstance(ident.rhs, AltE)
    assert ident.rhs.count == K


def test_parse_mixed_kinds():
    text = ("cong a; adm R S; a & (R o S) <= "
            "(a & gen_adm(conv(R), S)) o alt(a & R o a & S, "
            "a & conv(S) o a & conv(R), k)")
    ident = parse_identity(text)
    kinds = dict(ident.var_kinds)
    assert kinds["a"] == CONGRUENCE and kinds["R"] == ADMISSIBLE


def test_parse_tolerance_pow():
    ident = parse_identity("tol T P; pow(T, 2) & pow(P, 3) <= pow(T & P, k)")
    kinds = dict(ident.var_kinds)
    assert kinds["T"] == TOLERANCE
    assert ident.lhs == MeetE((PowE(VarE("T"), 2), PowE(VarE("P"), 3)))


def test_parse_errors_carry_position():
    with pytest.raises(DslError):
        parse_identity("cong a; a <= ")
    with pytest.raises(DslError):
        parse_identity("cong a; a <= b")        # undeclared variable
    with pytest.raises(DslError):
        parse_identity("cong a; a & <= a")      # syntax
    with pytest.raises(DslError):
        parse_identity("cong k; k <= k")        # reserved word
    with pytest.raises(DslError):
        parse_identity("cong a; alt(a, a, -1) <= a")


def test_counts_take_ascii_digits_only():
    # a superscript two and an Arabic-Indic three are digits to Python but
    # not counts: each is a DslError at its own position
    for digit in ("\u00b2", "\u0663"):
        text = f"cong a b; a & b <= pow(a & b, {digit})"
        with pytest.raises(DslError, match="unexpected character") as exc:
            parse_identity(text)
        assert exc.value.pos == text.index(digit)
    with pytest.raises(DslError) as exc:
        parse_identity("cong a; a <= pow(a, 3\u0663)")
    assert exc.value.pos == len("cong a; a <= pow(a, 3")
    assert parse_identity("cong a; a <= pow(a, 3)").rhs.count == 3


def test_meet_flattens_and_dedups():
    a, b = VarE("a"), VarE("b")
    assert meet(a, meet(a, b)) == MeetE((a, b))
    assert compose(a, compose(b, a)) == ComposeE((a, b, a))


def test_print_parse_round_trip_whole_catalog():
    for name in sorted(CATALOG):
        ident = get_entry(name).identity()
        printed = identity_str(ident)
        reparsed = parse_identity(printed)
        assert identity_str(reparsed) == printed, name
        assert reparsed.lhs == ident.lhs and reparsed.rhs == ident.rhs, name


def test_substitute_k():
    ident = get_entry("DAY").identity()
    rhs = substitute_k(ident.rhs, 4)
    assert rhs.count == 4


def test_push_converse():
    kinds = {"a": CONGRUENCE, "R": ADMISSIBLE}
    e = ConvE(compose(VarE("a"), VarE("R")))
    out = push_converse(e, kinds)
    assert out == compose(ConvE(VarE("R")), VarE("a"))
    # even alternation reverses the roles
    e = ConvE(AltE(VarE("a"), VarE("R"), 2))
    out = push_converse(e, kinds)
    assert out == AltE(ConvE(VarE("R")), VarE("a"), 2)


def test_catalog_parameter_validation():
    with pytest.raises(CatalogError):
        get_entry("DAY").identity(m=2)
    with pytest.raises(CatalogError):
        get_entry("QMOD2").identity(t=3)   # t must be even
    with pytest.raises(CatalogError):
        get_entry("DAY").identity(zz=1)
    with pytest.raises(CatalogError):
        get_entry("NOPE")


def test_alternations_spell_out_at_most_max_factors():
    a, b = VarE("a"), VarE("b")
    assert len(alternation(a, b, MAX_FACTORS).items) == MAX_FACTORS
    with pytest.raises(DslError, match=f"m = {MAX_FACTORS + 1} factors"):
        alternation(a, b, MAX_FACTORS + 1)


def test_catalog_size():
    # the documented families, counting grouped equations separately
    assert len(CATALOG) == 31


def test_dstar_structure():
    one = get_entry("DSTAR").identity(l=1)
    day = get_entry("DAY").identity(m=3)
    assert one.lhs == day.lhs and one.rhs == day.rhs
    two = get_entry("DSTAR").identity(l=2)
    assert "(g o (a & b) o g)" in expr_str(two.lhs)


def test_parse_gen_tol_and_gen_cong():
    ident = parse_identity(
        "cong a; tol D; adm R; a & gen_tol(R) <= gen_cong(D, conv(R))")
    printed = identity_str(ident)
    assert identity_str(parse_identity(printed)) == printed


# ---------------------------------------------------------------------------
# The structural walks on children/rebuild, against their per-node-type
# recursive forms


def _old_expr_vars(e):
    if isinstance(e, VarE):
        return {e.name}
    if isinstance(e, (ComposeE, MeetE)):
        out = set()
        for it in e.items:
            out |= _old_expr_vars(it)
        return out
    if isinstance(e, ConvE):
        return _old_expr_vars(e.item)
    if isinstance(e, GenE):
        out = set()
        for it in e.items:
            out |= _old_expr_vars(it)
        return out
    if isinstance(e, AltE):
        return _old_expr_vars(e.first) | _old_expr_vars(e.second)
    if isinstance(e, PowE):
        return _old_expr_vars(e.item)
    raise DslError(f"not an expression: {e!r}")


def _old_has_symbolic(e):
    if isinstance(e, AltE):
        return (e.count == K or _old_has_symbolic(e.first)
                or _old_has_symbolic(e.second))
    if isinstance(e, PowE):
        return e.count == K or _old_has_symbolic(e.item)
    if isinstance(e, (ComposeE, MeetE, GenE)):
        return any(_old_has_symbolic(it) for it in e.items)
    if isinstance(e, ConvE):
        return _old_has_symbolic(e.item)
    return False


def _old_substitute_k(e, k):
    _check_count(k)
    if isinstance(e, VarE):
        return e
    if isinstance(e, ComposeE):
        return ComposeE(tuple(_old_substitute_k(i, k) for i in e.items))
    if isinstance(e, MeetE):
        return MeetE(tuple(_old_substitute_k(i, k) for i in e.items))
    if isinstance(e, ConvE):
        return ConvE(_old_substitute_k(e.item, k))
    if isinstance(e, GenE):
        return GenE(e.kind, tuple(_old_substitute_k(i, k) for i in e.items))
    if isinstance(e, AltE):
        c = k if e.count == K else e.count
        return AltE(_old_substitute_k(e.first, k),
                    _old_substitute_k(e.second, k), c)
    if isinstance(e, PowE):
        c = k if e.count == K else e.count
        return PowE(_old_substitute_k(e.item, k), c)
    raise DslError(f"not an expression: {e!r}")


def _old_push_converse(e, kinds):
    def conv(x):
        if isinstance(x, VarE):
            if kinds.get(x.name) in (CONGRUENCE, TOLERANCE):
                return x
            return ConvE(x)
        if isinstance(x, ConvE):
            return _old_push_converse(x.item, kinds)
        if isinstance(x, ComposeE):
            return ComposeE(tuple(conv(i) for i in reversed(x.items)))
        if isinstance(x, MeetE):
            return MeetE(tuple(conv(i) for i in x.items))
        if isinstance(x, GenE):
            if x.kind in (CONGRUENCE, TOLERANCE):
                return GenE(x.kind, tuple(_old_push_converse(i, kinds)
                                          for i in x.items))
            return GenE(x.kind, tuple(conv(i) for i in x.items))
        if isinstance(x, AltE):
            if x.count == K:
                raise DslError("cannot take converse of symbolic alternation")
            if x.count % 2 == 1:
                return AltE(conv(x.first), conv(x.second), x.count)
            return AltE(conv(x.second), conv(x.first), x.count)
        if isinstance(x, PowE):
            return PowE(conv(x.item), x.count)
        raise DslError(f"not an expression: {x!r}")

    if isinstance(e, ConvE):
        return conv(_old_push_converse(e.item, kinds))
    if isinstance(e, ComposeE):
        return ComposeE(tuple(_old_push_converse(i, kinds) for i in e.items))
    if isinstance(e, MeetE):
        return MeetE(tuple(_old_push_converse(i, kinds) for i in e.items))
    if isinstance(e, GenE):
        return GenE(e.kind, tuple(_old_push_converse(i, kinds)
                                  for i in e.items))
    if isinstance(e, AltE):
        return AltE(_old_push_converse(e.first, kinds),
                    _old_push_converse(e.second, kinds), e.count)
    if isinstance(e, PowE):
        return PowE(_old_push_converse(e.item, kinds), e.count)
    return e


def _outcome(fn, *args):
    """The repr of a result or of the DslError raised instead, so that
    node types and counts are compared exactly."""
    try:
        return repr(fn(*args))
    except DslError as exc:
        return f"DslError({exc})"


def _assert_walks_match(e, kinds, k):
    assert expr_vars(e) == _old_expr_vars(e)
    assert has_symbolic(e) == _old_has_symbolic(e)
    assert _outcome(substitute_k, e, k) == _outcome(_old_substitute_k, e, k)
    for x in (e, ConvE(e)):
        assert (_outcome(push_converse, x, kinds)
                == _outcome(_old_push_converse, x, kinds))


def test_walks_match_on_the_catalog():
    for name in sorted(CATALOG):
        ident = get_entry(name).identity()
        exprs = [ident.lhs, ident.rhs]
        for c in ident.side_conditions:
            exprs += [c.sup, c.sub]
        for e in exprs:
            for k in range(3):
                _assert_walks_match(e, ident.kinds(), k)


_KINDS = {"a": CONGRUENCE, "b": CONGRUENCE, "D": TOLERANCE,
          "R": ADMISSIBLE, "S": ADMISSIBLE}
_COUNTS = st.sampled_from([0, 1, 2, 3, K])
_GEN_KINDS = st.sampled_from([ADMISSIBLE, TOLERANCE, CONGRUENCE])


def _nodes(inner):
    # nodes are built directly, so compositions and intersections nest
    items = st.lists(inner, min_size=1, max_size=3).map(tuple)
    return st.one_of(items.map(ComposeE), items.map(MeetE), inner.map(ConvE),
                     st.builds(GenE, _GEN_KINDS, items),
                     st.builds(AltE, inner, inner, _COUNTS),
                     st.builds(PowE, inner, _COUNTS))


_TREES = st.recursive(st.sampled_from([VarE(n) for n in _KINDS]), _nodes,
                      max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(e=_TREES, k=st.integers(-1, 3))
def test_walks_match_on_random_trees(e, k):
    _assert_walks_match(e, _KINDS, k)


def test_expr_vars_takes_expressions_deeper_than_the_recursion_limit():
    e = VarE("a")
    for i in range(5000):
        e = ConvE(e) if i % 2 else ComposeE((VarE("b"), e))
    with pytest.raises(RecursionError):
        _old_expr_vars(e)
    assert expr_vars(e) == {"a", "b"}


def test_rebuild_keeps_nesting_and_rejects_non_expressions():
    a, b = VarE("a"), VarE("b")
    nested = MeetE((MeetE((a, b)), a))
    assert rebuild(nested, children(nested)) == nested
    assert substitute_k(nested, 1) == nested
    for bad in (3, "a"):
        with pytest.raises(DslError, match="not an expression"):
            children(bad)
        with pytest.raises(DslError, match="not an expression"):
            rebuild(bad, ())


def test_nesting_past_the_limit_is_a_dsl_error():
    deepest = "cong a; " + "(" * 99 + "a" + ")" * 99 + " <= a"
    assert parse_identity(deepest).lhs == VarE("a")
    for opener in ("(", "conv(", "alt(", "gen_adm("):
        text = "cong a; " + opener * 100 + "a" + ")" * 100 + " <= a"
        with pytest.raises(DslError, match="nested deeper than 100 levels"
                           ) as exc:
            parse_identity(text)
        assert exc.value.pos is not None


_DSL_TOKENS = st.sampled_from(
    ["cong", "tol", "adm", "a", "b", "R", "D", ";", "(", ")", "o", "&",
     "<=", ",", "conv", "alt", "pow", "gen_adm", "gen_tol", "gen_cong", "k",
     "0", "2", "99999999999999999999", "\u00b2", "\u0663"])


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=60),
                      st.lists(_DSL_TOKENS, max_size=40).map(" ".join)))
def test_parse_identity_raises_only_dsl_errors(text):
    try:
        parse_identity(text)
    except DslError:
        pass
