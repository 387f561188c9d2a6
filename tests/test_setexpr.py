"""Set expression language: parsing, printing, materialization, catalogs."""

import importlib.util
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from idealpack.errors import InvalidParam, KindMismatch, SetSyntaxError, UnknownName
from idealpack.groups import CayleyGroup, FreeGroup2, Window, ZModGroup, ZWindowGroup
from idealpack.setexpr import (
    Combine,
    NameRef,
    Prim,
    Shift,
    default_catalog,
    free_names,
    materialize,
    parse_catalog,
    parse_set_expr,
    print_set_expr,
    resolve,
    symbolic_finiteness,
)

ZW = ZWindowGroup(Window(0, 199, margin=8))


def members(text, group=ZW):
    return materialize(parse_set_expr(text), group).elements()


# -- parsing ---------------------------------------------------------------


def test_parse_primitives():
    assert members("empty") == []
    assert len(members("all")) == 200
    assert members("evens")[:5] == [0, 2, 4, 6, 8]
    assert members("ap(1, 4)")[:4] == [1, 5, 9, 13]
    assert members("interval(3, 7)") == [3, 4, 5, 6, 7]
    assert members("list{2, 3, 5}") == [2, 3, 5]
    assert members("powers(2)")[:6] == [1, 2, 4, 8, 16, 32]
    assert members("triangular")[:6] == [0, 1, 3, 6, 10, 15]


def test_parse_combinators():
    assert members("union(list{1}, list{2})") == [1, 2]
    assert members("inter(evens, interval(0, 6))") == [0, 2, 4, 6]
    assert members("diff(interval(0, 5), evens)") == [1, 3, 5]
    assert members("shift(list{0, 3}, 2)") == [2, 5]
    assert members("shift(list{0, 3}, -2)") == [1]
    assert len(members("compl(empty)")) == 200


def test_parse_errors():
    for bad in ("union(evens", "list{1,}", "shift(evens)", "ap(1)", "shift(evens, x)"):
        with pytest.raises(SetSyntaxError):
            parse_set_expr(bad)
    # a bare word is a name reference, resolved later against a catalog
    assert parse_set_expr("frobnicate") == NameRef("frobnicate")


# -- print/parse round trip -------------------------------------------------

prims = st.sampled_from(
    [
        Prim("empty", ()),
        Prim("all", ()),
        Prim("evens", ()),
        Prim("triangular", ()),
        Prim("ap", (2, 5)),
        Prim("interval", (1, 9)),
        Prim("list", (0, 4, 7)),
        Prim("powers", (3,)),
        NameRef("someset"),
    ]
)


def extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["union", "inter", "diff"]), children, children).map(
            lambda t: Combine(t[0], (t[1], t[2]))
        ),
        st.tuples(children, st.integers(-4, 4)).map(lambda t: Shift(t[0], t[1])),
    )


exprs = st.recursive(prims, extend, max_leaves=10)


@given(exprs)
def test_print_parse_round_trip(expr):
    assert parse_set_expr(print_set_expr(expr)) == expr


# -- semantics --------------------------------------------------------------
#
# Materialization shifts in Z first and clips to the window once, while
# MaterializedSet.translate clips at every step, so an element can re-enter
# from beyond the boundary in the first reading but never the second.  Away
# from the boundary the two agree; globally the stepwise set is the smaller.

grounded = exprs.filter(lambda e: not free_names(e))


@given(grounded, st.integers(-4, 4))
def test_shift_meaning_on_window(expr, s):
    base = materialize(expr, ZW)
    shifted = materialize(Shift(expr, s), ZW)
    assert base.translate(s).bits & ~shifted.bits == 0
    # interior: indices 64..135, farther from either edge than any total shift
    interior = ((1 << 72) - 1) << 64
    assert (shifted.bits ^ base.translate(s).bits) & interior == 0


def test_materialize_on_zmod_wraps():
    g = ZModGroup(10)
    A = materialize(parse_set_expr("shift(list{8, 9}, 3)"), g)
    assert A.elements() == [1, 2]


@given(grounded, grounded, st.integers(-30, 30), st.sampled_from([1, 2, 7, 12, 31]))
def test_materialize_on_zmod_is_set_algebra(left, right, b, n):
    # on Z_N a symbolic shift is exactly the rotation of the materialized
    # set, and the combinators are exactly the set operations
    g = ZModGroup(n)
    A, B = materialize(left, g), materialize(right, g)
    assert materialize(Shift(left, b), g) == A.translate(b)
    assert materialize(Combine("union", (left, right)), g) == A.union(B)
    assert materialize(Combine("inter", (left, right)), g) == A.inter(B)
    assert materialize(Combine("diff", (left, right)), g) == A.diff(B)
    assert materialize(Combine("compl", (left,)), g) == A.compl()


# -- against the benchmark's reference model -----------------------------------
#
# ``perfbench/model.py`` evaluates expression tuples pointwise as boolean
# arrays, written from the documented semantics without idealpack code.  It
# is loaded from its file and not modified.

_MODEL_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "model.py"


def _model():
    spec = importlib.util.spec_from_file_location("perfbench_model", _MODEL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


model = _model()

_SPANS = [(0, 199), (-120, 80), (-300, -40), (45, 300)]
# integers on and next to the window ends, where clipping goes wrong
_EDGES = sorted({x + d for span in _SPANS for x in span for d in (-1, 0, 1)})

# the model loops forever on powers(0) and has no descending intervals, so
# bases are >= 1 and intervals ascend; the error table below covers the rest
model_leaves = st.one_of(
    st.sampled_from([("evens",), ("triangular",), ("all",), ("empty",)]),
    st.tuples(st.just("ap"), st.integers(-60, 260), st.integers(-7, 7)),
    st.tuples(st.just("powers"), st.integers(1, 5)),
    st.tuples(
        st.just("list"),
        st.lists(st.one_of(st.integers(-80, 280), st.sampled_from(_EDGES)), max_size=6).map(tuple),
    ),
    st.tuples(st.just("interval"), st.integers(-80, 260), st.integers(0, 90)).map(
        lambda t: ("interval", t[1], t[1] + t[2])
    ),
)


def _model_extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["union", "inter", "diff"]), children, children),
        st.tuples(st.just("compl"), children),
        st.tuples(st.just("shift"), children, st.integers(-50, 50)),
    )


model_exprs = st.recursive(model_leaves, _model_extend, max_leaves=8)


@given(model_exprs, st.sampled_from(_SPANS))
@settings(max_examples=300, deadline=None)
def test_materialize_matches_model_on_windows(e, span):
    lo, hi = span
    got = materialize(parse_set_expr(model.show(e)), ZWindowGroup(Window(lo, hi)))
    assert got.bits == model.bits_of(model.eval_z(e, lo, hi))
    assert got.tally == 0


@given(model_exprs, st.one_of(st.just(1), st.integers(2, 40)))
@settings(max_examples=300, deadline=None)
def test_materialize_matches_model_on_zmod(e, n):
    got = materialize(parse_set_expr(model.show(e)), ZModGroup(n))
    assert got.bits == model.bits_of(model.eval_mod(e, n))
    assert got.tally == 0


def _s3():
    from test_groups import symmetric_table

    return CayleyGroup(*symmetric_table(3))


_ERROR_CARRIERS = {"zw": ZW, "z12": ZModGroup(12), "s3": _s3(), "f2": FreeGroup2(3)}


@pytest.mark.parametrize(
    "text,carrier,error,message",
    [
        ("powers(0)", "zw", InvalidParam, "powers base must be >= 1, got 0"),
        ("powers(-2)", "z12", InvalidParam, "powers base must be >= 1, got -2"),
        ("interval(5,2)", "zw", InvalidParam, "interval(5,2) is descending"),
        ("f2start(a)", "zw", KindMismatch, "f2start only materializes on the free group"),
        ("shift(evens,ab)", "zw", KindMismatch, "word shift does not apply to integer groups"),
        ("shift(evens,a)", "z12", KindMismatch, "word shift does not apply to integer groups"),
        ("someset", "zw", UnknownName, "unresolved name 'someset'"),
        ("compl(someset)", "f2", UnknownName, "unresolved name 'someset'"),
        ("evens", "f2", KindMismatch, "evens does not materialize on the free group"),
        ("list{0}", "f2", KindMismatch, "list does not materialize on the free group"),
        ("shift(f2start(a),2)", "f2", KindMismatch, "integer shift does not apply to the free group"),
        ("evens", "s3", KindMismatch, "evens does not materialize on kind 'cayley'"),
        ("someset", "s3", KindMismatch, "someset does not materialize on kind 'cayley'"),
        ("shift(list{1},2)", "s3", KindMismatch, "shift by 2 does not materialize on kind 'cayley'"),
        ("list{0,7}", "s3", InvalidParam, "element index 7 out of range"),
        # errors surface depth first, left before right
        ("union(powers(0),interval(5,2))", "zw", InvalidParam, "powers base must be >= 1, got 0"),
        ("diff(interval(5,2),powers(0))", "zw", InvalidParam, "interval(5,2) is descending"),
        ("inter(shift(all,a),f2start(b))", "z12", KindMismatch, "word shift does not apply to integer groups"),
        # a window shifted past the int64 positions the primitives use
        (f"shift(evens,{10**20})", "zw", InvalidParam, f"evens on [{-10**20}, {199 - 10**20}] lies past |x| < 2^62"),
        (f"shift(ap(0,1),{-2**62})", "zw", InvalidParam, f"ap on [{2**62}, {2**62 + 199}] lies past |x| < 2^62"),
    ],
)
def test_materialize_errors(text, carrier, error, message):
    with pytest.raises(error) as info:
        materialize(parse_set_expr(text), _ERROR_CARRIERS[carrier])
    assert str(info.value) == message


def test_integer_primitives_past_int64():
    # an ap with at most one element in the window is evaluated in Python ints
    assert members(f"ap(0,{10**20})") == [0]
    assert members(f"ap({-10**20},{10**20})") == [0]
    assert members(f"ap({10**20},-1)") == list(range(200))
    # the triangular numbers far out cost the window's size, not the root of its end
    far = 44_721_360 * 44_721_359 // 2 - 50  # a triangular number near 10^15, less 50
    assert members(f"shift(triangular,{-far})") == [50]
    assert members(f"shift(triangular,{10**18})") == []


def test_unknown_primitive_tree_is_refused():
    # the parser never builds one; a hand-built tree is refused on evaluation
    with pytest.raises(InvalidParam, match="unknown primitive 'bogus'"):
        materialize(Prim("bogus"), ZW)


def test_f2_primitives():
    g = FreeGroup2(3)
    a_side = materialize(parse_set_expr("union(f2start(a), f2start(A))"), g)
    # exactly the reduced words whose first letter is a or a^-1
    for w in a_side.elements():
        assert w[0] in "aA"
    b_side = a_side.compl()
    assert "" in b_side.elements()
    assert a_side.cardinality() + b_side.cardinality() == g.size


# -- the symbolic finiteness judge ------------------------------------------


@pytest.mark.parametrize(
    "text,verdict",
    [
        ("empty", "finite"),
        ("list{1, 2}", "finite"),
        ("interval(0, 50)", "finite"),
        ("all", "infinite"),
        ("evens", "infinite"),
        ("powers(2)", "infinite"),
        ("union(list{1}, interval(0, 3))", "finite"),
        ("union(evens, list{1})", "infinite"),
        ("inter(evens, list{1, 2})", "finite"),
        ("diff(evens, all)", "unknown"),  # sound, not complete
        ("shift(interval(0, 5), 40)", "finite"),
        ("compl(empty)", "infinite"),
        ("compl(all)", "unknown"),
    ],
)
def test_symbolic_finiteness(text, verdict):
    assert symbolic_finiteness(parse_set_expr(text)) == verdict


# -- names and catalogs -------------------------------------------------------


def test_resolve_names():
    expr = parse_set_expr("union(foo, shift(foo, 2))")
    assert free_names(expr) == {"foo"}
    resolved = resolve(expr, {"foo": parse_set_expr("list{0}")})
    assert free_names(resolved) == set()
    assert materialize(resolved, ZW).elements() == [0, 2]


def test_catalog_parses_and_closes():
    cat = parse_catalog("x = list{1}\ny = shift(x, 3)\n# comment\n")
    assert materialize(cat["y"], ZW).elements() == [4]
    with pytest.raises(UnknownName):
        cat["zzz"]


def test_catalog_rejects_cycles():
    with pytest.raises(InvalidParam):
        parse_catalog("p = shift(q, 1)\nq = shift(p, 1)\n")
    with pytest.raises(InvalidParam, match="form a cycle: b -> c -> b"):
        parse_catalog("a = b\nb = union(evens, c)\nc = shift(b, 2)\n")


def test_catalog_closes_a_long_chain_written_backwards():
    # each name refers to the next one down: closing s0 first walks all
    # 1,500 definitions, with no recursion per name
    cat = parse_catalog("".join(f"s{i} = s{i + 1}\n" for i in range(1500)) + "s1500 = list{3}\n")
    assert materialize(cat["s0"], ZW).elements() == [3]
    assert cat.depth["s0"] == 1


def test_catalog_doubling_chain_evaluates_each_name_once():
    # s_i uses s_{i-1} twice, so the closed tree of s40 has 2^40 paths to s0
    # but only 81 levels; each node is evaluated once per window offset
    text = "s0 = list{0,5,9}\n" + "".join(f"s{i} = union(s{i - 1}, shift(s{i - 1}, 1))\n" for i in range(1, 41))
    cat = parse_catalog(text)
    assert cat.depth["s40"] == 81
    t0 = time.perf_counter()
    got = materialize(cat["s40"], ZWindowGroup(Window(0, 2000, margin=0))).elements()
    assert symbolic_finiteness(cat["s40"]) == "finite"
    assert time.perf_counter() - t0 < 1
    assert got == sorted({a + b for a in (0, 5, 9) for b in range(41)})


def test_default_catalog_names():
    cat = default_catalog()
    have = {name for name, _ in cat.items()}
    assert {"parity", "tri", "pows", "block", "wide", "sparsemix"} <= have
    # every entry materializes cleanly
    for name, expr in cat.items():
        materialize(expr, ZW)
