"""Seeded query generators for the four workloads.

A workload is a set-up (carriers and base sets, materialized once by the
program before the first timed query) and an endless stream of queries cut
into blocks.  Every block holds one query per template, in a seeded order,
and each template draws its parameters from a narrow range.  The mix is
therefore the same for every seed, which keeps throughput and latency
comparable between seeds, while the concrete sets, shifts and sizes change
with the seed.  The same seed always gives byte-identical queries.

Each query is a JSON-ready dict.  ``kind`` labels the template family (it
is what the per-kind counts report); ``op`` says which public entry point
the worker calls.  Sets are referred to by id; the parent keeps the
expression of every id so that the checker can rebuild it independently.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from model import (
    FINITE_CUTOFF,
    ZWindow,
    ball_count,
    dihedral_table,
    eval_z,
    expand,
    mul_words,
    show,
    symmetric_table,
    word_text,
)

WORKLOADS = ("z-small", "pack", "tables", "catalog")

# Random subsets per Cayley table and role; enough that one seed's pool is
# typical of all seeds.
TABLE_POOL = 12


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def _random_sparse(rng: random.Random, size: int, per: int) -> tuple:
    count = max(8, size // per)
    return ("list", tuple(sorted(rng.sample(range(size), count))))


class Workload:
    """Set-up spec plus query blocks for one workload and seed."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.carriers: dict = {}  # id -> JSON spec for the worker
        self.sets: dict = {}  # id -> (carrier id, expression tuple or ("piece", label))
        getattr(self, "_setup_" + name.replace("-", "_"))(rng_for(seed, "setup"))

    # -- set-up ------------------------------------------------------------
    def _carrier(self, cid: str, spec: dict) -> str:
        self.carriers[cid] = spec
        return cid

    def _set(self, sid: str, cid: str, expr) -> str:
        self.sets[sid] = (cid, expr)
        return sid

    def spec(self) -> dict:
        """What the worker needs to build carriers and base sets."""
        sets = {}
        for sid, (cid, expr) in self.sets.items():
            if expr[0] == "piece":
                sets[sid] = {"carrier": cid, "piece": expr[1]}
            else:
                sets[sid] = {"carrier": cid, "expr": show(expand(expr))}
        return {"workload": self.name, "carriers": self.carriers, "sets": sets}

    def _setup_z_small(self, rng):
        # window sizes vary a little with the seed; the cost of most queries
        # grows with the window, so the ranges are kept narrow
        sizes = {
            "s": rng.randint(120_000, 125_000),
            "m": rng.randint(400_000, 410_000),
            "b": rng.randint(950_000, 1_000_000),
            "d": rng.randint(25_000, 26_000),
        }
        for key, size in sizes.items():
            self._carrier(key, {"kind": "z-window", "lo": 0, "hi": size - 1, "margin": 64})
        for key in "smb":
            for name in ("tri", "tripair", "pows", "sparsemix"):
                self._set(f"{name}@{key}", key, ("name", name))
            self._set(f"rand@{key}", key, _random_sparse(rng, sizes[key], 1000))
        for name in ("parity", "thirds"):
            self._set(f"{name}@d", "d", ("name", name))

    def _setup_pack(self, rng):
        # moduli and pool sizes per role: "closing" searches always finish
        # within the node budget, "budget" ones (two-element sets on Z_56 to
        # Z_96, or 3-4 elements with n=3 on Z_20 to Z_22) never do
        roles = {
            "closing": ([rng.randint(24, 32) for _ in range(2)], 12, (3, 4)),
            "budget": ([rng.randint(56, 96) for _ in range(3)], 8, (2, 2)),
            "hyper": ([rng.randint(20, 22) for _ in range(2)], 8, (3, 4)),
            "brute": ([10, 12], 8, (2, 5)),
        }
        self.mod_sets: dict = {}
        for role, (moduli, count, (kmin, kmax)) in roles.items():
            for n in moduli:
                cid = self._carrier(f"Z{n}", {"kind": "z-mod", "modulus": n})
                for i in range(count):
                    elems = tuple(sorted(rng.sample(range(n), rng.randint(kmin, kmax))))
                    sid = self._set(f"{cid}#{role}{i}", cid, ("list", elems))
                    self.mod_sets.setdefault(role, []).append(sid)
        self._carrier("w", {"kind": "z-window", "lo": 0, "hi": rng.randint(150_000, 155_000) - 1, "margin": 300})
        self._carrier("h", {"kind": "z-window", "lo": 0, "hi": rng.randint(30_000, 31_000) - 1, "margin": 4096})
        for name in ("tri", "tripair", "pows", "sparsemix", "spot"):
            self._set(f"{name}@w", "w", ("name", name))
        for name in ("tri", "pows", "tripair"):
            self._set(f"{name}@h", "h", ("name", name))

    def _setup_tables(self, rng):
        self.tables = {}
        dn = 22
        self.dihedral = f"D{dn}"
        # pack sets are sized so that S4 and S5 always close within the node
        # budget and the dihedral group never does
        pack_sizes = {"S4": (2, 3), "S5": (12, 15), self.dihedral: (2, 3)}
        for cid, (table, e) in (("S4", symmetric_table(4)), ("S5", symmetric_table(5)), (self.dihedral, dihedral_table(dn))):
            self._carrier(cid, {"kind": "cayley", "table": table, "identity": e})
            self.tables[cid] = (table, e)
            size = len(table)
            for i in range(TABLE_POOL):
                # large enough that a greedy cover needs at most 64 translates
                k = rng.randint(max(2, size // 16), max(3, size // 8))
                self._set(f"{cid}#{i}", cid, ("list", tuple(sorted(rng.sample(range(size), k)))))
                k = rng.randint(*pack_sizes[cid])
                self._set(f"{cid}#pack{i}", cid, ("list", tuple(sorted(rng.sample(range(size), k)))))
        for depth in (4, 5, 9, 10, 11, 12):
            cid = self._carrier(f"F{depth}", {"kind": "free-2", "depth": depth})
            for label in "AB":
                self._set(f"{label}@F{depth}", cid, ("piece", label))

    def _setup_catalog(self, rng):
        # the CLI builds its own groups from flags; only the counting queries
        # go through the library and need a base set
        size = rng.randint(150_000, 155_000)
        self._carrier("w", {"kind": "z-window", "lo": 0, "hi": size - 1, "margin": 512})
        for name in ("pows", "pows3", "spot"):
            self._set(f"{name}@w", "w", ("name", name))

    # -- blocks --------------------------------------------------------------
    def block(self, index: int) -> list[dict]:
        """The ``index``-th block of queries, in seeded order."""
        rng = rng_for(self.seed, f"block{index}")
        queries = getattr(self, "_block_" + self.name.replace("-", "_"))(rng)
        rng.shuffle(queries)
        return queries

    def _block_z_small(self, rng):
        def small(kind, sid, m, s, ideal="trivial"):
            return {"kind": kind, "op": "small", "set": sid, "ideal": {"kind": ideal},
                    "m": m, "s": s, "inner": [64, 256]}

        def large(kind, sid, ideal="trivial"):
            return {"kind": kind, "op": "large", "set": sid, "ideal": {"kind": ideal},
                    "max_f": 64, "shift_range": 256}

        # m and s are fixed per template, and each template names one window
        # size class, so a template costs about the same for every seed
        return [
            small("small-tri", "tri@b", 2, 12),
            small("small-tri", "tri@s", 3, 6),
            small("small-tri", "tripair@m", 2, 10),
            small("small-pows", rng.choice(["pows@b", "sparsemix@b"]), 3, 7),
            small("small-pows", rng.choice(["pows@s", "sparsemix@s"]), 2, 28),
            small("small-random", "rand@b", 2, 12),
            small("small-random", "rand@m", 3, 5),
            small("small-dense", "parity@d", 2, 3),
            small("small-dense", "thirds@d", 2, 2),
            small("small-finite", "tri@s", 2, 6, "finite-sets"),
            small("small-finite", "parity@d", 2, 2, "finite-sets"),
            large("large", "tri@b"),
            large("large", "parity@d"),
            large("large", "rand@s"),
            large("large-finite", "tri@m", "finite-sets"),
        ]

    def _block_pack(self, rng):
        def pack(kind, sid, candidates, n, mode, budget=100_000):
            q = {"kind": kind, "op": "pack", "set": sid, "ideal": {"kind": "trivial"},
                 "candidates": candidates, "n": n, "mode": mode}
            if mode == "exact":
                q["node_budget"] = budget
            return q

        def whole(sid):
            return list(range(int(self.sets[sid][0][1:])))

        pick = lambda role: rng.choice(self.mod_sets[role])  # noqa: E731
        # 21 templates, cheapest first: greedy and brute force, closing Z_N
        # searches, n=3 hypergraphs, then budget-bound and window searches.
        # An odd count puts the median inside one template (an n=3
        # hypergraph, whose cost hardly varies) instead of between two.
        out = [pack("brute", sid, whole(sid), rng.choice([2, 3]), "exact") for sid in (pick("brute"), pick("brute"))]
        out += [pack("zn-greedy", sid, whole(sid), 2, "greedy")
                for sid in (pick("closing"), pick("budget"), pick("budget"))]
        for name in (rng.choice(["pows", "spot", "sparsemix"]), "tri"):
            out.append(pack("window-greedy", f"{name}@w", list(range(rng.randint(200, 300) + 1)), 2, "greedy"))
        out += [pack("zn-exact", sid, whole(sid), 2, "exact") for sid in (pick("closing") for _ in range(3))]
        for name in ("tri", "pows", "tripair"):
            out.append(pack("hyper", f"{name}@h", sorted(rng.sample(range(4097), 16)), 3, "exact", 5_000))
        sid = pick("hyper")
        out.append(pack("hyper", sid, whole(sid), 3, "exact", 5_000))
        out += [pack("zn-exact", sid, whole(sid), 2, "exact") for sid in (pick("budget") for _ in range(3))]
        for name, lo, hi in (("tri", 200, 300), ("tripair", 200, 300), ("sparsemix", 60, 100), ("spot", 300, 300)):
            out.append(pack("window-exact", f"{name}@w", list(range(rng.randint(lo, hi) + 1)), 2, "exact"))
        return out

    def _block_tables(self, rng):
        def cayley_set(cid, pool=""):
            return f"{cid}#{pool}{rng.randrange(TABLE_POOL)}"

        out = []
        for cid in ("S4", "S5", self.dihedral):
            out.append({"kind": "cayley-large", "op": "large", "set": cayley_set(cid),
                        "ideal": {"kind": "trivial"}, "max_f": 64, "shift_range": 256})
        for cid in ("S4", "S5", self.dihedral, self.dihedral):
            out.append({"kind": "cayley-pack", "op": "pack", "set": cayley_set(cid, "pack"),
                        "ideal": {"kind": "trivial"}, "candidates": list(range(len(self.tables[cid][0]))),
                        "n": 2, "mode": "exact", "node_budget": 50_000})
        for cid in ("S4", self.dihedral):
            out.append({"kind": "cayley-small", "op": "small", "set": cayley_set(cid),
                        "ideal": {"kind": "trivial"}, "m": 1, "s": 1, "inner": [64, 256]})
        # (depth, core radius, translators, n): the core ball, the word
        # lengths and the translator count set the cost; the seed picks the
        # base piece and the words
        for depth, core, count, n in ((10, 6, 5, 2), (12, 6, 5, 3), (9, 7, 4, 2), (9, 7, 4, 2), (11, 5, 7, 3),
                                      (11, 5, 7, 3)):
            translators = _random_translators(rng, count, depth - core)
            out.append({"kind": "f2-disjoint", "op": "disjoint", "set": f"{rng.choice('AB')}@F{depth}",
                        "translators": translators, "n": n})
        for sid, m, s in (("A@F4", 2, 1), ("A@F4", 2, 1), ("B@F4", 1, 2)):
            out.append({"kind": "f2-small", "op": "small", "set": sid,
                        "ideal": {"kind": "trivial"}, "m": m, "s": s, "inner": [64, 256]})
        for sid, shift_range in (("A@F5", 1), ("B@F4", 2), ("A@F4", 1)):
            out.append({"kind": "f2-large", "op": "large", "set": sid,
                        "ideal": {"kind": "trivial"}, "max_f": 64, "shift_range": shift_range})
        # 21 templates.  The costliest one comes twice, so the tail percentile
        # (about the 11th-largest of the six to nine blocks a run measures)
        # sits inside it rather than on the edge between two templates.  Nine
        # are cheaper (the S5 packing the dearest of them) and nine dearer
        # (the F2 queries) than the three dihedral queries, two packings
        # whose cost the node budget fixes and one smallness query: the
        # median falls in the middle of that cluster, not on the gap below
        # it, where the host's speed would move it between two templates.
        return out

    def _block_catalog(self, rng):
        def window(lo, hi):
            return f"0:{rng.randint(lo, hi) - 1}"

        def pack(kind, tree, win, shifts, ideal, *extra):
            return _cli(kind, ["pack", "--set", show(tree), "--window", win,
                               "--shifts", f"0..{shifts}", "--ideal", ideal, *extra], {"--set": tree})

        out = [
            pack("cli-pack-density", *_finitely_meeting(rng, window(55_000, 57_000), 10), 10, "density-zero"),
            pack("cli-pack-density", dense_tree(rng, 1), window(55_000, 57_000), 10, "density-zero"),
            pack("cli-pack-finite", *_finitely_meeting(rng, window(110_000, 115_000), 14), 14, "finite-sets"),
            pack("cli-pack-finite", dense_tree(rng, 1), window(110_000, 115_000), 14, "finite-sets"),
            pack("cli-pack-finite", dense_tree(rng, 1), window(110_000, 115_000), 14, "finite-sets", "--exact"),
        ]
        for _ in range(2):
            out.append(pack("cli-pack-generated", _generated_member(rng), window(16_000, 17_000), 8, "generated",
                            "--generators", ",".join(show(g) for g in GENERATED_GENERATORS),
                            "--gen-shift-range", str(GENERATED_SHIFT_RANGE)))
        for tree in (sparse_tree(rng, 2), dense_tree(rng, 1)):
            schedule = sorted(rng.sample([32, 64, 128, 256, 512, 1024], 3))
            out.append(_cli("cli-density", ["density", "--set", show(tree), "--window", window(110_000, 115_000),
                                            "--schedule", ",".join(map(str, schedule))], {"--set": tree}))
        out.append(_measure_query(rng))
        out.append(_measure_query(rng))
        for tree in (sparse_tree(rng, 2), dense_tree(rng, 1)):
            out.append(_cli("cli-large", ["large", "--set", show(tree), "--window", window(90_000, 95_000)],
                            {"--set": tree}))
        # the two completions are the costliest templates, so the tail
        # percentile falls inside them
        out.append(_cli("cli-complete", ["complete", "--kind", "pack2", "--window", window(42_000, 44_000),
                                         "--shifts", "0..56", "--threshold", "8"]))
        out.append(_cli("cli-complete", ["complete", "--kind", "s", "--window", window(31_000, 32_000),
                                         "--m", "1", "--s", "3"]))
        out.append(self._counting_query(rng))
        out.append(self._counting_query(rng))
        # the Følner stage of the triangular numbers, the self-test's
        # example, on a window whose size alone the seed moves: the input
        # barely changes, and neither does the cost
        for _ in range(3):
            argv = ["measure", "--avoid", "triangular", "--F", "{1}", "--n", "10", "--eval", "evens",
                    "--window", window(84_000, 86_000)]
            out.append(_cli("cli-measure", argv, {"--avoid": ("triangular",), "--eval": ("evens",)}))
        # 20 templates.  The random expressions split the others into eight
        # cheap ones (sparse sets, the generated ideal, counting; under about
        # 10 ms) and nine dear ones (dense sets, random Følner stages,
        # completions; over about 20 ms), with little in between.  The three
        # fixed Følner stages cost about 15 ms, so the median falls in the
        # middle of them instead of in that gap, where it would jump between
        # the dearest cheap and the cheapest dear query from seed to seed.
        return out

    def _counting_query(self, rng):
        """counting_bound_check on a family the benchmark knows is 2-disjoint."""
        sid = rng.choice(sorted(self.sets))
        cid, expr = self.sets[sid]
        spec = self.carriers[cid]
        win = ZWindow(spec["lo"], spec["hi"], spec["margin"])
        bits = win.eval(expr)
        family, acc = [], []
        for c in rng.sample(range(spec["margin"] + 1), 120):
            t = win.translate(c, bits)
            if all(t & other == 0 for other in acc):
                family.append(c)
                acc.append(t)
            if len(family) == 12:
                break
        return {"kind": "counting", "op": "counting", "set": sid, "family": family, "n": 2}


def _cli(kind: str, argv: list, trees: dict | None = None) -> dict:
    """A CLI query; ``trees`` keeps the expression behind each set flag for
    the checker (the worker only reads ``argv``)."""
    return {"kind": kind, "op": "cli", "argv": argv, "trees": trees or {}}


GENERATED_GENERATORS = (("triangular",), ("powers", 2))
GENERATED_SHIFT_RANGE = 8


def _generated_member(rng):
    """A set the generated ideal covers with one translate of each generator."""
    r = GENERATED_SHIFT_RANGE
    return ("union", *(("shift", g, rng.randint(-r, r)) for g in GENERATED_GENERATORS))


def _finitely_meeting(rng, win: str, shifts: int) -> tuple:
    """(tree, window) for a sparse set whose translates by 0..shifts pairwise
    meet in at most FINITE_CUTOFF points of the window, so that no two of them
    conflict under the finite-sets or the density-zero ideal.  A sparse tree
    can still hold two leaves a few shifts apart (a union with its own
    shift); such a set is redrawn, so that the greedy packing of the sparse
    templates saturates, and closes, for every seed."""
    lo, hi = (int(x) for x in win.split(":"))
    carrier = ZWindow(lo, hi, shifts)
    while True:
        tree = sparse_tree(rng, 2)
        A = carrier.eval(tree)
        translates = [carrier.translate(c, A) for c in range(shifts + 1)]
        if all((a & b).bit_count() <= FINITE_CUTOFF for a, b in itertools.combinations(translates, 2)):
            return tree, win


def _random_translators(rng, count: int, maxlen: int) -> list[str]:
    """Distinct reduced words, one of them of length exactly ``maxlen``."""
    words: list[tuple] = []
    count = min(count, ball_count(maxlen))
    while len(words) < count:
        length = maxlen if not words else rng.randint(0, maxlen)
        w: tuple = ()
        while len(w) < length:
            w = mul_words(w, (rng.randrange(4),))
        if w not in words:
            words.append(w)
    return [word_text(w) for w in words]


# Sparse sets have unbounded gaps: they are never large, a Følner interval
# avoids them, and their translates meet in few points.  Dense sets contain
# a residue class or the complement of a sparse set, so they are large and
# their translates overlap everywhere.  Keeping the two apart makes each
# template's verdict, and so closed_frac, the same for every seed.
def sparse_tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(_SPARSE_LEAVES)(rng)
    op = rng.choice(["union", "inter", "diff", "shift"])
    if op == "shift":
        return ("shift", sparse_tree(rng, depth - 1), rng.randint(-40, 40))
    if op == "union":
        return ("union", sparse_tree(rng, depth - 1), sparse_tree(rng, depth - 1))
    other = sparse_tree(rng, depth - 1) if rng.random() < 0.5 else dense_tree(rng, depth - 1)
    return (op, sparse_tree(rng, depth - 1), other)


def dense_tree(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(_DENSE_LEAVES)(rng)
    op = rng.choice(["compl", "union", "diff", "shift"])
    if op == "compl":
        return ("compl", sparse_tree(rng, depth - 1))
    if op == "shift":
        return ("shift", dense_tree(rng, depth - 1), rng.randint(-40, 40))
    if op == "union":
        other = sparse_tree(rng, depth - 1) if rng.random() < 0.5 else dense_tree(rng, depth - 1)
        return ("union", dense_tree(rng, depth - 1), other)
    return ("diff", dense_tree(rng, depth - 1), sparse_tree(rng, depth - 1))


_SPARSE_LEAVES = (
    lambda r: ("triangular",),
    lambda r: ("powers", r.choice([2, 3, 5])),
    lambda r: ("ap", r.randint(0, 50), r.randint(200, 400)),
    lambda r: ("list", tuple(sorted(r.sample(range(2000), r.randint(1, 6))))),
    lambda r: ("name", r.choice(["tri", "pows", "spot", "tri7", "pows3", "sparsemix"])),
)
_DENSE_LEAVES = (
    lambda r: ("evens",),
    lambda r: ("ap", r.randint(0, 9), r.randint(2, 9)),
    lambda r: ("name", r.choice(["parity", "thirds", "odds"])),
    lambda r: ("compl", (lambda a: ("interval", a, a + r.randint(10, 40)))(r.randint(0, 5000))),
)


def _measure_query(rng: random.Random) -> dict:
    """A Følner-stage query whose avoiding translate exists and whose shifted
    evaluation intervals stay inside the window (so no query errors out)."""
    while True:
        size = rng.randint(110_000, 115_000)
        tree = sparse_tree(rng, 2)
        F = sorted(set(rng.choice([[1], [2], [1, -2], [-1, 3]])))
        n = rng.randint(5, 12)
        L = 2 * n * max(abs(x) for x in F) + 1
        arr = eval_z(tree, 0, size - 1)
        y = avoiding_translate(arr, L, 0, size - 1)
        if y is None or y - max(F) < 0 or y - min(F) + L - 1 > size - 1:
            continue
        evaluated = dense_tree(rng, 1)
        argv = ["measure", "--avoid", show(tree), "--F", "{" + ",".join(map(str, F)) + "}",
                "--n", str(n), "--eval", show(evaluated), "--window", f"0:{size - 1}"]
        return _cli("cli-measure", argv, {"--avoid": tree, "--eval": evaluated})


def avoiding_translate(arr: np.ndarray, L: int, lo: int, hi: int):
    """Least |y| (ties positive) with [y, y+L) inside [lo, hi] and disjoint
    from the set; None if there is none."""
    if L > arr.size:
        return None
    cs = np.concatenate(([0], np.cumsum(arr, dtype=np.int64)))
    free = (cs[L:] - cs[:-L]) == 0  # free[p]: window starting at lo + p misses the set
    starts = np.nonzero(free)[0] + lo
    if starts.size == 0:
        return None
    key = np.abs(starts) * 2 + (starts < 0)
    return int(starts[int(np.argmin(key))])



