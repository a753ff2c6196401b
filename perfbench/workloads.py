"""Workload inputs, the engine calls that make up each operation, and the
oracle each operation's result is checked against.

An operation is an ``Op``: ``run()`` calls graphfp's public functions and
returns a plain, JSON-serialisable result; ``expect()`` computes the same
plain result with ``oracles`` alone (or, for ``cli_golden``, reads the golden
transcript), so the two share no code.  Inputs come from ``random.Random``
seeded by ``--seed``; every op list has a fixed length and order.

graphfp is imported inside ``build`` so that the import is part of the
measured set-up.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles

GRAPHS = {
    # Two vertices joined by a directed 2-cycle.
    "h": {"vertices": ["v1", "v2"], "edges": [("e1", "v1", "v2"), ("e2", "v2", "v1")]},
    # A directed 3-cycle.
    "c3": {
        "vertices": ["p", "q", "r"],
        "edges": [("f1", "p", "q"), ("f2", "q", "r"), ("f3", "r", "p")],
    },
    # Disjoint self-loops.
    "selfloops": {"vertices": ["u", "w"], "edges": [("f", "u", "u"), ("g", "w", "w")]},
    # Two self-loops and a connecting 3-cycle: x and y branch.
    "tri": {
        "vertices": ["x", "y", "z"],
        "edges": [
            ("sx", "x", "x"),
            ("sy", "y", "y"),
            ("a", "x", "y"),
            ("b", "y", "z"),
            ("c", "z", "x"),
        ],
    },
}

COEFFS = [Fraction(c) for c in (1, 2, 3, -1, -2, "1/2", "-3/2")]

# The twenty golden commands of the CLI test suite, with paths relative to
# the repository root; each one's stdout must equal tests/golden/<name>.
GOLDEN_COMMANDS = {
    "paths.json": ["paths", "--graph", "tests/data/h.json", "--max-len", "2"],
    "reduce_ck.json": ["reduce", "--graph", "tests/data/h.json", "--word", "e1 e1*", "--mode", "ck"],
    "reduce_toeplitz.json": [
        "reduce", "--graph", "tests/data/h.json", "--word", "e1 e1*", "--mode", "toeplitz",
    ],
    "reduce_zero.json": ["reduce", "--graph", "tests/data/h.json", "--word", "e1 e1"],
    "lattice.json": ["lattice", "--graph", "tests/data/h.json", "--word", "e1 e2 e2* e1*"],
    "expect.json": ["expect", "--var", "tests/data/mixed.json"],
    "moment.json": ["moment", "--var", "tests/data/a_loop.json", "-n", "4"],
    "moment_d.json": [
        "moment", "--var", "tests/data/a_loop.json", "-n", "2", "--d", "tests/data/d_half.json",
    ],
    "cumulant.json": ["cumulant", "--var", "tests/data/a_loop.json", "-n", "2", "--contributions"],
    "free_pos.json": ["free", "--var", "tests/data/e1_only.json", "--var2", "tests/data/e2_only.json"],
    "free_neg.json": ["free", "--var", "tests/data/loop_only.json", "--var2", "tests/data/l2_only.json"],
    "classify.json": ["classify", "--var", "tests/data/a_e1.json"],
    "compress_v1.json": ["compress", "--var", "tests/data/compressvar.json", "--vertices", "v1"],
    "compress_diag.json": ["compress", "--var", "tests/data/compressvar.json", "--vertices", "v1,v2"],
    "series_moment.json": ["series", "--var", "tests/data/a_loop.json", "--vertex", "v1", "--order", "4"],
    "series_r.json": [
        "series", "--var", "tests/data/a_loop.json", "--vertex", "v1", "--order", "4",
        "--kind", "rtransform",
    ],
    "oracle.json": ["oracle", "--graph", "tests/data/h.json", "--trunc", "4"],
    "nc_debug.json": ["nc-debug", "-n", "4"],
    "expect_table.txt": ["expect", "--var", "tests/data/mixed.json", "--format", "table"],
    "series_table.txt": [
        "series", "--var", "tests/data/a_loop.json", "--vertex", "v1", "--order", "4",
        "--format", "table",
    ],
}

# Cumulant order of cumulant_cold and classify; order 7 costs about 15 s
# cold, all of it in the Mobius recursion.
ORDER = 6
FREENESS_ORDER = 4


# Longest an operation may take before it counts as failed.
OP_TIMEOUT_S = 60


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    expect: Callable[[], Any]
    argv: list[str] | None = None  # the command line of a cli_golden op


# -- seeded inputs -------------------------------------------------------------


def terms(template, rng=None):
    """Terms from a template such as ``"v1; e1 e2 ±; e1 e2 e1 e2 *"``: one
    term per item, ``*`` marking ``L*[w]`` and ``±`` adding ``L[w] + L*[w]``
    with one coefficient.  Coefficients are drawn from COEFFS with ``rng``,
    or are 1 without it.

    The seed picks coefficients only, never words, so every seed asks for
    the same amount of work.
    """
    out = []
    for item in template.split(";"):
        tokens = item.split()
        mark = tokens.pop() if tokens[-1] in ("*", "±") else ""
        c = rng.choice(COEFFS) if rng else Fraction(1)
        out.append((tuple(tokens), mark == "*", c))
        if mark == "±":
            out.append((tuple(tokens), True, c))
    return out


# -- plain results -------------------------------------------------------------


def _strs(values):
    return [str(c) for c in values]


def _str_dict(items):
    """A D-valued result as {vertex: rational string}, zero entries left out."""
    return {v: str(c) for v, c in sorted(items) if c != 0}


# -- workloads -----------------------------------------------------------------


class Engine:
    """graphfp, imported on first use, plus converters from plain specs."""

    def __init__(self):
        import graphfp

        self.gfp = graphfp
        self._graphs = {}

    def graph(self, name):
        if name not in self._graphs:
            spec = GRAPHS[name]
            self._graphs[name] = self.gfp.load_graph(
                {
                    "vertices": spec["vertices"],
                    "edges": [{"id": e, "src": s, "dst": d} for e, s, d in spec["edges"]],
                }
            )
        return self._graphs[name]

    def variable(self, graph_name, terms):
        g = self.graph(graph_name)
        gfp = self.gfp
        return gfp.RandomVariable(
            g,
            [
                ((gfp.make_word(g, list(tokens)), star), gfp.ExactComplex.of(c))
                for tokens, star, c in terms
            ],
        )


def _cumulant_cold(engine, rng):
    gfp = engine.gfp
    ops = []

    def rtransform(label, gname, terms, v, closed_form=None):
        spec = GRAPHS[gname]
        x = engine.variable(gname, terms)

        def expect():
            kept = oracles.compress(spec, terms, [v])
            moments = oracles.ck_moments(spec, kept, ORDER)
            ks = oracles.first_block_cumulants([m.get(v, 0) for m in moments])
            if closed_form is not None and ks != closed_form:
                return ["the moment solver disagrees with the closed form"]
            return _strs(ks)

        def run():
            return _strs(gfp.compressed_r_transform(x, v, ORDER))

        ops.append(Op(label, run, expect))

    def diagonal(label, gname, terms, vertices):
        spec = GRAPHS[gname]
        x = engine.variable(gname, terms)

        def expect():
            kept = oracles.compress(spec, terms, vertices)
            ks = oracles.cumulants_by_vertex(spec, oracles.ck_moments(spec, kept, ORDER))
            return _str_dict((v, k[ORDER - 1]) for v, k in ks.items())

        def run():
            k = gfp.trivial_cumulant(gfp.diagonal_compress(x, vertices), ORDER)
            return _str_dict(k.entries.items())

        ops.append(Op(label, run, expect))

    # The loop variable L[e1 e2] + L*[e1 e2] on h: its compression at v1
    # follows the arcsine law, which the check demands as well.
    arcsine = oracles.arcsine_cumulants(ORDER)
    rtransform("rtransform.h.arcsine", "h", terms("e1 e2 ±"), "v1", arcsine)
    # A vertex term, two loops at the compression vertex and one path that
    # compression drops.
    rtransform("rtransform.h", "h", terms("v2; e2 e1; e2 e1 e2 e1 *; e1", rng), "v2")
    rtransform("rtransform.c3", "c3", terms("q; f2 f3 f1; f2 f3 f1 *; f1", rng), "q")
    rtransform("rtransform.tri", "tri", terms("x; sx; a b c *; a", rng), "x")
    diagonal("diagonal.h", "h", terms("v1; e1 e2; e2 e1 *; e1", rng), ["v1", "v2"])
    diagonal("diagonal.tri", "tri", terms("x; sx *; sy; b c a; a", rng), ["x", "y"])
    return ops


def _freeness_scan(engine, rng):
    gfp = engine.gfp
    ops = []

    def pair(label, gname, terms_a, terms_b):
        spec = GRAPHS[gname]
        a, b = engine.variable(gname, terms_a), engine.variable(gname, terms_b)

        def expect():
            # A diagram-distinct pair is certified free, so no mixed cumulant
            # may survive the scan.
            if not oracles.diagram_distinct(spec, terms_a, terms_b):
                return ["pair is not diagram-distinct"]
            return [True, None]

        def run():
            free, witness = gfp.mixed_cumulants_vanish(a, b, FREENESS_ORDER)
            return [free, list(witness.pattern) if witness else None]

        ops.append(Op(label, run, expect))

    def classify(label, gname, terms, vertices):
        spec = GRAPHS[gname]
        x = gfp.diagonal_compress(engine.variable(gname, terms), vertices)

        def expect():
            kept = oracles.compress(spec, terms, vertices)
            ks = oracles.cumulants_by_vertex(spec, oracles.laurent_moments(spec, kept, ORDER))
            nonzero = {n for k in ks.values() for n in range(1, ORDER + 1) if k[n - 1] != 0}
            sa = oracles.is_self_adjoint(spec, kept)
            return {
                "even": sa and not any(n % 2 for n in nonzero),
                "semicircular": sa and nonzero == {2},
            }

        def run():
            report = gfp.classify(x, ORDER)
            return {"even": report.even, "semicircular": report.semicircular}

        ops.append(Op(label, run, expect))

    # Loops based at different vertices: certified free, so the scan must
    # come back empty.
    pair("pair.h", "h", terms("v1; e1 e2 ±", rng), terms("e2 e1; e2 e1 e2 e1 *", rng))
    pair("pair.c3", "c3", terms("f1 f2 f3 ±", rng), terms("r; f3 f1 f2 *; f3 f1 f2", rng))
    pair("pair.selfloops", "selfloops", terms("u; f ±; f f", rng), terms("g ±", rng))
    pair("pair.tri", "tri", terms("sx ±", rng), terms("y; b c a ±", rng))
    # Two loops based at the branching vertex x of tri: diagram-distinct, yet
    # the scan finds the mixed cumulant k4(a, b, b, a) nonzero.  The op does
    # not depend on the seed and fails on every attempt (a known fault).
    pair("pair.tri.same_vertex", "tri", terms("sx ±"), terms("a b c ±"))
    classify("classify.h", "h", terms("v1; e1 e2 ±; e1 e2 e1 e2 ±; e1", rng), ["v1"])
    classify("classify.c3", "c3", terms("f1 f2 f3 ±; f2 f3 f1 ±; f3", rng), ["p", "q"])
    classify("classify.selfloops", "selfloops", terms("u; f ±; g ±; g g ±", rng), ["u", "w"])
    # Untimed warm-up, as in a long-running library process: one trivial
    # cumulant of every order the scan uses fills the Mobius and NC(n) caches.
    x = engine.variable("h", terms("e1 e2 ±"))
    for n in range(1, ORDER + 1):
        gfp.trivial_cumulant(x, n)
    return ops


def _moment_chain(engine, rng):
    gfp = engine.gfp
    ops = []

    def chain(label, gname, terms, n):
        spec = GRAPHS[gname]
        x = engine.variable(gname, terms)

        def expect():
            return _str_dict(oracles.laurent_moments(spec, terms, n)[-1].items())

        ops.append(Op(label, lambda: _str_dict(gfp.moment([x] * n).entries.items()), expect))

    def series(label, gname, terms, v, order):
        spec = GRAPHS[gname]
        x = engine.variable(gname, terms)

        def expect():
            kept = oracles.compress(spec, terms, [v])
            return _strs(m.get(v, 0) for m in oracles.laurent_moments(spec, kept, order))

        ops.append(
            Op(label, lambda: _strs(gfp.compressed_moment_series(x, v, order)), expect)
        )

    # Three loop terms and a vertex term at one vertex, plus one other path.
    for gname, template, v, n in (
        ("h", "v1; e1 e2; e1 e2 *; e1 e2 e1 e2 *; e1", "v1", 32),
        ("c3", "p; f1 f2 f3; f1 f2 f3 *; f1 f2 f3 f1 f2 f3; f1", "p", 32),
        ("selfloops", "u; f; f *; f f *; g", "u", 32),
    ):
        x = terms(template, rng)
        chain(f"moment.{gname}", gname, x, n)
        series(f"series.{gname}", gname, x, v, 16)
    return ops


def cli_env(root):
    """The environment of a CLI child: graphfp from the checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _cli_golden(root):
    ops = []
    env = cli_env(root)
    for name, argv in GOLDEN_COMMANDS.items():
        golden = root / "tests" / "golden" / name

        def run(argv=argv):
            done = subprocess.run(
                [sys.executable, "-m", "graphfp.cli", *argv],
                cwd=root,
                env=env,
                capture_output=True,
                timeout=OP_TIMEOUT_S,
            )
            return [done.returncode, done.stdout]

        ops.append(Op(name, run, lambda golden=golden: [0, golden.read_bytes()], argv))
    return ops


def build(workload, seed, root: Path):
    """The workload's op list.  Imports graphfp; for cli_golden, whose ops
    are command lines run in fresh interpreters, that is all the set-up."""
    if workload == "cli_golden":
        import graphfp.cli  # noqa: F401  (the import every CLI call pays)

        return _cli_golden(root)
    make_ops = {
        "cumulant_cold": _cumulant_cold,
        "freeness_scan": _freeness_scan,
        "moment_chain": _moment_chain,
    }
    return make_ops[workload](Engine(), random.Random(f"{workload}:{seed}"))
