"""Acceptance gate: one test and one verdict line per shipped guarantee.

Each criterion prints ``ACCEPTANCE <nn> <name>: PASS`` or ``FAIL(detail)``
into the terminal summary (see conftest) and then asserts.

Criteria 03 and 07 pin the law of the loop variable a = L[l] + L*[l] on
the 2-cycle: even, with the arcsine cumulants k_{2m} = (-1)^(m-1) 2 C_{m-1}
at v1 (k4 = -2, k6 = 4), hence not semicircular.  Their expected values
come from the closed form over ``util.catalan`` and from the scalar
moment-cumulant recursion ``util.scalar_cumulants_from_moments`` applied to
the balanced-sign moments of ``util.balanced_sign_count``, never from the
engine's cumulant code.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from graphfp import (
    CK,
    DiagonalElement,
    ExactComplex,
    Monomial,
    NoncrossingPartition,
    RandomVariable,
    annihilation,
    classify,
    compress_vertex,
    compressed_moment_series,
    compressed_r_transform,
    creation,
    cumulant,
    diagonal_compress,
    enumerate_nc,
    expectation,
    freeness_certificate,
    lattice_path,
    leq,
    mixed_cumulants_vanish,
    mobius,
    moment,
    multiply,
    path_word,
    reduce_monomial,
    to_general,
    trivial_cumulant,
)
from graphfp.cli import main as cli_main
from graphfp.fock import cross_check_reduction, truncated_basis, verify_relations

from test_cli import GOLDEN_COMMANDS, _d
from util import (
    ACCEPTANCE_LINES,
    balanced_sign_count,
    catalan,
    cumulant_via_multiplier,
    random_variable,
    scalar_cumulants_from_moments,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else f"FAIL({detail})"
    if ok and detail:
        status = f"PASS ({detail})"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _var(letter) -> RandomVariable:
    return RandomVariable.from_letter(letter)


def _loop_variable(h) -> RandomVariable:
    return _var(creation(path_word(h, ["e1", "e2"]))) + _var(
        annihilation(path_word(h, ["e1", "e2"]))
    )


def _fmt(d: DiagonalElement) -> str:
    if d.is_zero():
        return "0"
    return "{" + ", ".join(f"{v}: {c}" for v, c in sorted(d.entries.items())) + "}"


def _fmt_series(xs) -> str:
    return "[" + ", ".join(str(x) for x in xs) + "]"


def test_criterion_01_star_axis_expectation_law(h, h_letters):
    letters = list(h_letters.values())
    bad = []
    for n in range(1, 7):
        for combo in product(letters, repeat=n):
            m = Monomial(combo)
            nonzero = not expectation(reduce_monomial(m, CK), h).is_zero()
            if nonzero != lattice_path(m).star_axis:
                bad.append(m)
    _verdict(
        1,
        "star-axis expectation law",
        not bad,
        f"{len(bad)} counterexamples, first: {bad[0]}" if bad else "",
    )


def test_criterion_02_cumulant_shortcut_agreement(h, h_letters):
    letters = list(h_letters.values())
    checked = 0
    for n in range(1, 5):
        for combo in product(letters, repeat=n):
            if not lattice_path(Monomial(combo)).star_axis:
                continue
            direct = cumulant([_var(x) for x in combo])
            if cumulant_via_multiplier(list(combo)) != direct:
                _verdict(2, "cumulant shortcut agreement", False, f"tuple {Monomial(combo)}")
            checked += 1
    # 2 + 6 + 14 + 38 star-axis tuples of lengths 1..4 over the six letters.
    _verdict(
        2,
        "cumulant shortcut agreement",
        checked == 60,
        f"expected 60 star-axis tuples, saw {checked}",
    )


def _arcsine_cumulants(order: int) -> list[Fraction]:
    """k_1..k_order of u + u* for a unitary u: k_{2m} = (-1)^(m-1) 2 C_{m-1}."""
    return [
        Fraction(0) if n % 2 else Fraction((-1) ** (n // 2 - 1) * 2 * catalan(n // 2 - 1))
        for n in range(1, order + 1)
    ]


def _balanced_sign_moments(order: int) -> list[Fraction]:
    return [Fraction(balanced_sign_count(n)) for n in range(1, order + 1)]


def test_criterion_03_loop_semicircularity(h):
    a = _loop_variable(h)
    expected = _arcsine_cumulants(6)
    problems = []
    # The closed form must agree with the free cumulants of the balanced-sign
    # moments C(2m, m) before it may serve as the target.
    recursion = scalar_cumulants_from_moments(_balanced_sign_moments(6))
    if expected != recursion:
        problems.append(
            f"closed form {_fmt_series(expected)} != recursion {_fmt_series(recursion)}"
        )

    two = DiagonalElement(h, {"v1": expected[1]})
    k2_inversion = trivial_cumulant(a, 2)

    # Second path to k2: bilinear expansion into letter pairs, star-axis
    # pairs through the multiplier shortcut, the rest checked zero.
    l_c = creation(path_word(h, ["e1", "e2"]))
    l_a = annihilation(path_word(h, ["e1", "e2"]))
    k2_shortcut = DiagonalElement.zero(h)
    for pair in product((l_c, l_a), repeat=2):
        if lattice_path(Monomial(pair)).star_axis:
            k2_shortcut = k2_shortcut + cumulant_via_multiplier(list(pair))
        else:
            assert cumulant([_var(x) for x in pair]).is_zero()
    if not (k2_inversion == two and k2_shortcut == two):
        problems.append(f"k2 inversion {_fmt(k2_inversion)} shortcut {_fmt(k2_shortcut)}")

    for n in (1, 3, 4, 5, 6):
        kn = trivial_cumulant(a, n)
        if kn != DiagonalElement(h, {"v1": expected[n - 1]}):
            problems.append(f"k{n}={_fmt(kn)}, want {expected[n - 1]} at v1")

    report = classify(a, max_order=6)
    if not report.even or report.semicircular:
        problems.append(f"classify even={report.even} semicircular={report.semicircular}")
    _verdict(
        3,
        "loop semicircularity",
        not problems,
        "; ".join(problems)
        or f"arcsine, not semicircular: k4={expected[3]}, k6={expected[5]} at v1",
    )


def test_criterion_04_evenness_and_r_diagonality(h):
    a = _var(creation(path_word(h, ["e1"]))) + _var(annihilation(path_word(h, ["e1"])))
    problems = []
    for n in (1, 3, 5, 7):
        if not moment([a] * n).is_zero():
            problems.append(f"m{n} nonzero")
        if not trivial_cumulant(a, n).is_zero():
            problems.append(f"k{n} nonzero")

    e_c = _var(creation(path_word(h, ["e1"])))
    e_a = _var(annihilation(path_word(h, ["e1"])))
    for n in range(1, 7):
        for pattern in product((False, True), repeat=n):
            alternating = n % 2 == 0 and all(
                pattern[i] != pattern[i + 1] for i in range(n - 1)
            )
            if alternating:
                continue
            value = cumulant([e_a if s else e_c for s in pattern])
            if not value.is_zero():
                problems.append(f"non-alternating cumulant {pattern} = {_fmt(value)}")
    _verdict(4, "evenness and R-diagonality", not problems, "; ".join(problems))


def test_criterion_05_freeness_characterization(h):
    a = _var(creation(path_word(h, ["e1"])))
    b = _var(creation(path_word(h, ["e2"])))
    ok_pos, _none = mixed_cumulants_vanish(a, b, max_order=4)

    loop = _var(creation(path_word(h, ["e1", "e2"])))
    loop2 = _var(creation(path_word(h, ["e1", "e2", "e1", "e2"])))
    ok_neg, witness = mixed_cumulants_vanish(loop, loop2, max_order=4)

    good = ok_pos and not ok_neg and witness is not None
    detail = (
        f"witness k{witness.order}{witness.pattern} = {_fmt(witness.value)}"
        if witness is not None
        else "no witness produced"
    )
    _verdict(5, "freeness characterization", good, detail)


def test_criterion_06_compression_support_law(h, tri):
    rng = random.Random(97)
    failures = 0
    for g in (h, tri):
        for _ in range(100):
            a = random_variable(g, rng, max_len=3, max_terms=5)
            for v0 in g.vertices:
                x = compress_vertex(a, v0)
                p = DiagonalElement(g, {v0: 1})
                ok = (
                    x.path_support() == a.loops_at(v0)
                    and x.paired_path_support() == a.paired_loops_at(v0)
                    and to_general(x) == multiply(multiply(p, a), p)
                )
                failures += not ok
    _verdict(6, "compression support law", failures == 0, f"{failures} failures")


def test_criterion_07_compressed_series_values(h):
    a = _loop_variable(h)
    l_c = creation(path_word(h, ["e1", "e2"]))
    l_a = annihilation(path_word(h, ["e1", "e2"]))

    def oracle_moment(n: int) -> Fraction:
        total = Fraction(0)
        for pattern in product((False, True), repeat=n):
            m = Monomial(tuple(l_a if s else l_c for s in pattern))
            total += expectation(reduce_monomial(m, CK), h).get("v1").re
        return total

    moments = compressed_moment_series(a, "v1", 4)
    rseries = compressed_r_transform(a, "v1", 4)
    oracle = [oracle_moment(n) for n in range(1, 5)]
    recursion = scalar_cumulants_from_moments(oracle)
    problems = []
    if not (
        moments == [ExactComplex.of(m) for m in oracle]
        and oracle == _balanced_sign_moments(4) == [0, 2, 0, 6]
    ):
        problems.append(f"moment series {_fmt_series(moments)}, oracle {_fmt_series(oracle)}")
    if not (
        rseries == [ExactComplex.of(k) for k in recursion]
        and recursion == _arcsine_cumulants(4)
    ):
        problems.append(
            f"R-series {_fmt_series(rseries)}, recursion {_fmt_series(recursion)}, "
            f"closed form {_fmt_series(_arcsine_cumulants(4))}"
        )
    _verdict(
        7,
        "compressed series values",
        not problems,
        "; ".join(problems) or f"moments {_fmt_series(oracle)}, R-series {_fmt_series(recursion)}",
    )


def test_criterion_08_orthogonal_compression_laws(selfloops):
    rng = random.Random(101)
    failures = []
    for i in range(25):
        a = random_variable(selfloops, rng, max_len=2, max_terms=4)
        xu = compress_vertex(a, "u")
        xv = compress_vertex(a, "v")
        powers_u = {1: to_general(xu)}
        powers_v = {1: to_general(xv)}
        for k in (2, 3):
            powers_u[k] = multiply(powers_u[k - 1], xu)
            powers_v[k] = multiply(powers_v[k - 1], xv)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                if not multiply(powers_u[m], powers_v[n]).is_zero():
                    failures.append(f"var {i}: product {m},{n} nonzero")
        both = diagonal_compress(a, ["u", "v"])
        for n in range(1, 5):
            split = trivial_cumulant(xu, n) + trivial_cumulant(xv, n)
            if trivial_cumulant(both, n) != split:
                failures.append(f"var {i}: k{n} does not split")
    _verdict(
        8,
        "orthogonal compression laws",
        not failures,
        "; ".join(failures[:3]),
    )


def test_criterion_09_compressed_freeness_preservation(h, selfloops, tri):
    rng = random.Random(103)
    failures = []

    # Pairs drawn from fixed supports, then compressed.  The premise, that
    # a pair is free over D, comes from the scan of the pair itself; a draw
    # without it is skipped and counted, and a certified draw must have it.
    pools = [
        (["e1"], ["e2"]),
        ([("e1", "e2")], [("e2", "e1")]),
        (["e1", ("e1", "e2")], ["e2"]),
    ]
    kept, skipped = [], 0
    for pa, pb in pools:
        words_a = [path_word(h, list(w) if isinstance(w, tuple) else [w]) for w in pa]
        words_b = [path_word(h, list(w) if isinstance(w, tuple) else [w]) for w in pb]
        kept.append(0)
        for _ in range(3):
            a = random_variable(h, rng, max_terms=2, words=words_a)
            b = random_variable(h, rng, max_terms=2, words=words_b)
            if not (a.path_support() and b.path_support()):
                continue
            free, _w = mixed_cumulants_vanish(a, b, max_order=4)
            if freeness_certificate(a, b) and not free:
                failures.append(f"certified but not free on supports {pa} vs {pb}")
            if not free:
                skipped += 1
                continue
            kept[-1] += 1
            for v0 in h.vertices:
                xa = compress_vertex(a, v0)
                xb = compress_vertex(b, v0)
                if xa == xb and not xa.path_support():
                    continue
                ok, w = mixed_cumulants_vanish(xa, xb, max_order=4)
                if not ok:
                    failures.append(f"vertex {v0}: witness order {w.order}")
            da = diagonal_compress(a, ["v1", "v2"])
            db = diagonal_compress(b, ["v1", "v2"])
            if da == db and not da.path_support():
                continue
            ok, w = mixed_cumulants_vanish(da, db, max_order=4)
            if not ok:
                failures.append(f"diagonal: witness order {w.order}")

    # Disjoint vertex sets with no shared loops: the two compressions of a
    # single variable must be free.
    for g, v1, v2 in ((selfloops, "u", "v"), (tri, "x", "y")):
        for _ in range(3):
            a = random_variable(g, rng, max_len=2, max_terms=3)
            xa = compress_vertex(a, v1)
            xb = compress_vertex(a, v2)
            if xa == xb:
                continue
            ok, w = mixed_cumulants_vanish(xa, xb, max_order=4)
            if not ok:
                failures.append(f"split {v1}/{v2} on {g.vertices}: order {w.order}")
    if not all(kept):
        failures.append(f"a pool kept no free draw: {kept}")
    _verdict(
        9,
        "compressed freeness preservation",
        not failures,
        "; ".join(failures[:3]) or f"free draws per pool {kept}, {skipped} not free skipped",
    )


def test_criterion_10_matrix_model_cross_check(h, h_letters):
    reports = verify_relations(h, max_len=8)
    gaps = [r for r in reports if r["status"] == "expected-gap"]
    rest = [r for r in reports if r["status"] != "expected-gap"]
    problems = []
    if not (rest and all(r["status"] == "pass" and r["max_error"] <= 1e-12 for r in rest)):
        problems.append("a Toeplitz relation exceeded 1e-12")
    if len(gaps) != 1 or gaps[0]["counterexample"]["vector"] != "v1":
        problems.append("missing rewrite counterexample")

    basis = truncated_basis(h, 8)
    letters = list(h_letters.values())
    checked = 0
    for n in range(1, 6):
        for combo in product(letters, repeat=n):
            if not cross_check_reduction(Monomial(combo), h, 8, basis=basis):
                problems.append(f"mismatch at {Monomial(combo)}")
                break
            checked += 1
        if problems and problems[-1].startswith("mismatch"):
            break
    if checked < 9330 and not problems:
        problems.append(f"only {checked} monomials checked")
    _verdict(10, "matrix model cross-check", not problems, "; ".join(problems))


def test_criterion_11_noncrossing_combinatorics():
    problems = []
    for n in range(1, 10):
        if len(enumerate_nc(n)) != catalan(n):
            problems.append(f"NC({n}) count")
    for n in range(1, 9):
        got = mobius(NoncrossingPartition.bottom(n), NoncrossingPartition.top(n))
        if got != (-1) ** (n - 1) * catalan(n - 1):
            problems.append(f"mobius closed form at n={n}")
    for n in range(1, 7):
        parts = enumerate_nc(n)
        below = {q: [x for x in parts if leq(x, q)] for q in parts}
        for q in parts:
            for p in below[q]:
                total = sum(mobius(x, q) for x in below[q] if leq(p, x))
                if total != (1 if p == q else 0):
                    problems.append(f"defining identity at n={n}")
    _verdict(11, "noncrossing combinatorics", not problems, "; ".join(problems[:3]))


def test_criterion_12_cli_contract(capsys):
    problems = []
    for golden, argv in GOLDEN_COMMANDS.items():
        if cli_main(argv) != 0:
            problems.append(f"{golden}: nonzero exit")
            capsys.readouterr()
            continue
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        if first != second:
            problems.append(f"{golden}: unstable output")
    codes = [
        (1, []),
        (1, ["paths", "--graph", _d("h.json")]),
        (2, ["paths", "--graph", _d("nosuch.json"), "--max-len", "2"]),
        (2, ["expect", "--var", _d("h.json")]),
        (3, ["series", "--var", _d("a_loop.json"), "--vertex", "v9", "--order", "2"]),
        (3, ["cumulant", "--var", _d("a_loop.json"), "-n", "9"]),
        (3, ["nc-debug", "-n", "11"]),
    ]
    for want, argv in codes:
        got = cli_main(argv)
        capsys.readouterr()
        if got != want:
            problems.append(f"exit {got} != {want} for {argv or 'no-args'}")
    _verdict(12, "CLI contract", not problems, "; ".join(problems[:3]))
