"""End-to-end command-line checks against golden transcripts.

Every command is run in-process and compared byte-for-byte, so key order,
number formatting and trailing newlines are all part of the contract.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from graphfp import variable_from_json
from graphfp.cli import main

from util import catalan

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def _d(name: str) -> str:
    return str(DATA / name)


GOLDEN_COMMANDS = {
    "paths.json": ["paths", "--graph", _d("h.json"), "--max-len", "2"],
    "reduce_ck.json": [
        "reduce", "--graph", _d("h.json"), "--word", "e1 e1*", "--mode", "ck",
    ],
    "reduce_toeplitz.json": [
        "reduce", "--graph", _d("h.json"), "--word", "e1 e1*", "--mode", "toeplitz",
    ],
    "reduce_zero.json": ["reduce", "--graph", _d("h.json"), "--word", "e1 e1"],
    "lattice.json": [
        "lattice", "--graph", _d("h.json"), "--word", "e1 e2 e2* e1*",
    ],
    "expect.json": ["expect", "--var", _d("mixed.json")],
    "moment.json": ["moment", "--var", _d("a_loop.json"), "-n", "4"],
    "moment_d.json": [
        "moment", "--var", _d("a_loop.json"), "-n", "2", "--d", _d("d_half.json"),
    ],
    "cumulant.json": [
        "cumulant", "--var", _d("a_loop.json"), "-n", "2", "--contributions",
    ],
    "free_pos.json": [
        "free", "--var", _d("e1_only.json"), "--var2", _d("e2_only.json"),
    ],
    "free_neg.json": [
        "free", "--var", _d("loop_only.json"), "--var2", _d("l2_only.json"),
    ],
    "classify.json": ["classify", "--var", _d("a_e1.json")],
    "compress_v1.json": [
        "compress", "--var", _d("compressvar.json"), "--vertices", "v1",
    ],
    "compress_diag.json": [
        "compress", "--var", _d("compressvar.json"), "--vertices", "v1,v2",
    ],
    "series_moment.json": [
        "series", "--var", _d("a_loop.json"), "--vertex", "v1", "--order", "4",
    ],
    "series_r.json": [
        "series", "--var", _d("a_loop.json"), "--vertex", "v1", "--order", "4",
        "--kind", "rtransform",
    ],
    "oracle.json": ["oracle", "--graph", _d("h.json"), "--trunc", "4"],
    "nc_debug.json": ["nc-debug", "-n", "4"],
    "expect_table.txt": [
        "expect", "--var", _d("mixed.json"), "--format", "table",
    ],
    "series_table.txt": [
        "series", "--var", _d("a_loop.json"), "--vertex", "v1", "--order", "4",
        "--format", "table",
    ],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
def test_golden_transcript(golden, capsys):
    argv = GOLDEN_COMMANDS[golden]
    assert main(argv) == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / golden).read_text()
    assert out == expected


def test_output_is_run_to_run_stable(capsys):
    argv = GOLDEN_COMMANDS["cumulant.json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_json_outputs_are_parseable_and_compact(capsys):
    for golden, argv in GOLDEN_COMMANDS.items():
        if not golden.endswith(".json"):
            continue
        assert main(argv) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_compressed_variable_round_trips(capsys):
    assert main(GOLDEN_COMMANDS["compress_v1.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    var = variable_from_json(doc)
    assert {str(w) for w, _s in var.terms} == {"v1", "e1 e2"}


# -- exit codes --------------------------------------------------------------------


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors_exit_one(capsys):
    for argv in ([], ["frobnicate"], ["paths", "--graph", _d("h.json")]):
        code, out, err = _run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err


def test_format_errors_exit_two(tmp_path, capsys):
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    for argv in (
        ["paths", "--graph", str(mangled), "--max-len", "2"],
        ["paths", "--graph", str(tmp_path / "missing.json"), "--max-len", "2"],
        ["expect", "--var", _d("h.json")],
    ):
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err


def test_domain_errors_exit_three(capsys):
    for argv in (
        ["reduce", "--graph", _d("h.json"), "--word", "e9"],
        ["series", "--var", _d("a_loop.json"), "--vertex", "v9", "--order", "2"],
        ["moment", "--var", _d("a_loop.json"), "-n", "0"],
        ["cumulant", "--var", _d("a_loop.json"), "-n", "9"],
        ["nc-debug", "-n", "11"],
        ["oracle", "--graph", _d("h.json"), "--trunc", "0"],
    ):
        code, out, err = _run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err


def test_moment_refuses_more_diagonal_files_than_slots(capsys):
    d = _d("d_half.json")
    argv = ["moment", "--var", _d("a_loop.json"), "-n", "1", "--d", d, "--d", d]
    code, out, err = _run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "got 2 diagonal files for order 1" in err


def test_compress_refuses_an_empty_vertex_list(capsys):
    code, out, err = _run(["compress", "--var", _d("compressvar.json"), "--vertices", ","], capsys)
    assert code == 2
    assert out == ""
    assert "no vertices given" in err


def test_table_of_a_zero_expectation(capsys):
    # L[e1] has no vertex component, so its expectation is zero.
    code, out, _err = _run(["expect", "--var", _d("e1_only.json"), "--format", "table"], capsys)
    assert code == 0
    assert out == "(zero)\n"


def test_classify_support_hints(tmp_path, capsys):
    # compressvar mixes the loops e1 e2 and e2 e1 with the non-loop e1; a
    # variable of vertex terms alone lies in the diagonal.
    doc = _json_of(["classify", "--var", _d("compressvar.json"), "--max-order", "2"], capsys)
    assert doc["support"] == "mixed paths"
    diagonal = tmp_path / "diagonal.json"
    diagonal.write_text(json.dumps({
        "graph": json.loads((DATA / "h.json").read_text()),
        "terms": [{"word": ["v1"], "star": False, "re": "2", "im": "0"}],
    }))
    doc = _json_of(["classify", "--var", str(diagonal), "--max-order", "2"], capsys)
    assert doc["support"] == "diagonal"


def test_oracle_refuses_a_basis_above_the_bound(capsys):
    # Two loops at one vertex give 2^(k+1) - 1 words of length <= k: 4095 at
    # k = 11 is within the bound of 4096, and k = 12 is the first above it.
    # The count stops there, so even a huge --trunc is refused at once.
    for trunc in ("12", "1000000000"):
        code, out, err = _run(["oracle", "--graph", _d("loops2.json"), "--trunc", trunc], capsys)
        assert code == 3
        assert out == ""
        assert "at least 8191 basis words" in err


def test_free_refuses_orders_above_its_own_bound(capsys):
    # The scan covers every {a, a*, b, b*} pattern of each order, so free
    # stops at 6 while cumulant, series and classify go to 8.
    for order in ("7", "8"):
        argv = ["free", "--var", _d("e1_only.json"), "--var2", _d("e2_only.json"),
                "--max-order", order]
        code, out, err = _run(argv, capsys)
        assert code == 3
        assert out == ""
        assert f"max order {order} exceeds the supported bound 6" in err
    assert _run(["classify", "--var", _d("a_loop.json"), "--max-order", "8"], capsys)[0] == 0


def test_paths_refuses_a_listing_above_the_bound(capsys):
    # loops2 has 2^(k+1) - 1 words of length <= k, as for the oracle basis.
    doc = _json_of(["paths", "--graph", _d("loops2.json"), "--max-len", "11"], capsys)
    assert len(doc) == 4095
    for max_len in ("12", "40"):
        code, out, err = _run(["paths", "--graph", _d("loops2.json"), "--max-len", max_len], capsys)
        assert code == 3
        assert out == ""
        assert "--max-len " + max_len + " needs at least 8191 basis words" in err


# -- the documented bounds -----------------------------------------------------


def _json_of(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _arcsine_cumulant(n: int) -> int:
    # k_{2m} = (-1)^(m-1) 2 C_{m-1} for the loop variable; odd orders vanish.
    if n % 2:
        return 0
    m = n // 2
    return (-1) ** (m - 1) * 2 * catalan(m - 1)


def test_cumulant_at_the_order_bound(capsys):
    doc = _json_of(["cumulant", "--var", _d("a_loop.json"), "-n", "8"], capsys)
    assert _arcsine_cumulant(8) == -10
    assert doc == {"n": 8, "value": {"v1": {"im": "0", "re": "-10"}}}


def _scalars(value: dict) -> dict:
    return {v: (Fraction(c["re"]), Fraction(c["im"])) for v, c in value.items()}


@pytest.mark.parametrize(
    "inputs, want",
    [
        (["--var", _d("compressvar.json")], {"v1": (-10, 0)}),
        (["--var", _d("a_loop.json"), "--d", _d("d_half.json")], {"v1": (-5, 0)}),
    ],
    ids=["compressvar", "a_loop_d_half"],
)
def test_contributions_sum_to_the_printed_cumulant(inputs, want, capsys):
    # The value comes from the first-block recursion and the contributions
    # from the partition moments over NC(8): their Mobius-weighted sum must
    # be the printed value.
    doc = _json_of(["cumulant", *inputs, "-n", "8", "--contributions"], capsys)
    assert len(doc["contributions"]) == catalan(8)
    total: dict = {}
    for entry in doc["contributions"]:
        weight = int(entry["mobius"])
        for v, (re, im) in _scalars(entry["value"]).items():
            old = total.get(v, (0, 0))
            total[v] = (old[0] + weight * re, old[1] + weight * im)
    assert {v: c for v, c in total.items() if c != (0, 0)} == _scalars(doc["value"]) == want


def test_rtransform_series_at_the_order_bound(capsys):
    argv = [
        "series", "--var", _d("a_loop.json"), "--vertex", "v1", "--order", "8",
        "--kind", "rtransform",
    ]
    doc = _json_of(argv, capsys)
    want = [_arcsine_cumulant(n) for n in range(1, 9)]
    assert want == [0, 2, 0, -2, 0, 4, 0, -10]
    assert doc["coefficients"] == [[str(k), "0"] for k in want]


def test_both_series_kinds_take_orders_past_the_cumulant_bound(capsys):
    # The R-series is solved from the moment series by the scalar
    # moment-cumulant recursion, so both kinds accept orders up to 10**6;
    # bad orders and unknown vertices still exit 3 at once.
    argv = ["series", "--var", _d("a_loop.json"), "--vertex", "v1", "--order", "64"]
    doc = _json_of(argv, capsys)
    assert doc["kind"] == "moment"
    # Moments of the arcsine law: C(2m, m) at order 2m, 0 at odd orders.
    assert doc["coefficients"] == [
        [str(0 if n % 2 else math.comb(n, n // 2)), "0"] for n in range(1, 65)
    ]
    doc = _json_of(argv + ["--kind", "rtransform"], capsys)
    assert doc["kind"] == "rtransform"
    assert doc["coefficients"] == [[str(_arcsine_cumulant(n)), "0"] for n in range(1, 65)]
    assert _arcsine_cumulant(64) == -2 * catalan(31)
    for kind in ("moment", "rtransform"):
        for flag, value in (("--order", "0"), ("--vertex", "v9")):
            bad = list(argv)
            bad[bad.index(flag) + 1] = value
            code, out, err = _run(bad + ["--kind", kind], capsys)
            assert code == 3
            assert out == ""
            assert err.startswith("graphfp: domain error:")


def test_nc_debug_at_the_size_bound(capsys):
    doc = _json_of(["nc-debug", "-n", "10"], capsys)
    assert doc == {"count": 16796, "mobius_bottom_top": "-4862", "n": 10}
    assert -catalan(9) == -4862
