"""Per-layer metrics from the standard-library profiler.

A layer is one module of ``src/graphfp``.  Profiles are reduced to rows
``[module, function, line, calls, own seconds, inclusive seconds]`` for the
functions defined in graphfp, summed over operations and turned into the
metrics listed in ``PER_LAYER``.  Methods that ``dataclasses`` generates
(``__init__``, ``__eq__``, ``__hash__`` of frozen classes) have no source
file, so their time is in no layer's ``self_s``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import subprocess
import sys
from pathlib import Path

LAYERS = ("cli", "compress", "fock", "freeprob", "graph", "ncpart", "opcalc", "scalars")

# ExactComplex operators; __radd__ and __rmul__ are the same functions as
# __add__ and __mul__.
_ARITH = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_fock_s": "s",
    "cli.main_s": "s",
    "ncpart.mobius_calls": "count",
    "ncpart.leq_calls": "count",
    "ncpart.self_s": "s",
    "ncpart.enumerate_nc_s": "s",
    "freeprob.partition_moment_calls": "count",
    "freeprob.cumulant_calls": "count",
    "freeprob.partition_moment_s": "s",
    "freeprob.self_s": "s",
    "freeprob.moment_s": "s",
    "opcalc.multiply_calls": "count",
    "opcalc.expectation_calls": "count",
    "opcalc.multiply_s": "s",
    "opcalc.self_s": "s",
    "scalars.arith_calls": "count",
    "scalars.self_s": "s",
    "graph.concat_calls": "count",
    "graph.self_s": "s",
    "compress.series_s": "s",
    "fock.self_s": "s",
}

# Run by a CLI child in trace mode: profile main() only (the import is
# measured by -X importtime) and write the rows to argv[1].
CLI_CHILD = """
import sys
sys.path.insert(0, {here!r})
import graphfp.cli, profiling
code, rows = profiling.profiled(graphfp.cli.main, sys.argv[2:])
profiling.write_rows(sys.argv[1], rows)
sys.exit(code)
"""


def rows_of(profiler: cProfile.Profile) -> list:
    out = []
    for (filename, line, func), (_cc, calls, own, incl, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        path = Path(filename)
        if path.parent.name == "graphfp" and path.stem in LAYERS:
            out.append([path.stem, func, line, calls, own, incl])
    return out


def profiled(fn, *args):
    """(fn(*args), profile rows of that call)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args)
    finally:
        profiler.disable()
    return result, rows_of(profiler)


def write_rows(path, rows):
    Path(path).write_text(json.dumps(rows))


class Totals:
    """Profile rows summed over the operations of one traced pass."""

    def __init__(self):
        self.rows: dict = {}

    def add(self, rows):
        for module, func, line, calls, own, incl in rows:
            acc = self.rows.setdefault((module, func, line), [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += own
            acc[2] += incl

    def _sum(self, module, funcs, field):
        return sum(
            acc[field]
            for (m, f, _line), acc in self.rows.items()
            if m == module and f in funcs
        )

    def calls(self, module, *funcs):
        return self._sum(module, funcs, 0)

    def inclusive(self, module, *funcs):
        return self._sum(module, funcs, 2)

    def own(self, module):
        return sum(acc[1] for (m, _f, _l), acc in self.rows.items() if m == module)

    def metrics(self, import_s, import_fock_s):
        values = {
            "cli.import_s": import_s,
            "cli.import_fock_s": import_fock_s,
            "cli.main_s": self.inclusive("cli", "main"),
            "ncpart.mobius_calls": self.calls("ncpart", "mobius"),
            "ncpart.leq_calls": self.calls("ncpart", "leq"),
            "ncpart.enumerate_nc_s": self.inclusive("ncpart", "enumerate_nc"),
            "freeprob.partition_moment_calls": self.calls("freeprob", "partition_moment"),
            "freeprob.cumulant_calls": self.calls("freeprob", "cumulant"),
            "freeprob.partition_moment_s": self.inclusive("freeprob", "partition_moment"),
            "freeprob.moment_s": self.inclusive("freeprob", "moment"),
            "opcalc.multiply_calls": self.calls("opcalc", "multiply"),
            "opcalc.expectation_calls": self.calls("opcalc", "expectation"),
            "opcalc.multiply_s": self.inclusive("opcalc", "multiply"),
            "scalars.arith_calls": self.calls("scalars", *_ARITH),
            "graph.concat_calls": self.calls("graph", "concat"),
            "compress.series_s": self.inclusive(
                "compress", "compressed_r_transform", "compressed_moment_series"
            ),
        }
        for layer in ("ncpart", "freeprob", "opcalc", "scalars", "graph", "fock"):
            values[f"{layer}.self_s"] = self.own(layer)
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def import_times(env, samples=3):
    """Median cumulative import time of graphfp.cli and graphfp.fock, in
    seconds, from ``python -X importtime`` in fresh interpreters."""
    cli, fock = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import graphfp.cli"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        cumulative = {}
        for line in done.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _self, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        cli.append(cumulative["graphfp.cli"])
        fock.append(cumulative["graphfp.fock"])
    return statistics.median(cli), statistics.median(fock)
