"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/worker.py setup SPEC DIR OUT TRACE
    python3 perfbench/worker.py rank  SPEC DIR OUT TRACE
    python3 perfbench/worker.py cli   SPEC DIR OUT TRACE -- CLI-ARGS...

``setup`` builds a workload's inputs under DIR from the frozen census and the
seed, and writes what the checks need to OUT. ``rank`` ranks the classes
from the census cache under DIR and writes the time of the calls and the
rankings to OUT. ``cli`` runs
``graphenergy.cli.main`` with its output in OUT and exits with its code; the
untraced passes run the real ``python3 -m graphenergy`` instead. With TRACE 1
the worker wraps graphenergy's public functions and writes their spans to
OUT.spans.json as it exits.
"""

from __future__ import annotations

import contextlib
import json
import random
import sys
import time
from pathlib import Path

import graphenergy
from graphenergy.census import GENERATOR_VERSION
from reference import random_sparse_graph6
from spans import Tracer


def frozen_census(path: str) -> dict[tuple[int, int], list[str]]:
    """Members per class from the benchmark's census file ("# n e" headers)."""
    census: dict[tuple[int, int], list[str]] = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            members = census.setdefault(tuple(map(int, line[1:].split())), [])
        else:
            members.append(line)
    return census


def setup(spec: dict, directory: Path) -> dict:
    if spec["workload"] == "verify":
        return {}
    census = frozen_census(spec["census_file"])
    if spec["workload"] == "rank":
        cache = directory / "cache"
        rank0 = {}
        for n, e, family in spec["classes"]:
            graphenergy.census_cache_store(
                graphenergy.GraphClassCensus(n, e, tuple(census[(n, e)]), "", GENERATOR_VERSION),
                cache,
            )
            rank0[f"{n},{e}"] = graphenergy.graph6_encode(graphenergy.family_graph(family))
        return {"census": {f"{n},{e}": census[(n, e)] for n, e, _ in spec["classes"]}, "rank0": rank0}
    rng = random.Random(spec["seed"])
    lines = [s for n, e in spec["classes"] for s in census[(n, e)]]
    # evenly spaced orders: the seed changes the graphs, not how big they are
    lo, hi = spec["orders"]
    k = spec["random_graphs"]
    lines += [random_sparse_graph6(rng, lo + round(i * (hi - lo) / (k - 1))) for i in range(k)]
    rng.shuffle(lines)
    path = directory / "graphs.g6"
    path.write_text("".join(s + "\n" for s in lines), encoding="ascii")
    return {"input": str(path), "lines": lines}


def rank(spec: dict, directory: Path) -> dict:
    cache = str(directory / "cache")
    start = time.perf_counter()
    reports = [graphenergy.rank_class(n, e, cache) for n, e, _ in spec["classes"]]
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "classes": {
            f"{r.n},{r.e}": [[x.graph6, x.energy] for x in r.entries] for r in reports
        },
    }


def main(argv: list[str]) -> int:
    role, spec_path, directory, out_path, trace = argv[:5]
    spec = json.loads(Path(spec_path).read_text())
    tracer = Tracer() if trace == "1" else None
    if tracer:
        tracer.install()
    code = 0
    try:
        with tracer.span("setup" if role == "setup" else "pass") if tracer else contextlib.nullcontext():
            if role == "setup":
                result = setup(spec, Path(directory))
            elif role == "rank":
                result = rank(spec, Path(directory))
            else:
                import graphenergy.cli

                with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
                    code = graphenergy.cli.main(argv[6:])
    finally:
        if tracer:
            Path(out_path + ".spans.json").write_text(json.dumps(tracer.dump()))
    if role != "cli":
        Path(out_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
