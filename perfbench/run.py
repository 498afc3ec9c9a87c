"""graphenergy benchmark: the verify, rank and energy-report workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Every set-up and every pass starts a
fresh interpreter, so no census memo or cache outlives the process that made
it, and each run starts from an empty ``.perfbench_work/``. A run sets the
workload up at least three times and for at least 2 s, then repeats passes
while one more fits in S seconds, checks every output against the
benchmark's own answers, and prints one line per metric followed by a JSON
summary as the last line.

With ``--trace 0`` the summary holds the end-to-end metrics. With
``--trace 1`` it holds the per-layer metrics of one traced set-up and one
traced pass, taken after untraced passes give the baseline for the tracing
overhead. The exit code is 0 when the run was measured, even if outputs
were wrong (``correct`` is false then); it is 2 when the checkout holds no
graphenergy sources and 1 when a set-up fails.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: a pass is one single-threaded
# process, and the children inherit the setting.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from spans import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
# Members of the 17 classes below, as enumerate_connected gives them, frozen
# so that no set-up has to enumerate; the self-test checks the class counts.
CENSUS_FILE = HERE / "census.txt"
WORK_DIR = ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
SETUP_MIN_S = 2.0  # set-ups repeat until they took this long together

# The 17 classes of the bicyclic, tricyclic and tetracyclic theorems, n <= 9:
# (n, e, family that verify claims at rank 0, frozen member count). Counts
# for (5,6) .. (9,12) are KNOWN_CLASS_COUNTS / DERIVED_CLASS_COUNTS; the
# others were confirmed by edge/vertex strategy agreement and match OEIS A054924.
THEOREM_CLASSES = (
    (4, 5, "S 4 5", 1), (5, 6, "B 5 6", 5), (6, 7, "B 6 7", 19),
    (7, 8, "B 7 8", 67), (8, 9, "S 8 9", 236), (9, 10, "S 9 10", 797),
    (4, 6, "K 4", 1), (5, 7, "S 5 7", 4), (6, 8, "B 6 8", 22),
    (7, 9, "B 7 9", 107), (8, 10, "B 8 10", 486), (9, 11, "B 9 11", 2075),
    (5, 8, "W 5", 2), (6, 9, "Kb 3 3", 20), (7, 10, "B 7 10", 132),
    (8, 11, "B 8 11", 814), (9, 12, "B 9 12", 4495),
)
FROZEN_COUNTS = {(n, e): count for n, e, _, count in THEOREM_CLASSES}


@dataclass(frozen=True)
class Workload:
    name: str  # "verify", "rank" or "energy-report"
    why: str
    checks: tuple[str, ...] = ()  # verify: --check names, empty for all nine
    classes: tuple = ()  # rank: (n, e, family); energy-report: (n, e)
    random_graphs: int = 0  # energy-report: sparse graphs added to the census lines
    orders: tuple[int, int] = (20, 62)  # their orders; the last is always the largest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "The run a user of the paper makes: all nine checks from a cold start. "
            "Census enumeration and canonical labelling do about 80% of its work.",
        ),
        Workload(
            "rank",
            "rank_class on the 17 theorem classes from a census cache written in set-up: "
            "exact char_poly and eigensolve, no enumeration; the only one reading the cache.",
            classes=tuple((n, e, family) for n, e, family, _ in THEOREM_CLASSES),
        ),
        Workload(
            "energy-report",
            "energy on every n = 7..9 census member plus sparse graphs up to n = 62: "
            "Coulson quadrature, classify, JSON output and big-integer char_poly.",
            classes=tuple((n, e) for n, e, _, _ in THEOREM_CLASSES if n >= 7),
            random_graphs=12,
        ),
    )
}


@dataclass
class Pass:
    seconds: float
    wall: float
    rss_mb: float
    attempted: int
    failed: int


class SetupError(RuntimeError):
    pass


class Run:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / WORK_DIR
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        spec = {
            "workload": workload.name,
            "seed": seed,
            "classes": list(workload.classes),
            "census_file": str(CENSUS_FILE),
            "random_graphs": workload.random_graphs,
            "orders": list(workload.orders),
        }
        if workload.name == "rank":
            random.Random(seed).shuffle(spec["classes"])
        self.spec = self.work / "spec.json"
        self.spec.write_text(json.dumps(spec))
        self.children = 0
        self.inputs: dict = {}
        self.references: dict = {}

    def child(self, argv: list[str]) -> tuple[int, float, float, Path]:
        """Run one process to its end: exit code, wall seconds, peak RSS in MB, output path."""
        self.children += 1
        out = self.work / f"child{self.children}.out"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out, "wb") as stdout, open(out.with_suffix(".err"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=self.root, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        return proc.returncode, wall, usage.ru_maxrss / 1024, out

    def worker(self, role: str, directory: Path, trace: bool, cli_args=()):
        out = directory / f"{role}.json"
        code, wall, rss, _ = self.child(
            [sys.executable, str(HERE / "worker.py"), role, str(self.spec), str(directory),
             str(out), "1" if trace else "0", "--", *cli_args]
        )
        return code, wall, rss, out

    def setup(self, index: int, trace: bool = False) -> tuple[float, Path]:
        directory = self.work / f"setup{index}"
        directory.mkdir()
        code, wall, _, out = self.worker("setup", directory, trace)
        if code != 0:
            err = (self.work / f"child{self.children}.err").read_text(errors="replace")
            raise SetupError(f"set-up of {self.workload.name} exited {code}:\n{err[-2000:]}")
        self.inputs = json.loads(out.read_text())
        self.inputs["dir"] = directory
        return wall, out

    def cli_args(self) -> list[str]:
        if self.workload.name == "verify":
            checks = [a for c in self.workload.checks for a in ("--check", c)]
            return ["--format", "json", "--seed", str(self.seed), "verify", *checks]
        return ["--format", "json", "energy", self.inputs["input"]]

    def run_pass(self, trace: bool = False) -> tuple[Pass, Path | None]:
        wl = self.workload
        directory = self.inputs["dir"]
        if wl.name == "rank":
            code, wall, rss, out = self.worker("rank", directory, trace)
            result = json.loads(out.read_text()) if code == 0 else {"seconds": wall, "classes": {}}
            attempted, failed = len(wl.classes), self.rank_failures(result["classes"])
            seconds = result["seconds"]
        else:
            if trace:
                code, wall, rss, out = self.worker("cli", directory, True, self.cli_args())
            else:
                code, wall, rss, out = self.child(
                    [sys.executable, "-m", "graphenergy", *self.cli_args()]
                )
            stdout = out.read_text(encoding="utf-8", errors="replace")
            if wl.name == "verify":
                names = wl.checks or reference.VERIFY_CHECKS
                attempted, failed = len(names), reference.verify_failures(code, stdout, names)
            else:
                lines = self.inputs["lines"]
                if not self.references:
                    self.references = reference.reference_energies(lines)
                attempted = len(lines)
                failed = reference.energy_failures(code, stdout, lines, self.references)
            seconds = wall
        spans = Path(str(out) + ".spans.json") if trace else None
        return Pass(seconds, wall, rss, attempted, failed), spans

    def rank_failures(self, classes: dict) -> int:
        census = self.inputs["census"]
        if not self.references:
            self.references = reference.reference_energies(
                s for members in census.values() for s in members
            )
        failed = 0
        for n, e, _ in self.workload.classes:
            key = f"{n},{e}"
            problems = reference.rank_problems(
                classes.get(key, []), census[key], self.references,
                FROZEN_COUNTS[(n, e)], self.inputs["rank0"][key],
            )
            for problem in problems:
                print(f"rank ({key}): {problem}", file=sys.stderr)
            failed += bool(problems)
        return failed

    def measure(self, seconds: float) -> list[Pass]:
        """Passes while one more still fits in ``seconds`` at the mean pass time; at least one."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass()[0])
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


def end_to_end(run: Run, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    setups: list[float] = []
    while len(setups) < 3 or sum(setups) < SETUP_MIN_S:
        setups.append(run.setup(len(setups))[0])
    passes = run.measure(seconds)
    times = [p.seconds for p in passes]
    metrics = {
        "pass_s": (statistics.median(times), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    pass_s = metrics["pass_s"][0]
    notes = [
        f"pass_s: median of {len(times)} passes; no tail percentile, "
        f"since one needs at least 11 samples",
        f"setup_s: median of {len(setups)} set-ups",
    ]
    name = run.workload.name
    if name == "verify":
        notes.append(f"verify_s {pass_s:.4f} s")
    elif name == "rank":
        graphs = sum(FROZEN_COUNTS[(n, e)] for n, e, _ in run.workload.classes)
        notes.append(f"rank_graphs_per_s {graphs / pass_s:.2f} 1/s")
    else:
        notes.append(f"report_graphs_per_s {len(run.inputs['lines']) / pass_s:.2f} 1/s")
    return metrics, passes, notes


def per_layer(run: Run, seconds: float) -> tuple[dict, list[Pass], list[str]]:
    setup_wall, setup_out = run.setup(0, trace=True)
    passes = run.measure(seconds)
    traced, spans_path = run.run_pass(trace=True)
    dumps = [json.loads(Path(str(setup_out) + ".spans.json").read_text())]
    if spans_path.exists():
        dumps.append(json.loads(spans_path.read_text()))
    values = layer_metrics(dumps)
    wall = setup_wall + traced.wall
    values["trace.wall_s"] = wall
    values["trace.startup_s"] = wall - values["trace.layers_self_s"] - values["trace.glue_self_s"]
    values["trace.overhead_s"] = traced.seconds - statistics.median(p.seconds for p in passes)
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    notes = [f"traced one set-up and one pass after {len(passes)} untraced passes"]
    return metrics, passes + [traced], notes


def unit_of(name: str) -> str:
    if name.endswith("_per_graph"):
        return "calls/graph"
    if name.endswith("_per_call"):
        return "evals/call"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bound"):
        return "1"
    return "count"


def run_workload(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the summary the benchmark prints last."""
    run = Run(root, workload, seed)
    metrics, passes, notes = (per_layer if trace else end_to_end)(run, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "graphenergy" / "__init__.py").is_file():
        print("perfbench: run from a checkout root holding src/graphenergy", file=sys.stderr)
        return 2
    try:
        summary = run_workload(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
