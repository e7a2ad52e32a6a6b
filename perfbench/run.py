"""entshape benchmark: drives the package from outside and checks every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-fast,ree-xstate,ree-general} \
        --seed N --seconds S --trace {0,1}

Workloads are closed loops: one client, sequential operations, one process
(plus the harness's own Monte Carlo pool on cli-fast). With ``--trace 0`` a
run repeats passes over the workload's fixed operation list for about
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it makes
one untraced and one traced pass and reports the per-layer metrics. The last
line of standard output is the JSON result; earlier lines give machine info
and per-operation detail. See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads. With OpenBLAS's default of
# one thread per core, a damped-pair solve used 1.7 s of CPU per wall second
# and two identical solves took 6.6 s and 4.8 s; with one thread, 5.3 s and 5.4 s.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
from clock import SampledClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-fast", "ree-xstate", "ree-general")
CHILD_TIMEOUT_S = 120

# (name, CLI arguments, experiment name of its result file), in pass order.
CLI_OPS = (
    ("table1", ["table1", "--convention", "both"], "table1"),
    ("flow", ["flow", "--convention", "oracle"], "flow"),
    ("sweep", ["sweep", "--convention", "both"], "sweep"),
    ("er", ["er", "--convention", "oracle", "--state", "werner", "--param", "0.83"], "er"),
    ("check", ["check"], "selfcheck"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], log: Path) -> tuple[float, int]:
    """Wall time from spawn to exit, and the exit code (-9 after a timeout kill).

    The wait blocks without a timeout: ``Popen.wait(timeout)`` polls in steps
    of up to 50 ms, which would quantize the measured times. A timer kills the
    child's process group instead if it hangs.
    """
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=handle, stderr=subprocess.STDOUT, start_new_session=True
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        return time.perf_counter() - start, code


def clocked_spawn(args: list[str], work: Path, name: str) -> tuple[dict, int, str | None]:
    """Runs ``clock_child.py`` with args; returns its times, exit code and any problem.

    ``wall_s`` is the spawn-to-exit time without the child's sampling and
    ``ref_s`` that time at the reference speed the child's samples measured
    (see clock.py). The child's start-up before its clock runs (interpreter
    start and the numpy import) is scaled alike.
    """
    clock_file = work / f"{name}.clock.json"
    clock_file.unlink(missing_ok=True)
    wall, code = spawn([sys.executable, str(HERE / "clock_child.py"), str(clock_file), *args], work / f"{name}.log")
    try:
        child = json.loads(clock_file.read_text())
    except (OSError, ValueError) as exc:
        return {"wall_s": wall, "ref_s": wall}, code, f"child clock unreadable: {exc}"
    wall -= child["sampling_s"]
    return {"wall_s": wall, "ref_s": wall * child["ref_s"] / child["wall_s"]}, code, None


def setup_sample(work: Path) -> dict:
    """Times of a fresh interpreter importing entshape.harness.cli, from spawn to exit."""
    times, code, problem = clocked_spawn([], work, "setup")
    if code != 0 or problem:
        raise RuntimeError(f"importing entshape failed: {problem}\n{(work / 'setup.log').read_text()}")
    return times


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------- workloads


class CliFast:
    """The five fast subcommands, each in a fresh interpreter, checked against the status table."""

    rusage_who = resource.RUSAGE_CHILDREN
    setup_samples_per_op = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.expected = json.loads((HERE / "expected_status.json").read_text())

    def run_pass(self, traced: bool = False, before_op=lambda: None) -> tuple[list[dict], dict]:
        out_dir = self.work / "out"
        trace_dir = self.work / "trace"
        if traced:
            trace_dir.mkdir(exist_ok=True)
        ops, spans = [], {}
        for name, args, experiment in CLI_OPS:
            before_op()
            (out_dir / f"{experiment}_result.json").unlink(missing_ok=True)
            argv = [*args, "--seed", str(self.seed), "--out", str(out_dir)]
            trace_file = trace_dir / f"{name}.json"
            problems = []
            if traced:
                cmd = [sys.executable, str(HERE / "trace_child.py"), str(trace_file), *argv]
                wall, code = spawn(cmd, self.work / f"{name}.log")
                times = {"wall_s": wall}
            else:
                times, code, problem = clocked_spawn(argv, self.work, name)
                problems += [problem] if problem else []
            status = checks.cli_status(code, out_dir, experiment)
            problems += checks.status_mismatches(self.expected[name], status)
            op = {"op": name, **times, "exit": code, "problems": problems}
            if name == "er":
                op["gap_bits"], more = checks.er_row_width(out_dir)
                op["problems"] += more
            if traced:
                try:
                    op["spans"] = json.loads(trace_file.read_text())
                except (OSError, ValueError) as exc:
                    op["problems"].append(f"trace unreadable: {exc}")
                    op["spans"] = {}
                tracing.merge(spans, op["spans"])
            ops.append(op)
        return ops, spans

    def probe(self) -> list[dict]:
        return []


class Ree:
    """Default-config er_numeric on a fixed panel (timed) and seeded probes (checked only)."""

    rusage_who = resource.RUSAGE_SELF
    # A pass has eight or six solves; three set-up samples before each give
    # about as many samples per run as cli-fast's one per subcommand.
    setup_samples_per_op = 3

    def __init__(self, workload: str, seed: int):
        from entshape import entanglement
        from entshape.qstate import DensityMatrix

        self.entanglement = entanglement
        panel, probes = inputs.xstate_inputs(seed) if workload == "ree-xstate" else inputs.general_inputs(seed)
        for label, m in panel + probes:
            if inputs.is_x_shaped(m) != (workload == "ree-xstate"):
                raise RuntimeError(f"generator produced {label} with the wrong shape for {workload}")
        self.panel = [(label, DensityMatrix(m, (2, 2))) for label, m in panel]
        self.probes = [(label, DensityMatrix(m, (2, 2))) for label, m in probes]
        self.reference: dict = {}

    def _solve(self, states: list, reference: dict, before_op=lambda: None, clock: SampledClock | None = None) -> list[dict]:
        """One solve per state, looked up per call so a tracer sees it, then checked.

        With a clock, each solve is also timed at reference speed (``ref_s``).
        Each state is checked once; a repeated solve must reproduce the first
        value and iteration count exactly.
        """
        ops = []
        for label, rho in states:
            before_op()
            if clock is None:
                start = time.perf_counter()
                r = self.entanglement.er_numeric(rho)
                op = {"op": label, "wall_s": time.perf_counter() - start}
            else:
                r, wall, scaled = clock.time(lambda: self.entanglement.er_numeric(rho))
                op = {"op": label, "wall_s": wall, "ref_s": scaled, "speed_samples": len(clock.samples)}
            op.update(value=r.value, iterations=r.iterations, atoms=len(r.certificate.weights), converged=r.converged)
            first = reference.get(label)
            if first is None:
                op["gap_bits"], op["problems"] = checks.check_ree(rho.matrix, r.value, r.certificate)
                reference[label] = op
            else:
                op["gap_bits"] = first["gap_bits"]
                same = (r.value, r.iterations) == (first["value"], first["iterations"])
                op["problems"] = [] if same else [f"not deterministic: {r.value!r}/{r.iterations} after {first['value']!r}/{first['iterations']}"]
            ops.append(op)
        return ops

    def run_pass(self, traced: bool = False, before_op=lambda: None) -> tuple[list[dict], dict]:
        if not traced:
            return self._solve(self.panel, self.reference, before_op, SampledClock()), {}
        spans = tracing.Tracer()
        with spans.installed():
            ops = self._solve(self.panel, self.reference)
        return ops, spans.to_dict()

    def probe(self) -> list[dict]:
        return [{**op, "probe": True} for op in self._solve(self.probes, {})]


# ---------------------------------------------------------------- metrics


def pass_s(ops: list[dict]) -> float:
    return sum(op["wall_s"] for op in ops)


def layer_metrics(spans: dict, untraced: list[dict], traced: list[dict]) -> dict:
    def get(name: str, key: str, source: dict = spans) -> float:
        return source.get(name, {}).get(key, 0)

    traced_s = pass_s(traced)
    er = "entanglement.er_numeric"
    m = {
        f"{er}.calls": (get(er, "calls"), "count"),
        f"{er}.self_s": (get(er, "self_s"), "s"),
        f"{er}.iterations": (get(er, "iterations"), "count"),
        f"{er}.atoms_max": (get(er, "atoms_max"), "count"),
        f"{er}.unconverged": (get(er, "unconverged"), "count"),
        f"{er}.pass_share": (get(er, "self_s") / traced_s, "ratio"),
        "protocols.sample_branch_indices.runs": (get("protocols.sample_branch_indices", "runs"), "count"),
        "harness.run_s": (get("harness.run", "total_s"), "s"),
        "trace.pass_s": (traced_s, "s"),
        "trace.overhead_ratio": (traced_s / pass_s(untraced) - 1, "ratio"),
    }
    for name in (
        "entanglement.er_bell_diagonal",
        "protocols.dejmps_branch_map",
        "protocols.dejmps_recursive",
        "channels.apply",
        "qstate.density_matrix",
    ):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name in (
        "protocols.sample_branch_indices",
        "harness.mc_fanout",
        "dynamics.trajectory",
        "harness.config",
        "harness.report",
        "harness.write",
    ):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    children = {op["op"]: op for op in traced if "spans" in op}
    m["process.overhead_s"] = (
        sum(op["wall_s"] - get("harness.run", "total_s", op["spans"]) for op in children.values()),
        "s",
    )
    table1 = children.get("table1", {}).get("spans", {})
    run_s = get("harness.run", "total_s", table1)
    m["harness.mc_fanout.table1_share"] = (get("harness.mc_fanout", "total_s", table1) / run_s if run_s else 0.0, "ratio")
    walls = {op["op"]: op["wall_s"] for op in untraced}
    for name, _, _ in CLI_OPS:
        m[f"cli.{name}_s"] = (walls.get(name, 0.0), "s")
    return m


def self_test_problems() -> list[str]:
    """Tracer self-test, plus the gap check on the closed-form Werner(0.83) certificate."""
    from entshape.entanglement import er_bell_diagonal
    from entshape.qstate import werner

    problems = tracing.self_test()
    closed = er_bell_diagonal(werner(0.83))
    gap, more = checks.check_ree(werner(0.83).to_density_matrix().matrix, closed.value, closed.certificate)
    problems += more
    if not gap <= 1e-12:
        problems.append(f"gap {gap:.3e} on the closed-form Werner certificate exceeds 1e-12")
    detail("selftest", {"problems": problems, "werner_gap_bits": gap})
    return problems


def detail(kind: str, payload) -> None:
    print(f"{kind}: {json.dumps(payload, default=float)}")


def measure(args: argparse.Namespace, work: Path) -> tuple[int, int, dict]:
    """Runs the workload; returns (attempted, failed, metrics)."""
    attempted, failed = 1, int(bool(self_test_problems()))
    workload = CliFast(args.seed, work) if args.workload == "cli-fast" else Ree(args.workload, args.seed)
    if args.trace:
        untraced, _ = workload.run_pass()
        traced, spans = workload.run_pass(traced=True)
        passes = [untraced, traced]
    else:
        # Set-up is sampled before every operation, so its samples span the run
        # like the operations do; the first sample writes bytecode caches.
        setup_sample(work)
        setups: list[dict] = []

        def before_op() -> None:
            setups.extend(setup_sample(work) for _ in range(workload.setup_samples_per_op))

        passes = []
        deadline = time.perf_counter() + args.seconds
        longest = 0.0
        while not passes or time.perf_counter() + longest <= deadline:
            start = time.perf_counter()
            passes.append(workload.run_pass(before_op=before_op)[0])
            longest = max(longest, time.perf_counter() - start)
    for op in [op for p in passes for op in p] + workload.probe():
        attempted += 1
        failed += bool(op["problems"])
        detail("op", {k: v for k, v in op.items() if k != "spans"})
    detail("summary", {"passes": len(passes), "fail_ratio": failed / attempted})

    if args.trace:
        return attempted, failed, layer_metrics(spans, untraced, traced)
    raw = {"setup_s": statistics.median(t["wall_s"] for t in setups), "pass_s": statistics.median(pass_s(p) for p in passes)}
    detail("speed", {"raw": raw, "setup_samples": len(setups)})
    return attempted, failed, {
        "setup_s": (statistics.median(t["ref_s"] for t in setups), "s"),
        "pass_s": (statistics.median(sum(op["ref_s"] for op in p) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(workload.rusage_who).ru_maxrss / 1024, "MB"),
        # Deterministic per state, so every pass gives the same value.
        "ree_gap_bits": (max(op["gap_bits"] for op in passes[0] if "gap_bits" in op), "bits"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    if not (SRC / "entshape" / "__init__.py").is_file():
        print(f"no entshape sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entshape

    if not Path(entshape.__file__).resolve().is_relative_to(SRC):
        print(f"entshape imported from {entshape.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    detail("machine", machine_info())

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        attempted, failed, metrics = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        print("metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
