"""leibnizalg benchmark: fresh-process CLI jobs in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client runs one job at a time;
every job is a fresh interpreter with PYTHONPATH=src, as a user runs the
CLI, so each one pays for the import, parsing, axiom checks and the cold
caches. See bench/README.md for the workloads and the metrics.

Set-up generates the workload's inputs from the seed (bench/inputs.py)
three times, each in a fresh process, and reports the median time. The run
then makes passes over the job list, in one seeded order, and starts no job
after S seconds, once the first pass is complete. The time metrics come from
job times in units of a reference job (REFERENCE_CODE) that runs after
every job: each job sample is divided by the mean of the reference samples
just before and after it. On a shared VM the host's speed drifts by 10 to
30 % over seconds to minutes; the reference shares that drift and the
ratio cancels most of it, so runs of the same code minutes apart agree.
The raw wall times are in the info line.
Every job's output goes through an oracle that checks facts fixed by the
construction, never byte-exact stdout.

With --trace 1 every job of a pass runs twice in a row, untraced and then
traced, for at least two passes. Traced jobs run under bench/child.py,
which records spans per layer. The per-layer counts of all passes must be
identical, or the run reports correct=false.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
JOB_LIMIT_S = 60.0    # a job running longer is killed and counts as failed
RUN_LIMIT_S = 170.0   # no job is started or kept running past this
LAYERS = ("cli", "fileio", "algebra", "reps", "sl2", "decompose", "linalg")
WORKLOADS = ("extension", "irreducible", "decompose", "dense")
# The reference job: a fresh interpreter doing a fixed amount of pure-Python
# rational arithmetic, like the jobs, but with no leibnizalg code in it, so
# that no change to the program can move it.
REFERENCE_CODE = """\
from fractions import Fraction
acc = Fraction(0)
for i in range(20000):
    acc += Fraction(i % 7, i % 5 + 1) * Fraction(3, i % 11 + 1)
"""

perf = time.perf_counter


class SetupError(RuntimeError):
    pass


# -- environment --

def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "loadavg_before": os.getloadavg(),
    }


# -- processes --

class Result:
    __slots__ = ("code", "wall_s", "cpu_s", "maxrss_kb", "timed_out", "stdout")


def run_job(argv: list[str], env: dict, workdir: str, limit: float) -> Result:
    """Spawn, wait with os.wait4 for exit status and rusage, kill at `limit`."""
    out_path = os.path.join(workdir, "job.out")
    err_path = os.path.join(workdir, "job.err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    res = Result()
    res.timed_out = False
    start = perf()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill():
        res.timed_out = True
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(limit, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
        timer.join()
    res.wall_s = perf() - start
    res.code = os.waitstatus_to_exitcode(status)
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.maxrss_kb = usage.ru_maxrss
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        res.stdout = fh.read()
    return res


def setup_inputs(workload: str, seed: int, out: str, env: dict,
                 trace_dir: str | None = None) -> float:
    cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", trace_dir]
    start = perf()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    elapsed = perf() - start
    if done.returncode != 0:
        raise SetupError(f"input generation failed ({done.returncode}):\n{done.stderr}")
    return elapsed


def tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# -- oracle: facts fixed by the construction, not byte-exact stdout --

def _ladder_rho(m: int) -> dict[str, list[list[Fraction]]]:
    """Right action of e, f, h on the ladder of size m + 1 (1-based formulas)."""
    d = m + 1
    e = [[Fraction(0)] * d for _ in range(d)]
    f = [[Fraction(0)] * d for _ in range(d)]
    h = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d + 1):
        if i < d:
            e[i - 1][i] = Fraction(i * (m + 1 - i))
        if i > 1:
            f[i - 1][i - 2] = Fraction(-1)
        h[i - 1][i - 1] = Fraction(m + 2 - 2 * i)
    return {"e": e, "f": f, "h": h}


def _check_classify(report: dict, n: int, m: int) -> str | None:
    if (report.get("family"), report.get("n"), report.get("m")) != ("simple_ext", n, m):
        return "wrong family or size"
    reps = report.get("reps", [])
    if sorted(r.get("variant") for r in reps) != ["anti_symmetric", "zero_lambda"]:
        return "expected exactly the two ladder variants"
    rho = _ladder_rho(m)
    d = m + 1
    zero = [[Fraction(0)] * d for _ in range(d)]
    for rep in reps:
        right = {k: [[Fraction(x) for x in row] for row in v] for k, v in rep["rho"].items()}
        left = {k: [[Fraction(x) for x in row] for row in v] for k, v in rep["lambda"].items()}
        if len(right) != n or set(right) != set(left):
            return "action tables do not cover the basis"
        for label, mat in right.items():
            want = rho.get(label, zero)
            if mat != want:
                return f"rho[{label}] is not the ladder action"
            if rep["variant"] == "zero_lambda":
                want_left = zero
            else:
                want_left = [[-x for x in row] for row in want]
            if left[label] != want_left:
                return f"lambda[{label}] does not match the {rep['variant']} variant"
    return None


def _check_solve(out: dict, n: int) -> str | None:
    if out["obstruction"] is not None or out["free_parameters"] != 0:
        return "tail actions not forced to zero"
    forced = out["forced"]
    if forced is None or any(Fraction(x) != 0 for mat in forced for row in mat for x in row):
        return "forced tail actions are not zero"
    if out["lambda_sl2_coefficients"] != ["-1", "0"]:
        return "left coefficients are not the roots of a + a^2"
    if n % 2 == 1 and out["used_quadratic_stage"]:
        return "odd dimension needed the quadratic stage"
    return None


def check(expect: dict, out: dict) -> tuple[str | None, str | None]:
    """Return (verdict, error); error is None when the output is consistent."""
    kind = expect["check"]
    verdict = out.get("verdict")
    if "verdicts" in expect and verdict not in expect["verdicts"]:
        return verdict, f"verdict {verdict!r} not in {expect['verdicts']}"
    if kind == "radical" and out.get("radical_dim") != expect["radical_dim"]:
        return verdict, f"radical dimension {out.get('radical_dim')}"
    if kind == "levi" and (out.get("levi_dim") != 3 or len(out.get("basis", [])) != 3):
        return verdict, f"Levi dimension {out.get('levi_dim')}"
    if kind == "derivations":
        if out.get("inner_dim") != expect["inner_dim"] or out.get("inner_is_ideal") is not True:
            return verdict, "inner derivations wrong"
        if out.get("derivation_dim", -1) < out["inner_dim"]:
            return verdict, "fewer derivations than inner ones"
    if kind == "classify":
        return verdict, _check_classify(out, expect["n"], expect["m"])
    if kind == "solve":
        return verdict, _check_solve(out, expect["n"])
    if kind == "irreducible" and verdict == "reducible":
        if not 0 < out.get("witness_dim", 0) < expect["dim"]:
            return verdict, "reducible without a proper witness"
    if kind == "decompose":
        dims = sorted(out.get("component_dims", []), reverse=True)
        if verdict == "decomposed" and dims != expect["dims"]:
            return verdict, f"component dimensions {dims}, expected {expect['dims']}"
        if sum(dims) != sum(expect["dims"]):
            return verdict, "components do not fill the module"
        want = expect.get("kernel_acts_trivially", True)
        if out.get("kernel_acts_trivially") is not want:
            return verdict, "kernel action flag wrong"
    return verdict, None


# -- the closed loop --

class Runner:
    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.started = perf()
        # per job id, the outcome of every attempt: "ok", "failed" or "undetermined"
        self.outcomes: dict[str, list[str]] = {}
        self.failures: list[str] = []
        # wall times of successful jobs, by traced flag and job id
        self.job_wall: dict[bool, dict[str, list[float]]] = {False: {}, True: {}}
        self.job_cpu: dict[str, list[float]] = {}
        # untraced job samples and reference samples in the order they ran:
        # (job id, wall seconds), with job id None for the reference job
        self.timeline: list[tuple[str | None, float]] = []
        self.peak_rss_kb = 0
        self.out_of_time = False

    def argv(self, job: dict, inputs: str, trace_out: str | None) -> list[str]:
        args = [os.path.join(inputs, a[1:]) if a.startswith("@") else a
                for a in job["argv"]]
        if job["kind"] == "cli" and trace_out is None:
            return [sys.executable, "-m", "leibnizalg.cli", *args]
        head = [sys.executable, os.path.join(HERE, "child.py")]
        if trace_out is not None:
            head += ["--trace", trace_out]
        return [*head, job["kind"], *args]

    def run_pass(self, jobs, inputs: str, trace_dir: str | None,
                 stop_at: float | None = None) -> tuple[float, list, bool]:
        """One pass over the jobs; returns (wall seconds, trace records, complete).

        No job is started after `stop_at`. Without a trace directory every
        job is followed by the reference job. With one every job runs twice
        in a row, untraced and then traced, so that host noise cancels in
        the tracing overhead.
        """
        traces = []
        start = perf()
        for i, job in enumerate(jobs):
            if stop_at is not None and perf() >= stop_at:
                return perf() - start, traces, False
            trace_outs = [None]
            if trace_dir is not None:
                trace_outs.append(os.path.join(trace_dir, f"job{i}.json"))
            for trace_out in trace_outs:
                remaining = RUN_LIMIT_S - (perf() - self.started)
                if remaining <= 0:
                    self.out_of_time = True
                    return perf() - start, traces, False
                res = run_job(self.argv(job, inputs, trace_out), self.env, self.work,
                              min(JOB_LIMIT_S, remaining))
                self.record(job, res, trace_out is not None)
                if trace_out is not None and os.path.exists(trace_out):
                    with open(trace_out, encoding="utf-8") as fh:
                        traces.append(json.load(fh))
                if res.timed_out and remaining < JOB_LIMIT_S:
                    self.out_of_time = True
                    return perf() - start, traces, False
            if trace_dir is None and not self.run_reference():
                return perf() - start, traces, False
        return perf() - start, traces, True

    def run_reference(self) -> bool:
        """Run the reference job once; False when the run is out of time."""
        remaining = RUN_LIMIT_S - (perf() - self.started)
        if remaining <= 0:
            self.out_of_time = True
            return False
        res = run_job([sys.executable, "-c", REFERENCE_CODE], self.env, self.work,
                      min(JOB_LIMIT_S, remaining))
        if res.timed_out:
            self.out_of_time = True
            return False
        if res.code != 0:
            raise SetupError(f"the reference job failed with exit code {res.code}")
        self.timeline.append((None, res.wall_s))
        return True

    def count(self, outcome: str) -> int:
        return sum(v.count(outcome) for v in self.outcomes.values())

    def share(self, outcome: str) -> float:
        """Share of attempts with this outcome, averaged over the job list.

        Every job weighs the same, however many samples the run's partial
        last pass gave it, so the share does not depend on where the run
        stopped.
        """
        if not self.outcomes:
            return 0.0
        return statistics.fmean(v.count(outcome) / len(v) for v in self.outcomes.values())

    def record(self, job: dict, res: Result, traced: bool) -> None:
        outcomes = self.outcomes.setdefault(job["id"], [])
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        error = None
        verdict = None
        if res.timed_out:
            error = "timed out"
        elif res.code != 0:
            error = f"exit code {res.code}"
        else:
            try:
                out = json.loads(res.stdout)
            except json.JSONDecodeError:
                error = "stdout is not one JSON object"
            else:
                verdict, error = check(job["expect"], out)
        if error is not None:
            outcomes.append("failed")
            self.failures.append(f"{job['id']}: {error}")
            return
        outcomes.append("undetermined" if verdict == "undetermined" else "ok")
        self.job_wall[traced].setdefault(job["id"], []).append(res.wall_s)
        if not traced:
            self.timeline.append((job["id"], res.wall_s))
            self.job_cpu.setdefault(job["id"], []).append(res.cpu_s)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def reference_units(timeline: list[tuple[str | None, float]]) -> dict[str, list[float]]:
    """Each job sample divided by the reference samples next to it, by job id."""
    out: dict[str, list[float]] = {}
    for k, (job_id, wall) in enumerate(timeline):
        if job_id is None:
            continue
        near = [timeline[i][1] for i in (k - 1, k + 1)
                if 0 <= i < len(timeline) and timeline[i][0] is None]
        if near:
            out.setdefault(job_id, []).append(wall / statistics.fmean(near))
    return out


def layer_metrics(traces_per_pass: list[list[dict]], setup_traces: list[dict],
                  overhead: float) -> tuple[dict, bool]:
    """Per-layer metrics and whether the work counts repeated across passes."""
    counts_per_pass = []
    times_per_pass = []
    import_s = []
    for traces in traces_per_pass:
        calls: dict[str, int] = {}
        counts: dict[str, int] = {"max_bits": 0}
        errors = {layer: 0 for layer in LAYERS}
        self_s: dict[str, float] = {}
        for t in traces:
            import_s.append(t["import_s"])
            for k, v in t["calls"].items():
                calls[k] = calls.get(k, 0) + v
            for k, v in t["counts"].items():
                counts[k] = counts.get(k, 0) + v
            for k, v in t["errors"].items():
                errors[k] = errors.get(k, 0) + v
            for k, v in t["self_s"].items():
                self_s[k] = self_s.get(k, 0.0) + v
            counts["max_bits"] = max(counts["max_bits"], t["max_bits"])
        counts_per_pass.append({"calls": calls, "counts": counts, "errors": errors})
        times_per_pass.append(self_s)
    repeated = all(c == counts_per_pass[0] for c in counts_per_pass)
    first = counts_per_pass[0]
    calls, counts, errors = first["calls"], first["counts"], first["errors"]

    def self_time(name: str) -> float:
        return _median([t.get(name, 0.0) for t in times_per_pass])

    serialize = sum(t["self_s"].get("fileio.serialize", 0.0) for t in setup_traces)
    cells = counts.get("elim.cells", 0)
    inserts = calls.get("linalg.echelon", 0)
    m = {
        "cli.import_s": (_median(import_s), "s"),
        "cli.self_s": (self_time("cli.run_command"), "s"),
        "fileio.parse.self_s": (self_time("fileio.parse"), "s"),
        "fileio.parse.bytes": (counts.get("parse.bytes", 0), "bytes"),
        "fileio.serialize.self_s": (serialize, "s"),
    }
    for name in ("algebra.init", "algebra.bracket", "algebra.ideal_closure",
                 "reps.init", "reps.spin_submodule", "sl2.extension_rep_solve",
                 "linalg.matmul"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_time(name), "s")
    for name in ("reps.module_restriction", "decompose.decompose",
                 "decompose.commutant", "linalg.elim", "linalg.echelon",
                 "linalg.envelope", "linalg.commutant", "linalg.minpoly",
                 "linalg.charpoly"):
        m[f"{name}.self_s"] = (self_time(name), "s")
    m["linalg.elim.calls"] = (counts.get("elim.calls", 0), "count")
    m["linalg.elim.cells"] = (cells, "count")
    m["linalg.elim.nnz_frac"] = (counts.get("elim.nnz", 0) / cells if cells else 0.0, "frac")
    m["linalg.elim.max_bits"] = (counts["max_bits"], "bits")
    m["linalg.echelon.inserts"] = (inserts, "count")
    m["linalg.echelon.grew_ratio"] = (
        counts.get("echelon.grew", 0) / inserts if inserts else 0.0, "frac")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors.get(layer, 0), "count")
    m["trace.overhead_frac"] = (overhead, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}, repeated


def measure(args, root: str, work: str) -> tuple[dict, dict]:
    runner = Runner(root, work)
    info = {"environment": environment(), "workload": args.workload,
            "seed": args.seed}
    traced = args.trace == 1
    setup_times = []
    setup_traces: list[dict] = []
    if traced:
        trace_dir = os.path.join(work, "trace-setup")
        setup_inputs(args.workload, args.seed, os.path.join(work, "setup0"),
                     runner.env, trace_dir)
        for name in sorted(os.listdir(trace_dir)):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                setup_traces.append(json.load(fh))
    else:
        for k in range(SETUP_REPEATS):
            setup_times.append(setup_inputs(
                args.workload, args.seed, os.path.join(work, f"setup{k}"), runner.env))
        digests = {tree_digest(os.path.join(work, f"setup{k}"))
                   for k in range(SETUP_REPEATS)}
        if len(digests) != 1:
            raise SetupError("the same seed generated different inputs")
    inputs = os.path.join(work, "setup0")
    with open(os.path.join(inputs, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    random.Random(args.seed).shuffle(jobs)

    pass_walls: list[float] = []
    traces_per_pass: list[list[dict]] = []
    loop_start = perf()
    while True:
        trace_dir = None
        stop_at = None
        if traced:
            trace_dir = os.path.join(work, f"trace-pass{len(pass_walls)}")
            os.makedirs(trace_dir)
        elif pass_walls:
            stop_at = loop_start + args.seconds
        wall, traces, complete = runner.run_pass(jobs, inputs, trace_dir, stop_at)
        if runner.out_of_time or not complete:
            break
        pass_walls.append(wall)
        traces_per_pass.append(traces)
        if traced and len(pass_walls) < 2:
            continue
        if perf() - loop_start >= args.seconds:
            break

    info["environment"]["loadavg_after"] = os.getloadavg()
    info["passes"] = len(pass_walls)
    info["pass_wall_s"] = pass_walls
    info["jobs_per_pass"] = len(jobs)
    untraced_walls = runner.job_wall[False]
    means = [statistics.fmean(v) for v in untraced_walls.values()]
    ref_wall = [wall for job_id, wall in runner.timeline if job_id is None]
    in_ref = [statistics.fmean(v) for v in reference_units(runner.timeline).values()]
    info["job_samples"] = sum(len(v) for v in untraced_walls.values())
    info["job_wall_s"] = dict(sorted(untraced_walls.items()))
    info["job_cpu_s"] = dict(sorted(runner.job_cpu.items()))
    info["failures"] = runner.failures[:20]
    correct = runner.count("failed") == 0 and not runner.out_of_time
    if runner.out_of_time:
        info["failures"].append("run limit reached before the passes completed")

    if traced:
        # per pass: traced over untraced time of the same jobs, run back to back
        plain, with_spans = runner.job_wall[False], runner.job_wall[True]
        both = [j for j in plain if j in with_spans]
        n = min((min(len(plain[j]), len(with_spans[j])) for j in both), default=0)
        ratios = [sum(with_spans[j][p] for j in both) / sum(plain[j][p] for j in both)
                  for p in range(n)]
        overhead = _median(ratios) - 1.0 if ratios else 0.0
        info["trace_overhead_frac"] = overhead
        # a run cut short still reports every metric, as zeros, with correct=false
        metrics, repeated = layer_metrics(traces_per_pass or [[]], setup_traces, overhead)
        info["counts_repeated"] = repeated
        if not repeated:
            correct = False
            info["failures"].append("per-layer counts differ between traced passes")
    else:
        info["reference_s"] = {"mean": statistics.fmean(ref_wall) if ref_wall else 0.0,
                               "samples": len(ref_wall)}
        info["jobs_per_s"] = len(means) / sum(means) if means else 0.0
        info["job_s.p50"] = _median(means)
        metrics = {
            "jobs_per_ref": {"value": len(in_ref) / sum(in_ref) if in_ref else 0.0,
                             "unit": "1/ref"},
            "job_ref.p50": {"value": _median(in_ref), "unit": "ref"},
            "setup_s": {"value": _median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - runner.share("failed"), "unit": "frac"},
            "decided_frac": {"value": 1.0 - runner.share("undetermined"),
                             "unit": "frac"},
        }
        info["setup_s_samples"] = setup_times
    info["undetermined"] = runner.count("undetermined")
    result = {"correct": correct,
              "attempted": sum(len(v) for v in runner.outcomes.values()),
              "failed": runner.count("failed"), "metrics": metrics}
    return result, info


def main() -> int:
    ap = argparse.ArgumentParser(description="leibnizalg benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "leibnizalg", "cli.py")):
        print("error: run from the root of a leibnizalg checkout (src/leibnizalg "
              "is missing)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result, info = measure(args, root, work)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
