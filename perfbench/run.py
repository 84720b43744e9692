"""jetsym benchmark: ``run-file`` end to end on a seeded corpus.

    python3 perfbench/run.py --workload prolong-pde --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program under test is
``src/jetsym``, started as ``python -m jetsym.cli`` with no
``JETSYM_BACKEND`` and no ``--parallel``, so it measures what a user gets
by default.  Load is one client, closed loop: the next invocation starts
when the previous one has ended.

The corpus is generated from ``--seed`` before any timing (see
``corpus.py``).  With ``--trace 0`` each round of the timed window runs a
set-up probe (``setup_s``: import ``jetsym.cli`` and load the problem
file without its tasks), a plain ``run-file`` (``file_s``,
``peak_rss_mb``), ``calibrate.py`` and a ``run-file`` that clocks each
``run_task`` call (``task_s``).  With ``--trace 1`` each round runs a
plain ``run-file``, ``calibrate.py`` and a traced ``run-file``
(``tracer.py``) for the per-layer counters.  Times are scaled by the
calibration of their round into reference seconds (see README.md).
Every invocation's report is checked: verdicts against the
construction-known answers, bytes against the run's first report, and
once per run the detail lines against the sympy oracle.

The last stdout line is the result object; the lines before it record
the environment and every counted failure by task id.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

INVOCATION_TIMEOUT_S = 60.0
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux
CALIBRATE = [sys.executable, str(HERE / "calibrate.py")]
# about what calibrate.py takes on the 2-core machine the bounds were set
# on; reference seconds then read close to wall seconds there
CALIBRATION_NOMINAL_S = 0.2

TRUE_VERDICTS = ("pass", "probably-pass")


def _unit(stat):
    if stat == "self_s":
        return "s"
    return "share" if stat.endswith("_share") else "count"


# name -> unit of every per-layer metric: "<layer>.<function>.<stat>", with
# "_gcd" written "gcd" because metric names start with a letter, then one
# "<layer>.self_s" total per layer
PER_LAYER = {}
for _fn, _stats in (
    ("jets.total_derivative", ("calls", "self_s", "out_terms")),
    ("jets.JetVectorField.apply", ("calls", "self_s")),
    ("expr.pdiff", ("calls", "self_s")),
    ("expr.normalize", ("calls", "self_s", "noop_share")),
    ("backend.poly_mul", ("calls", "self_s", "term_products")),
    ("backend.poly_add", ("calls", "self_s")),
    ("gcd.poly_gcd", ("calls", "self_s", "nontrivial_share")),
    ("gcd.poly_divexact", ("calls", "self_s")),
    ("symmetry.check_symmetry", ("self_s",)),
    ("symmetry.restrict_to_solution_manifold", ("calls", "self_s")),
    ("expr.substitute", ("calls", "self_s")),
    ("expr.free_variables", ("calls", "self_s")),
    ("expr.zero_verdict", ("calls", "self_s", "probably_share")),
    ("expr.eval_expr", ("calls",)),
    ("prolong.prolong_standard", ("calls", "self_s")),
    ("prolong.prolong_lambda", ("calls", "self_s")),
    ("prolong.prolong_mu_scalar", ("calls", "self_s")),
    ("prolong.prolong_mu_vector", ("calls", "self_s")),
    ("gauge.maurer_cartan_check", ("self_s",)),
    ("gauge.darboux_derivative", ("self_s",)),
    ("gauge.scalar_potential", ("self_s",)),
    ("gauge.verify_gauge_equivalence_scalar", ("self_s",)),
    ("expr.to_string", ("calls", "self_s", "chars")),
    ("parsing.parse", ("calls", "self_s")),
    ("problemfile.load_problem", ("self_s",)),
    ("cli.run_task", ("self_s",)),
):
    for _stat in _stats:
        PER_LAYER[f"{_fn}.{_stat}"] = _unit(_stat)
for _layer in ("parsing", "problemfile", "expr", "backend", "gcd", "jets", "prolong",
               "symmetry", "gauge", "cli"):
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER["trace.overhead"] = "ratio"

# share stats: numerator counter kept by tracer.py
_SHARES = {
    "expr.normalize.noop_share": "expr.normalize.noop",
    "gcd.poly_gcd.nontrivial_share": "_gcd.poly_gcd.nontrivial",
    "expr.zero_verdict.probably_share": "expr.zero_verdict.probably",
}


@dataclass
class Invocation:
    wall_s: float
    maxrss_kib: int
    exit_code: int  # negative: killed by that signal, as on timeout
    report_bytes: bytes | None


def child_env():
    env = dict(os.environ)
    env.pop("JETSYM_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(argv, env, report_path=None, side_output=None) -> Invocation:
    """One child process, timed from spawn to reap; resources from wait4.
    Output files left by an earlier invocation are removed first."""
    for path in (report_path, side_output):
        if path is not None:
            path.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if report_path is not None and report_path.exists():
        report = report_path.read_bytes()
    return Invocation(wall_s, usage.ru_maxrss, proc.returncode, report)


class Checker:
    """Counts checks attempted (tasks of every invocation, oracle lines)
    and failures: wrong verdicts, tasks of crashed or timed-out
    invocations, reports that differ from the run's first, oracle
    mismatches."""

    def __init__(self, expected):
        self.expected = expected
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = {}  # reason -> count

    def fail(self, reason, n=1):
        self.failed += n
        self.failures[reason] = self.failures.get(reason, 0) + n

    def check(self, inv: Invocation, what: str) -> bool:
        """True when the invocation produced a report; its timing is usable."""
        n = len(self.expected)
        self.attempted += n
        if inv.exit_code not in (0, 1) or inv.report_bytes is None:
            why = "timeout" if inv.exit_code < 0 else f"exit {inv.exit_code}, no report"
            self.fail(f"{what} invocation: {why}", n)
            return False
        if self.reference is None:
            self.reference = inv.report_bytes
        elif inv.report_bytes != self.reference:
            self.fail(f"{what} invocation: --json bytes differ from the first report")
        try:
            got = {t["id"]: t["verdict"] for t in json.loads(inv.report_bytes)["tasks"]}
        except (ValueError, KeyError, TypeError):
            self.fail(f"{what} invocation: unreadable report", n)
            return False
        for task_id, truth in self.expected.items():
            verdict = got.get(task_id)
            ok = verdict in TRUE_VERDICTS if truth else verdict == "fail"
            if not ok:
                want = "pass|probably-pass" if truth else "fail"
                self.fail(f"{task_id}: got {verdict}, want {want}")
        return True


def percentile(samples, p):
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "jetsym").iterdir()):
        if path.suffix in (".py", ".pyx"):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(env, seed, workload):
    probe = subprocess.run(
        [sys.executable, "-c",
         "import jetsym, platform; print(jetsym.BACKEND); print(jetsym.__file__); "
         "print(platform.python_version())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split("\n")
    if Path(probe[1]).resolve().parent != (SRC / "jetsym").resolve():
        raise SystemExit(f"jetsym imported from {probe[1]}, not from {SRC}")
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "backend": probe[0],
        "python": probe[2],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source_digest(),
    }


def strip_tasks(text):
    """The problem file without its [task] sections, for set-up timing."""
    out, keep = [], True
    for line in text.splitlines():
        if line.startswith("["):
            keep = not line.startswith("[task")
        if keep:
            out.append(line)
    return "\n".join(out) + "\n"


def setup_argv(setup_file):
    """A fresh interpreter that imports the CLI and loads the problem file
    without its tasks."""
    return [sys.executable, "-c",
            "import sys, jetsym.cli as cli\n"
            "with open(sys.argv[1], encoding='utf-8') as f:\n"
            "    cli.load_problem(f.read())\n",
            str(setup_file)]


def helper(script, *args) -> str:
    """Run one of the benchmark's sympy helpers in its own process, so
    this process stays small: a child's ru_maxrss starts from the size of
    the process it was spawned from."""
    done = subprocess.run([sys.executable, str(HERE / script)] + [str(a) for a in args],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"{script} failed:\n{done.stderr}")
    return done.stdout


def run(args) -> int:
    if not (SRC / "jetsym" / "cli.py").is_file():
        print(f"no jetsym sources under {SRC}; run from a jetsym checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return _run(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, env, work) -> int:
    helper("corpus.py", args.workload, args.seed, work)
    problem = work / "problem.jsf"
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    report = work / "report.json"
    cli_args = ["--json", str(report), "run-file", str(problem)]
    print("env " + json.dumps(environment(env, args.seed, args.workload), sort_keys=True))

    checker = Checker(expected["tasks"])
    # first invocation: compiles bytecode, gives the reference report
    if checker.check(invoke([sys.executable, "-m", "jetsym.cli"] + cli_args, env, report),
                     "warm-up") and expected["oracle"]:
        oracle = json.loads(helper("oracle.py", args.workload, args.seed, report))
        checker.attempted += oracle["checked"]
        for line in oracle["mismatches"]:
            checker.fail(f"oracle: {line}")

    if args.trace:
        metrics = traced_window(args, env, work, cli_args, report, checker)
    else:
        metrics = timed_window(args, env, work, cli_args, report, checker, problem)

    failed_share = checker.failed / checker.attempted
    if not args.trace:
        metrics["verified_share"] = {"value": 1.0 - failed_share, "unit": "share"}
    print(f"failed_share {failed_share!r} ({checker.failed} of {checker.attempted} checks)")
    for reason, count in sorted(checker.failures.items()):
        print(f"failure x{count}: {reason}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def calibrate(env) -> float:
    """Speed factor of the machine right now: nominal / measured time of
    the fixed reference program.  Multiplying a wall time by it gives
    reference seconds."""
    inv = invoke(CALIBRATE, env)
    if inv.exit_code != 0:
        raise SystemExit(f"calibrate.py failed with exit code {inv.exit_code}")
    return CALIBRATION_NOMINAL_S / inv.wall_s


def timed_window(args, env, work, cli_args, report, checker, problem):
    setup_file = work / "setup.jsf"
    setup_file.write_text(strip_tasks(problem.read_text(encoding="utf-8")), encoding="utf-8")
    clock_out = work / "taskclock.json"
    run_file = [sys.executable, "-m", "jetsym.cli"] + cli_args
    clocked = [sys.executable, str(HERE / "taskclock.py"), str(clock_out)] + cli_args
    setup = setup_argv(setup_file)
    setups, walls, rss, task_samples, factors = [], [], [], [], []
    # Each round runs every kind of invocation once, next to one
    # calibration, so the kinds see the same share of the machine's fast
    # and slow spells and each time is scaled by the speed of its round.
    deadline = time.perf_counter() + args.seconds
    while True:
        inv = invoke(setup, env)
        if inv.exit_code != 0:
            raise SystemExit(f"set-up probe failed with exit code {inv.exit_code}")
        setup_wall = inv.wall_s
        file_inv = invoke(run_file, env, report)
        factor = calibrate(env)
        factors.append(factor)
        setups.append(setup_wall * factor)
        if checker.check(file_inv, "run-file"):
            walls.append(file_inv.wall_s * factor)
            rss.append(file_inv.maxrss_kib / KIB_PER_MB)
        inv = invoke(clocked, env, report, clock_out)
        if checker.check(inv, "task-clock") and clock_out.exists():
            task_samples += [s * factor for _id, s in json.loads(clock_out.read_text())]
        if time.perf_counter() >= deadline:
            break
    if not walls or len(task_samples) < 2:
        raise SystemExit("no invocation completed; nothing to report")
    print(f"samples setup_s {len(setups)} file_s {len(walls)} task_s {len(task_samples)}; "
          f"speed factor median {statistics.median(factors)!r} "
          f"min {min(factors)!r} max {max(factors)!r}")
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "file_s": {"value": statistics.median(walls), "unit": "s"},
        "task_s.p50": {"value": percentile(task_samples, 50), "unit": "s"},
        "task_s.p90": {"value": percentile(task_samples, 90), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def traced_window(args, env, work, cli_args, report, checker):
    trace_out = work / "trace.json"
    run_file = [sys.executable, "-m", "jetsym.cli"] + cli_args
    traced = [sys.executable, str(HERE / "tracer.py"), str(trace_out)] + cli_args
    overheads, per_run = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain = invoke(run_file, env, report)
        factor = calibrate(env)
        inv = invoke(traced, env, report, trace_out)
        plain_ok = checker.check(plain, "run-file")
        if checker.check(inv, "traced") and trace_out.exists():
            stats = json.loads(trace_out.read_text())["stats"]
            per_run.append(layer_metrics(stats, factor))
            if plain_ok:
                overheads.append(inv.wall_s / plain.wall_s)
        if time.perf_counter() >= deadline:
            break
    if not per_run or not overheads:
        raise SystemExit("no invocation completed; nothing to report")
    shutil.copyfile(trace_out, WORK / f"trace-{args.workload}.json")
    print(f"samples traced {len(per_run)}")
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            value = statistics.median(overheads)
        else:
            value = statistics.median(m.get(name, 0) for m in per_run)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def layer_metrics(stats, factor):
    """Per-file values of one traced invocation under the metric names,
    times in reference seconds."""
    out = {}
    for key, value in stats.items():
        name = "gcd." + key[len("_gcd."):] if key.startswith("_gcd.") else key
        if name.endswith(".self_s"):
            value *= factor
            total = name.split(".", 1)[0] + ".self_s"
            out[total] = out.get(total, 0.0) + value
        out[name] = value
    for share, counter in _SHARES.items():
        calls = stats.get(counter.rsplit(".", 1)[0] + ".calls", 0)
        out[share] = stats.get(counter, 0) / calls if calls else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("prolong-pde", "ode-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
