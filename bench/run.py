"""Benchmark for qesbethe: one workload per run, a closed loop with one
client (the next model starts when the previous one has been checked).

    python3 bench/run.py --workload solve-large --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload homotopy-seed --smoke

Runs from a plain checkout: ``src/`` goes on ``sys.path`` and the CLI is
called in-process through ``qesbethe.cli.main``, never as a console script.

``--trace 0`` reports the end-to-end metrics.  Times are wall seconds of the
program call alone; the output checks that follow each call are not timed.
``states_per_s`` divides the accepted eigenstates (``sector_dimension`` per
passing verify, rows per passing limits report) by the summed call times;
``model_s.p50``/``p90`` are percentiles of the per-call times; ``setup_s``
is the median of one in-process and four fresh-process set-ups.

``--trace 1`` runs every model twice, once plain and once with timing
wrappers swapped in for the package's public names (see ``spans.py``),
reports the per-layer metrics and the tracing overhead, and first runs a
failure probe (named envelope holes plus full-domain draws) whose failures
are classified by cause but kept out of ``attempted``/``failed``.

Every output is checked; the last stdout line is the JSON result.  The full
record (provenance, per-cell medians, every failure with its parameters)
goes to ``bench/out/``, and the traced run's spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SCHEMA = SRC / "qesbethe" / "schema" / "result.schema.json"

# acceptance criterion 1
RESIDUAL_TOL = 1e-9
GAP_TOL = 1e-8
DIGITS_FLOOR = 1e-16
SETUP_SAMPLES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "QES_THREADS",
)
TYPED_CAUSES = (
    "InexactDivision", "DegenerateLeadingCoefficient", "NoConvergence", "SingularJacobian",
    "PoleOfGamma", "DivergentProduct", "PoleOfPotential", "SectorMismatch",
    "UnsupportedFamily", "SubspaceLeak", "DegenerateRoots", "LimitViolation",
)
CAUSES = TYPED_CAUSES + (
    "typed_other", "untyped.ValueError", "untyped.other",
    "exit1", "exit2", "tolerance", "count", "schema", "rerun",
)


@dataclass
class Outcome:
    """One executed job: its time, and what the checks made of it."""

    label: str
    params: dict
    seconds: float
    states: int = 0
    cause: str | None = None
    detail: str = ""
    exit_code: int | None = None
    residual: float | None = None
    gap: float | None = None
    seeded: int = 0
    fingerprint: str = ""


def _classify(exc_type: type) -> str:
    from qesbethe.errors import QesError

    if issubclass(exc_type, QesError):
        return exc_type.__name__ if exc_type.__name__ in TYPED_CAUSES else "typed_other"
    return "untyped.ValueError" if exc_type is ValueError else "untyped.other"


def _limit_degree_count(tag: str, M: int) -> int:
    if tag in ("ch-from-sextic", "mp-from-sextic"):
        return len(range(M % 2, M + 1, 2))
    return M + 1


class Runner:
    """Executes and checks the jobs of one workload."""

    def __init__(self, workload: str, seed: int, validator, smoke: bool = False) -> None:
        import qesbethe.bethe
        import qesbethe.cli
        import qesbethe.models

        self.validator = validator
        self._bethe = qesbethe.bethe
        self._cli = qesbethe.cli
        self._models = qesbethe.models
        self._stream = workloads.jobs(workload, seed, smoke=smoke)
        self.cycle_length = workloads.cycle_length(workload, smoke=smoke)
        self.spec_path = OUT / f"spec-{workload}-{seed}-{os.getpid()}.json"
        self.pending: list[workloads.Job] | None = None

    def close(self) -> None:
        self.spec_path.unlink(missing_ok=True)

    def next_cycle(self) -> list[workloads.Job]:
        return [next(self._stream) for _ in range(self.cycle_length)]

    # -- one job ---------------------------------------------------------------

    def execute(self, job: workloads.Job, tracer: Tracer | None = None) -> Outcome:
        """Run one job (timed), then check its output (untimed)."""
        spec = None
        if job.kind != "limits":
            spec = self._models.model_spec(job.family, M=job.M, **job.params)
        if job.kind in ("solve", "homotopy"):
            mode = "homotopy" if job.kind == "homotopy" else "oracle"
            call, root = (lambda: self._bethe.solve(spec, seed_mode=mode)), "bethe.solve"
        else:
            argv = self._argv(job, spec)
            call, root = (lambda: self._run_cli(argv)), "cli.main"
        if tracer is not None:
            call = tracer.wrap(root, call)
        error = None
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # every failure is counted, never dropped
            result, error = None, exc
        out = Outcome(job.label, job.params, time.perf_counter() - start)
        if error is not None:
            out.cause, out.detail = _classify(type(error)), f"{type(error).__name__}: {error}"
        elif root == "bethe.solve":
            self._check_solutions(out, spec, result)
        else:
            self._check_document(out, job, spec, *result)
            if out.exit_code == 1:
                out.cause = self._exit1_cause(job, tracer)
        return out

    def _argv(self, job: workloads.Job, spec) -> list[str]:
        if job.kind == "verify":
            self.spec_path.write_text(json.dumps(self._models.spec_to_json_dict(spec)))
            return ["verify", "--spec", str(self.spec_path)]
        argv = ["limits", "--case", job.family, "--M", str(job.M)]
        for name, value in job.params.items():
            value = complex(value)
            argv.append(f"--{name}={value.real!r},{value.imag!r}")
        return argv

    def _run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self._cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def _check_solutions(self, out: Outcome, spec, solutions) -> None:
        dim = self._models.sector_dimension(spec)
        out.states = len(solutions)
        out.residual = max((s.residual_max for s in solutions), default=0.0)
        out.gap = max((s.discrepancy / max(1.0, abs(s.E_oracle)) for s in solutions), default=0.0)
        out.seeded = sum(s.seed_source == "homotopy" for s in solutions)
        out.fingerprint = repr([
            (s.E_formula, s.E_oracle, s.roots, s.residuals, s.flags, s.seed_source)
            for s in solutions
        ])
        if out.states != dim:
            out.cause, out.detail = "count", f"{out.states} states, dim {dim}"
        elif out.residual > RESIDUAL_TOL or out.gap > GAP_TOL:
            out.cause, out.detail = "tolerance", f"residual {out.residual:.3e}, gap {out.gap:.3e}"

    def _check_document(self, out: Outcome, job, spec, code: int, stdout: str, stderr: str) -> None:
        out.exit_code, out.fingerprint = code, stdout
        doc: dict = {}
        if stdout or code == 0:
            try:
                doc = json.loads(stdout)
                self.validator.validate(doc)
            except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
                out.cause, out.detail = "schema", str(exc)[:300]
                return
        if code != 0:
            out.cause = "exit2" if code == 2 else "exit1"
            failed = [
                c.get("name", f"m={c.get('m')}")
                for c in doc.get("checks", doc.get("rows", [])) if not c["passed"]
            ]
            out.detail = f"failed {failed}" if failed else stderr.strip()[:300] or "not passed"
            return
        if job.kind == "verify":
            values = {c["name"]: c["value"] for c in doc["checks"]}
            out.residual, out.gap = values["bae_residual"], values["eigenvalue_match"]
            out.states = self._models.sector_dimension(spec)
            if not doc["passed"] or out.residual > RESIDUAL_TOL or out.gap > GAP_TOL:
                out.cause = "tolerance"
                out.detail = f"residual {out.residual:.3e}, gap {out.gap:.3e}"
        else:
            out.states = len(doc["rows"])
            if out.states != _limit_degree_count(job.family, job.M):
                out.cause, out.detail = "count", f"{out.states} rows"
            elif not doc["passed"]:
                out.cause, out.detail = "tolerance", f"max gap {doc['max_gap']:.3e}"

    def _exit1_cause(self, job, tracer: Tracer | None) -> str:
        """Typed cause behind an exit 1: the exception that left the
        outermost wrapped layer, found by re-running the job traced."""
        if tracer is None:
            tracer = Tracer()
            with tracer.installed():
                self.execute(job, tracer)
        exc_type = tracer.escaped_exception(tracer.model_id)
        return "exit1" if exc_type is None else _classify(exc_type)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def make_validator():
    schema = json.loads(SCHEMA.read_text())
    return jsonschema.Draft202012Validator(schema)


def setup(workload: str, seed: int, validator, smoke: bool = False) -> tuple[float, Runner, Outcome]:
    """Import the package (with cli and homotopy), generate the first cycle
    of inputs and run one warm-up model.  Returns the seconds it took."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qesbethe  # noqa: F401
    import qesbethe.cli  # noqa: F401
    import qesbethe.homotopy  # noqa: F401

    runner = Runner(workload, seed, validator, smoke=smoke)
    runner.pending = runner.next_cycle()
    warm = runner.execute(workloads.warmup_job(workload, seed))
    return time.perf_counter() - start, runner, warm


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """The in-process set-up time plus fresh-process repeats of it."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------


@dataclass
class LoopResult:
    plain: list[Outcome]
    traced: list[Outcome]
    cycles: int


def timed_loop(runner: Runner, seconds: float, tracer: Tracer | None = None) -> LoopResult:
    """Whole cycles of the workload until the budget is spent: a new cycle
    starts only if half a mean cycle still fits, so the mix of cells, and
    with it every percentile, is the same from seed to seed.

    With a tracer, each job also runs traced, alternating which of the two
    runs goes first.  Once per cycle the fastest job is re-run and its
    output compared byte for byte."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    cycle_times: list[float] = []
    start = time.perf_counter()
    while not cycle_times or (
        time.perf_counter() - start + 0.5 * statistics.fmean(cycle_times) <= seconds
    ):
        cycle_start = time.perf_counter()
        cycle = runner.pending or runner.next_cycle()
        runner.pending = None
        done = []
        for job in cycle:
            if tracer is None:
                done.append((job, runner.execute(job)))
                continue
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for with_trace in order:
                if with_trace:
                    tracer.model_id += 1
                    with tracer.installed():
                        traced.append(runner.execute(job, tracer))
                else:
                    done.append((job, runner.execute(job)))
            plain.append(done[-1][1])
        if tracer is None:
            plain.extend(out for _job, out in done)
        job, first = min(done, key=lambda pair: pair[1].seconds)
        again = runner.execute(job)
        if first.cause is None and again.fingerprint != first.fingerprint:
            first.cause, first.detail = "rerun", "re-run output differs"
        cycle_times.append(time.perf_counter() - cycle_start)
    return LoopResult(plain, traced, len(cycle_times))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _digits(worst: float) -> float:
    return -math.log10(max(worst, DIGITS_FLOOR))


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, float]:
    times = [o.seconds for o in outcomes]
    accepted = [o for o in outcomes if o.cause is None]
    residuals = [o.residual for o in accepted if o.residual is not None]
    gaps = [o.gap for o in accepted if o.gap is not None]
    return {
        "setup_s": setup_s,
        "states_per_s": sum(o.states for o in accepted) / sum(times),
        "model_s.p50": statistics.median(times),
        "model_s.p90": statistics.quantiles(times, n=10)[8],
        "bae_digits.min": _digits(max(residuals, default=0.0)),
        "eig_digits.min": _digits(max(gaps, default=0.0)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, loop: LoopResult, probe: list[Outcome]) -> dict[str, float]:
    busy = tracer.busy()
    counts = tracer.counts
    models = len(loop.traced)
    wall = sum(o.seconds for o in loop.traced)
    plain_wall = sum(o.seconds for o in loop.plain)
    homotopy_states = sum(o.states for o in loop.traced if o.label.startswith("homotopy"))
    polish_calls = counts["bethe.newton_polish.calls"]
    metrics = {
        "trace.wall_s": wall,
        "trace.models": models,
        "trace.overhead_fraction": wall / plain_wall - 1.0,
        "bethe.solve.busy_s": busy.get("bethe.solve", 0.0),
        "bethe.newton_solve.busy_s": busy.get("bethe.newton_solve", 0.0),
        "bethe.newton_solve.calls": counts["bethe.newton_solve.calls"],
        "bethe.newton_solve.residual_evals": counts["bethe.newton_solve.residual_evals"],
        "bethe.newton_solve.failed": counts["bethe.newton_solve.failed"],
        "bethe.pair_factors": counts["bethe.pair_factors"],
        "bethe.newton_polish.busy_s": busy.get("bethe.newton_polish", 0.0),
        "bethe.newton_polish.accept_ratio": (
            counts["bethe.newton_polish.accepted"] / polish_calls if polish_calls else 0.0
        ),
        "bethe.bae_residual.busy_s": busy.get("bethe.bae_residual", 0.0),
        "bethe.eigenvalue_from_roots.busy_s": busy.get("bethe.eigenvalue_from_roots", 0.0),
        "bethe.worst_residual": tracer.worst["bethe.worst_residual"],
        "bethe.worst_gap": tracer.worst["bethe.worst_gap"],
        "hamiltonian.build_matrix.busy_s": busy.get("hamiltonian.build_matrix", 0.0),
        "hamiltonian.build_matrix.calls_per_model": (
            counts["hamiltonian.build_matrix.calls"] / models if models else 0.0
        ),
        "hamiltonian.build_matrix.columns": counts["hamiltonian.build_matrix.columns"],
        "hamiltonian.build_matrix.failed": counts["hamiltonian.build_matrix.failed"],
        "spectral.oracle_spectrum.busy_s": busy.get("spectral.oracle_spectrum", 0.0),
        "spectral.eig_dim3": counts["spectral.eig_dim3"],
        "spectral.extract_roots.busy_s": busy.get("spectral.extract_roots", 0.0),
        "homotopy.homotopy_root_sets.busy_s": busy.get("homotopy.homotopy_root_sets", 0.0),
        "homotopy.newton_solve.busy_s": busy.get("homotopy.newton_solve", 0.0),
        "homotopy.newton_solve.calls": counts["homotopy.newton_solve.calls"],
        "homotopy.newton_solve.residual_evals": counts["homotopy.newton_solve.residual_evals"],
        "homotopy.newton_solve.failed": counts["homotopy.newton_solve.failed"],
        "homotopy.build_matrix.busy_s": busy.get("homotopy.build_matrix", 0.0),
        "homotopy.seeded_ratio": (
            sum(o.seeded for o in loop.traced) / homotopy_states if homotopy_states else 0.0
        ),
        "wavefun.zero_mode_residual.busy_s": busy.get("wavefun.zero_mode_residual", 0.0),
        "wavefun.zero_mode_residual.calls": counts["wavefun.zero_mode_residual.calls"],
        "wavefun.schrodinger_residual.busy_s": busy.get("wavefun.schrodinger_residual", 0.0),
        "wavefun.schrodinger_residual.calls": counts["wavefun.schrodinger_residual.calls"],
        "limits.verify_limit.busy_s": busy.get("limits.verify_limit", 0.0),
        "limits.reduced_bae_check.busy_s": busy.get("limits.reduced_bae_check", 0.0),
        "cli.main.self_s": tracer.self_time("cli.main"),
    }
    everything = loop.plain + loop.traced + probe
    for code in (0, 1, 2):
        metrics[f"cli.exit{code}"] = sum(o.exit_code == code for o in everything)
    timed = loop.plain + loop.traced
    metrics["failed_fraction"] = sum(o.cause is not None for o in timed) / len(timed)
    metrics["probe.attempted"] = len(probe)
    metrics["probe.failed_fraction"] = (
        sum(o.cause is not None for o in probe) / len(probe) if probe else 0.0
    )
    for cause in CAUSES:
        metrics[f"fail.{cause}"] = sum(o.cause == cause for o in everything)
    return metrics


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cell_summary(outcomes: list[Outcome]) -> dict[str, dict]:
    cells: dict[str, list[float]] = {}
    for o in outcomes:
        cells.setdefault(o.label, []).append(o.seconds)
    return {
        label: {"n": len(ts), "median_s": statistics.median(ts), "max_s": max(ts)}
        for label, ts in sorted(cells.items())
    }


def _failures(outcomes: list[Outcome]) -> list[dict]:
    return [
        {"label": o.label, "cause": o.cause, "detail": o.detail, "params": o.params}
        for o in outcomes if o.cause is not None
    ]


def declared_metrics(key: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, full record)."""
    validator = make_validator()
    setup_s, runner, warm = setup(args.workload, args.seed, validator, smoke=args.smoke)
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "warmup": {"label": warm.label, "cause": warm.cause},
    }
    if args.trace:
        probe_tracer = Tracer()
        probe = []
        probe_start = time.perf_counter()
        for job in workloads.probe_jobs(args.workload, args.seed, smoke=args.smoke):
            probe_tracer.model_id += 1
            with probe_tracer.installed():
                probe.append(runner.execute(job, probe_tracer))
        budget = max(args.seconds - (time.perf_counter() - probe_start), 0.0)
        tracer = Tracer()
        loop = timed_loop(runner, budget, tracer)
        values = per_layer(tracer, loop, probe)
        units = declared_metrics("per_layer")
        outcomes = loop.plain + loop.traced
        record["probe_failures"] = _failures(probe)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        loop = timed_loop(runner, args.seconds)
        outcomes = loop.plain
        samples = [setup_s] if args.smoke else setup_samples(args.workload, args.seed, setup_s)
        record["setup_samples_s"] = samples
        values = end_to_end(outcomes, statistics.median(samples))
        units = declared_metrics("end_to_end")
    runner.close()
    failed = sum(o.cause is not None for o in outcomes) + (warm.cause is not None)
    attempted = len(outcomes) + 1
    times = [o.seconds for o in loop.plain]
    p90 = statistics.quantiles(times, n=10)[8]
    record.update(
        cycles=loop.cycles,
        models=len(times),
        beyond_p90=sum(t > p90 for t in times),
        cells=_cell_summary(loop.plain),
        failures=_failures(outcomes),
        metrics=values,
    )
    return result_line(failed == 0, attempted, failed, values, units), record


def check_shape(line: dict, units: dict) -> list[str]:
    """Problems with the shape of a result line (smoke mode)."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(line)}")
    if set(line["metrics"]) != set(units):
        problems.append(f"metric names {sorted(set(line['metrics']) ^ set(units))}")
    for name, entry in line["metrics"].items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if entry.get("unit") != units.get(name):
            problems.append(f"{name} unit {entry.get('unit')!r}")
    if not isinstance(line["attempted"], int) or line["attempted"] < 1:
        problems.append("attempted")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, both trace modes; checks only the output shape")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qesbethe" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        setup_s, runner, _warm = setup(args.workload, args.seed, make_validator())
        runner.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.smoke:
        problems = []
        for trace in (0, 1):
            args.trace, args.seconds = trace, 0.0
            line, _record = run(args)
            units = declared_metrics("per_layer" if trace else "end_to_end")
            problems += [f"trace {trace}: {p}" for p in check_shape(line, units)]
        print(json.dumps({"smoke": args.workload, "ok": not problems, "problems": problems}))
        return 0 if not problems else 1
    line, record = run(args)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"bench: {record['models']} models in {record['cycles']} cycles; record in {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
