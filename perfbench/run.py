"""The ecg-har benchmark: four workloads run through the `ecg-har` CLI stages.

    python3 perfbench/run.py --workload ingest --seed 7 --seconds 16 --trace 0

Run from the root of a source checkout. This one process
starts one child process at a time (each CLI stage, the baseline step, or
the machine probe), times it, and reads its peak RSS from `os.wait4`. The
program sees only the cohort generated from `--seed`.

A run sets its workload up several times (`setup_s` is their median), then
repeats the workload's timed stages for about `--seconds`, and checks every
repetition's outputs. With `--trace 0` the last line holds the
end-to-end metrics (medians over repetitions); with `--trace 1` every child
records spans (see tracing.py) and the last line holds the per-layer
metrics. Human-readable lines before it give each stage's wall time and the
machine record.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 7
SETUPS = 3
RUN_DEADLINE_S = 170.0
# one short stage for every training run: the point is the cost of a step
STAGES_CONFIG = {"stages": [{"lr": 4e-4, "min_lr": 1e-6, "epochs": 1, "weight_decay": 1e-4}]}
SAMPLE_RATE_HZ, TARGET_RATE_HZ, WINDOW, STEP, ACTIVITIES = 512, 50, 256, 64, 6


@dataclass(frozen=True)
class Sizes:
    """Cohort sizes: `ingest` synthesises its own; the others share a set-up cohort."""

    ingest_subjects: int = 12
    ingest_duration_s: float = 60.0
    desk_subjects: int = 6
    desk_duration_s: float = 20.0
    scaling_subjects: int = 12
    scaling_duration_s: float = 20.0
    scaling_counts: str = "2,4,8"
    scaling_trials: int = 4


FULL = Sizes()


class StageFailed(Exception):
    pass


@dataclass
class Stage:
    label: str
    start_ns: int
    end_ns: int
    rss_kb: int
    trace_path: Path | None

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Unit:
    """One set-up or one repetition of the timed stages.

    Its wall time runs from its start to the end of its last child, so the
    output checks that follow are not timed.
    """

    stages: list = field(default_factory=list)
    start_ns: int = 0
    error: str | None = None
    outputs: dict = field(default_factory=dict)

    @property
    def end_ns(self):
        return self.stages[-1].end_ns if self.stages else self.start_ns

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) / 1e9


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, work: Path, trace: bool, run_id: str, deadline: float):
        self.work = work
        self.trace = trace
        self.deadline = deadline
        self.count = 0
        threads = self.blas_threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(threads)
        self.env["PERFBENCH_RUN_ID"] = run_id
        self.env.pop("PERFBENCH_TRACE", None)

    def run(self, unit: Unit, label: str, *argv) -> Path:
        """Run `perfbench/stage.py argv...` to completion; returns its log."""
        self.count += 1
        log = self.work / "logs" / f"{self.count:04d}-{label}.log"
        env = self.env
        trace_path = None
        if self.trace:
            trace_path = self.work / "traces" / f"{self.count:04d}.json"
            env = dict(env, PERFBENCH_TRACE=str(trace_path))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise StageFailed(f"{label}: run deadline passed")
        with open(log, "wb") as out:
            # perf_counter_ns is CLOCK_MONOTONIC, shared with the child's timestamps
            start = time.perf_counter_ns()
            child = subprocess.Popen([sys.executable, str(HERE / "stage.py"), *map(str, argv)],
                                     stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            watchdog = threading.Timer(timeout, child.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                os.waitpid(child.pid, 0)
                raise
            finally:
                watchdog.cancel()
            end = time.perf_counter_ns()
        unit.stages.append(Stage(label, start, end, usage.ru_maxrss, trace_path))
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise StageFailed(f"{label} exited {code}: {' | '.join(tail)}")
        return log

    def cli(self, unit, label, command, out_dir, seed, *extra):
        return self.run(unit, label, "cli", command, "--seed", seed, "--out", out_dir, *extra)


# --------------------------------------------------------------- output checks

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_files(paths, base: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(_sha256(path.read_bytes()).encode())
    return digest.hexdigest()


def decode_windows(path: Path):
    """(payload digest, window count, per-activity counts) of windows.bin.

    Digests the decoded float32 values only, so a header-only change keeps it.
    """
    raw = path.read_bytes()
    header = json.loads(raw[:raw.index(b"\n")])
    records = header["windows"]
    floats = len(records) * len(header["channel_layout"]) * header["window"]
    values = np.frombuffer(raw[len(raw) - 4 * floats:], dtype="<f4")
    if not np.all(np.isfinite(values)):
        raise ValueError("windows.bin holds non-finite values")
    per_label = Counter(record["activity"] for record in records)
    return _sha256(values.tobytes()), len(records), per_label


def expected_windows(subjects: int, duration_s: float) -> int:
    """Windows per activity: one recording per subject per activity."""
    resampled = int(duration_s * SAMPLE_RATE_HZ) * TARGET_RATE_HZ // SAMPLE_RATE_HZ
    per_recording = (resampled - WINDOW) // STEP + 1 if resampled >= WINDOW else 0
    return subjects * per_recording


def cohort_outputs(out_dir: Path, subjects: int, duration_s: float) -> dict:
    """Digests of an ingest result, after checking its window and label counts."""
    payload, count, per_label = decode_windows(out_dir / "windows.bin")
    per_activity = expected_windows(subjects, duration_s)
    if count != ACTIVITIES * per_activity or set(per_label.values()) != {per_activity}:
        raise ValueError(f"windows.bin holds {count} windows {per_label}, "
                         f"expected {per_activity} per activity")
    return {
        "cohort_sha256": digest_files((out_dir / "cohort").glob("*.csv"), out_dir / "cohort"),
        "payload_sha256": payload,
        "windows": count,
        "split": _sha256((out_dir / "split.json").read_bytes()),
    }


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, float):
        yield value


def check_finite(path: Path) -> None:
    """Every number in a JSON artifact is finite."""
    if not all(map(math.isfinite, _numbers(json.loads(path.read_text())))):
        raise ValueError(f"{path.name} reports a non-finite value")


def check_reference(outputs: dict, seed: int, subjects: int, duration_s: float) -> None:
    """Compare with the digests the unmodified program produced for this
    seed and size, where reference.json has them."""
    for reference in json.loads(REFERENCE.read_text())["cohorts"]:
        if (seed, subjects, duration_s) == (reference["seed"], reference["subjects"],
                                            reference["duration_s"]):
            for key in ("cohort_sha256", "payload_sha256", "windows"):
                if outputs[key] != reference[key]:
                    raise ValueError(f"{key} {outputs[key]} differs from reference "
                                     f"{reference[key]}")


# --------------------------------------------------------------- workloads

class Workload:
    """Set-up builds the inputs of the timed part; `repeat` runs that part once.

    A run repeats the timed part round(--seconds / nominal_repeat_s) times,
    at least once. The count depends on --seconds only, not on measured
    times, so every run of a workload does the same work; nominal_repeat_s
    is about one repetition's wall time on a 2-core x86_64 machine.
    """

    name = ""
    nominal_repeat_s = 1.0

    def __init__(self, runner: Runner, seed: int, sizes: Sizes, mutate=None):
        self.runner = runner
        self.seed = seed
        self.sizes = sizes
        # a hook that damages an artifact before the checks (used by the self-test)
        self.mutate = mutate
        self.out = None
        self.inputs = None  # digests of the set-up cohort
        self.machine = None

    def setup(self, unit: Unit, index: int) -> None:
        raise NotImplementedError

    def probe(self, unit):
        log = self.runner.run(unit, "probe", "probe")
        self.machine = json.loads(log.read_text().strip().splitlines()[-1])

    def ingest(self, unit, subjects, duration_s):
        """CLI synth -> preprocess -> split into self.out, one child each."""
        run = self.runner.cli
        run(unit, "synth", "synth", self.out, self.seed, "--subjects", subjects,
            "--duration-s", duration_s)
        run(unit, "preprocess", "preprocess", self.out, self.seed)
        run(unit, "split", "split", self.out, self.seed)

    def set_up_cohort(self, unit, index, subjects, duration_s):
        """The probe, then ingest of the workload's cohort; the last
        set-up's directory is the timed part's input."""
        self.probe(unit)
        previous, self.out = self.out, self.runner.work / f"setup{index}"
        self.ingest(unit, subjects, duration_s)
        unit.outputs = cohort_outputs(self.out, subjects, duration_s)
        check_reference(unit.outputs, self.seed, subjects, duration_s)
        self.inputs = unit.outputs
        (self.out / "stages.json").write_text(json.dumps(STAGES_CONFIG))
        if previous is not None:
            shutil.rmtree(previous)

    def repeat(self, unit: Unit, index: int) -> None:
        raise NotImplementedError

    def check(self, unit: Unit, index: int) -> None:
        raise NotImplementedError

    def artifact_digest(self, names) -> dict:
        """Digests of the named artifacts, after checking the timed stages
        left their set-up input unchanged."""
        if decode_windows(self.out / "windows.bin")[0] != self.inputs["payload_sha256"]:
            raise ValueError("windows.bin changed after set-up")
        out = {}
        for name in names:
            path = self.out / name
            if path.suffix == ".json":
                check_finite(path)
            out[name] = _sha256(path.read_bytes())
        return out


class Ingest(Workload):
    """synth -> preprocess -> split of a 12-subject cohort into a fresh directory."""

    name = "ingest"
    nominal_repeat_s = 10.0

    def setup(self, unit, index):
        self.probe(unit)

    def repeat(self, unit, index):
        self.out = self.runner.work / f"ingest{index}"
        self.ingest(unit, self.sizes.ingest_subjects, self.sizes.ingest_duration_s)

    def check(self, unit, index):
        try:
            if self.mutate:
                self.mutate(self.out)
            size = (self.sizes.ingest_subjects, self.sizes.ingest_duration_s)
            unit.outputs = cohort_outputs(self.out, *size)
            check_reference(unit.outputs, self.seed, *size)
        finally:
            shutil.rmtree(self.out)


class TrainDesk(Workload):
    """train + evaluate of the three desk-scale models, then the five baselines."""

    name = "train-desk"
    nominal_repeat_s = 11.0
    kinds = ("cnn", "resnet", "transformer")
    extra = ("--desk-scale",)

    def setup(self, unit, index):
        self.set_up_cohort(unit, index, self.sizes.desk_subjects, self.sizes.desk_duration_s)

    def repeat(self, unit, index):
        run = self.runner.cli
        config = ("--config", self.out / "stages.json", *self.extra)
        for kind in self.kinds:
            run(unit, f"train.{kind}", "train", self.out, self.seed, "--model", kind, *config)
            run(unit, "evaluate", "evaluate", self.out, self.seed, "--model", kind, *config)
        if self.name == "train-desk":
            self.runner.run(unit, "baselines", "baselines", self.out, self.seed)

    def check(self, unit, index):
        if self.mutate:
            self.mutate(self.out)
        names = [f"{stem}_{kind}.{ext}" for kind in self.kinds
                 for stem, ext in (("train_report", "json"), ("model", "json"),
                                   ("model", "bin"), ("metrics", "json"))]
        if self.name == "train-desk":
            names.append("baselines.json")
        unit.outputs = self.artifact_digest(names)


class PaperCnn(TrainDesk):
    """train + evaluate of the paper-width cnn (the CLI default)."""

    name = "paper-cnn"
    nominal_repeat_s = 5.5
    kinds = ("cnn",)
    extra = ()


class ScalingStudy(Workload):
    """scaling-study over cnn at counts 2,4,8 with four trials, then report."""

    name = "scaling-study"
    nominal_repeat_s = 5.0

    def setup(self, unit, index):
        self.set_up_cohort(unit, index, self.sizes.scaling_subjects,
                           self.sizes.scaling_duration_s)

    def repeat(self, unit, index):
        run, s = self.runner.cli, self.sizes
        run(unit, "scaling-study", "scaling-study", self.out, self.seed, "--models", "cnn",
            "--counts", s.scaling_counts, "--trials", s.scaling_trials, "--desk-scale",
            "--config", self.out / "stages.json")
        self.study_digest = self._scaling_digest()
        run(unit, "report", "report", self.out, self.seed)

    def _scaling_digest(self):
        return digest_files((self.out / "scaling").iterdir(), self.out / "scaling")

    def check(self, unit, index):
        if self.mutate:
            self.mutate(self.out)
        unit.outputs = self.artifact_digest(["scaling/scaling_trials.json"])
        unit.outputs["scaling"] = self._scaling_digest()
        if unit.outputs["scaling"] != self.study_digest:
            raise ValueError("report re-rendered scaling/ differently from scaling-study")


WORKLOADS = {w.name: w for w in (Ingest, TrainDesk, ScalingStudy, PaperCnn)}


# --------------------------------------------------------------- one run

def _unit(work_fn, unit, index):
    unit.start_ns = time.perf_counter_ns()
    try:
        work_fn(unit, index)
    except (StageFailed, OSError, ValueError, KeyError) as exc:
        unit.error = f"{type(exc).__name__}: {exc}"
    return unit


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, mutate=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (ROOT / "src" / "ecg_har" / "cli.py").is_file():
        raise FileNotFoundError(f"no ecg_har sources under {ROOT / 'src'}")
    started = time.monotonic()
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    work = WORK_DIR / run_id
    (work / "logs").mkdir(parents=True)
    (work / "traces").mkdir()
    runner = Runner(work, trace, run_id, started + RUN_DEADLINE_S)
    workload = WORKLOADS[name](runner, seed, sizes, mutate)
    try:
        setups = []
        for index in range(SETUPS):
            unit = _unit(workload.setup, Unit(), index)
            setups.append(unit)
            if unit.error:
                break
        _agree(setups)
        repeats = []
        if not any(u.error for u in setups):
            for index in range(max(1, round(seconds / workload.nominal_repeat_s))):
                unit = _unit(workload.repeat, Unit(), index)
                if unit.error is None:
                    try:
                        workload.check(unit, index)
                    except (OSError, ValueError, KeyError) as exc:
                        unit.error = f"{type(exc).__name__}: {exc}"
                repeats.append(unit)
                if unit.error:
                    break
            _agree(repeats)
        return summarise(name, setups, repeats, trace, workload.machine, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _agree(units):
    """Outputs of one seed must be byte-identical across a run's units."""
    first = next((u.outputs for u in units if u.error is None), None)
    for unit in units:
        if unit.error is None and unit.outputs != first:
            unit.error = "outputs differ from the run's first repetition of this seed"


# --------------------------------------------------------------- metrics

def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return pct, ordered[max(0, math.ceil(pct / 100 * n) - 1)]


def _describe(name, unit, values):
    text = f"{name} [{unit}]: median {statistics.median(values):.6g} n={len(values)}"
    tail = tail_percentile(values)
    return text + (f" p{tail[0]} {tail[1]:.6g}" if tail else " (no tail percentile: n <= 10)")


def _stage_totals(unit):
    totals = {}
    for stage in unit.stages:
        totals[stage.label] = totals.get(stage.label, 0.0) + stage.seconds
    return totals


def summarise(name, setups, repeats, trace, machine, runner) -> dict:
    units = setups + repeats
    ok_setups = [u for u in setups if u.error is None]
    ok_repeats = [u for u in repeats if u.error is None]
    failed = [u for u in units if u.error]
    for unit in failed:
        print(f"FAILED {name}: {unit.error}")
    for kind, group in (("set-up", setups), ("repetition", repeats)):
        for i, unit in enumerate(group):
            stages = " ".join(f"{s.label}={s.seconds:.3f}" for s in unit.stages)
            print(f"{kind} {i}: {unit.seconds:.3f} s ({stages})")
    print("machine " + json.dumps(dict(machine or {}, blas_threads_set=runner.blas_threads,
                                       children_at_once=1), sort_keys=True))
    result = {"correct": not failed, "attempted": len(units), "failed": len(failed),
              "metrics": {}}
    if not ok_setups or not ok_repeats:
        return result
    setup_s = [u.seconds for u in ok_setups]
    wall_s = [u.seconds for u in ok_repeats]
    rss_mb = [max(s.rss_kb for s in u.stages) / 1024 for u in ok_repeats]
    print(_describe("setup_s", "s", setup_s))
    print(_describe("wall_s", "s", wall_s))
    print(_describe("peak_rss_mb", "MB", rss_mb))
    for group in (ok_setups, ok_repeats):
        for label in _stage_totals(group[0]):
            print(_describe(f"stage.{label}_s", "s", [_stage_totals(u)[label] for u in group]))
    if not trace:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "wall_s": {"value": statistics.median(wall_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
        }
        return result
    result["metrics"] = layer_metrics(ok_setups, ok_repeats)
    return result


def _raw(unit):
    raw = tracing.Raw()
    for stage in unit.stages:
        raw.add("stage", f"stage.{stage.label}_s", stage.end_ns - stage.start_ns)
        if stage.trace_path is not None and stage.trace_path.exists():
            child, t_main_ns = tracing.read_trace(stage.trace_path)
            raw.merge(child)
            raw.add("stage", "cli.import_s", t_main_ns - stage.start_ns)
    return raw


def layer_metrics(setups, repeats) -> dict:
    """The per-layer metrics of BENCHMARK.json. Each additive metric is the
    median set-up's plus the median repetition's value; ratios and per-batch
    times pool every unit of the run."""
    setup_raw = [_raw(u) for u in setups]
    repeat_raw = [_raw(u) for u in repeats]
    pooled = tracing.Raw()
    for raw in setup_raw + repeat_raw:
        pooled.merge(raw)
    metrics = {}
    for spec in json.loads(SPEC.read_text())["per_layer"]:
        metric, unit = spec["name"], spec["unit"]
        if metric == "trace.wall_s":
            value = statistics.median(u.seconds for u in repeats)
        elif metric == "trace.top_level_share":
            # child start-up to `main` plus the children's outermost spans
            covered = sum(r.get("stage", "cli.import_s") + r.get("root", "spans")
                          for r in repeat_raw)
            value = covered / sum(u.end_ns - u.start_ns for u in repeats)
        else:
            value = tracing.additive_value(pooled, metric, unit)
            if value is None:
                value = tracing.pooled_value(pooled, metric)
            else:
                value = (statistics.median(tracing.additive_value(r, metric, unit) for r in setup_raw)
                         + statistics.median(tracing.additive_value(r, metric, unit) for r in repeat_raw))
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwinds through Runner.run, which stops the running child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not result["metrics"]:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
