"""One benchmark child process: a CLI stage, the baseline step, or the probe.

    python3 perfbench/stage.py cli <ecg-har arguments...>
    python3 perfbench/stage.py baselines <output dir> <seed>
    python3 perfbench/stage.py probe

The parent runs exactly this entry point in traced and untraced runs. When
PERFBENCH_TRACE names a file, the stage installs the tracing wrappers first
and writes its spans there when it ends.
"""
import json
import os
import sys
import time


def _baselines(out_dir, seed):
    """Fit and predict the five classical baselines on the split's subjects.

    The baselines have no CLI stage; this is the library path a user takes.
    """
    from pathlib import Path

    import numpy as np

    from ecg_har import baselines
    from ecg_har.datamodel import Cohort, SplitSpec
    from ecg_har.dataset import cohort_arrays, load_windows
    from ecg_har.evaluate import confusion, metrics

    out = Path(out_dir)
    cohort = Cohort(load_windows(out / "windows.bin"))
    split = SplitSpec.from_json((out / "split.json").read_text())
    train_x, train_y = cohort_arrays(cohort, split.train_subjects)
    hold_x, hold_y = cohort_arrays(cohort, split.holdout_subjects)
    results = {}
    for kind in sorted(baselines.BASELINE_KINDS):
        scaler, model = baselines.fit_baseline(kind, train_x, train_y, seed=seed)
        predicted = baselines.predict_baseline(scaler, model, hold_x)
        report = metrics(confusion(hold_y, predicted))
        results[kind] = {"accuracy": report.accuracy, "macro_f1": report.macro_f1,
                         "predictions": np.asarray(predicted).tolist()}
    (out / "baselines.json").write_text(json.dumps(results, sort_keys=True) + "\n")
    return 0


def _probe():
    """Print the machine record: cores, versions, BLAS vendor and threads."""
    import ctypes
    import glob
    import platform

    import numpy
    import scipy

    import ecg_har.cli  # noqa: F401 - the import every stage pays

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    print(json.dumps(record, sort_keys=True))
    return 0


def main(argv):
    trace_path = os.environ.get("PERFBENCH_TRACE")
    recorder = None
    if trace_path:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        from ecg_har.cli import main as cli_main

        run = lambda: cli_main(args)  # noqa: E731
    elif mode == "baselines":
        import ecg_har.baselines  # noqa: F401 - imported before main, as the CLI is

        run = lambda: _baselines(args[0], int(args[1]))  # noqa: E731
    elif mode == "probe":
        run = _probe
    else:
        print(f"unknown stage mode {mode!r}", file=sys.stderr)
        return 2
    t_main_ns = time.perf_counter_ns()
    try:
        return run()
    finally:
        if recorder is not None:
            recorder.dump(trace_path, os.environ.get("PERFBENCH_RUN_ID", ""), t_main_ns)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
