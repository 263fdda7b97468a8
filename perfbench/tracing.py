"""Span recording for traced benchmark runs, and what each per-layer metric should move.

A traced child process calls `install()` before it runs a pipeline stage.
That replaces the public functions of each `ecg_har` module with wrappers
that record a span (name, start, end, parent span) per call. The wrappers
are installed where the functions are looked up at call time: in the
namespace of every module that bound the name at import (`ecg_har.cli`
imports `preprocess_recording`, `load_windows`, ... directly), in the
defining module for call-time lookups (`preprocess` calls
`_filters.apply_filter`; `evaluate.scaling_study` imports `run_protocol`
inside the function), and on the class for `nn` operators and
`ModelGraph`. A wrapper on the defining module alone would record nothing
for names bound elsewhere.

Spans stay in memory and are written once, when the stage ends. The
parent process reads them back with `read_trace` and turns the sums into
per-layer metrics with `additive_value` and `pooled_value`.
"""
import json
import time

# The end-to-end metric (on which workload) that each per-layer metric of
# BENCHMARK.json should move; names and units live in BENCHMARK.json only.
# A `_s` metric of a wrapped function is its self time: the span's duration
# minus the duration of its child spans. `models.*` are total milliseconds
# per batch of 64 windows.
NN_OPS = ("Conv1d", "BatchNorm1d", "GELU", "ReLU", "MaxPool1d", "GlobalAvgPool1d",
          "Dense", "Dropout", "LayerNorm", "MultiHeadAttention", "SEBlock",
          "PositionalEncoding")
MODEL_KINDS = ("cnn", "resnet", "transformer")
BASELINE_KINDS = ("linear_svm", "random_forest", "knn", "decision_tree",
                  "logistic_regression")
STAGES = ("probe", "synth", "preprocess", "split", "train.cnn", "train.resnet",
          "train.transformer", "evaluate", "baselines", "scaling-study", "report")

_NN_MOVES = "train-desk, paper-cnn: wall_s (training and evaluate); scaling-study: wall_s; ingest: none"
MOVES = {
    "cli.import_s": "every workload: wall_s and setup_s",
    "cli.manifest_s": "ingest: wall_s (synth and preprocess stages)",
    "cli.bytes_hashed": "ingest: wall_s",
    "synth.generate_cohort_s": "ingest: wall_s; other workloads: setup_s",
    "dataset.write_cohort_dir_s": "ingest: wall_s; others: setup_s",
    "dataset.read_cohort_dir_s": "ingest: wall_s; others: setup_s",
    "dataset.save_windows_s": "ingest: wall_s",
    "dataset.load_windows_s": "train-desk, paper-cnn: wall_s, peak_rss_mb; scaling-study: wall_s",
    "dataset.cohort_arrays_s": "train-desk, paper-cnn, scaling-study: wall_s",
    "dataset.cohort_arrays_calls": "scaling-study: wall_s",
    "dataset.csv_bytes": "ingest: peak_rss_mb, wall_s",
    "dataset.windows_bytes": "ingest: peak_rss_mb",
    "filters.apply_filter_s": "ingest: wall_s (preprocess stage)",
    "resampling.resample_s": "ingest: wall_s (preprocess stage)",
    "emd.emd_s": "ingest: wall_s (preprocess stage)",
    "preprocess.preprocess_recording_s": "ingest: wall_s (preprocess stage)",
    "preprocess.recordings": "none (work done; should never move)",
    "preprocess.windows": "none (work done; should never move)",
    "emd.genuine_imf_share": "none (useful-work ratio; should never move)",
    "datamodel.cohort_s": "train-desk: wall_s, peak_rss_mb; scaling-study: wall_s",
    "datamodel.split_s": "train-desk, scaling-study: wall_s",
}
for _op in NN_OPS:
    MOVES[f"nn.{_op}.forward_s"] = MOVES[f"nn.{_op}.backward_s"] = _NN_MOVES
MOVES["nn.weighted_cross_entropy_s"] = _NN_MOVES
for _kind in MODEL_KINDS:
    _moves = f"train-desk: wall_s (train.{_kind} stage)" + (
        "; paper-cnn and scaling-study: wall_s" if _kind == "cnn" else "")
    MOVES[f"models.{_kind}.forward_ms"] = MOVES[f"models.{_kind}.backward_ms"] = _moves
    MOVES[f"models.{_kind}.eval_forward_ms"] = _moves + "; evaluate stages"
MOVES.update({
    "train.step_s": "train-desk, paper-cnn, scaling-study: wall_s",
    "train.adam_s": "train-desk, paper-cnn, scaling-study: wall_s",
    "train.checkpoint_s": "train-desk, paper-cnn: wall_s",
    "train.epoch_eval_s": "train-desk, paper-cnn, scaling-study: wall_s",
    "train.steps": "none (work done; reported alongside step_s)",
    "train.skipped_batch_share": "none (data-quality ratio)",
    "evaluate.predict_s": "train-desk, paper-cnn: wall_s (evaluate stages)",
    "evaluate.scaling_study_s": "scaling-study: wall_s",
    "evaluate.report_emit_s": "scaling-study: wall_s",
    "evaluate.trials": "none (trial trainings run; should never move)",
    "baselines.feature_matrix_s": "train-desk: wall_s (baselines stage)",
})
for _kind in BASELINE_KINDS:
    MOVES[f"baselines.fit_s.{_kind}"] = "train-desk: wall_s (baselines stage)"
    MOVES[f"baselines.predict_s.{_kind}"] = "train-desk: wall_s (baselines stage)"
for _stage in STAGES:
    MOVES[f"stage.{_stage}_s"] = ("the workload that runs this stage: wall_s, or setup_s "
                                  "for a set-up stage")
MOVES["trace.wall_s"] = "none (traced wall_s; minus untraced wall_s is the tracing overhead)"
MOVES["trace.top_level_share"] = ("none (share of wall_s covered by child start-up and "
                                  "the children's outermost spans; uninstrumented time lowers it)")
del _op, _kind, _moves, _stage


# layers whose work is running the model: their time includes the model's spans
TOTAL_TIME = ("train.epoch_eval_s", "evaluate.predict_s")


class Recorder:
    """In-memory spans of one child process plus named counters."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start_ns, end_ns, batch or None]
        self.counters = {}
        self._stack = []

    def call(self, name, fn, args, kwargs, batch=None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, 0, 0, batch]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def dump(self, path, run_id, t_main_ns):
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "t_main_ns": t_main_ns,
                       "spans": self.spans, "counters": self.counters}, fh)


def install(recorder):
    """Wrap the public functions named in MOVES where they are called."""
    from pathlib import Path

    from ecg_har import baselines, cli, datamodel, dataset, emd, evaluate, filters
    from ecg_har import models, resampling, train
    from ecg_har.nn import checkpoint, layers

    def wrap(owners, attr, name, after=None):
        original = getattr(owners[0], attr)

        def wrapper(*args, **kwargs):
            result = recorder.call(name, original, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        for owner in owners:
            setattr(owner, attr, wrapper)

    def csv_bytes(args, _result):
        recorder.count("dataset.csv_bytes",
                       sum(p.stat().st_size for p in Path(args[0]).glob("*.csv")))

    def windows_bytes(args, _result):
        recorder.count("dataset.windows_bytes", Path(args[0]).stat().st_size)

    def recording_done(_args, windows):
        recorder.count("preprocess.recordings", 1)
        recorder.count("preprocess.windows", len(windows))

    def emd_done(args, decomposition):
        recorder.count("emd.requested_imfs", args[1] if len(args) > 1 else 8)
        recorder.count("emd.genuine_imfs", decomposition.num_genuine)

    def cohort_arrays_done(_args, _result):
        recorder.count("dataset.cohort_arrays_calls", 1)

    wrap([cli], "generate_cohort", "synth.generate_cohort")
    wrap([cli], "write_cohort_dir", "dataset.write_cohort_dir", csv_bytes)
    wrap([cli], "read_cohort_dir", "dataset.read_cohort_dir", csv_bytes)
    wrap([cli], "preprocess_recording", "preprocess.preprocess_recording", recording_done)
    wrap([cli], "save_windows", "dataset.save_windows", windows_bytes)
    wrap([cli, dataset], "load_windows", "dataset.load_windows", windows_bytes)
    wrap([cli, dataset], "cohort_arrays", "dataset.cohort_arrays", cohort_arrays_done)
    wrap([cli, datamodel], "subject_split", "datamodel.split")
    wrap([cli.Manifest], "verify_input", "cli.manifest")
    wrap([cli.Manifest], "record", "cli.manifest")
    original_sha = cli._sha256_file

    def sha256_file(path):
        recorder.count("cli.bytes_hashed", Path(path).stat().st_size)
        return original_sha(path)

    cli._sha256_file = sha256_file
    wrap([filters], "apply_filter", "filters.apply_filter")
    wrap([resampling], "resample", "resampling.resample")
    wrap([emd], "emd", "emd.emd", emd_done)
    wrap([datamodel.Cohort], "__post_init__", "datamodel.cohort")
    wrap([cli, train], "run_protocol", "train.run_protocol")
    _wrap_run_stage(recorder, train)
    wrap([train], "_epoch_metrics", "train.epoch_eval")
    wrap([train], "adam_step", "train.adam")
    wrap([train], "weighted_cross_entropy", "nn.weighted_cross_entropy")
    wrap([checkpoint], "save_checkpoint", "train.checkpoint")
    wrap([evaluate], "predict", "evaluate.predict")
    wrap([cli, evaluate], "scaling_study", "evaluate.scaling_study")
    wrap([cli, evaluate], "report_emit", "evaluate.report_emit")
    wrap([baselines], "feature_matrix", "baselines.feature_matrix")
    _wrap_baselines(recorder, baselines)
    for op in NN_OPS:
        cls = getattr(layers, op)
        _wrap_method(recorder, cls, "forward", f"nn.{op}.forward")
        _wrap_method(recorder, cls, "backward", f"nn.{op}.backward")
    _wrap_model_graph(recorder, models.ModelGraph)


def _wrap_method(recorder, cls, attr, name):
    original = getattr(cls, attr)

    def method(self, *args, **kwargs):
        return recorder.call(name, original, (self, *args), kwargs)

    setattr(cls, attr, method)


def _wrap_run_stage(recorder, train):
    original = train.run_stage

    def run_stage(graph, train_x, *args, **kwargs):
        batch_size = kwargs.get("batch_size", train.BATCH_SIZE)
        # the number of batches per epoch, so skipped size-1 batches can be counted
        batches = -(-len(train_x) // batch_size)
        return recorder.call("train.run_stage", original, (graph, train_x, *args), kwargs,
                             batch=batches)

    train.run_stage = run_stage


def _wrap_baselines(recorder, baselines):
    fit, predict = baselines.fit_baseline, baselines.predict_baseline

    def fit_baseline(kind, *args, **kwargs):
        return recorder.call(f"baselines.fit.{kind}", fit, (kind, *args), kwargs)

    def predict_baseline(standardizer, model, *args, **kwargs):
        return recorder.call(f"baselines.predict.{model.name}", predict,
                             (standardizer, model, *args), kwargs)

    baselines.fit_baseline = fit_baseline
    baselines.predict_baseline = predict_baseline


def _wrap_model_graph(recorder, graph_cls):
    forward, backward = graph_cls.forward, graph_cls.backward

    def graph_forward(self, x, ctx=None, *args):
        mode = "forward" if ctx is not None and ctx.train else "eval_forward"
        call_args = (self, x) if ctx is None else (self, x, ctx, *args)
        return recorder.call(f"models.{self.name}.{mode}", forward, call_args, {},
                             batch=len(x))

    def graph_backward(self, dy):
        return recorder.call(f"models.{self.name}.backward", backward, (self, dy), {},
                             batch=len(dy))

    graph_cls.forward = graph_forward
    graph_cls.backward = graph_backward


# --------------------------------------------------------------- aggregation

def read_trace(path):
    """Raw sums of one child's trace: self and total span time, the time of
    its outermost spans, model batch sizes, counters, and the time its
    `main` was entered."""
    with open(path) as fh:
        data = json.load(fh)
    spans = data["spans"]
    child_ns = [0] * len(spans)
    for name, parent, start, end, _batch in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    raw = Raw()
    epoch_evals = {}
    for i, (name, parent, start, end, batch) in enumerate(spans):
        raw.add("total", name, end - start)
        raw.add("self", name, end - start - child_ns[i])
        if parent < 0:
            raw.add("root", "spans", end - start)
        if name.startswith("models."):
            raw.add("samples", name, batch)
        elif name == "train.run_stage":
            epoch_evals[i] = 0
        elif name == "train.epoch_eval" and parent in epoch_evals:
            epoch_evals[parent] += 1
        elif name == "train.adam":
            raw.add("count", "train.steps", 1)
        elif name == "train.run_protocol" and parent >= 0 and spans[parent][0] == "evaluate.scaling_study":
            raw.add("count", "evaluate.trials", 1)
    # the epoch-end pass runs twice (train and val) per completed epoch
    raw.add("count", "train.batches",
            sum(spans[i][4] * (n // 2) for i, n in epoch_evals.items()))
    for name, value in data["counters"].items():
        raw.add("count", name, value)
    return raw, data["t_main_ns"]


class Raw:
    """Additive per-layer sums; a run's units (set-ups, iterations) are Raws."""

    def __init__(self):
        self.sums = {}

    def add(self, kind, name, value):
        key = (kind, name)
        self.sums[key] = self.sums.get(key, 0) + value

    def get(self, kind, name):
        return self.sums.get((kind, name), 0)

    def merge(self, other):
        for (kind, name), value in other.sums.items():
            self.add(kind, name, value)


def _span_of(metric):
    """`dataset.load_windows_s` -> `dataset.load_windows`;
    `baselines.fit_s.rf` -> `baselines.fit.rf`."""
    if metric.startswith(("baselines.fit_s.", "baselines.predict_s.")):
        prefix, kind = metric.rsplit(".", 1)
        return f"{prefix[:-2]}.{kind}"
    return metric[:-2]


def additive_value(raw, metric, unit):
    """A time or count metric of one unit, or None for a ratio metric."""
    if unit == "count" or unit == "bytes":
        return raw.get("count", metric)
    if unit != "s" or metric.startswith("trace."):
        return None
    if metric == "train.step_s":
        return (raw.get("total", "train.run_stage") - raw.get("total", "train.epoch_eval")) / 1e9
    if metric.startswith(("stage.", "cli.import")):
        return raw.get("stage", metric) / 1e9
    if metric in TOTAL_TIME:
        return raw.get("total", _span_of(metric)) / 1e9
    return raw.get("self", _span_of(metric)) / 1e9


def pooled_value(raw, metric):
    """A ratio or per-batch metric over every unit of a run."""
    if metric.startswith("models."):
        span = metric[:-3]
        samples = raw.get("samples", span)
        # milliseconds per batch of 64 windows
        return raw.get("total", span) / 1e6 * 64 / samples if samples else 0.0
    if metric == "emd.genuine_imf_share":
        requested = raw.get("count", "emd.requested_imfs")
        return raw.get("count", "emd.genuine_imfs") / requested if requested else 0.0
    if metric == "train.skipped_batch_share":
        batches = raw.get("count", "train.batches")
        return (batches - raw.get("count", "train.steps")) / batches if batches else 0.0
    raise KeyError(metric)
