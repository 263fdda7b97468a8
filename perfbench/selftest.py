"""Self-test of the benchmark at a tiny size (3 subjects, 10 s recordings).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, and checks that each
metric named in BENCHMARK.json is emitted with its unit and that a
corrupted windows.bin payload counts as a failed run. Timings are not
checked.
"""
import json
import sys

import run
import tracing

TINY = run.Sizes(ingest_subjects=3, ingest_duration_s=10.0, desk_subjects=3,
                 desk_duration_s=10.0, scaling_subjects=3, scaling_duration_s=10.0,
                 scaling_counts="1,2", scaling_trials=2)


def corrupt_payload(out_dir):
    """Flip one byte in the middle of windows.bin's float32 payload."""
    path = out_dir / "windows.bin"
    data = bytearray(path.read_bytes())
    data[len(data) - len(data) // 4] ^= 0xFF
    path.write_bytes(bytes(data))


def check_metrics(result, declared, label):
    assert result["correct"], f"{label}: run not correct: {result}"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    assert set(metrics) == set(declared), f"{label}: {set(declared) ^ set(metrics)}"
    for name, unit in declared.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{label}: {name} unit"
        assert isinstance(value, (int, float)) and value == value, f"{label}: {name}={value}"


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == set(tracing.MOVES), \
        f"BENCHMARK.json per_layer differs from tracing.MOVES: {set(per_layer) ^ set(tracing.MOVES)}"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace, declared_metrics in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(name, run.DEFAULT_SEED, 0.1, trace, sizes=TINY)
            check_metrics(result, declared_metrics, f"{name} trace={int(trace)}")
            print(f"ok {name} trace={int(trace)}")
        if name != "ingest":
            # the timed stages must not leave their set-up inputs changed
            result = run.run_workload(name, run.DEFAULT_SEED, 0.1, False, sizes=TINY,
                                      mutate=corrupt_payload)
            assert not result["correct"] and result["failed"] == 1, result
    result = run.run_workload("ingest", run.DEFAULT_SEED, 0.1, False, sizes=TINY,
                              mutate=corrupt_payload)
    assert not result["correct"] and result["failed"] == 1, result
    print("ok corrupted windows.bin payload counts as a failed run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
