"""Run one mixedit benchmark workload and print one JSON result line.

    python3 mixbench/run.py --workload generate_native --seed 1 \
        --seconds 15 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` there, and writes its inputs, output trees and traces under
``.mixbench/``. ``--trace 0`` measures for ``--seconds`` with no wrappers
installed and reports the end-to-end metrics of ``BENCHMARK.json``, with
every time scaled to the reference host by the workload's gauge kernel
(``gauge.py``).
``--trace 1`` measures the first half of the time untraced and the second
half with span wrappers around the library's public functions, and
reports the per-layer metrics. Everything else goes to stderr; the result
is the last line of stdout.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # the imports below, reported on stderr

import os

# One BLAS thread. On a two-vCPU host a second BLAS thread busy-waits on
# the other vCPU, doubles the CPU time for about a fifth less wall time,
# and makes each run measure the scheduler as much as the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracing import WORK, Tracer, quantile

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs several times and setup_s takes the median. The import
# cannot be repeated in one process, so it is timed as often in fresh
# interpreters.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import mixedit.dataset, mixedit.editor, mixedit.metrics, "
                "mixedit.prompt; print(time.perf_counter() - t0)")


@dataclass
class Window:
    """What one measured window saw."""

    batch: int
    batch_seconds: list[float] = field(default_factory=list)
    # Each batch time scaled to the reference host by the gauge readings
    # taken just before and just after it.
    scaled_seconds: list[float] = field(default_factory=list)
    gauge_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    sys_s: float = 0.0
    minflt: int = 0

    @property
    def units_per_s(self) -> float:
        """Units per second of the median scaled batch: steadier than the
        mean on a shared host, where one descheduled batch would drag the
        mean."""
        if not self.scaled_seconds:
            return 0.0
        return self.batch / statistics.median(self.scaled_seconds)

    @property
    def gauge_ms(self) -> float:
        """The median gauge reading."""
        if not self.gauge_seconds:
            return 0.0
        return statistics.median(self.gauge_seconds) * 1000.0

    @property
    def wall_units_per_s(self) -> float:
        """The same from wall time, unscaled."""
        if not self.batch_seconds:
            return 0.0
        return self.batch / statistics.median(self.batch_seconds)


def fix_allocator():
    """Keep glibc's heap warm: no trimming, a fixed 32 MiB mmap threshold.

    By default glibc raises its mmap threshold to the largest mapped block
    freed so far and trims the heap top above twice that. Whether a
    record's arrays then reuse heap pages or fault in fresh ones depends on
    where the freed blocks sit, that is on the allocation history: the
    seed, the benchmark's own checks, any unrelated code change. In paired
    10-s runs of generate_native on a two-core VM, four seeds under the
    default allocator took either about 0.11 M or about 0.75 M minor
    faults, by seed, and ran at 38-53 records/s; with the heap kept warm
    they took under 1000 faults and ran at 53-61 records/s. On a VM that
    hands freed guest memory back to its host, a fresh page costs what
    the host makes it cost, so the faults also add the host's noise.

    The price: page faults are paid while the heap grows to its high-water
    mark during set-up, so ``proc.minflt_per_record`` counts only growth
    beyond that mark. A change that allocates less shows as saved CPU
    time, not as saved page faults, and one that frees and re-allocates
    more shows no extra faults. Other C libraries are left alone.
    """
    import ctypes
    import ctypes.util

    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 * 1024 * 1024)  # glibc's largest value
    mallopt(m_trim_threshold, 1 << 30)


def import_seconds(gauge, repeats) -> list[float]:
    """The library's import time in fresh interpreters, each scaled by
    the gauge readings around it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        before = gauge.read()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        elapsed = float(proc.stdout.split()[-1])
        times.append(gauge.scale(elapsed, (before + gauge.read()) / 2))
    return times


def run_batch(workload, window: Window, gauge, tracer=None):
    """One timed batch between two gauge readings, then its check. An
    exception fails every unit of the batch and is reported; it does not
    stop the run."""
    window.attempted += workload.batch
    try:
        workload.before_batch()
        before = gauge.read()
        with tracer.span(WORK) if tracer else nullcontext():
            t0 = time.perf_counter()
            out = workload.work()
            elapsed = time.perf_counter() - t0
        after = gauge.read()
        reading = (before + after) / 2
        window.batch_seconds.append(elapsed)
        window.gauge_seconds.append(reading)
        window.scaled_seconds.append(gauge.scale(elapsed, reading))
        with tracer.span("check") if tracer else nullcontext():
            window.failed += workload.check(out)
    except Exception:
        traceback.print_exc()
        window.failed += workload.batch


def measure(workload, seconds, gauge, tracer=None) -> Window:
    """Closed-loop batches until ``seconds`` have passed and the workload
    has what it reports on."""
    window = Window(workload.batch)
    workload.start_window()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while True:
        run_batch(workload, window, gauge, tracer)
        if time.perf_counter() >= deadline and workload.ready():
            break
    window.wall_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    window.cpu_s = (after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime)
    window.sys_s = after.ru_stime - before.ru_stime
    window.minflt = after.ru_minflt - before.ru_minflt
    # CPU time below wall time means the process waited (I/O, page cache
    # writeback); CPU time per batch rising with wall time, and the gauge
    # with it, means the host slowed.
    print(f"window: {len(window.batch_seconds)} batches, "
          f"{window.wall_s:.2f} s wall, {window.cpu_s - window.sys_s:.2f} s "
          f"user, {window.sys_s:.2f} s sys, {window.minflt} minflt, "
          f"gauge {window.gauge_ms:.1f} ms, "
          f"{window.wall_units_per_s:.4g} units/s wall, "
          f"{window.units_per_s:.4g} scaled", file=sys.stderr)
    return window


def end_to_end(setup_s, window: Window) -> dict:
    return {
        "setup_s": setup_s,
        "records_per_s": window.units_per_s,
        "ok_fraction": 1.0 - window.failed / window.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload, plain: Window, traced: Window, tracer,
              layer_values: dict) -> dict:
    """Per-layer numbers: self times from the traced window per unit of
    work, process counters and workload counters from the untraced one."""
    spans = tracer.summary()
    units = traced.attempted

    def ms(name):
        return spans.self_seconds(name) * 1000.0 / units

    def per_unit(value):
        return value / units

    record_ms = [d * 1000.0 for d in spans.durations("synth.record")]
    passed, checked = workload.roundtrip
    values = {
        "manifest.plan_ms_per_record": ms("manifest.plan"),
        "manifest.to_json_ms": ms("manifest.to_json"),
        "prompt.simplify_ms": ms("prompt.simplify"),
        "prompt.render_ms": ms("prompt.render"),
        "prompt.parse_ms": ms("prompt.parse"),
        "prompt.expand_ms": ms("prompt.expand"),
        "prompt.roundtrip_ok_ratio": passed / checked if checked else 0.0,
        "catalog.ingest_ms": ms("catalog.ingest"),
        "catalog.partition_ms": ms("catalog.partition"),
        "synth.record_ms_p50": quantile(record_ms, 0.5),
        "synth.record_ms_p90": quantile(record_ms, 0.9),
        "synth.synthesize_ms": ms("synth.synthesize"),
        "synth.read_wav_ms": ms("synth.read_wav"),
        "synth.write_wav_ms": ms("synth.write_wav"),
        "synth.bytes_written_per_record": 0.0,
        "synth.failed": 0,
        "dsp.condition_ms": ms("dsp.condition"),
        "dsp.clip_ms": ms("dsp.clip"),
        "dsp.clip_count_per_record": per_unit(spans.calls("dsp.clip")),
        "mixer.assign_gains_ms": ms("mixer.assign_gains"),
        "mixer.apply_gains_ms": ms("mixer.apply_gains"),
        "mixer.build_ms": ms("mixer.build"),
        "dsp.resample_ms": ms("dsp.resample"),
        "dsp.resample_calls": per_unit(spans.calls("dsp.resample")),
        "dsp.resample_in_samples": per_unit(spans.size("dsp.resample")),
        "dsp.stft_ms": ms("dsp.stft"),
        "dsp.stft_calls": per_unit(spans.calls("dsp.stft")),
        "dsp.istft_ms": ms("dsp.istft"),
        "masking.ideal_mask_ms": ms("masking.ideal_mask"),
        "masking.mask_edit_ms": ms("masking.mask_edit"),
        "masking.saturated_ratio": 0.0,
        "metrics.snr_ms": ms("metrics.snr"),
        "metrics.snri_ms": ms("metrics.snri"),
        "metrics.si_sdr_ms": ms("metrics.si_sdr"),
        "film.embed_ms": ms("film.embed"),
        "film.forward_ms": ms("film.forward"),
        "film.backward_ms": ms("film.backward"),
        "film.update_ms": ms("film.train_toy"),
        "editor.irm_records_per_s": 0.0,
        "editor.psm_records_per_s": 0.0,
        "editor.film_records_per_s": 0.0,
        "editor.irm_snri_db_p50": 0.0,
        "editor.psm_snri_db_p50": 0.0,
        "train.step_s": 0.0,
        "proc.cpu_s_per_record": plain.cpu_s / plain.attempted,
        "proc.sys_fraction": plain.sys_s / plain.cpu_s if plain.cpu_s else 0.0,
        "proc.minflt_per_record": plain.minflt / plain.attempted,
        "trace.overhead_ratio": (traced.units_per_s / plain.units_per_s
                                 if plain.units_per_s else 0.0),
        "host.gauge_ms": plain.gauge_ms,
        "host.wall_records_per_s": plain.wall_units_per_s,
    }
    unknown = set(layer_values) - set(values)
    if unknown:
        raise KeyError(f"workload reported unlisted metrics {sorted(unknown)}")
    values.update(layer_values)
    return values


def labelled(values: dict, spec: list[dict]) -> dict:
    """Attach units in BENCHMARK.json order; names must match exactly."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise KeyError(f"metrics differ from BENCHMARK.json: "
                       f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "mixedit" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not source.is_file() or not spec_path.is_file():
        print(f"error: run from a mixedit checkout; {source} or {spec_path} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text("utf-8"))

    fix_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from gauge import Gauge

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    print(f"imports {time.perf_counter() - START:.3f} s wall", file=sys.stderr)

    work_root = ROOT / ".mixbench"
    workload = workloads.make(args.workload, work_root / args.workload,
                              args.seed, args.size)
    # The gauge's own set-up is the benchmark's, not the program's.
    gauge = Gauge(workload.gauge_kernel)
    repeats = SETUP_REPEATS if args.size == "full" else 1
    imports = import_seconds(gauge, repeats)
    setups = []
    for _ in range(repeats):
        before = gauge.read()
        t0 = time.perf_counter()
        workload.set_up()
        workload.start_window()
        run_batch(workload, Window(workload.batch), gauge)  # untimed warm-up
        elapsed = time.perf_counter() - t0
        setups.append(gauge.scale(elapsed, (before + gauge.read()) / 2))
    setup_s = statistics.median(imports) + statistics.median(setups)
    print(f"{args.workload}: scaled imports {imports} s, set-up {setups} s",
          file=sys.stderr)

    if args.trace == 0:
        window = measure(workload, args.seconds, gauge)
        windows = [window]
        metrics = labelled(end_to_end(setup_s, window), spec["end_to_end"])
    else:
        plain = measure(workload, args.seconds / 2, gauge)
        layer_values = workload.layer_metrics(plain.batch_seconds)
        tracer = Tracer()
        workload.tracer = tracer
        with tracer.installed():
            traced = measure(workload, args.seconds / 2, gauge, tracer)
        workload.tracer = None
        windows = [plain, traced]
        metrics = labelled(per_layer(workload, plain, traced, tracer,
                                     layer_values), spec["per_layer"])
        tracer.write(work_root / f"trace-{args.workload}.jsonl")

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
