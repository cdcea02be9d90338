"""Campaign benchmark: time ``python -m repro run --spec`` from spec to verdict.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload digits-loop --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload clusters-loop --seed 3 --seconds 35 --trace 1 --out res.json

Each workload is a ``CampaignSpec`` generated from ``--seed``.  Every campaign
runs in a fresh interpreter (``perfbench/child.py``) through the package's
real entry point, into a fresh runs directory under ``.perfbench-tmp/``.
Campaigns of the same spec repeat until ``--seconds`` is spent (at least
``MIN_CAMPAIGNS``); timings are reported as medians over those campaigns.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally runs
one traced campaign and prints the per-layer metrics.  Every campaign's
outputs are checked (see ``check_campaign``); a campaign failing any check
counts in ``failed``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` also writes the whole result set, stamped with the host, for
``perfbench/compare.py``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from child import LAYERS as WRAPPED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench-tmp"

MIN_CAMPAIGNS = 3
#: A campaign process that runs longer than this is killed and counted failed.
CAMPAIGN_TIMEOUT_S = 120.0
#: How long worker processes may take to exit after their campaign process.
REAP_GRACE_S = 5.0


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def _clusters_loop(seed: int) -> dict:
    return {
        "name": "clusters-loop",
        "seed": seed,
        "scenario": {"name": "gaussian-clusters"},
        "fuzzer": {"epsilon": 0.1, "queries_per_seed": 20},
        "workflow": {"test_budget_per_iteration": 500, "seeds_per_iteration": 25},
        # 8 iterations (about 1 s): 4-iteration campaigns are shorter than
        # the host's speed swings and their times split into two groups
        "stopping": {"target_pmi": 0.03, "confidence": 0.85, "max_iterations": 8},
        "policy": {"backend": "batched", "checkpoint_every": 1},
    }


def _digits_loop(seed: int) -> dict:
    return {
        "name": "digits-loop",
        "seed": seed,
        "scenario": {
            "name": "glyph-digits",
            "samples": 900,
            "image_size": 10,
            "num_classes": 8,
            "epochs": 8,
        },
        # threshold 0.2, not 0.4: every iteration then finds AEs and retrains,
        # so the phases run do not depend on the seed
        "fuzzer": {"epsilon": 0.15, "queries_per_seed": 20, "naturalness_threshold": 0.2},
        "workflow": {"test_budget_per_iteration": 400, "seeds_per_iteration": 20},
        "stopping": {"target_pmi": 0.02, "confidence": 0.85, "max_iterations": 3},
        "policy": {"backend": "batched"},
    }


def _digits_sharded(seed: int) -> dict:
    spec = _digits_loop(seed)
    spec["name"] = "digits-sharded"
    spec["policy"] = {"backend": "sharded", "num_workers": 2, "transport": "auto"}
    return spec


#: name -> (spec factory, default seed, reference workload whose fingerprint
#: must match at the same seed, or None)
WORKLOADS = {
    "clusters-loop": (_clusters_loop, 2021, None),
    "digits-loop": (_digits_loop, 7, None),
    "digits-sharded": (_digits_sharded, 7, "digits-loop"),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("campaign_s", "s"), ("peak_rss_mb", "MB"))

#: Wrapped layer names, in report order.
LAYERS = tuple(dict.fromkeys(name for name, *_ in WRAPPED))
#: The four workflow phases plus the store writes; what they leave of
#: ``campaign_s`` is ``workflow.unattributed_s``.
ATTRIBUTED = (
    "sampling.select",
    "fuzzing.fuzz",
    "retraining.retrain",
    "reliability.assess",
    "store.checkpoint.save",
    "store.registry.write",
)


def spec_seed(seed: int) -> int:
    """The campaign seed the generated spec carries (CampaignSpec needs >= 0)."""
    return seed % 2**31


# --------------------------------------------------------------------------- #
# host stamp
# --------------------------------------------------------------------------- #
def host_stamp() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "loadavg_at_start": list(os.getloadavg()),
    }


#: Stamp keys that describe the host (the load average is recorded, not compared).
STAMP_IDENTITY = ("cpu_count", "affinity", "machine", "python", "numpy", "scipy", "blas")


# --------------------------------------------------------------------------- #
# one campaign
# --------------------------------------------------------------------------- #
def _token_processes(token: str) -> list:
    """PIDs of live processes whose environment carries this campaign's token."""
    needle = f"PERFBENCH_CAMPAIGN={token}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
        except OSError:
            continue
        if needle in environ.split(b"\0"):
            found.append(int(entry.name))
    return found


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _reap(token: str) -> list:
    """Wait for leftover processes of a campaign; kill any still alive after the grace."""
    deadline = time.monotonic() + REAP_GRACE_S
    leaked = _token_processes(token)
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = _token_processes(token)
    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while _token_processes(token) and time.monotonic() < deadline + REAP_GRACE_S:
        time.sleep(0.05)
    return leaked


def fingerprint(run_dir: Path) -> dict:
    """What the campaign found: final pmi, AEs, test cases and a detections checksum."""
    import numpy as np

    report = json.loads((run_dir / "report.json").read_text())
    digest = hashlib.sha256()
    with np.load(run_dir / "detections.npz") as arrays:
        for key in sorted(arrays.files):
            value = arrays[key]
            digest.update(f"{key}:{value.dtype.str}:{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
    return {
        "final_pmi": report["final_pmi"],
        "aes": report["total_aes"],
        "test_cases": report["total_test_cases"],
        "detections_sha256": digest.hexdigest()[:16],
    }


def check_campaign(spec: dict, run_dir: Path) -> tuple:
    """Output checks of one stored run; returns (failures, fingerprint or None)."""
    failures = []
    try:
        manifest = json.loads((run_dir / "run.json").read_text())
        report = json.loads((run_dir / "report.json").read_text())
        json.loads((run_dir / "stats.json").read_text())
        final = json.loads((run_dir / "estimates.json").read_text())["final"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"stored artifacts unreadable: {exc!r}"], None
    if manifest.get("status") != "completed":
        failures.append(f"run.json status {manifest.get('status')!r}")
    budget = spec["workflow"]["test_budget_per_iteration"]
    max_iterations = spec["stopping"]["max_iterations"]
    if not 1 <= len(report["iterations"]) <= max_iterations:
        failures.append(f"{len(report['iterations'])} iterations, cap {max_iterations}")
    if report["total_test_cases"] > budget * max_iterations:
        failures.append(
            f"{report['total_test_cases']} test cases > budget {budget} x {max_iterations}"
        )
    pmi, upper = final["pmi"], final["pmi_upper"]
    if not 0.0 <= pmi <= upper <= 1.0:
        failures.append(f"pmi bounds violated: 0 <= {pmi} <= {upper} <= 1")
    if report["final_pmi"] != pmi:
        failures.append(f"report final_pmi {report['final_pmi']} != estimate pmi {pmi}")
    try:
        return failures, fingerprint(run_dir)
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"detections unreadable: {exc!r}"], None


def run_campaign(spec: dict, trace: bool, workdir: Path) -> dict:
    """Run one campaign process and check it; returns its sample record."""
    token = uuid.uuid4().hex
    cdir = workdir / token[:12]
    cdir.mkdir(parents=True)
    spec_path = cdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2, sort_keys=True))
    timings_path = cdir / "timings.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--src", str(SRC),
        "--spec", str(spec_path),
        "--runs-dir", str(cdir / "runs"),
        "--out", str(timings_path),
        "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ, PERFBENCH_CAMPAIGN=token)
    shm_before = _shm_names()
    with open(cdir / "stdout.txt", "wb") as out, open(cdir / "stderr.txt", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=str(cdir))
        try:
            status = proc.wait(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            status = proc.wait()
        except BaseException:
            # interrupted: take the campaign and its workers down with us
            proc.kill()
            proc.wait()
            _reap(token)
            raise
        t_exit = time.perf_counter()

    record = {"spec": spec["name"], "seed": spec["seed"], "traced": trace, "failures": []}
    failures = record["failures"]
    leaked = _reap(token)
    if leaked:
        failures.append(f"{len(leaked)} process(es) outlived the campaign: {leaked}")
    leaked_shm = sorted(_shm_names() - shm_before)
    if leaked_shm:
        failures.append(f"/dev/shm segments left behind: {leaked_shm}")
        for name in leaked_shm:
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass
    if status != 0:
        tail = (cdir / "stderr.txt").read_text(errors="replace")[-2000:]
        failures.append(f"exit status {status}: {tail}")
        return record
    try:
        timings = json.loads(timings_path.read_text())
    except (OSError, ValueError) as exc:
        failures.append(f"timings missing: {exc!r}")
        return record
    if timings["loop_run_entry"] is None or timings["finish_return"] is None:
        failures.append("campaign never entered OperationalTestingLoop.run or never finished")
        return record
    runs = [p for p in (cdir / "runs").iterdir() if p.is_dir()]
    if len(runs) != 1:
        failures.append(f"expected one stored run, found {len(runs)}")
        return record
    checks, fp = check_campaign(spec, runs[0])
    failures.extend(checks)
    record.update(
        fingerprint=fp,
        wall_s=t_exit - t_spawn,
        setup_s=timings["loop_run_entry"] - t_spawn,
        campaign_s=timings["finish_return"] - timings["loop_run_entry"],
        peak_rss_mb=timings["maxrss_kb"] / 1024.0,
        import_s=timings["import_s"],
        stats=json.loads((runs[0] / "stats.json").read_text()),
    )
    if trace:
        record["spans"] = timings["spans"]
        record["wrapped_functions"] = timings["wrapped_functions"]
        record["window"] = (timings["loop_run_entry"], timings["finish_return"])
    return record


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def summarize(values: list) -> dict:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n}
    for pct in (99.9, 99, 95, 90, 75):
        if n * (1 - pct / 100.0) >= 10:
            summary[f"p{pct:g}"] = ordered[math.ceil(pct / 100.0 * n) - 1]
            break
    return summary


def layer_metrics(record: dict, untraced_campaign_s: float) -> dict:
    """Per-layer calls/total/self times of one traced campaign."""
    spans = record["spans"]
    start, end = record["window"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    metrics = {}
    for name in LAYERS:
        mine = [i for i, s in enumerate(spans) if s["name"] == name]
        total = sum(spans[i]["end"] - spans[i]["start"] for i in mine)
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (total - sum(child_time[i] for i in mine), "s")
    metrics["op.density.rows"] = (
        sum(s.get("rows", 0) for s in spans if s["name"] == "op.density"), "count"
    )

    def outermost(index: int) -> bool:
        parent = spans[index]["parent"]
        while parent is not None:
            if spans[parent]["name"] in ATTRIBUTED:
                return False
            parent = spans[parent]["parent"]
        return True

    attributed = sum(
        s["end"] - s["start"]
        for i, s in enumerate(spans)
        if s["name"] in ATTRIBUTED and start <= s["start"] <= end and outermost(i)
    )
    metrics["workflow.unattributed_s"] = (record["campaign_s"] - attributed, "s")
    metrics["trace.overhead_s"] = (record["campaign_s"] - untraced_campaign_s, "s")
    metrics["startup.import_s"] = (record["import_s"], "s")
    fp = record["fingerprint"]
    metrics["fuzzing.aes_per_test"] = (fp["aes"] / max(fp["test_cases"], 1), "ratio")
    stats = record["stats"]
    rows = stats["rows_queried"]
    metrics["engine.rows_queried"] = (rows, "count")
    metrics["engine.model_calls"] = (stats["model_calls"], "count")
    metrics["engine.cache_hit_ratio"] = (stats["cache_hits"] / rows if rows else 0.0, "ratio")
    metrics["engine.shard_retries"] = (stats["shard_retries"], "count")
    metrics["engine.degraded_shards"] = (stats["degraded_shards"], "count")
    return metrics


# --------------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------------- #
def _fp_text(fp) -> str:
    if fp is None:
        return "none"
    return (f"pmi={fp['final_pmi']!r} aes={fp['aes']} tests={fp['test_cases']} "
            f"detections={fp['detections_sha256']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark for python -m repro run.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="time spent repeating the campaign")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the result set as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    factory, default_seed, reference = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    spec = factory(spec_seed(seed))
    stamp = host_stamp()
    TMP.mkdir(exist_ok=True)
    workdir = TMP / f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    try:
        samples = []
        began = time.perf_counter()
        while True:
            samples.append(run_campaign(spec, False, workdir))
            walls = [s["wall_s"] for s in samples if "wall_s" in s]
            elapsed = time.perf_counter() - began
            expected = statistics.median(walls) if walls else 0.0
            if len(samples) >= MIN_CAMPAIGNS and elapsed + expected > args.seconds:
                break
        traced = run_campaign(spec, True, workdir) if args.trace else None
        ref = run_campaign(WORKLOADS[reference][0](spec_seed(seed)), False, workdir) \
            if reference else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    # cross-campaign checks: the campaign is deterministic, tracing changes
    # no result, and the reference backend finds exactly the same
    prints = {json.dumps(s.get("fingerprint"), sort_keys=True) for s in samples}
    expected_fp = samples[0].get("fingerprint")
    if len(prints) != 1:
        for s in samples:
            s["failures"].append("fingerprint differs between repeats of one spec")
    if traced is not None and traced.get("fingerprint") != expected_fp:
        traced["failures"].append("traced fingerprint differs from untraced")
    if ref is not None and ref.get("fingerprint") != expected_fp:
        for s in samples:
            s["failures"].append(
                f"fingerprint differs from {reference}: {_fp_text(ref.get('fingerprint'))}"
            )
    everything = samples + [r for r in (traced, ref) if r is not None]
    attempted = len(everything)
    failed = sum(1 for r in everything if r["failures"])

    print(f"workload {args.workload}  seed {seed}  campaign seed {spec['seed']}  "
          f"campaigns {len(samples)} untraced"
          + (" + 1 traced" if traced else "") + (f" + 1 {reference}" if ref else ""))
    print("host " + json.dumps(stamp, sort_keys=True))
    for r in everything:
        tag = "traced" if r["traced"] else r["spec"]
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"  {tag:<16} fingerprint {_fp_text(r.get('fingerprint'))}  {status}")

    ok = [s for s in samples if "wall_s" in s]
    summaries = {name: summarize([s[name] for s in ok]) for name, _ in END_TO_END} if ok else {}
    metrics, layers = {}, {}
    for name, unit in END_TO_END:
        if name in summaries:
            summary = summaries[name]
            extra = "".join(f"  {k} {v:.4f}" for k, v in summary.items()
                            if k.startswith("p"))
            print(f"  {name:<12} {summary['median']:.4f} {unit}  (median of n={summary['n']}"
                  f"{extra})")
            metrics[name] = {"value": summary["median"], "unit": unit}
    print(f"  {'error_rate':<12} {failed / attempted:.4f}  ({failed} of {attempted} "
          "campaigns failed a check)")

    if traced is not None and "spans" in traced and "campaign_s" in summaries:
        layers = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(
                traced, summaries["campaign_s"]["median"]
            ).items()
        }
        print(f"traced campaign: campaign_s {traced['campaign_s']:.4f} s, "
              f"{traced['wrapped_functions']} functions wrapped, {len(traced['spans'])} spans")
        if args.workload == "digits-sharded":
            print("  note: worker-side calls are invisible from outside; engine self "
                  "time includes waiting for workers")
        for name, metric in layers.items():
            print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")

    if args.out:
        result = {
            "workload": args.workload,
            "seed": seed,
            "spec": spec,
            "host": stamp,
            "attempted": attempted,
            "failed": failed,
            "summaries": summaries,
            "metrics": metrics,
            "layers": layers,
            "campaigns": [
                {k: v for k, v in r.items() if k not in ("spans", "window")}
                for r in everything
            ],
        }
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))

    reported = layers if args.trace else metrics
    correct = failed == 0 and bool(reported)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
