"""One repetition of a workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \
        --work DIR --result FILE [--setup-only] [--check-bounds]

Imports the library from ``src/`` of the checkout this file sits in, builds
the workload's inputs, signals readiness by timestamp, runs the ops one after
another through ``oneshot.cli.main`` and only then checks their outputs.  With
``--trace 1`` the tracer wraps the library for the op sequence and the result
also holds the per-layer metrics.  With ``--setup-only`` it stops once the
inputs are ready, which times one more set-up.  ``--check-bounds`` adds the
slow check that each step bound converges at 0.99 of its value; one
repetition per run makes it, and the others must repeat that repetition's
output byte for byte (its digest).  Writes one JSON result file.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, bindings, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import oneshot
    import oneshot.cli
    if Path(oneshot.__file__).resolve().parent != SRC / "oneshot":
        raise SystemExit(f"imported oneshot from {oneshot.__file__}, "
                         f"not from {SRC}")
    return oneshot


def _originals_intact(before: dict) -> bool:
    after = bindings()
    return (after.keys() == before.keys()
            and all(after[k] is before[k] for k in before)
            and not any(hasattr(v, "__wrapped__") for v in after.values()))


def _read_outputs(out_dir: str | None) -> dict[str, bytes]:
    if out_dir is None or not Path(out_dir).is_dir():
        return {}
    base = Path(out_dir)
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


def _digest(stdout: str, files: dict[str, bytes], work: Path) -> str:
    """Hash of an op's output.  The per-process work directory is replaced by
    a fixed token, so digests of one seed compare across invocations."""
    h = hashlib.sha256(stdout.replace(str(work), "<work>").encode())
    for name, data in sorted(files.items()):
        h.update(b"\0" + name.encode() + b"\0" + data)
    return h.hexdigest()


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)   # all threads
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check-bounds", action="store_true")
    args = ap.parse_args(argv)

    oneshot = _import_library()

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = workloads.SETUP[args.workload](args.seed, work)
    originals = bindings()
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"ready": time.perf_counter()}))
        shutil.rmtree(work, ignore_errors=True)
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    ready = time.perf_counter()
    cpu0 = _cpu_s()
    runs, op_times = [], []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        error = None
        op_start, op_cpu = time.perf_counter(), _cpu_s()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                # looked up on each call, so a traced run calls the wrapper
                rc = oneshot.cli.main(op.argv)
            if rc != 0:
                error = f"exit code {rc}: {err.getvalue().strip()}"
        except SystemExit as exc:
            error = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:   # a failing op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        op_times.append((time.perf_counter() - op_start, _cpu_s() - op_cpu))
        runs.append((op, out.getvalue(), error))
    wall = time.perf_counter() - ready
    cpu = _cpu_s() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans())

    results = []
    for op, stdout, error in runs:
        facts, digest = {}, None
        if error is None:
            files = _read_outputs(op.out_dir)
            digest = _digest(stdout, files, work)
            try:
                facts = workloads.check(op, stdout, files)
                if op.argv[0] == "bound" and args.check_bounds:
                    facts["sufficient"] = workloads.bound_sufficient(
                        op, facts["value"], args.seed)
                    if not facts["sufficient"]:
                        raise workloads.CheckError(
                            f"no convergence at 0.99 x bound {facts['value']!r}")
            except (workloads.CheckError, ValueError, KeyError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        results.append(workloads.OpResult(op.label, error is None, error,
                                          digest, facts))

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "originals_intact": _originals_intact(originals),
        "ops": [{"label": r.label, "ok": r.ok, "error": r.error,
                 "digest": r.digest, "wall_s": op_wall, "cpu_s": op_cpu}
                for r, (op_wall, op_cpu) in zip(results, op_times)],
        "summary": workloads.summarize(results),
        "layers": layers,
    }
    shutil.rmtree(work, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
