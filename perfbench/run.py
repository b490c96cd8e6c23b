"""mvmocap benchmark: end-to-end and per-layer metrics on seeded scenes.

    python3 perfbench/run.py --workload walk-clean --seed 7 --seconds 35 --trace 0

Run from the repository root. Set-up starts one worker process per CLI
subcommand, writes the workload's inputs and times fresh-process start-up.
Then the subcommands are called over and over until `--seconds` is used up;
every timing is a median over a command's calls. The outputs are checked,
and the last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. `--trace 0` reports the end-to-end metrics; `--trace 1`
alternates untraced and traced calls and reports the per-layer metrics
instead (see perfbench/README.md).

`attempted` counts frame operations: the frames of every timed command call.
A failed command or check prints the result with "correct": false, counts
every operation of the run as failed, and exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    REF_CPU_S, SIGMA, VIEWS, WARM_FRAMES, WORKER, WORKLOADS, CheckFailed, Worker, child_env, commands, join_chunks,
    recon_frames, recon_outputs, require,
)

# Only the standard library and `harness` are imported up front. A child's
# ru_maxrss starts from its parent's resident size at fork time, so the
# workers are started while this process is small; numpy, mvmocap and the
# generated inputs come after.

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 11
MIN_CALLS = 3
GRID_FRAMES = 10
GRID_NOISE_PX = (1, 2)
GRID_DELTA_MM = (10, 20, 60)

LOWER, HIGHER = "lower", "higher"


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref_file = ROOT / ".git" / sha[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_cap": child_env()["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(calib: Path, env: dict) -> float:
    """Median CPU time of fresh processes that import and configure mvmocap,
    at reference speed. A probe prints its CPU time at the end of set-up and
    the median CPU time of the reference kernel runs that follow."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, str(WORKER), "setup", str(calib)],
                               env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        require(probe.returncode == 0, f"set-up probe exited {probe.returncode}")
        setup_cpu, ref_cpu = map(float, probe.stdout.split())
        times.append(setup_cpu * REF_CPU_S / ref_cpu)
    return statistics.median(times)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def ms_per_frame(replies: list[dict], c) -> list[float]:
    """Each call's CPU ms/frame at reference speed."""
    return [r["cpu_s"] * REF_CPU_S / r["ref_s"] * 1e3 / c.frames for r in replies]


def raw_ms_per_frame(replies: list[dict], c) -> list[float]:
    """Each call's CPU ms/frame as measured, for the log."""
    return [r["cpu_s"] * 1e3 / c.frames for r in replies]


def ms_by_name(cmds, calls: dict, per_call=ms_per_frame) -> dict[str, float]:
    """Each subcommand's ms/frame: the median over a call site's calls,
    averaged over its call sites (the reconstruct chunks) by frames."""
    ms, frames = {}, {}
    for c in cmds:
        ms[c.name] = ms.get(c.name, 0.0) + statistics.median(per_call(calls[c.key], c)) * c.frames
        frames[c.name] = frames.get(c.name, 0) + c.frames
    return {name: ms[name] / frames[name] for name in ms}


def first_round(w, cmds, work: Path, call) -> None:
    """Calls every command once in pipeline order, joining reconstruct's chunks in between."""
    recon = [c for c in cmds if c.name == "reconstruct"]
    for c in recon:
        call(c)
    join_chunks(w, cmds, work)
    for c in cmds[len(recon):]:
        call(c)


def measure(checks, w, cmds, workers: dict, work: Path, seconds: float, trace: bool) -> dict[str, list[dict]]:
    """Call the commands until `seconds` is used up; returns each call site's replies.

    The first round calls every command once, in pipeline order. After that
    only the timed call sites run: the subcommand with the least measured
    time so far runs next, at its call site with the fewest calls, so that
    every subcommand gets about an equal share of the run however short its
    calls are. The outputs must be the
    same bytes on every call (checked by digest), so the order does not change
    what a command reads. With `trace`, each call site alternates between
    untraced and traced calls.
    """
    timed = [c for c in cmds if c.timed]
    calls: dict[str, list[dict]] = {c.key: [] for c in timed}
    sites: dict[str, list] = {}
    for c in timed:
        sites.setdefault(c.name, []).append(c)
    spent = dict.fromkeys(sites, 0.0)
    checked = {c.key: Path(c.argv[-1]) for c in timed if c.name == "reconstruct"}
    checked["retarget"] = work / "anim.jsonl"
    digests: dict[str, str] = {}

    ref_before = None

    def call(c) -> None:
        nonlocal ref_before
        if not c.timed:
            ref_before = workers[c.name].call(c.argv)["ref_cpu_s"]
            return
        traced = trace and len(calls[c.key]) % 2 == 1
        reply = workers[c.name].call(c.argv, traced)
        reply["traced"] = traced
        # The reference run just before this call, in whichever worker made it,
        # and the one just after it bracket the call's stretch of host speed.
        reply["ref_s"] = (reply["ref_cpu_s"] + (ref_before or reply["ref_cpu_s"])) / 2
        ref_before = reply["ref_cpu_s"]
        calls[c.key].append(reply)
        spent[c.name] += reply["wall_s"]
        if c.key in checked:
            digest = checks.sha256(checked[c.key])
            require(digests.setdefault(c.key, digest) == digest, f"{c.key} output differs between calls")

    min_calls = MIN_CALLS + 1 if trace else MIN_CALLS
    t_start = time.perf_counter()
    first_round(w, cmds, work, call)
    while True:
        c = next((c for c in timed if len(calls[c.key]) < min_calls), None)
        if c is None:
            c = min(sites[min(spent, key=spent.get)], key=lambda c: len(calls[c.key]))
            if time.perf_counter() - t_start + calls[c.key][-1]["wall_s"] > seconds:
                break
        call(c)
    per_name = {name: sum(len(calls[c.key]) for c in group) for name, group in sites.items()}
    print(f"calls: {json.dumps(per_name)} in {time.perf_counter() - t_start:.1f} s")
    skel = b"".join(p.read_bytes() for p in recon_outputs(cmds))
    print(f"sha256: reconstruct={hashlib.sha256(skel).hexdigest()} retarget={digests['retarget']}")
    return calls


def check_outputs(checks, w, cmds, work: Path) -> dict:
    """Checks the files the last calls wrote; returns the quality figures."""
    skel_out = [rec for p in recon_outputs(cmds) for rec in checks.read_jsonl(p)]
    checks.check_frames(skel_out, recon_frames(w, w.frames), "reconstruct output")
    skel_in = checks.read_jsonl(work / ("stream.jsonl" if w.clip_frames else "skel.jsonl"))
    anim = checks.read_jsonl(work / "anim.jsonl")
    checks.check_frames(anim, w.frames, "retarget output")
    bones_ok, bones = checks.check_transforms(anim)
    truth = checks.read_jsonl(work / "truth.jsonl")
    report = json.loads((work / "report.json").read_text(encoding="utf-8"))
    checks.check_report(report, skel_in, truth, w.frames)
    if w.noise_px == 0 and w.dropout == 0:
        bound = w.delta_mm * 3 ** 0.5 / 2  # half-diagonal of the terminal cube
        err = report["sequence_mean_3d_mm"]
        require(err <= bound, f"noiseless mean 3D error {err} mm exceeds {bound:.2f} mm")
    svgs = len(list((work / "overlay").glob("*.svg")))
    require(svgs == w.frames * VIEWS, f"render-overlay wrote {svgs} SVGs, expected {w.frames * VIEWS}")
    ok, attempted = checks.consensus(skel_out)
    per_view = list(report["per_view_2d_px"].values())
    require(len(per_view) == VIEWS, f"eval reported {len(per_view)} views")
    return {
        "consensus_rate": ok / attempted,
        "mean_3d_err_mm": report["sequence_mean_3d_mm"],
        "reproj_err_px": statistics.fmean(per_view),
        "bone_ok_rate": bones_ok / bones,
    }


def end_to_end(cmds, calls, workers, setup_s, quality) -> dict:
    ms = ms_by_name(cmds, calls)
    pipeline = {c.name for c in cmds if c.in_pipeline}
    return {
        "setup_s": (setup_s, "s", LOWER),
        "pipeline_ms_per_frame": (sum(ms[name] for name in pipeline), "ms", LOWER),
        "reconstruct_ms_per_frame": (ms["reconstruct"], "ms", LOWER),
        "retarget_ms_per_frame": (ms["retarget"], "ms", LOWER),
        "eval_ms_per_frame": (ms["eval"], "ms", LOWER),
        "overlay_ms_per_frame": (ms["render-overlay"], "ms", LOWER),
        "peak_rss_mb": (max(wk.peak_kb for wk in workers.values()) / 1024, "MB", LOWER),
        "consensus_rate": (quality["consensus_rate"], "ratio", HIGHER),
        "mean_3d_err_mm": (quality["mean_3d_err_mm"], "mm", LOWER),
        "reproj_err_px": (quality["reproj_err_px"], "px", LOWER),
        "bone_ok_rate": (quality["bone_ok_rate"], "ratio", HIGHER),
    }


def per_layer(cmds, calls, workers, grid) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced calls, plus one accounting row per subcommand.

    A per-frame figure is a call site's mean per traced call, divided by the
    frames of its subcommand and summed over the pipeline's call sites; the
    voxel figures come from reconstruct alone. Each row splits a
    subcommand's wall time into layer self times and `cli` self time.
    """
    traced = {key: [r for r in replies if r["traced"]] for key, replies in calls.items()}
    plain = {key: [r for r in replies if not r["traced"]] for key, replies in calls.items()}
    frames: dict[str, int] = {}
    for c in cmds:
        frames[c.name] = frames.get(c.name, 0) + c.frames
    pipe = [c for c in cmds if c.in_pipeline]
    recon = [c for c in cmds if c.name == "reconstruct"]

    def total(kind: str, key: str, selected=pipe) -> float:
        return sum(r["trace"][kind].get(key, 0) for c in selected for r in traced[c.key])

    def per_frame(kind: str, key: str, selected=pipe, scale: float = 1.0) -> float:
        return sum(scale * sum(r["trace"][kind].get(key, 0) for r in traced[c.key])
                   / (len(traced[c.key]) * frames[c.name]) for c in selected)

    def per_pass(key: str, selected) -> float:
        return sum(sum(r["trace"]["counts"].get(key, 0) for r in traced[c.key]) / len(traced[c.key])
                   for c in selected)

    def p50_p95(selected, key: str) -> tuple[float, float]:
        xs = [d * 1e3 for c in selected for r in traced[c.key] for d in r["trace"]["durations"][key]]
        return (statistics.median(xs), statistics.quantiles(xs, n=20)[-1]) if len(xs) > 1 else (0.0, 0.0)

    rows, cli_self = [], 0.0
    for name in frames:
        group = [c for c in cmds if c.name == name]
        wall = sum(statistics.fmean(r["wall_s"] for r in traced[c.key]) for c in group) * 1e3 / frames[name]
        layers: dict[str, float] = {}
        for c in group:
            for r in traced[c.key]:
                for key, sec in r["trace"]["self_s"].items():
                    layer = key.split(".")[0]
                    layers[layer] = layers.get(layer, 0.0) + sec * 1e3 / (len(traced[c.key]) * frames[name])
        own = wall - sum(layers.values())
        require(own >= 0.0, f"{name}: layer spans exceed the command's wall time")
        if group[0].in_pipeline:
            cli_self += own
        parts = " ".join(f"{k}={v:.3f}" for k, v in sorted(layers.items()))
        rows.append(f"  {name:15s} wall={wall:.3f} = cli={own:.3f} {parts}")

    ratio = lambda a, b: a / b if b else 0.0
    vox = lambda key: total("counts", key, recon)
    vox_ok, nodes = vox("voxel.joints_ok"), vox("voxel.nodes")
    est_p50, est_p95 = p50_p95(recon, "voxel.estimate")
    ret_p50, ret_p95 = p50_p95(pipe, "retarget.frame")
    bones = total("counts", "retarget.bones_ok") + total("counts", "retarget.bones_fell_back")
    svgs, projects = total("counts", "overlay.svgs"), total("calls", "geometry.project")
    pipeline = {c.name for c in pipe}
    pipe_ms = lambda replies: sum(ms for name, ms in ms_by_name(cmds, replies).items() if name in pipeline)
    rss = lambda name: workers[name].peak_kb / 1024
    metrics = {
        "cli.self_ms_per_frame": (cli_self, "ms"),
        "io.read_keypoints_ms_per_frame": (per_frame("self_s", "io.read_keypoints", scale=1e3), "ms"),
        "io.read_skeletons_ms_per_frame": (per_frame("self_s", "io.read_skeletons", scale=1e3), "ms"),
        "io.write_ms_per_frame": (per_frame("self_s", "io.write", scale=1e3), "ms"),
        "io.bytes_read_per_frame": (per_frame("counts", "io.bytes_read"), "B"),
        "io.bytes_written_per_frame": (per_frame("counts", "io.bytes_written"), "B"),
        "voxel.estimate_ms_p50": (est_p50, "ms"),
        "voxel.estimate_ms_p95": (est_p95, "ms"),
        "voxel.nodes_per_frame": (per_frame("counts", "voxel.nodes", recon), "count"),
        "voxel.levels_per_ok_joint": (ratio(vox("voxel.levels_ok"), vox_ok), "count"),
        "voxel.candidates_per_ok_joint": (ratio(vox("voxel.candidates_ok"), vox_ok), "count"),
        "voxel.us_per_node": (ratio(total("self_s", "voxel.estimate", recon) * 1e6, nodes), "us"),
        "voxel.useful_ratio": (ratio(vox("voxel.candidates_ok"), nodes), "ratio"),
        "voxel.joints_attempted": (per_pass("voxel.joints_attempted", recon), "count"),
        "voxel.joints_ok": (per_pass("voxel.joints_ok", recon), "count"),
        "voxel.joints_short_circuit": (per_pass("voxel.joints_short_circuit", recon), "count"),
        "retarget.frame_ms_p50": (ret_p50, "ms"),
        "retarget.frame_ms_p95": (ret_p95, "ms"),
        "retarget.us_per_bone": (ratio(total("self_s", "retarget.frame") * 1e6, bones), "us"),
        "retarget.bones_ok": (per_pass("retarget.bones_ok", pipe), "count"),
        "retarget.bones_fell_back": (per_pass("retarget.bones_fell_back", pipe), "count"),
        "metrics.err3d_ms_per_frame": (per_frame("self_s", "metrics.err3d", scale=1e3), "ms"),
        "metrics.err2d_ms_per_frame": (per_frame("self_s", "metrics.err2d", scale=1e3), "ms"),
        "geometry.project_calls_per_frame": (per_frame("calls", "geometry.project"), "count"),
        "geometry.project_us_per_call": (ratio(total("self_s", "geometry.project") * 1e6, projects), "us"),
        "overlay.render_ms_per_svg": (ratio(total("self_s", "overlay.render") * 1e3, svgs), "ms"),
        "overlay.bytes_per_svg": (ratio(total("counts", "overlay.svg_bytes"), svgs), "B"),
        "overlay.svgs_per_frame": (per_frame("counts", "overlay.svgs"), "count"),
        "rss.reconstruct_mb": (rss("reconstruct"), "MB"),
        "rss.retarget_mb": (rss("retarget"), "MB"),
        "rss.eval_mb": (rss("eval"), "MB"),
        "rss.overlay_mb": (rss("render-overlay"), "MB"),
        "trace.overhead_pct": ((pipe_ms(traced) / pipe_ms(plain) - 1.0) * 100.0, "%"),
        "repo.src_lines": (src_lines(), "lines"),
        **grid,
    }
    return metrics, rows


def noise_delta_grid(checks, scenes, worker: Worker, root: Path, seed: int) -> dict:
    """Consensus rate and mean 3D error over pixel noise x delta on a short walk."""
    out = {}
    for noise in GRID_NOISE_PX:
        scene = root / f"n{noise}px"
        scenes.write_scene(scene, GRID_FRAMES, float(noise), 0.0, seed)
        truth = checks.read_jsonl(scene / "truth.jsonl")
        for delta in GRID_DELTA_MM:
            skel_path = scene / f"d{delta}.jsonl"
            worker.call(["reconstruct", "--calib", str(scene / "calib.json"),
                         "--keypoints", str(scene / "keypoints.jsonl"), "--sigma", str(SIGMA),
                         "--delta", f"{delta}x{delta}x{delta}", "--out", str(skel_path)])
            skel = checks.read_jsonl(skel_path)
            ok, attempted = checks.consensus(skel)
            err = checks.sequence_mean_3d(skel, truth) if ok else 0.0
            out[f"voxel.grid.n{noise}px.d{delta}.consensus_rate"] = (ok / attempted, "ratio")
            out[f"voxel.grid.n{noise}px.d{delta}.err_mm"] = (err, "mm")
    return out


def run(w, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str], int]:
    env = child_env()
    work = WORK_DIR / w.name
    cmds = commands(w, work, w.frames)
    workers = {}
    try:
        for c in cmds:
            if c.name not in workers:
                workers[c.name] = Worker(ROOT, env)
        sys.path.insert(0, str(ROOT / "src"))
        import checks
        import scenes

        scenes.prepare(w, work, seed)
        setup_s = setup_seconds(work / "calib.json", env)
        first_round(w, commands(w, work / "warm", WARM_FRAMES), work / "warm",
                    lambda c: workers[c.name].call(c.argv))
        calls = measure(checks, w, cmds, workers, work, seconds, trace)
        ref_ms = statistics.median(r["ref_cpu_s"] * 1e3 for replies in calls.values() for r in replies)
        raw = ms_by_name([c for c in cmds if c.timed], calls, raw_ms_per_frame)
        raw = " ".join(f"{name}={ms:.3f}" for name, ms in raw.items())
        print(f"reference kernel: median {ref_ms:.3f} ms CPU; as measured, CPU ms/frame: {raw}")
        quality = check_outputs(checks, w, cmds, work)
        timed = [c for c in cmds if c.timed]
        attempted = sum(c.frames for c in cmds if not c.timed) + sum(len(calls[c.key]) * c.frames for c in timed)
        if not trace:
            return end_to_end(timed, calls, workers, setup_s, quality), [], attempted
        grid = noise_delta_grid(checks, scenes, workers["reconstruct"], work / "grid", seed)
        metrics, rows = per_layer(timed, calls, workers, grid)
        return metrics, rows, attempted
    finally:
        for wk in workers.values():
            wk.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    print(f"env: {json.dumps(environment())}")
    print(f"workload: {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} -- {w.why}")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    correct, failure = True, ""
    metrics, rows, attempted = {}, [], w.frames
    try:
        metrics, rows, attempted = run(w, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        correct, failure = False, str(exc)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    if rows:
        print("self time per subcommand, traced calls (ms/frame):")
        print("\n".join(rows))
    for name, (value, unit, *better) in metrics.items():
        direction = f" ({better[0]} is better)" if better else ""
        print(f"{name} = {value:.6g} {unit}{direction}")
    if not correct:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": 0 if correct else attempted,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
