"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values.

Criterion 3 sweeps the terminal cube size over a factor of six and checks
three trends: node counts strictly decrease, wall times of the searches
(summed per-frame bests of several interleaved passes) decrease with at
most one inversion, and the noiseless mean 3D error stays flat (largest
over smallest below 2x).
"""

import time

import numpy as np
from oracles import dlt_triangulate, joint_ok, spin_correct

from mvmocap.cli import main
from mvmocap.geometry import project
from mvmocap.metrics import avg_2d_err, mean_abs_3d_err, sequence_mean
from mvmocap.retarget import retarget_frame
from mvmocap.skeleton import (
    BONES,
    DETECTED_JOINTS,
    FRAME_ROTATION,
    JOINT_NAMES,
    STATUS_OK,
    T_POSE,
    Skeleton3D,
)
from mvmocap.mathutil import rotation_about_axis
from mvmocap.synth import generate_scene, render_observations
from mvmocap.voxel import Cube, EstimatorConfig, estimate_joint, estimate_skeleton

TERMINAL_BOUND_MM = np.sqrt(3) * 10.0 / 2.0  # 8.66 mm: half-diagonal of a 10 mm cube
TIMING_ROUNDS = 7  # criterion 3: passes per (frame, delta), the fastest counts


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def observe(point, cameras, rng=None, noise=0.0):
    """(V, 3) detection table of one point in cameras, which are in ascending id order."""
    table = np.ones((len(cameras), 3))
    for r, cam in enumerate(cameras):
        table[r, :2] = project(point, cam)
        if noise > 0.0:
            table[r, :2] += rng.normal(0.0, noise, size=2)
    return table


def test_criterion_1_noiseless_end_to_end_accuracy():
    start = time.perf_counter()
    scene = generate_scene("walk", frames=100, noise_px=0.0, dropout=0.0, seed=100)
    frames = render_observations(scene)
    config = EstimatorConfig(sigma=4, delta=(10.0, 10.0, 10.0))
    per_frame = []
    for frame, truth in zip(frames, scene.truth):
        skel = estimate_skeleton(frame, scene.cameras, config)
        per_frame.append(mean_abs_3d_err(skel, truth))
    mean_err = sequence_mean(per_frame)
    elapsed = time.perf_counter() - start
    ok = mean_err <= TERMINAL_BOUND_MM and elapsed < 60.0
    assert report(
        "1 (noiseless end-to-end)",
        ok,
        f"sequence mean {mean_err:.3f} mm (bound {TERMINAL_BOUND_MM:.2f}), runtime {elapsed:.1f} s (bound 60)",
    )


def test_criterion_2_oracle_equivalence():
    cameras = generate_scene("tpose-static", frames=1).cameras
    config = EstimatorConfig(sigma=4, delta=(10.0, 10.0, 10.0))
    rng = np.random.default_rng(200)

    worst_gap = 0.0
    for _ in range(200):
        point = rng.uniform(-700, 700, size=3)
        est = estimate_joint(observe(point, cameras), cameras, config)
        assert est.status == STATUS_OK
        worst_gap = max(worst_gap, float(np.linalg.norm(est.position - dlt_triangulate(observe(point, cameras)[:, :2], cameras))))
    noiseless_ok = worst_gap <= 2.0 * max(config.delta)

    voxel_errs, dlt_errs = [], []
    trials = 2000
    for _ in range(trials):
        point = rng.uniform(-700, 700, size=3)
        obs = observe(point, cameras, rng=rng, noise=2.0)
        est = estimate_joint(obs, cameras, config)
        if est.status != STATUS_OK:
            continue
        voxel_errs.append(float(np.linalg.norm(est.position - point)))
        dlt_errs.append(float(np.linalg.norm(dlt_triangulate(obs[:, :2], cameras) - point)))
    ratio = np.mean(voxel_errs) / np.mean(dlt_errs)
    noisy_ok = ratio <= 1.5
    assert report(
        "2 (oracle equivalence)",
        noiseless_ok and noisy_ok,
        f"noiseless max |voxel-DLT| {worst_gap:.2f} mm (bound 20); 2 px noise ratio {ratio:.3f} "
        f"(bound 1.5) over {len(voxel_errs)}/{trials} consensus trials",
    )


def test_criterion_3_delta_sweep_trend():
    scene = generate_scene("walk", frames=12, noise_px=0.0, dropout=0.0, seed=300)
    frames = render_observations(scene)
    volume = Cube(center=np.zeros(3), edges=(3000.0, 3000.0, 3000.0))

    deltas = (5.0, 10.0, 20.0, 30.0)
    configs = [EstimatorConfig(sigma=4, delta=(d,) * 3, initial_volume=volume) for d in deltas]
    # Each joint's (V, 3) column of its frame's table; synth lists the views in ascending id order.
    observations = [[frame.table[:, idx] for idx in DETECTED_JOINTS] for frame in frames]

    # A delta's wall time is that of its estimate_joint calls alone. The
    # deltas take turns frame by frame, and each (frame, delta) counts with
    # its fastest of TIMING_ROUNDS passes, so the trend compares the
    # estimator's cost rather than the host's load while one delta ran. The
    # searches are deterministic: node counts and errors come from the first
    # pass.
    best = np.full((len(frames), len(deltas)), np.inf)
    nodes = [0] * len(deltas)
    per_frame = [[] for _ in deltas]
    for round_ in range(TIMING_ROUNDS):
        for f, (frame, truth, frame_obs) in enumerate(zip(frames, scene.truth, observations)):
            for i, config in enumerate(configs):
                start = time.perf_counter()
                estimates = [estimate_joint(obs, scene.cameras, config) for obs in frame_obs]
                best[f, i] = min(best[f, i], time.perf_counter() - start)
                if round_ == 0:
                    nodes[i] += sum(est.nodes_visited for est in estimates)
                    positions = {idx: est.position for idx, est in zip(DETECTED_JOINTS, estimates) if est.status == STATUS_OK}
                    per_frame[i].append(mean_abs_3d_err(Skeleton3D(frame.frame, positions), truth))
    times = best.sum(axis=0).tolist()
    errors = [sequence_mean(e) for e in per_frame]

    nodes_ok = all(a > b for a, b in zip(nodes, nodes[1:]))
    time_inversions = sum(1 for a, b in zip(times, times[1:]) if a <= b)
    time_ok = time_inversions <= 1
    err_spread = max(errors) / min(errors)
    err_ok = err_spread < 2.0
    detail = (
        f"nodes {nodes} strictly decreasing={nodes_ok}; wall times "
        f"{[f'{t:.2f}s' for t in times]} inversions={time_inversions} (allowed 1); "
        f"errors {[f'{e:.2f}' for e in errors]} mm spread {err_spread:.2f}x (bound 2x)"
    )
    assert report("3 (delta sweep trend)", nodes_ok and time_ok and err_ok, detail)


def test_criterion_4_reprojection_bound():
    scene = generate_scene("walk", frames=30, noise_px=2.0, dropout=0.0, seed=400)
    frames = render_observations(scene)
    # Cube size matched to the 2 px detector noise, as the stop-condition
    # design requires: tolerance to detection error enters only through it.
    config = EstimatorConfig(sigma=4, delta=(30.0, 30.0, 30.0))

    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for frame in frames:
        skel = estimate_skeleton(frame, scene.cameras, config)
        points = np.full((len(DETECTED_JOINTS), 3), np.nan)
        for idx in DETECTED_JOINTS:
            if joint_ok(skel, idx):
                points[idx] = skel.positions[idx]
        detected = {view_id: frame.table[r, :, :2] for r, view_id in enumerate(frame.view_ids)}
        reprojected = {cam.id: project(points, cam) for cam in scene.cameras}
        for view, err in avg_2d_err(detected, reprojected).items():
            sums[view] = sums.get(view, 0.0) + err
            counts[view] = counts.get(view, 0) + 1

    per_view = {v: sums[v] / counts[v] for v in sums}
    bound = 0.02 * 1920.0  # 38.4 px
    worst = max(per_view.values())
    ok = len(per_view) == 5 and worst <= bound
    assert report(
        "4 (reprojection bound)",
        ok,
        f"per-view Avg 2D Err {[f'{per_view[v]:.2f}' for v in sorted(per_view)]} px, "
        f"worst {worst:.2f} <= {bound} px (margin {bound / worst:.1f}x)",
    )


def test_criterion_5_rotation_invariants():
    rng = np.random.default_rng(500)
    joint_ids = sorted(JOINT_NAMES)

    rotations = []
    checked = 0
    while checked < 100_000:
        positions = {i: rng.uniform(-800, 800, size=3) for i in joint_ids}
        tset = retarget_frame(Skeleton3D(0, positions))
        for T in tset.transforms.values():
            assert np.array_equal(T[:3, 3], np.zeros(3))
            assert np.array_equal(T[3], [0.0, 0.0, 0.0, 1.0])
            rotations.append(T[:3, :3])
        checked += len(tset.transforms)

    R = np.stack(rotations)
    gram_err = float(np.max(np.abs(np.einsum("nij,nkj->nik", R, R) - np.eye(3))))
    det_err = float(np.max(np.abs(np.linalg.det(R) - 1.0)))
    ok = gram_err <= 1e-9 and det_err <= 1e-9
    assert report(
        "5 (rotation invariants)",
        ok,
        f"{checked} rotations: max |R R^T - I| {gram_err:.2e}, max |det-1| {det_err:.2e} (bounds 1e-9); "
        "translations exactly zero",
    )


def test_criterion_6_fk_round_trip():
    worst_dir = 0.0
    for preset in ("walk", "wave", "squat"):
        scene = generate_scene(preset, frames=15, seed=600)
        for truth in scene.truth:
            tset = retarget_frame(truth)
            for bone in BONES:
                observed = truth.positions[bone.child_joint] - truth.positions[bone.parent_joint]
                observed = observed / np.linalg.norm(observed)
                fk = tset.rotation(bone.name) @ FRAME_ROTATION[bone.frame_class][:, 0]
                worst_dir = max(worst_dir, float(np.linalg.norm(fk - observed)))

    tpose = Skeleton3D(0, T_POSE)
    tset = retarget_frame(tpose)
    worst_identity = max(float(np.max(np.abs(T[:3, :3] - np.eye(3)))) for T in tset.transforms.values())

    ok = worst_dir <= 1e-6 and worst_identity <= 1e-9
    assert report(
        "6 (FK round trip)",
        ok,
        f"worst direction residual {worst_dir:.2e} (bound 1e-6); T-pose identity residual {worst_identity:.2e} (bound 1e-9)",
    )


def test_criterion_7_spin_injection_recovery():
    rng = np.random.default_rng(700)

    worst = 0.0
    cases = 0
    # Animated poses: roll each bone's corrected local frame about its own axis.
    for preset in ("walk", "squat"):
        scene = generate_scene(preset, frames=10, seed=701)
        for truth in scene.truth:
            tset = retarget_frame(truth)
            for bone in BONES:
                rc = FRAME_ROTATION[bone.frame_class]
                local = rc.T @ tset.rotation(bone.name) @ rc
                if bone.parent_bone is None:
                    parent_local = np.eye(3)
                else:
                    parent_local = rc.T @ tset.rotation(bone.parent_bone) @ rc
                if np.linalg.norm(np.cross(local[:, 0], parent_local[:, 1])) < 1e-6:
                    continue  # no reference plane: roll is unobservable here
                roll = rng.uniform(-np.pi + 1e-9, np.pi - 1e-9)
                spun = rotation_about_axis(local[:, 0], roll) @ local
                recovered = spin_correct(spun, parent_local)
                worst = max(worst, float(np.linalg.norm(recovered - local)))
                cases += 1

    # Pure random frames for coverage of the whole rotation group.
    for _ in range(3000):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        y_ref = rng.normal(size=3)
        y_ref /= np.linalg.norm(y_ref)
        n = np.cross(x, y_ref)
        if np.linalg.norm(n) < 1e-3:
            continue
        n /= np.linalg.norm(n)
        parent = np.column_stack([np.cross(y_ref, n), y_ref, n])
        y0 = np.cross(n, x)
        clean = np.column_stack([x, y0, np.cross(x, y0)])
        roll = rng.uniform(-np.pi + 1e-9, np.pi - 1e-9)
        spun = rotation_about_axis(x, roll) @ clean
        recovered = spin_correct(spun, parent)
        worst = max(worst, float(np.linalg.norm(recovered - clean)))
        cases += 1

    ok = worst <= 1e-7
    assert report("7 (spin inject/recover)", ok, f"{cases} injections, worst matrix distance {worst:.2e} (bound 1e-7)")


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(800)

    a = Skeleton3D(0, {0: np.zeros(3)})
    b = Skeleton3D(0, {0: np.array([3.0, 4.0, 0.0])})
    exact_345 = mean_abs_3d_err(a, b) == 5.0
    exact_6810 = avg_2d_err({0: np.zeros((1, 2))}, {0: np.array([[6.0, 8.0]])}) == {0: 10.0}

    worst_3d = 0.0
    worst_2d = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 16))
        pa = {i: rng.uniform(-1000, 1000, size=3) for i in range(n)}
        pb = {i: rng.uniform(-1000, 1000, size=3) for i in range(n)}
        oracle = sum(float(np.linalg.norm(pa[i] - pb[i])) for i in range(n)) / n
        got = mean_abs_3d_err(Skeleton3D(0, pa), Skeleton3D(0, pb))
        worst_3d = max(worst_3d, abs(got - oracle))

        det = {0: rng.uniform(0, 1920, size=(n, 2))}
        rep = {0: rng.uniform(0, 1920, size=(n, 2))}
        oracle2 = sum(float(np.linalg.norm(det[0][i] - rep[0][i])) for i in range(n)) / n
        worst_2d = max(worst_2d, abs(avg_2d_err(det, rep)[0] - oracle2))

    ok = exact_345 and exact_6810 and worst_3d <= 1e-12 and worst_2d <= 1e-12
    assert report(
        "8 (metric oracles)",
        ok,
        f"3-4-5 exact={exact_345}, 6-8-10 exact={exact_6810}, worst loop-oracle gaps {worst_3d:.1e}/{worst_2d:.1e} (bound 1e-12)",
    )


def test_criterion_9_seeded_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        scene = base / "scene"
        args_common = ["--noise", "1.0", "--dropout", "0.1", "--seed", "42"]
        assert main(["synth", "--preset", "walk", "--frames", "10", *args_common, "--out", str(scene)]) == 0
        assert main([
            "reconstruct", "--calib", str(scene / "calib.json"),
            "--keypoints", str(scene / "keypoints.jsonl"), "--out", str(base / "skel.jsonl"),
        ]) == 0
        assert main(["retarget", "--skeleton", str(base / "skel.jsonl"), "--out", str(base / "anim.jsonl")]) == 0
        assert main([
            "eval", "--skeleton", str(base / "skel.jsonl"), "--truth", str(scene / "truth.jsonl"),
            "--calib", str(scene / "calib.json"), "--keypoints", str(scene / "keypoints.jsonl"),
            "--out", str(base / "report"),
        ]) == 0
        outputs.append({
            name: (base / name).read_bytes() if (base / name).exists() else (scene / name).read_bytes()
            for name in ("calib.json", "keypoints.jsonl", "truth.jsonl", "skel.jsonl", "anim.jsonl", "report.json", "report.csv")
        })

    mismatched = [name for name in outputs[0] if outputs[0][name] != outputs[1][name]]
    ok = not mismatched
    assert report("9 (seeded determinism)", ok, f"byte-identical outputs={ok}" + (f", mismatches: {mismatched}" if mismatched else ""))
