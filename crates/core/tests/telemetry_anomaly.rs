//! Acceptance gate for the anomaly detector: against *injected* faults
//! from `disttrain_core::fault`, the detector must flag the crash's
//! straggler iteration and the injected preprocessing-stall burst — and
//! must stay silent on the clean run of the same seed.

use disttrain_core::{
    run_with_failure_telemetry, FaultPlan, Runtime, RuntimeConfig, StallBurst, SystemKind,
    TrainingTask,
};
use dt_model::MllmPreset;
use dt_simengine::{SimDuration, TempDir, TraceRecorder};
use dt_telemetry::{names, AnomalyDetector, AnomalyKind, Telemetry};

const ITERS: u32 = 12;

fn task_runtime(task: &TrainingTask) -> Runtime<'_> {
    let plan = task.plan(SystemKind::DistTrain).expect("plan");
    Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: RuntimeConfig::disttrain(32, ITERS),
    }
}

fn tempdir(tag: &str) -> TempDir {
    TempDir::new(&format!("dt-anomaly-{tag}")).unwrap()
}

#[test]
fn injected_faults_are_flagged_and_the_clean_run_is_silent() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let runtime = task_runtime(&task);
    let detector = AnomalyDetector::default();

    // Clean run, same seed: zero anomalies of any kind.
    let clean_tel = Telemetry::enabled();
    let clean = runtime.run_telemetry(&mut TraceRecorder::disabled(), &clean_tel);
    let clean_snap = clean_tel.snapshot();
    let clean_iter = clean_snap.series_values(names::SERIES_ITER_TIME, &[]).unwrap();
    let clean_mfu = clean_snap.series_values(names::SERIES_MFU, &[]).unwrap();
    let clean_stall = clean_snap.series_values(names::SERIES_STALL, &[]).unwrap();
    assert_eq!(clean_iter.len(), ITERS as usize);
    let false_positives = detector.scan(&clean_iter, &clean_mfu, &clean_stall);
    assert!(
        false_positives.is_empty(),
        "clean run must produce zero anomalies, got {false_positives:?}"
    );

    // Fault run, same seed: a crash at iteration 8 (the restart overhead
    // sized off the measured clean iteration time so the spike is a real
    // straggler, not a tuned constant) plus a stall burst at 4–5.
    let mean_iter = clean.mean_iter_secs();
    let fault = FaultPlan {
        fail_at: 8,
        checkpoint_every: 4,
        restart_overhead: SimDuration::from_secs_f64(5.0 * mean_iter),
        stall_burst: Some(StallBurst {
            from: 4,
            len: 2,
            extra: SimDuration::from_secs_f64(1.0),
        }),
    };
    let dir = tempdir("flags");
    let fault_tel = Telemetry::enabled();
    let outcome = run_with_failure_telemetry(
        &runtime,
        ITERS,
        fault,
        &dir,
        &mut TraceRecorder::disabled(),
        &fault_tel,
    )
    .unwrap();
    assert_eq!(outcome.report.iterations.len(), ITERS as usize);

    let snap = fault_tel.snapshot();
    let iter_times = snap.series_values(names::SERIES_ITER_TIME, &[]).unwrap();
    let mfu = snap.series_values(names::SERIES_MFU, &[]).unwrap();
    let stalls = snap.series_values(names::SERIES_STALL, &[]).unwrap();
    let found = detector.scan(&iter_times, &mfu, &stalls);

    // The crash's lost wall (half an iteration + 5× restart) must be
    // flagged as a straggler iteration. The burst-inflated iterations may
    // legitimately also be flagged, so pick the tallest spike.
    let straggler = found
        .iter()
        .filter(|a| a.kind == AnomalyKind::StragglerIteration)
        .max_by(|a, b| a.value.total_cmp(&b.value))
        .expect("crash spike must be flagged as a straggler");
    assert!(
        straggler.value > 4.0 * straggler.baseline,
        "straggler {:.2}s vs baseline {:.2}s",
        straggler.value,
        straggler.baseline
    );
    // …and the injected stall burst as a preprocessing-stall burst.
    let burst = found
        .iter()
        .find(|a| a.kind == AnomalyKind::PreprocessStallBurst)
        .expect("injected stall burst must be flagged");
    assert!(burst.end_index > burst.start_index, "a burst spans ≥ 2 points");
    assert!(burst.value > 0.9, "burst peak carries the injected ~1s stall");

    // Fault counters track the machinery.
    assert_eq!(snap.counter_value(names::FAULT_CRASHES_TOTAL, &[]), Some(1));
    assert!(snap.counter_value(names::FAULT_CHECKPOINTS_TOTAL, &[]).unwrap() >= 2);
}

#[test]
fn telemetry_does_not_perturb_the_training_result() {
    let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
    let runtime = task_runtime(&task);
    let plain = runtime.run();
    let tel = Telemetry::enabled();
    let metered = runtime.run_telemetry(&mut TraceRecorder::disabled(), &tel);
    assert_eq!(plain.mean_iter_secs(), metered.mean_iter_secs());
    assert_eq!(plain.mfu(), metered.mfu());
    // Pipeline families exist per stage with nonzero counts.
    let snap = tel.snapshot();
    let modules = runtime.stage_modules();
    for (stage, module) in modules.iter().enumerate() {
        let stage_label = stage.to_string();
        let h = snap
            .histogram_value(
                names::PIPELINE_STAGE_COMPUTE_SECONDS,
                &[("stage", stage_label.as_str()), ("module", module.as_str())],
            )
            .expect("per-stage compute histogram");
        assert!(h.count > 0);
    }
    assert_eq!(
        snap.counter_value(names::RUNTIME_ITERATIONS_TOTAL, &[]),
        Some(ITERS as u64)
    );
}
