//! Telemetry walkthrough: meter a training run, read the metrics, and
//! catch an injected straggler.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! Runs the §7.2 ablation task twice against one [`Telemetry`] registry —
//! once clean, once under a `FaultPlan` with a crash and a preprocessing
//! stall burst — prints the Prometheus exposition of the result, and lets
//! the [`AnomalyDetector`] point at the injected faults.

use disttrain::core::{
    run_with_failure_telemetry, FaultPlan, Runtime, StallBurst, SystemKind, TrainingTask,
};
use disttrain::prelude::*;
use disttrain::simengine::{TempDir, TraceRecorder};

fn main() {
    let preset = MllmPreset::Mllm9B;
    let task = TrainingTask::ablation(preset.build(), preset.ablation_global_batch());
    let plan = task.plan(SystemKind::DistTrain).expect("orchestration");
    let iterations = 12u32;
    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, iterations),
    };

    // Clean metered run: every iteration lands in histograms, counters,
    // and clock-indexed time series.
    let telemetry = Telemetry::enabled();
    let report = runtime.run_telemetry(&mut TraceRecorder::disabled(), &telemetry);
    let clean_mean = report.mean_iter_secs();
    println!(
        "clean run: {} iterations, mean {:.2}s, MFU {:.1}%",
        report.iterations.len(),
        clean_mean,
        report.mfu() * 100.0
    );

    let snap = telemetry.snapshot();
    let iter_hist = snap.histogram_value(names::RUNTIME_ITER_TIME_SECONDS, &[]).unwrap();
    println!(
        "iter-time histogram: n={} p50={:.2}s p99={:.2}s",
        iter_hist.count,
        iter_hist.quantile(0.5),
        iter_hist.quantile(0.99)
    );

    // Fault run into a fresh registry: a crash at iteration 8 plus a
    // 2-iteration preprocessing stall burst.
    let fault = FaultPlan {
        fail_at: 8,
        checkpoint_every: 4,
        restart_overhead: SimDuration::from_secs_f64(5.0 * clean_mean),
        stall_burst: Some(StallBurst {
            from: 4,
            len: 2,
            extra: SimDuration::from_secs_f64(1.0),
        }),
    };
    let dir = TempDir::new("dt-telemetry-example").expect("mkdir");
    let faulty = Telemetry::enabled();
    run_with_failure_telemetry(
        &runtime,
        iterations,
        fault,
        &dir,
        &mut TraceRecorder::disabled(),
        &faulty,
    )
    .expect("fault run");
    drop(dir);

    // Scan the fault run's series; the clean run stays silent.
    let detector = AnomalyDetector::default();
    let scan = |t: &Telemetry| {
        let s = t.snapshot();
        detector.scan(
            &s.series_values(names::SERIES_ITER_TIME, &[]).unwrap(),
            &s.series_values(names::SERIES_MFU, &[]).unwrap(),
            &s.series_values(names::SERIES_STALL, &[]).unwrap(),
        )
    };
    assert!(scan(&telemetry).is_empty(), "clean run must stay silent");
    let anomalies = scan(&faulty);
    println!("\nanomalies in the fault run:");
    for a in &anomalies {
        println!(
            "  {:<22} iterations {}..={}  value {:.2}  baseline {:.2}",
            a.kind.name(),
            a.start_index,
            a.end_index,
            a.value,
            a.baseline
        );
    }
    assert!(!anomalies.is_empty(), "injected faults must be flagged");

    // The whole registry exports as Prometheus text (and as JSON via
    // `Snapshot::to_json` — `repro --metrics` writes both).
    println!("\nPrometheus exposition (fault run, first lines):");
    for line in faulty.snapshot().to_prometheus_text().lines().take(12) {
        println!("  {line}");
    }
}
