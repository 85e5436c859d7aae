//! Failure injection and automatic recovery (§3, §6).
//!
//! "DistTrain handles failures by automatically recovering the training
//! from the latest model checkpoint." [`run_with_failure`] drives the
//! runtime iteration by iteration, periodically checkpointing through the
//! real [`CheckpointManager`], crashes the trainer at a chosen iteration,
//! recovers from the newest checkpoint, and replays. Because the data
//! stream is deterministic in `(seed, iteration)`, the replayed
//! iterations are bit-identical to an uninterrupted run — which the tests
//! assert.

use crate::checkpoint::{CheckpointManager, TrainingState};
use crate::metrics::{IterationReport, TrainingReport};
use crate::runtime::{record_iteration_metrics, Runtime};
use dt_cluster::CollectiveCost;
use dt_data::{GlobalBatch, SyntheticLaion};
use dt_simengine::trace::{cat, TraceRecorder, TraceSpan};
use dt_simengine::{SimDuration, SimTime};
use dt_telemetry::{names, Telemetry};
use std::path::Path;
use std::time::Instant;

/// An injected preprocessing-stall burst: iterations in
/// `[from, from + len)` suffer `extra` additional stall time (which also
/// extends their iteration time). Models a transient slowdown of the
/// preprocessing service — a straggling DPP node, a storage hiccup — as
/// opposed to the hard crash of [`FaultPlan::fail_at`]; the telemetry
/// anomaly tests use it to validate the stall-burst detector.
#[derive(Debug, Clone, Copy)]
pub struct StallBurst {
    /// First affected iteration (0-based).
    pub from: u32,
    /// Number of consecutive affected iterations.
    pub len: u32,
    /// Extra stall added to each affected iteration.
    pub extra: SimDuration,
}

impl StallBurst {
    fn covers(&self, iteration: u32) -> bool {
        (self.from..self.from + self.len).contains(&iteration)
    }
}

/// Failure scenario description.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The iteration during which the trainer crashes (0-based; the
    /// iteration's work is lost).
    pub fail_at: u32,
    /// Checkpoint cadence in iterations.
    pub checkpoint_every: u32,
    /// Time to detect the failure, reschedule, and reload the checkpoint
    /// (job-restart overhead).
    pub restart_overhead: SimDuration,
    /// Optional preprocessing-stall burst injected alongside the crash.
    pub stall_burst: Option<StallBurst>,
}

/// Outcome of a run with one injected failure.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Every *committed* iteration, in final order (length = requested
    /// iterations; replayed iterations appear once).
    pub report: TrainingReport,
    /// Iterations whose work was lost to the crash (fail point minus the
    /// recovered checkpoint).
    pub lost_iterations: u32,
    /// Total wall clock including lost work and the restart overhead.
    pub total_wall: SimDuration,
}

/// Run `iterations` of training with one injected crash, checkpointing
/// into `ckpt_dir`.
pub fn run_with_failure(
    runtime: &Runtime<'_>,
    iterations: u32,
    fault: FaultPlan,
    ckpt_dir: &Path,
) -> std::io::Result<FaultReport> {
    run_with_failure_traced(runtime, iterations, fault, ckpt_dir, &mut TraceRecorder::disabled())
}

/// [`run_with_failure`] with span emission: committed iterations trace
/// through [`Runtime::simulate_iteration_traced`]; each checkpoint adds a
/// `checkpoint` span on a dedicated process (`pid` = DP world size,
/// `tid` = 1) whose duration is the *measured synchronous enqueue time* of
/// the asynchronous save — near-zero by design, which is exactly what the
/// trace should show (§3: checkpointing must not block training). The
/// crash itself appears as one `crash+restart` span covering the lost
/// half-iteration plus the restart overhead.
pub fn run_with_failure_traced(
    runtime: &Runtime<'_>,
    iterations: u32,
    fault: FaultPlan,
    ckpt_dir: &Path,
    rec: &mut TraceRecorder,
) -> std::io::Result<FaultReport> {
    run_with_failure_telemetry(runtime, iterations, fault, ckpt_dir, rec, &Telemetry::disabled())
}

/// [`run_with_failure_traced`] plus registry metrics. Committed
/// iterations feed the runtime families through
/// [`record_iteration_metrics`] (so burst-inflated stalls land in the
/// stall series); the crashed attempt is *not* committed, but its wall
/// cost (half an iteration plus the restart overhead) is sampled into the
/// iteration-time series — that spike is exactly the straggler the
/// anomaly detector is validated against. Fault counters
/// (`dt_fault_crashes_total`, `dt_fault_checkpoints_total`,
/// `dt_fault_lost_iterations_total`) track the recovery machinery itself.
pub fn run_with_failure_telemetry(
    runtime: &Runtime<'_>,
    iterations: u32,
    fault: FaultPlan,
    ckpt_dir: &Path,
    rec: &mut TraceRecorder,
    tel: &Telemetry,
) -> std::io::Result<FaultReport> {
    let coll = CollectiveCost::new(runtime.cluster.clone());
    let perf = runtime.perf_model(&coll);
    let planner = runtime.planner_for(&perf);
    let bs = runtime.cfg.global_batch as usize;

    // Deterministic batch for iteration `i`: regenerate the stream and
    // skip — the recovery path's replay uses the same function.
    let batch_for = |iteration: u32| -> GlobalBatch {
        let mut gen = SyntheticLaion::new(runtime.data.clone(), runtime.cfg.seed);
        for _ in 0..iteration {
            let _ = gen.take(bs);
        }
        GlobalBatch::new(planner.reorder(gen.take(bs)))
    };

    let mut mgr = CheckpointManager::new(ckpt_dir)?;
    let mut committed: Vec<IterationReport> = Vec::with_capacity(iterations as usize);
    let mut total_wall = SimDuration::ZERO;
    let mut lost_iterations = 0u32;
    let mut crashed = false;
    let mut it = 0u32;

    let trainer_pid = runtime.plan.backbone.dp as u64;
    let peak = runtime.cluster.node.gpu.peak_flops;
    // Apply the optional stall burst to an iteration's report.
    let inflate = |iteration: u32, mut report: IterationReport| -> IterationReport {
        if let Some(burst) = fault.stall_burst {
            if burst.covers(iteration) {
                report.preprocess_stall += burst.extra;
                report.iter_time += burst.extra;
            }
        }
        report
    };
    while it < iterations {
        if !crashed && it == fault.fail_at {
            // The crash destroys this iteration's in-flight work…
            let partial = inflate(it, runtime.simulate_iteration(&perf, &batch_for(it)));
            let lost_wall = partial.iter_time / 2 + fault.restart_overhead;
            total_wall += lost_wall; // fails mid-iteration
            if rec.is_enabled() {
                rec.record(TraceSpan::new(
                    format!("crash+restart@{it}"),
                    cat::CHECKPOINT,
                    trainer_pid,
                    1,
                    SimTime::ZERO,
                    lost_wall,
                ));
                rec.set_origin(rec.origin() + lost_wall);
            }
            // The aborted attempt's wall cost shows up as a straggler
            // point on the iteration-time series (it is real elapsed
            // time), but is never committed to the training report.
            tel.with(|r| {
                r.counter(names::FAULT_CRASHES_TOTAL, &[]).inc();
                r.series(names::SERIES_ITER_TIME, &[])
                    .sample(SimTime::ZERO + total_wall, lost_wall.as_secs_f64());
            });
            // …and training resumes from the newest durable checkpoint.
            mgr.wait()?;
            let state = CheckpointManager::recover(ckpt_dir)?;
            let resume_at = state.map_or(0, |s| s.iteration);
            lost_iterations = it - resume_at;
            tel.with(|r| {
                r.counter(names::FAULT_LOST_ITERATIONS_TOTAL, &[]).add(lost_iterations as u64)
            });
            committed.truncate(resume_at as usize);
            it = resume_at;
            crashed = true;
            continue;
        }
        let report =
            inflate(it, runtime.simulate_iteration_telemetry(&perf, &batch_for(it), rec, tel));
        total_wall += report.iter_time;
        if rec.is_enabled() {
            rec.set_origin(rec.origin() + report.iter_time);
        }
        record_iteration_metrics(tel, SimTime::ZERO + total_wall, &report, peak);
        committed.push(report);
        it += 1;
        if it.is_multiple_of(fault.checkpoint_every.max(1)) {
            let enqueue = Instant::now();
            mgr.save_async(&TrainingState { iteration: it, plan: runtime.plan, seed: runtime.cfg.seed })?;
            tel.with(|r| r.counter(names::FAULT_CHECKPOINTS_TOTAL, &[]).inc());
            if rec.is_enabled() {
                let blocked = SimDuration::from_nanos(enqueue.elapsed().as_nanos().max(1) as u64);
                rec.record(TraceSpan::new(
                    format!("checkpoint@{it}"),
                    cat::CHECKPOINT,
                    trainer_pid,
                    1,
                    SimTime::ZERO,
                    blocked,
                ));
            }
        }
    }
    mgr.wait()?;

    Ok(FaultReport {
        report: TrainingReport {
            iterations: committed,
            peak_flops_per_gpu: runtime.cluster.node.gpu.peak_flops,
        },
        lost_iterations,
        total_wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use crate::system::{SystemKind, TrainingTask};
    use dt_model::MllmPreset;
    use dt_simengine::TempDir;

    fn tempdir(tag: &str) -> TempDir {
        TempDir::new(&format!("dt-fault-{tag}")).unwrap()
    }

    fn runtime_parts() -> (TrainingTask, dt_parallel::OrchestrationPlan) {
        let task = TrainingTask::ablation(MllmPreset::Mllm9B.build(), 32);
        let plan = task.plan(SystemKind::DistTrain).expect("plan");
        (task, plan)
    }

    #[test]
    fn recovery_replays_to_a_bit_identical_run() {
        let (task, plan) = runtime_parts();
        let runtime = Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan,
            data: task.data.clone(),
            cfg: RuntimeConfig::disttrain(32, 6),
        };
        // Uninterrupted reference.
        let reference = runtime.run();

        let dir = tempdir("replay");
        let fault = FaultPlan {
            fail_at: 4,
            checkpoint_every: 2,
            restart_overhead: SimDuration::from_secs_f64(30.0),
            stall_burst: None,
        };
        let outcome = run_with_failure(&runtime, 6, fault, &dir).unwrap();
        assert_eq!(outcome.report.iterations.len(), 6);
        assert_eq!(outcome.lost_iterations, 0, "checkpoint at 4 covers the crash at 4");
        for (a, b) in outcome.report.iterations.iter().zip(&reference.iterations) {
            assert_eq!(a.iter_time, b.iter_time, "replayed iteration must be identical");
            assert_eq!(a.model_flops, b.model_flops);
        }
    }

    #[test]
    fn stale_checkpoints_cost_lost_iterations() {
        let (task, plan) = runtime_parts();
        let runtime = Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan,
            data: task.data.clone(),
            cfg: RuntimeConfig::disttrain(32, 6),
        };
        let dir = tempdir("stale");
        let fault = FaultPlan {
            fail_at: 5,
            checkpoint_every: 3,
            restart_overhead: SimDuration::from_secs_f64(30.0),
            stall_burst: None,
        };
        let outcome = run_with_failure(&runtime, 6, fault, &dir).unwrap();
        // Last checkpoint before the crash is at iteration 3 → 2 lost.
        assert_eq!(outcome.lost_iterations, 2);
        assert_eq!(outcome.report.iterations.len(), 6);
        // Wall clock strictly exceeds the committed work (lost + restart).
        let committed: SimDuration = outcome.report.iterations.iter().map(|i| i.iter_time).sum();
        assert!(outcome.total_wall > committed + SimDuration::from_secs_f64(30.0));
    }

    #[test]
    fn traced_fault_run_records_checkpoint_and_restart_spans() {
        use dt_simengine::trace::cat;
        let (task, plan) = runtime_parts();
        let runtime = Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan,
            data: task.data.clone(),
            cfg: RuntimeConfig::disttrain(32, 4),
        };
        let dir = tempdir("traced");
        let fault = FaultPlan {
            fail_at: 3,
            checkpoint_every: 2,
            restart_overhead: SimDuration::from_secs_f64(30.0),
            stall_burst: None,
        };
        let mut rec = dt_simengine::TraceRecorder::enabled();
        let outcome = run_with_failure_traced(&runtime, 4, fault, &dir, &mut rec).unwrap();
        let ckpts = rec.spans().iter().filter(|s| s.cat == cat::CHECKPOINT).count();
        // Checkpoints at iterations 2 and 4 (4 is re-reached after replay,
        // so saved twice is possible only if replay crosses it — here the
        // crash at 3 replays from 2, so: save@2, crash, save@4 → ≥ 2 saves
        // plus exactly one crash+restart span.
        assert!(ckpts >= 3, "expected save + restart spans, got {ckpts}");
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.cat == cat::CHECKPOINT && s.name.starts_with("crash+restart")));
        // Restart span carries the full restart overhead.
        let restart = rec
            .spans()
            .iter()
            .find(|s| s.name.starts_with("crash+restart"))
            .unwrap();
        assert!(restart.dur >= SimDuration::from_secs_f64(30.0));
        assert_eq!(outcome.report.iterations.len(), 4);
        rec.validate_nesting().expect("fault-run spans stay disjoint per track");
    }

    #[test]
    fn crash_before_any_checkpoint_restarts_from_zero() {
        let (task, plan) = runtime_parts();
        let runtime = Runtime {
            model: &task.model,
            cluster: &task.cluster,
            plan,
            data: task.data.clone(),
            cfg: RuntimeConfig::disttrain(32, 3),
        };
        let dir = tempdir("zero");
        let fault = FaultPlan {
            fail_at: 1,
            checkpoint_every: 10,
            restart_overhead: SimDuration::from_secs_f64(30.0),
            stall_burst: None,
        };
        let outcome = run_with_failure(&runtime, 3, fault, &dir).unwrap();
        assert_eq!(outcome.lost_iterations, 1);
        assert_eq!(outcome.report.iterations.len(), 3);
    }
}
