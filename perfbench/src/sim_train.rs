//! `sim-train`: the §7.1 production task for MLLM-72B (162 nodes, global
//! batch 1920, M = 1) under the DistTrain plan. One thread repeats
//! `SyntheticLaion::take` → `ReorderPlanner::reorder` →
//! `Runtime::simulate_iteration`, the Fig. 13 path that dominates
//! `repro all`. Set-up is `TrainingTask::plan`.

use crate::report::{Report, RunCfg};
use crate::stats::{median, percentile, sustained_rate};
use crate::trace::{self, Tracer, WINDOW};
use disttrain_core::{IterationReport, Runtime, SystemKind, TrainingReport, TrainingTask};
use dt_cluster::CollectiveCost;
use dt_data::{GlobalBatch, SyntheticLaion, TrainSample};
use dt_model::MllmPreset;
use dt_orchestrator::{Orchestrator, PerfModel, Profiler};
use dt_pipeline::{simulate, OpKind, PipelineSpec};
use dt_preprocess::{ReorderMode, ReorderPlanner};
use dt_simengine::{DetRng, Json};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Planning repeats behind the `setup_s` median.
const SETUP_REPS: usize = 5;
/// Iterations behind the deterministic simulated metrics (`sim.mfu`,
/// `sim.samples_per_s`, the `sim.*_frac` shares) and the replays.
const SIM_ITERS: usize = 8;
/// `ops_per_s` is the rate through the slowest tenth of up to 100 runs of
/// the window, and `op_ms` the p90 iteration time. The host's slow state
/// (≈20 ms per iteration against ≈13 ms) fills more than a tenth of nearly
/// every window, so both sit inside it; a median sits where the two
/// states meet and jumps with their mix.
const RATE_CHUNKS: usize = 100;
const RATE_Q: f64 = 0.10;
const OP_Q: f64 = 0.90;

/// Per-operation log of one measured window.
struct Window {
    lat_ms: Vec<f64>,
    done: Vec<(f64, f64)>,
    reports: Vec<IterationReport>,
    permutations_ok: bool,
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let mut task = TrainingTask::production(MllmPreset::Mllm72B.build());
    task.seed = cfg.seed;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut plans = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let plan = task
            .plan(SystemKind::DistTrain)
            .expect("the §7.1 task has a feasible plan");
        setups.push(t.elapsed().as_secs_f64());
        plans.push(plan);
    }
    r.check(
        "planning is deterministic",
        plans.windows(2).all(|w| w[0] == w[1]),
    );
    let plan = plans.pop().expect("SETUP_REPS > 0");
    r.note("setup_reps", Json::num_u64(SETUP_REPS as u64));
    r.note("plan_gpus", Json::num_u64(u64::from(plan.total_gpus())));
    r.note(
        "plan_backbone_tp_dp_pp",
        Json::arr_u64([plan.backbone.tp, plan.backbone.dp, plan.backbone.pp].map(u64::from)),
    );

    let runtime = Runtime {
        model: &task.model,
        cluster: &task.cluster,
        plan,
        data: task.data.clone(),
        cfg: task.runtime_config(SystemKind::DistTrain, 1),
    };
    let coll = CollectiveCost::new(task.cluster.clone());
    let perf = runtime.perf_model(&coll);
    let planner = runtime.planner_for(&perf);
    let peak = task.cluster.node.gpu.peak_flops;
    let batch_size = task.global_batch as usize;

    let measure = |tracer: &Tracer, seconds: f64| -> Window {
        let mut gen = SyntheticLaion::new(runtime.data.clone(), runtime.cfg.seed);
        let mut w = Window {
            lat_ms: Vec::new(),
            done: Vec::new(),
            reports: Vec::new(),
            permutations_ok: true,
        };
        let deadline = Duration::from_secs_f64(seconds);
        let start = Instant::now();
        tracer.span(0, WINDOW, || {
            while start.elapsed() < deadline || w.reports.len() < SIM_ITERS {
                let t = Instant::now();
                let samples = tracer.span(0, "dt-data.take", || gen.take(batch_size));
                let first_id = samples.first().map_or(0, |s| s.id);
                let ordered = tracer.span(0, "dt-preprocess.reorder", || planner.reorder(samples));
                let batch = GlobalBatch::new(ordered);
                let report = tracer.span(0, "disttrain-core.simulate_iteration", || {
                    runtime.simulate_iteration(&perf, &batch)
                });
                w.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                w.done.push((start.elapsed().as_secs_f64(), 1.0));
                tracer.span(0, "perfbench.check", || {
                    w.permutations_ok &=
                        is_permutation_of_range(&batch.samples, first_id, batch_size);
                });
                if w.reports.len() < SIM_ITERS {
                    w.reports.push(report);
                }
            }
        });
        w
    };

    let untraced = measure(
        &Tracer::off(),
        if cfg.trace {
            cfg.seconds / 2.0
        } else {
            cfg.seconds
        },
    );
    let sim = TrainingReport {
        iterations: untraced.reports.clone(),
        peak_flops_per_gpu: peak,
    };
    let mfu = sim.mfu();
    let sim_sps = sim.samples_per_sec();

    // Determinism: a fresh stream over the same seed must reproduce the
    // simulated metrics bit for bit.
    let mut gen = SyntheticLaion::new(runtime.data.clone(), runtime.cfg.seed);
    let replay: Vec<IterationReport> = (0..SIM_ITERS)
        .map(|_| {
            let batch = GlobalBatch::new(planner.reorder(gen.take(batch_size)));
            runtime.simulate_iteration(&perf, &batch)
        })
        .collect();
    let replay = TrainingReport {
        iterations: replay,
        peak_flops_per_gpu: peak,
    };
    r.check(
        "reorder returns a permutation of the generated batch",
        untraced.permutations_ok,
    );
    r.check("sim_mfu is in (0, 1)", mfu > 0.0 && mfu < 1.0);
    r.check(
        "sim_mfu and sim_samples_per_s are bit-identical on a replay",
        replay.mfu().to_bits() == mfu.to_bits()
            && replay.samples_per_sec().to_bits() == sim_sps.to_bits(),
    );
    r.note("sim_mfu_bits", Json::Str(format!("{:016x}", mfu.to_bits())));

    let rate = sustained_rate(&untraced.done, RATE_CHUNKS, RATE_Q);
    r.attempted = untraced.lat_ms.len() as u64;
    r.note(
        "percentile_samples",
        Json::num_u64(untraced.lat_ms.len() as u64),
    );
    r.show("sim_iters_per_s", "iter/s", rate);
    r.show("iter_ms_p50", "ms", percentile(&untraced.lat_ms, 0.50));
    r.show("sim_mfu", "ratio", mfu);
    r.show("sim_samples_per_s", "samples/s", sim_sps);
    r.set("setup_s", median(&setups));
    r.set("ops_per_s", rate);
    r.set("op_ms", percentile(&untraced.lat_ms, OP_Q));
    r.note("op_quantile", Json::Num(OP_Q));
    if !cfg.trace {
        r.show("fail_ratio", "ratio", 0.0);
        return r;
    }

    let tracer = Tracer::on();
    let traced = measure(&tracer, cfg.seconds / 2.0);
    r.check(
        "traced run: reorder returns a permutation",
        traced.permutations_ok,
    );
    r.attempted += traced.lat_ms.len() as u64;
    let traced_rate = sustained_rate(&traced.done, RATE_CHUNKS, RATE_Q);
    r.set("trace.overhead_pct", (rate / traced_rate - 1.0) * 100.0);
    r.set("fail_ratio", 0.0);
    r.set(
        "dt-data.gen_ms",
        median(&tracer.durations_ms("dt-data.take")),
    );
    r.set(
        "dt-preprocess.reorder_ms",
        median(&tracer.durations_ms("dt-preprocess.reorder")),
    );
    r.set(
        "disttrain-core.iteration_ms",
        median(&tracer.durations_ms("disttrain-core.simulate_iteration")),
    );
    let (sum_iter, sum_sync, sum_stall) = sim.iterations.iter().fold((0.0, 0.0, 0.0), |acc, it| {
        (
            acc.0 + it.iter_time.as_secs_f64(),
            acc.1 + it.grad_sync.as_secs_f64(),
            acc.2 + it.preprocess_stall.as_secs_f64(),
        )
    });
    r.set(
        "sim.bubble_frac",
        sim.iterations
            .iter()
            .map(|it| it.bubble_fraction)
            .sum::<f64>()
            / sim.iterations.len() as f64,
    );
    r.set("sim.grad_sync_frac", sum_sync / sum_iter);
    r.set("sim.stall_frac", sum_stall / sum_iter);
    r.set("sim.mfu", mfu);
    r.set("sim.samples_per_s", sim_sps);

    // Replays outside the traced window, on the first batches of the seed's
    // stream: Algorithm 1 alone (the IntraOnly planner; Algorithm 2 is the
    // difference to reorder_ms) and the pipeline DES per DP rank.
    let intra = ReorderPlanner {
        mode: ReorderMode::IntraOnly,
        ..planner.clone()
    };
    let mut gen = SyntheticLaion::new(runtime.data.clone(), runtime.cfg.seed);
    let comm = runtime.build_comm_for(&coll);
    let spec = PipelineSpec {
        schedule: runtime.cfg.schedule,
        comm,
    };
    let (mut alg1_ms, mut des_ms, mut ops) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..SIM_ITERS {
        let samples = gen.take(batch_size);
        let copy = samples.clone();
        let t = Instant::now();
        black_box(intra.reorder(copy));
        alg1_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let batch = GlobalBatch::new(planner.reorder(samples));
        let mut iter_ns = 0u128;
        ops = 0;
        for rank in batch.split(runtime.plan.backbone.dp, runtime.plan.microbatch) {
            let workload = runtime.build_workload_for(&perf, &rank);
            let t = Instant::now();
            let result = black_box(simulate(&spec, &workload));
            iter_ns += t.elapsed().as_nanos();
            ops += result
                .timeline
                .iter()
                .filter(|op| matches!(op.kind, OpKind::Forward | OpKind::Backward))
                .count() as u64;
        }
        des_ms.push(iter_ns as f64 / 1e6);
    }
    r.set("dt-reorder.alg1_ms", median(&alg1_ms));
    r.set("dt-pipeline.simulate_ms", median(&des_ms));
    r.set("dt-pipeline.ops", ops as f64);

    // The §4 search alone, on the profile `TrainingTask::plan` builds; the
    // rest of plan_s is the benchmarking trials.
    let perf4 = PerfModel::new(&task.model, &task.cluster.node.gpu, &coll).with_stepccl();
    let mut data = SyntheticLaion::new(task.data.clone(), DetRng::new(task.seed).next_u64());
    let profile = Profiler.profile(&perf4, &data.take(64));
    let orch = Orchestrator::builder()
        .spec(task.problem_spec())
        .build()
        .expect("valid §7.1 spec");
    let mut search_ms = Vec::new();
    let mut candidates = 0;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let found = orch
            .plan_candidates(&task.model, &profile)
            .expect("feasible §7.1 search");
        search_ms.push(t.elapsed().as_secs_f64() * 1e3);
        candidates = found.len();
    }
    r.set("dt-orchestrator.plan_s", median(&setups));
    r.set("dt-orchestrator.search_ms", median(&search_ms));
    r.set("dt-orchestrator.candidates", candidates as f64);

    trace::print_table("sim-train", &trace::self_times(&tracer.spans()));
    if let Err(e) = tracer.write_chrome(&cfg.trace_path("sim-train"), &[]) {
        r.check(format!("write Chrome trace: {e}"), false);
    }
    r
}

/// Whether `samples` carries exactly the ids `first..first + n`.
fn is_permutation_of_range(samples: &[TrainSample], first: u64, n: usize) -> bool {
    let mut ids: Vec<u64> = samples.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.len() == n
        && ids
            .iter()
            .enumerate()
            .all(|(i, &id)| id == first + i as u64)
}
