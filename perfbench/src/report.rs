//! What one workload run hands back to `main`, and the metric catalog that
//! `BENCHMARK.json` mirrors.

use dt_simengine::Json;

/// End-to-end metrics `(name, unit)`: every workload reports each of
/// them. One operation is a simulated iteration (sim-train), a delivered
/// sample (data-*) or a planning request (plan-serve); per-operation
/// latency is iteration wall time, the trainer's wait in `next_batch`, or
/// the client-side request latency. `op_ms` is that latency at one
/// quantile per workload: the p90 on sim-train and data-skew65k (too few
/// fetches for a p99), the p99 on data-fanin and the p10 on plan-serve
/// (its higher quantiles are host scheduling noise).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms", "ms"),
];

/// Per-layer metrics `(name, unit)` of the traced run. Layer names are
/// crate names; a layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_pct", "%"),
    ("fail_ratio", "ratio"),
    ("dt-data.gen_ms", "ms"),
    ("dt-preprocess.reorder_ms", "ms"),
    ("dt-reorder.alg1_ms", "ms"),
    ("disttrain-core.iteration_ms", "ms"),
    ("dt-pipeline.simulate_ms", "ms"),
    ("dt-pipeline.ops", "count"),
    ("sim.bubble_frac", "ratio"),
    ("sim.grad_sync_frac", "ratio"),
    ("sim.stall_frac", "ratio"),
    ("sim.mfu", "ratio"),
    ("sim.samples_per_s", "samples/s"),
    ("dt-orchestrator.plan_s", "s"),
    ("dt-orchestrator.search_ms", "ms"),
    ("dt-orchestrator.candidates", "count"),
    ("dt-preprocess.codec_ms", "ms"),
    ("dt-preprocess.frame_ms", "ms"),
    ("dt-preprocess.batch_mb", "MB"),
    ("dt-preprocess.plane_overhead_ms", "ms"),
    ("dt-preprocess.fetch_ms", "ms"),
    ("dt-preprocess.decode_ms", "ms"),
    ("dt-preprocess.feed_ms", "ms"),
    ("dt-preprocess.prefetch_ms", "ms"),
    ("dt-preprocess.queue_depth", "count"),
    ("dt-preprocess.backpressure_events", "count"),
    ("dt-preprocess.reconnects", "count"),
    ("dt-preprocess.malformed_frames", "count"),
    ("dt-preprocess.scaling_vs_1x1", "ratio"),
    ("dt-preprocess.colocated_stall_ms", "ms"),
    ("dt-serve.cold_plan_ms", "ms"),
    ("dt-serve.warm_plan_ms", "ms"),
    ("dt-serve.replan_ms", "ms"),
    ("dt-serve.solve_ms", "ms"),
    ("dt-serve.server_plan_ms", "ms"),
    ("dt-serve.server_replan_ms", "ms"),
    ("dt-serve.store_hit_ratio", "ratio"),
    ("dt-serve.rejected", "count"),
];

/// Unit of a catalog metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Output checks, `(what was checked, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted, retries included.
    pub attempted: u64,
    /// Attempts that failed or were refused.
    pub failed: u64,
    /// Catalog metrics measured by the workload (`peak_rss_mb` is added by
    /// `main`).
    pub metrics: Vec<(&'static str, f64)>,
    /// The workload's own names for its end-to-end numbers, printed for
    /// readers and left out of the result line.
    pub shown: Vec<(&'static str, &'static str, f64)>,
    /// Extra provenance: sample counts, set-up repeats, plan shapes.
    pub notes: Vec<(&'static str, Json)>,
}

impl Report {
    /// Record one output check.
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Record a catalog metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(!unit_of(name).is_empty(), "{name} is not in the catalog");
        self.metrics.push((name, value));
    }

    /// Record a number printed under the workload's own name.
    pub fn show(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.shown.push((name, unit, value));
    }

    /// Record a provenance note.
    pub fn note(&mut self, key: &'static str, value: Json) {
        self.notes.push((key, value));
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.1)
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Settings every workload receives.
pub struct RunCfg {
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where the Chrome trace goes.
    pub out_dir: std::path::PathBuf,
}

impl RunCfg {
    /// Where this workload's Chrome trace is written.
    pub fn trace_path(&self, workload: &str) -> std::path::PathBuf {
        self.out_dir.join(format!("trace-{workload}.json"))
    }
}
