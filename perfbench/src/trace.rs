//! The benchmark's own spans: recorded around each public call into a
//! layer, kept in memory, turned into a self-time table, and written out
//! as a Chrome trace when the run ends.

use dt_simengine::trace::{TraceRecorder, TraceSpan, WallTraceSink};
use std::collections::BTreeMap;
use std::time::Instant;

/// Chrome-trace process id of the benchmark's spans (the program's own
/// sinks use 1000–3000).
pub const BENCH_PID: u64 = 9_000;
/// Category of every benchmark span.
const CAT: &str = "perfbench";
/// Name of the span that covers one load thread's measured window; its
/// self time is the `other` row.
pub const WINDOW: &str = "window";

/// A span sink that is either recording or free. Cloning shares the sink,
/// so load threads record into one buffer on their own tracks.
#[derive(Clone)]
pub struct Tracer {
    sink: WallTraceSink,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per span.
    pub fn off() -> Tracer {
        Tracer {
            sink: WallTraceSink::disabled(),
        }
    }

    /// A recording tracer with room for every span of a run.
    pub fn on() -> Tracer {
        Tracer {
            sink: WallTraceSink::new().with_capacity(1 << 22),
        }
    }

    /// Run `f` inside a span named after the layer it calls, on track `tid`.
    pub fn span<R>(&self, tid: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.sink.is_enabled() {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.sink.record(name, CAT, BENCH_PID, tid, started);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<TraceSpan> {
        self.sink.snapshot()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e3)
            .collect()
    }

    /// Write the benchmark's spans merged with the program's own sinks as
    /// one Chrome trace on a shared unix-epoch clock.
    pub fn write_chrome(
        &self,
        path: &std::path::Path,
        program: &[WallTraceSink],
    ) -> std::io::Result<()> {
        let mut all = TraceRecorder::enabled();
        all.absorb(self.sink.unix_recorder());
        for sink in program {
            all.absorb(sink.unix_recorder());
        }
        all.write_chrome_trace(path)
    }
}

/// Self time per layer, averaged over the load threads that recorded a
/// [`WINDOW`] span. The rows plus `other` (the window's own self time) sum
/// to `wall_ms`, the mean window length.
pub struct SelfTimes {
    /// `(layer, ms)` with `other` last.
    pub rows: Vec<(String, f64)>,
    /// Mean measured window per load thread.
    pub wall_ms: f64,
    /// Load threads the table averages over.
    pub threads: usize,
}

/// Nest each track's spans by interval containment and charge every span
/// its duration minus the time its direct children cover.
pub fn self_times(spans: &[TraceSpan]) -> SelfTimes {
    let mut tracks: BTreeMap<(u64, u64), Vec<&TraceSpan>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.pid == BENCH_PID) {
        tracks.entry((s.pid, s.tid)).or_default().push(s);
    }
    let mut self_ns: BTreeMap<String, f64> = BTreeMap::new();
    let mut wall_ns = 0.0;
    let mut threads = 0;
    for track in tracks.values_mut() {
        track.sort_by(|a, b| a.start.cmp(&b.start).then(b.dur.cmp(&a.dur)));
        let mut child_ns = vec![0.0f64; track.len()];
        // Spans outside every window (set-up, replays) stay out of the table.
        let mut in_window = vec![false; track.len()];
        let mut stack: Vec<usize> = Vec::new();
        for i in 0..track.len() {
            while let Some(&top) = stack.last() {
                if track[top].end() <= track[i].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += track[i].dur.as_nanos() as f64;
                in_window[i] = in_window[parent];
            }
            in_window[i] |= track[i].name == WINDOW;
            stack.push(i);
        }
        for (i, s) in track.iter().enumerate().filter(|(i, _)| in_window[*i]) {
            let own = s.dur.as_nanos() as f64 - child_ns[i];
            if s.name == WINDOW {
                wall_ns += s.dur.as_nanos() as f64;
                threads += 1;
            }
            *self_ns.entry(s.name.clone()).or_default() += own;
        }
    }
    let per = threads.max(1) as f64;
    let other = self_ns.remove(WINDOW).unwrap_or(0.0);
    let mut rows: Vec<(String, f64)> = self_ns
        .into_iter()
        .map(|(k, v)| (k, v / per / 1e6))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.push(("other".into(), other / per / 1e6));
    SelfTimes {
        rows,
        wall_ms: wall_ns / per / 1e6,
        threads,
    }
}

/// Print the self-time table; the rows sum to the wall time.
pub fn print_table(workload: &str, t: &SelfTimes) {
    println!(
        "self time, {workload} (traced window, mean over {} load thread{}):",
        t.threads,
        if t.threads == 1 { "" } else { "s" }
    );
    let wall = t.wall_ms.max(1e-9);
    for (name, ms) in &t.rows {
        println!("  {name:<40} {ms:>12.3} ms {:>7.2}%", ms / wall * 100.0);
    }
    let sum: f64 = t.rows.iter().map(|r| r.1).sum();
    println!("  {:<40} {sum:>12.3} ms (wall {:.3} ms)", "sum", t.wall_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_simengine::{SimDuration, SimTime};

    fn span(name: &str, tid: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan::new(
            name,
            CAT,
            BENCH_PID,
            tid,
            SimTime::from_nanos(start),
            SimDuration::from_nanos(dur),
        )
    }

    #[test]
    fn rows_and_other_sum_to_the_window() {
        let spans = vec![
            span(WINDOW, 0, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 15, 10),
            span("a", 0, 50, 20),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.rows.iter().find(|r| r.0 == n).map(|r| r.1 * 1e6).unwrap();
        assert!((get("a") - 40.0).abs() < 1e-6);
        assert!((get("b") - 10.0).abs() < 1e-6);
        assert!((get("other") - 50.0).abs() < 1e-6);
        let sum: f64 = t.rows.iter().map(|r| r.1).sum();
        assert!((sum - t.wall_ms).abs() < 1e-9);
    }
}
