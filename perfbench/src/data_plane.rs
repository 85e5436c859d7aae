//! `data-fanin` and `data-skew65k`: a real `Preprocess` plane drained by
//! one fan-in `Consumer` in a closed loop (the next fetch is issued as
//! soon as the previous batch is checked).
//!
//! - `data-fanin`: 2 producer endpoints × 1 consumer (2 connections),
//!   32² thumbnails, 4-sample batches. Per-batch plane work dominates:
//!   event loop, request queue, generator hand-off, framing and TCP.
//! - `data-skew65k`: 1 × 1, one sample per batch holding one 2048² image
//!   at patch 8 (65,536 tokens, ≈12.6 MB). The codec and the large-frame
//!   path dominate.
//!
//! Set-up is spawn + connect + the first (warm-up) batch.

use crate::report::{Report, RunCfg};
use crate::stats::{median, percentile, sustained_rate};
use crate::trace::{self, Tracer, WINDOW};
use dt_data::{DataConfig, ResolutionMode, SyntheticLaion};
use dt_preprocess::feeder::PreprocessedBatch;
use dt_preprocess::frame::{read_frame, write_batch_frames, WireJson};
use dt_preprocess::service::preprocess_parallel;
use dt_preprocess::wire::BatchHeader;
use dt_preprocess::{ColocatedFeeder, Consumer, MultiFeeder, Preprocess, PreprocessHandle};
use dt_simengine::{Json, WallTraceSink};
use dt_telemetry::{names, Telemetry};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Decode workers per producer session (the plane's own default shape).
const WORKERS: u32 = 2;
/// Batches in flight per consumer connection.
const PIPELINE: usize = 2;
/// `ops_per_s` is the lower quartile of up to 20 run rates of the window:
/// it sits in the host's slow state whenever a quarter of the window saw
/// it, which almost every window does.
const RATE_CHUNKS: usize = 20;
const RATE_Q: f64 = 0.25;

/// One data workload's fixed shape.
struct Shape {
    name: &'static str,
    producers: usize,
    batch: u32,
    data: DataConfig,
    setup_reps: usize,
    /// Quantile behind `op_ms`: a p99 needs hundreds of fetches.
    tail_q: f64,
}

fn fanin_shape() -> Shape {
    Shape {
        name: "data-fanin",
        producers: 2,
        batch: 4,
        data: DataConfig {
            resolution: ResolutionMode::Fixed(32),
            ..DataConfig::evaluation(512)
        },
        setup_reps: 45,
        tail_q: 0.99,
    }
}

/// 2048² at patch 8 is 65,536 tokens; the sequence leaves exactly one such
/// image inside the 80% image-token budget.
fn skew_shape() -> Shape {
    let (res, patch) = (2048u32, 8u32);
    let tokens = u64::from((res / patch) * (res / patch));
    Shape {
        name: "data-skew65k",
        producers: 1,
        batch: 1,
        data: DataConfig {
            seq_len: tokens * 10 / 8,
            patch,
            resolution: ResolutionMode::Fixed(res),
            max_images_per_sample: 1,
            ..DataConfig::evaluation(512)
        },
        setup_reps: 5,
        // A 25 s window holds about 30 fetches.
        tail_q: 0.9,
    }
}

/// The observability a traced plane is built with.
#[derive(Clone)]
struct Observed {
    telemetry: Telemetry,
    plane: WallTraceSink,
    consumer: WallTraceSink,
}

/// A live plane and its consumer.
struct Plane {
    handle: PreprocessHandle,
    feeder: MultiFeeder,
}

/// Running checks over every delivered batch.
struct Checks {
    /// The workload's fixed image resolution.
    res: u32,
    next_id: HashMap<SocketAddr, u64>,
    in_order: bool,
    tokens_ok: bool,
    full_images: u64,
}

impl Checks {
    fn new(shape: &Shape) -> Checks {
        let res = match shape.data.resolution {
            ResolutionMode::Fixed(r) => r,
            ResolutionMode::Skewed => 0,
        };
        Checks {
            res,
            next_id: HashMap::new(),
            in_order: true,
            tokens_ok: true,
            full_images: 0,
        }
    }

    /// Each producer session numbers its samples 0, 1, 2, …; every image
    /// arrives as 3·res² token bytes.
    fn batch(&mut self, from: SocketAddr, b: &PreprocessedBatch) {
        let samples = &b.batch.samples;
        let expected = self.next_id.entry(from).or_insert(0);
        for s in samples {
            self.in_order &= s.id == *expected;
            *expected += 1;
        }
        let want: Vec<u64> = samples
            .iter()
            .map(|s| {
                s.image_resolutions
                    .iter()
                    .map(|&r| 3 * u64::from(r) * u64::from(r))
                    .sum()
            })
            .collect();
        self.tokens_ok &=
            want == b.token_lens && b.token_lens.iter().sum::<u64>() == b.tokens.len() as u64;
        self.full_images += samples
            .iter()
            .map(|s| {
                s.image_resolutions
                    .iter()
                    .filter(|&&r| r == self.res)
                    .count() as u64
            })
            .sum::<u64>();
    }
}

/// Per-operation log of one measured window.
struct Window {
    stall_ms: Vec<f64>,
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    batches: u64,
    elapsed: f64,
    queue_depth: Vec<f64>,
}

/// Spawn, connect and take the warm-up batch; returns the plane and the
/// seconds that took.
fn set_up(
    shape: &Shape,
    producers: usize,
    seed: u64,
    obs: Option<&Observed>,
    checks: &mut Checks,
) -> (Plane, f64) {
    let t = Instant::now();
    let mut builder = Preprocess::builder(shape.data.clone(), seed)
        .producers(producers)
        .workers(WORKERS)
        .queue_capacity(4);
    if let Some(o) = obs {
        builder = builder
            .telemetry(o.telemetry.clone())
            .trace(o.plane.clone());
    }
    let handle = builder.spawn().expect("spawn the preprocessing plane");
    let mut consumer = Consumer::builder(handle.addrs())
        .batch(shape.batch)
        .pipeline(PIPELINE);
    if let Some(o) = obs {
        consumer = consumer
            .telemetry(o.telemetry.clone())
            .trace(o.consumer.clone());
    }
    let feeder = consumer.connect().expect("connect the fan-in consumer");
    let (from, b, _) = feeder.next_batch_from().expect("warm-up batch");
    checks.batch(from, &b);
    (Plane { handle, feeder }, t.elapsed().as_secs_f64())
}

/// Drain the plane back to back for `seconds`.
fn measure(
    plane: &Plane,
    seconds: f64,
    tracer: &Tracer,
    obs: Option<&Observed>,
    checks: &mut Checks,
) -> Window {
    let mut w = Window {
        stall_ms: Vec::new(),
        done: Vec::new(),
        attempted: 0,
        failed: 0,
        batches: 0,
        elapsed: 0.0,
        queue_depth: Vec::new(),
    };
    let deadline = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    tracer.span(0, WINDOW, || {
        while start.elapsed() < deadline {
            if let Some(o) = obs {
                let depth = o
                    .telemetry
                    .with(|r| r.gauge(names::PREPROCESS_QUEUE_DEPTH, &[]).get());
                w.queue_depth.extend(depth);
            }
            w.attempted += 1;
            let got = tracer.span(0, "dt-preprocess.next_batch", || {
                plane.feeder.next_batch_from()
            });
            match got {
                Ok((from, b, report)) => {
                    let n = b.batch.samples.len();
                    w.stall_ms.push(report.stall.as_secs_f64() * 1e3);
                    w.done.push((start.elapsed().as_secs_f64(), n as f64));
                    w.batches += 1;
                    tracer.span(0, "perfbench.check", || {
                        checks.batch(from, &b);
                        drop(b);
                    });
                }
                Err(_) => {
                    w.failed += 1;
                    w.stall_ms.push(f64::INFINITY);
                    break;
                }
            }
        }
    });
    w.elapsed = start.elapsed().as_secs_f64();
    w
}

/// Operations and plane counters summed over every plane of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    backpressure: u64,
    reconnects: u64,
    malformed: u64,
}

/// Stop the consumer, then the plane; check the shutdown and add the
/// plane's counters to `tally`.
fn tear_down(plane: Plane, r: &mut Report, label: &str, tally: &mut Tally) {
    let Plane { mut handle, feeder } = plane;
    tally.reconnects += feeder.reconnects();
    let stats = handle.stats();
    drop(feeder);
    tally.backpressure += stats.backpressure_events;
    tally.malformed += stats.malformed_frames;
    r.check(
        format!("{label}: zero malformed frames"),
        stats.malformed_frames == 0,
    );
    r.check(
        format!("{label}: plane shuts down cleanly"),
        handle.shutdown(),
    );
}

/// Tear down after a measured window, counting its operations.
fn finish(plane: Plane, w: &Window, r: &mut Report, label: &str, tally: &mut Tally) {
    tally.attempted += w.attempted;
    tally.failed += w.failed;
    tear_down(plane, r, label, tally);
}

/// Set up `reps` times (tearing down all but the last) and return the
/// kept plane with the median set-up time.
fn set_up_median(shape: &Shape, seed: u64, r: &mut Report, checks: &mut Checks) -> (Plane, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    let mut repeats = Report::default();
    for i in 0..shape.setup_reps {
        let mut fresh = Checks::new(shape);
        let (plane, secs) = set_up(shape, shape.producers, seed, None, &mut fresh);
        times.push(secs);
        if i + 1 == shape.setup_reps {
            *checks = fresh;
            kept = Some(plane);
        } else {
            tear_down(plane, &mut repeats, "set-up repeat", &mut Tally::default());
        }
    }
    r.check(
        "set-up repeats: zero malformed frames, clean shutdowns",
        repeats.checks.iter().all(|c| c.1),
    );
    (kept.expect("setup_reps > 0"), median(&times))
}

pub fn run_fanin(cfg: &RunCfg) -> Report {
    run(&fanin_shape(), cfg)
}

pub fn run_skew(cfg: &RunCfg) -> Report {
    run(&skew_shape(), cfg)
}

fn run(shape: &Shape, cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let fanin = shape.producers > 1;
    // The traced run splits its window: untraced, traced and, on the
    // fan-in, a 1×1 plane for the scaling ratio.
    let phases = if !cfg.trace {
        1.0
    } else if fanin {
        3.0
    } else {
        2.0
    };
    let phase_secs = cfg.seconds / phases;

    let mut checks = Checks::new(shape);
    let mut tally = Tally::default();
    let (plane, setup_s) = set_up_median(shape, cfg.seed, &mut r, &mut checks);
    let w = measure(&plane, phase_secs, &Tracer::off(), None, &mut checks);
    finish(plane, &w, &mut r, shape.name, &mut tally);

    let rate = sustained_rate(&w.done, RATE_CHUNKS, RATE_Q);
    r.note("setup_reps", Json::num_u64(shape.setup_reps as u64));
    r.note("percentile_samples", Json::num_u64(w.stall_ms.len() as u64));
    r.note("batches", Json::num_u64(w.batches));
    r.set("setup_s", setup_s);
    r.set("ops_per_s", rate);
    r.set("op_ms", percentile(&w.stall_ms, shape.tail_q));
    r.note("op_quantile", Json::Num(shape.tail_q));
    r.show("samples_per_s", "samples/s", rate);
    r.show("stall_ms_p50", "ms", percentile(&w.stall_ms, 0.50));
    if fanin {
        r.show("stall_ms_p99", "ms", percentile(&w.stall_ms, 0.99));
    }

    let mut all_checks = vec![checks];
    if cfg.trace {
        let tracer = Tracer::on();
        let obs = Observed {
            telemetry: Telemetry::enabled(),
            plane: WallTraceSink::new(),
            consumer: WallTraceSink::new(),
        };
        let mut checks = Checks::new(shape);
        let (plane, _) = set_up(shape, shape.producers, cfg.seed, Some(&obs), &mut checks);
        let tw = measure(&plane, phase_secs, &tracer, Some(&obs), &mut checks);
        finish(plane, &tw, &mut r, "traced plane", &mut tally);
        all_checks.push(checks);
        let traced_rate = sustained_rate(&tw.done, RATE_CHUNKS, RATE_Q);
        r.set("trace.overhead_pct", (rate / traced_rate - 1.0) * 100.0);

        if fanin {
            let mut checks = Checks::new(shape);
            let (plane, _) = set_up(shape, 1, cfg.seed, None, &mut checks);
            let single = measure(&plane, phase_secs, &Tracer::off(), None, &mut checks);
            finish(plane, &single, &mut r, "1x1 plane", &mut tally);
            all_checks.push(checks);
            r.set(
                "dt-preprocess.scaling_vs_1x1",
                rate / sustained_rate(&single.done, RATE_CHUNKS, RATE_Q),
            );
        } else {
            let mut colocated = ColocatedFeeder::new(shape.data.clone(), cfg.seed, None, WORKERS);
            let stalls: Vec<f64> = (0..3)
                .map(|_| colocated.next_batch(shape.batch).1.stall.as_secs_f64() * 1e3)
                .collect();
            r.set("dt-preprocess.colocated_stall_ms", median(&stalls));
        }

        // The codec and the framing alone, in memory, on a batch of the
        // workload's shape.
        let samples = SyntheticLaion::new(shape.data.clone(), cfg.seed).take(shape.batch as usize);
        let reps = if fanin { 200 } else { 3 };
        let mut codec_ms = Vec::new();
        let mut tokens = Vec::new();
        for _ in 0..reps {
            let t = Instant::now();
            tokens = black_box(preprocess_parallel(&samples, WORKERS));
            codec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let header = BatchHeader {
            samples: samples.clone(),
            token_lens: tokens.iter().map(|t| t.len() as u64).collect(),
            producer_cpu_ns: 0,
        }
        .to_json()
        .to_string()
        .into_bytes();
        let chunks: Vec<&[u8]> = tokens.iter().map(Vec::as_slice).collect();
        let mut frame_ms = Vec::new();
        let mut wire_bytes = 0;
        for _ in 0..reps {
            let t = Instant::now();
            let mut buf = Vec::new();
            write_batch_frames(&mut buf, &header, &chunks).expect("in-memory write");
            let mut cur = std::io::Cursor::new(&buf);
            black_box(read_frame(&mut cur).expect("header frame"));
            black_box(read_frame(&mut cur).expect("payload frame"));
            frame_ms.push(t.elapsed().as_secs_f64() * 1e3);
            wire_bytes = buf.len();
        }
        let (codec, frame) = (median(&codec_ms), median(&frame_ms));
        r.set("dt-preprocess.codec_ms", codec);
        r.set("dt-preprocess.frame_ms", frame);
        r.set("dt-preprocess.batch_mb", wire_bytes as f64 / 1e6);
        let interval_ms = tw.elapsed * 1e3 / tw.batches.max(1) as f64;
        r.set(
            "dt-preprocess.plane_overhead_ms",
            interval_ms - codec - frame,
        );

        let snap = obs.telemetry.snapshot();
        let p50_ms = |name: &str| {
            snap.histogram_value(name, &[])
                .map_or(0.0, |h| h.quantile(0.5) * 1e3)
        };
        r.set(
            "dt-preprocess.fetch_ms",
            p50_ms(names::PREPROCESS_FETCH_SECONDS),
        );
        r.set(
            "dt-preprocess.decode_ms",
            p50_ms(names::PREPROCESS_DECODE_SECONDS),
        );
        r.set(
            "dt-preprocess.feed_ms",
            p50_ms(names::PREPROCESS_FEED_SECONDS),
        );
        r.set(
            "dt-preprocess.prefetch_ms",
            p50_ms(names::PREPROCESS_PREFETCH_SECONDS),
        );
        r.set(
            "dt-preprocess.queue_depth",
            tw.queue_depth.iter().sum::<f64>() / tw.queue_depth.len().max(1) as f64,
        );

        trace::print_table(shape.name, &trace::self_times(&tracer.spans()));
        if let Err(e) = tracer.write_chrome(&cfg.trace_path(shape.name), &[obs.plane, obs.consumer])
        {
            r.check(format!("write Chrome trace: {e}"), false);
        }
    }

    r.check("every requested batch arrives", tally.failed == 0);
    r.check(
        "each producer's sample ids arrive in order",
        all_checks.iter().all(|c| c.in_order),
    );
    r.check(
        "token bytes equal 3·res² per image",
        all_checks.iter().all(|c| c.tokens_ok),
    );
    r.check(
        format!("full {}² images delivered", all_checks[0].res),
        all_checks.iter().all(|c| c.full_images > 0),
    );
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    let refused = tally.failed + tally.backpressure;
    let fail_ratio = refused as f64 / (tally.attempted + tally.backpressure).max(1) as f64;
    if !cfg.trace {
        r.show("fail_ratio", "ratio", fail_ratio);
    } else {
        r.set("fail_ratio", fail_ratio);
        r.set(
            "dt-preprocess.backpressure_events",
            tally.backpressure as f64,
        );
        r.set("dt-preprocess.reconnects", tally.reconnects as f64);
        r.set("dt-preprocess.malformed_frames", tally.malformed as f64);
    }
    r
}
