//! `plan-serve`: a `dt-serve` daemon with 2 workers driven by 2
//! closed-loop client threads (each sends its next request only after the
//! reply). Specs are production scale (162 nodes, batch 1920). Per block
//! of 8 requests, in a seeded order: 1 cold plan on a fresh fingerprint
//! (a store write, presets in rotation), 5 warm plans on one hot MLLM-72B
//! fingerprint (store reads) and 2 degraded replans on it. Set-up is
//! daemon spawn plus the first ping.

use crate::report::{Report, RunCfg};
use crate::stats::{median, percentile, sustained_rate};
use crate::trace::{self, Tracer, WINDOW};
use dt_serve::api::{PlanSummary, ServeReply, ServeRequest, SpecDesc};
use dt_serve::client::{fetch_metrics, Client, ClientError, RetryPolicy};
use dt_serve::daemon::{ServeConfig, ServeHandle};
use dt_simengine::{DetRng, Json, WallTraceSink};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const SETUP_REPS: usize = 75;
const NODES: u32 = 162;
const GPUS: u32 = NODES * 8;
const BATCH: u32 = 1920;
/// Candidate shortlist each request asks for.
const BUDGET: u32 = 2;
/// Attempts per request; every attempt is counted.
const ATTEMPTS: u32 = 3;
const PRESETS: [&str; 3] = ["mllm-9b", "mllm-15b", "mllm-72b"];
/// `ops_per_s` is the rate through the fastest twentieth of up to 100 runs
/// of the window, and `op_ms` the p10 latency: both describe the daemon
/// where the host lets it run. Two clients, two workers and a session
/// thread per request oversubscribe 2 vCPUs, so how much the host's slow
/// state slows a request varies 2× from one stretch to the next: the
/// slower run rates and the p90 and p99 latencies are host scheduling and
/// swing by a third or more between runs, and the median by up to a sixth.
/// Fast stretches, and fast requests within slow ones, recur in nearly
/// every window.
const RATE_CHUNKS: usize = 100;
const RATE_Q: f64 = 0.95;
const OP_Q: f64 = 0.1;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Warm,
    Replan,
}

fn spec(preset: &str, seed: u64) -> SpecDesc {
    SpecDesc {
        preset: preset.into(),
        nodes: NODES,
        global_batch: BATCH,
        microbatch: 1,
        seed,
    }
}

/// One request's outcome as a client saw it.
struct Done {
    kind: Kind,
    /// Latency with retries; infinite when every attempt failed.
    ms: f64,
    at: f64,
    solve_ms: f64,
}

/// Per-thread log of one window.
#[derive(Default)]
struct Log {
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    bad_replies: Vec<String>,
}

impl Log {
    fn absorb(&mut self, other: Log) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bad_replies.extend(other.bad_replies);
    }

    /// Latencies in ms, failed requests as infinite.
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.ms).collect()
    }

    fn rate(&self) -> f64 {
        let done: Vec<(f64, f64)> = self.done.iter().map(|d| (d.at, 1.0)).collect();
        sustained_rate(&done, RATE_CHUNKS, RATE_Q)
    }

    /// Client-side median latency of one request kind.
    fn p50_ms(&self, kind: Kind) -> f64 {
        let ms: Vec<f64> = self
            .done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.ms)
            .collect();
        percentile(&ms, 0.5)
    }
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy {
            seed,
            ..RetryPolicy::default()
        }
    }
}

fn spawn(trace: WallTraceSink) -> ServeHandle {
    ServeHandle::spawn(ServeConfig {
        workers: 2,
        trace,
        ..ServeConfig::default()
    })
    .expect("spawn the daemon")
}

/// The plan fields a warm reply must repeat exactly.
fn same_plan(a: &PlanSummary, b: &PlanSummary) -> bool {
    a.encoder == b.encoder
        && a.backbone == b.backbone
        && a.generator == b.generator
        && a.total_gpus == b.total_gpus
        && a.predicted_iter_secs.to_bits() == b.predicted_iter_secs.to_bits()
}

/// Plan the hot fingerprint once, untimed, so warm requests find it in the
/// store; the reply is what every warm reply must equal.
fn prime(addr: std::net::SocketAddr, hot: &SpecDesc) -> PlanSummary {
    let req = ServeRequest::Plan {
        spec: hot.clone(),
        budget: BUDGET,
        deadline_ms: 0,
    };
    match Client::new(addr).request(&req) {
        Ok(ServeReply::Plan(p)) => p,
        other => panic!("priming plan for the hot fingerprint failed: {other:?}"),
    }
}

/// The request for one slot of the mix, and the most GPUs its plan may use.
fn request_for(kind: Kind, hot: &SpecDesc, preset: &str, rng: &mut DetRng) -> (ServeRequest, u32) {
    let plan = |spec| ServeRequest::Plan {
        spec,
        budget: BUDGET,
        deadline_ms: 0,
    };
    match kind {
        // A seed no other request uses makes a fresh fingerprint; seeds
        // stay below 2^53 so they survive the JSON wire.
        Kind::Cold => (plan(spec(preset, (rng.next_u64() >> 14) | 1 << 50)), GPUS),
        Kind::Warm => (plan(hot.clone()), GPUS),
        Kind::Replan => {
            let remaining = GPUS - 8 * rng.range_u64(1, 5) as u32;
            let req = ServeRequest::Replan {
                spec: hot.clone(),
                remaining_gpus: remaining,
                budget: BUDGET,
                deadline_ms: 0,
            };
            (req, remaining)
        }
    }
}

/// Send `req` with up to [`ATTEMPTS`] attempts, counting every attempt
/// and every failed one; `None` when none succeeded.
fn send(client: &mut Client, req: &ServeRequest, log: &mut Log) -> Option<ServeReply> {
    for attempt in 0..ATTEMPTS {
        log.attempted += 1;
        match client.request(req) {
            Ok(reply) => return Some(reply),
            Err(ClientError::Server(e)) if !e.retryable() => {
                log.failed += 1;
                return None;
            }
            Err(_) => {
                log.failed += 1;
                if attempt + 1 < ATTEMPTS {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
    None
}

/// Drive the daemon from `CLIENTS` threads for `seconds`.
fn measure(
    addr: std::net::SocketAddr,
    seed: u64,
    hot: &SpecDesc,
    reference: &PlanSummary,
    seconds: f64,
    tracer: &Tracer,
    client_trace: &WallTraceSink,
) -> Log {
    let barrier = Barrier::new(CLIENTS as usize);
    let deadline = Duration::from_secs_f64(seconds);
    let start = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, start, tracer) = (&barrier, &start, tracer.clone());
                scope.spawn(move || {
                    let mut rng = DetRng::new(seed ^ (0x5eed_0000 + c));
                    let mut client = Client::with_policy(addr, policy(seed.wrapping_add(c)));
                    if client_trace.is_enabled() {
                        client = client.with_trace(client_trace.clone());
                    }
                    let mut log = Log::default();
                    let mut block: Vec<Kind> = Vec::new();
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    tracer.span(c, WINDOW, || {
                        while t0.elapsed() < deadline {
                            if block.is_empty() {
                                block = [
                                    [Kind::Cold].as_slice(),
                                    &[Kind::Warm; 5],
                                    &[Kind::Replan; 2],
                                ]
                                .concat();
                                rng.shuffle(&mut block);
                            }
                            let kind = block.pop().expect("refilled above");
                            let preset = PRESETS[(log.done.len() + c as usize) % PRESETS.len()];
                            let (req, gpus) = request_for(kind, hot, preset, &mut rng);
                            let t = Instant::now();
                            let reply = tracer.span(c, "dt-serve.client.request", || {
                                send(&mut client, &req, &mut log)
                            });
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let at = t0.elapsed().as_secs_f64();
                            tracer.span(c, "perfbench.check", || {
                                let (ms, solve_ms) = match &reply {
                                    Some(ServeReply::Plan(p)) => {
                                        let ok = match kind {
                                            Kind::Warm => p.warm && same_plan(p, reference),
                                            Kind::Cold => !p.warm && p.total_gpus <= gpus,
                                            Kind::Replan => p.total_gpus <= gpus,
                                        };
                                        if !ok {
                                            log.bad_replies.push(format!("{req:?} -> {p:?}"));
                                        }
                                        (ms, p.solve_ms)
                                    }
                                    Some(other) => {
                                        log.bad_replies.push(format!("{req:?} -> {other:?}"));
                                        (ms, 0.0)
                                    }
                                    None => (f64::INFINITY, 0.0),
                                };
                                log.done.push(Done {
                                    kind,
                                    ms,
                                    at,
                                    solve_ms,
                                });
                            });
                        }
                    });
                    log
                })
            })
            .collect();
        let mut all = Log::default();
        for h in handles {
            all.absorb(h.join().expect("client thread"));
        }
        all
    })
}

/// Sum every sample of a Prometheus family (all label sets).
fn family_total(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .fold(0.0, |acc, v| acc + v)
}

/// The exported median of `dt_serve_request_seconds{kind}`, in ms.
fn server_p50_ms(text: &str, kind: &str) -> f64 {
    let prefix = format!("dt_serve_request_seconds{{kind=\"{kind}\",quantile=\"0.5\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0.0, |s| s * 1e3)
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let hot = spec("mllm-72b", cfg.seed);

    let mut setups = Vec::new();
    let mut daemon = None;
    let mut pongs = true;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let d = spawn(WallTraceSink::disabled());
        let pong = Client::with_policy(d.addr, policy(cfg.seed)).request(&ServeRequest::Ping);
        setups.push(t.elapsed().as_secs_f64());
        pongs &= matches!(pong, Ok(ServeReply::Pong));
        if let Some(mut old) = daemon.replace(d) {
            old.shutdown();
        }
    }
    r.check("every set-up ping answers Pong", pongs);
    let mut daemon = daemon.expect("SETUP_REPS > 0");
    let reference = prime(daemon.addr, &hot);
    let phase = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let w = measure(
        daemon.addr,
        cfg.seed,
        &hot,
        &reference,
        phase,
        &Tracer::off(),
        &WallTraceSink::disabled(),
    );
    daemon.shutdown();

    let lat = w.latencies();
    let rate = w.rate();
    r.note("setup_reps", Json::num_u64(SETUP_REPS as u64));
    r.note("percentile_samples", Json::num_u64(lat.len() as u64));
    r.set("setup_s", median(&setups));
    r.set("ops_per_s", rate);
    r.set("op_ms", percentile(&lat, OP_Q));
    r.note("op_quantile", Json::Num(OP_Q));
    r.show("req_per_s", "req/s", rate);
    r.show("latency_ms_p50", "ms", percentile(&lat, 0.50));
    r.show("latency_ms_p99", "ms", percentile(&lat, 0.99));

    let mut total = w;
    if cfg.trace {
        let tracer = Tracer::on();
        let daemon_sink = WallTraceSink::new();
        let client_sink = WallTraceSink::new();
        let mut daemon = spawn(daemon_sink.clone());
        let reference = prime(daemon.addr, &hot);
        let tw = measure(
            daemon.addr,
            cfg.seed,
            &hot,
            &reference,
            phase,
            &tracer,
            &client_sink,
        );
        let metrics = fetch_metrics(daemon.addr).unwrap_or_default();
        let (hits, misses) = daemon.store_stats();
        daemon.shutdown();
        r.set("trace.overhead_pct", (rate / tw.rate() - 1.0) * 100.0);
        r.set("dt-serve.cold_plan_ms", tw.p50_ms(Kind::Cold));
        r.set("dt-serve.warm_plan_ms", tw.p50_ms(Kind::Warm));
        r.set("dt-serve.replan_ms", tw.p50_ms(Kind::Replan));
        let solve: Vec<f64> = tw.done.iter().map(|d| d.solve_ms).collect();
        r.set("dt-serve.solve_ms", median(&solve));
        r.set("dt-serve.server_plan_ms", server_p50_ms(&metrics, "plan"));
        r.set(
            "dt-serve.server_replan_ms",
            server_p50_ms(&metrics, "replan"),
        );
        r.set(
            "dt-serve.store_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        r.set(
            "dt-serve.rejected",
            family_total(&metrics, "dt_serve_rejected_total"),
        );
        r.check(
            "/metrics exposes the request histogram",
            metrics.contains("dt_serve_request_seconds"),
        );
        for (kind, key) in [
            (Kind::Cold, "cold_samples"),
            (Kind::Warm, "warm_samples"),
            (Kind::Replan, "replan_samples"),
        ] {
            let n = tw.done.iter().filter(|d| d.kind == kind).count();
            r.note(key, Json::num_u64(n as u64));
        }
        trace::print_table("plan-serve", &trace::self_times(&tracer.spans()));
        let path = cfg.trace_path("plan-serve");
        if let Err(e) = tracer.write_chrome(&path, &[daemon_sink, client_sink]) {
            r.check(format!("write Chrome trace: {e}"), false);
        }
        total.absorb(tw);
    }

    for b in total.bad_replies.iter().take(3) {
        eprintln!("plan-serve: unexpected reply: {b}");
    }
    r.check(
        "every reply is a valid plan (warm = cold reference, replan within budget)",
        total.bad_replies.is_empty(),
    );
    r.check(
        "every request completes",
        total.done.iter().all(|d| d.ms.is_finite()),
    );
    r.attempted = total.attempted;
    r.failed = total.failed;
    let fail_ratio = total.failed as f64 / total.attempted.max(1) as f64;
    if cfg.trace {
        r.set("fail_ratio", fail_ratio);
    } else {
        r.show("fail_ratio", "ratio", fail_ratio);
    }
    r
}
