//! The producer half of the §6 preprocessing data plane: N TCP endpoints
//! on dedicated "CPU nodes" that generate, reorder, and preprocess global
//! batches on one shared decode pool, streaming them to M GPU-side consumers
//! (§5.1's producer, scaled to the paper's many-producers topology).
//!
//! ## Architecture
//!
//! [`Preprocess::builder`] validates the topology up front (typed
//! [`PreprocessError::InvalidSpec`], no socket touched on rejection) and
//! spawns one **nonblocking event loop** per producer endpoint:
//!
//! * the listener and every session socket run nonblocking; one loop
//!   thread multiplexes accepts, incremental frame reads, request
//!   parsing, and incremental vectored writes across all sessions of its
//!   endpoint — a hostile peer that stops reading can never wedge the
//!   other sessions;
//! * each accepted session owns a deterministic sample stream (derived
//!   seed) generated by a dedicated **generator thread** running the
//!   fetch → reorder → decode pipeline;
//! * decode runs on **one persistent pool per plane**
//!   ([`PreprocessBuilder::workers`] threads, spawned with the plane,
//!   shared by every endpoint and session, joined by
//!   [`PreprocessHandle::shutdown`]), so no batch spawns a thread; the
//!   generator queues the batch's image **bands** in order (see
//!   [`crate::codec`]), so one giant image spreads over every decode
//!   thread, each band linked to the next by the one-shot carry of the
//!   decoder's running byte, and the decoded bands are the payload's
//!   chunks;
//! * generator and event loop meet at a **bounded batch queue**
//!   ([`PreprocessBuilder::queue_capacity`]): when the consumer falls
//!   behind, the generator receives a typed
//!   [`PreprocessError::Backpressured`] signal (counted in
//!   [`PlaneStats`] and `dt_preprocess_backpressure_total`) and *waits* —
//!   explicit backpressure instead of unbounded buffering;
//! * responses leave through the coalesced zero-copy framing of
//!   [`crate::frame::write_batch_frames`]: the JSON header frame and the
//!   multi-chunk payload frame go out in one vectored write, without ever
//!   materializing the concatenated payload;
//! * every accepted socket runs with `TCP_NODELAY`
//!   ([`crate::frame::set_nodelay`]), and the consumer's requests leave
//!   one write per frame, so no frame waits on Nagle for a delayed ACK.
//!
//! Wire protocol, framing, and the per-session deterministic streams are
//! unchanged from the single-producer service, so old consumers (and the
//! colocated-equivalence guarantee) keep working byte-for-byte.

use crate::codec::{preprocess_sample, token_len, Image};
use crate::error::PreprocessError;
use crate::frame::{set_nodelay, WireJson, MAX_FRAME, TRACE_FLAG};
use crate::reorder_planner::ReorderPlanner;
use crate::wire::{BatchHeader, Request};
use dt_data::{DataConfig, SyntheticLaion, TrainSample};
use dt_simengine::json::Json;
use dt_simengine::trace::{cat, TraceContext, WallTraceSink, TRACE_CONTEXT_LEN};
use dt_telemetry::flight::DEFAULT_RING_CAPACITY;
use dt_telemetry::{names, FlightLog, FlightRecorder, Telemetry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Chrome-trace process id for the producer service's wall-clock spans,
/// chosen far above any simulated DP-rank pid so both trace sources can be
/// merged into one file without track collisions.
pub const PREPROCESS_PID: u64 = 1_000;

/// Requests are tiny JSON control frames; anything claiming more than
/// this is a hostile or corrupt peer and closes the session as
/// [`PreprocessError::Malformed`].
const MAX_REQUEST_FRAME: usize = 64 * 1024;

/// Cap on FetchBatch requests a session may keep outstanding — a sane
/// consumer pipelines at most its prefetch depth; millions of queued
/// requests are an attack on the request queue's memory.
const MAX_OUTSTANDING_REQUESTS: usize = 10_000;

/// Per-endpoint seed stride (endpoint 0 keeps the configured seed, so a
/// single-endpoint plane is stream-identical to the old single-producer
/// service and to [`crate::feeder::ColocatedFeeder`]).
const ENDPOINT_SEED_STRIDE: u64 = 0xA24B_AF5B_7C1D_9E35;

/// Per-session seed stride within one endpoint (unchanged from the
/// original service: each client gets its own deterministic stream).
const SESSION_SEED_STRIDE: u64 = 0x9E37_79B9;

// ---------------------------------------------------------------------------
// Public API: builder + handle
// ---------------------------------------------------------------------------

/// Namespace for the data-plane builder: [`Preprocess::builder`].
#[derive(Debug)]
pub struct Preprocess;

impl Preprocess {
    /// Start describing a preprocessing data plane for one dataset
    /// distribution and base seed. Every knob has a production-shaped
    /// default; [`PreprocessBuilder::spawn`] validates before binding.
    pub fn builder(data: DataConfig, seed: u64) -> PreprocessBuilder {
        PreprocessBuilder {
            data,
            seed,
            producers: 1,
            workers: 4,
            queue_capacity: 4,
            planner: None,
            fault_delay: None,
            trace: None,
            telemetry: Telemetry::disabled(),
            flight: FlightLog::disabled(),
        }
    }
}

/// Validated configuration of a preprocessing data plane (§6 producer
/// side). Construct via [`Preprocess::builder`], launch via
/// [`PreprocessBuilder::spawn`].
#[derive(Debug, Clone)]
pub struct PreprocessBuilder {
    data: DataConfig,
    seed: u64,
    producers: usize,
    workers: u32,
    queue_capacity: usize,
    planner: Option<ReorderPlanner>,
    fault_delay: Option<Duration>,
    trace: Option<WallTraceSink>,
    telemetry: Telemetry,
    flight: FlightLog,
}

impl PreprocessBuilder {
    /// Number of producer endpoints (listening sockets) — the paper's N
    /// CPU nodes. Each gets its own event loop and seed lane.
    pub fn producers(mut self, n: usize) -> Self {
        self.producers = n;
        self
    }

    /// Decode threads of the plane: one persistent pool of this many
    /// threads, shared by every endpoint and session. The pool decodes
    /// image bands, so even a one-sample batch of one giant image uses
    /// every thread; a batch of small images is grouped into at most
    /// this many jobs.
    pub fn workers(mut self, n: u32) -> Self {
        self.workers = n;
        self
    }

    /// Bound of each session's ready-batch queue: how many preprocessed
    /// batches a generator may run ahead of the socket before it is
    /// backpressured ([`PreprocessError::Backpressured`]).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Optional reordering stage (Algorithms 1–2), run on the producer
    /// where it is free (§5.1).
    pub fn planner(mut self, planner: ReorderPlanner) -> Self {
        self.planner = Some(planner);
        self
    }

    /// Test-only fault injection: extra delay before each batch
    /// (simulates an overloaded/slow CPU node).
    pub fn fault_delay(mut self, delay: Duration) -> Self {
        self.fault_delay = Some(delay);
        self
    }

    /// Attach a wall-clock trace sink: every served batch records
    /// `preprocess.fetch` / `preprocess.decode` / `preprocess.feed` spans
    /// (on process [`PREPROCESS_PID`], one thread track per session).
    pub fn trace(mut self, sink: WallTraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Metrics sink: fetch/decode/feed latencies, batch/sample counters,
    /// plus the data-plane counters (backpressure, sessions, malformed).
    /// The registry is shared across all endpoint and generator threads.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Black-box flight recorder: every session keeps a bounded ring of
    /// recent events (requests, batches, backpressure) and freezes it to
    /// this log on `malformed` / `backpressure` / `panic` triggers.
    pub fn flight(mut self, flight: FlightLog) -> Self {
        self.flight = flight;
        self
    }

    /// Validate the spec, bind every endpoint, and start the event loops.
    ///
    /// Rejections are typed and happen before any socket is bound:
    /// zero `workers`, zero `producers`, or `queue_capacity` 0 are
    /// [`PreprocessError::InvalidSpec`]; a bind failure is
    /// [`PreprocessError::Bind`].
    pub fn spawn(self) -> Result<PreprocessHandle, PreprocessError> {
        if self.workers == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "workers must be >= 1 (a producer with no decode workers cannot make progress)".into(),
            });
        }
        if self.producers == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "producers must be >= 1 (the plane needs at least one endpoint)".into(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(PreprocessError::InvalidSpec {
                reason: "queue_capacity must be >= 1 (a zero-capacity queue deadlocks every session at its first batch)".into(),
            });
        }
        let stats = Arc::new(PlaneStats::default());
        let (pool, decode_threads) =
            DecodePool::spawn(self.workers, &stats).map_err(|e| PreprocessError::Bind {
                addr: "127.0.0.1:0".into(),
                reason: format!("spawn decode pool: {e}"),
            })?;
        let cfg = Arc::new(self);
        // Built before the first endpoint, so a failure part-way drops it
        // and its `Drop` stops and joins whatever already started.
        let mut handle = PreprocessHandle {
            addrs: Vec::with_capacity(cfg.producers),
            stop: Arc::new(AtomicBool::new(false)),
            joins: Vec::with_capacity(cfg.producers),
            stats,
            pool: Some(pool),
            decode_threads,
            clean: true,
        };
        for endpoint in 0..cfg.producers {
            let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| PreprocessError::Bind {
                addr: "127.0.0.1:0".into(),
                reason: e.to_string(),
            })?;
            let addr = listener.local_addr().map_err(|e| PreprocessError::Bind {
                addr: "127.0.0.1:0".into(),
                reason: e.to_string(),
            })?;
            listener.set_nonblocking(true).map_err(|e| PreprocessError::Bind {
                addr: addr.to_string(),
                reason: format!("set_nonblocking: {e}"),
            })?;
            let cfg = cfg.clone();
            let stop = handle.stop.clone();
            let stats = handle.stats.clone();
            let pool = handle.pool.clone().expect("the pool lives until shutdown");
            let join = std::thread::Builder::new()
                .name(format!("dt-preprocess-ep{endpoint}"))
                .spawn(move || endpoint_loop(listener, endpoint as u64, cfg, stop, stats, pool))
                .map_err(|e| PreprocessError::Bind {
                    addr: addr.to_string(),
                    reason: format!("spawn event loop: {e}"),
                })?;
            handle.addrs.push(addr);
            handle.joins.push(join);
        }
        Ok(handle)
    }
}

/// Live counters of one data plane, shared by all its threads.
#[derive(Debug, Default)]
pub struct PlaneStats {
    backpressure: AtomicU64,
    sessions: AtomicU64,
    malformed: AtomicU64,
    panicked: AtomicBool,
    next_tid: AtomicU64,
}

/// Point-in-time copy of [`PlaneStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneStatsSnapshot {
    /// Backpressure events: a ready batch found its session queue full.
    pub backpressure_events: u64,
    /// Consumer sessions accepted across all endpoints.
    pub sessions_accepted: u64,
    /// Sessions closed for protocol violations (hostile/corrupt peers).
    pub malformed_frames: u64,
}

/// A running data plane; dropping it (or calling
/// [`PreprocessHandle::shutdown`]) drains and stops every endpoint.
#[derive(Debug)]
pub struct PreprocessHandle {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    joins: Vec<JoinHandle<()>>,
    stats: Arc<PlaneStats>,
    /// The decode pool's job queue; `None` once shutdown closed it.
    pool: Option<Arc<DecodePool>>,
    decode_threads: Vec<JoinHandle<()>>,
    clean: bool,
}

impl PreprocessHandle {
    /// The endpoint addresses consumers connect to, one per producer.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The first endpoint — convenience for single-producer planes.
    pub fn addr(&self) -> SocketAddr {
        self.addrs[0]
    }

    /// Current data-plane counters.
    pub fn stats(&self) -> PlaneStatsSnapshot {
        PlaneStatsSnapshot {
            backpressure_events: self.stats.backpressure.load(Ordering::Relaxed),
            sessions_accepted: self.stats.sessions.load(Ordering::Relaxed),
            malformed_frames: self.stats.malformed.load(Ordering::Relaxed),
        }
    }

    /// Stop every endpoint, join every thread. Returns `true` when all
    /// event loops, generators and decode jobs finished cleanly (nothing
    /// panicked) — the property the end-to-end fuzz oracle asserts after
    /// feeding the plane hostile traffic.
    pub fn shutdown(&mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        for join in self.joins.drain(..) {
            if join.join().is_err() {
                self.clean = false;
            }
        }
        // Every event loop joined its generators, so this is the last
        // sender on the job queue: the decode threads drain it and exit.
        self.pool = None;
        for join in self.decode_threads.drain(..) {
            if join.join().is_err() {
                self.clean = false;
            }
        }
        self.clean && !self.stats.panicked.load(Ordering::SeqCst)
    }
}

impl Drop for PreprocessHandle {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Bounded batch queue (generator → event loop) with typed backpressure
// ---------------------------------------------------------------------------

/// One preprocessed batch, framed for the wire but never concatenated:
/// the event loop writes `header_json` and the decoded bands' `chunks`
/// (in batch order) directly via one vectored write.
struct ReadyBatch {
    header_json: Vec<u8>,
    chunks: Vec<Vec<u8>>,
    count: u32,
    /// Trace context of the FetchBatch that requested this batch, echoed
    /// back on the response's header frame so the consumer can link its
    /// prefetch span to the producer-side pipeline spans.
    ctx: Option<TraceContext>,
}

/// Bounded MPSC queue between one session's generator and its event
/// loop. `try_push` is the typed backpressure edge: a full queue returns
/// [`PreprocessError::Backpressured`] with the observed depth instead of
/// growing.
struct BatchQueue {
    inner: Mutex<VecDeque<ReadyBatch>>,
    not_full: Condvar,
    cap: usize,
}

impl BatchQueue {
    fn new(cap: usize) -> Self {
        BatchQueue { inner: Mutex::new(VecDeque::new()), not_full: Condvar::new(), cap }
    }

    /// Push without blocking; a full queue refuses with the typed signal.
    /// The refused batch rides back in the `Err` by design — the caller
    /// parks it and retries, so the payload must not be dropped or boxed
    /// away.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, batch: ReadyBatch) -> Result<(), (ReadyBatch, PreprocessError)> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.cap {
            let depth = q.len();
            drop(q);
            Err((batch, PreprocessError::Backpressured { queue_depth: depth }))
        } else {
            q.push_back(batch);
            Ok(())
        }
    }

    /// Block (with a stop-poll timeout) until the queue has room.
    fn wait_not_full(&self, timeout: Duration) {
        let q = self.inner.lock().unwrap();
        if q.len() >= self.cap {
            let _ = self.not_full.wait_timeout(q, timeout).unwrap();
        }
    }

    fn try_pop(&self) -> Option<ReadyBatch> {
        let mut q = self.inner.lock().unwrap();
        let batch = q.pop_front();
        if batch.is_some() {
            self.not_full.notify_one();
        }
        batch
    }

    fn wake_all(&self) {
        self.not_full.notify_all();
    }
}

/// Unbounded-but-capped queue of FetchBatch counts (event loop →
/// generator), each with the request's optional trace context. Entries
/// are tiny; the cap is an anti-abuse bound, not flow control (that is
/// [`BatchQueue`]'s job).
struct RequestQueue {
    inner: Mutex<VecDeque<(u32, Option<TraceContext>)>>,
    nonempty: Condvar,
}

impl RequestQueue {
    fn new() -> Self {
        RequestQueue { inner: Mutex::new(VecDeque::new()), nonempty: Condvar::new() }
    }

    /// Returns the queue length after pushing, or `None` past the abuse cap.
    fn push(&self, count: u32, ctx: Option<TraceContext>) -> Option<usize> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= MAX_OUTSTANDING_REQUESTS {
            return None;
        }
        q.push_back((count, ctx));
        let len = q.len();
        drop(q);
        self.nonempty.notify_one();
        Some(len)
    }

    fn pop(&self, timeout: Duration) -> Option<(u32, Option<TraceContext>)> {
        let mut q = self.inner.lock().unwrap();
        if q.is_empty() {
            let (guard, _) = self.nonempty.wait_timeout(q, timeout).unwrap();
            q = guard;
        }
        q.pop_front()
    }

    fn wake_all(&self) {
        self.nonempty.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Generator: the per-session producer pipeline
// ---------------------------------------------------------------------------

/// Preprocess a batch on `workers` threads; returns per-sample token
/// bytes in input order.
pub fn preprocess_parallel(samples: &[TrainSample], workers: u32) -> Vec<Vec<u8>> {
    let workers = (workers.max(1) as usize).min(samples.len().max(1));
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); samples.len()];
    let chunk = samples.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (samples_chunk, out_chunk) in samples.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (s, o) in samples_chunk.iter().zip(out_chunk.iter_mut()) {
                    *o = preprocess_sample(s).token_bytes;
                }
            });
        }
    });
    out
}

/// One unit of decode-pool work.
type DecodeJob = Box<dyn FnOnce() + Send>;

/// One band queued on the decode pool, linked into its image's carry
/// chain by one-shot channels.
struct BandTask {
    image: Arc<Image>,
    band: usize,
    /// The running byte entering the band, sent by its predecessor;
    /// `None` for an image's first band.
    enter: Option<Receiver<u8>>,
    /// Where the byte leaving the band goes; `None` for the last band.
    leave: Option<SyncSender<u8>>,
}

/// Where a [`BandJob`] answers: its bands' pieces, in order.
type Pieces = Receiver<Vec<Vec<u8>>>;

/// A pool job: some bands, decoded in order, each into its own
/// exactly-sized piece of token bytes.
struct BandJob {
    tasks: Vec<BandTask>,
    done: SyncSender<Vec<Vec<u8>>>,
}

impl BandJob {
    /// Decode every band and send the pieces back. A band whose
    /// predecessor died (its sender dropped unsent) gives up, and dropping
    /// this job's own senders carries the failure down the chain and to
    /// the collector.
    fn run(self) {
        let mut pieces = Vec::with_capacity(self.tasks.len());
        for BandTask { image, band, enter, leave } in self.tasks {
            let mut piece = vec![0u8; image.band_len(band)];
            let entering = || enter?.recv().ok();
            let leaving = |carry| {
                if let Some(tx) = leave {
                    let _ = tx.send(carry);
                }
            };
            if image.decode_band(band, entering, leaving, &mut piece).is_none() {
                return;
            }
            pieces.push(piece);
        }
        let _ = self.done.send(pieces);
    }
}

/// Cut a batch into pool jobs, in batch order. Every band of a
/// multi-band image is a job of its own, queued in chain order; runs of
/// single-band images are grouped, each job taking at most a `width`-th
/// of the batch's single-band images. Returns the jobs and, in the same
/// order, where each job will send its pieces.
fn band_jobs(samples: &[TrainSample], width: usize) -> (Vec<BandJob>, Vec<Pieces>) {
    let images: Vec<Arc<Image>> = samples
        .iter()
        .flat_map(|s| (0..s.image_resolutions.len()).map(|i| Arc::new(Image::new(s, i))))
        .collect();
    let singles = images.iter().filter(|image| image.bands() == 1).count();
    let per_group = singles.div_ceil(width).max(1);
    let mut planned: Vec<Vec<BandTask>> = Vec::new();
    let mut group = Vec::new();
    for image in images {
        let bands = image.bands();
        if bands == 1 {
            group.push(BandTask { image, band: 0, enter: None, leave: None });
            if group.len() == per_group {
                planned.push(std::mem::take(&mut group));
            }
            continue;
        }
        if !group.is_empty() {
            planned.push(std::mem::take(&mut group));
        }
        let mut enter = None;
        for band in 0..bands {
            let (leave, next) = if band + 1 < bands {
                let (tx, rx) = mpsc::sync_channel(1);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            let enter = std::mem::replace(&mut enter, next);
            planned.push(vec![BandTask { image: image.clone(), band, enter, leave }]);
        }
    }
    if !group.is_empty() {
        planned.push(group);
    }
    planned
        .into_iter()
        .map(|tasks| {
            let (done, pieces) = mpsc::sync_channel(1);
            (BandJob { tasks, done }, pieces)
        })
        .unzip()
}

/// Wait for every job's pieces, in batch order: their concatenation is
/// the batch's token bytes. `None` when a job died without answering (a
/// decode panic, here or earlier in its chain).
fn collect_bands(pending: Vec<Pieces>) -> Option<Vec<Vec<u8>>> {
    let mut chunks = Vec::new();
    for pieces in pending {
        chunks.extend(pieces.recv().ok()?);
    }
    Some(chunks)
}

/// The plane's decode threads: one shared job queue served by a fixed
/// set of persistent threads, so generating a batch never spawns one.
#[derive(Debug)]
struct DecodePool {
    jobs: Sender<DecodeJob>,
    /// The pool's thread count: a batch's single-band images are grouped
    /// into jobs of at most a `width`-th of them.
    width: usize,
}

impl DecodePool {
    /// Start `workers` decode threads. A job that panics is caught: it
    /// marks the plane panicked (so [`PreprocessHandle::shutdown`]
    /// reports `false`) and its thread keeps serving. The threads exit
    /// once every [`DecodePool`] handle is dropped and the queue drained.
    fn spawn(
        workers: u32,
        stats: &Arc<PlaneStats>,
    ) -> io::Result<(Arc<DecodePool>, Vec<JoinHandle<()>>)> {
        let (jobs, queue) = mpsc::channel::<DecodeJob>();
        let queue = Arc::new(Mutex::new(queue));
        let threads = (0..workers)
            .map(|i| {
                let queue = queue.clone();
                let stats = stats.clone();
                std::thread::Builder::new().name(format!("dt-preprocess-decode{i}")).spawn(
                    move || loop {
                        // Bound first: the guard must drop before the job
                        // runs, so a panicking job never poisons the lock.
                        let job = queue.lock().expect("no job runs under the queue lock").recv();
                        let Ok(job) = job else { return };
                        if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                            stats.panicked.store(true, Ordering::SeqCst);
                        }
                    },
                )
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok((Arc::new(DecodePool { jobs, width: workers as usize }), threads))
    }

    /// Decode `samples` on the pool: the batch's bands are queued in order
    /// ([`band_jobs`]) and the calling thread waits for their pieces. The
    /// queue is FIFO, so a band only ever waits for the carry of a band
    /// dequeued before it, and one giant image spreads over every decode
    /// thread. Returns one chunk per band, in batch order; their
    /// concatenation is byte-identical to [`preprocess_sample`] on each
    /// sample in turn. `None` when a pool job died without answering (a
    /// decode panic).
    fn decode(&self, samples: &[TrainSample]) -> Option<Vec<Vec<u8>>> {
        let (jobs, pending) = band_jobs(samples, self.width);
        for job in jobs {
            self.jobs.send(Box::new(move || job.run())).ok()?;
        }
        collect_bands(pending)
    }
}

struct GeneratorCtx {
    cfg: Arc<PreprocessBuilder>,
    pool: Arc<DecodePool>,
    requests: Arc<RequestQueue>,
    queue: Arc<BatchQueue>,
    session_stop: Arc<AtomicBool>,
    plane_stop: Arc<AtomicBool>,
    stats: Arc<PlaneStats>,
    seed: u64,
    tid: u64,
    /// Shared with the session's event-loop side: generator pipeline
    /// events and socket-side events interleave in one ring.
    flight: FlightRecorder,
}

/// Freeze a recorder's ring into the plane's [`FlightLog`] and count the
/// dump (labelled by trigger). One branch and nothing else when disabled.
fn flight_dump(flight: &FlightRecorder, tel: &Telemetry, reason: &'static str) {
    if !flight.is_enabled() {
        return;
    }
    flight.dump(reason);
    tel.with(|r| r.counter(names::FLIGHT_DUMPS_TOTAL, &[("reason", reason)]).inc());
}

fn generator_loop(ctx: GeneratorCtx) {
    let mut gen = SyntheticLaion::new(ctx.cfg.data.clone(), ctx.seed);
    let stopped =
        || ctx.session_stop.load(Ordering::SeqCst) || ctx.plane_stop.load(Ordering::SeqCst);
    loop {
        if stopped() {
            return;
        }
        let Some((count, req_ctx)) = ctx.requests.pop(Duration::from_millis(20)) else {
            continue;
        };
        if let Some(delay) = ctx.cfg.fault_delay {
            std::thread::sleep(delay);
        }
        let trace_id = req_ctx.map_or(0, |c| c.trace_id);
        let started = Instant::now();
        let mut samples = gen.take(count as usize);
        if let Some(planner) = &ctx.cfg.planner {
            samples = planner.reorder(samples);
        }
        if let Some(sink) = &ctx.cfg.trace {
            // Producer-side spans parent under the consumer's prefetch
            // span (the request context's parent): fetch/decode/feed are
            // deterministic child seqs 1/2/3 of the same wire context.
            sink.record_traced(
                format!("fetch x{count}"),
                cat::PRE_FETCH,
                PREPROCESS_PID,
                ctx.tid,
                started,
                req_ctx.as_ref(),
                req_ctx.map_or(0, |c| c.span_id(1)),
            );
        }
        ctx.cfg.telemetry.with(|r| {
            r.histogram(names::PREPROCESS_FETCH_SECONDS, &[])
                .observe_traced(started.elapsed().as_secs_f64(), trace_id)
        });
        let decode_started = Instant::now();
        let Some(chunks) = ctx.pool.decode(&samples) else {
            // A decode job panicked (the pool marked the plane): this
            // session's stream cannot continue.
            ctx.flight.record("panic", trace_id, || "decode job panicked".into());
            flight_dump(&ctx.flight, &ctx.cfg.telemetry, "panic");
            return;
        };
        if let Some(sink) = &ctx.cfg.trace {
            sink.record_traced(
                format!("decode x{count}"),
                cat::PRE_DECODE,
                PREPROCESS_PID,
                ctx.tid,
                decode_started,
                req_ctx.as_ref(),
                req_ctx.map_or(0, |c| c.span_id(2)),
            );
        }
        ctx.cfg.telemetry.with(|r| {
            r.histogram(names::PREPROCESS_DECODE_SECONDS, &[])
                .observe_traced(decode_started.elapsed().as_secs_f64(), trace_id)
        });
        ctx.flight.record("batch", trace_id, || {
            format!("generated x{count} in {} us", started.elapsed().as_micros())
        });
        let header = BatchHeader {
            token_lens: samples.iter().map(|s| token_len(s) as u64).collect(),
            samples,
            producer_cpu_ns: started.elapsed().as_nanos() as u64,
        };
        let mut batch = ReadyBatch {
            header_json: header.to_json().to_string().into_bytes(),
            chunks,
            count,
            ctx: req_ctx,
        };
        // The backpressure edge: a full queue refuses the batch with the
        // typed signal; the generator counts the event once and *waits*
        // for the event loop to drain a slot — never unbounded buffering.
        let mut signalled = false;
        loop {
            match ctx.queue.try_push(batch) {
                Ok(()) => break,
                Err((refused, PreprocessError::Backpressured { queue_depth })) if !signalled => {
                    signalled = true;
                    ctx.stats.backpressure.fetch_add(1, Ordering::Relaxed);
                    ctx.cfg
                        .telemetry
                        .with(|r| r.counter(names::PREPROCESS_BACKPRESSURE_TOTAL, &[]).inc());
                    ctx.flight.record("backpressure", trace_id, || {
                        format!("batch x{count} refused at queue depth {queue_depth}")
                    });
                    flight_dump(&ctx.flight, &ctx.cfg.telemetry, "backpressure");
                    batch = refused;
                }
                Err((refused, _)) => batch = refused,
            }
            if stopped() {
                return;
            }
            ctx.queue.wait_not_full(Duration::from_millis(20));
        }
    }
}

// ---------------------------------------------------------------------------
// Event loop: nonblocking accept/read/write multiplexer per endpoint
// ---------------------------------------------------------------------------

struct Session {
    stream: TcpStream,
    inbuf: Vec<u8>,
    /// Trace track shared with this session's generator spans.
    tid: u64,
    /// Responses owed (requests forwarded minus responses fully written).
    pending: usize,
    /// The response currently being written, with its progress.
    outgoing: Option<Outgoing>,
    requests: Arc<RequestQueue>,
    queue: Arc<BatchQueue>,
    session_stop: Arc<AtomicBool>,
    gen_join: Option<JoinHandle<()>>,
    /// Bounded ring of this session's recent events (shared with its
    /// generator), frozen to the plane's log on malformed/panic triggers.
    flight: FlightRecorder,
    closed: bool,
}

struct Outgoing {
    batch: ReadyBatch,
    header_head: [u8; 4],
    /// Encoded trace context echoed ahead of the header JSON when the
    /// request carried one (`ctx_len` is 0 or [`TRACE_CONTEXT_LEN`]).
    ctx_bytes: [u8; TRACE_CONTEXT_LEN],
    ctx_len: usize,
    payload_head: [u8; 4],
    total: usize,
    written: usize,
    feed_started: Instant,
}

impl Outgoing {
    fn new(batch: ReadyBatch) -> Outgoing {
        let header_len = batch.header_json.len();
        let payload_len: usize = batch.chunks.iter().map(|c| c.len()).sum();
        let (header_word, ctx_bytes, ctx_len) = match &batch.ctx {
            Some(ctx) => (
                (header_len + TRACE_CONTEXT_LEN) as u32 | TRACE_FLAG,
                ctx.encode(),
                TRACE_CONTEXT_LEN,
            ),
            None => (header_len as u32, [0u8; TRACE_CONTEXT_LEN], 0),
        };
        Outgoing {
            header_head: header_word.to_le_bytes(),
            ctx_bytes,
            ctx_len,
            payload_head: (payload_len as u32).to_le_bytes(),
            total: 4 + ctx_len + header_len + 4 + payload_len,
            written: 0,
            feed_started: Instant::now(),
            batch,
        }
    }

    /// Push the response forward with nonblocking vectored writes until
    /// fully written (`Ok`) or the socket refuses more (`WouldBlock`).
    fn step(&mut self, stream: &mut TcpStream) -> io::Result<()> {
        while self.written < self.total {
            let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(4 + self.batch.chunks.len());
            let mut skip = self.written;
            let parts = [
                &self.header_head[..],
                &self.ctx_bytes[..self.ctx_len],
                &self.batch.header_json,
                &self.payload_head[..],
            ];
            for p in parts.into_iter().chain(self.batch.chunks.iter().map(|c| c.as_slice())) {
                if skip >= p.len() {
                    skip -= p.len();
                } else {
                    slices.push(io::IoSlice::new(&p[skip..]));
                    skip = 0;
                }
            }
            match stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading"))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// One complete request frame: its optional trace context and payload.
type RequestFrame = (Option<TraceContext>, Vec<u8>);

/// Incremental frame parser over a session's input buffer: returns one
/// complete request frame (optional trace context + payload) when
/// available, `Ok(None)` when more bytes are needed, or the protocol
/// violation. Mirrors [`crate::frame::read_frame_ctx`]'s wire format on a
/// nonblocking buffer instead of a blocking reader.
fn next_request_frame(inbuf: &mut Vec<u8>) -> Result<Option<RequestFrame>, PreprocessError> {
    if inbuf.len() < 4 {
        return Ok(None);
    }
    let word = u32::from_le_bytes([inbuf[0], inbuf[1], inbuf[2], inbuf[3]]);
    let traced = word & TRACE_FLAG != 0;
    let len = word & !TRACE_FLAG;
    if len > MAX_FRAME {
        return Err(PreprocessError::Malformed {
            reason: format!("request frame header claims {len} bytes (> MAX_FRAME)"),
        });
    }
    let len = len as usize;
    if len > MAX_REQUEST_FRAME {
        return Err(PreprocessError::Malformed {
            reason: format!("request frame of {len} bytes (control frames are tiny)"),
        });
    }
    if traced && len < TRACE_CONTEXT_LEN {
        return Err(PreprocessError::Malformed {
            reason: format!("flagged request frame of {len} bytes (shorter than its trace context)"),
        });
    }
    if inbuf.len() < 4 + len {
        return Ok(None);
    }
    let (ctx, payload) = if traced {
        let ctx = TraceContext::decode(&inbuf[4..4 + TRACE_CONTEXT_LEN]).ok_or_else(|| {
            PreprocessError::Malformed { reason: "request trace context with zero trace id".into() }
        })?;
        (Some(ctx), inbuf[4 + TRACE_CONTEXT_LEN..4 + len].to_vec())
    } else {
        (None, inbuf[4..4 + len].to_vec())
    };
    inbuf.drain(..4 + len);
    Ok(Some((ctx, payload)))
}

fn parse_request(payload: &[u8]) -> Result<Request, PreprocessError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| PreprocessError::Malformed { reason: format!("request not UTF-8: {e}") })?;
    let value = Json::parse(text)
        .map_err(|e| PreprocessError::Malformed { reason: format!("request not JSON: {e}") })?;
    Request::from_json(&value).map_err(|e| PreprocessError::Malformed { reason: e })
}

fn endpoint_loop(
    listener: TcpListener,
    endpoint: u64,
    cfg: Arc<PreprocessBuilder>,
    plane_stop: Arc<AtomicBool>,
    stats: Arc<PlaneStats>,
    pool: Arc<DecodePool>,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut session_idx = 0u64;
    let mut read_buf = [0u8; 16 * 1024];
    loop {
        if plane_stop.load(Ordering::SeqCst) {
            break;
        }
        let mut active = false;
        // Accept every pending connection.
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    active = true;
                    if stream.set_nonblocking(true).and_then(|()| set_nodelay(&stream)).is_err() {
                        continue;
                    }
                    stats.sessions.fetch_add(1, Ordering::Relaxed);
                    cfg.telemetry
                        .with(|r| r.counter(names::PREPROCESS_SESSIONS_TOTAL, &[]).inc());
                    let seed = cfg
                        .seed
                        .wrapping_add(endpoint.wrapping_mul(ENDPOINT_SEED_STRIDE))
                        .wrapping_add(session_idx.wrapping_mul(SESSION_SEED_STRIDE));
                    session_idx += 1;
                    let tid = stats.next_tid.fetch_add(1, Ordering::Relaxed);
                    let requests = Arc::new(RequestQueue::new());
                    let queue = Arc::new(BatchQueue::new(cfg.queue_capacity));
                    let session_stop = Arc::new(AtomicBool::new(false));
                    let flight = cfg
                        .flight
                        .recorder(&format!("pre:ep{endpoint}:s{tid}"), DEFAULT_RING_CAPACITY);
                    let ctx = GeneratorCtx {
                        cfg: cfg.clone(),
                        pool: pool.clone(),
                        requests: requests.clone(),
                        queue: queue.clone(),
                        session_stop: session_stop.clone(),
                        plane_stop: plane_stop.clone(),
                        stats: stats.clone(),
                        seed,
                        tid,
                        flight: flight.clone(),
                    };
                    let gen_join = std::thread::Builder::new()
                        .name(format!("dt-preprocess-gen{tid}"))
                        .spawn(move || generator_loop(ctx))
                        .ok();
                    if gen_join.is_none() {
                        session_stop.store(true, Ordering::SeqCst);
                        continue;
                    }
                    sessions.push(Session {
                        stream,
                        inbuf: Vec::new(),
                        tid,
                        pending: 0,
                        outgoing: None,
                        requests,
                        queue,
                        session_stop,
                        gen_join,
                        flight,
                        closed: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    plane_stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
        }
        for s in &mut sessions {
            if s.closed {
                continue;
            }
            // Drain readable bytes without blocking.
            loop {
                match s.stream.read(&mut read_buf) {
                    Ok(0) => {
                        s.closed = true;
                        break;
                    }
                    Ok(n) => {
                        active = true;
                        s.inbuf.extend_from_slice(&read_buf[..n]);
                        if s.inbuf.len() > MAX_REQUEST_FRAME + 4 + TRACE_CONTEXT_LEN {
                            let buffered = s.inbuf.len();
                            session_malformed(s, &stats, &cfg.telemetry, || {
                                format!("{buffered} buffered bytes without a complete frame")
                            });
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        s.closed = true;
                        break;
                    }
                }
            }
            // Parse complete request frames.
            while !s.closed {
                match next_request_frame(&mut s.inbuf) {
                    Ok(None) => break,
                    Ok(Some((ctx, payload))) => match parse_request(&payload) {
                        Ok(Request::Shutdown) => {
                            s.closed = true;
                        }
                        Ok(Request::FetchBatch { count }) => {
                            active = true;
                            s.flight.record("request", ctx.map_or(0, |c| c.trace_id), || {
                                format!("FetchBatch x{count}")
                            });
                            match s.requests.push(count, ctx) {
                                Some(_) => s.pending += 1,
                                None => {
                                    // Outstanding-request abuse: hostile.
                                    session_malformed(s, &stats, &cfg.telemetry, || {
                                        format!(
                                            "more than {MAX_OUTSTANDING_REQUESTS} outstanding FetchBatch requests"
                                        )
                                    });
                                }
                            }
                        }
                        Err(e) => {
                            session_malformed(s, &stats, &cfg.telemetry, || e.to_string());
                        }
                    },
                    Err(e) => {
                        session_malformed(s, &stats, &cfg.telemetry, || e.to_string());
                    }
                }
            }
            // Write: continue the in-flight response, then start the next
            // ready batch. All nonblocking — a stalled peer parks here
            // without holding up the endpoint.
            while !s.closed {
                if s.outgoing.is_none() {
                    if s.pending == 0 {
                        break;
                    }
                    match s.queue.try_pop() {
                        Some(batch) => s.outgoing = Some(Outgoing::new(batch)),
                        None => break,
                    }
                }
                let out = s.outgoing.as_mut().unwrap();
                match out.step(&mut s.stream) {
                    Ok(()) => {
                        active = true;
                        let count = out.batch.count;
                        let batch_ctx = out.batch.ctx;
                        let trace_id = batch_ctx.map_or(0, |c| c.trace_id);
                        if let Some(sink) = &cfg.trace {
                            sink.record_traced(
                                format!("feed x{count}"),
                                cat::PRE_FEED,
                                PREPROCESS_PID,
                                s.tid,
                                out.feed_started,
                                batch_ctx.as_ref(),
                                batch_ctx.map_or(0, |c| c.span_id(3)),
                            );
                        }
                        let total = out.total;
                        s.flight
                            .record("feed", trace_id, || format!("x{count} ({total} wire bytes)"));
                        cfg.telemetry.with(|r| {
                            r.histogram(names::PREPROCESS_FEED_SECONDS, &[])
                                .observe_traced(out.feed_started.elapsed().as_secs_f64(), trace_id);
                            r.counter(names::PREPROCESS_BATCHES_TOTAL, &[]).inc();
                            r.counter(names::PREPROCESS_SAMPLES_TOTAL, &[]).add(u64::from(count));
                        });
                        s.pending -= 1;
                        s.outgoing = None;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        s.closed = true;
                    }
                }
            }
        }
        // Reap closed sessions: stop + join their generators.
        let mut i = 0;
        while i < sessions.len() {
            if sessions[i].closed {
                let mut s = sessions.swap_remove(i);
                shutdown_session(&mut s, &stats, &cfg.telemetry);
            } else {
                i += 1;
            }
        }
        if !active {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    // Drain: every session's generator observes the stop flag (or its
    // queue wakeups) within one poll window; joining here guarantees all
    // telemetry/trace records for written batches landed before the
    // handle's shutdown returns.
    for mut s in sessions {
        shutdown_session(&mut s, &stats, &cfg.telemetry);
    }
}

/// Close a session for a protocol violation: count it, freeze its flight
/// ring with the violation as the last event, and mark it for reaping.
fn session_malformed(
    s: &mut Session,
    stats: &PlaneStats,
    tel: &Telemetry,
    detail: impl FnOnce() -> String,
) {
    stats.malformed.fetch_add(1, Ordering::Relaxed);
    tel.with(|r| r.counter(names::PREPROCESS_MALFORMED_TOTAL, &[]).inc());
    s.flight.record("malformed", 0, detail);
    flight_dump(&s.flight, tel, "malformed");
    s.closed = true;
}

fn shutdown_session(s: &mut Session, stats: &PlaneStats, tel: &Telemetry) {
    s.session_stop.store(true, Ordering::SeqCst);
    s.requests.wake_all();
    s.queue.wake_all();
    if let Some(join) = s.gen_join.take() {
        if join.join().is_err() {
            stats.panicked.store(true, Ordering::SeqCst);
            s.flight.record("panic", 0, || "generator thread panicked".into());
            flight_dump(&s.flight, tel, "panic");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, read_json, write_json};
    use dt_data::ResolutionMode;

    fn tiny_data() -> DataConfig {
        DataConfig { resolution: ResolutionMode::Fixed(64), ..DataConfig::evaluation(64) }
    }

    fn spawn_tiny(seed: u64) -> PreprocessHandle {
        Preprocess::builder(tiny_data(), seed).workers(2).spawn().unwrap()
    }

    #[test]
    fn producer_serves_batches_over_tcp() {
        let handle = spawn_tiny(5);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 4 }).unwrap();
        let header: BatchHeader = read_json(&mut stream).unwrap();
        assert_eq!(header.samples.len(), 4);
        let payload = read_frame(&mut stream).unwrap();
        assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
        assert!(header.producer_cpu_ns > 0);
        write_json(&mut stream, &Request::Shutdown).unwrap();
    }

    #[test]
    fn consecutive_fetches_advance_the_stream() {
        let handle = spawn_tiny(5);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let a: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let b: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        assert_ne!(a.samples[0].id, b.samples[0].id);
        assert_eq!(b.samples[0].id, 2);
    }

    #[test]
    fn pipelined_fetches_deliver_in_order() {
        // Credit-based pipelining: send several requests up front; the
        // responses must come back FIFO with a contiguous id stream.
        let handle = spawn_tiny(31);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        for _ in 0..5 {
            write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        }
        let mut next_id = 0u64;
        for _ in 0..5 {
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            assert_eq!(header.samples[0].id, next_id, "responses out of order");
            next_id += header.samples.len() as u64;
        }
        write_json(&mut stream, &Request::Shutdown).unwrap();
    }

    #[test]
    fn multi_endpoint_plane_serves_every_endpoint_with_distinct_streams() {
        let mut handle =
            Preprocess::builder(tiny_data(), 40).producers(3).workers(1).spawn().unwrap();
        assert_eq!(handle.addrs().len(), 3);
        let mut firsts = Vec::new();
        for &addr in handle.addrs() {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            firsts.push(header.samples[0].clone());
            write_json(&mut stream, &Request::Shutdown).unwrap();
        }
        // Endpoints run decorrelated seed lanes: same id counters, but
        // the sample contents must differ somewhere across endpoints.
        assert!(
            firsts.windows(2).any(|w| w[0] != w[1]),
            "endpoint streams should be decorrelated: {firsts:?}"
        );
        assert!(handle.shutdown(), "plane must shut down cleanly");
    }

    #[test]
    fn builder_rejects_invalid_specs_with_typed_errors() {
        let err = Preprocess::builder(tiny_data(), 1).workers(0).spawn().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("workers"), "{err}");

        let err = Preprocess::builder(tiny_data(), 1).queue_capacity(0).spawn().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("queue_capacity"), "{err}");

        let err = Preprocess::builder(tiny_data(), 1).producers(0).spawn().unwrap_err();
        assert_eq!(err.kind(), "invalid_spec");
        assert!(err.to_string().contains("producers"), "{err}");
    }

    #[test]
    fn full_queue_backpressures_the_generator() {
        // Queue capacity 1 and a client that pipelines 10 multi-megabyte
        // requests but reads nothing: kernel socket buffers fill, the
        // nonblocking writer parks on WouldBlock, the bounded queue fills
        // behind it, and the generator must hit the typed backpressure
        // path (visible in stats). The plane must still deliver
        // everything, in order, once the client drains.
        let big_images =
            DataConfig { resolution: ResolutionMode::Fixed(256), ..DataConfig::evaluation(64) };
        let mut handle = Preprocess::builder(big_images, 77)
            .workers(2)
            .queue_capacity(1)
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let requests = 10u64;
        for _ in 0..requests {
            write_json(&mut stream, &Request::FetchBatch { count: 4 }).unwrap();
        }
        // Let the generator run ahead into the bounded queue.
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.stats().backpressure_events == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            handle.stats().backpressure_events > 0,
            "generator never saw backpressure: {:?}",
            handle.stats()
        );
        let mut next_id = 0u64;
        for _ in 0..requests {
            let header: BatchHeader = read_json(&mut stream).unwrap();
            let payload = read_frame(&mut stream).unwrap();
            assert_eq!(payload.len() as u64, header.token_lens.iter().sum::<u64>());
            assert_eq!(header.samples[0].id, next_id);
            next_id += header.samples.len() as u64;
        }
        write_json(&mut stream, &Request::Shutdown).unwrap();
        drop(stream);
        assert!(handle.shutdown());
    }

    #[test]
    fn hostile_garbage_closes_the_session_not_the_plane() {
        let mut handle = spawn_tiny(13);
        // Hostile peer: raw garbage that parses as an oversized frame.
        let mut bad = TcpStream::connect(handle.addr()).unwrap();
        bad.write_all(&[0xFF; 64]).unwrap();
        bad.flush().unwrap();
        // A well-behaved session must still be served.
        let mut good = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut good, &Request::FetchBatch { count: 2 }).unwrap();
        let header: BatchHeader = read_json(&mut good).unwrap();
        assert_eq!(header.samples.len(), 2);
        let _ = read_frame(&mut good).unwrap();
        write_json(&mut good, &Request::Shutdown).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.stats().malformed_frames == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(handle.stats().malformed_frames > 0, "hostile frame not counted");
        assert!(handle.shutdown(), "plane must survive hostile input");
    }

    #[test]
    fn parallel_preprocessing_matches_serial() {
        let mut gen = SyntheticLaion::new(tiny_data(), 9);
        let samples = gen.take(6);
        let par = preprocess_parallel(&samples, 4);
        for (s, bytes) in samples.iter().zip(&par) {
            assert_eq!(bytes, &preprocess_sample(s).token_bytes);
        }
    }

    /// Every sample's token bytes, serially, concatenated.
    fn serial_tokens(samples: &[TrainSample]) -> Vec<u8> {
        samples.iter().flat_map(|s| preprocess_sample(s).token_bytes).collect()
    }

    #[test]
    fn decode_pool_matches_serial_in_order() {
        let stats = Arc::new(PlaneStats::default());
        let (pool, threads) = DecodePool::spawn(3, &stats).unwrap();
        let mut samples = SyntheticLaion::new(tiny_data(), 9).take(7);
        // Single-band runs on both sides of a six-band image.
        samples.insert(1, multi_band_sample());
        let chunks = pool.decode(&samples).unwrap();
        assert_eq!(chunks.concat(), serial_tokens(&samples), "bands must come back in batch order");
        drop(pool);
        for t in threads {
            t.join().unwrap();
        }
    }

    /// One 512² image at patch 16: six bands, the last one short.
    fn multi_band_sample() -> TrainSample {
        let mut sample = SyntheticLaion::new(tiny_data(), 3).sample();
        sample.image_resolutions = vec![512];
        sample.patch = 16;
        sample
    }

    #[test]
    fn one_giant_sample_decodes_on_every_pool_width() {
        let samples = [multi_band_sample()];
        assert_eq!(Image::new(&samples[0], 0).bands(), 6);
        let serial = serial_tokens(&samples);
        for workers in 1..=3 {
            let stats = Arc::new(PlaneStats::default());
            let (pool, threads) = DecodePool::spawn(workers, &stats).unwrap();
            let (jobs, _) = band_jobs(&samples, pool.width);
            assert_eq!(jobs.len(), 6, "every band is a job of its own");
            let chunks = pool.decode(&samples).unwrap();
            assert!(chunks.concat() == serial, "{workers}-thread pool differs from serial");
            drop(pool);
            for t in threads {
                t.join().unwrap();
            }
        }
    }

    #[test]
    fn panicking_band_fails_the_batch_without_hanging() {
        let mut handle = Preprocess::builder(tiny_data(), 12).workers(2).spawn().unwrap();
        let pool = handle.pool.clone().unwrap();
        let (jobs, pending) = band_jobs(&[multi_band_sample()], pool.width);
        // The queueing of `DecodePool::decode`, with band 2 of 6 failing.
        for (band, job) in jobs.into_iter().enumerate() {
            let run: DecodeJob = if band == 2 {
                Box::new(move || {
                    let _links = job;
                    panic!("band failure")
                })
            } else {
                Box::new(move || job.run())
            };
            pool.jobs.send(run).unwrap();
        }
        assert!(collect_bands(pending).is_none(), "a dead band must fail the batch");
        drop(pool);
        assert!(!handle.shutdown(), "a panicked band must fail shutdown");
    }

    #[test]
    fn shutdown_joins_the_decode_pool() {
        let mut handle = Preprocess::builder(tiny_data(), 11).workers(3).spawn().unwrap();
        let pool = Arc::downgrade(handle.pool.as_ref().unwrap());
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 7 }).unwrap();
        let header: BatchHeader = read_json(&mut stream).unwrap();
        assert_eq!(header.samples.len(), 7);
        let _ = read_frame(&mut stream).unwrap();
        assert!(handle.shutdown(), "plane must shut down cleanly");
        assert!(pool.upgrade().is_none(), "a handle on the job queue outlived shutdown");
        assert!(handle.decode_threads.is_empty(), "decode threads left unjoined");
    }

    #[test]
    fn panicking_decode_job_fails_shutdown() {
        let mut handle = Preprocess::builder(tiny_data(), 12).workers(2).spawn().unwrap();
        let pool = handle.pool.clone().unwrap();
        pool.jobs.send(Box::new(|| panic!("decode job failure"))).unwrap();
        drop(pool);
        assert!(!handle.shutdown(), "a panicked decode job must fail shutdown");
    }

    #[test]
    fn producer_records_fetch_decode_feed_spans() {
        let sink = WallTraceSink::new();
        let handle =
            Preprocess::builder(tiny_data(), 21).workers(2).trace(sink.clone()).spawn().unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 3 }).unwrap();
        let _: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        write_json(&mut stream, &Request::Shutdown).unwrap();
        drop(handle);
        let spans = sink.snapshot();
        for category in [cat::PRE_FETCH, cat::PRE_DECODE, cat::PRE_FEED] {
            assert!(
                spans.iter().any(|s| s.cat == category && s.pid == PREPROCESS_PID),
                "missing {category} span; got {spans:?}"
            );
        }
    }

    #[test]
    fn dropping_the_handle_stops_the_service() {
        let handle = spawn_tiny(1);
        let addr = handle.addr();
        drop(handle);
        // After shutdown the port eventually refuses or resets; a fresh
        // request must not hang forever. Connection may still succeed
        // briefly (listener backlog), so only assert the service no longer
        // answers a full round trip.
        if let Ok(mut s) = TcpStream::connect(addr) {
            s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let _ = write_json(&mut s, &Request::FetchBatch { count: 1 });
            let resp: io::Result<BatchHeader> = read_json(&mut s);
            assert!(resp.is_err(), "stopped producer must not serve batches");
        }
    }

    /// A traced FetchBatch gets its context echoed on the response header
    /// frame, and the producer's fetch/decode/feed spans link under it.
    #[test]
    fn traced_fetch_echoes_context_and_links_producer_spans() {
        use crate::frame::{read_frame_ctx, write_json_ctx};
        use dt_simengine::trace::arg;
        use dt_simengine::DetRng;

        let sink = WallTraceSink::new();
        let handle =
            Preprocess::builder(tiny_data(), 23).workers(2).trace(sink.clone()).spawn().unwrap();
        let mut rng = DetRng::new(7);
        let root = TraceContext::root(&mut rng);
        let (consumer_span, wire_ctx) = root.child(1);
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json_ctx(&mut stream, Some(&wire_ctx), &Request::FetchBatch { count: 3 }).unwrap();
        let (echo, header_bytes) = read_frame_ctx(&mut stream).unwrap();
        assert_eq!(echo, Some(wire_ctx), "response must echo the request's trace context");
        assert!(!header_bytes.is_empty());
        let _ = read_frame(&mut stream).unwrap();
        write_json_ctx(&mut stream, Some(&wire_ctx), &Request::Shutdown).unwrap();
        drop(handle);
        let spans = sink.snapshot();
        let trace_hex = format!("{:016x}", root.trace_id);
        let parent_hex = format!("{consumer_span:016x}");
        let get = |span: &dt_simengine::trace::TraceSpan, key: &str| {
            span.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v.clone())
        };
        for category in [cat::PRE_FETCH, cat::PRE_DECODE, cat::PRE_FEED] {
            let span = spans
                .iter()
                .find(|s| s.cat == category)
                .unwrap_or_else(|| panic!("missing {category} span; got {spans:?}"));
            assert_eq!(get(span, arg::TRACE), Some(trace_hex.clone()));
            assert_eq!(
                get(span, arg::PARENT),
                Some(parent_hex.clone()),
                "{category} must parent under the consumer's prefetch span"
            );
        }
    }

    /// A hostile frame freezes the session's flight ring into the plane's
    /// log, with the prior requests still visible in the dump.
    #[test]
    fn malformed_session_dumps_its_flight_ring() {
        let flight = FlightLog::new();
        let handle = Preprocess::builder(tiny_data(), 29)
            .workers(1)
            .flight(flight.clone())
            .spawn()
            .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        write_json(&mut stream, &Request::FetchBatch { count: 2 }).unwrap();
        let _: BatchHeader = read_json(&mut stream).unwrap();
        let _ = read_frame(&mut stream).unwrap();
        stream.write_all(&[0xFF; 8]).unwrap();
        stream.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while flight.dumps_total() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(handle);
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 1, "exactly one dump: {dumps:?}");
        assert_eq!(dumps[0].reason, "malformed");
        assert!(dumps[0].session.starts_with("pre:ep0:s"), "{}", dumps[0].session);
        let kinds: Vec<&str> = dumps[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"request"), "dump shows the session's history: {kinds:?}");
        assert!(kinds.contains(&"malformed"), "dump ends with the trigger: {kinds:?}");
    }
}
