//! The three serve workloads: closed-loop `rlb_load::Client`s against
//! one `ServerCore`, over framed pipes (the benchmark's own driver loop
//! in `run_sim`'s phase order) or over one loopback TCP session to
//! `serve_blocking` on a second thread.
//!
//! The drivers are generic over [`Tracer`]: the same code takes the
//! end-to-end numbers with tracing off and the per-layer spans with it
//! on.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlb_core::policies::Greedy;
use rlb_core::{DrainMode, SimConfig};
use rlb_hash::sample::ZipfSampler;
use rlb_hash::ReplicaPlacement;
use rlb_kv::KvCluster;
use rlb_load::{run_sim, Client, ClientConfig, KeyPicker, LoadReport, Mode, Popularity, SimSpec};
use rlb_metrics::Histogram;
use rlb_pool::Pool;
use rlb_serve::proto::{Frame, FrameReader, RejectCause, REJECT_CAUSES};
use rlb_serve::{
    key_to_u64, pipe, serve_blocking, PipeEnd, ReadStatus, ServeConfig, ServeOptions, ServeOutcome,
    ServerCore, TcpSession,
};

use crate::child::{
    cold_setups, collect_windows, counts_agree, driver_layers, per, ChildArgs, ChildResult, Quality,
};
use crate::estimate::Window;
use crate::host;
use crate::spans::{fold, NoTrace, SpanLog, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    PipeSmall,
    PipeLarge,
    Tcp,
}

/// Sizes of one serve workload.
pub struct ServeSpec {
    pub clients: usize,
    /// Closed-loop window of each client.
    pub window: u32,
    /// Zipf(1.1) key universe.
    pub keys: usize,
    pub put_ratio: f64,
    /// Bytes of every `Put` value (0: no puts are issued).
    pub value_len: usize,
    /// A timed window is this many driver ticks (pipes) …
    pub window_ticks: u64,
    /// … or this many responses (TCP, where ticks belong to the daemon).
    pub window_responses: u64,
    /// Leading timed windows whose simulated-time quality is read.
    pub quality_windows: usize,
    /// Fixed warm-up in the same unit, part of `setup_s`.
    pub warmup: u64,
    /// Cluster behind the core: `servers × rate` chunk requests a tick.
    pub servers: usize,
    pub rate: u32,
}

/// Closed-loop window of the one `serve-tcp` client. At 64 the reactor
/// idles between bursts and throughput is set by its 200 µs / 50 µs
/// sleeps; at 1024 it is never idle (README.md shows both).
pub const TCP_WINDOW: u32 = 1024;

/// Ticks of the prefix compared against `rlb_load::run_sim`.
const RUN_SIM_TICKS: u64 = 2000;
/// Requests each client issues in that comparison (it must finish
/// inside the prefix, or `run_sim` runs into its drain cap).
const RUN_SIM_REQUESTS: u64 = 16_000;

/// Ticks whose admitted keys the traced pipe run keeps for the
/// stand-alone `KvCluster` replay.
const KV_REPLAY_TICKS: usize = 512;

impl Serve {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve-pipe-small" => Some(Self::PipeSmall),
            "serve-pipe-large" => Some(Self::PipeLarge),
            "serve-tcp" => Some(Self::Tcp),
            _ => None,
        }
    }

    pub fn spec(self) -> ServeSpec {
        // Of 8 × 64 outstanding requests ≈ 290 are reissued each tick
        // and coalesce to ≈ 150 distinct chunks; 192 servers at rate 1
        // put the cluster near 0.8 utilisation, where replies wait
        // behind real queues (p99_latency_steps = 3) and nothing is
        // rejected.
        let small = ServeSpec {
            clients: 8,
            window: 64,
            keys: 100_000,
            put_ratio: 0.0,
            value_len: 0,
            window_ticks: 12,
            window_responses: 0,
            quality_windows: 64,
            warmup: 96,
            servers: 192,
            rate: 1,
        };
        match self {
            Self::PipeSmall => small,
            // 16 Ki keys × 4 KiB = 64 MiB of values, all stored during
            // set-up, so resident memory does not depend on how many
            // requests the time budget lets through.
            Self::PipeLarge => ServeSpec {
                keys: 1 << 14,
                put_ratio: 0.5,
                value_len: 4096,
                window_ticks: 3,
                warmup: 16,
                ..small
            },
            Self::Tcp => ServeSpec {
                clients: 1,
                window: TCP_WINDOW,
                window_ticks: 0,
                window_responses: 32_768,
                quality_windows: 16,
                warmup: 65_536,
                ..small
            },
        }
    }

    fn serve_config(self, seed: u64) -> ServeConfig {
        let spec = self.spec();
        let engine = SimConfig {
            process_rate: spec.rate,
            queue_capacity: 16,
            drain_mode: DrainMode::EndOfStep,
            seed,
            ..SimConfig::baseline(spec.servers)
        };
        // Never the limiter: four times everything the clients can have
        // outstanding.
        let gate_limit = 4 * spec.clients as u64 * u64::from(spec.window);
        ServeConfig { engine, gate_limit }
    }

    fn popularity(self) -> Popularity {
        Popularity::Zipf {
            alpha: 1.1,
            universe: self.spec().keys,
        }
    }

    fn clients(self, seed: u64, total_requests: u64) -> Vec<Client> {
        let spec = self.spec();
        (0..spec.clients as u64)
            .map(|i| {
                Client::new(ClientConfig {
                    tenant: 0,
                    mode: Mode::Closed {
                        concurrency: spec.window,
                    },
                    popularity: self.popularity(),
                    put_ratio: spec.put_ratio,
                    total_requests,
                    seed: rlb_hash::mix::mix2(seed, i),
                })
            })
            .collect()
    }
}

/// Runs one serve child.
///
/// # Errors
/// A failed correctness gate, described.
pub fn run(serve: Serve, args: &ChildArgs) -> Result<ChildResult, String> {
    match serve {
        Serve::Tcp => run_tcp(serve, args),
        Serve::PipeSmall | Serve::PipeLarge => run_pipe(serve, args),
    }
}

// ---------------------------------------------------------------------
// Shared bookkeeping
// ---------------------------------------------------------------------

/// What the driver itself saw on the wire.
#[derive(Default)]
struct Tally {
    issued: u64,
    replies: u64,
    rejects_by_cause: [u64; REJECT_CAUSES.len()],
    /// The `latency` field of every `Reply`: simulated steps.
    latency: Histogram,
    /// Frames and bytes moved in either direction.
    frames: u64,
    bytes: u64,
    /// Replies whose value is not what the workload stored.
    bad_values: u64,
}

impl Tally {
    fn rejects(&self) -> u64 {
        self.rejects_by_cause.iter().sum()
    }

    fn responses(&self) -> u64 {
        self.replies + self.rejects()
    }

    fn note_response(&mut self, frame: &Frame, template: Option<&[u8]>) {
        match frame {
            Frame::Reply { latency, value, .. } => {
                self.replies += 1;
                self.latency.record(u64::from(*latency));
                if !value.is_empty() && !template.is_some_and(|t| is_stored_value(t, value)) {
                    self.bad_values += 1;
                }
            }
            Frame::Reject { cause, .. } => self.rejects_by_cause[*cause as usize] += 1,
            _ => {}
        }
    }

    /// Starts a fresh tally that carries only the requests still in
    /// flight (as issued) and returns the one so far.
    fn restart(&mut self) -> Tally {
        let earlier = std::mem::take(self);
        self.issued = earlier.issued - earlier.responses();
        earlier
    }

    /// Adds back the answered traffic of an earlier tally whose
    /// unanswered remainder this one was started with.
    fn absorb(&mut self, earlier: &Tally) {
        self.issued += earlier.responses();
        self.replies += earlier.replies;
        for (all, e) in self
            .rejects_by_cause
            .iter_mut()
            .zip(earlier.rejects_by_cause)
        {
            *all += e;
        }
    }

    fn quality(&self) -> Quality {
        Quality {
            attempted: self.issued,
            failed: self.rejects() + self.bad_values,
            p99_latency_steps: self.latency.quantile(0.99).unwrap_or(0),
        }
    }
}

/// The value this benchmark stores under `key`: the workload's fixed
/// pattern with the key's hash stamped over its first eight bytes.
fn stored_value(template: &[u8], key: &[u8]) -> Vec<u8> {
    let mut id = [0u8; 8];
    id[..key.len().min(8)].copy_from_slice(&key[..key.len().min(8)]);
    let mut value = template.to_vec();
    value[..8].copy_from_slice(&rlb_hash::mix::fmix64(u64::from_le_bytes(id)).to_le_bytes());
    value
}

/// Cheap integrity check of a read-back value: its length and both
/// ends of the pattern (the stamp is the key's, which a reply does not
/// carry).
fn is_stored_value(template: &[u8], value: &[u8]) -> bool {
    let n = template.len();
    value.len() == n && value[8..16] == template[8..16] && value[n - 8..] == template[n - 8..]
}

fn value_template(seed: u64, len: usize) -> Option<Vec<u8>> {
    (len > 0).then(|| {
        let mut rng = rlb_hash::Pcg64::new(seed, 0x76a1);
        (0..len)
            .map(|_| rlb_hash::Rng::next_u64(&mut rng) as u8)
            .collect()
    })
}

fn encode_batch(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        f.encode(&mut out);
    }
    out
}

/// Both ends of a pipe only ever write whole frames.
fn decode_batch(bytes: &[u8]) -> Result<Vec<Frame>, String> {
    let mut reader = FrameReader::new();
    reader.push(bytes);
    let (frames, err) = reader.drain();
    match err {
        Some(e) => Err(format!("decode error on a pipe: {e}")),
        None if reader.pending() > 0 => Err("partial frame on a pipe".into()),
        None => Ok(frames),
    }
}

// ---------------------------------------------------------------------
// The pipe driver
// ---------------------------------------------------------------------

/// One `ServerCore`, its clients and a framed pipe per session, stepped
/// in `rlb_load::run_sim`'s phase order: deliver, issue, serve.
struct PipeRig {
    core: ServerCore<Greedy>,
    clients: Vec<Client>,
    client_ends: Vec<PipeEnd>,
    server_ends: Vec<PipeEnd>,
    now: u64,
    /// `Put` values are rewritten to this pattern (the client state
    /// machine only issues 8-byte ones).
    template: Option<Vec<u8>>,
    tally: Tally,
    /// Traced runs: `key_to_u64` of every request, per tick.
    keys_by_tick: Option<Vec<Vec<u64>>>,
}

impl PipeRig {
    fn new(core: ServerCore<Greedy>, clients: Vec<Client>, template: Option<Vec<u8>>) -> Self {
        let (client_ends, server_ends) = clients.iter().map(|_| pipe()).unzip();
        Self {
            core,
            clients,
            client_ends,
            server_ends,
            now: 0,
            template,
            tally: Tally::default(),
            keys_by_tick: None,
        }
    }

    /// Phase 1: last tick's response bytes reach the clients.
    fn deliver<T: Tracer>(&mut self, tr: &mut T) -> Result<(), String> {
        let t = self.now;
        for (end, client) in self.client_ends.iter().zip(&mut self.clients) {
            let h = tr.enter("serve.pipe_xfer", t);
            let bytes = end.take_bytes();
            tr.exit(h);
            let h = tr.enter("serve.decode", t);
            let frames = decode_batch(&bytes)?;
            tr.exit(h);
            let h = tr.enter("load.on_frame", t);
            for f in &frames {
                client.on_frame(t, f);
            }
            tr.exit(h);
            self.tally.frames += frames.len() as u64;
            self.tally.bytes += bytes.len() as u64;
            for f in &frames {
                self.tally.note_response(f, self.template.as_deref());
            }
        }
        Ok(())
    }

    /// Phases 2 and 3: clients issue (when `issuing`), the core takes
    /// every session's frames in session order and commits one tick.
    fn issue_and_serve<T: Tracer>(&mut self, issuing: bool, tr: &mut T) -> Result<(), String> {
        let t = self.now;
        let n = self.clients.len();
        if issuing {
            let mut keys = Vec::new();
            for (end, client) in self.client_ends.iter().zip(&mut self.clients) {
                let mut batch = Vec::new();
                let h = tr.enter("load.on_tick", t);
                client.on_tick(t, &mut batch);
                tr.exit(h);
                if let Some(template) = &self.template {
                    let h = tr.enter("driver.inputs", t);
                    for f in &mut batch {
                        if let Frame::Put { key, value, .. } = f {
                            *value = stored_value(template, key);
                        }
                    }
                    tr.exit(h);
                }
                if self.keys_by_tick.is_some() {
                    keys.extend(batch.iter().filter_map(|f| match f {
                        Frame::Get { tenant, key, .. } | Frame::Put { tenant, key, .. } => {
                            Some(key_to_u64(*tenant, key))
                        }
                        _ => None,
                    }));
                }
                let h = tr.enter("serve.encode", t);
                let bytes = encode_batch(&batch);
                tr.exit(h);
                let h = tr.enter("serve.pipe_xfer", t);
                end.send_bytes(&bytes);
                tr.exit(h);
                self.tally.issued += batch.len() as u64;
                self.tally.frames += batch.len() as u64;
                self.tally.bytes += bytes.len() as u64;
            }
            if let Some(ticks) = &mut self.keys_by_tick {
                ticks.push(keys);
            }
        }

        let mut responses: Vec<Vec<Frame>> = vec![Vec::new(); n];
        for (sid, end) in self.server_ends.iter().enumerate() {
            let h = tr.enter("serve.pipe_xfer", t);
            let bytes = end.take_bytes();
            tr.exit(h);
            let h = tr.enter("serve.decode", t);
            let frames = decode_batch(&bytes)?;
            tr.exit(h);
            let h = tr.enter("serve.on_frame", t);
            for frame in frames {
                if let Some(resp) = self.core.on_frame(sid as u32, frame) {
                    responses[sid].push(resp);
                }
            }
            tr.exit(h);
        }
        let h = tr.enter("serve.tick", t);
        let due = self.core.tick();
        tr.exit(h);
        for (sid, frame) in due {
            responses[sid as usize].push(frame);
        }
        for (end, frames) in self.server_ends.iter().zip(&responses) {
            let h = tr.enter("serve.encode", t);
            let bytes = encode_batch(frames);
            tr.exit(h);
            let h = tr.enter("serve.pipe_xfer", t);
            end.send_bytes(&bytes);
            tr.exit(h);
        }
        self.now += 1;
        Ok(())
    }

    fn tick<T: Tracer>(&mut self, tr: &mut T) -> Result<(), String> {
        self.deliver(tr)?;
        self.issue_and_serve(true, tr)
    }

    /// One timed window of `ticks` ticks under a `driver.window` span.
    fn window<T: Tracer>(&mut self, ticks: u64, tr: &mut T) -> Result<Window, String> {
        let before = self.tally.responses();
        let t = Instant::now();
        let root = tr.enter("driver.window", self.now);
        for _ in 0..ticks {
            self.tick(tr)?;
        }
        tr.exit(root);
        Ok(Window {
            ns: t.elapsed().as_nanos() as u64,
            reqs: self.tally.responses() - before,
        })
    }

    /// Stops issuing and ticks until every request is answered; returns
    /// the requests still unanswered when the drain cap is hit.
    fn drain(&mut self) -> Result<u64, String> {
        for _ in 0..1000 {
            self.deliver(&mut NoTrace)?;
            if self.tally.issued == self.tally.responses() && self.core.drained() {
                break;
            }
            self.issue_and_serve(false, &mut NoTrace)?;
        }
        Ok(self.tally.issued - self.tally.responses())
    }

    /// The driver's frame counts, the clients' counters and the core's
    /// per-tenant counters must all agree, cause by cause.
    fn check_counts(&self, preloaded: u64) -> Result<(), String> {
        let report = LoadReport::from_clients(&self.clients);
        let server = self.core.tenant_serve_stats(0);
        let mut pairs = vec![
            (
                "requests sent (clients vs driver)",
                report.sent,
                self.tally.issued,
            ),
            (
                "replies (clients vs driver)",
                report.replies,
                self.tally.replies,
            ),
            (
                "replies (server vs clients)",
                server.replies,
                report.replies + preloaded,
            ),
        ];
        for (i, cause) in REJECT_CAUSES.iter().enumerate() {
            pairs.push((
                cause.name(),
                server.rejects_by_cause[i],
                report.rejects_by_cause[i],
            ));
            pairs.push((
                cause.name(),
                self.tally.rejects_by_cause[i],
                report.rejects_by_cause[i],
            ));
        }
        counts_agree(&pairs)
    }
}

/// Stores a value under every key of the universe through the wire
/// path (encode → pipe → decode → `on_frame` → `tick`), one batch of
/// 256 at a time, each answered before the next is sent.
fn preload(core: &mut ServerCore<Greedy>, keys: usize, template: &[u8]) -> Result<u64, String> {
    let (near, far) = pipe();
    let mut replies = 0u64;
    let ids: Vec<u64> = (0..keys as u64).collect();
    for chunk in ids.chunks(256) {
        let batch: Vec<Frame> = chunk
            .iter()
            .map(|&id| {
                let key = id.to_le_bytes().to_vec();
                Frame::Put {
                    req_id: id as u32,
                    tenant: 0,
                    value: stored_value(template, &key),
                    key,
                }
            })
            .collect();
        near.send_bytes(&encode_batch(&batch));
        for frame in decode_batch(&far.take_bytes())? {
            if let Some(refusal) = core.on_frame(0, frame) {
                return Err(format!("preload put refused: {refusal:?}"));
            }
        }
        for _ in 0..1000 {
            if core.drained() {
                break;
            }
            replies += core
                .tick()
                .iter()
                .filter(|(_, f)| matches!(f, Frame::Reply { .. }))
                .count() as u64;
        }
    }
    counts_agree(&[(
        "preloaded keys (server replies vs puts sent)",
        replies,
        keys as u64,
    )])?;
    Ok(replies)
}

/// Gate: on a 2 000-tick prefix, this driver's client report and server
/// summary must be `rlb_load::run_sim`'s, byte for byte.
fn check_against_run_sim(serve: Serve, seed: u64) -> Result<(), String> {
    let spec = serve.spec();
    let core = || ServerCore::new(serve.serve_config(seed), Greedy::new());
    let reference = run_sim(
        core(),
        serve.clients(seed, RUN_SIM_REQUESTS),
        &SimSpec {
            ticks: RUN_SIM_TICKS,
            transcript: false,
        },
        &Pool::new(1),
    );

    let mut rig = PipeRig::new(
        core(),
        serve.clients(seed, RUN_SIM_REQUESTS),
        value_template(seed, spec.value_len),
    );
    let mut text = String::new();
    loop {
        rig.deliver(&mut NoTrace)?;
        let issuing = rig.now < RUN_SIM_TICKS;
        if !issuing && rig.clients.iter().all(Client::done) && rig.core.drained() {
            break;
        }
        if rig.now >= RUN_SIM_TICKS + 1000 {
            text.push_str("drain cap hit: undrained work remains\n");
            break;
        }
        rig.issue_and_serve(issuing, &mut NoTrace)?;
    }
    text.push_str(&LoadReport::from_clients(&rig.clients).render("ticks"));
    text.push_str(&rig.core.render_summary());
    if text != reference.text || rig.now != reference.ticks_run {
        return Err(format!(
            "pipe driver diverged from rlb_load::run_sim after {} vs {} ticks:\n--- driver\n{text}--- run_sim\n{}",
            rig.now, reference.ticks_run, reference.text
        ));
    }
    if reference.report.sent != spec.clients as u64 * RUN_SIM_REQUESTS {
        return Err("run_sim comparison did not finish inside its prefix".into());
    }
    Ok(())
}

fn run_pipe(serve: Serve, args: &ChildArgs) -> Result<ChildResult, String> {
    let spec = serve.spec();
    if args.round == 0 {
        check_against_run_sim(serve, args.seed)?;
    }
    let mut result = ChildResult::new(args);
    let (mut rig, preloaded) = cold_setups(
        args.setup_reps,
        &mut result.setup_ns,
        || {
            let mut core = ServerCore::new(serve.serve_config(args.seed), Greedy::new());
            let template = value_template(args.seed, spec.value_len);
            let preloaded = match &template {
                Some(t) => preload(&mut core, spec.keys, t)?,
                None => 0,
            };
            let mut rig = PipeRig::new(core, serve.clients(args.seed, u64::MAX), template);
            for _ in 0..spec.warmup {
                rig.tick(&mut NoTrace)?;
            }
            Ok((rig, preloaded))
        },
        |old| {
            drop(old);
            Ok(())
        },
    )?;

    // Quality and the failure count cover the timed windows only.
    let warm = rig.tally.restart();
    let cpu_before = host::this_thread_cpu_ns();
    result.windows = collect_windows(args.segment_ns(), spec.quality_windows, |i| {
        let w = rig.window(spec.window_ticks, &mut NoTrace)?;
        if i + 1 == spec.quality_windows {
            result.quality = rig.tally.quality();
        }
        Ok(w)
    })?;
    let cpu_ns = host::this_thread_cpu_ns() - cpu_before;

    if args.traced {
        result.layers = trace_pipe(serve, args, &mut rig, &result.windows)?;
        let reqs: u64 = result.windows.iter().map(|w| w.reqs).sum();
        result.layers.push((
            "driver.cpu_us_per_req".into(),
            cpu_ns as f64 / 1e3 / reqs as f64,
        ));
    }

    let unanswered = rig.drain()?;
    result.attempted = rig.tally.issued;
    result.failed = rig.tally.rejects() + rig.tally.bad_values + unanswered;
    // The clients' and the server's counters cover the rig's whole life.
    rig.tally.absorb(&warm);
    rig.check_counts(preloaded)?;
    result.hwm_kb = host::vm_hwm_kb();
    Ok(result)
}

/// Continues the rig with spans on, then replays the admitted keys
/// against a stand-alone `KvCluster`.
fn trace_pipe(
    serve: Serve,
    args: &ChildArgs,
    rig: &mut PipeRig,
    untraced: &[Window],
) -> Result<Vec<(String, f64)>, String> {
    let spec = serve.spec();
    let mut log = SpanLog::new();
    rig.keys_by_tick = Some(Vec::new());
    let (issued0, frames0, bytes0) = (rig.tally.issued, rig.tally.frames, rig.tally.bytes);
    let (replies0, rejects0) = (rig.tally.replies, rig.tally.rejects_by_cause);
    let traced = collect_windows(args.segment_ns(), spec.quality_windows, |_| {
        rig.window(spec.window_ticks, &mut log)
    })?;
    let keys_by_tick = rig.keys_by_tick.take().unwrap_or_default();
    let ticks = traced.len() as u64 * spec.window_ticks;
    let issued = rig.tally.issued - issued0;
    let responses: u64 = traced.iter().map(|w| w.reqs).sum();
    let frames = rig.tally.frames - frames0;
    let gate = RejectCause::Admission as usize;

    let folded = fold(log.spans());
    let get = |name: &str| folded.get(name).copied().unwrap_or_default();
    let mut layers = vec![
        (
            "serve.encode_ns_per_frame".to_string(),
            per(get("serve.encode").total_ns, frames),
        ),
        (
            "serve.decode_ns_per_frame".into(),
            per(get("serve.decode").total_ns, frames),
        ),
        (
            "serve.bytes_per_frame".into(),
            per(rig.tally.bytes - bytes0, frames),
        ),
        (
            "serve.on_frame_ns_per_req".into(),
            per(get("serve.on_frame").total_ns, issued),
        ),
        (
            "serve.tick_ns_per_req".into(),
            per(get("serve.tick").total_ns, responses),
        ),
        (
            "serve.tick_ns_per_tick".into(),
            per(get("serve.tick").total_ns, ticks),
        ),
        ("serve.reqs_per_tick".into(), per(issued, ticks)),
        (
            "serve.pipe_xfer_ns_per_batch".into(),
            per(
                get("serve.pipe_xfer").total_ns,
                get("serve.pipe_xfer").calls,
            ),
        ),
        (
            "serve.replies".into(),
            (rig.tally.replies - replies0) as f64,
        ),
        (
            "serve.rejects".into(),
            (rig.tally.rejects() - rejects0.iter().sum::<u64>()) as f64,
        ),
        (
            "serve.gate_rejects".into(),
            (rig.tally.rejects_by_cause[gate] - rejects0[gate]) as f64,
        ),
        (
            "load.on_tick_ns_per_req".into(),
            per(get("load.on_tick").total_ns, issued),
        ),
        (
            "load.on_frame_ns_per_resp".into(),
            per(get("load.on_frame").total_ns, responses),
        ),
        (
            "driver.unattributed_share".into(),
            per(get("driver.window").self_ns, get("driver.window").total_ns),
        ),
    ];
    layers.extend(driver_layers(untraced, &traced));

    // rlb-kv sits inside `ServerCore::tick`; time it stand-alone on the
    // keys the traced windows admitted.
    let mut kv = KvCluster::new(serve.serve_config(args.seed).engine, Greedy::new());
    let (mut get_ns, mut commit_ns, mut key_reqs, mut chunk_reqs) = (0u64, 0u64, 0u64, 0u64);
    let replayed = &keys_by_tick[..keys_by_tick.len().min(KV_REPLAY_TICKS)];
    for keys in replayed {
        let t = Instant::now();
        for &k in keys {
            kv.get_for(0, k);
        }
        get_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let summary = kv.commit_step();
        commit_ns += t.elapsed().as_nanos() as u64;
        key_reqs += keys.len() as u64;
        chunk_reqs += summary.chunk_requests;
    }
    kv.finish().check_conservation()?;
    layers.push(("kv.get_for_ns_per_req".into(), per(get_ns, key_reqs)));
    layers.push((
        "kv.commit_step_ns_per_step".into(),
        per(commit_ns, replayed.len() as u64),
    ));
    layers.push(("kv.coalesce_ratio".into(), per(chunk_reqs, key_reqs)));
    layers.extend(sampler_layers(serve, args.seed));
    Ok(layers)
}

/// rlb-hash and rlb-load set-up costs behind every serve workload,
/// timed stand-alone: the alias table, key picks, the placement.
fn sampler_layers(serve: Serve, seed: u64) -> Vec<(String, f64)> {
    let spec = serve.spec();
    let t = Instant::now();
    black_box(ZipfSampler::new(spec.keys, 1.1));
    let zipf_ns = t.elapsed().as_nanos() as u64;

    const PICKS: u64 = 200_000;
    let mut picker = KeyPicker::new(&serve.popularity(), seed);
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..PICKS {
        acc ^= picker.pick(i);
    }
    black_box(acc);
    let pick_ns = t.elapsed().as_nanos() as u64;

    let engine = serve.serve_config(seed).engine;
    let t = Instant::now();
    black_box(ReplicaPlacement::random(
        engine.num_chunks,
        engine.num_servers,
        engine.replication,
        engine.seed,
    ));
    let placement_ns = t.elapsed().as_nanos() as u64;
    vec![
        (
            "hash.zipf_build_ns_per_key".to_string(),
            per(zipf_ns, spec.keys as u64),
        ),
        ("load.key_pick_ns".into(), per(pick_ns, PICKS)),
        (
            "hash.placement_build_ns_per_chunk".into(),
            per(placement_ns, engine.num_chunks as u64),
        ),
    ]
}

// ---------------------------------------------------------------------
// The TCP driver
// ---------------------------------------------------------------------

/// Thread name of the daemon, for its `schedstat` CPU time.
const DAEMON_THREAD: &str = "bench-daemon";
/// `rlb-serve-accept`, as `/proc` truncates it.
const ACCEPT_THREAD: &str = "rlb-serve-acc";

/// `serve_blocking` on its own thread and one closed-loop client on the
/// calling thread, in `rlb_load`'s live-client loop order.
struct TcpRig {
    session: TcpSession,
    client: Client,
    daemon: JoinHandle<std::io::Result<ServeOutcome>>,
    shutdown: Arc<AtomicBool>,
    clock: Instant,
    tally: Tally,
    reads: u64,
    empty_reads: u64,
    flushes: u64,
    idle_sleeps: u64,
}

impl TcpRig {
    fn start(serve: Serve, seed: u64) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let core = ServerCore::new(serve.serve_config(seed), Greedy::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServeOptions {
            max_requests: None,
            shutdown: Arc::clone(&shutdown),
        };
        let daemon = std::thread::Builder::new()
            .name(DAEMON_THREAD.into())
            .spawn(move || serve_blocking(listener, core, &opts, &Pool::new(1)))
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let session = TcpStream::connect(addr)
            .and_then(TcpSession::new)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let client = serve
            .clients(seed, u64::MAX)
            .pop()
            .ok_or("serve-tcp needs one client")?;
        Ok(Self {
            session,
            client,
            daemon,
            shutdown,
            clock: Instant::now(),
            tally: Tally::default(),
            reads: 0,
            empty_reads: 0,
            flushes: 0,
            idle_sleeps: 0,
        })
    }

    /// Tens of microseconds: the unit `rlb_load`'s live clients run
    /// their clock in.
    fn decimicros(&self) -> u64 {
        self.clock.elapsed().as_micros() as u64 / 10
    }

    /// One pass of the live-client loop: refill the window, flush,
    /// read, sleep 50 µs if nothing moved.
    fn pump<T: Tracer>(&mut self, issuing: bool, tr: &mut T) -> Result<(), String> {
        let id = self.reads;
        let mut frames = Vec::new();
        if issuing {
            let h = tr.enter("load.on_tick", id);
            self.client.on_tick(self.decimicros(), &mut frames);
            tr.exit(h);
        }
        let h = tr.enter("serve.encode", id);
        for f in &frames {
            self.session.queue(f);
        }
        tr.exit(h);
        let h = tr.enter("serve.tcp_flush", id);
        let flushed = self.session.flush();
        tr.exit(h);
        flushed.map_err(|e| format!("tcp write: {e}"))?;
        self.flushes += 1;
        self.tally.issued += frames.len() as u64;
        self.tally.frames += frames.len() as u64;

        let h = tr.enter("serve.tcp_read", id);
        let (got, err, status) = self.session.read_frames();
        tr.exit(h);
        self.reads += 1;
        self.empty_reads += u64::from(got.is_empty());
        let at = self.decimicros();
        let h = tr.enter("load.on_frame", id);
        for f in &got {
            self.client.on_frame(at, f);
        }
        tr.exit(h);
        self.tally.frames += got.len() as u64;
        for f in &got {
            self.tally.note_response(f, None);
        }
        if let Some(e) = err {
            return Err(format!("tcp decode: {e}"));
        }
        if status != ReadStatus::Open {
            return Err(format!("daemon closed the connection ({status:?})"));
        }
        if frames.is_empty() && got.is_empty() {
            self.idle_sleeps += 1;
            let h = tr.enter("load.idle_sleep", id);
            std::thread::sleep(Duration::from_micros(50));
            tr.exit(h);
        }
        Ok(())
    }

    /// Pumps until `responses` more responses have arrived.
    fn window<T: Tracer>(&mut self, responses: u64, tr: &mut T) -> Result<Window, String> {
        let before = self.tally.responses();
        let t = Instant::now();
        let root = tr.enter("driver.window", self.reads);
        while self.tally.responses() - before < responses {
            self.pump(true, tr)?;
        }
        tr.exit(root);
        Ok(Window {
            ns: t.elapsed().as_nanos() as u64,
            reqs: self.tally.responses() - before,
        })
    }

    /// Waits out the outstanding requests, shuts the daemon down and
    /// checks its counts against the client's. Returns the requests
    /// left unanswered and the daemon's tick count.
    fn stop(mut self) -> Result<(u64, u64), String> {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.tally.issued > self.tally.responses() && Instant::now() < deadline {
            self.pump(false, &mut NoTrace)?;
        }
        let unanswered = self.tally.issued - self.tally.responses();
        self.shutdown.store(true, Ordering::Relaxed);
        let outcome = self
            .daemon
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        let field = |name: &str| -> Result<u64, String> {
            outcome
                .summary
                .split_whitespace()
                .find_map(|w| w.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
                .ok_or_else(|| format!("no {name}= in daemon summary {:?}", outcome.summary))
        };
        if unanswered == 0 {
            counts_agree(&[
                (
                    "responses (daemon vs client)",
                    outcome.responses,
                    self.client.responses(),
                ),
                (
                    "replies (daemon vs client)",
                    field("replies")?,
                    self.client.replies,
                ),
                (
                    "rejects (daemon vs client)",
                    field("rejects")?,
                    self.client.rejects(),
                ),
                (
                    "replies (client vs driver)",
                    self.client.replies,
                    self.tally.replies,
                ),
                ("sessions", outcome.sessions, 1),
            ])?;
        }
        Ok((unanswered, field("tick")?))
    }
}

fn run_tcp(serve: Serve, args: &ChildArgs) -> Result<ChildResult, String> {
    let spec = serve.spec();
    let mut result = ChildResult::new(args);
    let mut rig = cold_setups(
        args.setup_reps,
        &mut result.setup_ns,
        || {
            let mut rig = TcpRig::start(serve, args.seed)?;
            rig.window(spec.warmup, &mut NoTrace)?;
            Ok(rig)
        },
        |old| old.stop().map(|_| ()),
    )?;

    let warm = rig.tally.restart();
    result.windows = collect_windows(args.segment_ns(), spec.quality_windows, |_| {
        rig.window(spec.window_responses, &mut NoTrace)
    })?;
    if args.traced {
        result.layers = trace_tcp(serve, args, &mut rig, &result.windows)?;
    }
    // Tick boundaries depend on thread timing, so there is no
    // seed-determined leading segment: quality covers every window.
    result.quality = rig.tally.quality();
    result.attempted = rig.tally.issued;
    let rejects = rig.tally.rejects();
    rig.tally.absorb(&warm);
    let (unanswered, daemon_ticks) = rig.stop()?;
    result.failed = rejects + unanswered;
    result.quality.failed += unanswered;
    result.hwm_kb = host::vm_hwm_kb();
    if args.traced {
        result
            .layers
            .push(("serve.daemon_ticks".into(), daemon_ticks as f64));
    }
    Ok(result)
}

fn trace_tcp(
    serve: Serve,
    args: &ChildArgs,
    rig: &mut TcpRig,
    untraced: &[Window],
) -> Result<Vec<(String, f64)>, String> {
    let spec = serve.spec();
    let mut log = SpanLog::new();
    let (issued0, reads0, empty0, sleeps0) = (
        rig.tally.issued,
        rig.reads,
        rig.empty_reads,
        rig.idle_sleeps,
    );
    let (replies0, rejects0) = (rig.tally.replies, rig.tally.rejects_by_cause);
    let daemon_cpu0 = host::thread_cpu_ns(&[DAEMON_THREAD, ACCEPT_THREAD]);
    let client_cpu0 = host::this_thread_cpu_ns();
    let rtt0 = rig.client.latency.clone();
    let traced = collect_windows(args.segment_ns(), spec.quality_windows, |_| {
        rig.window(spec.window_responses, &mut log)
    })?;
    let daemon_cpu = host::thread_cpu_ns(&[DAEMON_THREAD, ACCEPT_THREAD]) - daemon_cpu0;
    let client_cpu = host::this_thread_cpu_ns() - client_cpu0;
    let issued = rig.tally.issued - issued0;
    let responses: u64 = traced.iter().map(|w| w.reqs).sum();
    let reads = rig.reads - reads0;
    let gate = RejectCause::Admission as usize;

    // Wall-clock round trips of the traced windows only: the client's
    // histogram minus what it held before them.
    let mut rtt = Histogram::new();
    for (value, count) in rig.client.latency.iter() {
        let before = rtt0.count_at(value);
        if count > before {
            rtt.record_n(value, count - before);
        }
    }
    let rtt_us = |q: f64| rtt.quantile(q).unwrap_or(0) as f64 * 10.0;

    let folded = fold(log.spans());
    let get = |name: &str| folded.get(name).copied().unwrap_or_default();
    let mut layers = vec![
        (
            "serve.encode_ns_per_frame".to_string(),
            per(get("serve.encode").total_ns, issued),
        ),
        (
            "serve.tcp_flush_ns_per_call".into(),
            per(
                get("serve.tcp_flush").total_ns,
                get("serve.tcp_flush").calls,
            ),
        ),
        (
            "serve.tcp_read_ns_per_call".into(),
            per(get("serve.tcp_read").total_ns, reads),
        ),
        ("serve.tcp_frames_per_read".into(), per(responses, reads)),
        (
            "serve.tcp_empty_read_ratio".into(),
            per(rig.empty_reads - empty0, reads),
        ),
        (
            "serve.daemon_cpu_us_per_req".into(),
            daemon_cpu as f64 / 1e3 / responses as f64,
        ),
        (
            "serve.replies".into(),
            (rig.tally.replies - replies0) as f64,
        ),
        (
            "serve.rejects".into(),
            (rig.tally.rejects() - rejects0.iter().sum::<u64>()) as f64,
        ),
        (
            "serve.gate_rejects".into(),
            (rig.tally.rejects_by_cause[gate] - rejects0[gate]) as f64,
        ),
        (
            "load.on_tick_ns_per_req".into(),
            per(get("load.on_tick").total_ns, issued),
        ),
        (
            "load.on_frame_ns_per_resp".into(),
            per(get("load.on_frame").total_ns, responses),
        ),
        ("load.rtt_p50_us".into(), rtt_us(0.5)),
        ("load.rtt_p99_us".into(), rtt_us(0.99)),
        (
            "load.idle_sleeps".into(),
            (rig.idle_sleeps - sleeps0) as f64,
        ),
        (
            "driver.cpu_us_per_req".into(),
            client_cpu as f64 / 1e3 / responses as f64,
        ),
        (
            "driver.unattributed_share".into(),
            per(get("driver.window").self_ns, get("driver.window").total_ns),
        ),
    ];
    layers.extend(driver_layers(untraced, &traced));
    layers.extend(sampler_layers(serve, args.seed));

    // rlb-pool at jobs = 1, as the reactor calls it: one session's item.
    const MAPS: u64 = 20_000;
    let pool = Pool::new(1);
    let t = Instant::now();
    for i in 0..MAPS {
        black_box(pool.map(vec![i], |x| *x + 1));
    }
    layers.push((
        "pool.map_ns_per_call".into(),
        per(t.elapsed().as_nanos() as u64, MAPS),
    ));
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_values_carry_the_pattern_and_the_key_stamp() {
        let template = value_template(3, 64).unwrap();
        let a = stored_value(&template, &7u64.to_le_bytes());
        let b = stored_value(&template, &8u64.to_le_bytes());
        assert_eq!(a.len(), 64);
        assert_ne!(a[..8], b[..8], "the stamp is the key's");
        assert_eq!(a[8..], b[8..]);
        assert!(is_stored_value(&template, &a));
        let mut torn = a.clone();
        torn[63] ^= 1;
        assert!(!is_stored_value(&template, &torn));
        assert!(!is_stored_value(&template, &a[..63]));
        assert!(value_template(3, 0).is_none());
    }

    #[test]
    fn tally_counts_a_wrong_value_as_a_failure() {
        let template = value_template(1, 32).unwrap();
        let mut tally = Tally::default();
        let reply = |value: Vec<u8>| Frame::Reply {
            req_id: 1,
            latency: 3,
            value,
        };
        tally.note_response(&reply(Vec::new()), Some(&template));
        tally.note_response(&reply(stored_value(&template, b"k")), Some(&template));
        tally.note_response(&reply(vec![0; 32]), Some(&template));
        tally.note_response(&reply(vec![1]), None);
        tally.note_response(
            &Frame::Reject {
                req_id: 2,
                cause: RejectCause::Admission,
            },
            None,
        );
        tally.issued = 5;
        assert_eq!(tally.replies, 4);
        assert_eq!(tally.bad_values, 2);
        assert_eq!(tally.responses(), 5);
        let q = tally.quality();
        assert_eq!((q.attempted, q.failed, q.p99_latency_steps), (5, 3, 3));
    }

    /// The pipe driver on a small rig: every request answered, counts
    /// agree everywhere, and a corrupted server-side count is caught.
    #[test]
    fn pipe_rig_accounts_exactly_and_the_gate_catches_corruption() {
        let serve = Serve::PipeLarge;
        let template = value_template(5, 64);
        let mut core = ServerCore::new(serve.serve_config(5), Greedy::new());
        let preloaded = preload(&mut core, 1000, template.as_deref().unwrap()).unwrap();
        assert_eq!(preloaded, 1000);
        let mut rig = PipeRig::new(core, serve.clients(5, u64::MAX), template);
        let w = rig.window(20, &mut NoTrace).unwrap();
        assert!(w.reqs > 0 && rig.tally.issued > w.reqs);
        assert_eq!(rig.drain().unwrap(), 0);
        assert_eq!(rig.tally.bad_values, 0);
        rig.check_counts(preloaded).unwrap();
        let err = rig.check_counts(preloaded + 1).unwrap_err();
        assert!(err.contains("replies (server vs clients)"), "{err}");
    }

    #[test]
    fn traced_and_untraced_ticks_are_the_same_simulation() {
        let serve = Serve::PipeSmall;
        let run = |traced: bool| {
            let core = ServerCore::new(serve.serve_config(2), Greedy::new());
            let mut rig = PipeRig::new(core, serve.clients(2, u64::MAX), None);
            let mut log = SpanLog::new();
            for _ in 0..30 {
                if traced {
                    rig.tick(&mut log).unwrap();
                } else {
                    rig.tick(&mut NoTrace).unwrap();
                }
            }
            (
                rig.tally.issued,
                rig.tally.replies,
                rig.tally.quality(),
                log.spans().len(),
            )
        };
        let (off, on) = (run(false), run(true));
        assert_eq!((off.0, off.1, off.2), (on.0, on.1, on.2));
        assert_eq!(off.3, 0);
        assert!(on.3 > 30 * 8);
    }
}
