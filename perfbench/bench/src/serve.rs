//! `serve_tcp`: the allocation daemon behind its TCP front.
//!
//! Two client connections, one thread each, drive an in-process `Server`
//! with two shards behind `hslb_serve::tcp::accept_loop` on `127.0.0.1:0`.
//! Each client sets `TCP_NODELAY`, writes each frame in one call and waits
//! for the reply before sending again (closed loop). The seeded mix:
//!
//! * replays of a primed pool of flat specs (answered from the cache);
//! * coefficient-drifted re-solves of primed structures (warm-seeded);
//! * fresh structures (cold solves, the control that bypasses the cache);
//! * `observe` and `fit` on known components, and `ping`.
//!
//! Replies are classified by their own `source`, not by intent. Every solve
//! is checked against `solve_minmax_waterfill` on the same spec after the
//! timed phase; the generator is a pure function of (seed, client, index),
//! so the check regenerates each spec instead of storing it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hslb::{solve_minmax_waterfill, AllowedNodes, ComponentSpec, FlatSpec, Objective};
use hslb_json::{FromJson, Json, ToJson};
use hslb_minlp::{MinlpOptions, MinlpStatus};
use hslb_obs::{ServeStats, SolveStats};
use hslb_perfmodel::PerfModel;
use hslb_serve::tcp::accept_loop;
use hslb_serve::{
    read_frame, write_frame, Body, EngineOptions, Handle, Request, Response, Server, ServerOptions,
    Source,
};

use crate::check;
use crate::metrics::{Metrics, PER_LAYER};
use crate::runner::{latency_note, ms_since, ratio, timed_setup, Config, InputRng, Phase, Report};
use crate::single::{end_to_end, mean, Verdict};
use crate::stats;

const CLIENTS: usize = 2;
const SHARDS: usize = 2;
/// Component counts of the solved specs.
const MIN_COMPONENTS: usize = 2;
const MAX_COMPONENTS: usize = 8;
/// Primed structures answered verbatim from the cache; both pools hold
/// every component count equally often, so the seed moves the solve cost
/// of the mix little.
const REPLAY_POOL: usize = 14;
/// Primed structures re-queried with drifted coefficients.
const WARM_POOL: usize = 28;
/// Components with ingested observations (`observe`/`fit` targets).
const KNOWN: usize = 4;
/// Longest client think time between a reply and the next request.
const THINK_MAX_US: u64 = 4000;
/// Observations per known component ingested at set-up.
const PRIMED_POINTS: u64 = 6;

/// What the generator meant a request to be. Solves are classified by the
/// reply's `source`; this only picks the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intent {
    Replay(usize),
    Warm(usize),
    Cold,
    Observe(usize),
    Fit(usize),
    Ping,
}

/// The seeded traffic generator.
struct Mix {
    seed: u64,
    replay: Vec<FlatSpec>,
    warm: Vec<FlatSpec>,
    known: Vec<PerfModel>,
}

/// A flat min-max spec with `k` components and 8 to 16 nodes per component
/// on average.
fn random_spec(rng: &mut InputRng, name: &str, k: usize) -> FlatSpec {
    let total = rng.int(8 * k as u64, 16 * k as u64) as i64;
    FlatSpec {
        components: (0..k)
            .map(|j| ComponentSpec {
                name: format!("{name}_c{j}"),
                model: PerfModel::new(
                    rng.range(50.0, 2000.0),
                    0.0,
                    rng.range(0.6, 1.0),
                    rng.range(0.5, 4.0),
                ),
                allowed: AllowedNodes::Range {
                    min: 1,
                    max: rng.int(total as u64 / 2, total as u64) as i64,
                },
            })
            .collect(),
        total_nodes: total,
        objective: Objective::MinMax,
    }
}

/// Component count of pool entry `j`: cycles through every count.
fn pool_components(j: usize) -> usize {
    MIN_COMPONENTS + j % (MAX_COMPONENTS - MIN_COMPONENTS + 1)
}

fn known_name(k: usize) -> String {
    format!("known{k}")
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = InputRng::new(seed, 0x5E7);
        Mix {
            seed,
            replay: (0..REPLAY_POOL)
                .map(|j| random_spec(&mut rng, &format!("r{j}"), pool_components(j)))
                .collect(),
            warm: (0..WARM_POOL)
                .map(|j| random_spec(&mut rng, &format!("w{j}"), pool_components(j)))
                .collect(),
            known: (0..KNOWN)
                .map(|_| PerfModel::amdahl(rng.range(100.0, 1000.0), rng.range(0.5, 4.0)))
                .collect(),
        }
    }

    /// Request `index` of `client`: a pure function of the seed.
    fn request(&self, client: usize, index: u64) -> (Intent, Request) {
        let stream = ((client as u64) << 48) ^ index;
        let mut rng = InputRng::new(self.seed, stream.wrapping_add(0x7C9));
        let roll = rng.range(0.0, 1.0);
        let intent = match roll {
            r if r < 0.30 => Intent::Replay(rng.int(0, REPLAY_POOL as u64 - 1) as usize),
            r if r < 0.55 => Intent::Warm(rng.int(0, WARM_POOL as u64 - 1) as usize),
            r if r < 0.80 => Intent::Cold,
            r if r < 0.90 => Intent::Observe(rng.int(0, KNOWN as u64 - 1) as usize),
            r if r < 0.95 => Intent::Fit(rng.int(0, KNOWN as u64 - 1) as usize),
            _ => Intent::Ping,
        };
        let request = match intent {
            Intent::Replay(j) => solve(self.replay[j].clone()),
            Intent::Warm(j) => {
                let mut spec = self.warm[j].clone();
                let drift = 1.0 + rng.range(1e-4, 1e-2);
                for c in &mut spec.components {
                    c.model.a *= drift;
                }
                solve(spec)
            }
            Intent::Cold => {
                let k = rng.int(MIN_COMPONENTS as u64, MAX_COMPONENTS as u64) as usize;
                solve(random_spec(&mut rng, &format!("cold{client}_{index}"), k))
            }
            Intent::Observe(k) => {
                let points = (0..2)
                    .map(|_| {
                        let n = rng.int(1, 64);
                        (n, self.known[k].eval(n as f64) * rng.range(0.97, 1.03))
                    })
                    .collect();
                Request::Observe {
                    component: known_name(k),
                    points,
                }
            }
            Intent::Fit(k) => Request::Fit {
                component: known_name(k),
            },
            Intent::Ping => Request::Ping,
        };
        (intent, request)
    }
}

fn solve(spec: FlatSpec) -> Request {
    Request::Solve { spec, budget: None }
}

/// A running server with its TCP front. Dropping it stops the acceptor,
/// then the server (whose own drop drains and joins its workers).
struct Rig {
    server: Server,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<std::io::Result<()>>>,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn start_server() -> Server {
    Server::start(ServerOptions {
        engine: EngineOptions {
            shards: SHARDS,
            ..EngineOptions::default()
        },
        ..ServerOptions::default()
    })
}

/// Primes the cache with every pool structure and ingests observations for
/// every known component, in process.
fn prime(handle: &Handle, mix: &Mix) -> Result<(), String> {
    for spec in mix.replay.iter().chain(&mix.warm) {
        match handle.call(solve(spec.clone())).body {
            Body::Allocation {
                status: MinlpStatus::Optimal,
                ..
            } => {}
            other => return Err(format!("priming solve failed: {other:?}")),
        }
    }
    for (k, model) in mix.known.iter().enumerate() {
        let points = (1..=PRIMED_POINTS)
            .map(|i| (1 << i, model.eval((1u64 << i) as f64)))
            .collect();
        let request = Request::Observe {
            component: known_name(k),
            points,
        };
        if !matches!(handle.call(request).body, Body::Ack { .. }) {
            return Err(format!("priming observe of {} failed", known_name(k)));
        }
    }
    Ok(())
}

/// Set-up: server, TCP front and a primed cache.
fn start_rig(mix: &Mix) -> Result<Rig, String> {
    let server = start_server();
    let handle = server.handle();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        let handle = handle.clone();
        thread::spawn(move || accept_loop(&listener, &handle, &stop))
    };
    let rig = Rig {
        server,
        addr,
        stop,
        acceptor: Some(acceptor),
    };
    prime(&handle, mix)?;
    Ok(rig)
}

/// What came back for one request, kept for the check.
#[derive(Debug)]
enum Reply {
    Solved {
        status: MinlpStatus,
        nodes: Vec<u64>,
        source: Source,
    },
    Ack(usize),
    Model(usize),
    Pong,
    Failed(String),
}

struct OpRec {
    client: usize,
    index: u64,
    /// Whether the client timed its codec around this request.
    traced: bool,
    latency_ms: f64,
    reply: Reply,
}

fn classify(response: Response) -> Reply {
    match response.body {
        Body::Allocation {
            status,
            nodes,
            source,
            ..
        } => Reply::Solved {
            status,
            nodes,
            source,
        },
        Body::Ack { accepted, .. } => Reply::Ack(accepted),
        Body::Model { points, .. } => Reply::Model(points),
        Body::Pong => Reply::Pong,
        Body::Stats { .. } => Reply::Failed("unexpected stats reply".to_string()),
        Body::Error { kind, message } => Reply::Failed(format!("{kind:?}: {message}")),
    }
}

/// Client-side codec timings of the traced requests, in microseconds.
#[derive(Debug, Default, Clone, Copy)]
struct Codec {
    encode_us: f64,
    decode_us: f64,
    ops: u64,
}

/// Why a round trip failed. A transport failure leaves the connection
/// unusable; a bad reply arrived whole, so the next request can follow.
enum TripError {
    Transport(String),
    BadReply(String),
}

/// One frame out, one frame back. Returns the decoded reply and, when
/// `traced`, the encode and decode times in microseconds (0 otherwise).
fn round_trip(
    stream: &mut TcpStream,
    request: &Request,
    traced: bool,
) -> Result<(Response, f64, f64), TripError> {
    let since_us = |t: Option<Instant>| t.map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e6);
    let t0 = traced.then(Instant::now);
    let payload = request.to_json().to_compact();
    // Framed into one buffer and sent in one write.
    let mut frame = Vec::with_capacity(4 + payload.len());
    write_frame(&mut frame, payload.as_bytes())
        .map_err(|e| TripError::BadReply(format!("request frame: {e}")))?;
    let encode_us = since_us(t0);
    let transport = |e: String| TripError::Transport(e);
    stream
        .write_all(&frame)
        .map_err(|e| transport(format!("write: {e}")))?;
    let body = read_frame(stream)
        .map_err(|e| transport(format!("read: {e}")))?
        .ok_or_else(|| transport("server closed the connection".to_string()))?;
    let t1 = traced.then(Instant::now);
    let bad = |e: String| TripError::BadReply(e);
    let text = std::str::from_utf8(&body).map_err(|e| bad(format!("reply not UTF-8: {e}")))?;
    let json = Json::parse(text).map_err(|e| bad(format!("reply not JSON: {e}")))?;
    let response =
        Response::from_json(&json).map_err(|e| bad(format!("reply not a response: {e}")))?;
    Ok((response, encode_us, since_us(t1)))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

/// Where a phase's requests go.
#[derive(Clone, Copy)]
enum Route<'a> {
    /// Over TCP; with `alternate`, every odd-numbered request is traced
    /// (the client times its codec), so a drift of the host's speed hits
    /// the traced and the untraced requests alike.
    Tcp {
        addr: SocketAddr,
        alternate: bool,
    },
    InProcess(&'a Handle),
}

struct ClientPhase {
    phase: Phase,
    ops: Vec<OpRec>,
    codec: Codec,
}

/// What one client thread brings back: its ops, codec times, and its wall
/// time less the time it spent thinking, in seconds.
type ClientRun = (Vec<OpRec>, Codec, f64);

/// One closed-loop client: sends requests `first, first + 1, ...` until
/// `budget` has passed, each after the previous reply arrived and a seeded
/// think time of up to [`THINK_MAX_US`]. The think time keeps the request
/// stream from locking onto the kernel's timer ticks, which otherwise pins
/// a whole run to one tick multiple of the reply delay. It is measured and
/// left out of the client's busy time, so throughput follows the time
/// spent in requests.
fn client_loop(
    mix: &Mix,
    route: Route,
    client: usize,
    first: u64,
    budget: Duration,
    barrier: &Barrier,
) -> Result<ClientRun, String> {
    let mut stream = match route {
        Route::Tcp { addr, .. } => Some(connect(addr)?),
        Route::InProcess(_) => None,
    };
    let (mut ops, mut codec) = (Vec::new(), Codec::default());
    let mut think = InputRng::new(mix.seed, 0x7111 + client as u64);
    let mut thought = Duration::ZERO;
    barrier.wait();
    let start = Instant::now();
    let mut index = first;
    while start.elapsed() < budget {
        let (_, request) = mix.request(client, index);
        let traced = matches!(
            route,
            Route::Tcp {
                alternate: true,
                ..
            }
        ) && index % 2 == 1;
        let t0 = Instant::now();
        let (reply, broken) = match (route, stream.as_mut()) {
            (Route::InProcess(handle), _) => (classify(handle.call(request)), false),
            (Route::Tcp { .. }, Some(stream)) => match round_trip(stream, &request, traced) {
                Ok((response, enc, dec)) => {
                    if traced {
                        codec.encode_us += enc;
                        codec.decode_us += dec;
                        codec.ops += 1;
                    }
                    (classify(response), false)
                }
                Err(TripError::BadReply(e)) => (Reply::Failed(e), false),
                Err(TripError::Transport(e)) => (Reply::Failed(e), true),
            },
            (Route::Tcp { .. }, None) => (Reply::Failed("no connection".to_string()), true),
        };
        ops.push(OpRec {
            client,
            index,
            traced,
            latency_ms: ms_since(t0),
            reply,
        });
        index += 1;
        if broken {
            break;
        }
        let t1 = Instant::now();
        thread::sleep(Duration::from_micros(think.int(0, THINK_MAX_US)));
        thought += t1.elapsed();
    }
    Ok((ops, codec, (start.elapsed() - thought).as_secs_f64()))
}

/// Runs `CLIENTS` closed-loop clients for `seconds`. Client `c` starts at
/// request index `first[c]`. The phase's throughput is the sum over clients
/// of ops ÷ busy time.
fn run_clients(
    mix: &Mix,
    route: Route,
    seconds: f64,
    first: &[u64; CLIENTS],
) -> Result<ClientPhase, String> {
    let barrier = Barrier::new(CLIENTS);
    let budget = Duration::from_secs_f64(seconds);
    let results: Vec<Result<ClientRun, String>> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || client_loop(mix, route, client, first[client], budget, barrier))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut out = ClientPhase {
        phase: Phase::default(),
        ops: Vec::new(),
        codec: Codec::default(),
    };
    let mut rate = 0.0;
    for r in results {
        let (ops, codec, busy_s) = r?;
        rate += ratio(ops.len() as f64, busy_s);
        out.phase
            .latencies_ms
            .extend(ops.iter().map(|o| o.latency_ms));
        out.ops.extend(ops);
        out.codec.encode_us += codec.encode_us;
        out.codec.decode_us += codec.decode_us;
        out.codec.ops += codec.ops;
    }
    out.phase.rates = vec![rate];
    Ok(out)
}

fn server_stats(addr: SocketAddr) -> Result<(ServeStats, SolveStats), String> {
    let mut stream = connect(addr)?;
    let (response, _, _) =
        round_trip(&mut stream, &Request::Stats, false).map_err(|e| match e {
            TripError::Transport(e) | TripError::BadReply(e) => format!("stats request: {e}"),
        })?;
    match response.body {
        Body::Stats { serve, solver } => Ok((serve, solver)),
        other => Err(format!("stats request answered {other:?}")),
    }
}

/// Checks every op against its regenerated request: a solve must be
/// optimal and match the waterfill reference; every other op must get its
/// own kind of reply.
fn verify(mix: &Mix, ops: &[&OpRec]) -> Verdict {
    let opts = MinlpOptions::default();
    let mut replay_refs: Vec<Option<Option<f64>>> = vec![None; REPLAY_POOL];
    let mut verdict = Verdict::default();
    for op in ops {
        let (intent, request) = mix.request(op.client, op.index);
        let label = format!("serve_tcp client {} op {}", op.client, op.index);
        match (&op.reply, &request) {
            (Reply::Solved { status, nodes, .. }, Request::Solve { spec, .. }) => {
                let result = if *status == MinlpStatus::Optimal {
                    let waterfill = || solve_minmax_waterfill(spec).map(|a| a.makespan());
                    let reference = match intent {
                        Intent::Replay(j) => *replay_refs[j].get_or_insert_with(waterfill),
                        _ => waterfill(),
                    };
                    reference
                        .ok_or_else(|| "solve_minmax_waterfill declined the spec".to_string())
                        .and_then(|r| check::flat(spec, nodes, r, check::tolerance(&opts, r)))
                        .map(|gap| (gap, None))
                } else {
                    Err(format!("status {status:?}"))
                };
                verdict.judge(&label, &result);
            }
            (Reply::Ack(accepted), Request::Observe { points, .. })
                if *accepted == points.len() =>
            {
                verdict.attempted += 1;
            }
            (Reply::Model(points), Request::Fit { .. }) if *points >= PRIMED_POINTS as usize => {
                verdict.attempted += 1;
            }
            (Reply::Pong, Request::Ping) => verdict.attempted += 1,
            (Reply::Failed(e), _) => verdict.judge(&label, &Err(e.clone())),
            (reply, _) => verdict.judge(&label, &Err(format!("{intent:?} answered {reply:?}"))),
        }
    }
    verdict
}

/// p50 of the ops whose reply came from `source`; 0 when there are none.
fn source_p50(ops: &[&OpRec], source: Source) -> f64 {
    let lat: Vec<f64> = ops
        .iter()
        .filter(|o| matches!(o.reply, Reply::Solved { source: s, .. } if s == source))
        .map(|o| o.latency_ms)
        .collect();
    stats::median(&lat)
}

/// Reply class of an op, for the per-class latency notes.
fn reply_class(reply: &Reply) -> &'static str {
    match reply {
        Reply::Solved {
            source: Source::Cache,
            ..
        } => "cache",
        Reply::Solved {
            source: Source::Warm,
            ..
        } => "warm",
        Reply::Solved {
            source: Source::Cold,
            ..
        } => "cold",
        Reply::Ack(_) => "ack",
        Reply::Model(_) => "model",
        Reply::Pong => "pong",
        Reply::Failed(_) => "failed",
    }
}

/// One latency note per reply class.
fn class_notes(label: &str, ops: &[&OpRec]) -> Vec<String> {
    ["cache", "warm", "cold", "ack", "model", "pong", "failed"]
        .iter()
        .map(|class| {
            let lat: Vec<f64> = ops
                .iter()
                .filter(|o| reply_class(&o.reply) == *class)
                .map(|o| o.latency_ms)
                .collect();
            latency_note(&format!("  {label} {class}"), &lat)
        })
        .collect()
}

/// Latencies of `ops`, in ms.
fn latencies(ops: &[&OpRec]) -> Vec<f64> {
    ops.iter().map(|o| o.latency_ms).collect()
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mix = Mix::new(cfg.seed);
    let (rig, setup_s) = timed_setup(|| start_rig(&mix));
    let rig = rig?;
    let mut notes = vec![format!("serve_tcp: set-up median {setup_s:.6} s")];

    // A traced run spends three quarters over TCP, alternating traced and
    // untraced requests, and a quarter in process.
    let tcp_seconds = if cfg.trace {
        cfg.seconds * 0.75
    } else {
        cfg.seconds
    };
    let first = [0; CLIENTS];
    let before = server_stats(rig.addr)?;
    let route = Route::Tcp {
        addr: rig.addr,
        alternate: cfg.trace,
    };
    let tcp = run_clients(&mix, route, tcp_seconds, &first)?;
    let after = server_stats(rig.addr)?;
    drop(rig);
    let (traced, untraced): (Vec<&OpRec>, Vec<&OpRec>) = tcp.ops.iter().partition(|o| o.traced);
    notes.push(latency_note("tcp untraced", &latencies(&untraced)));
    notes.extend(class_notes("tcp untraced", &untraced));

    let inproc = if cfg.trace {
        notes.push(latency_note("tcp traced", &latencies(&traced)));
        // A separate primed server answers the same mix in process.
        let inproc_rig = start_rig(&mix)?;
        let handle = inproc_rig.server.handle();
        let inproc = run_clients(&mix, Route::InProcess(&handle), cfg.seconds / 4.0, &first)?;
        drop(inproc_rig);
        notes.push(latency_note("in-process", &inproc.phase.latencies_ms));
        Some(inproc)
    } else {
        None
    };

    let mut all: Vec<&OpRec> = tcp.ops.iter().collect();
    all.extend(inproc.iter().flat_map(|p| p.ops.iter()));
    let verdict = verify(&mix, &all);

    let metrics = match &inproc {
        None => end_to_end(&tcp.phase, setup_s)?,
        Some(inproc) => {
            let mut m = Metrics::new(&PER_LAYER);
            // Counter growth over the TCP phase, by `ServeStats::fields` name.
            let served = |name: &str| {
                let at = |s: &ServeStats| s.get(name).unwrap_or(0);
                at(&after.0).saturating_sub(at(&before.0))
            };
            let newton = after.1.newton_iters.saturating_sub(before.1.newton_iters);
            let solve_requests = tcp
                .ops
                .iter()
                .filter(|o| matches!(o.reply, Reply::Solved { .. }))
                .count();
            let inproc_ops: Vec<&OpRec> = inproc.ops.iter().collect();
            let replay_p50 = source_p50(&untraced, Source::Cache);
            m.set("replay_p50_ms", replay_p50);
            m.set("warm_p50_ms", source_p50(&untraced, Source::Warm));
            m.set("cold_p50_ms", source_p50(&untraced, Source::Cold));
            m.set("makespan_gap_pct", 100.0 * mean(&verdict.gaps));
            m.set(
                "failed_frac",
                ratio(verdict.failed as f64, verdict.attempted as f64),
            );
            m.set(
                "json.encode_us",
                ratio(tcp.codec.encode_us, tcp.codec.ops as f64),
            );
            m.set(
                "json.decode_us",
                ratio(tcp.codec.decode_us, tcp.codec.ops as f64),
            );
            m.set("serve.inproc_p50_ms", inproc.phase.p50());
            m.set(
                "serve.transport_ms",
                replay_p50 - source_p50(&inproc_ops, Source::Cache),
            );
            m.set(
                "serve.cache_hit_ratio",
                ratio(served("cache_hits") as f64, solve_requests as f64),
            );
            let per_op = |v: u64| ratio(v as f64, tcp.ops.len() as f64);
            m.set("serve.solves", per_op(served("solves")));
            m.set("serve.warm_seeded", per_op(served("warm_seeded")));
            m.set("serve.coalesced", per_op(served("coalesced")));
            m.set("serve.evictions", per_op(served("evictions")));
            m.set("serve.shed", per_op(served("shed")));
            m.set("serve.errors", per_op(served("errors")));
            m.set("serve.work.newton_iters", per_op(newton));
            m.set(
                "trace.overhead_pct",
                100.0
                    * (stats::median(&latencies(&traced)) / stats::median(&latencies(&untraced))
                        - 1.0),
            );
            m
        }
    };
    notes.push(format!(
        "serve_tcp: {} ops checked, {} failed, mean makespan gap {:e}",
        verdict.attempted,
        verdict.failed,
        mean(&verdict.gaps)
    ));
    notes.extend(verdict.notes);
    Ok(Report {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_serve::Engine;

    /// Two components on 20 nodes, ranges 1–11 and 1–15: one structure.
    fn spec(name: &str, a: [f64; 2], c: [f64; 2], d: [f64; 2]) -> FlatSpec {
        FlatSpec {
            components: (0..2)
                .map(|j| ComponentSpec {
                    name: format!("{name}_c{j}"),
                    model: PerfModel::new(a[j], 0.0, c[j], d[j]),
                    allowed: AllowedNodes::Range {
                        min: 1,
                        max: [11, 15][j],
                    },
                })
                .collect(),
            total_nodes: 20,
            objective: Objective::MinMax,
        }
    }

    /// A re-solve seeded from the cached answer of another instance with
    /// the same structure must still be optimal. Seed 20 of the `serve_tcp`
    /// mix sends these two specs (a cold solve, then one whose cache slot
    /// it took); the second comes back `[9, 9]`, makespan 154.96, marked
    /// optimal, where `[11, 9]` gives 129.74. See NOTES.md, *Known defect*.
    #[test]
    #[ignore = "fails on the current serve warm path; see NOTES.md, Known defect"]
    fn warm_seed_from_another_instance_keeps_the_optimum() {
        let first = spec(
            "cold0_134",
            [680.9128197854131, 982.6427401489068],
            [0.8458793028798197, 0.6630508585031626],
            [1.4965942694122139, 1.282425240046435],
        );
        let second = spec(
            "cold0_384",
            [1113.4374422584065, 711.155977649173],
            [0.9082706057956659, 0.7962883725491021],
            [3.6195477167946515, 1.0599526334056795],
        );
        let mut engine = Engine::new(EngineOptions::default());
        engine.call(solve(first));
        let Body::Allocation {
            status,
            nodes,
            source,
            ..
        } = engine.call(solve(second.clone())).body
        else {
            panic!("no allocation");
        };
        assert_eq!(source, Source::Warm);
        assert_eq!(status, MinlpStatus::Optimal);
        let reference = solve_minmax_waterfill(&second)
            .expect("decreasing models")
            .makespan();
        let tol = check::tolerance(&MinlpOptions::default(), reference);
        if let Err(e) = check::flat(&second, &nodes, reference, tol) {
            panic!("{e}");
        }
    }
}
