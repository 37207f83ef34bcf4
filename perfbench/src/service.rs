//! `service_mixed`: the search daemon under mixed traffic.
//!
//! An in-process `sapa_service::serve` with the default 400-sequence
//! corpus and `nproc` workers answers the eleven paper queries on the
//! `striped`, `blast` and `fasta` engines for four tenants. A run
//! alternates two phases over [`ROUNDS`] rounds:
//!
//! * open loop: requests are due on a fixed schedule at the offered
//!   rate given on the command line (a constant of the benchmark, never
//!   derived from the run), pipelined over at most `nproc` connections
//!   and timed from when each was due, so a stall charges the wait it
//!   imposes on later requests;
//! * closed loop: `nproc` connections each keep two requests
//!   outstanding and send the next as soon as a reply arrives, which
//!   measures capacity: requests served within the phases' windows.
//!
//! This is the only workload that reaches the protocol, admission,
//! deficit-round-robin dispatch, the profile cache and the BLAST and
//! FASTA engines; its corpus fits in L2, unlike the search corpus.
//! Load comes from this process only: `nproc` threads, one connection
//! each.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sapa_align::engine::{
    search_with, BlastEngine, Engine, FastaEngine, Prefilter, SearchRequest, SearchResponse,
    StripedEngine,
};
use sapa_align::{blast, fasta};
use sapa_bioseq::matrix::GapPenalties;
use sapa_bioseq::queries::QuerySet;
use sapa_bioseq::rng::Xoshiro256;
use sapa_bioseq::{AminoAcid, ProfileCache, SubstitutionMatrix};
use sapa_service::json::{self, Json};
use sapa_service::protocol::{parse_request, render_result, Request};
use sapa_service::{admission, serve, Client, Limits, SearchParams, ServiceConfig, Snapshot};

use crate::spans::Tracer;
use crate::{nproc, stats, Args, Outcome};

/// Engines in the request mix.
const ENGINES: [&str; 3] = ["striped", "blast", "fasta"];

/// Tenants in the request mix.
const TENANTS: [&str; 4] = ["tenant-a", "tenant-b", "tenant-c", "tenant-d"];

/// Hits per request.
const TOP_K: usize = 10;

/// Daemon start-ups per run; `setup_s` is their median. One takes about
/// a millisecond, so many are needed for a steady median.
const SETUPS: usize = 21;

/// Share of the measured seconds spent in the open-loop phase; the rest
/// is the closed-loop phase.
const OPEN_SHARE: f64 = 0.8;

/// Percentile reported as the open loop's tail latency. At the
/// benchmark's offered rate a 20 s run sends 640 open-loop requests, so
/// p98 has twelve samples above it. A traced run pools its two open
/// loops, so the per-layer p99s have twelve above them too.
const TAIL_P: f64 = 98.0;

/// The two phases alternate in this many rounds. The host's speed
/// swings by a fifth within seconds; closed-loop windows spread over
/// the run sample several of those swings instead of one.
const ROUNDS: usize = 4;

/// How long a phase may take to drain its outstanding replies.
const DRAIN: Duration = Duration::from_secs(30);

/// Longest an open-loop connection sleeps while replies are
/// outstanding and its next request is due within [`TICK_SLACK`]: the
/// resolution of completion times in that window.
const POLL: Duration = Duration::from_micros(200);

/// Margin by which a blocking wait for replies ends before the next
/// request is due. Socket read timeouts expire up to several
/// milliseconds late (the kernel counts them in timer ticks).
const TICK_SLACK: Duration = Duration::from_millis(10);

/// Requests each closed-loop connection keeps outstanding.
const WINDOW: usize = 2;

/// Times each distinct request is replayed in-process in a traced run.
const REPLAYS: usize = 5;

/// One query on one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pair {
    query: usize,
    engine: usize,
}

/// Cycles of the request mix that get an order of their own; later
/// cycles repeat them. More than any run sends.
const CYCLES: usize = 256;

/// The request mix. Every 33 consecutive requests ask each of the 11
/// queries on each of the 3 engines once, each cycle in its own order
/// drawn from the seed; request `i` belongs to tenant `i % 4`. The seed
/// moves only the arrival order: the work in every cycle, and the
/// corpus, stay the same, so runs on different seeds measure the same
/// load. A fresh order per cycle spreads what follows the slow
/// requests over the run, so no single draw sets the queueing.
struct Schedule {
    orders: Vec<Vec<Pair>>,
    queries: Vec<String>,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        let queries: Vec<String> = QuerySet::paper()
            .queries()
            .iter()
            .map(|q| q.residues().iter().map(|a| a.to_char()).collect())
            .collect();
        let pairs: Vec<Pair> = (0..ENGINES.len())
            .flat_map(|engine| (0..queries.len()).map(move |query| Pair { query, engine }))
            .collect();
        let mut rng = Xoshiro256::new(seed);
        let orders = (0..CYCLES)
            .map(|_| {
                let mut order = pairs.clone();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
                order
            })
            .collect();
        Schedule { orders, queries }
    }

    /// Distinct requests: one cycle of the mix.
    fn cycle_len(&self) -> u64 {
        self.orders[0].len() as u64
    }

    fn pair(&self, i: u64) -> Pair {
        let n = self.cycle_len();
        self.orders[((i / n) % CYCLES as u64) as usize][(i % n) as usize]
    }

    fn frame(&self, i: u64) -> String {
        let p = self.pair(i);
        SearchParams {
            id: i,
            tenant: TENANTS[(i % TENANTS.len() as u64) as usize],
            engine: ENGINES[p.engine],
            query: &self.queries[p.query],
            top_k: TOP_K,
            min_score: 1,
            deadline_cells: None,
            deadline_ms: None,
        }
        .render()
    }
}

/// Checks one reply line against the request id it answers. `Ok(true)`
/// is a served result, `Ok(false)` a typed refusal or error.
pub fn check_reply(line: &str, id: u64) -> Result<bool, String> {
    let reply = json::parse(line).map_err(|e| format!("reply to {id} does not parse: {e}"))?;
    if reply.get("id").and_then(Json::as_u64) != Some(id) {
        return Err(format!(
            "reply to request {id} carries id {:?}",
            reply.get("id")
        ));
    }
    match reply.get("type").and_then(Json::as_str) {
        Some("result") => Ok(true),
        Some("error") => Ok(false),
        other => Err(format!("reply to {id} has type {other:?}")),
    }
}

/// Checks the daemon's accounting at shutdown: every submitted search
/// was served, refused or quarantined, and it saw every search sent.
pub fn check_balance(snap: &Snapshot, sent: u64) -> Result<(), String> {
    if !snap.balances() {
        return Err(format!("daemon counters do not balance: {snap:?}"));
    }
    if snap.submitted != sent {
        return Err(format!(
            "sent {sent} searches, daemon saw {}",
            snap.submitted
        ));
    }
    Ok(())
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    pair: Pair,
    due: Instant,
    sent: Instant,
    done: Instant,
    served: bool,
}

/// What one phase produced.
#[derive(Default)]
struct PhaseResult {
    records: Vec<Record>,
    errors: Vec<String>,
    transport_failures: u64,
    /// Closed loop only: the measured window, and the requests served
    /// within it (replies drained after it are not counted).
    window: Duration,
    served_in_window: u64,
}

impl PhaseResult {
    fn latencies_ms(&self) -> Vec<(Pair, f64)> {
        self.records
            .iter()
            .filter(|r| r.served)
            .map(|r| (r.pair, (r.done - r.due).as_secs_f64() * 1e3))
            .collect()
    }

    fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.served).count() as u64 + self.transport_failures
    }

    fn attempted(&self) -> u64 {
        self.records.len() as u64 + self.transport_failures
    }

    /// Appends another round of the same phase.
    fn merge(&mut self, other: PhaseResult) {
        self.records.extend(other.records);
        self.errors.extend(other.errors);
        self.transport_failures += other.transport_failures;
        self.window += other.window;
        self.served_in_window += other.served_in_window;
    }
}

/// Writes all of `bytes` to a non-blocking stream.
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("daemon stopped reading".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::sleep(POLL);
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

/// Blocks until reply bytes are readable on a non-blocking stream, or
/// for about `limit` (the kernel rounds the timeout up to whole timer
/// ticks). Wakes as soon as data arrives, so completion times stay
/// exact without polling.
fn await_reply(stream: &TcpStream, limit: Duration) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    stream.set_nonblocking(false).map_err(io)?;
    stream.set_read_timeout(Some(limit)).map_err(io)?;
    let peeked = stream.peek(&mut [0u8; 1]);
    stream.set_nonblocking(true).map_err(io)?;
    match peeked {
        Ok(_) => Ok(()),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
            ) =>
        {
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Reads every reply byte already available on a non-blocking stream
/// and matches complete lines, in order, to `pending`.
fn pump_replies(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    pending: &mut VecDeque<(u64, Pair, Instant, Instant)>,
    out: &mut Vec<Record>,
) -> Result<(), String> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let done = Instant::now();
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
        let (id, pair, due, sent) = pending
            .pop_front()
            .ok_or_else(|| format!("unsolicited reply {text}"))?;
        let served = check_reply(&text, id)?;
        out.push(Record {
            id,
            pair,
            due,
            sent,
            done,
            served,
        });
    }
    Ok(())
}

/// The open-loop generator: request `first + i` is due at
/// `start + i / rate` and goes out on connection `i % conns`, whatever
/// the state of
/// earlier requests. Each connection's thread sends what is due and
/// takes the replies that have arrived. Then, with nothing outstanding,
/// it sleeps until its next request is due; with replies outstanding it
/// blocks on the socket until one arrives, but no later than
/// [`TICK_SLACK`] before the next request is due, and polls every
/// [`POLL`] in that last stretch.
fn open_loop(
    addr: SocketAddr,
    schedule: &Schedule,
    rate: f64,
    seconds: f64,
    first: u64,
) -> PhaseResult {
    let conns = nproc() as u64;
    let total = first + (rate * seconds).ceil() as u64;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: u64| start + Duration::from_secs_f64((i - first) as f64 / rate);
    let per_conn: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
                    let mut buf = Vec::new();
                    let mut pending = VecDeque::new();
                    let mut records = Vec::new();
                    let mut next = first + c;
                    loop {
                        let now = Instant::now();
                        while next < total && due(next) <= now {
                            let line = schedule.frame(next) + "\n";
                            write_all_nonblocking(&mut stream, line.as_bytes())?;
                            pending.push_back((
                                next,
                                schedule.pair(next),
                                due(next),
                                Instant::now(),
                            ));
                            next += conns;
                        }
                        pump_replies(&mut stream, &mut buf, &mut pending, &mut records)?;
                        if next >= total && pending.is_empty() {
                            return Ok(records);
                        }
                        let now = Instant::now();
                        if next >= total && now > due(total) + DRAIN {
                            return Err(format!(
                                "{} replies outstanding after drain",
                                pending.len()
                            ));
                        }
                        let until_due = if next < total {
                            due(next).saturating_duration_since(now)
                        } else {
                            Duration::from_secs(1)
                        };
                        if pending.is_empty() {
                            std::thread::sleep(until_due);
                        } else if until_due > TICK_SLACK {
                            await_reply(&stream, until_due - TICK_SLACK)?;
                        } else {
                            std::thread::sleep(until_due.min(POLL));
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    collect(per_conn, total - first)
}

/// The closed-loop phase: each of `nproc` connections keeps
/// [`WINDOW`] requests outstanding, numbered from `first`, and sends the
/// next one as soon as a reply arrives, until `seconds` pass. The window
/// keeps a frame queued behind the one executing, so the daemon never
/// idles for a client's round trip.
fn closed_loop(addr: SocketAddr, schedule: &Schedule, seconds: f64, first: u64) -> PhaseResult {
    let conns = nproc() as u64;
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let per_conn: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || -> Result<Vec<Record>, String> {
                    let mut client = Client::connect(addr, DRAIN).map_err(|e| e.to_string())?;
                    let mut records = Vec::new();
                    let mut pending = VecDeque::new();
                    let mut next = first + c;
                    loop {
                        while pending.len() < WINDOW && Instant::now() < stop {
                            client
                                .send_line(&schedule.frame(next))
                                .map_err(|e| format!("request {next}: {e}"))?;
                            pending.push_back((next, Instant::now()));
                            next += conns;
                        }
                        let Some((id, sent)) = pending.pop_front() else {
                            return Ok(records);
                        };
                        let reply = client
                            .recv_line()
                            .map_err(|e| format!("request {id}: {e}"))?
                            .ok_or_else(|| format!("daemon closed before replying to {id}"))?;
                        records.push(Record {
                            id,
                            pair: schedule.pair(id),
                            due: sent,
                            sent,
                            done: Instant::now(),
                            served: check_reply(&reply, id)?,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut out = collect(per_conn, 0);
    out.window = stop - start;
    out.served_in_window = out
        .records
        .iter()
        .filter(|r| r.served && r.done <= stop)
        .count() as u64;
    out
}

fn collect(per_conn: Vec<Result<Vec<Record>, String>>, expected: u64) -> PhaseResult {
    let mut out = PhaseResult::default();
    for r in per_conn {
        match r {
            Ok(recs) => out.records.extend(recs),
            Err(e) => {
                out.errors.push(e);
                out.transport_failures += 1;
            }
        }
    }
    if expected > 0 && out.attempted() < expected {
        out.transport_failures += expected - out.attempted();
    }
    out.records.sort_by_key(|r| r.id);
    out
}

/// Starts the daemon on the default corpus with `nproc` workers and
/// returns it with the time `serve` took: building the corpus, binding
/// and spawning the threads. The readiness ping after it is not timed;
/// it mostly waits out the accept loop's 5 ms poll.
fn start() -> Result<(sapa_service::ServiceHandle, f64), String> {
    let cfg = ServiceConfig {
        workers: nproc(),
        ..ServiceConfig::default()
    };
    let t0 = Instant::now();
    let handle = serve(cfg).map_err(|e| format!("serve failed: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    let mut c = Client::connect(handle.addr(), DRAIN).map_err(|e| e.to_string())?;
    let pong = c
        .request("{\"op\":\"ping\",\"id\":0}")
        .map_err(|e| e.to_string())?;
    if !pong.contains("\"pong\"") {
        return Err(format!("unexpected ping reply {pong}"));
    }
    Ok((handle, secs))
}

/// Asks the running daemon for its counters over the `stats` op.
fn remote_stats(addr: SocketAddr) -> Result<Json, String> {
    let mut c = Client::connect(addr, DRAIN).map_err(|e| e.to_string())?;
    let line = c
        .request("{\"op\":\"stats\",\"id\":1}")
        .map_err(|e| e.to_string())?;
    json::parse(&line).map_err(|e| format!("stats reply does not parse: {e}"))
}

/// Per-pair execution time of one request replayed in-process, layer
/// by layer: parse, price, engine preparation, scan, render.
fn replay(
    tracer: &mut Tracer,
    schedule: &Schedule,
    subjects: &[Vec<AminoAcid>],
    out: &mut Outcome,
) -> Vec<(Pair, f64)> {
    let matrix = SubstitutionMatrix::blosum62();
    let gaps = GapPenalties::paper();
    let limits = Limits::default();
    let slices: Vec<&[AminoAcid]> = subjects.iter().map(Vec::as_slice).collect();
    let lens: Vec<usize> = subjects.iter().map(Vec::len).collect();
    let mut cache = ProfileCache::new();
    let mut exec = Vec::new();
    let (mut parse, mut price, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepare: [Vec<f64>; 3] = Default::default();
    let mut scan: [Vec<f64>; 3] = Default::default();
    for i in 0..schedule.cycle_len() {
        let p = schedule.pair(i);
        let line = schedule.frame(i);
        let mut times = Vec::new();
        for _ in 0..REPLAYS {
            let root = tracer.open("request.replay");
            let (parsed, t_parse) =
                tracer.time("service.protocol.parse", || parse_request(&line, &limits));
            let Ok(Request::Search(f)) = parsed else {
                out.errors
                    .push(format!("replayed frame {i} does not parse as a search"));
                tracer.close(root);
                return exec;
            };
            let (_, t_price) = tracer.time("service.admission.price", || {
                admission::price(f.engine, f.query.len(), lens.iter().copied(), None)
            });
            let req = SearchRequest {
                query: &f.query,
                matrix: &matrix,
                gaps,
                top_k: f.top_k,
                min_score: f.min_score,
                deadline: None,
                report_alignments: false,
                prefilter: Prefilter::Off,
            };
            let (resp, t_prep, t_scan) = run_engine(tracer, p.engine, &req, &slices, &mut cache);
            let (_, t_render) =
                tracer.time("service.protocol.render", || render_result(f.id, &resp));
            tracer.close(root);
            parse.push(t_parse);
            price.push(t_price);
            render.push(t_render);
            prepare[p.engine].push(t_prep);
            scan[p.engine].push(t_scan);
            times.push(t_parse + t_price + t_prep + t_scan + t_render);
        }
        exec.push((p, stats::median(&times).unwrap_or(0.0) * 1e3));
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.set("service.protocol.parse_us", med(&parse) * 1e6);
    out.set("service.admission.price_us", med(&price) * 1e6);
    out.set("service.protocol.render_us", med(&render) * 1e6);
    let prep_names = [
        "service.engine.prepare_us.striped",
        "service.engine.prepare_us.blast",
        "service.engine.prepare_us.fasta",
    ];
    let scan_names = [
        "service.engine.scan_ms.striped",
        "service.engine.scan_ms.blast",
        "service.engine.scan_ms.fasta",
    ];
    for e in 0..ENGINES.len() {
        out.set(prep_names[e], med(&prepare[e]) * 1e6);
        out.set(scan_names[e], stats::mean(&scan[e]) * 1e3);
    }
    exec
}

/// Prepares the engine a request names the way the daemon does (a
/// profile-cache lookup for `striped`) and scans the corpus with it on
/// one thread, as a daemon worker does.
fn run_engine(
    tracer: &mut Tracer,
    engine: usize,
    req: &SearchRequest<'_>,
    slices: &[&[AminoAcid]],
    cache: &mut ProfileCache,
) -> (SearchResponse, f64, f64) {
    match engine {
        0 => {
            cache.get_or_build(req.query, req.matrix, 8);
            let (e, prep) = tracer.time("service.engine.prepare.striped", || {
                StripedEngine::<16, 8>::with_profile(
                    cache.get_or_build(req.query, req.matrix, 8),
                    req.gaps,
                )
            });
            let (r, s) = tracer.time("service.engine.scan.striped", || {
                search_with(Engine::Striped, &e, req, slices, 1)
            });
            (r, prep, s)
        }
        1 => {
            let (e, prep) = tracer.time("service.engine.prepare.blast", || {
                BlastEngine::new(
                    req.query,
                    req.matrix,
                    req.gaps,
                    blast::BlastParams::default(),
                )
            });
            let (r, s) = tracer.time("service.engine.scan.blast", || {
                search_with(Engine::Blast, &e, req, slices, 1)
            });
            (r, prep, s)
        }
        _ => {
            let (e, prep) = tracer.time("service.engine.prepare.fasta", || {
                FastaEngine::new(
                    req.query,
                    req.matrix,
                    req.gaps,
                    fasta::FastaParams::default(),
                )
            });
            let (r, s) = tracer.time("service.engine.scan.fasta", || {
                search_with(Engine::Fasta, &e, req, slices, 1)
            });
            (r, prep, s)
        }
    }
}

/// Percentile `p` of how late the generator sent the requests of the
/// given open-loop phases.
fn late_ms(phases: &[&PhaseResult], p: f64) -> f64 {
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|phase| &phase.records)
        .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
        .collect();
    stats::percentile(&late, p).unwrap_or(0.0)
}

/// Runs `service_mixed`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let rate = args
        .offered_rps
        .ok_or("service_mixed needs --offered-rps (a constant of the benchmark)")?;
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut handle: Option<sapa_service::ServiceHandle> = None;
    for _ in 0..SETUPS {
        if let Some(h) = handle.take() {
            h.shutdown();
        }
        let (h, secs) = start()?;
        handle = Some(h);
        setup_s.push(secs);
    }
    let handle = handle.expect("at least one start-up ran");
    let addr = handle.addr();
    let schedule = Schedule::new(args.seed);
    let open_s = args.seconds * OPEN_SHARE;
    let mut phases = Vec::new();

    let (mut open, mut closed) = (PhaseResult::default(), PhaseResult::default());
    let mut next_id = 0;
    for _ in 0..ROUNDS {
        let round = open_loop(addr, &schedule, rate, open_s / ROUNDS as f64, next_id);
        next_id += round.attempted();
        open.merge(round);
        let round = closed_loop(
            addr,
            &schedule,
            (args.seconds - open_s) / ROUNDS as f64,
            next_id,
        );
        next_id += round.attempted();
        closed.merge(round);
    }
    let open_ms = open.latencies_ms();
    let lat: Vec<f64> = open_ms.iter().map(|p| p.1).collect();

    let mut traced = None;
    let mut tracer = Tracer::new();
    if args.trace {
        let span = tracer.open("open_loop");
        let t = open_loop(addr, &schedule, rate, open_s, next_id);
        for r in &t.records {
            tracer.record("request", r.due, r.done);
        }
        tracer.close(span);
        traced = Some(t);
    }
    let counters = remote_stats(addr);
    phases.push(open);
    phases.push(closed);
    phases.extend(traced);
    let sent = phases.iter().map(|p| p.records.len() as u64).sum();
    let subjects = handle.subjects().to_vec();
    let snap = handle.shutdown();
    out.check(check_balance(&snap, sent));
    for p in &phases {
        out.errors.extend(p.errors.iter().cloned());
    }
    out.attempted = phases[..2].iter().map(PhaseResult::attempted).sum();
    out.failed = phases[..2].iter().map(PhaseResult::failed).sum();

    if !args.trace {
        let closed = &phases[1];
        let capacity = closed.served_in_window as f64 / closed.window.as_secs_f64();
        out.set("setup_s", stats::median(&setup_s).unwrap_or(0.0));
        out.set("ops_per_s", capacity);
        out.note(format!(
            "capacity_rps = {capacity:.2}: {} requests served within {ROUNDS} closed-loop windows of {:.3} s in all, on {} connections",
            closed.served_in_window,
            closed.window.as_secs_f64(),
            nproc()
        ));
        out.note(format!(
            "open loop: offered {rate} req/s, {} requests, late p{TAIL_P} {:.3} ms",
            phases[0].records.len(),
            late_ms(&[&phases[0]], TAIL_P)
        ));
        out.note(format!(
            "setup_s = median of {SETUPS} start-ups {setup_s:?}"
        ));
        crate::note_latency(&mut out, "request latency from due time", &lat, TAIL_P);
        return Ok(out);
    }

    let traced = &phases[2];
    let traced_ms = traced.latencies_ms();
    let counters = counters?;
    for (metric, key) in [
        ("service.submitted", "submitted"),
        ("service.served_clean", "served_clean"),
        ("service.quarantined_requests", "quarantined_requests"),
    ] {
        out.set(
            metric,
            counters.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN),
        );
    }
    let rejected: f64 = [
        "rejected_overloaded",
        "rejected_throttled",
        "rejected_unavailable",
    ]
    .iter()
    .map(|k| counters.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN))
    .sum();
    out.set("service.rejected", rejected);
    out.set(
        "loadgen.late_p99_ms",
        late_ms(&[&phases[0], &phases[2]], 99.0),
    );

    let exec = replay(&mut tracer, &schedule, &subjects, &mut out);
    let waits = |lat: &[(Pair, f64)]| -> Vec<f64> {
        lat.iter()
            .filter_map(|(p, ms)| exec.iter().find(|e| e.0 == *p).map(|e| ms - e.1))
            .collect()
    };
    let traced_wait = waits(&traced_ms);
    let mut wait = waits(&open_ms);
    wait.extend(&traced_wait);
    let e2e: Vec<f64> = traced_ms.iter().map(|p| p.1).collect();
    out.set(
        "service.queue_wait_ms_p50",
        stats::median(&wait).unwrap_or(0.0),
    );
    out.set(
        "service.queue_wait_ms_p99",
        stats::percentile(&wait, 99.0).unwrap_or(0.0),
    );
    out.note(format!(
        "queue wait over both open loops: {} requests, {} beyond p99",
        wait.len(),
        stats::beyond(wait.len(), 99.0)
    ));
    out.set("trace.e2e_ms", stats::median(&e2e).unwrap_or(0.0));
    out.set("trace.residual_ms", stats::mean(&traced_wait));
    out.set("trace.overhead_frac", stats::overhead(&open_ms, &traced_ms));
    out.note("residual = request latency from due time minus its replayed execution (queue wait and transport)".into());
    crate::finish_trace(&mut out, &tracer, args);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_must_parse_and_carry_their_request_id() {
        assert_eq!(
            check_reply(r#"{"type":"result","id":7,"hits":[]}"#, 7),
            Ok(true)
        );
        assert_eq!(
            check_reply(r#"{"type":"error","id":7,"code":"overloaded"}"#, 7),
            Ok(false)
        );
        assert!(check_reply(r#"{"type":"result","id":8}"#, 7).is_err());
        assert!(check_reply(r#"{"type":"result","id":7"#, 7).is_err());
        assert!(check_reply(r#"{"type":"pong","id":7}"#, 7).is_err());
    }

    #[test]
    fn unbalanced_or_short_accounting_is_caught() {
        let mut snap = Snapshot {
            submitted: 3,
            served_clean: 3,
            ..Snapshot::default()
        };
        assert_eq!(check_balance(&snap, 3), Ok(()));
        assert!(check_balance(&snap, 4).is_err());
        snap.served_clean = 2;
        assert!(check_balance(&snap, 3).is_err());
    }

    #[test]
    fn every_cycle_covers_every_query_engine_pair_in_its_own_order() {
        let s = Schedule::new(0);
        let n = s.cycle_len();
        assert_eq!(n, 33);
        for c in [0, 1, 7, CYCLES as u64 - 1] {
            let pairs: std::collections::BTreeSet<Pair> =
                (c * n..(c + 1) * n).map(|i| s.pair(i)).collect();
            assert_eq!(pairs.len(), 33);
        }
        let cycle = |s: &Schedule, c: u64| -> Vec<Pair> {
            (c * n..(c + 1) * n).map(|i| s.pair(i)).collect()
        };
        assert_ne!(cycle(&s, 0), cycle(&s, 1));
        assert_eq!(cycle(&s, 0), cycle(&s, CYCLES as u64));
        assert_eq!(cycle(&s, 3), cycle(&Schedule::new(0), 3));
        assert_ne!(cycle(&s, 3), cycle(&Schedule::new(1), 3));
    }

    #[test]
    fn short_rounds_serve_every_request_and_count_capacity_in_the_window() {
        let (handle, _) = start().expect("daemon starts");
        let schedule = Schedule::new(0);
        let mut open = open_loop(handle.addr(), &schedule, 200.0, 0.2, 0);
        open.merge(open_loop(handle.addr(), &schedule, 200.0, 0.1, 40));
        assert!(open.errors.is_empty(), "{:?}", open.errors);
        let ids: Vec<u64> = open.records.iter().map(|r| r.id).collect();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>());
        assert!(open
            .records
            .iter()
            .all(|r| r.served && r.done >= r.sent && r.sent >= r.due));
        let closed = closed_loop(handle.addr(), &schedule, 0.2, 60);
        assert!(closed.errors.is_empty(), "{:?}", closed.errors);
        assert!(closed.records.iter().all(|r| r.id >= 60 && r.served));
        assert!(closed.served_in_window > 0);
        assert!(closed.served_in_window <= closed.records.len() as u64);
        assert!(closed.window >= Duration::from_millis(200));
        let sent = 60 + closed.records.len() as u64;
        let snap = handle.shutdown();
        assert_eq!(check_balance(&snap, sent), Ok(()));
    }
}
