//! The serve workloads: a real `ffmr serve` process queried over kept-
//! alive TCP connections in a closed loop.
//!
//! `serve_unique` sends a fresh seeded pair per query on one
//! connection; `serve_mixed` sends Zipf-popular pairs from a bounded
//! pool on two connections, and the first connection also reloads the
//! snapshot once, in the middle of the window. Every reply is checked
//! against the oracle. The traced run replays the same stream through
//! the layers' public functions in-process.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ffmr_obs::QueryProfile;
use ffmr_prng::SplitMix64;
use ffmr_service::engine::{EngineConfig, QueryEngine};
use ffmr_service::protocol::{read_frame, status, write_frame, Message};
use ffmr_service::{Client, GraphStore};
use maxflow::contraction::CoreIndex;

use crate::inputs::{Dataset, UniquePairs, ZipfPool};
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_bytes, quantile, ratio};
use crate::trace::Tracer;
use crate::{oracle, Run};

/// `--mr-threshold` for the daemon: above every benchmark graph, so all
/// queries take the in-memory route (the default 2,000 would send both
/// graphs through the FF5 simulator).
const MR_THRESHOLD: usize = 1_000_000_000;
/// `--threads` for the daemon's in-memory solver pool. The default (one
/// thread per core) runs the bulk-synchronous solver on both cores of a
/// 2-core host, where every pulse waits for the slower thread; that made
/// query latency swing with the host's CPU steal (`serve_unique` p90
/// spread 27% over twelve runs, against 4-14% in sets of ten runs with
/// one thread).
const SOLVER_THREADS: usize = 1;
/// Daemon spawns before the measured window and again after it;
/// `setup_s` is the median of all of them.
const SETUP_SPAWNS: usize = 12;
/// Untimed queries per connection before the measured window (checked
/// like the rest).
const WARMUP_QUERIES: usize = 10;
/// Pairs in `serve_mixed`'s pool. The pool is the same in every run;
/// `--seed` picks the order in which its pairs are drawn.
const MIXED_POOL: usize = 256;
/// Seed of `serve_mixed`'s pool.
const MIXED_POOL_SEED: u64 = 7;
/// Zipf exponent of `serve_mixed`'s pair popularity.
const MIXED_ZIPF: f64 = 1.0;
/// How long any single reply may take before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh pair per query on FB4', one connection.
    Unique,
    /// Zipf pool on R-MAT 13, two connections, one reload per run.
    Mixed,
}

impl Mix {
    /// The graph the workload runs on.
    pub fn dataset(self) -> Dataset {
        match self {
            Mix::Unique => Dataset::Fb4,
            Mix::Mixed => Dataset::Rmat13,
        }
    }
}

/// A running `ffmr serve` child. Dropping it kills and reaps the
/// process if [`Daemon::stop`] was not called.
struct Daemon {
    child: Option<Child>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port and waits for its first
    /// reply; returns it with the connected client and the time from
    /// spawn to that reply.
    fn spawn(ffmr: &Path, dataset: Dataset, graph: &Path) -> Result<(Self, Client, f64), String> {
        let started = Instant::now();
        let mut child = Command::new(ffmr)
            .arg("serve")
            .args(["--listen", "127.0.0.1:0"])
            .arg("--graph")
            .arg(format!("{}={}", dataset.name(), graph.display()))
            .args(["--mr-threshold", &MR_THRESHOLD.to_string()])
            .args(["--threads", &SOLVER_THREADS.to_string()])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ffmr.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout until the daemon exits so its later
        // prints never hit a closed pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("ffmrd listening on ") {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            drain: Some(drain),
        };
        daemon.addr = rx
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| "daemon did not report its listening address".to_string())?;
        let mut client = daemon.connect()?;
        let pong = client
            .request(&Message::new("ping"))
            .map_err(|e| format!("ping failed: {e}"))?;
        let setup = started.elapsed().as_secs_f64();
        if pong.head != status::OK {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok((daemon, client, setup))
    }

    fn connect(&self) -> Result<Client, String> {
        let mut client =
            Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        client
            .set_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(client)
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = self.connect().and_then(|mut c| {
            c.request(&Message::new("shutdown"))
                .map_err(|e| e.to_string())
        });
        let mut child = self.child.take().expect("stop runs once");
        let deadline = Instant::now() + Duration::from_secs(30);
        let exited = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => break None,
            }
        };
        if exited.is_none() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        asked.map(|_| ())?;
        match exited {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("daemon exited with {s}")),
            None => Err("daemon ignored shutdown and was killed".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One request sent and its outcome.
struct Op {
    /// `Some((s, t))` for a max-flow query, `None` for a reload.
    pair: Option<(u64, u64)>,
    sent: Instant,
    done: Instant,
    /// The reply, or the transport error.
    reply: Result<Message, String>,
    /// Whether the op fell inside the measured window.
    timed: bool,
}

impl Op {
    fn latency_us(&self) -> f64 {
        self.done.saturating_duration_since(self.sent).as_nanos() as f64 / 1_000.0
    }

    fn ok(&self) -> Option<&Message> {
        self.reply.as_ref().ok().filter(|m| m.head == status::OK)
    }

    fn field(&self, key: &str) -> f64 {
        self.ok()
            .and_then(|m| m.get(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }
}

/// The per-connection source of pairs.
enum Pairs<'a> {
    Unique(UniquePairs),
    Pool(&'a ZipfPool, SplitMix64),
}

impl Pairs<'_> {
    fn next_pair(&mut self) -> (u64, u64) {
        match self {
            Pairs::Unique(stream) => stream.next().expect("endless stream"),
            Pairs::Pool(pool, rng) => pool.draw(rng),
        }
    }
}

fn query(dataset: Dataset, (s, t): (u64, u64)) -> Message {
    Message::new("maxflow")
        .field("dataset", dataset.name())
        .field("source", s)
        .field("sink", t)
}

fn reload(dataset: Dataset) -> Message {
    Message::new("reload").field("dataset", dataset.name())
}

/// One connection's closed loop: warm-up queries, then (once every
/// connection is warm) queries for `seconds`. With `reloads`, the
/// connection also reloads the snapshot once, in the middle of the
/// window: one reload per run keeps the daemon's peak memory from
/// depending on how many of its worker threads happened to run one.
fn client_loop(
    client: &mut Client,
    pairs: &mut Pairs<'_>,
    dataset: Dataset,
    warm: &Barrier,
    seconds: f64,
    reloads: bool,
) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut send = |client: &mut Client, pair: Option<(u64, u64)>, timed: bool| {
        let request = pair.map_or_else(|| reload(dataset), |p| query(dataset, p));
        let sent = Instant::now();
        let reply = client.request(&request).map_err(|e| e.to_string());
        let done = Instant::now();
        let failed = reply.is_err();
        ops.push(Op {
            pair,
            sent,
            done,
            reply,
            timed,
        });
        !failed
    };
    let mut broken = false;
    for _ in 0..WARMUP_QUERIES {
        if !broken {
            broken = !send(client, Some(pairs.next_pair()), false);
        }
    }
    warm.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut reload_at = reloads.then(|| start + Duration::from_secs_f64(seconds / 2.0));
    while !broken {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let pair = if reload_at.is_some_and(|at| now >= at) {
            reload_at = None;
            None
        } else {
            Some(pairs.next_pair())
        };
        broken = !send(client, pair, true);
    }
    ops
}

/// Runs the workload's connections for `seconds` against a daemon
/// whose first connection is `first`; returns every op, sorted by send
/// time.
fn drive(
    mix: Mix,
    daemon: &Daemon,
    first: &mut Client,
    seed: u64,
    n: u64,
    pool: &ZipfPool,
    seconds: f64,
) -> Result<Vec<Op>, String> {
    let dataset = mix.dataset();
    let mut ops = match mix {
        Mix::Unique => {
            let mut pairs = Pairs::Unique(UniquePairs::new(seed, n));
            client_loop(first, &mut pairs, dataset, &Barrier::new(1), seconds, false)
        }
        Mix::Mixed => {
            let mut second = daemon.connect()?;
            let warm = Barrier::new(2);
            std::thread::scope(|scope| {
                let other = scope.spawn(|| {
                    let mut pairs = Pairs::Pool(pool, SplitMix64::seed_from_u64(seed ^ 0xb0b));
                    client_loop(&mut second, &mut pairs, dataset, &warm, seconds, false)
                });
                let mut pairs = Pairs::Pool(pool, SplitMix64::seed_from_u64(seed ^ 0xa11ce));
                let mut ops = client_loop(first, &mut pairs, dataset, &warm, seconds, true);
                ops.extend(other.join().expect("client thread panicked"));
                ops
            })
        }
    };
    ops.sort_by_key(|op| op.sent);
    Ok(ops)
}

/// Checks every reply against the oracle and the reload epochs; fills
/// `attempted`, `failed` and `correct`.
fn check(ops: &[Op], graph: &oracle::Graph, report: &mut Report) -> Result<(), String> {
    report.attempted += ops.len() as u64;
    let pairs: BTreeSet<(u64, u64)> = ops.iter().filter_map(|op| op.pair).collect();
    let pairs: Vec<(u32, u32)> = pairs
        .into_iter()
        .map(|(s, t)| (s as u32, t as u32))
        .collect();
    let values = oracle::max_flows(graph, &pairs, 2)?;
    let expected: HashMap<(u64, u64), i64> = pairs
        .iter()
        .zip(values)
        .map(|(&(s, t), v)| ((u64::from(s), u64::from(t)), v))
        .collect();
    let mut epoch = 0u64;
    for op in ops {
        let Some(reply) = op.ok() else {
            report.failed += 1;
            eprintln!("perfbench: request failed: {:?}", op.reply);
            continue;
        };
        match op.pair {
            Some(pair) => {
                let flow: Option<i64> = reply.get("flow").and_then(|f| f.parse().ok());
                if flow != Some(expected[&pair]) {
                    report.mismatch(&format!(
                        "maxflow {pair:?} answered {flow:?}, oracle says {}",
                        expected[&pair]
                    ));
                }
            }
            None => {
                let new: u64 = reply.get("epoch").and_then(|e| e.parse().ok()).unwrap_or(0);
                if new <= epoch.max(1) {
                    report.mismatch(&format!("reload answered epoch {new} after {epoch}"));
                }
                epoch = new;
            }
        }
    }
    Ok(())
}

/// Latency, throughput and tail of the measured queries.
fn latency_metrics(ops: &[Op], report: &mut Report) {
    let timed: Vec<&Op> = ops.iter().filter(|op| op.timed).collect();
    let queries: Vec<f64> = timed
        .iter()
        .filter(|op| op.pair.is_some())
        .map(|op| op.latency_us() / 1_000.0)
        .collect();
    let first = timed.iter().map(|op| op.sent).min();
    let last = timed.iter().map(|op| op.done).max();
    let window = match (first, last) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    report.set("latency_p50_ms", median(&queries));
    report.set("latency_p90_ms", quantile(&queries, 0.9));
    report.set("throughput_per_s", ratio(queries.len() as f64, window));
}

/// Runs one serve workload.
///
/// # Errors
/// When the daemon cannot be started or driven, or the oracle fails.
pub fn run(mix: Mix, run: &Run, graph: &Path) -> Result<Report, String> {
    let dataset = mix.dataset();
    let text = std::fs::read_to_string(graph).map_err(|e| format!("{}: {e}", graph.display()))?;
    let oracle_graph = oracle::Graph::parse_edge_list(&text)?;
    let n = oracle_graph.num_vertices() as u64;
    let pool = ZipfPool::new(MIXED_POOL_SEED, n, MIXED_POOL, MIXED_ZIPF);
    let mut report = Report::new();
    if run.trace {
        traced(mix, run, graph, n, &pool, &oracle_graph, &mut report)?;
        return Ok(report);
    }

    // Half the set-ups before the window (the last one serves it), half
    // after, so that one slow stretch of the host does not shift them all.
    let mut setups = Vec::with_capacity(2 * SETUP_SPAWNS);
    timed_spawns(run, dataset, graph, SETUP_SPAWNS - 1, &mut setups)?;
    let (daemon, mut client, setup) = Daemon::spawn(&run.ffmr, dataset, graph)?;
    setups.push(setup);
    let ops = drive(mix, &daemon, &mut client, run.seed, n, &pool, run.seconds)?;
    report.set(
        "peak_rss_mb",
        peak_rss_bytes(daemon.pid())? / crate::report::MB,
    );
    drop(client);
    daemon.stop()?;
    timed_spawns(run, dataset, graph, SETUP_SPAWNS, &mut setups)?;
    eprintln!("perfbench: daemon set-up times (s): {setups:.3?}");
    report.set("setup_s", median(&setups));
    latency_metrics(&ops, &mut report);
    check(&ops, &oracle_graph, &mut report)?;
    Ok(report)
}

/// Spawns and stops `count` daemons, pushing each one's set-up time.
fn timed_spawns(
    run: &Run,
    dataset: Dataset,
    graph: &Path,
    count: usize,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..count {
        let (daemon, client, setup) = Daemon::spawn(&run.ffmr, dataset, graph)?;
        setups.push(setup);
        drop(client);
        daemon.stop()?;
    }
    Ok(())
}

/// Encodes and frames `msg` into memory, then unframes and decodes it:
/// the protocol layer's work for one message on one side. Returns the
/// frame size.
fn codec_round_trip(msg: &Message) -> Result<usize, String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg.encode()).map_err(|e| e.to_string())?;
    let payload = read_frame(&mut buf.as_slice())
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    if Message::decode(&payload)? != *msg {
        return Err("codec round trip changed the message".into());
    }
    Ok(buf.len())
}

/// Times `f` `repeats` times and returns the median in ms.
fn median_ms<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..repeats)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    median(&times)
}

fn reload_latencies(ops: &[Op]) -> Vec<f64> {
    ops.iter()
        .filter(|op| op.pair.is_none())
        .map(|op| op.latency_us() / 1_000.0)
        .collect()
}

/// The traced run: the workload's stream over the wire, then the same
/// stream replayed in-process through each layer's public functions.
fn traced(
    mix: Mix,
    run: &Run,
    graph: &Path,
    n: u64,
    pool: &ZipfPool,
    oracle_graph: &oracle::Graph,
    report: &mut Report,
) -> Result<(), String> {
    let dataset = mix.dataset();
    let mut tracer = Tracer::new(Instant::now());

    // Store and contraction layers, timed in-process on the same file.
    let read = || -> Result<swgraph::FlowNetwork, String> {
        let file = std::fs::File::open(graph).map_err(|e| e.to_string())?;
        swgraph::io::read_edge_list(BufReader::new(file))
            .map(swgraph::FlowNetworkBuilder::build)
            .map_err(|e| e.to_string())
    };
    report.set("store.parse_ms", median_ms(3, read));
    let network = read()?;
    report.set(
        "contraction.build_ms",
        median_ms(3, || CoreIndex::build(&network)),
    );
    let core = CoreIndex::build(&network);
    report.set(
        "contraction.core_edge_ratio",
        ratio(
            core.core_edge_pairs() as f64,
            network.num_edge_pairs() as f64,
        ),
    );
    drop((network, core));

    let (daemon, mut client, _) = Daemon::spawn(&run.ffmr, dataset, graph)?;
    let before = cache_counters(&mut client)?;
    let ops = drive(mix, &daemon, &mut client, run.seed, n, pool, run.seconds)?;
    let after = cache_counters(&mut client)?;
    drop(client);
    daemon.stop()?;
    let hits = after.0 - before.0;
    report.set("cache.hit_ratio", ratio(hits, hits + after.1 - before.1));
    if mix == Mix::Mixed {
        report.set("reload_ms", median(&reload_latencies(&ops)));
    }

    // Wire side: client latency against the reply's own accounting.
    for (i, op) in ops.iter().enumerate() {
        let (start, end) = (tracer.us(op.sent), tracer.us(op.done));
        tracer.record("client.request", start, end, None, i as u64);
    }
    let queries: Vec<&Op> = ops
        .iter()
        .filter(|op| op.pair.is_some() && op.ok().is_some())
        .collect();
    let per_query =
        |f: &dyn Fn(&Op) -> f64| mean(&queries.iter().map(|op| f(op)).collect::<Vec<_>>());
    report.set(
        "protocol.wire_us",
        per_query(&|op| op.latency_us() - op.field("elapsed-us") - op.field("queue_wait_us")),
    );
    report.set(
        "server.queue_wait_us",
        per_query(&|op| op.field("queue_wait_us")),
    );
    report.set(
        "contraction.direct_ratio",
        per_query(&|op| {
            f64::from(u8::from(
                op.ok().and_then(|m| m.get("plan")) == Some("direct"),
            ))
        }),
    );

    // The same replay untraced and traced, alternating, best of two
    // each: the difference is what recording spans costs. The first
    // traced pass supplies the spans and the layer metrics.
    let (mut untraced_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for pass in 0..2 {
        let started = Instant::now();
        replay(
            mix,
            graph,
            &ops,
            &mut Tracer::disabled(),
            &mut Report::new(),
        )?;
        untraced_s = untraced_s.min(started.elapsed().as_secs_f64());
        let started = Instant::now();
        if pass == 0 {
            replay(mix, graph, &ops, &mut tracer, report)?;
        } else {
            replay(
                mix,
                graph,
                &ops,
                &mut Tracer::new(started),
                &mut Report::new(),
            )?;
        }
        traced_s = traced_s.min(started.elapsed().as_secs_f64());
    }
    report.set(
        "trace.overhead_pct",
        100.0 * (ratio(traced_s, untraced_s) - 1.0),
    );

    // Attribution: client latency minus the covered in-process spans.
    let latency = per_query(&Op::latency_us);
    let covered = [
        "protocol.codec_us",
        "server.queue_wait_us",
        "engine.execute_us",
    ]
    .iter()
    .map(|m| report.metrics[m])
    .sum::<f64>();
    report.set(
        "trace.unattributed_pct",
        100.0 * ratio(latency - covered, latency),
    );

    check(&ops, oracle_graph, report)?;
    if mix == Mix::Unique {
        // FB4' is also the FF5 job's graph: the MapReduce, FF and
        // dispatch layers are measured here, after the serve layers.
        crate::mr::traced(run, graph, &mut tracer, report)?;
    }
    crate::trace::write(run, &tracer, report)
}

/// The daemon's cumulative cache `(hits, misses)` from its `stats` verb.
fn cache_counters(client: &mut Client) -> Result<(f64, f64), String> {
    let stats = client
        .request(&Message::new("stats"))
        .map_err(|e| format!("stats failed: {e}"))?;
    let get = |k: &str| {
        stats
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("stats reply has no {k}"))
    };
    Ok((get("cache-hits")?, get("cache-misses")?))
}

/// Replays `ops` in-process: each request and recorded reply through the
/// frame codec, and each request through a fresh `QueryEngine` on the
/// same file, queries with the `explain` flag. The profile the engine
/// returns gives that same call's plan, solve and cache-update windows
/// and the solver's counters; the windows are recorded as children of
/// the `engine.execute` span, laid out in pipeline order after the
/// terminal resolution (only their lengths are measured). Checks that
/// the in-process engine answers what the daemon answered.
fn replay(
    mix: Mix,
    graph: &Path,
    ops: &[Op],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let dataset = mix.dataset();
    let store = Arc::new(GraphStore::new());
    store
        .load_from_path(dataset.name(), &graph.display().to_string())
        .map_err(|e| e.to_string())?;
    let config = EngineConfig {
        mr_threshold_vertices: MR_THRESHOLD,
        worker_threads: Some(SOLVER_THREADS),
        ..EngineConfig::default()
    };
    let engine = QueryEngine::new(store, config);

    let (mut codec, mut execute) = (0.0, 0.0);
    let mut reply_bytes = Vec::new();
    let mut profiles = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let Some(reply) = op.ok() else { continue };
        let req = i as u64;
        let root = tracer.record("replay", tracer.us(Instant::now()), 0.0, None, req);
        let request = op
            .pair
            .map_or_else(|| reload(dataset), |p| query(dataset, p));
        let (frames, codec_us) = tracer.time("protocol.codec", Some(root), req, || {
            Ok::<_, String>((codec_round_trip(&request)?, codec_round_trip(reply)?))
        });
        let (_, reply_frame) = frames?;
        let request = if op.pair.is_some() {
            request.field("explain", 1)
        } else {
            request
        };
        let started = Instant::now();
        let local = engine.execute(&request);
        let (start, end) = (tracer.us(started), tracer.us(Instant::now()));
        let span = tracer.record("engine.execute", start, end, Some(root), req);
        tracer.close(root, Instant::now());
        let Some((s, t)) = op.pair else { continue };
        codec += codec_us;
        execute += end - start;
        reply_bytes.push(reply_frame as f64);

        let profile = local
            .get("profile")
            .ok_or_else(|| format!("({s},{t}): in-process reply has no profile: {local:?}"))
            .and_then(QueryProfile::from_json)?;
        let mut at = start + profile.resolve_us as f64;
        for (name, us) in [
            ("contraction.plan", profile.plan_us),
            ("maxflow.solve", profile.solve_us),
            ("cache.update", profile.cache_update_us),
        ] {
            tracer.record(name, at, at + us as f64, Some(span), req);
            at += us as f64;
        }
        profiles.push(profile);
        let daemon_flow = reply.get("flow").and_then(|f| f.parse::<i64>().ok());
        let local_flow = local.get("flow").and_then(|f| f.parse::<i64>().ok());
        if daemon_flow.is_none() || daemon_flow != local_flow {
            report.mismatch(&format!(
                "({s},{t}): daemon {daemon_flow:?}, in-process engine {local_flow:?}"
            ));
        }
    }

    let q = reply_bytes.len().max(1) as f64;
    let per_query = |f: &dyn Fn(&QueryProfile) -> u64| {
        mean(&profiles.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let (plan, solve, update) = (
        per_query(&|p| p.plan_us),
        per_query(&|p| p.solve_us),
        per_query(&|p| p.cache_update_us),
    );
    report.set("protocol.codec_us", codec / q);
    report.set("protocol.reply_bytes", mean(&reply_bytes));
    report.set("engine.execute_us", execute / q);
    report.set("engine.self_us", execute / q - plan - solve - update);
    report.set("cache.lookup_us", update);
    report.set("contraction.plan_us", plan);
    report.set("maxflow.solve_us", solve);
    // Every serve query is a plain s-t max-flow, which the planner
    // takes, so a query solved iff it missed the anchor-pair cache.
    let solves: Vec<&QueryProfile> = profiles
        .iter()
        .filter(|p| p.plan_reason == "anchor-core-solve")
        .collect();
    let per_solve = |f: &dyn Fn(&QueryProfile) -> u64| {
        mean(&solves.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    report.set("maxflow.pulses", per_solve(&|p| p.phases));
    report.set("maxflow.pushes", per_solve(&|p| p.pushes));
    report.set("maxflow.relabels", per_solve(&|p| p.relabels));
    report.set("maxflow.global_relabels", per_solve(&|p| p.global_relabels));
    Ok(())
}
