//! The paper's FF5 max-flow job on FB4' with w = 64 super terminals,
//! measured layer by layer in the traced `serve_unique` run: in-process
//! on one worker thread, as `ffmr maxflow --w 64 --threads 1` runs it,
//! and through two `ffmr worker` processes, as `ffmr maxflow --w 64
//! --workers 2` runs it, for the dispatch layer's numbers.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ffmr_core::{FfConfig, FfRun, FfVariant, RoundStats};
use ffmr_obs::{DispatchNote, RoundProfile};
use ffmr_worker::{Coordinator, CoordinatorConfig};
use mapreduce::{ClusterConfig, FailurePolicy, MrRuntime};
use maxflow::FlowResult;
use swgraph::super_st::{attach_super_terminals, SuperStNetwork};
use swgraph::{FlowNetwork, VertexId};

use crate::inputs::{MR_MIN_DEGREE, MR_TERMINAL_SEED, MR_W};
use crate::report::{Report, MB};
use crate::trace::Tracer;
use crate::{oracle, Run};

/// Simulated cluster size and reduce partitions, `ffmr maxflow`'s
/// defaults.
const NODES: usize = 20;
const REDUCERS: usize = 8;
/// Worker processes of the distributed job.
const WORKERS: usize = 2;

/// A coordinator with its registered worker processes.
struct Cluster {
    coordinator: Option<Coordinator>,
    children: Vec<Child>,
}

impl Cluster {
    fn start(ffmr: &Path) -> Result<Self, String> {
        let coordinator = Coordinator::start(CoordinatorConfig::default())
            .map_err(|e| format!("cannot start coordinator: {e}"))?;
        let addr = coordinator.local_addr().to_string();
        let mut cluster = Cluster {
            coordinator: Some(coordinator),
            children: Vec::new(),
        };
        for _ in 0..WORKERS {
            let child = Command::new(ffmr)
                .args(["worker", "--connect", &addr])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn worker: {e}"))?;
            cluster.children.push(child);
        }
        let ready = cluster
            .coordinator
            .as_ref()
            .expect("just started")
            .wait_for_workers(WORKERS, Duration::from_secs(30));
        if !ready {
            return Err("worker processes did not register within 30s".into());
        }
        Ok(cluster)
    }

    fn coordinator(&self) -> &Coordinator {
        self.coordinator.as_ref().expect("live until drop")
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(coordinator) = self.coordinator.take() {
            // Workers get `shutdown` on their next poll and exit.
            coordinator.shutdown();
        }
        for child in &mut self.children {
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reads the graph and attaches the super terminals: what a user waits
/// for before the job runs.
fn set_up(graph: &Path) -> Result<SuperStNetwork, String> {
    let file = File::open(graph).map_err(|e| format!("{}: {e}", graph.display()))?;
    let net: FlowNetwork = swgraph::io::read_edge_list(BufReader::new(file))
        .map_err(|e| e.to_string())?
        .build();
    attach_super_terminals(&net, MR_W, MR_MIN_DEGREE, MR_TERMINAL_SEED).map_err(|e| e.to_string())
}

/// One finished job.
struct Job {
    run: FfRun,
    rt: MrRuntime,
    wall_s: f64,
    /// `(when the round hook fired, the round's stats)`.
    hooks: Vec<(Instant, RoundStats)>,
    started: Instant,
}

/// Runs the job in-process on one thread, or on `cluster`'s workers.
fn run_job(st: &SuperStNetwork, cluster: Option<&Cluster>) -> Result<Job, String> {
    let mut rt = MrRuntime::new(ClusterConfig::paper_cluster(NODES));
    match cluster {
        None => rt.set_worker_threads(Some(1)),
        Some(cluster) => {
            rt.set_task_executor(Some(cluster.coordinator().executor()));
            rt.set_failure_policy(FailurePolicy::hadoop_default());
        }
    }
    let hooks = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&hooks);
    let config = FfConfig::new(st.source, st.sink)
        .variant(FfVariant::ff5())
        .reducers(REDUCERS)
        .on_round(move |stats| {
            sink.lock()
                .expect("hook log lock")
                .push((Instant::now(), stats.clone()));
        });
    let started = Instant::now();
    let run = ffmr_core::run_max_flow(&mut rt, &st.network, &config)
        .map_err(|e| format!("FF5 job failed: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let hooks = std::mem::take(&mut *hooks.lock().expect("hook log lock"));
    Ok(Job {
        run,
        rt,
        wall_s,
        hooks,
        started,
    })
}

fn shuffle_bytes(run: &FfRun) -> u64 {
    run.rounds.iter().map(|r| r.shuffle_bytes).sum()
}

/// The paper's quantities of a job, compared exactly between jobs.
fn fingerprint(run: &FfRun) -> (i64, usize, u64, u64) {
    (
        run.max_flow_value,
        run.num_flow_rounds(),
        shuffle_bytes(run),
        run.total_sim_seconds.to_bits(),
    )
}

/// Checks the job's answer: its value equals the oracle's on the same
/// super-terminal network, and the flow extracted from the final DFS
/// graph passes `maxflow::validate` and equals a cut.
fn check_job(
    job: &Job,
    st: &SuperStNetwork,
    expected: i64,
    report: &mut Report,
) -> Result<(), String> {
    let (net, s, t) = (&st.network, st.source, st.sink);
    let value = job.run.max_flow_value;
    if value != expected {
        report.mismatch(&format!("FF5 value {value}, oracle says {expected}"));
    }
    let extracted = ffmr_core::verify::extract_flow(
        job.rt.dfs(),
        &job.run.final_graph_path,
        &job.run.pending_deltas,
        net,
    )
    .map_err(|e| format!("flow extraction failed: {e}"))?;
    let flow = FlowResult {
        value,
        flows: extracted.flows,
    };
    if let Err(e) = maxflow::validate::check_flow(net, s, t, &flow) {
        report.mismatch(&format!("extracted flow is not valid: {e:?}"));
    }
    let cut = maxflow::min_cut::extract_min_cut(net, s, &flow);
    if cut.source_side.contains(&t) || cut.value != value {
        report.mismatch(&format!(
            "residual cut of {} (sink reachable: {}) differs from value {value}",
            cut.value,
            cut.source_side.contains(&t)
        ));
    }
    Ok(())
}

/// The oracle's value on the same super-terminal network, built from
/// the edge-list file by the oracle's own parser.
fn oracle_value(graph: &Path, st: &SuperStNetwork) -> Result<i64, String> {
    let text = std::fs::read_to_string(graph).map_err(|e| e.to_string())?;
    let g = oracle::Graph::parse_edge_list(&text)?;
    let ids = |vs: &[VertexId]| vs.iter().map(|v| v.raw() as u32).collect::<Vec<_>>();
    let with = g.with_super_terminals(&ids(&st.source_terminals), &ids(&st.sink_terminals));
    let n = g.num_vertices() as u32;
    with.max_flow(n, n + 1)
}

/// Runs the job on the FB4' edge list at `graph` traced, in-process and
/// through two worker processes; both must report the same value,
/// rounds, shuffle bytes and simulated time, and both answers are
/// checked. Records their spans into `tracer` and sets the MapReduce, FF
/// and dispatch layers' metrics.
///
/// # Errors
/// When set-up fails, a job fails, or the answer cannot be checked.
pub fn traced(
    run: &Run,
    graph: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // `ffmr maxflow` records one flight-recorder event per task attempt.
    ffmr_obs::events::recorder().set_enabled(true);
    let st = &set_up(graph)?;
    let job = run_job(st, None)?;
    let cluster = Cluster::start(&run.ffmr)?;
    let dist = run_job(st, Some(&cluster))?;
    drop(cluster);
    report.attempted += 2;
    if fingerprint(&dist.run) != fingerprint(&job.run) {
        report.mismatch(&format!(
            "distributed job {:?} differs from the in-process one {:?}",
            fingerprint(&dist.run),
            fingerprint(&job.run)
        ));
    }
    let expected = oracle_value(graph, st)?;
    check_job(&job, st, expected, report)?;
    check_job(&dist, st, expected, report)?;
    layers(&job, &dist, tracer, report)
}

/// Span names for one job's timeline.
struct SpanNames {
    job: &'static str,
    round: &'static str,
    phases: [(&'static str, &'static str); 3],
}

const IN_PROCESS: SpanNames = SpanNames {
    job: "ff.job",
    round: "ff.round",
    phases: [
        ("map", "mr.map"),
        ("shuffle", "mr.shuffle"),
        ("reduce", "mr.reduce"),
    ],
};

const DISTRIBUTED: SpanNames = SpanNames {
    job: "dist.job",
    round: "dist.round",
    phases: [
        ("map", "dist.map"),
        ("shuffle", "dist.shuffle"),
        ("reduce", "dist.reduce"),
    ],
};

/// Records `job`'s timeline: the job, each round from its `on_round`
/// hook (ending at the hook, lasting the round's `wall_seconds`), each
/// phase's task wall window and each dispatch, from the round history in
/// the runtime's DFS. Returns the summed map, shuffle and reduce windows
/// in seconds and the dispatch notes.
fn job_spans(
    tracer: &mut Tracer,
    job: &Job,
    names: &SpanNames,
) -> Result<([f64; 3], Vec<DispatchNote>), String> {
    let base = FfConfig::new(VertexId::new(0), VertexId::new(1)).base_path;
    let history = job
        .rt
        .dfs()
        .read_blob(&ffmr_core::history_path(&base))
        .map_err(|e| format!("no round history: {e}"))?;
    let profiles: Vec<RoundProfile> = String::from_utf8_lossy(history)
        .lines()
        .map(RoundProfile::from_json)
        .collect::<Result<_, _>>()?;
    let started = tracer.us(job.started);
    let root = tracer.record(names.job, started, started + job.wall_s * 1e6, None, 0);
    let mut windows = [0.0; 3];
    let mut notes = Vec::new();
    for (at, stats) in &job.hooks {
        let end = tracer.us(*at);
        let start = (end - stats.wall_seconds * 1e6).max(started);
        let round = stats.round as u64;
        let span = tracer.record(names.round, start, end, Some(root), round);
        let Some(profile) = profiles.iter().find(|p| p.round == stats.round) else {
            continue;
        };
        let mut phase_spans = Vec::new();
        for (total, &(phase, name)) in windows.iter_mut().zip(&names.phases) {
            let (lo, hi) = profile
                .events
                .iter()
                .filter(|e| e.phase == phase)
                .fold((u64::MAX, 0), |(lo, hi), e| {
                    (lo.min(e.wall_start_us), hi.max(e.wall_end_us))
                });
            if hi > lo {
                *total += (hi - lo) as f64 / 1e6;
                // Task windows are on the round's MR-job clock, which
                // starts with the round.
                let id = tracer.record(
                    name,
                    start + lo as f64,
                    start + hi as f64,
                    Some(span),
                    round,
                );
                phase_spans.push((phase, id));
            }
        }
        for note in &profile.dispatches {
            let parent = phase_spans
                .iter()
                .find(|(p, _)| *p == note.phase)
                .map_or(span, |&(_, id)| id);
            let (a, b) = (note.queued_us as f64, note.done_us as f64);
            tracer.record("worker.dispatch", start + a, start + b, Some(parent), round);
            notes.push(note.clone());
        }
    }
    Ok((windows, notes))
}

/// Per-layer numbers: the MapReduce and FF layers from the traced
/// in-process job, the dispatch layer from the distributed one.
fn layers(job: &Job, dist: &Job, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let ([map_s, shuffle_s, reduce_s], _) = job_spans(tracer, job, &IN_PROCESS)?;
    let (_, notes) = job_spans(tracer, dist, &DISTRIBUTED)?;
    let rounds = &job.run.rounds;
    let windows = map_s + shuffle_s + reduce_s;
    report.set("mapreduce.map_s", map_s);
    report.set("mapreduce.shuffle_s", shuffle_s);
    report.set("mapreduce.reduce_s", reduce_s);
    report.set(
        "mapreduce.map_output_records",
        rounds.iter().map(|r| r.map_out_records as f64).sum(),
    );
    report.set("ff.job_s", job.wall_s);
    report.set("ff.loop_s", job.wall_s - windows);
    report.set(
        "ff.round_wall_max_s",
        rounds.iter().map(|r| r.wall_seconds).fold(0.0, f64::max),
    );
    report.set("ff.a_paths", rounds.iter().map(|r| r.a_paths as f64).sum());
    report.set(
        "ff.aug_queue_max",
        rounds
            .iter()
            .map(|r| r.max_queue as f64)
            .fold(0.0, f64::max),
    );
    report.set("rounds", job.run.num_flow_rounds() as f64);
    report.set("shuffle_mb", shuffle_bytes(&job.run) as f64 / MB);
    report.set("sim_s", job.run.total_sim_seconds);
    let sum = |f: &dyn Fn(&DispatchNote) -> u64| notes.iter().map(f).sum::<u64>() as f64;
    let (get, put) = (sum(&|n| n.bytes_in), sum(&|n| n.bytes_out));
    report.set("dist.job_s", dist.wall_s);
    report.set("wire_mb", (get + put) / MB);
    report.set("worker.blob_get_mb", get / MB);
    report.set("worker.blob_put_mb", put / MB);
    report.set("worker.dispatches", notes.len() as f64);
    report.set(
        "worker.dispatch_wait_s",
        sum(&|n| n.dispatch_wait_us()) / 1e6,
    );
    report.set("worker.transfer_s", sum(&|n| n.transfer_us()) / 1e6);
    report.set("worker.serialize_s", sum(&|n| n.ser_us) / 1e6);
    report.set("worker.compute_s", sum(&|n| n.compute_us()) / 1e6);
    Ok(())
}
