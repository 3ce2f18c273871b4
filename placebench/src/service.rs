//! `service-open`: an open loop against an in-process placement
//! service.
//!
//! One thread submits jobs on a fixed schedule through the versioned
//! wire protocol (`PlacementService::handle_request`); another observes
//! results. Each job's latency runs from the time it was *due*, so a
//! stall also charges the wait it imposes on later jobs. The service
//! runs two workers over a durable journal in the run's scratch
//! directory. The end-to-end throughput divides the simulated
//! references by the process's CPU time over the whole schedule; the
//! latencies are wall time and are reported with the layers.

use crate::clock::process_cpu_s;
use crate::grid::{check_conservation, splitmix64};
use crate::layers::{self, Extras};
use crate::spans::{self, span};
use crate::stats::{median, percentile, tail_note, Metric};
use crate::{Ctx, Outcome};
use placesim::{
    run_placement_with_config, ManifestEntry, PlacementService, PreparedApp, ServiceConfig,
};
use placesim_analysis::SharingAnalysis;
use placesim_machine::{simulate, Protocol};
use placesim_obs::json::{self, JsonValue, JsonWriter};
use placesim_obs::proto::{JobOp, JobSpec, SERVICE_SCHEMA};
use placesim_placement::{thread_lengths, PlacementAlgorithm, PlacementInputs, PlacementMap};
use placesim_trace::hash::{program_fingerprint, Fnv64};
use placesim_workloads::{generate_with_access, GenOptions};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Service worker threads.
pub const WORKERS: usize = 2;
/// Offered load in jobs per second: about a sixth of the service's
/// capacity on a 2-CPU host, so the workers are busy about a fifth of
/// the schedule. With a busy loop competing for the CPUs, latency p50
/// and p90 rose by 21% and 34% at 6 jobs/s but by 0% and 9% at this
/// rate: here they follow the program more than the host's other load.
pub const RATE: f64 = 3.0;
/// A job slower than this misses its deadline and does not count
/// towards goodput.
pub const LATENCY_LIMIT_S: f64 = 1.0;
/// Jobs in the shortest schedule: enough for ten samples beyond p90.
const MIN_JOBS: usize = 100;
/// How long after the last due time the observer waits for results.
const GIVE_UP_S: f64 = 60.0;

const APPS: [&str; 6] = ["water", "mp3d", "cholesky", "fullconn", "health", "fft"];
const SCALE: f64 = 0.05;
const PROCS: [usize; 3] = [4, 8, 16];
const PROTOCOLS: [&str; 3] = ["wi", "mesi", "dragon"];
const ALGOS: [PlacementAlgorithm; 14] = PlacementAlgorithm::STATIC;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The jobs whose results are recomputed directly and compared field
/// by field, as (op, protocol, app): the same shapes under every seed,
/// so that set-up does the same amount of work.
const SAMPLE: [(JobOp, Option<&str>, &str); 9] = [
    (JobOp::Simulate, Some("wi"), "water"),
    (JobOp::Simulate, Some("wi"), "fft"),
    (JobOp::Simulate, Some("mesi"), "water"),
    (JobOp::Simulate, Some("mesi"), "fft"),
    (JobOp::Simulate, Some("dragon"), "water"),
    (JobOp::Simulate, Some("dragon"), "fft"),
    (JobOp::Place, None, "mp3d"),
    (JobOp::Place, None, "cholesky"),
    (JobOp::Place, None, "health"),
];

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedJob {
    pub spec: JobSpec,
    /// `Some(j)` when this re-submits job `j`'s spec.
    pub resubmit_of: Option<usize>,
}

/// The job mix for `seed`: `n` submissions with a fixed composition —
/// every tenth re-submits an earlier spec; of the rest 80% simulate and
/// 20% place, spread evenly over the six apps and three processor
/// counts — in an order, with algorithms and trace seeds, drawn from
/// the seed. Simulations rotate through the three protocols.
pub fn job_mix(seed: u64, n: usize) -> Vec<PlannedJob> {
    let mut rng = seed;
    let mut next = move |bound: usize| {
        rng = splitmix64(rng);
        (rng % bound as u64) as usize
    };
    let fresh = n - n / 10;
    let mut shapes: Vec<(JobOp, usize, usize)> = (0..fresh)
        .map(|j| {
            let op = if j % 5 == 4 {
                JobOp::Place
            } else {
                JobOp::Simulate
            };
            (op, j % APPS.len(), PROCS[(j / APPS.len()) % PROCS.len()])
        })
        .collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, next(i + 1));
    }
    let mut shapes = shapes.into_iter();
    let mut jobs: Vec<PlannedJob> = Vec::with_capacity(n);
    let (mut fresh_positions, mut simulations): (Vec<usize>, usize) = (Vec::new(), 0);
    for k in 0..n {
        if k % 10 == 9 {
            let j = fresh_positions[next(fresh_positions.len())];
            let spec = jobs[j].spec.clone();
            jobs.push(PlannedJob {
                spec,
                resubmit_of: Some(j),
            });
            continue;
        }
        let (op, app, processors) = shapes.next().expect("one shape per fresh job");
        let protocol = (op == JobOp::Simulate).then(|| {
            simulations += 1;
            PROTOCOLS[(simulations - 1) % PROTOCOLS.len()].to_owned()
        });
        fresh_positions.push(k);
        jobs.push(PlannedJob {
            spec: JobSpec {
                op,
                app: APPS[app].to_owned(),
                scale: SCALE,
                // Distinct per job and below 2^53, so it survives JSON.
                seed: ((seed & 0xffff_ffff) << 16) | k as u64,
                protocol,
                algorithms: vec![ALGOS[next(ALGOS.len())].paper_name().to_owned()],
                processors: vec![processors],
            },
            resubmit_of: None,
        });
    }
    jobs
}

/// The jobs whose results are recomputed directly: for each sample
/// shape, the first fresh job of that shape after a seeded position.
fn sample(seed: u64, plan: &[PlannedJob]) -> Vec<usize> {
    let start = (splitmix64(seed ^ 0x5a) % plan.len() as u64) as usize;
    let mut picked: Vec<usize> = SAMPLE
        .iter()
        .filter_map(|&(op, protocol, app)| {
            (0..plan.len())
                .map(|k| (start + k) % plan.len())
                .find(|&k| {
                    let s = &plan[k].spec;
                    plan[k].resubmit_of.is_none()
                        && s.op == op
                        && s.protocol.as_deref() == protocol
                        && s.app == app
                })
        })
        .collect();
    picked.sort_unstable();
    picked
}

/// What a sampled job's result must say, computed without the service.
struct Expected {
    job: usize,
    fingerprint: String,
    fields: Vec<(&'static str, JsonValue)>,
}

fn algorithm(spec: &JobSpec) -> Result<PlacementAlgorithm, String> {
    ALGOS
        .into_iter()
        .find(|a| Some(a.paper_name()) == spec.algorithms.first().map(String::as_str))
        .ok_or_else(|| format!("no static algorithm {:?}", spec.algorithms))
}

fn protocol(spec: &JobSpec) -> Result<Option<Protocol>, String> {
    spec.protocol
        .as_deref()
        .map(|p| p.parse::<Protocol>().map_err(|e| e.to_string()))
        .transpose()
}

fn num(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn assignment(map: &PlacementMap) -> JsonValue {
    JsonValue::Array(
        map.iter()
            .map(|(_, threads)| {
                JsonValue::Array(threads.iter().map(|t| num(t.index() as u64)).collect())
            })
            .collect(),
    )
}

fn entry_fields(e: &ManifestEntry) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("algorithm", JsonValue::Str(e.algorithm.clone())),
        ("processors", num(e.processors as u64)),
        ("execution_time", num(e.execution_time)),
        ("total_refs", num(e.total_refs)),
        ("total_misses", num(e.total_misses)),
        ("miss_rate", JsonValue::Num(e.miss_rate)),
        ("coherence_traffic", num(e.coherence_traffic)),
        ("update_traffic", num(e.update_traffic)),
        ("compulsory", num(e.misses.compulsory)),
        ("intra_thread_conflict", num(e.misses.intra_thread_conflict)),
        ("inter_thread_conflict", num(e.misses.inter_thread_conflict)),
        ("invalidation", num(e.misses.invalidation)),
    ]
}

/// Recomputes a job with `PreparedApp::prepare` and
/// `run_placement_with_config`, as a user would without the service.
fn expected(job: usize, spec: &JobSpec) -> Result<Expected, String> {
    let app_spec =
        placesim_workloads::spec(&spec.app).ok_or(format!("unknown app {}", spec.app))?;
    let mut app = PreparedApp::prepare(
        &app_spec,
        &GenOptions {
            scale: spec.scale,
            seed: spec.seed,
        },
    );
    if let Some(p) = protocol(spec)? {
        app.config = app.config.with_protocol(p);
    }
    let (algo, p) = (algorithm(spec)?, spec.processors[0]);
    let fields = match spec.op {
        JobOp::Simulate => {
            let r =
                run_placement_with_config(&app, algo, p, &app.config).map_err(|e| e.to_string())?;
            check_conservation(&r.stats, app.prog.total_refs())?;
            entry_fields(&ManifestEntry::from_stats(algo.paper_name(), p, &r.stats))
        }
        _ => {
            let map = algo
                .place(&app.placement_inputs(), p)
                .map_err(|e| e.to_string())?;
            vec![
                ("algorithm", JsonValue::Str(algo.paper_name().to_owned())),
                ("processors", num(p as u64)),
                (
                    "load_imbalance",
                    JsonValue::Num(map.load_imbalance(&app.lengths)),
                ),
                ("assignment", assignment(&map)),
            ]
        }
    };
    Ok(Expected {
        job,
        fingerprint: format!("{:016x}", program_fingerprint(&app.prog)),
        fields,
    })
}

/// The checks every result passes: it answers the job that was asked,
/// and its own numbers are consistent.
fn check_result(spec: &JobSpec, doc: &JsonValue) -> Result<(), String> {
    let s = |k: &str| doc.get(k).and_then(JsonValue::as_str);
    let u = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("result lacks {k}"))
    };
    if s("kind") != Some("job-result")
        || s("op") != Some(spec.op.as_str())
        || s("app") != Some(&spec.app)
    {
        return Err(format!("result does not answer {}", spec.canonical_json()));
    }
    if s("algorithm") != spec.algorithms.first().map(String::as_str)
        || u("processors")? != spec.processors[0] as u64
    {
        return Err("result names another algorithm or processor count".into());
    }
    if spec.op == JobOp::Simulate {
        let taxonomy = u("compulsory")?
            + u("intra_thread_conflict")?
            + u("inter_thread_conflict")?
            + u("invalidation")?;
        if taxonomy != u("total_misses")? {
            return Err(format!(
                "miss taxonomy sums to {taxonomy}, total_misses is {}",
                u("total_misses")?
            ));
        }
        return Ok(());
    }
    // A placement puts every thread on exactly one of p processors.
    let rows = doc
        .get("assignment")
        .and_then(JsonValue::as_array)
        .ok_or("result lacks assignment")?;
    let mut threads: Vec<u64> = rows
        .iter()
        .flat_map(|r| r.as_array().unwrap_or(&[]))
        .filter_map(JsonValue::as_u64)
        .collect();
    threads.sort_unstable();
    if rows.len() != spec.processors[0] || threads.iter().enumerate().any(|(i, &t)| t != i as u64) {
        return Err("assignment is not a partition of the threads".into());
    }
    Ok(())
}

fn compare(exp: &Expected, doc: &JsonValue) -> Result<(), String> {
    if doc.get("trace_fingerprint").and_then(JsonValue::as_str) != Some(&exp.fingerprint) {
        return Err(format!(
            "job {}: trace fingerprint differs from a direct generation",
            exp.job
        ));
    }
    for (key, want) in &exp.fields {
        if doc.get(key) != Some(want) {
            return Err(format!(
                "job {}: {key} is {:?}, recomputed {want:?}",
                exp.job,
                doc.get(key)
            ));
        }
    }
    Ok(())
}

fn submit_line(spec: &JobSpec) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SERVICE_SCHEMA);
    w.field_str("op", "submit");
    w.key("job");
    spec.write_json(&mut w);
    w.end_object();
    w.finish()
}

/// A request line for `op` with unsigned-integer fields.
fn request(op: &str, fields: &[(&str, u64)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", SERVICE_SCHEMA);
    w.field_str("op", op);
    for &(k, v) in fields {
        w.field_u64(k, v);
    }
    w.end_object();
    w.finish()
}

/// How one submission ended, as the observer saw it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    pub id: Option<u64>,
    /// How late the submission left relative to its due time.
    pub lag_s: f64,
    /// From the due time to the observed end; `None` if it never ended.
    pub latency_s: Option<f64>,
    /// `done`, `failed`, `evicted`, `rejected` or `lost`.
    pub state: String,
    pub result: Option<String>,
}

/// Runs `lines` as an open loop at `rate` per second against `handle`:
/// submission `i` is due `i / rate` seconds after the start, whether or
/// not earlier ones have finished.
pub fn open_loop(
    lines: &[String],
    rate: f64,
    give_up_s: f64,
    handle: &(dyn Fn(&str) -> String + Sync),
) -> Vec<Observed> {
    let mut seen = vec![Observed::default(); lines.len()];
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let deadline = due(lines.len()) + Duration::from_secs_f64(give_up_s);
    let (tx, rx) = mpsc::channel::<(usize, f64, Option<u64>)>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, line) in lines.iter().enumerate() {
                let wait = due(i).saturating_duration_since(Instant::now());
                std::thread::sleep(wait);
                let lag = Instant::now().duration_since(due(i)).as_secs_f64();
                let resp = {
                    let _s = span("service.submit", i as u64);
                    handle(line)
                };
                let id = json::parse(&resp)
                    .ok()
                    .filter(|d| d.get("ok").and_then(JsonValue::as_bool) == Some(true))
                    .and_then(|d| d.get("id")?.as_u64());
                if tx.send((i, lag, id)).is_err() {
                    return;
                }
            }
        });

        let mut outstanding: Vec<(usize, u64)> = Vec::new();
        let mut submitting = true;
        let accept = |seen: &mut [Observed],
                      outstanding: &mut Vec<(usize, u64)>,
                      (i, lag, id): (usize, f64, Option<u64>)| {
            seen[i].lag_s = lag;
            seen[i].id = id;
            match id {
                Some(id) => outstanding.push((i, id)),
                None => {
                    seen[i].state = "rejected".into();
                    seen[i].latency_s = Some(Instant::now().duration_since(due(i)).as_secs_f64());
                }
            }
        };
        while (submitting || !outstanding.is_empty()) && Instant::now() <= deadline {
            loop {
                match rx.try_recv() {
                    Ok(sub) => accept(&mut seen, &mut outstanding, sub),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        submitting = false;
                        break;
                    }
                }
            }
            outstanding.retain(|&(i, id)| {
                let resp = handle(&request("result", &[("id", id)]));
                let doc = json::parse(&resp).ok();
                let field = |k: &str| {
                    doc.as_ref()
                        .and_then(|d| d.get(k)?.as_str().map(str::to_owned))
                };
                let state = field("state").unwrap_or_else(|| "lost".into());
                if matches!(state.as_str(), "queued" | "running") {
                    return true;
                }
                seen[i].latency_s = Some(Instant::now().duration_since(due(i)).as_secs_f64());
                seen[i].result = field("result");
                seen[i].state = state;
                false
            });
            match outstanding.first() {
                // Returns when that job ends or after a millisecond.
                Some(&(_, id)) => {
                    handle(&request("wait", &[("id", id), ("timeout_ms", 1)]));
                }
                None if submitting => match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(sub) => accept(&mut seen, &mut outstanding, sub),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => submitting = false,
                },
                None => {}
            }
        }
        drop(rx);
    });
    for o in seen.iter_mut().filter(|o| o.state.is_empty()) {
        o.state = "lost".into();
    }
    seen
}

/// One set-up: a started service, and the sampled jobs' expectations.
fn set_up(
    ctx: &Ctx,
    rep: usize,
    plan: &[PlannedJob],
    picked: &[usize],
) -> Result<(PlacementService, Vec<Expected>), String> {
    let config = ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::new()
    };
    let (service, _) = PlacementService::start(&ctx.dir.join(format!("service{rep}")), config)
        .map_err(|e| e.to_string())?;
    let expected = picked
        .iter()
        .map(|&j| expected(j, &plan[j].spec))
        .collect::<Result<_, _>>()?;
    Ok((service, expected))
}

/// The traced replay of the sampled jobs, split at the layer
/// boundaries: generate, profile, place, and simulate for simulations.
fn replay_layers(plan: &[PlannedJob], picked: &[usize], x: &mut Extras) -> Result<(), String> {
    for &j in picked {
        let spec = &plan[j].spec;
        let app_spec = placesim_workloads::spec(&spec.app).ok_or("unknown app")?;
        let (prog, access) = {
            let mut s = span("workloads.generate", j as u64);
            let r = generate_with_access(
                &app_spec,
                &GenOptions {
                    scale: spec.scale,
                    seed: spec.seed,
                },
            );
            s.set_refs(r.0.total_refs());
            r
        };
        let sharing = {
            let mut s = span("analysis.profile", j as u64);
            s.set_refs(prog.total_refs());
            SharingAnalysis::measure_access(&access)
        };
        let lengths = thread_lengths(&prog);
        let (algo, p) = (algorithm(spec)?, spec.processors[0]);
        let map = {
            let _s = span("placement.place", j as u64);
            algo.place(
                &PlacementInputs::new(&sharing, &lengths).with_seed(spec.seed),
                p,
            )
            .map_err(|e| e.to_string())?
        };
        if spec.op == JobOp::Simulate {
            let mut config = placesim_machine::ArchConfig::paper_default()
                .with_cache_size(app_spec.cache_bytes())
                .map_err(|e| e.to_string())?;
            if let Some(proto) = protocol(spec)? {
                config = config.with_protocol(proto);
            }
            let mut s = span("machine.simulate", j as u64);
            s.set_label(format!("p{p}/{}", spec.protocol.as_deref().unwrap_or("wi")));
            let stats = simulate(&prog, &map, &config).map_err(|e| e.to_string())?;
            s.set_refs(stats.total_refs());
            drop(s);
            x.add_sim(&stats);
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = ((RATE * ctx.seconds).round() as usize).max(MIN_JOBS);
    let plan = job_mix(ctx.seed, n);
    let picked = sample(ctx.seed, &plan);
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = process_cpu_s();
        let (service, expected) = set_up(ctx, rep, &plan, &picked)?;
        setups.push(process_cpu_s() - t0);
        if let Some((old, _)) = ready.replace((service, expected)) {
            PlacementService::drain_and_join(&old);
        }
    }
    out.setup_s = median(&setups).unwrap_or(0.0);
    let (service, expected) = ready.expect("at least one set-up");

    let lines: Vec<String> = plan.iter().map(|j| submit_line(&j.spec)).collect();
    let c0 = process_cpu_s();
    let seen = open_loop(&lines, RATE, GIVE_UP_S, &|line| {
        service.handle_request(line)
    });
    let cpu_s = process_cpu_s() - c0;
    let status = json::parse(&service.handle_request(&request("status", &[])))
        .map_err(|e| format!("status: {e}"))?;
    service.drain_and_join();

    let metric = |k: &str| status.get("metrics").and_then(|m| m.get(k));
    let count = |k: &str| metric(k).and_then(JsonValue::as_u64).unwrap_or(0);
    let busy_s = metric("job_wall_ms")
        .and_then(|h| h.get("sum")?.as_u64())
        .unwrap_or(0) as f64
        / 1000.0;

    let mut h = Fnv64::new();
    let (mut latencies, mut good, mut sim_refs) = (Vec::new(), 0u64, 0u64);
    let mut counted_ids = std::collections::BTreeSet::new();
    for (k, (job, o)) in plan.iter().zip(&seen).enumerate() {
        h.update_u64(k as u64);
        h.update(o.state.as_bytes());
        h.update(o.result.as_deref().unwrap_or("").as_bytes());
        let verdict = (|| {
            let text = match (o.state.as_str(), &o.result) {
                ("done", Some(text)) => text,
                (state, _) => return Err(format!("job {k} ended {state}")),
            };
            let doc = json::parse(text).map_err(|e| format!("job {k}: unparsable result: {e}"))?;
            check_result(&job.spec, &doc).map_err(|e| format!("job {k}: {e}"))?;
            if let Some(exp) = expected.iter().find(|e| e.job == k) {
                compare(exp, &doc)?;
            }
            if job.spec.op == JobOp::Simulate && counted_ids.insert(o.id) {
                sim_refs += doc
                    .get("total_refs")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
            }
            Ok(())
        })();
        if let Some(l) = o.latency_s.filter(|_| o.id.is_some()) {
            latencies.push(l);
        }
        if out.check(verdict) && o.latency_s.is_some_and(|l| l <= LATENCY_LIMIT_S) {
            good += 1;
        }
    }
    out.digests
        .push((format!("seed={} jobs={n}", ctx.seed), h.finish()));
    // The realised schedule: from the first due time to the last result.
    let span_s = seen
        .iter()
        .enumerate()
        .filter_map(|(i, o)| Some(i as f64 / RATE + o.latency_s?))
        .fold(0.0, f64::max);
    let lag_max = seen.iter().map(|o| o.lag_s).fold(0.0, f64::max);
    out.notes.push(format!(
        "{n} jobs at {RATE} jobs/s, {} latency samples, {} sampled results recomputed, max submit lag {lag_max:.4} s, workers busy {:.0}% of the schedule, {cpu_s:.4} CPU s over it",
        latencies.len(),
        expected.len(),
        100.0 * busy_s / (WORKERS as f64 * span_s)
    ));
    out.notes.push(tail_note(&latencies));
    let (job_p50, job_p90, goodput) = (
        median(&latencies).unwrap_or(0.0),
        percentile(&latencies, 90.0).unwrap_or(0.0),
        good as f64 / span_s,
    );
    out.notes.push(format!(
        "latency p50 {job_p50:.4} s, p90 {job_p90:.4} s, goodput {goodput:.4} jobs/s"
    ));
    out.end_to_end = vec![Metric::new(
        "refs_per_cpu_s",
        sim_refs as f64 / cpu_s,
        "refs/s",
    )];

    if ctx.trace {
        let mut x = Extras {
            cache_hit_frac: count("cache_hits") as f64
                / (count("accepted") + count("cache_hits")).max(1) as f64,
            queue_depth_max: metric("queue_depth")
                .and_then(|q| q.get("max")?.as_u64())
                .unwrap_or(0) as f64,
            rejected: (count("rejected_overload")
                + count("rejected_draining")
                + count("rejected_malformed")) as f64,
            failed: count("failed") as f64,
            lag_max_s: lag_max,
            job_p50_s: job_p50,
            job_p90_s: job_p90,
            goodput_jobs_per_s: goodput,
            ..Extras::default()
        };
        // The same replay untraced and traced, interleaved three times:
        // the difference of the medians is the tracing overhead.
        let (mut untraced, mut traced, mut discard) = (Vec::new(), Vec::new(), Extras::default());
        for _ in 0..3 {
            for (on, times) in [(false, &mut untraced), (true, &mut traced)] {
                spans::set_enabled(on);
                let t0 = process_cpu_s();
                replay_layers(&plan, &picked, if on { &mut x } else { &mut discard })?;
                times.push(process_cpu_s() - t0);
            }
        }
        out.overhead_s = median(&traced).unwrap_or(0.0) - median(&untraced).unwrap_or(0.0);
        out.per_layer = layers::metrics(&spans::snapshot(), &x);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn job_mix_is_a_function_of_the_seed() {
        let a = job_mix(7, 200);
        assert_eq!(a, job_mix(7, 200));
        assert_ne!(a, job_mix(8, 200));
        let count = |f: &dyn Fn(&PlannedJob) -> bool| a.iter().filter(|j| f(j)).count();
        assert_eq!(count(&|j| j.resubmit_of.is_some()), 20);
        assert_eq!(
            count(&|j| j.resubmit_of.is_none() && j.spec.op == JobOp::Place),
            36
        );
        for (k, j) in a.iter().enumerate() {
            if let Some(orig) = j.resubmit_of {
                assert!(orig < k && a[orig].resubmit_of.is_none());
                assert_eq!(j.spec, a[orig].spec);
            }
        }
        // Same composition under another seed, in another order.
        let shapes = |m: &[PlannedJob]| {
            let mut s: Vec<String> = m
                .iter()
                .filter(|j| j.resubmit_of.is_none())
                .map(|j| {
                    format!(
                        "{} {} {:?}",
                        j.spec.op.as_str(),
                        j.spec.app,
                        j.spec.processors
                    )
                })
                .collect();
            s.sort();
            s
        };
        assert_eq!(shapes(&a), shapes(&job_mix(8, 200)));
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // The first submit stalls for 300 ms; the others are due every
        // 10 ms, so they leave late and their latency must include
        // that wait although the stub answers instantly.
        let ids = AtomicU64::new(0);
        let handle = |line: &str| -> String {
            if line.contains("\"submit\"") {
                let id = ids.fetch_add(1, Ordering::SeqCst);
                if id == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                format!("{{\"ok\": true, \"id\": {id}}}")
            } else {
                "{\"ok\": true, \"state\": \"done\", \"result\": \"{}\"}".to_owned()
            }
        };
        let lines: Vec<String> = (0..5).map(|_| "{\"op\": \"submit\"}".to_owned()).collect();
        let seen = open_loop(&lines, 100.0, 5.0, &handle);
        assert!(seen.iter().all(|o| o.state == "done"));
        for (i, o) in seen.iter().enumerate().skip(1) {
            let due = i as f64 / 100.0;
            assert!(o.lag_s >= 0.29 - due, "job {i} lag {}", o.lag_s);
            assert!(
                o.latency_s.unwrap() >= o.lag_s,
                "job {i} latency below its lag"
            );
        }
        assert!(seen[1].latency_s.unwrap() >= 0.28);
    }
}
