//! `paper-grid`: the Figures 2–4 grid as a closed batch.
//!
//! One job is one whole grid: for each of locusroute, fft and
//! barnes-hut at scale 0.1, prepare the app (generate + profile) and run
//! its 14 static algorithms × {2, 4, 8, 16} processors through the
//! supervised, journaled sweep with the CLI's default supervision.
//! A run covers a fixed list of two inputs, trace seeds `seed + k·2³²`:
//! grid job `g` runs input `g mod 2`, every input runs at least twice,
//! and jobs go on until the run's time is up. Each (input, app) sweep is
//! timed on the process's CPU clock and counts once, at the median of
//! its times, so a faster program is timed on the same inputs with the
//! same weights as a slower one. Every repeat of an input must give
//! that input's digest.
use crate::clock::process_cpu_s;
use crate::layers::{self, Extras};
use crate::spans::{self, span};
use crate::stats::{median, Metric};
use crate::{Ctx, Outcome};
use placesim::{
    run_supervised_sweep, ManifestEntry, PreparedApp, SupervisedSweep, SupervisorConfig,
};
use placesim_analysis::SharingAnalysis;
use placesim_machine::{reference, simulate, ArchConfig, SimStats};
use placesim_placement::{thread_lengths, PlacementAlgorithm, PlacementInputs};
use placesim_trace::hash::{program_fingerprint, Fnv64};
use placesim_workloads::{generate_with_access, AppSpec, GenOptions};
use std::sync::Arc;
use std::time::Instant;

pub const APPS: [&str; 3] = ["locusroute", "fft", "barnes-hut"];
pub const SCALE: f64 = 0.1;
pub const PROCS: [usize; 4] = [2, 4, 8, 16];
const ALGOS: [PlacementAlgorithm; 14] = PlacementAlgorithm::STATIC;
/// Trace seeds a run covers; each grid job runs one of them in turn.
const INPUTS: usize = 2;
/// Grid jobs every input runs at least, however short the run.
const MIN_PASSES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// A splitmix64 step: the harness's only source of seeded choices.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// What the reference generator says one app's trace must be.
struct Oracle {
    spec: AppSpec,
    opts: GenOptions,
    total_refs: u64,
    fingerprint: u64,
}

/// The trace oracles of one grid, from the reference generator.
fn build_oracles(trace_seed: u64) -> Result<Vec<Oracle>, String> {
    APPS.iter()
        .map(|name| {
            let spec = placesim_workloads::spec(name).ok_or(format!("unknown app {name}"))?;
            let opts = GenOptions {
                scale: SCALE,
                seed: trace_seed,
            };
            let prog = placesim_workloads::reference::generate(&spec, &opts);
            Ok(Oracle {
                total_refs: prog.total_refs(),
                fingerprint: program_fingerprint(&prog),
                spec,
                opts,
            })
        })
        .collect()
}

/// Checks one committed sweep: every cell present and in grid order,
/// the miss taxonomy summing to `total_misses`, and every cell
/// simulating exactly the trace's references.
fn check_sweep(sweep: &SupervisedSweep, oracle: &Oracle) -> Result<(), String> {
    let app = oracle.spec.name;
    if let Some(hole) = sweep.holes.first() {
        return Err(format!(
            "{app} cell {} is a hole: {}",
            hole.index, hole.reason
        ));
    }
    if sweep.cells.len() != ALGOS.len() * PROCS.len() {
        return Err(format!("{app}: {} cells committed", sweep.cells.len()));
    }
    for (index, cell) in sweep.cells.iter().enumerate() {
        let e = &cell.entry;
        let expected = (
            ALGOS[index / PROCS.len()].paper_name(),
            PROCS[index % PROCS.len()],
        );
        let what = format!("{app} {}/{}", e.algorithm, e.processors);
        let m = &e.misses;
        let taxonomy =
            m.compulsory + m.intra_thread_conflict + m.inter_thread_conflict + m.invalidation;
        if cell.index != index || (e.algorithm.as_str(), e.processors) != expected {
            return Err(format!("{what}: cell {} out of grid order", cell.index));
        }
        if taxonomy != e.total_misses {
            return Err(format!(
                "{what}: miss taxonomy sums to {taxonomy}, total_misses is {}",
                e.total_misses
            ));
        }
        if e.total_refs != oracle.total_refs {
            return Err(format!(
                "{what}: {} refs simulated, trace has {}",
                e.total_refs, oracle.total_refs
            ));
        }
    }
    Ok(())
}

/// Feeds every field of an entry into the digest.
fn digest_entry(h: &mut Fnv64, e: &ManifestEntry) {
    h.update(e.algorithm.as_bytes());
    for v in [
        e.processors as u64,
        e.execution_time,
        e.total_refs,
        e.total_misses,
        e.miss_rate.to_bits(),
        e.coherence_traffic,
        e.update_traffic,
        e.misses.compulsory,
        e.misses.intra_thread_conflict,
        e.misses.inter_thread_conflict,
        e.misses.invalidation,
    ] {
        h.update_u64(v);
    }
}

/// Per-processor conservation: every cycle accounted for, and the
/// references executed (hits + misses + barriers) equal to the trace's.
pub fn check_conservation(stats: &SimStats, trace_refs: u64) -> Result<(), String> {
    for (p, s) in stats.per_proc().iter().enumerate() {
        if s.accounted_cycles() != s.finish_time {
            return Err(format!(
                "processor {p}: busy+switching+idle {} != finish {}",
                s.accounted_cycles(),
                s.finish_time
            ));
        }
    }
    if stats.total_refs() != trace_refs {
        return Err(format!(
            "{} refs simulated, trace has {trace_refs}",
            stats.total_refs()
        ));
    }
    Ok(())
}

/// Re-runs one seeded cell of an app through the reference engine and
/// requires the conservation laws, the production engine's statistics
/// and the sweep's entry to agree with it.
fn check_reference_cell(
    seed: u64,
    app: &PreparedApp,
    sweep: &SupervisedSweep,
) -> Result<(), String> {
    let index = (splitmix64(seed ^ program_fingerprint(&app.prog))
        % (ALGOS.len() * PROCS.len()) as u64) as usize;
    let (algo, p) = (ALGOS[index / PROCS.len()], PROCS[index % PROCS.len()]);
    let what = format!("{} {}/{p}", app.spec.name, algo.paper_name());
    let map = algo
        .place(&app.placement_inputs(), p)
        .map_err(|e| format!("{what}: {e}"))?;
    let oracle =
        reference::simulate(&app.prog, &map, &app.config).map_err(|e| format!("{what}: {e}"))?;
    check_conservation(&oracle, app.prog.total_refs()).map_err(|e| format!("{what}: {e}"))?;
    let fast = simulate(&app.prog, &map, &app.config).map_err(|e| format!("{what}: {e}"))?;
    if fast != oracle {
        return Err(format!(
            "{what}: engine statistics differ from the reference engine"
        ));
    }
    let cell = sweep
        .cells
        .iter()
        .find(|c| c.index == index)
        .ok_or(format!("{what}: cell missing"))?;
    if cell.entry != ManifestEntry::from_stats(algo.paper_name(), p, &oracle) {
        return Err(format!(
            "{what}: sweep entry differs from the reference engine"
        ));
    }
    Ok(())
}

/// One finished grid job.
struct Grid {
    /// CPU seconds of each app's prepare + sweep, in `APPS` order.
    cpu_s: Vec<f64>,
    /// Wall seconds of the whole grid.
    wall_s: f64,
    /// Simulated references of each app's sweep, in `APPS` order.
    refs: Vec<u64>,
    digest: u64,
    /// The prepared apps and their sweeps, for the post-run checks.
    apps: Vec<(Arc<PreparedApp>, SupervisedSweep)>,
}

/// Runs one grid job; only prepare + sweep are timed. With `replay`,
/// each app's sweep is followed by its layer replay, so that the two
/// run close together in time and see the same host conditions.
fn run_grid(
    ctx: &Ctx,
    g: u64,
    oracles: &[Oracle],
    out: &mut Outcome,
    mut replay: Option<&mut Extras>,
) -> Result<Grid, String> {
    let mut grid = Grid {
        cpu_s: Vec::new(),
        wall_s: 0.0,
        refs: Vec::new(),
        digest: 0,
        apps: Vec::new(),
    };
    let mut h = Fnv64::new();
    for oracle in oracles {
        let journal = ctx
            .dir
            .join(format!("grid{g}-{}.journal", oracle.spec.name));
        let (t0, c0) = (Instant::now(), process_cpu_s());
        let app = {
            let _s = span("core.prepare", g);
            Arc::new(PreparedApp::prepare(&oracle.spec, &oracle.opts))
        };
        let sweep = {
            let _s = span("core.sweep", g);
            run_supervised_sweep(
                &app,
                &ALGOS,
                &PROCS,
                &journal,
                false,
                &SupervisorConfig::new(),
            )
        };
        grid.cpu_s.push(process_cpu_s() - c0);
        grid.wall_s += t0.elapsed().as_secs_f64();
        let sweep = sweep.map_err(|e| format!("{} sweep: {e}", oracle.spec.name))?;
        std::fs::remove_file(&journal).ok();

        out.check(if program_fingerprint(&app.prog) == oracle.fingerprint {
            check_sweep(&sweep, oracle)
        } else {
            Err(format!(
                "{}: prepared trace differs from the reference generator's",
                oracle.spec.name
            ))
        });
        let mut refs = 0;
        for cell in &sweep.cells {
            refs += cell.entry.total_refs;
            digest_entry(&mut h, &cell.entry);
        }
        grid.refs.push(refs);
        grid.apps.push((app, sweep));
        if let Some(x) = replay.as_deref_mut() {
            replay_app(g, oracle, x)?;
        }
    }
    grid.digest = h.finish();
    Ok(grid)
}

/// The traced replay of one app's grid work, split at the layer
/// boundaries: generate, profile, then place and simulate per cell,
/// serially.
fn replay_app(op: u64, oracle: &Oracle, x: &mut Extras) -> Result<(), String> {
    let (prog, access) = {
        let mut s = span("workloads.generate", op);
        let r = generate_with_access(&oracle.spec, &oracle.opts);
        s.set_refs(r.0.total_refs());
        r
    };
    let sharing = {
        let mut s = span("analysis.profile", op);
        s.set_refs(prog.total_refs());
        SharingAnalysis::measure_access(&access)
    };
    drop(access);
    let lengths = thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths).with_seed(oracle.opts.seed);
    let config = ArchConfig::paper_default()
        .with_cache_size(oracle.spec.cache_bytes())
        .map_err(|e| e.to_string())?;
    for algo in ALGOS {
        for p in PROCS {
            let t0 = Instant::now();
            let map = {
                let _s = span("placement.place", op);
                algo.place(&inputs, p).map_err(|e| e.to_string())?
            };
            let mut s = span("machine.simulate", op);
            s.set_label(format!("p{p}/wi"));
            let stats = simulate(&prog, &map, &config).map_err(|e| e.to_string())?;
            s.set_refs(stats.total_refs());
            drop(s);
            x.cell_work_s += t0.elapsed().as_secs_f64();
            x.add_sim(&stats);
        }
    }
    Ok(())
}

/// What the timed loop learned about one input.
#[derive(Default)]
struct InputRuns {
    /// CPU seconds of every sweep of each app, in `APPS` order.
    cpu_s: [Vec<f64>; APPS.len()],
    wall_s: Vec<f64>,
    refs: Vec<u64>,
    digest: Option<u64>,
}

impl InputRuns {
    /// Each app's median CPU seconds over its sweeps.
    fn median_cpu_s(&self) -> Vec<f64> {
        self.cpu_s
            .iter()
            .map(|s| median(s).unwrap_or(0.0))
            .collect()
    }
}

/// The run's inputs: `INPUTS` trace seeds derived from the run's seed.
fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64) << 32)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut oracles = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = process_cpu_s();
        oracles = (0..INPUTS)
            .map(|k| build_oracles(trace_seed(ctx.seed, k)))
            .collect::<Result<Vec<_>, _>>()?;
        setups.push(process_cpu_s() - t0);
    }
    out.setup_s = median(&setups).unwrap_or(0.0);

    // The timed loop records no spans, even in a traced run. Grid job
    // `g` runs input `g % INPUTS`, and every input runs MIN_PASSES
    // times at least.
    let traced = ctx.trace;
    spans::set_enabled(false);
    let started = Instant::now();
    let mut runs: Vec<InputRuns> = (0..INPUTS).map(|_| InputRuns::default()).collect();
    let mut last = None;
    let mut g = 0;
    while g < MIN_PASSES * INPUTS || started.elapsed().as_secs_f64() < ctx.seconds {
        // Free the previous grid before the next one allocates.
        drop(last.take());
        let k = g % INPUTS;
        let grid = run_grid(ctx, g as u64, &oracles[k], &mut out, None)?;
        let r = &mut runs[k];
        for (samples, &s) in r.cpu_s.iter_mut().zip(&grid.cpu_s) {
            samples.push(s);
        }
        r.wall_s.push(grid.wall_s);
        r.refs = grid.refs.clone();
        match r.digest {
            None => r.digest = Some(grid.digest),
            Some(d) if d != grid.digest => {
                out.check(Err(format!(
                    "grid {g} digest {:016x} differs from {d:016x} of an earlier grid on its input",
                    grid.digest
                )));
            }
            Some(_) => {}
        }
        last = Some((k, grid));
        g += 1;
    }
    let (last_k, last) = last.expect("one grid ran");
    for (app, sweep) in &last.apps {
        let checked = check_reference_cell(ctx.seed, app, sweep);
        out.check(checked);
    }
    for (k, r) in runs.iter().enumerate() {
        let digest = r.digest.expect("every input ran");
        out.digests
            .push((format!("trace-seed={}", trace_seed(ctx.seed, k)), digest));
    }

    // Each (input, app) sweep counts once, at its median CPU time,
    // however many times the run had room to repeat it.
    let cpu_s: f64 = runs.iter().flat_map(InputRuns::median_cpu_s).sum();
    let refs: u64 = runs.iter().flat_map(|r| &r.refs).sum();
    let wall_s: f64 = runs.iter().map(|r| median(&r.wall_s).unwrap_or(0.0)).sum();
    out.notes.push(format!(
        "{g} grid jobs over {INPUTS} inputs, {refs} simulated refs per round of inputs, {cpu_s:.4} CPU s and {wall_s:.4} wall s per round at the median times"
    ));
    out.end_to_end = vec![Metric::new("refs_per_cpu_s", refs as f64 / cpu_s, "refs/s")];

    if traced {
        // The last grid again, traced and with its layer replay: the
        // difference from its input's untraced median time is the
        // tracing overhead.
        spans::set_enabled(true);
        let mut extras = Extras {
            cell_workers: placesim::max_workers(),
            ..Extras::default()
        };
        drop(last);
        let grid = run_grid(ctx, g as u64, &oracles[last_k], &mut out, Some(&mut extras))?;
        out.check(if runs[last_k].digest == Some(grid.digest) {
            Ok(())
        } else {
            Err("the traced grid's digest differs from the untraced one's".into())
        });
        out.overhead_s =
            grid.cpu_s.iter().sum::<f64>() - runs[last_k].median_cpu_s().iter().sum::<f64>();
        out.per_layer = layers::metrics(&spans::snapshot(), &extras);
    }
    Ok(out)
}
