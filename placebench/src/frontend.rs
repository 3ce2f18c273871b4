//! `trace-frontend`: the `placesim-cli analyze`/`place` path on saved
//! traces, as a closed loop with one client.
//!
//! Set-up writes gauss (127 threads) as a streaming v3 file and
//! locusroute (16 threads) as a v2 file, then computes the oracles: the
//! reference profile and the 14 static placements under
//! `ScoreMode::Fresh`. Each op reads one file, profiles it and places
//! it with the 14 static algorithms at p = 16. One job is a gauss op
//! followed by a locusroute op. Ops are timed on the process's CPU
//! clock, and each input counts at the median of its op times. The
//! simulator does no work here.

use crate::clock::process_cpu_s;
use crate::layers::{self, Extras};
use crate::spans::{self, span};
use crate::stats::{median, Metric};
use crate::{Ctx, Outcome};
use placesim_analysis::{SharingAnalysis, SpillBudget};
use placesim_placement::{
    thread_lengths, PlacementAlgorithm, PlacementInputs, PlacementMap, ScoreMode,
};
use placesim_trace::hash::Fnv64;
use placesim_trace::{compress, stream, ThreadId};
use placesim_workloads::{generate_streamed, generate_with_access, GenOptions};
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

const PROCESSORS: usize = 16;
const SCALE: f64 = 1.0;
const ALGOS: [PlacementAlgorithm; 14] = PlacementAlgorithm::STATIC;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One saved trace and the outputs every op on it must reproduce.
struct Input {
    app: &'static str,
    path: PathBuf,
    v3: bool,
    refs: u64,
    sharing: SharingAnalysis,
    maps: Vec<PlacementMap>,
}

fn create(path: &Path) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))
}

/// Writes one app's trace file and computes its oracles.
fn prepare_input(ctx: &Ctx, app: &'static str, v3: bool, x: &mut Extras) -> Result<Input, String> {
    let spec = placesim_workloads::spec(app).ok_or(format!("unknown app {app}"))?;
    let opts = GenOptions {
        scale: SCALE,
        seed: ctx.seed,
    };
    let path = ctx
        .dir
        .join(format!("{app}.{}.trace", if v3 { "v3" } else { "v2" }));
    let prog = {
        let mut s = span("workloads.generate", 0);
        let (prog, _access) = generate_with_access(&spec, &opts);
        s.set_refs(prog.total_refs());
        prog
    };
    if v3 {
        // The CLI's v3 writer regenerates the trace thread by thread as
        // it encodes, so its span is generation and encoding together.
        let summary = {
            let _s = span("workloads.generate_streamed", 0);
            generate_streamed(&spec, &opts, create(&path)?).map_err(|e| format!("{app} v3: {e}"))?
        };
        if summary.total_refs != prog.total_refs() {
            return Err(format!(
                "{app}: streamed {} refs, generated {}",
                summary.total_refs,
                prog.total_refs()
            ));
        }
        if spans::enabled() {
            // The v3 encoder alone, on the trace already in memory.
            let mut s = span("trace.encode", 0);
            s.set_refs(prog.total_refs());
            stream::write_program(&prog, io::sink()).map_err(|e| format!("{app} v3: {e}"))?;
        }
    } else {
        let mut s = span("trace.encode", 0);
        s.set_refs(prog.total_refs());
        compress::write_program(&prog, create(&path)?).map_err(|e| format!("{app} v2: {e}"))?;
    }
    x.encoded_refs += prog.total_refs();
    x.encoded_bytes += fs::metadata(&path).map_err(|e| e.to_string())?.len();

    let _s = span("oracle.profile_and_place", 0);
    let sharing = SharingAnalysis::measure_reference(&prog);
    let lengths = thread_lengths(&prog);
    let inputs = PlacementInputs::new(&sharing, &lengths);
    let maps = ALGOS
        .iter()
        .map(|a| a.place_with_mode(&inputs, PROCESSORS, ScoreMode::Fresh))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{app} oracle placement: {e}"))?;
    Ok(Input {
        app,
        path,
        v3,
        refs: prog.total_refs(),
        sharing,
        maps,
    })
}

/// One op: read, profile and place one saved trace. Returns the
/// profile, the placements and the references read.
fn op(
    input: &Input,
    id: u64,
    budget: &SpillBudget,
) -> Result<(SharingAnalysis, Vec<PlacementMap>, u64), String> {
    let what = |e: &dyn std::fmt::Display| format!("{}: {e}", input.app);
    let (sharing, lengths, refs) = if input.v3 {
        let reader = {
            let _s = span("trace.open", id);
            stream::FileReader::open(&input.path).map_err(|e| what(&e))?
        };
        // The v3 profile scan decodes chunks as it goes, so on v3 this
        // span holds decoding too; `decode_v3` times the decoder alone.
        let mut s = span("analysis.profile", id);
        s.set_refs(reader.total_refs());
        let sharing = SharingAnalysis::measure_streamed(&reader, budget).map_err(|e| what(&e))?;
        drop(s);
        (sharing, reader.instr_lengths(), reader.total_refs())
    } else {
        let prog = {
            let mut s = span("trace.decode", id);
            let raw = fs::read(&input.path).map_err(|e| what(&e))?;
            let prog = compress::read_any(&raw).map_err(|e| what(&e))?;
            s.set_refs(prog.total_refs());
            prog
        };
        let mut s = span("analysis.profile", id);
        s.set_refs(prog.total_refs());
        let sharing = SharingAnalysis::measure(&prog);
        drop(s);
        (sharing, thread_lengths(&prog), prog.total_refs())
    };
    let inputs = PlacementInputs::new(&sharing, &lengths);
    let maps = ALGOS
        .iter()
        .map(|a| {
            let _s = span("placement.place", id);
            a.place(&inputs, PROCESSORS)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| what(&e))?;
    Ok((sharing, maps, refs))
}

/// Decodes every chunk of a v3 file without profiling it, so that the
/// traced run can time the v3 decoder on its own.
fn decode_v3(input: &Input, id: u64) -> Result<(), String> {
    let what = |e: &dyn std::fmt::Display| format!("{}: {e}", input.app);
    let reader = stream::FileReader::open(&input.path).map_err(|e| what(&e))?;
    let mut s = span("trace.decode", id);
    let mut refs = 0;
    for t in 0..reader.thread_count() {
        let mut chunks = reader
            .chunks(ThreadId::new(t as u16))
            .map_err(|e| what(&e))?;
        while let Some(chunk) = chunks.next_chunk().map_err(|e| what(&e))? {
            refs += chunk.len() as u64;
        }
    }
    s.set_refs(refs);
    if refs != input.refs {
        return Err(format!(
            "{}: decoded {refs} refs, wrote {}",
            input.app, input.refs
        ));
    }
    Ok(())
}

fn check_op(
    input: &Input,
    sharing: &SharingAnalysis,
    maps: &[PlacementMap],
    refs: u64,
) -> Result<(), String> {
    if refs != input.refs {
        return Err(format!(
            "{}: read {refs} refs, wrote {}",
            input.app, input.refs
        ));
    }
    if *sharing != input.sharing {
        return Err(format!(
            "{}: profile differs from the reference profile",
            input.app
        ));
    }
    match maps
        .iter()
        .zip(&input.maps)
        .position(|(got, want)| got != want)
    {
        Some(i) => Err(format!(
            "{}: {} placement differs from ScoreMode::Fresh",
            input.app,
            ALGOS[i].paper_name()
        )),
        None => Ok(()),
    }
}

fn digest_maps(h: &mut Fnv64, maps: &[PlacementMap]) {
    for map in maps {
        for (_, threads) in map.iter() {
            h.update_u64(threads.len() as u64);
            for t in threads {
                h.update_u64(t.index() as u64);
            }
        }
    }
}

/// Runs one job, a gauss op then a locusroute op; returns each op's
/// CPU seconds (the op only, not its checks) and the digest of the
/// job's placements.
fn run_job(
    inputs: &[Input],
    job: u64,
    budget: &SpillBudget,
    out: &mut Outcome,
) -> Result<(Vec<f64>, u64), String> {
    let mut cpu_s = Vec::with_capacity(inputs.len());
    let mut h = Fnv64::new();
    for (k, input) in inputs.iter().enumerate() {
        let t0 = process_cpu_s();
        let (sharing, maps, n) = op(input, job * 2 + k as u64, budget)?;
        cpu_s.push(process_cpu_s() - t0);
        out.check(check_op(input, &sharing, &maps, n));
        digest_maps(&mut h, &maps);
    }
    Ok((cpu_s, h.finish()))
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut x = Extras::default();
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for rep in 0..SETUP_REPS {
        // Only the last set-up's spans and encode counts are kept.
        spans::set_enabled(ctx.trace && rep + 1 == SETUP_REPS);
        x = Extras::default();
        inputs.clear();
        let t0 = process_cpu_s();
        inputs.push(prepare_input(ctx, "gauss", true, &mut x)?);
        inputs.push(prepare_input(ctx, "locusroute", false, &mut x)?);
        setups.push(process_cpu_s() - t0);
    }
    out.setup_s = median(&setups).unwrap_or(0.0);
    let budget = SpillBudget::from_env().with_dir(&ctx.dir);

    // The timed loop records no spans, even in a traced run.
    spans::set_enabled(false);
    let started = Instant::now();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut job = 0;
    while job == 0 || started.elapsed().as_secs_f64() < ctx.seconds {
        let (cpu_s, digest) = run_job(&inputs, job, &budget, &mut out)?;
        for (v, s) in samples.iter_mut().zip(cpu_s) {
            v.push(s);
        }
        if job == 0 {
            out.digests.push((format!("seed={}", ctx.seed), digest));
        } else if out.digests[0].1 != digest {
            out.check(Err(format!(
                "job {job} digest {digest:016x} differs from job 0's"
            )));
        }
        job += 1;
    }
    // Each input counts once, at its median op time.
    let medians: Vec<f64> = samples.iter().map(|v| median(v).unwrap_or(0.0)).collect();
    let cpu_s: f64 = medians.iter().sum();
    let refs: u64 = inputs.iter().map(|i| i.refs).sum();
    for (input, m) in inputs.iter().zip(&medians) {
        out.notes.push(format!(
            "{}: {} refs, median op {m:.4} CPU s over {job} ops",
            input.app, input.refs
        ));
    }
    out.end_to_end = vec![Metric::new("refs_per_cpu_s", refs as f64 / cpu_s, "refs/s")];

    if ctx.trace {
        spans::set_enabled(true);
        let (traced, _) = run_job(&inputs, job, &budget, &mut out)?;
        out.overhead_s = traced.iter().sum::<f64>() - cpu_s;
        for input in inputs.iter().filter(|i| i.v3) {
            let decoded = decode_v3(input, job * 2);
            out.check(decoded);
        }
        out.per_layer = layers::metrics(&spans::snapshot(), &x);
    }
    Ok(out)
}
