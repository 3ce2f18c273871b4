//! placebench: the placesim pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path placebench/Cargo.toml -- \
//!     --workload paper-grid|trace-frontend|service-open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in
//! its own process, checks every output, prints each metric with its
//! unit, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Scratch files live under
//! `.placebench/` in the working directory. The exit code is 0 only
//! when every check passed.

mod clock;
mod frontend;
mod grid;
mod layers;
mod provenance;
mod service;
mod spans;
mod stats;

use placesim_obs::json::JsonWriter;
use stats::Metric;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where the harness keeps its scratch files, relative to the working
/// directory.
const OUT_DIR: &str = ".placebench";

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this process; removed at exit.
    pub dir: PathBuf,
}

/// What a workload hands back to `run`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// fnv1a64 over the simulated statistics or placements of each
    /// input, keyed by what identifies that input besides the workload.
    pub digests: Vec<(String, u64)>,
    /// Median set-up CPU time over the run's repeated set-ups.
    pub setup_s: f64,
    /// End-to-end metrics besides `setup_s`.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Traced CPU time minus untraced CPU time of the same work.
    pub overhead_s: f64,
    /// Human-readable detail lines (sample counts, failed checks).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, recording why it failed if it did.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failed <= 20 {
                    self.notes.push(format!("FAILED: {why}"));
                }
                false
            }
        }
    }
}

const WORKLOADS: [&str; 3] = ["paper-grid", "trace-frontend", "service-open"];

fn usage() -> String {
    format!(
        "usage: placebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&WORKLOADS.join(" or "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |f: &str| format!("{f} is required\n{}", usage());
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Removes the per-process scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Compares `digest` with the one an earlier run recorded under the
/// same key (workload, input and program sources), recording it if new.
fn check_digest(key: &str, digest: u64) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join("digests.txt");
    let known = fs::read_to_string(&path).unwrap_or_default();
    let hex = format!("{digest:016x}");
    if let Some(old) = known
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
    {
        return if old == hex {
            Ok(())
        } else {
            Err(format!(
                "result digest {hex} differs from {old} recorded by an earlier run of {key}"
            ))
        };
    }
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{key} {hex}").map_err(|e| format!("cannot record digest: {e}"))
}

fn run(args: &Args) -> Result<(Outcome, provenance::Provenance), String> {
    if std::env::var_os("PLACESIM_SIM_THREADS").is_some() {
        return Err("PLACESIM_SIM_THREADS must be unset: the engine is measured serially".into());
    }
    let prov = provenance::Provenance::collect(args.seed, service::WORKERS)?;
    let dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let scratch = ScratchDir(dir.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir,
    };
    let mut out = match args.workload.as_str() {
        "paper-grid" => grid::run(&ctx)?,
        "trace-frontend" => frontend::run(&ctx)?,
        _ => service::run(&ctx)?,
    };
    drop(scratch);

    for (input, digest) in std::mem::take(&mut out.digests) {
        let key = format!("{} {input} sources={:016x}", args.workload, prov.sources);
        out.notes.push(format!("digest {digest:016x} for {input}"));
        let checked = check_digest(&key, digest);
        out.check(checked);
    }

    let mut e2e = vec![Metric::new("setup_s", out.setup_s, "s")];
    e2e.append(&mut out.end_to_end);
    out.end_to_end = e2e;
    // Peak memory is reported with the layers: with the program's
    // per-thread allocation it varies too much between runs to gate on.
    let rss = peak_rss_mib()?;
    out.notes.push(format!("peak RSS (VmHWM) {rss} MiB"));
    if args.trace {
        out.per_layer
            .push(Metric::new("process.peak_rss_mib", rss, "MiB"));
        out.per_layer.push(Metric::new(
            "harness.tracing_overhead_s",
            out.overhead_s,
            "s",
        ));
        let recorded = spans::take();
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let doc = spans::to_json(&args.workload, &recorded, out.overhead_s, &prov);
        fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            recorded.len(),
            path.display()
        ));
    }
    Ok((out, prov))
}

fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_bool("correct", out.failed == 0);
    w.field_u64("attempted", out.attempted);
    w.field_u64("failed", out.failed);
    w.key("metrics");
    w.begin_object();
    for m in metrics {
        w.key(&m.name);
        w.begin_object();
        w.field_f64("value", m.value);
        w.field_str("unit", m.unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("placebench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        spans::set_enabled(true);
    }
    let (out, prov) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("placebench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    if let Some(bad) = metrics.iter().find(|m| !stats::valid_metric_name(&m.name)) {
        eprintln!("placebench: invalid metric name {:?}", bad.name);
        return ExitCode::FAILURE;
    }
    println!("provenance {}", prov.to_json());
    for note in &out.notes {
        println!("{}: {note}", args.workload);
    }
    println!(
        "{}: failed_frac {} ({} of {} ops failed)",
        args.workload,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for m in metrics {
        println!("{}: {} = {} {}", args.workload, m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out, metrics));
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
