//! The host, build and input facts every result records.

use placesim_obs::json::JsonWriter;
use placesim_trace::hash::Fnv64;
use std::fs;
use std::path::{Path, PathBuf};

/// Source trees whose contents identify the program under test (paths
/// relative to the repository root the harness runs from).
const SOURCES: [&str; 5] = [
    "Cargo.lock",
    "crates",
    "src",
    "placebench/src",
    "placebench/Cargo.toml",
];

/// Environment variables that change how the program runs.
const ENV_KNOBS: [&str; 3] = [
    "PLACESIM_THREADS",
    "PLACESIM_SIM_THREADS",
    "PLACESIM_SPILL_ADDRS",
];

#[derive(Debug, Clone)]
pub struct Provenance {
    pub seed: u64,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
    pub profile: &'static str,
    pub commit: String,
    /// fnv1a64 over the program's source files, so results from the
    /// same sources can be matched without a git checkout.
    pub sources: u64,
    pub cell_workers: usize,
    pub service_workers: usize,
    pub env: Vec<(&'static str, Option<String>)>,
}

impl Provenance {
    pub fn collect(seed: u64, service_workers: usize) -> Result<Self, String> {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                    .map(|(_, m)| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
        let mut h = Fnv64::new();
        for root in SOURCES {
            hash_tree(Path::new(root), &mut h)?;
        }
        Ok(Provenance {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            rustc,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            sources: h.finish(),
            // The supervised sweep sizes its cell pool from this budget.
            cell_workers: placesim::max_workers(),
            service_workers,
            env: ENV_KNOBS
                .iter()
                .map(|&k| (k, std::env::var(k).ok()))
                .collect(),
        })
    }

    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("seed", self.seed);
        w.field_u64("nproc", self.nproc as u64);
        w.field_str("cpu_model", &self.cpu_model);
        w.field_str("kernel", &self.kernel);
        w.field_str("rustc", &self.rustc);
        w.field_str("profile", self.profile);
        w.field_str("commit", &self.commit);
        w.field_str("sources_fnv1a64", &format!("{:016x}", self.sources));
        w.field_u64("cell_workers", self.cell_workers as u64);
        w.field_u64("service_workers", self.service_workers as u64);
        w.key("env");
        w.begin_object();
        for (k, v) in &self.env {
            w.key(k);
            match v {
                Some(v) => w.value_str(v),
                None => w.value_null(),
            }
        }
        w.end_object();
        w.end_object();
    }

    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

/// Hashes every file under `path` (or `path` itself) in sorted order,
/// names included. A missing path is an error: the harness must run
/// from the repository root.
fn hash_tree(path: &Path, h: &mut Fnv64) -> Result<(), String> {
    let meta = fs::metadata(path).map_err(|e| {
        format!(
            "cannot find {} (run from the repository root): {e}",
            path.display()
        )
    })?;
    if meta.is_dir() {
        let mut entries: Vec<PathBuf> = fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            hash_tree(&entry, h)?;
        }
    } else {
        h.update(path.to_string_lossy().as_bytes());
        let bytes = fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        h.update_u64(bytes.len() as u64);
        h.update(&bytes);
    }
    Ok(())
}

/// The commit checked out in the working directory. Only a checkout
/// with its own `.git` is asked, so that no enclosing repository is.
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    command_line("git", &["rev-parse", "HEAD"])
}

/// The first line `program args` prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_owned())
}
