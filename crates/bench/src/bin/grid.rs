//! Custom experiment grids as CSV on stdout.
//!
//! ```sh
//! cargo run --release -p placesim-bench --bin grid -- \
//!     --apps water,fft --algos LOAD-BAL,RANDOM,SHARE-REFS --procs 2,4,8
//! ```
//!
//! Defaults: all 14 applications, all 14 static algorithms, the paper's
//! processor counts. `--infinite` switches to the 8 MB cache.

use placesim::export::to_csv;
use placesim::figures::default_processor_counts;
use placesim::{run_sweep, ExperimentResult, PreparedApp};
use placesim_bench::{harness_opts, prepare};
use placesim_machine::ArchConfig;
use placesim_placement::PlacementAlgorithm;
use placesim_workloads::SUITE_NAMES;

fn list_arg(args: &[String], name: &str) -> Option<Vec<String>> {
    args.iter().position(|a| a == name).and_then(|i| {
        args.get(i + 1)
            .map(|v| v.split(',').map(str::to_owned).collect())
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let apps = list_arg(&args, "--apps")
        .unwrap_or_else(|| SUITE_NAMES.iter().map(|s| s.to_string()).collect());
    let algos: Vec<PlacementAlgorithm> = match list_arg(&args, "--algos") {
        None => PlacementAlgorithm::STATIC.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| {
                PlacementAlgorithm::ALL
                    .into_iter()
                    .find(|a| a.paper_name().eq_ignore_ascii_case(n))
                    .unwrap_or_else(|| {
                        eprintln!("unknown algorithm {n}");
                        std::process::exit(2);
                    })
            })
            .collect(),
    };
    let procs: Option<Vec<usize>> = list_arg(&args, "--procs").map(|ps| {
        ps.iter()
            .map(|p| p.parse().expect("--procs takes integers"))
            .collect()
    });
    let infinite = args.iter().any(|a| a == "--infinite");

    let opts = harness_opts();
    eprintln!(
        "grid: {} apps x {} algorithms (scale {})",
        apps.len(),
        algos.len(),
        opts.scale
    );

    let mut rows = Vec::new();
    for name in &apps {
        let mut app = prepare(name);
        if infinite {
            app.config = ArchConfig::infinite_cache();
        }
        let pcs = procs
            .clone()
            .unwrap_or_else(|| default_processor_counts(app.threads()));
        let results = run_sweep(&app, &algos, &pcs).expect("grid cell failed");
        rows.extend(results.iter().map(|r| csv_row(name, &app, r)));
    }
    print!("{}", to_csv(CSV_HEADER, rows));
}

/// Columns of the grid CSV, one row per (app, algorithm, processors).
const CSV_HEADER: [&str; 12] = [
    "app",
    "algorithm",
    "processors",
    "contexts",
    "execution_time",
    "compulsory",
    "intra_conflict",
    "inter_conflict",
    "invalidation",
    "miss_rate",
    "load_imbalance",
    "coherence_traffic",
];

/// One CSV row for a grid cell of `app`, named `name`.
fn csv_row(name: &str, app: &PreparedApp, r: &ExperimentResult) -> Vec<String> {
    let misses = r.stats.total_misses();
    vec![
        name.to_owned(),
        r.algorithm.paper_name().to_owned(),
        r.processors.to_string(),
        r.map.max_cluster_size().to_string(),
        r.execution_time().to_string(),
        misses.compulsory.to_string(),
        misses.intra_thread_conflict.to_string(),
        misses.inter_thread_conflict.to_string(),
        misses.invalidation.to_string(),
        format!("{:.6}", r.stats.miss_rate()),
        format!("{:.4}", r.map.load_imbalance(&app.lengths)),
        r.stats.coherence_traffic().to_string(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use placesim_workloads::{spec, GenOptions};

    #[test]
    fn csv_has_header_and_rows() {
        let app = PreparedApp::prepare(
            &spec("barnes-hut").unwrap(),
            &GenOptions {
                scale: 0.002,
                seed: 6,
            },
        );
        let results = run_sweep(&app, &[PlacementAlgorithm::Random], &[2]).unwrap();
        let rows = results.iter().map(|r| csv_row("barnes-hut", &app, r));
        let csv = to_csv(CSV_HEADER, rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], CSV_HEADER.join(","));
        assert!(lines[1].starts_with("barnes-hut,RANDOM,2,"), "{}", lines[1]);
        assert_eq!(lines[1].split(',').count(), CSV_HEADER.len());
    }
}
