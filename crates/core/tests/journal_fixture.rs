//! Pins the `placesim-journal-v1` bytes against journals written by an
//! earlier build of
//! `placesim-cli sweep water --scale 0.01 --seed 3 --algos RANDOM,LOAD-BAL --procs 2,4`
//! at `PLACESIM_THREADS=1`:
//!
//! * `water-full.journal` — the uninterrupted run's journal;
//! * `water-full.report.json` — that run's `--report` output;
//! * `water-torn.journal` — its header, first two cells and half of the
//!   third cell line, as a crash mid-append leaves it.

use placesim::journal::recover;
use placesim::{run_supervised_sweep, sweep_header, PreparedApp, Report, SupervisorConfig};
use placesim_placement::PlacementAlgorithm;
use placesim_workloads::{spec, GenOptions};
use std::path::PathBuf;
use std::sync::Arc;

const TORN: &[u8] = include_bytes!("fixtures/water-torn.journal");
const FULL: &[u8] = include_bytes!("fixtures/water-full.journal");
const REPORT: &str = include_str!("fixtures/water-full.report.json");

const ALGOS: [PlacementAlgorithm; 2] = [PlacementAlgorithm::Random, PlacementAlgorithm::LoadBal];
const PROCS: [usize; 2] = [2, 4];

fn app() -> Arc<PreparedApp> {
    Arc::new(PreparedApp::prepare(
        &spec("water").unwrap(),
        &GenOptions {
            scale: 0.01,
            seed: 3,
        },
    ))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "placesim-journal-fixture-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The newline-terminated lines of `data`, terminators kept.
fn lines(data: &[u8]) -> Vec<&[u8]> {
    data.split_inclusive(|&b| b == b'\n')
        .filter(|l| l.ends_with(b"\n"))
        .collect()
}

/// `journal` holds exactly the parent run's lines: the header first,
/// then every cell line byte-identical (commit order may differ when
/// several cells run at once).
fn assert_same_lines_as_full(journal: &[u8]) {
    let (mut got, mut want) = (lines(journal), lines(FULL));
    assert_eq!(got.len(), want.len(), "line count");
    assert_eq!(got[0], want[0], "header line");
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "cell lines must be byte-identical");
}

#[test]
fn torn_fixture_recovers_its_committed_prefix() {
    let prefix: usize = lines(TORN).iter().map(|l| l.len()).sum();
    let rec = recover(TORN).unwrap();
    assert_eq!(rec.cells.len(), 2);
    assert_eq!(rec.dropped.len(), 1, "{:?}", rec.dropped);
    assert_eq!(rec.dropped[0].line, 4);
    assert!(rec.dropped[0].reason.contains("torn"), "{:?}", rec.dropped);
    assert_eq!(rec.valid_bytes, prefix as u64);
    // This build describes the same sweep with the same header bytes.
    let header = sweep_header(&app(), &ALGOS, &PROCS);
    assert_eq!(rec.header, header);
    assert_eq!(header.to_line().as_bytes(), lines(TORN)[0]);
}

#[test]
fn torn_fixture_resumes_to_the_uninterrupted_report() {
    let dir = tmp_dir("resume");
    let path = dir.join("sweep.journal");
    std::fs::write(&path, TORN).unwrap();
    let prefix: usize = lines(TORN).iter().map(|l| l.len()).sum();

    let sweep = run_supervised_sweep(
        &app(),
        &ALGOS,
        &PROCS,
        &path,
        true,
        &SupervisorConfig::new(),
    )
    .unwrap();
    assert_eq!(sweep.resumed, 2);
    assert!(sweep.is_complete());
    assert_eq!(sweep.dropped.len(), 1);

    let journal = std::fs::read(&path).unwrap();
    assert_eq!(
        &journal[..prefix],
        &TORN[..prefix],
        "the committed prefix is never rewritten"
    );
    assert_same_lines_as_full(&journal);
    let report = Report::from_manifests([&sweep.manifest()]).unwrap();
    assert_eq!(report.to_json(), REPORT);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fresh_sweep_writes_the_fixture_bytes() {
    let dir = tmp_dir("fresh");
    let path = dir.join("sweep.journal");
    let sweep = run_supervised_sweep(
        &app(),
        &ALGOS,
        &PROCS,
        &path,
        false,
        &SupervisorConfig::new(),
    )
    .unwrap();
    let journal = std::fs::read(&path).unwrap();
    if placesim::max_workers() == 1 {
        assert_eq!(journal, FULL);
    }
    assert_same_lines_as_full(&journal);
    let report = Report::from_manifests([&sweep.manifest()]).unwrap();
    assert_eq!(report.to_json(), REPORT);
    std::fs::remove_dir_all(&dir).ok();
}
