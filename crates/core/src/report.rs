//! Plain-text table rendering and the experiment report aggregator.
//!
//! [`TextTable`] does the alignment work for every table the workspace
//! prints. [`Report`] ingests many `placesim-metrics-v1` manifests
//! (see [`crate::manifest`]), groups their entries by
//! `(app, protocol, algorithm, processors)`, and renders paper-style
//! comparison tables — execution time, the four-way miss taxonomy,
//! update traffic, and a normalized-to-RANDOM column (computed within
//! each protocol, so the per-protocol vs-RANDOM sections answer whether
//! the 1994 result survives MESI/Dragon) — as aligned text and as JSON
//! (`placesim-report-v1`). [`Report::compare`] diffs two reports for
//! the CI regression gate.

use crate::manifest::RunManifest;
use placesim_obs::json::JsonWriter;
use std::collections::BTreeMap;
use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use placesim::report::TextTable;
///
/// let mut t = TextTable::new(["app", "time"]);
/// t.row(["water", "123"]);
/// let s = t.to_string();
/// assert!(s.contains("water"));
/// assert!(s.lines().count() >= 3); // header, rule, one row
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }

        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i > 0 {
                    write!(f, "  ")?;
                }
                // Right-align numeric-looking cells, left-align the rest.
                if cell
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
                    && cell.chars().all(|c| !c.is_ascii_alphabetic() || c == 'e')
                {
                    write!(f, "{cell:>w$}", w = w)?;
                } else {
                    write!(f, "{cell:<w$}", w = w)?;
                }
            }
            writeln!(f)
        };

        write_row(f, &self.headers)?;
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        writeln!(f, "{}", "-".repeat(rule))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with `prec` decimals.
pub fn fmt_f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a mean ± dev% pair the way the paper's Table 2 prints them.
pub fn fmt_mean_dev(mean: f64, dev_percent: f64) -> String {
    format!("{mean:.0} ({dev_percent:.1}%)")
}

/// Formats a count in thousands (the paper's "(in 1000s)" columns).
pub fn fmt_thousands(x: f64) -> String {
    format!("{:.0}", x / 1000.0)
}

/// Renders `value` as an ASCII bar where `full` maps to `width`
/// characters (the paper's figures are bar charts; this keeps the
/// terminal output evocative of them). Values beyond `full` are capped
/// with a `+` marker.
pub fn ascii_bar(value: f64, full: f64, width: usize) -> String {
    if !(value.is_finite() && full > 0.0) || value <= 0.0 {
        return String::new();
    }
    let frac = value / full;
    if frac > 1.0 {
        let mut bar = "#".repeat(width);
        bar.push('+');
        bar
    } else {
        "#".repeat((frac * width as f64).round().max(1.0) as usize)
    }
}

/// Schema tag stamped into every JSON report.
pub const REPORT_SCHEMA: &str = "placesim-report-v1";

/// Aggregated results for one `(app, protocol, algorithm, processors)`
/// cell: means over every manifest entry that landed in it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportGroup {
    /// Application (trace) name, from the manifest header.
    pub app: String,
    /// Coherence protocol the manifest's config simulated
    /// (`wi`/`mesi`/`dragon`).
    pub protocol: String,
    /// Placement algorithm label.
    pub algorithm: String,
    /// Processor count.
    pub processors: usize,
    /// Entries aggregated into this cell.
    pub runs: u64,
    /// Mean execution time in cycles.
    pub execution_time: f64,
    /// Mean total references.
    pub total_refs: f64,
    /// Mean total misses.
    pub total_misses: f64,
    /// Mean data-reference miss rate.
    pub miss_rate: f64,
    /// Mean coherence traffic.
    pub coherence_traffic: f64,
    /// Mean write-update traffic (Dragon's `UpdateTraffic` column; zero
    /// under the write-invalidate protocols).
    pub update_traffic: f64,
    /// Mean miss taxonomy: `[compulsory, intra-thread conflict,
    /// inter-thread conflict, invalidation]` (the paper's order).
    pub miss_taxonomy: [f64; 4],
    /// Mean execution time divided by the RANDOM group's, within the
    /// same `(app, protocol, processors)`; `None` when no RANDOM group
    /// exists there.
    pub vs_random: Option<f64>,
}

/// One metric that moved past the regression threshold between a
/// baseline report and the current one.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Application name of the regressed group.
    pub app: String,
    /// Algorithm of the regressed group.
    pub algorithm: String,
    /// Processor count of the regressed group.
    pub processors: usize,
    /// Which metric regressed (`execution_time` or `total_misses`).
    pub metric: &'static str,
    /// The baseline's mean value.
    pub baseline: f64,
    /// The current mean value.
    pub current: f64,
    /// Relative increase in percent (positive = worse).
    pub delta_pct: f64,
}

/// A grid cell that produced no result: a supervised sweep exhausted
/// its retries (or hit a deterministic error) and degraded the cell
/// into an annotated hole instead of aborting the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportHole {
    /// Application name of the missing cell.
    pub app: String,
    /// Algorithm of the missing cell.
    pub algorithm: String,
    /// Processor count of the missing cell.
    pub processors: usize,
    /// Attempts spent before giving up.
    pub attempts: u64,
    /// Why the cell failed.
    pub reason: String,
}

/// Why [`Report::from_manifests`] refused its input: folding it would
/// print numbers no simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// A manifest from a tool that runs no simulation (`place`,
    /// `analyze`); its zero-filled rows would be averaged in as runs.
    NotASimulation {
        /// The manifest's tool.
        tool: String,
        /// The manifest's app.
        app: String,
    },
    /// An entry's miss taxonomy does not sum to its `total_misses`.
    MissTaxonomy {
        /// The entry, as `app algorithm p=N`.
        entry: String,
        /// Sum of the four taxonomy counts.
        taxonomy: u64,
        /// The entry's `total_misses`.
        total_misses: u64,
    },
    /// Two entries for one trace — the same `(app, scale, seed)` —
    /// disagree on `total_refs`, so they did not simulate the same
    /// references.
    TotalRefs {
        /// The disagreeing entry, as `app algorithm p=N`.
        entry: String,
        /// `total_refs` of the first entry seen for this trace.
        expected: u64,
        /// `total_refs` of the disagreeing entry.
        found: u64,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::NotASimulation { tool, app } => write!(
                f,
                "{app}: a `{tool}` manifest records no simulation and cannot be reported"
            ),
            ReportError::MissTaxonomy {
                entry,
                taxonomy,
                total_misses,
            } => write!(
                f,
                "{entry}: miss taxonomy sums to {taxonomy}, not total_misses {total_misses}"
            ),
            ReportError::TotalRefs {
                entry,
                expected,
                found,
            } => write!(
                f,
                "{entry}: total_refs {found} differs from {expected} in another run of the \
                 same trace"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// Tools whose manifests record no simulation.
const NON_SIMULATION_TOOLS: [&str; 2] = ["place", "analyze"];

/// An aggregated experiment report; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Groups in deterministic `(app, algorithm, processors)` order.
    pub groups: Vec<ReportGroup>,
    /// Manifests ingested.
    pub manifests: usize,
    /// Cells that produced no result (additive in `placesim-report-v1`;
    /// empty for reports built from healthy manifests).
    pub holes: Vec<ReportHole>,
}

impl Report {
    /// Aggregates parsed manifests into grouped means. Entries sharing
    /// `(app, protocol, algorithm, processors)` across (or within)
    /// manifests are averaged; groups come out sorted by that key.
    ///
    /// # Errors
    ///
    /// [`ReportError`] for a manifest that records no simulation, an
    /// entry whose miss taxonomy does not sum to its `total_misses`
    /// (an all-zero taxonomy, as pre-taxonomy manifests parse, is not
    /// checked), or entries of one `(app, scale, seed)` trace with
    /// unequal `total_refs` (checked only for manifests that record
    /// both scale and seed).
    pub fn from_manifests<'a, I>(manifests: I) -> Result<Self, ReportError>
    where
        I: IntoIterator<Item = &'a RunManifest>,
    {
        #[derive(Default)]
        struct Acc {
            runs: u64,
            execution_time: f64,
            total_refs: f64,
            total_misses: f64,
            miss_rate: f64,
            coherence_traffic: f64,
            update_traffic: f64,
            taxonomy: [f64; 4],
        }
        let mut cells: BTreeMap<(String, String, String, usize), Acc> = BTreeMap::new();
        let mut trace_refs: BTreeMap<(&str, u64, u64), u64> = BTreeMap::new();
        let mut count = 0usize;
        for m in manifests {
            count += 1;
            if NON_SIMULATION_TOOLS.contains(&m.tool.as_str()) {
                return Err(ReportError::NotASimulation {
                    tool: m.tool.clone(),
                    app: m.app.clone(),
                });
            }
            let protocol = m.config.protocol().as_str();
            for e in &m.entries {
                let entry = || format!("{} {} p={}", m.app, e.algorithm, e.processors);
                // Manifests written before the taxonomy fields existed
                // parse with an all-zero breakdown: nothing to check.
                let taxonomy = e.misses.total();
                if taxonomy != 0 && taxonomy != e.total_misses {
                    return Err(ReportError::MissTaxonomy {
                        entry: entry(),
                        taxonomy,
                        total_misses: e.total_misses,
                    });
                }
                // Only a manifest that names its trace's scale and seed
                // identifies the trace; `simulate`/`probe` receipts of
                // one app may come from different traces.
                if let (Some(scale), Some(seed)) = (m.scale, m.seed) {
                    let trace = (m.app.as_str(), scale.to_bits(), seed);
                    let expected = *trace_refs.entry(trace).or_insert(e.total_refs);
                    if e.total_refs != expected {
                        return Err(ReportError::TotalRefs {
                            entry: entry(),
                            expected,
                            found: e.total_refs,
                        });
                    }
                }
                let acc = cells
                    .entry((
                        m.app.clone(),
                        protocol.to_owned(),
                        e.algorithm.clone(),
                        e.processors,
                    ))
                    .or_default();
                acc.runs += 1;
                acc.execution_time += e.execution_time as f64;
                acc.total_refs += e.total_refs as f64;
                acc.total_misses += e.total_misses as f64;
                acc.miss_rate += e.miss_rate;
                acc.coherence_traffic += e.coherence_traffic as f64;
                acc.update_traffic += e.update_traffic as f64;
                for (slot, v) in acc.taxonomy.iter_mut().zip([
                    e.misses.compulsory,
                    e.misses.intra_thread_conflict,
                    e.misses.inter_thread_conflict,
                    e.misses.invalidation,
                ]) {
                    *slot += v as f64;
                }
            }
        }

        // The RANDOM baseline mean per (app, protocol, processors), for
        // the paper's normalized columns. Keying by protocol keeps the
        // vs-RANDOM ratios meaningful per protocol: a Dragon run is
        // normalized against Dragon's RANDOM baseline, not MESI's.
        let mut random_time: BTreeMap<(String, String, usize), f64> = BTreeMap::new();
        for ((app, protocol, algo, procs), acc) in &cells {
            if algo == "RANDOM" && acc.runs > 0 {
                random_time.insert(
                    (app.clone(), protocol.clone(), *procs),
                    acc.execution_time / acc.runs as f64,
                );
            }
        }

        let groups = cells
            .into_iter()
            .map(|((app, protocol, algorithm, processors), acc)| {
                let n = acc.runs as f64;
                let execution_time = acc.execution_time / n;
                let vs_random = random_time
                    .get(&(app.clone(), protocol.clone(), processors))
                    .filter(|&&r| r > 0.0)
                    .map(|&r| execution_time / r);
                ReportGroup {
                    app,
                    protocol,
                    algorithm,
                    processors,
                    runs: acc.runs,
                    execution_time,
                    total_refs: acc.total_refs / n,
                    total_misses: acc.total_misses / n,
                    miss_rate: acc.miss_rate / n,
                    coherence_traffic: acc.coherence_traffic / n,
                    update_traffic: acc.update_traffic / n,
                    miss_taxonomy: acc.taxonomy.map(|t| t / n),
                    vs_random,
                }
            })
            .collect();
        Ok(Report {
            groups,
            manifests: count,
            holes: Vec::new(),
        })
    }

    /// Renders the paper-style comparison table as aligned text.
    pub fn render_text(&self) -> String {
        let mut t = TextTable::new([
            "app",
            "protocol",
            "algorithm",
            "procs",
            "runs",
            "exec-time",
            "vs-RANDOM",
            "miss-rate",
            "compulsory",
            "intra-conf",
            "inter-conf",
            "inval",
            "traffic",
            "updates",
        ]);
        for g in &self.groups {
            t.row([
                g.app.clone(),
                g.protocol.clone(),
                g.algorithm.clone(),
                g.processors.to_string(),
                g.runs.to_string(),
                fmt_f(g.execution_time, 0),
                g.vs_random.map_or_else(|| "-".to_owned(), |r| fmt_f(r, 3)),
                fmt_f(g.miss_rate, 4),
                fmt_f(g.miss_taxonomy[0], 0),
                fmt_f(g.miss_taxonomy[1], 0),
                fmt_f(g.miss_taxonomy[2], 0),
                fmt_f(g.miss_taxonomy[3], 0),
                fmt_f(g.coherence_traffic, 0),
                fmt_f(g.update_traffic, 0),
            ]);
        }
        let mut out = format!(
            "{t}({} groups from {} manifests)\n",
            self.groups.len(),
            self.manifests
        );
        if !self.holes.is_empty() {
            out.push_str(&format!(
                "{} hole(s) — cells with no result:\n",
                self.holes.len()
            ));
            for h in &self.holes {
                out.push_str(&format!(
                    "  {} {} p={} after {} attempt(s): {}\n",
                    h.app, h.algorithm, h.processors, h.attempts, h.reason
                ));
            }
        }
        out
    }

    /// The report as a `placesim-report-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("schema", REPORT_SCHEMA);
        w.field_u64("manifests", self.manifests as u64);
        w.key("groups");
        w.begin_array();
        for g in &self.groups {
            w.begin_object();
            w.field_str("app", &g.app);
            w.field_str("protocol", &g.protocol);
            w.field_str("algorithm", &g.algorithm);
            w.field_u64("processors", g.processors as u64);
            w.field_u64("runs", g.runs);
            w.field_f64("execution_time", g.execution_time);
            w.field_f64("total_refs", g.total_refs);
            w.field_f64("total_misses", g.total_misses);
            w.field_f64("miss_rate", g.miss_rate);
            w.field_f64("coherence_traffic", g.coherence_traffic);
            w.field_f64("update_traffic", g.update_traffic);
            w.field_f64("compulsory", g.miss_taxonomy[0]);
            w.field_f64("intra_thread_conflict", g.miss_taxonomy[1]);
            w.field_f64("inter_thread_conflict", g.miss_taxonomy[2]);
            w.field_f64("invalidation", g.miss_taxonomy[3]);
            w.key("vs_random");
            match g.vs_random {
                Some(r) => w.value_f64(r),
                None => w.value_null(),
            }
            w.end_object();
        }
        w.end_array();
        w.key("holes");
        w.begin_array();
        for h in &self.holes {
            w.begin_object();
            w.field_str("app", &h.app);
            w.field_str("algorithm", &h.algorithm);
            w.field_u64("processors", h.processors as u64);
            w.field_u64("attempts", h.attempts);
            w.field_str("reason", &h.reason);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Flags groups whose mean execution time or miss count grew more
    /// than `threshold_pct` percent over the matching group in
    /// `baseline`. Groups present on only one side are not compared.
    pub fn compare(&self, baseline: &Report, threshold_pct: f64) -> Vec<Regression> {
        let base: BTreeMap<(&str, &str, &str, usize), &ReportGroup> = baseline
            .groups
            .iter()
            .map(|g| {
                (
                    (
                        g.app.as_str(),
                        g.protocol.as_str(),
                        g.algorithm.as_str(),
                        g.processors,
                    ),
                    g,
                )
            })
            .collect();
        let mut out = Vec::new();
        for g in &self.groups {
            let Some(b) = base.get(&(
                g.app.as_str(),
                g.protocol.as_str(),
                g.algorithm.as_str(),
                g.processors,
            )) else {
                continue;
            };
            for (metric, base_v, cur_v) in [
                ("execution_time", b.execution_time, g.execution_time),
                ("total_misses", b.total_misses, g.total_misses),
            ] {
                if base_v <= 0.0 {
                    continue;
                }
                let delta_pct = (cur_v - base_v) / base_v * 100.0;
                if delta_pct > threshold_pct {
                    out.push(Regression {
                        app: g.app.clone(),
                        algorithm: g.algorithm.clone(),
                        processors: g.processors,
                        metric,
                        baseline: base_v,
                        current: cur_v,
                        delta_pct,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "12345"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric column right-aligned: "1" ends at same column as "12345".
        let a_end = lines[2].trim_end().len();
        let b_end = lines[3].trim_end().len();
        assert_eq!(a_end, b_end);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        let s = t.to_string();
        assert!(s.contains('x'));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_f(1.234, 2), "1.23");
        assert_eq!(fmt_mean_dev(527_000.0, 14.0), "527000 (14.0%)");
        assert_eq!(fmt_thousands(527_400.0), "527");
    }

    #[test]
    fn bars() {
        assert_eq!(ascii_bar(0.5, 1.0, 10), "#####");
        assert_eq!(ascii_bar(1.0, 1.0, 10), "##########");
        assert_eq!(ascii_bar(1.4, 1.0, 10), "##########+");
        assert_eq!(ascii_bar(0.001, 1.0, 10), "#", "tiny values still visible");
        assert_eq!(ascii_bar(0.0, 1.0, 10), "");
        assert_eq!(ascii_bar(f64::NAN, 1.0, 10), "");
    }
}

#[cfg(test)]
mod aggregator_tests {
    use super::*;
    use crate::manifest::{ManifestEntry, RunManifest};
    use placesim_machine::{ArchConfig, MissBreakdown, Protocol};
    use placesim_obs::json;

    fn entry(algorithm: &str, processors: usize, time: u64, misses: u64) -> ManifestEntry {
        ManifestEntry {
            algorithm: algorithm.into(),
            processors,
            execution_time: time,
            total_refs: 1000,
            total_misses: misses,
            miss_rate: misses as f64 / 1000.0,
            coherence_traffic: misses / 2,
            update_traffic: 0,
            misses: MissBreakdown {
                compulsory: misses,
                ..MissBreakdown::default()
            },
        }
    }

    fn manifest(app: &str, entries: Vec<ManifestEntry>) -> RunManifest {
        let mut m = RunManifest::new("test", app, &ArchConfig::paper_default());
        m.entries = entries;
        m
    }

    fn manifest_with_protocol(
        app: &str,
        protocol: Protocol,
        entries: Vec<ManifestEntry>,
    ) -> RunManifest {
        let mut builder = ArchConfig::builder();
        builder.protocol(protocol);
        let config = builder.build().unwrap();
        let mut m = RunManifest::new("test", app, &config);
        m.entries = entries;
        m
    }

    #[test]
    fn groups_and_averages_across_manifests() {
        let a = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]);
        let b = manifest("water", vec![entry("RANDOM", 4, 2000, 200)]);
        let c = manifest("water", vec![entry("SHARE-REFS", 4, 900, 90)]);
        let report = Report::from_manifests([&a, &b, &c]).unwrap();
        assert_eq!(report.manifests, 3);
        assert_eq!(report.groups.len(), 2);

        let random = &report.groups[0];
        assert_eq!(random.algorithm, "RANDOM");
        assert_eq!(random.runs, 2);
        assert_eq!(random.execution_time, 1500.0);
        assert_eq!(random.vs_random, Some(1.0));

        let share = &report.groups[1];
        assert_eq!(share.algorithm, "SHARE-REFS");
        assert_eq!(share.vs_random, Some(0.6));
        assert_eq!(share.miss_taxonomy[0], 90.0);
    }

    #[test]
    fn normalization_needs_matching_app_and_processors() {
        let a = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]);
        let b = manifest("water", vec![entry("LOAD-BAL", 8, 500, 50)]);
        let c = manifest("mp3d", vec![entry("LOAD-BAL", 4, 500, 50)]);
        let report = Report::from_manifests([&a, &b, &c]).unwrap();
        for g in &report.groups {
            if g.algorithm == "RANDOM" {
                assert_eq!(g.vs_random, Some(1.0));
            } else {
                assert_eq!(g.vs_random, None, "{}/{}p", g.app, g.processors);
            }
        }
    }

    #[test]
    fn text_and_json_renderings_are_complete() {
        let a = manifest(
            "water",
            vec![
                entry("RANDOM", 4, 1000, 100),
                entry("SHARE-REFS", 4, 800, 90),
            ],
        );
        let report = Report::from_manifests([&a]).unwrap();
        let text = report.render_text();
        assert!(text.contains("SHARE-REFS"));
        assert!(text.contains("vs-RANDOM"));
        assert!(text.contains("0.800"));

        let js = report.to_json();
        let doc = json::parse(&js).unwrap();
        assert_eq!(
            doc.get("schema").and_then(json::JsonValue::as_str),
            Some(REPORT_SCHEMA)
        );
        assert_eq!(
            doc.get("groups")
                .and_then(json::JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn compare_flags_only_regressions_past_threshold() {
        let base = Report::from_manifests([&manifest(
            "water",
            vec![
                entry("RANDOM", 4, 1000, 100),
                entry("LOAD-BAL", 4, 1000, 100),
            ],
        )])
        .unwrap();
        // LOAD-BAL regresses 10% in time; RANDOM improves (never flagged).
        let cur = Report::from_manifests([&manifest(
            "water",
            vec![
                entry("RANDOM", 4, 900, 100),
                entry("LOAD-BAL", 4, 1100, 100),
            ],
        )])
        .unwrap();
        let regressions = cur.compare(&base, 2.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].algorithm, "LOAD-BAL");
        assert_eq!(regressions[0].metric, "execution_time");
        assert!((regressions[0].delta_pct - 10.0).abs() < 1e-9);

        // Identical reports never regress, at any threshold.
        assert!(cur.compare(&cur, 0.0).is_empty());
        // Within threshold: not flagged.
        assert!(cur.compare(&base, 15.0).is_empty());
    }

    #[test]
    fn holes_are_rendered_and_serialized() {
        let a = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]);
        let mut report = Report::from_manifests([&a]).unwrap();
        // Healthy report: empty holes array, no holes section in text.
        let js = report.to_json();
        let doc = json::parse(&js).unwrap();
        assert_eq!(
            doc.get("holes")
                .and_then(json::JsonValue::as_array)
                .map(<[_]>::len),
            Some(0)
        );
        assert!(!report.render_text().contains("hole"));

        report.holes.push(ReportHole {
            app: "water".into(),
            algorithm: "LOAD-BAL".into(),
            processors: 8,
            attempts: 3,
            reason: "worker panicked: chaos: injected worker panic".into(),
        });
        let text = report.render_text();
        assert!(text.contains("1 hole(s)"));
        assert!(text.contains("LOAD-BAL p=8 after 3 attempt(s)"));
        let doc = json::parse(&report.to_json()).unwrap();
        let holes = doc
            .get("holes")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(holes.len(), 1);
        assert_eq!(
            holes[0].get("reason").and_then(json::JsonValue::as_str),
            Some("worker panicked: chaos: injected worker panic")
        );
    }

    #[test]
    fn protocols_group_separately_with_per_protocol_random_baselines() {
        // Same app/algorithm/processors under three protocols: each
        // protocol gets its own group and its own RANDOM baseline.
        let mut dragon_random = entry("RANDOM", 4, 2000, 100);
        dragon_random.update_traffic = 64;
        let mut dragon_share = entry("SHARE-REFS", 4, 1000, 90);
        dragon_share.update_traffic = 32;
        let manifests = [
            manifest_with_protocol(
                "water",
                Protocol::Wi,
                vec![
                    entry("RANDOM", 4, 1000, 100),
                    entry("SHARE-REFS", 4, 900, 90),
                ],
            ),
            manifest_with_protocol(
                "water",
                Protocol::Mesi,
                vec![
                    entry("RANDOM", 4, 800, 100),
                    entry("SHARE-REFS", 4, 600, 90),
                ],
            ),
            manifest_with_protocol("water", Protocol::Dragon, vec![dragon_random, dragon_share]),
        ];
        let report = Report::from_manifests(manifests.iter()).unwrap();
        assert_eq!(report.groups.len(), 6);

        let vs = |protocol: &str, algorithm: &str| {
            report
                .groups
                .iter()
                .find(|g| g.protocol == protocol && g.algorithm == algorithm)
                .unwrap_or_else(|| panic!("missing group {protocol}/{algorithm}"))
                .vs_random
                .unwrap()
        };
        assert_eq!(vs("wi", "RANDOM"), 1.0);
        assert_eq!(vs("wi", "SHARE-REFS"), 0.9);
        assert_eq!(vs("mesi", "SHARE-REFS"), 0.75);
        // Dragon normalizes against Dragon's RANDOM (2000), not WI's.
        assert_eq!(vs("dragon", "SHARE-REFS"), 0.5);

        let dragon = report
            .groups
            .iter()
            .find(|g| g.protocol == "dragon" && g.algorithm == "SHARE-REFS")
            .unwrap();
        assert_eq!(dragon.update_traffic, 32.0);

        // Renderings carry the protocol column and update traffic.
        let text = report.render_text();
        assert!(text.contains("protocol"));
        assert!(text.contains("dragon"));
        let doc = json::parse(&report.to_json()).unwrap();
        let groups = doc
            .get("groups")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert!(groups.iter().any(|g| {
            g.get("protocol").and_then(json::JsonValue::as_str) == Some("dragon")
                && g.get("update_traffic").and_then(json::JsonValue::as_f64) == Some(32.0)
        }));

        // compare() never crosses protocols: WI's slower times against a
        // MESI baseline would flag regressions if the key conflated them.
        let wi_only = Report::from_manifests([&manifests[0]]).unwrap();
        let mesi_only = Report::from_manifests([&manifests[1]]).unwrap();
        assert!(wi_only.compare(&mesi_only, 0.0).is_empty());
    }

    #[test]
    fn non_simulation_manifests_are_refused() {
        let random = manifest("gauss", vec![entry("RANDOM", 16, 2000, 100)]);
        for tool in ["place", "analyze"] {
            let mut m = manifest("gauss", vec![entry("SHARE-REFS+LB", 16, 0, 0)]);
            m.tool = tool.into();
            assert_eq!(
                Report::from_manifests([&random, &m]),
                Err(ReportError::NotASimulation {
                    tool: tool.into(),
                    app: "gauss".into()
                })
            );
        }
    }

    #[test]
    fn fold_checks_taxonomy_and_reference_conservation() {
        let mut torn = entry("RANDOM", 4, 1000, 100);
        torn.misses.invalidation = 1;
        let err = Report::from_manifests([&manifest("water", vec![torn])]).unwrap_err();
        assert!(
            matches!(
                err,
                ReportError::MissTaxonomy {
                    taxonomy: 101,
                    total_misses: 100,
                    ..
                }
            ),
            "{err}"
        );

        // Same (app, scale, seed): total_refs must agree across manifests.
        let mut other = entry("LOAD-BAL", 4, 900, 90);
        other.total_refs = 999;
        let mut a = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]);
        let mut b = manifest("water", vec![other]);
        for m in [&mut a, &mut b] {
            m.scale = Some(0.1);
            m.seed = Some(3);
        }
        let err = Report::from_manifests([&a, &b]).unwrap_err();
        assert!(
            matches!(
                err,
                ReportError::TotalRefs {
                    expected: 1000,
                    found: 999,
                    ..
                }
            ),
            "{err}"
        );
        // A different scale is a different trace: no conflict.
        let mut c = b.clone();
        c.scale = Some(0.5);
        assert!(Report::from_manifests([&a, &c]).is_ok());
        // So is a different seed.
        let mut d = b.clone();
        d.seed = Some(4);
        assert!(Report::from_manifests([&a, &d]).is_ok());
    }

    #[test]
    fn receipts_without_scale_and_seed_may_differ_in_total_refs() {
        // `simulate` receipts name no scale or seed: two runs of one app
        // on different traces aggregate into one row, as seed sweeps do.
        let mut other = entry("RANDOM", 4, 1200, 120);
        other.total_refs = 1500;
        let mut a = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]);
        let mut b = manifest("water", vec![other]);
        for m in [&mut a, &mut b] {
            m.tool = "simulate".into();
            assert_eq!((m.scale, m.seed), (None, None));
        }
        let report = Report::from_manifests([&a, &b]).unwrap();
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].runs, 2);
        assert_eq!(report.groups[0].total_refs, 1250.0);
    }

    #[test]
    fn pre_taxonomy_manifests_still_report() {
        // A manifest written before the taxonomy fields existed parses
        // with an all-zero breakdown beside a non-zero total_misses.
        let json = manifest("water", vec![entry("RANDOM", 4, 1000, 100)]).to_json();
        let stripped = json
            .replacen(", \"compulsory\": 100", "", 1)
            .replacen(", \"intra_thread_conflict\": 0", "", 1)
            .replacen(", \"inter_thread_conflict\": 0", "", 1)
            .replacen(", \"invalidation\": 0", "", 1);
        assert!(!stripped.contains("compulsory"), "{stripped}");
        let old = RunManifest::parse(&stripped).unwrap();
        assert_eq!(old.entries[0].misses, MissBreakdown::default());
        let report = Report::from_manifests([&old]).unwrap();
        assert_eq!(report.groups[0].total_misses, 100.0);
        assert_eq!(report.groups[0].miss_taxonomy, [0.0; 4]);
    }

    #[test]
    fn compare_ignores_unmatched_groups() {
        let base =
            Report::from_manifests([&manifest("water", vec![entry("RANDOM", 4, 1000, 100)])])
                .unwrap();
        let cur = Report::from_manifests([&manifest("mp3d", vec![entry("RANDOM", 4, 9000, 900)])])
            .unwrap();
        assert!(cur.compare(&base, 2.0).is_empty());
    }
}
