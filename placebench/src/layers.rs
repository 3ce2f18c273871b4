//! Per-layer metrics, derived from the traced run's spans.
//!
//! Every traced run reports every metric below; a layer the workload
//! does not exercise reads 0.

use crate::spans::{self, SpanRec};
use crate::stats::{median, Metric};
use placesim_machine::SimStats;

/// Figures a workload measures beside its spans.
#[derive(Debug, Default, Clone)]
pub struct Extras {
    /// Bytes written and references encoded by the trace writers.
    pub encoded_bytes: u64,
    pub encoded_refs: u64,
    /// Summed place + simulate seconds of the replayed sweep cells and
    /// the sweep's cell workers, for `core.sweep_overhead_frac`.
    pub cell_work_s: f64,
    pub cell_workers: usize,
    /// Simulated (not host) totals over the traced simulations.
    pub sim_cycles: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub updates: u64,
    /// Service counters from the `status` response.
    pub cache_hit_frac: f64,
    pub queue_depth_max: f64,
    pub rejected: f64,
    pub failed: f64,
    /// Latest a submission left relative to its due time.
    pub lag_max_s: f64,
    /// Open-loop job latency (wall time from the due time) and the
    /// jobs per second that ended `done`, verified and met the limit.
    pub job_p50_s: f64,
    pub job_p90_s: f64,
    pub goodput_jobs_per_s: f64,
}

impl Extras {
    /// Adds one traced simulation's model outputs.
    pub fn add_sim(&mut self, stats: &SimStats) {
        self.sim_cycles += stats.execution_time();
        self.misses += stats.total_misses().total();
        self.invalidations += stats.total_invalidations();
        self.updates += stats.total_updates();
    }
}

fn per_sec(count: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

/// Nanoseconds of host time per simulated reference over the
/// simulations whose label satisfies `keep`.
fn ns_per_ref(sims: &[&SpanRec], keep: impl Fn(&str) -> bool) -> f64 {
    let t = spans::totals(
        sims.iter().copied().filter(|s| keep(&s.label)),
        "machine.simulate",
    );
    per_sec(t.secs * 1e9, t.refs as f64)
}

pub fn metrics(all: &[SpanRec], x: &Extras) -> Vec<Metric> {
    let t = |name| spans::totals(all, name);
    let (gen, enc, dec, prof) = (
        t("workloads.generate"),
        t("trace.encode"),
        t("trace.decode"),
        t("analysis.profile"),
    );
    let (place, sim) = (t("placement.place"), t("machine.simulate"));
    let (sweep, submits) = (t("core.sweep"), durations(all, "service.submit"));
    let sims: Vec<&SpanRec> = all
        .iter()
        .filter(|s| s.name == "machine.simulate")
        .collect();
    let overhead = if sweep.secs > 0.0 {
        1.0 - x.cell_work_s / (x.cell_workers as f64 * sweep.secs)
    } else {
        0.0
    };
    let submit_p90 = crate::stats::percentile(&submits, 90.0).unwrap_or(0.0);
    let mut m = vec![
        Metric::new("workloads.gen_s", gen.secs, "s"),
        Metric::new(
            "workloads.refs_per_s",
            per_sec(gen.refs as f64, gen.secs),
            "refs/s",
        ),
        Metric::new("trace.encode_s", enc.secs, "s"),
        Metric::new(
            "trace.bytes_per_ref",
            per_sec(x.encoded_bytes as f64, x.encoded_refs as f64),
            "B/ref",
        ),
        Metric::new("trace.decode_s", dec.secs, "s"),
        Metric::new(
            "trace.decode_refs_per_s",
            per_sec(dec.refs as f64, dec.secs),
            "refs/s",
        ),
        Metric::new("analysis.profile_s", prof.secs, "s"),
        Metric::new(
            "analysis.refs_per_s",
            per_sec(prof.refs as f64, prof.secs),
            "refs/s",
        ),
        Metric::new("placement.place_s", place.secs, "s"),
        Metric::new("placement.calls", place.count as f64, "count"),
        Metric::new(
            "placement.call_p50_s",
            median(&durations(all, "placement.place")).unwrap_or(0.0),
            "s",
        ),
        Metric::new("machine.simulate_s", sim.secs, "s"),
        Metric::new("machine.sim_refs", sim.refs as f64, "refs"),
    ];
    for p in [2, 4, 8, 16] {
        let prefix = format!("p{p}/");
        let name = format!("machine.ns_per_ref.p{p}");
        m.push(Metric::new(
            &name,
            ns_per_ref(&sims, |l| l.starts_with(&prefix)),
            "ns/ref",
        ));
    }
    for proto in ["wi", "mesi", "dragon"] {
        let suffix = format!("/{proto}");
        let name = format!("machine.ns_per_ref.{proto}");
        m.push(Metric::new(
            &name,
            ns_per_ref(&sims, |l| l.ends_with(&suffix)),
            "ns/ref",
        ));
    }
    m.extend([
        Metric::new("machine.sim_cycles", x.sim_cycles as f64, "cycles"),
        Metric::new("machine.misses", x.misses as f64, "count"),
        Metric::new("machine.invalidations", x.invalidations as f64, "count"),
        Metric::new("machine.updates", x.updates as f64, "count"),
        Metric::new("core.prepare_s", t("core.prepare").secs, "s"),
        Metric::new("core.sweep_s", sweep.secs, "s"),
        Metric::new("core.sweep_overhead_frac", overhead, "ratio"),
        Metric::new("service.submit_p50_s", median(&submits).unwrap_or(0.0), "s"),
        Metric::new("service.submit_p90_s", submit_p90, "s"),
        Metric::new("service.cache_hit_frac", x.cache_hit_frac, "ratio"),
        Metric::new("service.queue_depth_max", x.queue_depth_max, "count"),
        Metric::new("service.rejected", x.rejected, "count"),
        Metric::new("service.failed", x.failed, "count"),
        Metric::new("service.job_p50_s", x.job_p50_s, "s"),
        Metric::new("service.job_p90_s", x.job_p90_s, "s"),
        Metric::new("service.goodput_jobs_per_s", x.goodput_jobs_per_s, "jobs/s"),
        Metric::new("loadgen.lag_max_s", x.lag_max_s, "s"),
    ]);
    m
}

fn durations(all: &[SpanRec], name: &str) -> Vec<f64> {
    all.iter()
        .filter(|s| s.name == name)
        .map(SpanRec::secs)
        .collect()
}
