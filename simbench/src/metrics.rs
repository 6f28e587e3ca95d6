//! Per-layer metrics of the traced run, computed from span self times
//! and the work each pass reports.

use crate::workloads::PassWork;
use std::collections::BTreeMap;
use stepstone_core::engine::{FB_LABELS, FB_OTHER};
use stepstone_core::Phase;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        let name = name.into();
        assert!(value.is_finite(), "{name} = {value}");
        Self { name, value, unit }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric read off one pass's work.
type Reading = fn(&PassWork) -> f64;

/// Span name → (spans, summed self time in ns), for one pass.
pub type Times = BTreeMap<&'static str, (u64, u64)>;

fn busy_ns(t: &Times, name: &str) -> u64 {
    t.get(name).map_or(0, |v| v.1)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. Set-up metrics
/// (context builds, the analytic tier, the executor, page splits) come
/// from the cold pass; the rest are medians over the warm traced passes.
pub fn layer_metrics(
    cold: (&Times, &PassWork),
    warm: &[(Times, PassWork)],
    page_splits: u64,
    overhead_s: f64,
) -> Vec<Metric> {
    let (ct, cw) = cold;
    let med = |f: &dyn Fn(&Times, &PassWork) -> f64| -> f64 {
        median(&warm.iter().map(|(t, w)| f(t, w)).collect::<Vec<_>>())
    };
    let mut m = vec![
        Metric::new("flow.build.calls", cw.builds as f64, "count"),
        Metric::new(
            "flow.build.busy_s",
            busy_ns(ct, "flow.session.context") as f64 * 1e-9,
            "s",
        ),
        Metric::new(
            "flow.session.hit_ratio",
            ratio((cw.lookups - cw.builds) as f64, cw.lookups as f64),
            "ratio",
        ),
    ];
    let agen: [(&str, Reading); 6] = [
        ("agen.live_spans", |w| w.agen.live_spans as f64),
        ("agen.replayed_spans", |w| w.agen.replayed_spans as f64),
        ("agen.window_jumps", |w| w.agen.window_jumps as f64),
        ("agen.boundary_successors", |w| {
            w.agen.boundary_successors as f64
        }),
        ("agen.skeleton_hits", |w| w.agen.skeleton_hits as f64),
        ("agen.skeleton_misses", |w| w.agen.skeleton_misses as f64),
    ];
    for (name, get) in agen {
        m.push(Metric::new(name, med(&|_, w| get(w)), "count"));
    }
    m.push(Metric::new(
        "agen.ns_per_span",
        med(&|_, w| ratio(w.walk.0 as f64, w.walk.1 as f64)),
        "ns",
    ));

    for (i, layer) in ["loc", "kernel", "red"].into_iter().enumerate() {
        let span = ["engine.loc", "engine.kernel", "engine.red"][i];
        let name = |field: &str| format!("engine.{layer}.{field}");
        let blocks = move |w: &PassWork| w.phases[i].blocks as f64;
        m.push(Metric::new(
            name("busy_s"),
            med(&|t, _| busy_ns(t, span) as f64 * 1e-9),
            "s",
        ));
        m.push(Metric::new(name("blocks"), med(&|_, w| blocks(w)), "count"));
        m.push(Metric::new(
            name("ns_per_block"),
            med(&|t, w| ratio(busy_ns(t, span) as f64, blocks(w))),
            "ns",
        ));
        m.push(Metric::new(
            name("runs"),
            med(&|_, w| w.phases[i].rc.runs as f64),
            "count",
        ));
        if layer == "kernel" {
            m.push(Metric::new(
                name("run_blocks"),
                med(&|_, w| w.phases[i].rc.run_blocks as f64),
                "count",
            ));
            m.push(Metric::new(
                name("mean_run_len"),
                med(&|_, w| w.phases[i].rc.mean_run_len()),
                "blocks",
            ));
        }
        m.push(Metric::new(
            name("run_coverage"),
            med(&|_, w| ratio(w.phases[i].rc.run_blocks as f64, blocks(w))),
            "ratio",
        ));
        if layer == "kernel" {
            for (cause, label) in FB_LABELS.iter().enumerate() {
                m.push(Metric::new(
                    name(&format!("fallback.{label}")),
                    med(&|_, w| w.phases[i].rc.fallback[cause] as f64),
                    "count",
                ));
            }
        } else {
            m.push(Metric::new(
                name("fallback_other"),
                med(&|_, w| w.phases[i].rc.fallback[FB_OTHER] as f64),
                "count",
            ));
        }
    }
    m.push(Metric::new(
        "paging.page_splits",
        page_splits as f64,
        "count",
    ));

    let dram: [(&str, &'static str, Reading); 9] = [
        ("dram.accesses", "count", |w| w.sim.dram.accesses() as f64),
        ("dram.acts", "count", |w| w.sim.dram.acts as f64),
        ("dram.row_hit_ratio", "ratio", |w| {
            let d = &w.sim.dram;
            ratio(d.row_hits as f64, (d.row_hits + d.row_misses) as f64)
        }),
        ("dram.data_cycles", "cycles", |w| {
            w.sim.dram.data_cycles as f64
        }),
        ("dram.refreshes", "count", |w| w.sim.dram.refreshes as f64),
        ("sim.total_cycles", "cycles", |w| w.sim.total as f64),
        ("sim.loc_cycles", "cycles", |w| {
            w.sim.phase(Phase::Localization) as f64
        }),
        ("sim.kernel_cycles", "cycles", |w| {
            let s = &w.sim;
            (s.total - s.phase(Phase::Localization) - s.phase(Phase::Reduction)) as f64
        }),
        ("sim.red_cycles", "cycles", |w| {
            w.sim.phase(Phase::Reduction) as f64
        }),
    ];
    for (name, unit, get) in dram {
        m.push(Metric::new(name, med(&|_, w| get(w)), unit));
    }

    let calls = |name: &str| ct.get(name).map_or(0, |v| v.0) as f64;
    m.push(Metric::new(
        "analytic.calls",
        calls("analytic.gemm"),
        "count",
    ));
    m.push(Metric::new(
        "analytic.busy_s",
        busy_ns(ct, "analytic.gemm") as f64 * 1e-9,
        "s",
    ));
    m.push(Metric::new(
        "executor.pass_cost.calls",
        calls("executor.pass_cost"),
        "count",
    ));
    m.push(Metric::new(
        "executor.pass_cost.busy_s",
        busy_ns(ct, "executor.pass_cost") as f64 * 1e-9,
        "s",
    ));

    m.push(Metric::new(
        "serving.arrivals.busy_s",
        med(&|t, _| busy_ns(t, "serving.arrivals") as f64 * 1e-9),
        "s",
    ));
    m.push(Metric::new(
        "serving.loop.busy_s",
        med(&|t, _| busy_ns(t, "serving.loop") as f64 * 1e-9),
        "s",
    ));
    m.push(Metric::new(
        "serving.requests_per_s",
        med(&|t, w| {
            ratio(
                w.serving[0] as f64,
                busy_ns(t, "serving.loop") as f64 * 1e-9,
            )
        }),
        "1/s",
    ));
    for (i, name) in ["serving.served", "serving.rejected", "serving.batches"]
        .into_iter()
        .enumerate()
    {
        m.push(Metric::new(
            name,
            med(&|_, w| w.serving[i + 1] as f64),
            "count",
        ));
    }
    m.push(Metric::new("trace.overhead_s", overhead_s, "s"));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let warm = vec![(Times::new(), PassWork::default())];
        let names: Vec<String> =
            layer_metrics((&Times::new(), &PassWork::default()), &warm, 0, 0.0)
                .iter()
                .map(|m| m.name.clone())
                .collect();
        let spec = include_str!("../../BENCHMARK.json");
        let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer list")..];
        let listed: Vec<&str> = per_layer
            .match_indices("\"name\": \"")
            .map(|(i, pat)| {
                let rest = &per_layer[i + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        assert_eq!(names, listed);
    }
}
