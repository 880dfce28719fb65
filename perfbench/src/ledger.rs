//! The traced run's per-layer ledger: the benchmark's own spans around
//! each call into the program, with the program's `pipeline.*`,
//! `search.*` and `serve.*` spans nested beneath them, folded into one
//! tree per timed unit.

use autoax_telemetry::{self as telemetry, SpanRecord};
use std::collections::{BTreeMap, HashMap};

/// The layer a span's *self* time is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "bench.load_or_build_library" => "circuit",
        "pipeline.step2.training_data" | "pipeline.step3b.final_eval" => "real_eval",
        "pipeline.step2.fit" => "ml_fit",
        "serve.job" | "bench.job" => "serve",
        n if n.starts_with("pipeline.cache.") => "store",
        n if n.starts_with("pipeline.step1.") => "step1",
        n if n.starts_with("pipeline.step3.search") || n.starts_with("search.") => "search",
        _ => "other",
    }
}

/// Layers in report order (`share.<layer>_pct`).
pub const LAYERS: [&str; 8] = [
    "circuit",
    "store",
    "step1",
    "real_eval",
    "ml_fit",
    "search",
    "serve",
    "other",
];

/// The collected spans, indexed for tree walks.
pub struct SpanTree {
    spans: Vec<SpanRecord>,
    children: HashMap<u64, Vec<usize>>,
    /// `serve.job` spans by the request id they carry.
    server_jobs: HashMap<String, usize>,
}

impl SpanTree {
    /// Drains the collector.
    pub fn take() -> SpanTree {
        let spans = telemetry::take_spans();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut server_jobs = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
            if s.name == "serve.job" {
                if let Some(id) = field(s, "request_id") {
                    server_jobs.insert(id.to_string(), i);
                }
            }
        }
        SpanTree {
            spans,
            children,
            server_jobs,
        }
    }

    /// Roots named `name`, in start order.
    pub fn roots(&self, name: &str) -> Vec<usize> {
        let mut r: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == 0 && self.spans[i].name == name)
            .collect();
        r.sort_by_key(|&i| self.spans[i].start_ns);
        r
    }

    /// The span at `i`.
    pub fn span(&self, i: usize) -> &SpanRecord {
        &self.spans[i]
    }

    /// Children of span `i`. A client-side `bench.job` span adopts the
    /// server's `serve.job` span of the same request, which ran on a
    /// server thread.
    fn kids(&self, i: usize) -> Vec<usize> {
        let s = &self.spans[i];
        let mut k = self.children.get(&s.id).cloned().unwrap_or_default();
        if s.name == "bench.job" {
            if let Some(&j) = field(s, "request_id").and_then(|id| self.server_jobs.get(id)) {
                k.push(j);
            }
        }
        k
    }

    /// Folds the subtree under `root` into per-layer self time and
    /// per-name total time, both in seconds.
    pub fn fold(&self, root: usize) -> Fold {
        let mut f = Fold::default();
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            let s = &self.spans[i];
            let kids = self.kids(i);
            let covered: u64 = kids.iter().map(|&k| self.spans[k].dur_ns).sum();
            *f.self_s.entry(layer_of(s.name)).or_default() +=
                s.dur_ns.saturating_sub(covered) as f64 * 1e-9;
            *f.total_s.entry(s.name).or_default() += s.dur_ns as f64 * 1e-9;
            stack.extend(kids);
        }
        f
    }
}

/// One unit's span tree, folded.
#[derive(Debug, Default, Clone)]
pub struct Fold {
    /// Self time per [`layer_of`] layer.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Total time per span name.
    pub total_s: BTreeMap<&'static str, f64>,
}

impl Fold {
    /// Total time of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    /// Adds another fold.
    pub fn add(&mut self, o: &Fold) {
        for (k, v) in &o.self_s {
            *self.self_s.entry(k).or_default() += v;
        }
        for (k, v) in &o.total_s {
            *self.total_s.entry(k).or_default() += v;
        }
    }

    /// Writes `share.<layer>_pct` for every layer: self time as a share
    /// of the summed unit wall time `wall_s`.
    pub fn write_shares(&self, wall_s: f64, out: &mut crate::Outcome) {
        for layer in LAYERS {
            let s = self.self_s.get(layer).copied().unwrap_or(0.0);
            out.set(&format!("share.{layer}_pct"), pct(s, wall_s));
        }
    }
}

/// `part / whole` in percent, 0 for an empty whole.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// The value of a span's `key` field.
pub fn field<'a>(s: &'a SpanRecord, key: &str) -> Option<&'a str> {
    s.fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.as_str())
}

/// Registry counters the ledger reports as per-phase deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `autoax_store_lru_hits_total`, all kinds.
    pub lru_hits: u64,
    /// `autoax_store_loads_total{result=hit}`, all kinds.
    pub disk_hits: u64,
    /// `autoax_store_loads_total{result=miss|rejected}`, all kinds.
    pub misses: u64,
    /// `autoax_store_saves_total{result=ok}`, all kinds.
    pub saves: u64,
    /// `autoax_pool_bursts_total`.
    pub bursts: u64,
    /// `autoax_serve_rejections_total`, both reasons.
    pub rejections: u64,
}

/// Blob kinds the program stores.
pub const STORE_KINDS: [&str; 4] = [
    "library",
    "pipeline-step12",
    "pipeline-refined",
    "serve-result",
];

impl Counters {
    /// Reads the registry now.
    pub fn read() -> Counters {
        let per_kind = |name: &str, result: Option<&str>| -> u64 {
            STORE_KINDS
                .iter()
                .map(|&kind| match result {
                    Some(r) => {
                        telemetry::counter_with(name, &[("kind", kind), ("result", r)]).get()
                    }
                    None => telemetry::counter_with(name, &[("kind", kind)]).get(),
                })
                .sum()
        };
        Counters {
            lru_hits: per_kind("autoax_store_lru_hits_total", None),
            disk_hits: per_kind("autoax_store_loads_total", Some("hit")),
            misses: per_kind("autoax_store_loads_total", Some("miss"))
                + per_kind("autoax_store_loads_total", Some("rejected")),
            saves: per_kind("autoax_store_saves_total", Some("ok")),
            bursts: telemetry::counter("autoax_pool_bursts_total").get(),
            rejections: ["server_saturated", "tenant_saturated"]
                .iter()
                .map(|&r| {
                    telemetry::counter_with("autoax_serve_rejections_total", &[("reason", r)]).get()
                })
                .sum(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            lru_hits: self.lru_hits - earlier.lru_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            saves: self.saves - earlier.saves,
            bursts: self.bursts - earlier.bursts,
            rejections: self.rejections - earlier.rejections,
        }
    }
}

/// p50 in microseconds of the store-latency histogram `name` for the
/// kind with the most samples, with that kind; `(0, "-")` when empty.
pub fn store_p50_us(name: &str) -> (f64, &'static str) {
    STORE_KINDS
        .iter()
        .map(|&kind| (telemetry::histogram_with(name, &[("kind", kind)]), kind))
        .max_by_key(|(h, _)| h.count())
        .and_then(|(h, kind)| h.p50().map(|ns| (ns as f64 / 1e3, kind)))
        .unwrap_or((0.0, "-"))
}

/// p50 of a registry histogram recorded in nanoseconds, in microseconds.
pub fn hist_p50_us(name: &str, labels: &[(&str, &str)]) -> f64 {
    telemetry::histogram_with(name, labels)
        .p50()
        .map_or(0.0, |ns| ns as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread: 1,
            start_ns: id,
            dur_ns,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_cross_thread_jobs_nest() {
        let mut client = rec(1, 0, "bench.job", 100);
        client.fields.push(("request_id", "r1".into()));
        let mut server = rec(2, 0, "serve.job", 80);
        server.fields.push(("request_id", "r1".into()));
        let spans = vec![
            client,
            server,
            rec(3, 2, "pipeline.run", 70),
            rec(4, 3, "pipeline.step2.training_data", 40),
            rec(5, 3, "pipeline.step3.search", 20),
        ];
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent != 0) {
            children.entry(s.parent).or_default().push(i);
        }
        let tree = SpanTree {
            server_jobs: [("r1".to_string(), 1)].into_iter().collect(),
            spans,
            children,
        };
        assert_eq!(tree.roots("bench.job"), vec![0]);
        let f = tree.fold(0);
        let ns = |layer: &str| (f.self_s[layer] * 1e9).round() as u64;
        // client 20 + server 10 of self time are both the serve layer
        assert_eq!(ns("serve"), 30);
        assert_eq!(ns("real_eval"), 40);
        assert_eq!(ns("search"), 20);
        assert_eq!(ns("other"), 10);
        let total: f64 = f.self_s.values().sum();
        assert!(
            (total * 1e9 - 100.0).abs() < 1e-6,
            "self times add up to the root"
        );
    }
}
