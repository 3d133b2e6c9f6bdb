//! The metric catalog: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the test
//! below keeps the two in step.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// that a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    // Offline: time inside `Approach::fit`, per approach and per stage.
    ("core.fit_ms.lr", "ms"),
    ("core.fit_ms.kamcal-dp", "ms"),
    ("core.fit_ms.feld-dp-1-0", "ms"),
    ("core.fit_ms.feld-dp-0-6", "ms"),
    ("core.fit_ms.calmon-dp", "ms"),
    ("core.fit_ms.zhawu-psf", "ms"),
    ("core.fit_ms.salimi-jf-maxsat", "ms"),
    ("core.fit_ms.salimi-jf-matfac", "ms"),
    ("core.fit_ms.zafar-dp-fair", "ms"),
    ("core.fit_ms.zafar-dp-acc", "ms"),
    ("core.fit_ms.zafar-eo-fair", "ms"),
    ("core.fit_ms.zhale-eo", "ms"),
    ("core.fit_ms.kearns-pe", "ms"),
    ("core.fit_ms.celis-pp", "ms"),
    ("core.fit_ms.thomas-dp", "ms"),
    ("core.fit_ms.thomas-eo", "ms"),
    ("core.fit_ms.kamkar-dp", "ms"),
    ("core.fit_ms.hardt-eo", "ms"),
    ("core.fit_ms.pleiss-eop", "ms"),
    ("core.fit_ms.stage-pre", "ms"),
    ("core.fit_ms.stage-in", "ms"),
    ("core.fit_ms.stage-post", "ms"),
    // Offline: the other spans and the solver counters.
    ("core.predict_ms", "ms"),
    ("frame.encode_ms", "ms"),
    ("metrics.suite_ms", "ms"),
    ("optim.gd_iterations", "count"),
    ("optim.adam_iterations", "count"),
    ("solver.maxsat_flips", "count"),
    ("solver.nmf_iterations", "count"),
    ("solver.simplex_iterations", "count"),
    ("synth.generate_ms", "ms"),
    ("frame.split_ms", "ms"),
    // Serving: the servers' own accounting, from `/metrics` deltas.
    ("serve.request_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.predict_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("fleet.hop_ms", "ms"),
    ("serve.rows_per_flush", "rows"),
    ("serve.requests_per_flush", "requests"),
    // Serving: the load generator's own costs.
    ("client.predict_rtt_ms", "ms"),
    ("client.feedback_rtt_ms", "ms"),
    ("client.encode_ms", "ms"),
    ("client.decode_ms", "ms"),
    // Serving: counts expected to stay 0 (all but feedback_ok).
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("monitor.feedback_ok", "count"),
    ("monitor.feedback_rejected", "count"),
    ("fleet.retries", "count"),
    ("fleet.failovers", "count"),
    // The traced phase against the untraced phase of the same run.
    ("trace.overhead_pct", "%"),
];

/// The `core.fit_ms.<id>` suffix of an approach: its display name
/// lowercased with every run of other characters folded to one `-`, the
/// same ids `export_models` gives its artifacts (`Zafar^EO_Fair` →
/// `zafar-eo-fair`).
pub fn approach_id(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.is_empty() && !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_json::{parse, Value};

    fn listed(manifest: &Value, key: &str) -> Vec<(String, String)> {
        manifest
            .get(key)
            .cloned()
            .and_then(|v| v.into_array().ok())
            .unwrap_or_default()
            .into_iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let manifest = parse(&text).expect("BENCHMARK.json parses");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&manifest, "end_to_end"), owned(&END_TO_END));
        assert_eq!(listed(&manifest, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn fit_metrics_cover_the_registry() {
        let names: Vec<String> = std::iter::once(fairlens_core::baseline_approach())
            .chain(fairlens_core::all_approaches(&[]))
            .map(|a| format!("core.fit_ms.{}", approach_id(a.name)))
            .collect();
        let catalog: Vec<&str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| n.starts_with("core.fit_ms.") && !n.contains("stage-"))
            .collect();
        assert_eq!(names, catalog);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
