//! Prometheus text scrapes and their before/after deltas.
//!
//! The servers already expose everything the serving layers need
//! (`fairlens_phase_seconds`, `fairlens_batch_rows`, shed/error/feedback
//! counters, the fleet's retry and failover counters). The benchmark
//! scrapes `/metrics` before and after its measured window and reads the
//! layer numbers off the difference, so it adds nothing to the servers.

use std::collections::BTreeMap;

/// One scrape: each series, keyed exactly as exposed (`name{labels}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parse a text exposition. Comment and blank lines are skipped; any
    /// other line must be `<series> <value>`.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut series = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("malformed sample line {line:?}"))?;
            let value: f64 = value
                .parse()
                .map_err(|_| format!("bad sample value in line {line:?}"))?;
            series.insert(key.trim().to_string(), value);
        }
        Ok(Scrape(series))
    }

    /// `after − self` per series; a series missing before counts from 0.
    pub fn delta_to(&self, after: &Scrape) -> Scrape {
        Scrape(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - self.0.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Add every series of `other` into this one (several workers' deltas
    /// summed into one view).
    pub fn add(&mut self, other: &Scrape) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }

    /// Sum of the series of metric `name` that carry every label in
    /// `labels` (all series of the metric when `labels` is empty).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.0
            .iter()
            .filter(|(key, _)| {
                let (metric, rest) = match key.split_once('{') {
                    Some((m, rest)) => (m, rest.trim_end_matches('}')),
                    None => (key.as_str(), ""),
                };
                metric == name
                    && labels.iter().all(|(k, v)| {
                        let want = format!("{k}=\"{v}\"");
                        rest.split(',').any(|pair| pair == want)
                    })
            })
            .fold(0.0, |acc, (_, v)| acc + v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairlens_fleet::FleetMetrics;
    use fairlens_serve::Metrics;

    #[test]
    fn parses_canned_text_with_labels_and_inf_buckets() {
        let text = "# HELP x y\n# TYPE x counter\n\
                    fairlens_requests_total{route=\"/v1/predict\",status=\"200\"} 12\n\
                    fairlens_batch_rows_bucket{le=\"+Inf\"} 3\n\
                    fairlens_inflight 0\n\n";
        let s = Scrape::parse(text).unwrap();
        assert_eq!(s.sum("fairlens_requests_total", &[("status", "200")]), 12.0);
        assert_eq!(s.sum("fairlens_requests_total", &[("status", "500")]), 0.0);
        assert_eq!(s.sum("fairlens_batch_rows_bucket", &[("le", "+Inf")]), 3.0);
        assert_eq!(s.sum("fairlens_inflight", &[]), 0.0);
        assert!(Scrape::parse("no_value_here").is_err());
        assert!(Scrape::parse("name{a=\"b\"} twelve").is_err());
    }

    #[test]
    fn serve_deltas_read_phases_flushes_and_counters() {
        let m = Metrics::new();
        m.record_request("/v1/predict", 200, 0.002);
        m.record_phase("queue", 0.001);
        m.record_flush(4);
        m.record_feedback("adult-lr", "ok");
        let before = Scrape::parse(&m.render()).unwrap();
        for _ in 0..3 {
            m.record_request("/v1/predict", 200, 0.004);
            m.record_phase("queue", 0.002);
            m.record_phase("parse", 0.0005);
        }
        m.record_request("/v1/feedback", 200, 0.001);
        m.record_flush(5);
        m.record_flush(7);
        m.record_feedback("adult-lr", "ok");
        m.record_feedback("adult-lr", "duplicate");
        m.record_shed("queue_full");
        m.record_error("overloaded");
        let d = before.delta_to(&Scrape::parse(&m.render()).unwrap());

        let predicts = d.sum(
            "fairlens_requests_total",
            &[("route", "/v1/predict"), ("status", "200")],
        );
        assert_eq!(predicts, 3.0);
        assert_eq!(d.sum("fairlens_requests_total", &[]), 4.0);
        assert!((d.sum("fairlens_request_latency_seconds_sum", &[]) - 0.013).abs() < 1e-9);
        assert_eq!(d.sum("fairlens_request_latency_seconds_count", &[]), 4.0);
        assert!((d.sum("fairlens_phase_seconds_sum", &[("phase", "queue")]) - 0.006).abs() < 1e-9);
        assert_eq!(
            d.sum("fairlens_phase_seconds_count", &[("phase", "queue")]),
            3.0
        );
        assert_eq!(
            d.sum("fairlens_phase_seconds_count", &[("phase", "parse")]),
            3.0
        );
        assert_eq!(
            d.sum("fairlens_phase_seconds_count", &[("phase", "batch")]),
            0.0
        );
        assert_eq!(d.sum("fairlens_batch_rows_count", &[]), 2.0);
        assert_eq!(d.sum("fairlens_batch_rows_sum", &[]), 12.0);
        assert_eq!(d.sum("fairlens_feedback_total", &[("status", "ok")]), 1.0);
        assert_eq!(d.sum("fairlens_feedback_total", &[]), 2.0);
        assert_eq!(d.sum("fairlens_shed_total", &[]), 1.0);
        assert_eq!(d.sum("fairlens_errors_total", &[]), 1.0);
    }

    #[test]
    fn fleet_deltas_and_worker_sums() {
        let f = FleetMetrics::new();
        f.record_failover("adult-lr");
        let before = Scrape::parse(&f.render()).unwrap();
        f.record_forward_retry();
        f.record_forward_retry();
        f.record_failover("adult-lr");
        f.record_request("/v1/predict", 200);
        let d = before.delta_to(&Scrape::parse(&f.render()).unwrap());
        assert_eq!(d.sum("fairlens_fleet_forward_retries_total", &[]), 2.0);
        assert_eq!(d.sum("fairlens_fleet_failovers_total", &[]), 1.0);
        assert_eq!(
            d.sum("fairlens_fleet_requests_total", &[("status", "200")]),
            1.0
        );

        // Two workers' deltas add up series by series.
        let one = Scrape::parse(
            "fairlens_batch_rows_count 3\nfairlens_shed_total{reason=\"inflight\"} 1",
        )
        .unwrap();
        let two = Scrape::parse("fairlens_batch_rows_count 4").unwrap();
        let mut total = Scrape::default();
        total.add(&one);
        total.add(&two);
        assert_eq!(total.sum("fairlens_batch_rows_count", &[]), 7.0);
        assert_eq!(total.sum("fairlens_shed_total", &[]), 1.0);
    }
}
