//! Stable-text load reports.
//!
//! Everything here renders to deterministic text: fixed field order,
//! fixed float precision, tenants in id order. The sim golden test
//! byte-compares this output against a committed golden, and the live CI
//! job compares the client-side counts below against the server's own
//! summary.

use rlb_metrics::Histogram;
use rlb_serve::proto::REJECT_CAUSES;

use crate::client::Client;

/// Aggregated client-side view of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Requests issued.
    pub sent: u64,
    /// Replies received.
    pub replies: u64,
    /// Rejects received, by cause wire tag.
    pub rejects_by_cause: [u64; REJECT_CAUSES.len()],
    /// Latency over successful replies (ticks in sim mode, microseconds
    /// in live mode).
    pub latency: Histogram,
    /// Per-client outstanding high-water marks, in client order.
    pub high_water: Vec<usize>,
}

impl LoadReport {
    /// Aggregates finished clients (order = client id order).
    pub fn from_clients<'a, I: IntoIterator<Item = &'a Client>>(clients: I) -> Self {
        let mut rep = Self {
            sent: 0,
            replies: 0,
            rejects_by_cause: [0; REJECT_CAUSES.len()],
            latency: Histogram::new(),
            high_water: Vec::new(),
        };
        for c in clients {
            rep.sent = rep.sent.saturating_add(c.sent());
            rep.replies = rep.replies.saturating_add(c.replies);
            for (slot, n) in rep.rejects_by_cause.iter_mut().zip(c.rejects_by_cause) {
                *slot = slot.saturating_add(n);
            }
            rep.latency.merge(&c.latency);
            rep.high_water.push(c.high_water());
        }
        rep
    }

    /// Total rejects.
    pub fn rejects(&self) -> u64 {
        self.rejects_by_cause.iter().sum()
    }

    /// Fraction of responses that were rejects.
    pub fn rejection_rate(&self) -> f64 {
        let total = self.replies.saturating_add(self.rejects());
        if total == 0 {
            0.0
        } else {
            self.rejects() as f64 / total as f64
        }
    }

    /// Renders the stable multi-line report (`unit` names the latency
    /// unit, e.g. `"ticks"` or `"us"`).
    pub fn render(&self, unit: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "clients: sent={} replies={} rejects={} rejection_rate={:.4}",
            self.sent,
            self.replies,
            self.rejects(),
            self.rejection_rate()
        );
        let (p50, p99, max, mean) = (
            self.latency.quantile(0.5),
            self.latency.quantile(0.99),
            self.latency.max(),
            self.latency.mean(),
        );
        match (p50, p99, max, mean) {
            (Some(p50), Some(p99), Some(max), Some(mean)) => {
                let _ = writeln!(
                    s,
                    "latency({unit}): p50={p50} p99={p99} max={max} mean={mean:.3}"
                );
            }
            _ => {
                let _ = writeln!(s, "latency({unit}): no samples");
            }
        }
        let causes: Vec<String> = REJECT_CAUSES
            .iter()
            .zip(self.rejects_by_cause)
            .filter(|(_, n)| *n > 0)
            .map(|(c, n)| format!("{}={n}", c.name()))
            .collect();
        if !causes.is_empty() {
            let _ = writeln!(s, "rejects: {}", causes.join(" "));
        }
        let hwm: Vec<String> = self.high_water.iter().map(|h| h.to_string()).collect();
        let _ = writeln!(s, "high_water: [{}]", hwm.join(" "));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, Mode};
    use crate::keys::Popularity;
    use rlb_serve::proto::Frame;

    #[test]
    fn report_renders_stably() {
        let mut c = Client::new(ClientConfig {
            tenant: 0,
            mode: Mode::Closed { concurrency: 2 },
            popularity: Popularity::Uniform { universe: 4 },
            put_ratio: 0.0,
            total_requests: 2,
            seed: 1,
        });
        let mut out = Vec::new();
        c.on_tick(0, &mut out);
        for (i, f) in out.iter().enumerate() {
            let Frame::Get { req_id, .. } = f else {
                panic!("expected get")
            };
            c.on_frame(
                (i as u64) + 1,
                &Frame::Reply {
                    req_id: *req_id,
                    latency: 1,
                    value: Vec::new(),
                },
            );
        }
        let rep = LoadReport::from_clients([&c]);
        let text = rep.render("ticks");
        assert!(
            text.starts_with("clients: sent=2 replies=2 rejects=0 rejection_rate=0.0000"),
            "{text}"
        );
        assert!(text.contains("latency(ticks): p50="), "{text}");
        assert!(text.contains("high_water: [2]"), "{text}");
        // Rendering is a pure function of the report.
        assert_eq!(text, rep.render("ticks"));
    }

    #[test]
    fn empty_report_has_no_samples() {
        let rep = LoadReport::from_clients(std::iter::empty::<&Client>());
        let text = rep.render("ticks");
        assert!(text.contains("latency(ticks): no samples"), "{text}");
        assert_eq!(rep.rejection_rate(), 0.0);
    }
}
