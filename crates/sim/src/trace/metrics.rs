//! Latency-histogram export: JSON and an ASCII table.

use std::fmt::Write as _;

use crate::{Metric, MetricsRegistry};

use super::json::num_f64;

/// Exports all histograms of `reg` as JSON. Every metric appears (even
/// empty ones, with `count` 0); bucket lists include only non-empty
/// buckets, as `[lo, hi, count]` triples over half-open ranges. `p50`,
/// `p90` and `p99` are percentile estimates interpolated within the
/// log2 bucket the rank falls in ([`crate::Histogram::percentile`]).
pub fn metrics_json(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\"metrics\":[\n");
    for (i, m) in Metric::ALL.iter().enumerate() {
        let h = reg.get(*m);
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
             \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            m.label(),
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            num_f64(h.mean()),
            num_f64(h.percentile(0.50)),
            num_f64(h.percentile(0.90)),
            num_f64(h.percentile(0.99)),
        );
        for (j, (lo, hi, c)) in h.nonempty_buckets().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{lo},{hi},{c}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the non-empty histograms of `reg` as an ASCII table with
/// log-scale bucket bars.
pub fn metrics_table(reg: &MetricsRegistry) -> String {
    const BAR: usize = 40;
    let mut out = String::from("latency histograms (cycles)\n");
    let mut any = false;
    for (m, h) in reg.nonempty() {
        any = true;
        let _ = writeln!(
            out,
            "\n  {}: count={} mean={:.1} min={} max={} p50={:.0} p90={:.0} p99={:.0}",
            m.label(),
            h.count(),
            h.mean(),
            h.min(),
            h.max(),
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
        );
        let peak = h.nonempty_buckets().map(|(_, _, c)| c).max().unwrap_or(1);
        for (lo, hi, c) in h.nonempty_buckets() {
            let bar = ((c as u128 * BAR as u128).div_ceil(peak as u128)) as usize;
            let _ = writeln!(out, "    [{lo:>12}, {hi:>12}) {c:>10} {}", "#".repeat(bar));
        }
    }
    if !any {
        out.push_str("  (no samples)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_with_nonempty_buckets_only() {
        let mut reg = MetricsRegistry::new();
        reg.record(Metric::MsgLatency, 100);
        reg.record(Metric::MsgLatency, 120);
        let s = metrics_json(&reg);
        for m in Metric::ALL {
            assert!(s.contains(&format!("\"name\":\"{}\"", m.label())), "{s}");
        }
        // 100 and 120 both land in [64, 128).
        assert!(s.contains("\"buckets\":[[64,128,2]]"));
        assert!(s.contains("\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"mean\":0.0"));
        // Empty metrics report zero percentiles too.
        assert!(s.contains("\"p50\":0.0,\"p90\":0.0,\"p99\":0.0"), "{s}");
    }

    #[test]
    fn json_and_table_carry_percentiles() {
        let mut reg = MetricsRegistry::new();
        for v in 1..=100u64 {
            reg.record(Metric::MsgLatency, v);
        }
        let s = metrics_json(&reg);
        let h = reg.get(Metric::MsgLatency);
        let expect = format!(
            "\"p50\":{},\"p90\":{},\"p99\":{}",
            num_f64(h.percentile(0.50)),
            num_f64(h.percentile(0.90)),
            num_f64(h.percentile(0.99)),
        );
        assert!(s.contains(&expect), "{s}");
        let t = metrics_table(&reg);
        assert!(
            t.contains("p50=") && t.contains("p90=") && t.contains("p99="),
            "{t}"
        );
    }

    #[test]
    fn table_draws_bars_for_samples() {
        let mut reg = MetricsRegistry::new();
        for v in [5, 6, 7, 200] {
            reg.record(Metric::LockHold, v);
        }
        let t = metrics_table(&reg);
        assert!(t.contains("lock_hold: count=4"));
        assert!(t.contains('#'));
        assert!(
            !t.contains("msg_latency"),
            "empty metrics are omitted:\n{t}"
        );
    }

    #[test]
    fn empty_registry_says_so() {
        assert!(metrics_table(&MetricsRegistry::new()).contains("no samples"));
    }
}
