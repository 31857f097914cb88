//! Prometheus text exposition format (version 0.0.4) rendering.
//!
//! [`render`] serialises a registry snapshot into the plain-text format
//! every Prometheus-compatible scraper ingests:
//!
//! ```text
//! # TYPE train_epochs_total counter
//! train_epochs_total{model="env2vec"} 42
//! # TYPE span_seconds histogram
//! span_seconds_bucket{name="fit",le="0.001"} 3
//! span_seconds_bucket{name="fit",le="+Inf"} 9
//! span_seconds_sum{name="fit"} 1.25
//! span_seconds_count{name="fit"} 9
//! ```
//!
//! Histograms expand to cumulative `_bucket` series (`le` label),
//! `_sum`, and `_count`. Label values are escaped per the exposition
//! spec (`\\`, `\"`, `\n`).

use crate::metrics::{MetricSample, MetricValue, MetricsRegistry};
use env2vec_telemetry::LabelSet;

/// Formats a bucket bound the way Prometheus does: shortest exact-ish
/// decimal (`0.001`, not `1e-3`), so `le` labels are stable strings.
fn format_bound(b: f64) -> String {
    let s = format!("{b}");
    if s.contains('e') || s.contains('E') {
        // Fall back to a plain decimal rendering for tiny bounds.
        let s = format!("{b:.12}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// Escapes a label value per the Prometheus exposition format: backslash,
/// double quote, and newline get backslash escapes.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a label set as `{k="v",...}`, or the empty string when there
/// are no labels. An extra `le` pair is appended last when provided
/// (bucket series convention).
fn render_labels(labels: &LabelSet, le: Option<&str>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        pairs.push(format!("le=\"{}\"", escape_label_value(le)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Formats a sample value: integral floats render without a decimal
/// point (Prometheus accepts both; this keeps counters tidy).
fn render_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders one snapshot in Prometheus text exposition format. Samples
/// arrive in `(name, labels)` order from the registry, so each metric
/// name gets exactly one `# TYPE` header covering all its label
/// variants.
pub fn render_snapshot(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for sample in samples {
        if last_name != Some(sample.name.as_str()) {
            let kind = match sample.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            out.push_str(&format!("# TYPE {} {}\n", sample.name, kind));
            last_name = Some(sample.name.as_str());
        }
        match &sample.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    sample.name,
                    render_labels(&sample.labels, None),
                    v
                ));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!(
                    "{}{} {}\n",
                    sample.name,
                    render_labels(&sample.labels, None),
                    render_value(*v)
                ));
            }
            MetricValue::Histogram {
                bounds,
                cumulative,
                sum,
                count,
                exemplars,
            } => {
                for (i, cum) in cumulative.iter().enumerate() {
                    let le = if i < bounds.len() {
                        format_bound(bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    // OpenMetrics exemplar suffix: ` # {labels} value`
                    // after the bucket sample, naming the last sampled
                    // trace that landed in this bucket.
                    let exemplar = match exemplars.get(i).copied().flatten() {
                        Some(e) => {
                            format!(" # {{trace_id=\"{:032x}\"}} {}", e.trace_id, e.value)
                        }
                        None => String::new(),
                    };
                    out.push_str(&format!(
                        "{}_bucket{} {}{}\n",
                        sample.name,
                        render_labels(&sample.labels, Some(&le)),
                        cum,
                        exemplar
                    ));
                }
                out.push_str(&format!(
                    "{}_sum{} {}\n",
                    sample.name,
                    render_labels(&sample.labels, None),
                    render_value(*sum)
                ));
                out.push_str(&format!(
                    "{}_count{} {}\n",
                    sample.name,
                    render_labels(&sample.labels, None),
                    count
                ));
            }
        }
    }
    out
}

/// Renders the registry's current state ([`render_snapshot`] of
/// [`MetricsRegistry::snapshot`]).
pub fn render(registry: &MetricsRegistry) -> String {
    render_snapshot(&registry.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type ParsedSamples = Vec<(String, BTreeMap<String, String>, f64)>;

    /// A miniature exposition-format parser: returns
    /// `(name, labels, value)` per sample line plus the `# TYPE` map.
    /// Used to prove the renderer's output round-trips.
    fn parse(text: &str) -> (BTreeMap<String, String>, ParsedSamples) {
        let mut types = BTreeMap::new();
        let mut samples = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE line");
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            // Strip an OpenMetrics exemplar suffix (` # {...} value`)
            // before splitting off the sample value.
            let line = line.split(" # {").next().expect("split never empty");
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let value: f64 = value.parse().expect("sample value");
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), BTreeMap::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("closing brace");
                    let mut labels = BTreeMap::new();
                    // Split on `",` boundaries, un-escaping values.
                    let mut remaining = body;
                    while !remaining.is_empty() {
                        let (k, rest) = remaining.split_once("=\"").expect("label key");
                        // Find the closing unescaped quote.
                        let mut val = String::new();
                        let mut chars = rest.chars();
                        loop {
                            match chars.next().expect("unterminated label") {
                                '\\' => match chars.next().expect("dangling escape") {
                                    'n' => val.push('\n'),
                                    c => val.push(c),
                                },
                                '"' => break,
                                c => val.push(c),
                            }
                        }
                        labels.insert(k.to_string(), val);
                        remaining = chars.as_str().strip_prefix(',').unwrap_or(chars.as_str());
                    }
                    (name.to_string(), labels)
                }
            };
            samples.push((name, labels, value));
        }
        (types, samples)
    }

    #[test]
    fn renders_and_parses_back_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter_with("epochs_total", LabelSet::new().with("model", "env2vec"))
            .inc_by(42);
        reg.counter_with("epochs_total", LabelSet::new().with("model", "rfnn"))
            .inc_by(7);
        reg.gauge("val_loss").set(0.125);
        let h = reg.histogram("step_seconds");
        h.observe(2e-6);
        h.observe(5_000.0);

        let text = render(&reg);
        let (types, samples) = parse(&text);

        assert_eq!(
            types.get("epochs_total").map(String::as_str),
            Some("counter")
        );
        assert_eq!(types.get("val_loss").map(String::as_str), Some("gauge"));
        assert_eq!(
            types.get("step_seconds").map(String::as_str),
            Some("histogram")
        );
        // One TYPE line per name even with two label variants.
        assert_eq!(text.matches("# TYPE epochs_total").count(), 1);

        let find = |name: &str, label: Option<(&str, &str)>| {
            samples
                .iter()
                .find(|(n, l, _)| {
                    n == name && label.is_none_or(|(k, v)| l.get(k).map(String::as_str) == Some(v))
                })
                .unwrap_or_else(|| panic!("missing {name}"))
                .2
        };
        assert_eq!(find("epochs_total", Some(("model", "env2vec"))), 42.0);
        assert_eq!(find("epochs_total", Some(("model", "rfnn"))), 7.0);
        assert_eq!(find("val_loss", None), 0.125);
        // Histogram expansion: cumulative buckets, +Inf counts all.
        assert_eq!(find("step_seconds_bucket", Some(("le", "+Inf"))), 2.0);
        assert_eq!(find("step_seconds_bucket", Some(("le", "0.000001"))), 0.0);
        assert_eq!(find("step_seconds_count", None), 2.0);
        assert!((find("step_seconds_sum", None) - 5_000.000002).abs() < 1e-6);
        // Buckets are cumulative (monotone in le for finite bounds).
        let bucket_vals: Vec<f64> = samples
            .iter()
            .filter(|(n, _, _)| n == "step_seconds_bucket")
            .map(|(_, _, v)| *v)
            .collect();
        assert!(bucket_vals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.gauge_with(
            "weird",
            LabelSet::new().with("name", "he said \"hi\"\nback\\slash"),
        )
        .set(1.0);
        let text = render(&reg);
        assert!(text.contains(r#"name="he said \"hi\"\nback\\slash""#));
        // No raw newline inside the sample line: exactly 2 lines.
        assert_eq!(text.lines().count(), 2);
        // And the parser recovers the original value.
        let (_, samples) = parse(&text);
        assert_eq!(
            samples[0].1.get("name").map(String::as_str),
            Some("he said \"hi\"\nback\\slash")
        );
    }

    #[test]
    fn bounds_render_as_plain_decimals() {
        assert_eq!(format_bound(0.001), "0.001");
        assert_eq!(format_bound(1.0), "1");
        assert_eq!(format_bound(0.000001), "0.000001");
        assert_eq!(format_bound(316.2), "316.2");
    }

    #[test]
    fn integral_values_render_without_decimal_noise() {
        assert_eq!(render_value(3.0), "3");
        assert_eq!(render_value(0.5), "0.5");
        assert_eq!(render_value(f64::NAN), "NaN");
    }

    #[test]
    fn bucket_lines_carry_exemplars_in_openmetrics_syntax() {
        use crate::trace::TraceContext;
        let reg = MetricsRegistry::new();
        let h = reg.histogram("req_seconds");
        let ctx = TraceContext::from_seed(11, true);
        h.observe_traced(2e-6, Some(ctx.trace_id));
        h.observe(0.5); // untraced: its bucket gets no exemplar

        let text = render(&reg);
        let expected = format!(
            "req_seconds_bucket{{le=\"0.000003162\"}} 1 # {{trace_id=\"{:032x}\"}} 0.000002",
            ctx.trace_id
        );
        assert!(
            text.lines().any(|l| l == expected),
            "missing exemplar line in:\n{text}"
        );
        // The untraced bucket renders bare.
        assert!(text.lines().any(|l| l == "req_seconds_bucket{le=\"1\"} 2"));
        // The parser still round-trips exemplar-bearing output.
        let (types, samples) = parse(&text);
        assert_eq!(
            types.get("req_seconds").map(String::as_str),
            Some("histogram")
        );
        let inf = samples
            .iter()
            .find(|(n, l, _)| {
                n == "req_seconds_bucket" && l.get("le").map(String::as_str) == Some("+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.2, 2.0);
    }
}
