//! A small lint for the Prometheus text exposition format.
//!
//! The engine's `MetricsRegistry` renders its snapshot in text exposition
//! format (version 0.0.4); CI scrapes nothing, so a malformed exposition
//! would otherwise only surface when someone points a real Prometheus at
//! the endpoint. This module parses an exposition the way a scraper
//! would, strictly enough to catch the mistakes a renderer can make:
//!
//! * malformed `# HELP` / `# TYPE` lines or unknown metric types;
//! * metric and label names outside the legal character set;
//! * unparseable sample values, broken label quoting;
//! * duplicate series (same name and label set twice);
//! * `# TYPE` declared *after* a sample of the family;
//! * histogram families missing the `+Inf` bucket, `_sum` or `_count`,
//!   non-cumulative buckets, or `_count` disagreeing with `+Inf`.
//!
//! `lint` returns every violation with its 1-based line number; the
//! `promlint` binary exits nonzero if any are found.

use std::collections::{BTreeMap, HashMap, HashSet};

/// One lint violation, located by its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintError {
    /// 1-based line the violation was found on (0 = whole document).
    pub line: usize,
    /// Human-readable description of what is wrong.
    pub message: String,
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        other => other.parse().ok(),
    }
}

/// Parses `name{label="v",...} value` into its parts. Labels come back as
/// a sorted map so identical label sets normalize identically.
fn parse_sample(line: &str) -> Result<(String, BTreeMap<String, String>, f64), String> {
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or("unclosed label block")?;
            if close < open {
                return Err("mismatched braces".into());
            }
            (&line[..open], {
                let labels = &line[open + 1..close];
                let tail = line[close + 1..].trim();
                (labels, tail)
            })
        }
        None => {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next().unwrap_or("");
            (name, ("", it.next().unwrap_or("").trim()))
        }
    };
    let (label_text, value_text) = rest;
    if !valid_metric_name(name_part) {
        return Err(format!("invalid metric name {name_part:?}"));
    }
    let mut labels = BTreeMap::new();
    let mut chars = label_text.chars().peekable();
    while chars.peek().is_some() {
        let mut lname = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            lname.push(c);
            chars.next();
        }
        let lname = lname.trim().to_string();
        if chars.next() != Some('=') {
            return Err(format!("label {lname:?} missing '='"));
        }
        if !valid_label_name(&lname) {
            return Err(format!("invalid label name {lname:?}"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {lname:?} value not quoted"));
        }
        let mut lvalue = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => lvalue.push('\\'),
                    Some('"') => lvalue.push('"'),
                    Some('n') => lvalue.push('\n'),
                    other => return Err(format!("bad escape {other:?} in label {lname:?}")),
                },
                Some('"') => break,
                Some(c) => lvalue.push(c),
                None => return Err(format!("unterminated value for label {lname:?}")),
            }
        }
        if labels.insert(lname.clone(), lvalue).is_some() {
            return Err(format!("duplicate label {lname:?}"));
        }
        match chars.peek() {
            Some(',') => {
                chars.next();
            }
            Some(c) => return Err(format!("expected ',' between labels, found {c:?}")),
            None => {}
        }
    }
    // A trailing timestamp (second whitespace-separated field) is legal;
    // the value is the first field.
    let mut fields = value_text.split_whitespace();
    let value = fields.next().ok_or("missing sample value")?;
    let value = parse_value(value).ok_or_else(|| format!("unparseable value {value:?}"))?;
    if let Some(ts) = fields.next() {
        ts.parse::<i64>().map_err(|_| format!("unparseable timestamp {ts:?}"))?;
    }
    if fields.next().is_some() {
        return Err("trailing garbage after sample".into());
    }
    Ok((name_part.to_string(), labels, value))
}

/// The base family a histogram sample belongs to, if its name carries a
/// histogram series suffix.
fn histogram_family(name: &str) -> Option<(&str, &'static str)> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return Some((base, suffix));
        }
    }
    None
}

#[derive(Default)]
struct HistogramSeries {
    buckets: Vec<(f64, f64)>,
    sum: bool,
    count: Option<f64>,
    line: usize,
}

/// Lints a full text exposition; returns every violation found.
#[must_use]
#[allow(clippy::too_many_lines)] // one pass over the document, kept linear
pub fn lint(text: &str) -> Vec<LintError> {
    let mut errors = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut sampled: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // (family, labels-without-le) -> accumulated histogram shape
    let mut histograms: HashMap<(String, String), HistogramSeries> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let mut err = |message: String| errors.push(LintError { line: lineno, message });
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let ty = it.next().unwrap_or("").trim();
                if !valid_metric_name(name) {
                    err(format!("TYPE for invalid metric name {name:?}"));
                    continue;
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                    err(format!("unknown metric type {ty:?}"));
                }
                if sampled.contains(name) {
                    err(format!("TYPE for {name} declared after its samples"));
                }
                if types.insert(name.to_string(), ty.to_string()).is_some() {
                    err(format!("duplicate TYPE for {name}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    err(format!("HELP for invalid metric name {name:?}"));
                }
            }
            // Any other comment is legal and ignored.
            continue;
        }

        let (name, labels, value) = match parse_sample(line) {
            Ok(parsed) => parsed,
            Err(message) => {
                err(message);
                continue;
            }
        };
        let family = match histogram_family(&name) {
            Some((base, _)) if types.get(base).is_some_and(|t| t == "histogram") => {
                base.to_string()
            }
            _ => name.clone(),
        };
        sampled.insert(family.clone());

        let series_key = format!(
            "{name}{{{}}}",
            labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect::<Vec<_>>().join(",")
        );
        if !seen_series.insert(series_key) {
            err(format!("duplicate series {name} with identical labels"));
        }

        if family != name {
            // Histogram component sample: accumulate its shape.
            let mut without_le = labels.clone();
            let le = without_le.remove("le");
            let group =
                without_le.iter().map(|(k, v)| format!("{k}={v:?}")).collect::<Vec<_>>().join(",");
            let entry = histograms.entry((family.clone(), group)).or_default();
            entry.line = lineno;
            match name.strip_prefix(family.as_str()) {
                Some("_bucket") => match le.as_deref().map(parse_value) {
                    Some(Some(bound)) => entry.buckets.push((bound, value)),
                    Some(None) => err("bucket with unparseable le".into()),
                    None => err("histogram _bucket sample without an le label".into()),
                },
                Some("_sum") => entry.sum = true,
                Some("_count") => entry.count = Some(value),
                _ => {}
            }
        }
    }

    for ((family, group), series) in &histograms {
        let at = |message: String| LintError { line: series.line, message };
        let label = if group.is_empty() { family.clone() } else { format!("{family}{{{group}}}") };
        let mut buckets = series.buckets.clone();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if buckets.last().is_none_or(|&(le, _)| le != f64::INFINITY) {
            errors.push(at(format!("histogram {label} has no +Inf bucket")));
            continue;
        }
        if buckets.windows(2).any(|w| w[1].1 < w[0].1) {
            errors.push(at(format!("histogram {label} buckets are not cumulative")));
        }
        if !series.sum {
            errors.push(at(format!("histogram {label} is missing _sum")));
        }
        match series.count {
            None => errors.push(at(format!("histogram {label} is missing _count"))),
            Some(count) => {
                let inf = buckets.last().map_or(0.0, |&(_, v)| v);
                if (count - inf).abs() > f64::EPSILON {
                    errors
                        .push(at(format!("histogram {label} _count {count} != +Inf bucket {inf}")));
                }
            }
        }
    }

    errors.sort_by_key(|e| e.line);
    errors
}

/// Lints the precomputed quantile gauges that must accompany every
/// histogram family in the engine's exposition: for each histogram
/// series (per label set), a `{family}_p50`, `{family}_p90` and
/// `{family}_p99` gauge series with the same labels must exist, typed
/// `gauge`, with p50 ≤ p90 ≤ p99.
///
/// Kept separate from [`lint`]: plain format validity does not require
/// quantile gauges (third-party expositions lint clean without them);
/// this check encodes the *engine's* contract, and the `promlint` binary
/// runs both.
#[must_use]
pub fn lint_quantiles(text: &str) -> Vec<LintError> {
    const SUFFIXES: [&str; 3] = ["_p50", "_p90", "_p99"];
    let mut errors = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    // (family, labels-without-le) -> line of first histogram sample
    let mut groups: BTreeMap<(String, String), usize> = BTreeMap::new();
    // (family, suffix, labels) -> gauge value
    let mut quantiles: HashMap<(String, &'static str, String), f64> = HashMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(rest) = comment.trim_start().strip_prefix("TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let ty = it.next().unwrap_or("").trim();
                types.insert(name.to_string(), ty.to_string());
            }
            continue;
        }
        let Ok((name, labels, value)) = parse_sample(line) else { continue };
        let group_of = |labels: &BTreeMap<String, String>| {
            labels
                .iter()
                .filter(|(k, _)| k.as_str() != "le")
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        if let Some((base, _)) = histogram_family(&name) {
            if types.get(base).is_some_and(|t| t == "histogram") {
                groups.entry((base.to_string(), group_of(&labels))).or_insert(lineno);
                continue;
            }
        }
        for suffix in SUFFIXES {
            if let Some(base) = name.strip_suffix(suffix) {
                if types.get(base).is_some_and(|t| t == "histogram") {
                    if types.get(&name).is_none_or(|t| t != "gauge") {
                        errors.push(LintError {
                            line: lineno,
                            message: format!("quantile series {name} is not typed gauge"),
                        });
                    }
                    quantiles.insert((base.to_string(), suffix, group_of(&labels)), value);
                }
            }
        }
    }

    for ((family, group), &line) in &groups {
        let label = if group.is_empty() { family.clone() } else { format!("{family}{{{group}}}") };
        let mut vals = Vec::new();
        for suffix in SUFFIXES {
            match quantiles.get(&(family.clone(), suffix, group.clone())) {
                Some(&v) => vals.push(v),
                None => errors.push(LintError {
                    line,
                    message: format!("histogram {label} has no {family}{suffix} gauge"),
                }),
            }
        }
        if vals.len() == SUFFIXES.len() && vals.windows(2).any(|w| w[1] < w[0]) {
            errors.push(LintError {
                line,
                message: format!(
                    "histogram {label} quantiles are not monotone (p50={} p90={} p99={})",
                    vals[0], vals[1], vals[2]
                ),
            });
        }
    }

    errors.sort_by_key(|e| e.line);
    errors
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    const GOOD: &str = "\
# HELP sp_tuples_in_total Tuples entering an operator.
# TYPE sp_tuples_in_total counter
sp_tuples_in_total{op=\"ss\",node=\"0\"} 120
sp_tuples_in_total{op=\"select\",node=\"1\"} 120
# HELP sp_operator_latency_ns Per-call operator latency.
# TYPE sp_operator_latency_ns histogram
sp_operator_latency_ns_bucket{node=\"0\",le=\"1024\"} 3
sp_operator_latency_ns_bucket{node=\"0\",le=\"2048\"} 7
sp_operator_latency_ns_bucket{node=\"0\",le=\"+Inf\"} 9
sp_operator_latency_ns_sum{node=\"0\"} 13000
sp_operator_latency_ns_count{node=\"0\"} 9
";

    #[test]
    fn clean_exposition_passes() {
        assert_eq!(lint(GOOD), vec![]);
    }

    #[test]
    fn engine_rendered_exposition_passes() {
        // The real renderer under test: whatever the engine emits for a
        // live plan must satisfy the same lint CI runs.
        use sp_core::{RoleSet, SecurityPunctuation, StreamElement, StreamId, Timestamp};
        let mut catalog = sp_core::RoleCatalog::new();
        catalog.register_synthetic_roles(4);
        let mut b = sp_engine::PlanBuilder::new(std::sync::Arc::new(catalog));
        let src = b.source(StreamId(1), crate::workloads::fig7_workload(10, 2, 0.5, 1).schema);
        let ss = b.add(sp_engine::SecurityShield::new(RoleSet::from([0])), src);
        let _sink = b.sink(ss);
        b.enable_telemetry(sp_engine::TelemetryConfig::enabled());
        let mut exec = b.build();
        let sp = SecurityPunctuation::grant_all(RoleSet::from([0]), Timestamp(1));
        exec.push(StreamId(1), StreamElement::punctuation(sp)).unwrap();
        let prom = exec.metrics().render_prometheus();
        let errors = lint(&prom);
        assert_eq!(errors, vec![], "engine exposition must lint clean");
        let errors = lint_quantiles(&prom);
        assert_eq!(errors, vec![], "engine exposition must carry quantile gauges");
    }

    #[test]
    fn standby_rendered_exposition_passes() {
        // A standby that evicted reassembly buffers exports the eviction
        // counter in an exposition that lints clean.
        use sp_core::wire::{Control, StreamDecoder, WireFrame};
        use std::io::{Read, Write};
        let factory: sp_server::SessionFactory = std::sync::Arc::new(|_| sp_query::Dsms::new());
        let standby = sp_server::Standby::start(factory, sp_server::StoreMap::new(), true).unwrap();
        let mut peer = std::net::TcpStream::connect(standby.repl_addr).unwrap();
        for epoch in 1..=100 {
            let seg = Control::CheckpointSegment {
                tenant: 1,
                epoch,
                fencing_epoch: 1,
                seq: 0,
                total: 2,
                bytes: vec![0; 8],
            };
            peer.write_all(&seg.encode_to_vec()).unwrap();
        }
        // The hello's reply orders after every segment before it.
        peer.write_all(&Control::ReplHello { fencing_epoch: 1 }.encode_to_vec()).unwrap();
        let mut dec = StreamDecoder::new(1 << 20);
        let mut buf = [0u8; 256];
        loop {
            let n = peer.read(&mut buf).unwrap();
            assert!(n > 0, "standby closed the connection");
            let frames = dec.feed(&buf[..n]);
            if frames.iter().any(|f| matches!(f, WireFrame::Control(Control::ReplHello { .. }))) {
                break;
            }
        }
        let mut http = std::net::TcpStream::connect(standby.metrics_addr.unwrap()).unwrap();
        http.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap();
        standby.stop();
        let prom = response.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(lint(prom), vec![], "standby exposition must lint clean");
        assert!(prom.contains("\nsp_server_repl_segments_evicted_total 36\n"), "{prom}");
    }

    #[test]
    fn missing_quantile_gauges_are_flagged() {
        // GOOD is format-valid but carries no quantile gauges: the plain
        // lint accepts it, the quantile lint names every missing series.
        assert_eq!(lint(GOOD), vec![]);
        let errors = lint_quantiles(GOOD);
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].message.contains("_p50"));
    }

    #[test]
    fn non_monotone_quantiles_are_flagged() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
# TYPE h_p50 gauge
h_p50 8
# TYPE h_p90 gauge
h_p90 4
# TYPE h_p99 gauge
h_p99 9
";
        let errors = lint_quantiles(text);
        assert!(errors.iter().any(|e| e.message.contains("not monotone")), "{errors:?}");
    }

    #[test]
    fn quantile_gauges_must_be_typed_gauge() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 1
h_sum 1
h_count 1
# TYPE h_p50 counter
h_p50 1
# TYPE h_p90 gauge
h_p90 1
# TYPE h_p99 gauge
h_p99 1
";
        let errors = lint_quantiles(text);
        assert!(errors.iter().any(|e| e.message.contains("not typed gauge")), "{errors:?}");
    }

    #[test]
    fn bad_names_and_values_are_flagged() {
        let errors = lint("9bad_name 1\nok_name not_a_number\n");
        assert_eq!(errors.len(), 2);
        assert!(errors[0].message.contains("invalid metric name"));
        assert!(errors[1].message.contains("unparseable value"));
    }

    #[test]
    fn duplicate_series_is_flagged() {
        let text = "a_total{x=\"1\"} 1\na_total{x=\"1\"} 2\n";
        let errors = lint(text);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("duplicate series"));
    }

    #[test]
    fn type_after_samples_is_flagged() {
        let text = "a_total 1\n# TYPE a_total counter\n";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.message.contains("after its samples")), "{errors:?}");
    }

    #[test]
    fn histogram_without_inf_bucket_is_flagged() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_sum 1
h_count 1
";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.message.contains("no +Inf bucket")), "{errors:?}");
    }

    #[test]
    fn non_cumulative_histogram_is_flagged() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 5
";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.message.contains("not cumulative")), "{errors:?}");
    }

    #[test]
    fn count_must_match_inf_bucket() {
        let text = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 5
h_sum 9
h_count 4
";
        let errors = lint(text);
        assert!(errors.iter().any(|e| e.message.contains("!= +Inf bucket")), "{errors:?}");
    }

    #[test]
    fn quoting_and_escapes_parse() {
        let text = "a_total{msg=\"he said \\\"hi\\\",\\nbye\\\\\"} 1\n";
        assert_eq!(lint(text), vec![]);
        let errors = lint("a_total{msg=\"unterminated} 1\n");
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn unknown_type_is_flagged() {
        let errors = lint("# TYPE a_total counterz\n");
        assert!(errors.iter().any(|e| e.message.contains("unknown metric type")), "{errors:?}");
    }
}
