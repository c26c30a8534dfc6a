//! Runtime-selected telemetry sinks.
//!
//! The CLI's `--log-format {text,json}` flag parses into a
//! [`LogFormat`]; [`render`] turns a [`Snapshot`] into that format's
//! string. The single-document form used by `--metrics-out` files is
//! [`Snapshot::to_json`] and is format-independent.

use std::str::FromStr;

use crate::snapshot::Snapshot;

/// Output format for the telemetry summary sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogFormat {
    /// Human-readable aligned table.
    #[default]
    Text,
    /// JSON-lines: one self-describing object per metric.
    Jsonl,
}

impl FromStr for LogFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(LogFormat::Text),
            "json" | "jsonl" => Ok(LogFormat::Jsonl),
            other => Err(format!(
                "unknown log format '{other}' (expected 'text' or 'json')"
            )),
        }
    }
}

/// Renders a snapshot in the given format.
pub fn render(snapshot: &Snapshot, format: LogFormat) -> String {
    match format {
        LogFormat::Text => snapshot.render_text(),
        LogFormat::Jsonl => snapshot.render_jsonl(),
    }
}

/// Output format for `--metrics-out` metric files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Single JSON document ([`Snapshot::to_json`]).
    #[default]
    Json,
    /// Prometheus text exposition v0.0.4 ([`crate::export::prometheus`]).
    Prom,
}

impl FromStr for MetricsFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(MetricsFormat::Json),
            "prom" | "prometheus" => Ok(MetricsFormat::Prom),
            other => Err(format!(
                "unknown metrics format '{other}' (expected 'json' or 'prom')"
            )),
        }
    }
}

/// Renders the metrics-file form of a snapshot in the given format.
pub fn render_metrics(snapshot: &Snapshot, format: MetricsFormat) -> String {
    match format {
        MetricsFormat::Json => snapshot.to_json(),
        MetricsFormat::Prom => crate::export::prometheus(snapshot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn log_format_parses_both_spellings() {
        assert_eq!("text".parse::<LogFormat>().unwrap(), LogFormat::Text);
        assert_eq!("json".parse::<LogFormat>().unwrap(), LogFormat::Jsonl);
        assert_eq!("jsonl".parse::<LogFormat>().unwrap(), LogFormat::Jsonl);
        assert!("yaml".parse::<LogFormat>().is_err());
    }

    #[test]
    fn metrics_format_parses_both_spellings() {
        assert_eq!(
            "json".parse::<MetricsFormat>().unwrap(),
            MetricsFormat::Json
        );
        assert_eq!(
            "prom".parse::<MetricsFormat>().unwrap(),
            MetricsFormat::Prom
        );
        assert_eq!(
            "prometheus".parse::<MetricsFormat>().unwrap(),
            MetricsFormat::Prom
        );
        assert!("xml".parse::<MetricsFormat>().is_err());
    }

    #[test]
    fn render_dispatches_by_format() {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter_add("sink.test.counter", 1);
        let snap = r.snapshot();
        assert!(render(&snap, LogFormat::Text).contains("counters:"));
        assert!(render(&snap, LogFormat::Jsonl).starts_with("{\"type\":\"counter\""));
    }
}
