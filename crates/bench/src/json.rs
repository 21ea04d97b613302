//! Shared JSON plumbing for the experiment bins.
//!
//! The serving-side experiment bins co-own one machine-readable file
//! (`BENCH_query.json`): E10 rewrites it wholesale, E11 splices a
//! `serve_load` section, E12 splices `chaos_serve`.  This module is that
//! contract in one place — string escaping, trailing-section splicing,
//! and the per-stage histogram quantile blocks the serving bins emit —
//! so the bins cannot drift apart in format.

use ftbfs_telemetry::TelemetrySnapshot;

pub use ftbfs_telemetry::json_escape as escape;

/// Splices `section` into `existing` as the trailing top-level `key`,
/// replacing any previous value of that key and preserving everything
/// before it.
///
/// The splice contract the bins rely on: a previously spliced key is
/// always the *trailing* key of the file (this function put it there), so
/// replacing it means truncating at the key and re-appending.  When the
/// file does not exist yet, a minimal `{"experiment": <experiment>, ...}`
/// document is created instead.
#[must_use]
pub fn splice_section(
    existing: Option<String>,
    key: &str,
    experiment: &str,
    section: &str,
) -> String {
    match existing {
        Some(text) => {
            let trimmed = text.trim_end();
            let body = trimmed.strip_suffix('}').unwrap_or(trimmed).trim_end();
            let marker = format!("\"{key}\":");
            let base = match body.find(&marker) {
                Some(pos) => body[..pos].trim_end().trim_end_matches(',').trim_end(),
                None => body,
            };
            format!("{base},\n  \"{key}\": {section}\n}}\n")
        }
        None => format!("{{\n  \"experiment\": \"{experiment}\",\n  \"{key}\": {section}\n}}\n"),
    }
}

/// Renders the named histograms of a scrape as a JSON array of per-series
/// quantile summaries: one entry per labelled series with its count, p50
/// and p99 in the histogram's native unit (nanoseconds for the `_ns`
/// stage histograms).  Series order follows the scrape (sorted by name,
/// then labels); empty series are skipped.
///
/// The rendering indents for embedding at the second nesting level of the
/// bench JSON (the level `serve_load`/`chaos_serve` sections sit at).
#[must_use]
pub fn histogram_quantiles(snapshot: &TelemetrySnapshot, names: &[&str]) -> String {
    let mut entries = Vec::new();
    for h in &snapshot.histograms {
        if !names.contains(&h.name.as_str()) || h.count == 0 {
            continue;
        }
        let data = h.to_data();
        let labels = h
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect::<Vec<_>>()
            .join(", ");
        entries.push(format!(
            "{{\"metric\": \"{}\", \"labels\": {{{labels}}}, \"count\": {}, \
             \"p50\": {}, \"p99\": {}}}",
            escape(&h.name),
            h.count,
            data.quantile(0.5).unwrap_or(0),
            data.quantile(0.99).unwrap_or(0),
        ));
    }
    if entries.is_empty() {
        return "[]".to_string();
    }
    format!("[\n      {}\n    ]", entries.join(",\n      "))
}

/// The provenance fields every bench JSON row carries, as a fragment of
/// object members: `"nproc": …, "rustc": "…", "commit": "…", "mode": "…"`.
///
/// `nproc` is the parallelism the process may use; `rustc` and `commit`
/// are read from `rustc --version` and `git describe` in the working
/// directory (`"unknown"` and `"none"` when either is unavailable; a commit
/// ending in `-dirty` ran with uncommitted changes); `mode`
/// names the build profile followed by the caller's `mode`, e.g.
/// `"release, full"`.
#[must_use]
pub fn provenance(mode: &str) -> String {
    fn output(program: &str, args: &[&str]) -> Option<String> {
        let out = std::process::Command::new(program)
            .args(args)
            .output()
            .ok()?;
        let text = String::from_utf8(out.stdout).ok()?;
        let text = text.trim();
        (out.status.success() && !text.is_empty()).then(|| text.to_string())
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = output("git", &["describe", "--always", "--dirty", "--abbrev=12"])
        .unwrap_or_else(|| "none".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "\"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\", \"mode\": \"{profile}, {}\"",
        escape(&rustc),
        escape(&commit),
        escape(mode),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_telemetry::MetricsRegistry;

    #[test]
    fn splice_creates_then_replaces_the_trailing_section() {
        let created = splice_section(None, "serve_load", "serve_load", "{\"x\": 1}");
        assert!(created.contains("\"experiment\": \"serve_load\""));
        assert!(created.contains("\"serve_load\": {\"x\": 1}"));

        let base = "{\n  \"experiment\": \"query_throughput\",\n  \"results\": [1, 2]\n}\n";
        let first = splice_section(Some(base.to_string()), "serve_load", "x", "{\"x\": 1}");
        assert!(first.contains("\"results\": [1, 2]"));
        assert!(first.contains("\"serve_load\": {\"x\": 1}"));

        let second = splice_section(Some(first), "serve_load", "x", "{\"x\": 2}");
        assert!(second.contains("\"results\": [1, 2]"));
        assert!(second.contains("\"serve_load\": {\"x\": 2}"));
        assert!(!second.contains("\"x\": 1"), "old section replaced");
        assert!(second.trim_end().ends_with('}'));
    }

    #[test]
    fn provenance_names_every_field() {
        let fields = provenance("smoke");
        for key in [
            "\"nproc\": ",
            "\"rustc\": \"",
            "\"commit\": \"",
            "\"mode\": \"",
        ] {
            assert!(fields.contains(key), "{key} missing from {fields}");
        }
        assert!(fields.ends_with(", smoke\""), "{fields}");
    }

    #[test]
    fn splice_stacks_two_sections_in_order() {
        let base = "{\n  \"experiment\": \"query_throughput\",\n  \"results\": []\n}\n";
        let with_serve = splice_section(Some(base.to_string()), "serve_load", "x", "{\"a\": 1}");
        let with_chaos = splice_section(Some(with_serve), "chaos_serve", "x", "{\"b\": 2}");
        let serve_pos = with_chaos.find("\"serve_load\"").unwrap();
        let chaos_pos = with_chaos.find("\"chaos_serve\"").unwrap();
        assert!(serve_pos < chaos_pos, "later splice lands after earlier");
        assert!(with_chaos.contains("\"results\": []"));
    }

    #[test]
    fn histogram_quantiles_summarises_named_series_only() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("wanted_ns", "help", 1);
        for v in 1..=100u64 {
            h.record(v * 1_000);
        }
        registry.histogram("unwanted_ns", "help", 1).record(5);
        let empty =
            registry.histogram_with("wanted_ns", "help", vec![("target", "all".to_string())], 1);
        let _ = empty; // registered but never recorded: skipped
        let out = histogram_quantiles(&registry.scrape(), &["wanted_ns"]);
        assert!(out.contains("\"metric\": \"wanted_ns\""));
        assert!(!out.contains("unwanted_ns"));
        assert!(!out.contains("\"all\""), "empty series skipped");
        assert!(out.contains("\"count\": 100"));
        // The p50 bucket bound must bracket the true median of 50_500 ns
        // within the ≤ 25% log-linear bucket width.
        let p50: u64 = out
            .split("\"p50\": ")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((40_000..=63_000).contains(&p50), "p50 was {p50}");
    }
}
