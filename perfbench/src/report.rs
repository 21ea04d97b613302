//! A workload's result: its metrics, the human-readable report and the
//! one-line JSON result the run ends with.

use crate::common::peak_rss_mib;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// What the value is, its base for ratios, or its sample count.
    pub note: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics every workload reports (traced runs).
    pub layers: Vec<Metric>,
    /// Per-layer metrics only some workloads have (traced runs); printed,
    /// not part of the JSON result.
    pub extra: Vec<Metric>,
    /// Answers checked.
    pub attempted: u64,
    /// Answers wrong or errored.
    pub failed: u64,
    /// Free-form lines printed before the metric table.
    pub lines: Vec<String>,
}

fn push(list: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str, note: String) {
    list.push(Metric {
        name: name.to_string(),
        value,
        unit,
        note,
    });
}

impl Report {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        push(&mut self.end_to_end, name, value, unit, note.into());
    }

    /// Adds a per-layer metric every workload reports.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        push(&mut self.layers, name, value, unit, note.into());
    }

    /// Adds a per-layer metric particular to this workload.
    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        push(&mut self.extra, name, value, unit, note.into());
    }

    /// Adds a free-form report line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts checked answers.
    pub fn checked(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Adds the end-to-end metrics every workload ends with: the failure
    /// share (printed only: it must read 0) and peak memory.
    pub fn finish_end_to_end(&mut self) -> Result<(), String> {
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        self.line(format!(
            "failed_frac = {frac} ({} of {} answers wrong or errored)",
            self.failed, self.attempted
        ));
        self.e2e(
            "peak_rss_mb",
            peak_rss_mib()?,
            "MiB",
            "peak resident set (VmHWM) of the whole run",
        );
        Ok(())
    }

    /// Prints the report and the JSON result line.  `traced` selects
    /// which metric set the JSON carries.
    pub fn print(&self, stamp: &str, traced: bool) -> Result<(), String> {
        let mut out = String::new();
        let _ = writeln!(out, "stamp {stamp}");
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        let sections: [(&str, &[Metric]); 3] = [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.layers),
            ("per-layer (this workload only)", &self.extra),
        ];
        for (title, metrics) in sections {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "-- {title}");
            for m in metrics {
                let _ = writeln!(
                    out,
                    "{:<28} {:>16.4} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
        }
        let chosen = if traced {
            &self.layers
        } else {
            &self.end_to_end
        };
        let mut json = String::new();
        for m in chosen {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a finite number", m.name));
            }
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        print!("{out}");
        Ok(())
    }
}
