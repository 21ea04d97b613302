//! `ftbfs-snapshot` — the ops CLI of the snapshot and telemetry plane.
//!
//! Three subcommands, all file-in/text-out so they compose with shell
//! tooling:
//!
//! * `inspect <snapshot> [--check]` — prints the outer layout of a
//!   snapshot file (format, version, answer contract, fingerprint, base
//!   range, and the full section table with decoded four-character kind
//!   tags).  Parsing already validates frame and per-section checksums;
//!   `--check` additionally loads the snapshot, running the full check a
//!   server runs on every epoch it installs.
//! * `verify <snapshot>...` — deep-validates each file (loads it as a
//!   server would) and reports one `ok`/`FAIL` line per file; exits
//!   non-zero if any file fails.
//! * `scrape <telemetry.json> [--json]` — converts a JSON telemetry
//!   snapshot (as written by [`TelemetrySnapshot::to_json`], e.g. from
//!   `StreamServer::scrape`) to Prometheus text exposition format; with
//!   `--json` re-emits normalised JSON instead (a round-trip check).
//!
//! Exit codes: 0 on success, 1 on validation/parse failure, 2 on usage
//! errors.

use ftbfs_bench::Table;
use ftbfs_oracle::{
    snapshot_layout, Contract, FrozenStructure, SNAPSHOT_MAGIC, SNAPSHOT_MULTI_MAGIC,
};
use ftbfs_telemetry::TelemetrySnapshot;
use std::process::ExitCode;

/// Decodes a little-endian four-character section kind tag for display.
fn fourcc(kind: u32) -> String {
    kind.to_le_bytes()
        .iter()
        .map(|&b| if b.is_ascii_graphic() { b as char } else { '.' })
        .collect()
}

/// The snapshot family, by magic.
fn family(data: &[u8]) -> Option<&'static str> {
    if data.starts_with(&SNAPSHOT_MAGIC) {
        Some("single (FTBO)")
    } else if data.starts_with(&SNAPSHOT_MULTI_MAGIC) {
        Some("multi (FTBM)")
    } else {
        None
    }
}

/// Renders a snapshot's declared answer contract.
fn contract_line(contract: Contract) -> String {
    match contract {
        Contract::Exact => "contract: exact".to_string(),
        Contract::Approx(p) => format!(
            "contract: approximate, alpha = {}/{}, beta = {}, theta = {}",
            p.mult_num, p.mult_den, p.add, p.theta
        ),
    }
}

/// Checks `data` the way a server does before it serves an epoch:
/// [`FrozenStructure::load`], the frame, certificate and fingerprint
/// re-hash.
fn deep_validate(data: &[u8]) -> Result<String, String> {
    FrozenStructure::load(data)
        .map(|f| format!("loaded, {}", contract_line(f.contract())))
        .map_err(|e| e.to_string())
}

fn inspect(path: &str, check: bool) -> ExitCode {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    let Some(kind) = family(&data) else {
        eprintln!("{path}: not an FT-BFS snapshot (bad magic)");
        return ExitCode::from(1);
    };
    let layout = match snapshot_layout(&data) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{path}: {kind} v{} snapshot, {} bytes",
        layout.version,
        data.len()
    );
    println!("{}", contract_line(layout.contract));
    println!(
        "fingerprint {:#018x}, base payload bytes {}..{}",
        layout.fingerprint, layout.base.start, layout.base.end
    );
    let mut table = Table::new(
        "section table (checksums validated on parse)",
        &["kind", "offset", "len", "checksum"],
    );
    for s in &layout.sections {
        table.row(vec![
            fourcc(s.kind),
            s.offset.to_string(),
            s.len.to_string(),
            format!("{:#018x}", s.checksum),
        ]);
    }
    table.print();
    if check {
        return report_check(path, &data);
    }
    ExitCode::SUCCESS
}

fn report_check(path: &str, data: &[u8]) -> ExitCode {
    match deep_validate(data) {
        Ok(how) => {
            println!("check ok: {how}, full semantic validation passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: CHECK FAILED: {e}");
            ExitCode::from(1)
        }
    }
}

fn verify(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|d| deep_validate(&d))
        {
            Ok(how) => println!("{path}: ok ({how})"),
            Err(e) => {
                println!("{path}: FAIL ({e})");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn scrape(path: &str, as_json: bool) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(1);
        }
    };
    match TelemetrySnapshot::from_json(&text) {
        Ok(snapshot) => {
            if as_json {
                print!("{}", snapshot.to_json());
            } else {
                print!("{}", snapshot.to_prometheus());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: telemetry JSON parse failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ftbfs-snapshot inspect <snapshot> [--check]\n       \
         ftbfs-snapshot verify <snapshot>...\n       \
         ftbfs-snapshot scrape <telemetry.json> [--json]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match (args.first().map(String::as_str), positional.len()) {
        (Some("inspect"), 2) => inspect(positional[1], args.iter().any(|a| a == "--check")),
        (Some("verify"), n) if n >= 2 => {
            let paths: Vec<String> = positional[1..].iter().map(|s| s.to_string()).collect();
            verify(&paths)
        }
        (Some("scrape"), 2) => scrape(positional[1], args.iter().any(|a| a == "--json")),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbfs_graph::bytes::fnv1a64_words;
    use ftbfs_graph::{generators, VertexId};

    /// `data` stamped with `fingerprint` and its frame checksum recomputed
    /// (frame layout: the `ftbfs_oracle::snapshot` module docs), so every
    /// checksum passes and only the fingerprint disagrees with the base.
    fn restamped(data: &[u8], fingerprint: u64) -> Vec<u8> {
        let layout = snapshot_layout(data).expect("valid snapshot");
        let frame = layout.base.end + 8;
        let frame_end = frame + 12 + 28 * layout.sections.len();
        let mut out = data.to_vec();
        out[frame..frame + 8].copy_from_slice(&fingerprint.to_le_bytes());
        let check = fnv1a64_words(&out[frame..frame_end]);
        out[frame_end..frame_end + 8].copy_from_slice(&check.to_le_bytes());
        out
    }

    #[test]
    fn deep_validate_rejects_a_forged_fingerprint() {
        let g = generators::cycle(8);
        let bytes = FrozenStructure::from_edges(&g, &[VertexId(0)], 2, g.edges()).save();
        assert!(deep_validate(&bytes).is_ok());
        let layout = snapshot_layout(&bytes).unwrap();
        let forged = restamped(&bytes, layout.fingerprint ^ 1);
        assert!(snapshot_layout(&forged).is_ok(), "every checksum is valid");
        let why = deep_validate(&forged).unwrap_err();
        assert!(why.contains("fingerprint"), "{why}");
    }

    #[test]
    fn deep_validate_passes_every_golden() {
        for golden in [
            &include_bytes!("../../../oracle/testdata/golden_single_v2.ftbo")[..],
            &include_bytes!("../../../oracle/testdata/golden_approx_v2.ftbo")[..],
            &include_bytes!("../../../oracle/testdata/golden_multi_v2.ftbm")[..],
        ] {
            let how = deep_validate(golden).unwrap();
            assert!(how.starts_with("loaded, contract: "), "{how}");
        }
    }
}
