//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload <build|serve-hot|scenario-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance stamp, the metric table, and as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  A traced run also writes its spans to
//! `perfbench/out/trace-<workload>.tsv`.  Exits 1 if any answer was wrong
//! (after printing the result) or the run could not complete, 2 on bad
//! arguments.

use ftbfs_perfbench::report::Report;
use ftbfs_perfbench::trace::Tracer;
use ftbfs_perfbench::workloads::{self, NAMES};
use ftbfs_perfbench::{common, Config};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    workload: String,
    config: Config,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {NAMES:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let traced = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
        },
    })
}

fn stamp(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"mode\": \"{}\", \"nproc\": {nproc}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"source_hash\": \"{}\", \"seconds\": {}}}",
        args.workload,
        args.config.seed,
        if args.config.traced {
            "release, traced"
        } else {
            "release, untraced"
        },
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_HASH"),
        args.config.seconds,
    )
}

fn write_spans(tracer: &Tracer, workload: &str, stamp: &str) -> Result<String, String> {
    let path = common::out_dir()?.join(format!("trace-{workload}.tsv"));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    tracer
        .write_tsv(&mut out, stamp)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut report = Report::default();
    let cfg = &args.config;
    match args.workload.as_str() {
        "build" => workloads::build::run(cfg, &mut tracer, &mut report)?,
        "serve-hot" => workloads::serve_hot::run(cfg, &mut tracer, &mut report)?,
        "scenario-cold" => workloads::scenario_cold::run(cfg, &mut tracer, &mut report)?,
        other => return Err(format!("unknown workload {other}")),
    }
    report.finish_end_to_end()?;
    if cfg.traced {
        let path = write_spans(&tracer, &args.workload, &stamp(args))?;
        report.line(format!("spans: {} written to {path}", tracer.spans().len()));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = report.print(&stamp(&args), args.config.traced) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} answers wrong or errored",
            report.failed, report.attempted
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
