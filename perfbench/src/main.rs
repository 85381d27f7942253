//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale full|tiny]`
//!
//! Runs one workload, prints its digest and any failed checks, and ends
//! with one JSON result line. Exits 2 on a usage error, without a
//! result.

use std::process::ExitCode;

use mtia_core::seed::DEFAULT_SEED;
use mtia_perfbench::workloads::{Scale, Workload};
use mtia_perfbench::{measure, Options};

const USAGE: &str = "usage: perfbench --workload <planet|overload|codesign|pod> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--scale <full|tiny>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::Planet,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("not a non-negative number"))?
            }
            "--trace" => {
                opts.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                opts.scale = match value {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = measure(&opts);
    println!(
        "workload {} seed {} jobs {} digest {:016x}",
        opts.workload.name(),
        opts.seed,
        out.jobs,
        out.digest
    );
    println!(
        "job walls (s): {}",
        out.job_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
