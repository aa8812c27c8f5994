//! `loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds `cqsep-router`/`cqsep-serve` from this checkout, runs one
//! workload against them, and prints one JSON result as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. Exits nonzero on any wrong
//! output or failed request.

use loadbench::fleet::{build_router, repo_root};
use loadbench::gen::Workload;
use loadbench::{report, timed, trace};
use std::time::Duration;

const USAGE: &str = "usage: loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad {flag} value {value:?}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("loadbench: refusing to measure a debug build (use cargo run --release)");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let facts = report::facts(&repo_root());
    eprintln!("loadbench: {facts}");
    let window = Duration::from_secs(args.seconds);
    let outcome = build_router().and_then(|router| {
        if args.trace {
            trace::run(&router, args.workload, args.seed, window)
        } else {
            timed::run(&router, args.workload, args.seed, window)
        }
    });
    match outcome {
        Ok(outcome) => {
            for p in &outcome.problems {
                eprintln!("loadbench: FAIL: {p}");
            }
            let result = outcome.to_json();
            match report::record(&facts, args.workload, args.seed, args.trace, &result) {
                Ok(path) => eprintln!("loadbench: result recorded in {}", path.display()),
                Err(e) => eprintln!("loadbench: cannot record the result: {e}"),
            }
            println!("{result}");
            if !outcome.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            std::process::exit(1);
        }
    }
}
