//! End-to-end and per-layer benchmark of the CoReDA serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload served_10k|paced_10k|batch_100k|durable_10k|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints readable result lines, then one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! traced run. Exits 1 when any output check fails. See `README.md`.

mod alloc;
mod env;
mod probe;
mod report;
mod stats;
mod traced;
mod workloads;

use report::{json_line, Report, END_TO_END, PER_LAYER};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                out.workloads = vec![w.ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "# env seed={} nproc={} cpu=\"{}\" l3={} jobs=1 rev={}",
        args.seed,
        env::nproc(),
        env::cpu_model(),
        env::l3_kib().map_or("unknown".into(), |k| format!("{}MiB", k / 1024)),
        env::revision()
    );
    let names: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut reports: Vec<Report> = Vec::new();
    for w in &args.workloads {
        let mut r = w.run(args.seed, args.seconds, args.trace);
        for &(name, ..) in names {
            let measured = r.value(name).is_some_and(f64::is_finite);
            r.check(measured, &format!("{name} measured"));
        }
        print!("{}", r.render());
        reports.push(r);
    }
    println!("{}", json_line(&reports, names, reports.len() > 1));
    if !reports.iter().all(Report::correct) {
        std::process::exit(1);
    }
}
