//! Pipeline benchmark for the broadcast-trees workspace.
//!
//! `pipebench --workload <plan-static|eval-large|service-churn> --seed N
//! --seconds S --trace 0|1` runs one workload as a closed loop with a
//! single client, checks every output with the independent checker in
//! [`check`], and prints one JSON result line last: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`. See README.md.

mod check;
mod plan;
mod service;
mod util;

use util::{Args, USAGE};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    util::quiet_known_fault();
    let mut report = match args.workload.as_str() {
        "plan-static" => plan::plan_static(&args),
        "eval-large" => plan::eval_large(&args),
        "service-churn" => service::service_churn(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let _ = std::fs::remove_dir(".bench_work");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sep = bcast_core::CutGenOptions::default().separation_threads;
    let mut info = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), (args.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("separation_threads".into(), sep.to_string()),
    ];
    info.append(&mut report.info);
    report.info = info;
    report.print();
}
