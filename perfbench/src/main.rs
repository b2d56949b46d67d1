//! `sgs-perfbench`: the Rust half of the end-to-end benchmark.
//!
//! ```text
//! sgs-perfbench gen   --workload W --seed S --dir D [--toy]  # inputs + plan.json
//! sgs-perfbench trace --workload W --seed S --dir D [--toy]  # traced run, JSON on stdout
//! ```
//!
//! `--toy` selects the smoke mode's tiny inputs.
//!
//! `perfbench/run.py` drives both; see `perfbench/README.md`.

mod traced;
mod tracer;
mod workloads;

use std::path::PathBuf;
use std::process::exit;
use workloads::Workload;

fn usage() -> ! {
    eprintln!("usage: sgs-perfbench <gen|trace> --workload W --seed S --dir D [--toy]");
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage())
    };
    let Some(workload) = Workload::parse(&flag("--workload")) else {
        usage()
    };
    let Ok(seed) = flag("--seed").parse::<u64>() else {
        usage()
    };
    let dir = PathBuf::from(flag("--dir"));
    let z = if argv.iter().any(|a| a == "--toy") {
        &workloads::TOY
    } else {
        &workloads::FULL
    };
    let result = match cmd.as_str() {
        "gen" => workloads::generate(workload, seed, z, &dir).map_err(|e| e.to_string()),
        "trace" => match workload {
            Workload::BatchInsertion | Workload::BatchTurnstile => {
                traced::batch_single(workload, seed, z, &dir)
            }
            Workload::BatchMulti => traced::batch_multi(seed, z, &dir),
            Workload::ServeMixed => traced::serve(seed, z, &dir),
        }
        .map(|report| println!("{}", report.to_json())),
        _ => usage(),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}
