//! Experiment driver: regenerates every experiment table as markdown on
//! stdout (one table per module of `sgs_bench::experiments`).
//!
//! ```sh
//! cargo run -p sgs-bench --release --bin experiments             # all, full size
//! cargo run -p sgs-bench --release --bin experiments -- --quick  # all, reduced
//! cargo run -p sgs-bench --release --bin experiments -- e2 e7   # subset
//! cargo run -p sgs-bench --release --bin experiments -- --markdown > tables.md
//! ```

use sgs_bench::registry;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let save: Option<String> = args
        .iter()
        .position(|a| a == "--save")
        .and_then(|i| args.get(i + 1).cloned());
    let selected: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && args
                    .get(i.wrapping_sub(1))
                    .map(|p| p != "--save")
                    .unwrap_or(true)
        })
        .map(|(_, a)| a)
        .collect();
    let mut saved = String::new();

    let mut total = Instant::now().elapsed();
    for exp in registry() {
        if !selected.is_empty() && !selected.iter().any(|s| s.as_str() == exp.id) {
            continue;
        }
        let start = Instant::now();
        let table = (exp.run)(quick);
        let dt = start.elapsed();
        total += dt;
        saved.push_str(&table.to_markdown());
        saved.push('\n');
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("\n[{}] {}", exp.id, exp.claim);
            println!("{table}");
            println!("  ({:.1}s)", dt.as_secs_f64());
        }
    }
    if let Some(path) = save {
        std::fs::write(&path, &saved).expect("write markdown tables");
        println!("markdown tables written to {path}");
    }
    if !markdown {
        println!(
            "\ntotal: {:.1}s{}",
            total.as_secs_f64(),
            if quick { " (quick mode)" } else { "" }
        );
    }
}
