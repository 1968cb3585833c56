//! Regenerates every shaped experiment table (DESIGN.md §4).
//!
//! Usage:
//!   cargo run -p legion-apps --release --bin experiments          # all
//!   cargo run -p legion-apps --release --bin experiments E-F7 E-F8

use legion_apps::experiments;

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let tables = experiments::run_all();
    let mut printed = 0;
    for t in &tables {
        if filters.is_empty() || filters.iter().any(|f| t.id.eq_ignore_ascii_case(f)) {
            println!("{t}");
            printed += 1;
        }
    }
    if printed == 0 {
        eprintln!(
            "no experiment matched {filters:?}; available: {}",
            tables.iter().map(|t| t.id.as_str()).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(1);
    }
}
