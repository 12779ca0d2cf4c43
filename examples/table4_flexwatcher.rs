//! Regenerates Table 4: FlexWatcher vs. a Discover-style binary
//! instrumenter on five BugBench-class programs.

use flextm_watcher::measure_all;

fn main() {
    println!("== Table 4: FlexWatcher (FxW) vs Discover (Dis) slowdowns ==");
    println!(
        "{:<10} {:>10} {:>8} {:>8} {:>9}",
        "Program", "detected", "FxW", "Dis", "bare cyc"
    );
    for row in measure_all() {
        let dis = match row.name {
            // The paper reports N/A: Discover does not support these.
            "Gzip-IV" | "Squid-ML" => "N/A".to_string(),
            _ => format!("{:.1}x", row.discover_slowdown()),
        };
        println!(
            "{:<10} {:>10} {:>7.2}x {:>8} {:>9}",
            row.name,
            row.detected,
            row.flexwatcher_slowdown(),
            dis,
            row.bare_cycles
        );
    }
    println!();
    println!("Paper reference: FxW 1.5x / 1.15x / 1.05x / 1.8x / 2.5x;");
    println!("Dis 75x / 17x / N/A / 65x / N/A.");
}
