//! Quickstart: serve a long-context trace on a PIM system, with and
//! without PIMphony, and print the headline comparison.
//!
//! Run with: `cargo run --example quickstart`

use pimphony::system::Techniques;
use pimphony::workload::{Dataset, DecodeSpec};
use pimphony::{Scenario, TenantSpec};

fn main() -> Result<(), String> {
    // A QMSum-like workload: 32 requests, 64 generated tokens each, on
    // the PIM-only system with all three PIMphony techniques.
    let phony = Scenario::new("LLM-7B-32K").tenant(
        TenantSpec::new("qmsum", Dataset::QmSum)
            .seed(1)
            .requests(32)
            .decode(DecodeSpec::Fixed(64)),
    );
    let mut baseline = phony.clone();
    baseline.techniques = Techniques::baseline();

    let phony = phony.materialize()?;
    println!(
        "workload: {} requests, mean context {:.0} tokens",
        phony.trace.len(),
        phony.trace.mean_context()
    );
    let rp = phony.run();
    let rb = baseline.materialize()?.run();
    println!(
        "\n{:<12} {:>12} {:>10} {:>10}",
        "config", "tokens/s", "MAC util", "capacity"
    );
    for (name, r) in [("baseline", &rb), ("PIMphony", &rp)] {
        println!(
            "{:<12} {:>12.1} {:>9.1}% {:>9.1}%",
            name,
            r.tokens_per_second,
            r.attn_utilization * 100.0,
            r.capacity_utilization * 100.0
        );
    }
    println!(
        "\nspeedup: {:.2}x",
        rp.tokens_per_second / rb.tokens_per_second
    );
    Ok(())
}
