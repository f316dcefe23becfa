//! Fig. 17: scalability with system capacity and context length
//! (LLM-7B-128K-GQA, 3-sigma context variation).

use bench::study::{best_factorization, Run};
use llm_model::LLM_7B_128K_GQA;
use system::{Scenario, SystemKind, Techniques, TenantSpec};
use workload::{Dataset, DatasetStats, Trace, TraceBuilder};

/// The fastest feasible (TP, PP) factorization of a `modules`-module
/// `kind` node serving `trace`.
fn best(kind: SystemKind, modules: u32, t: Techniques, trace: &Trace) -> Run {
    // The spec's tenant only satisfies validation: `trace` is served.
    let mut spec = Scenario::new(LLM_7B_128K_GQA.name)
        .tenant(TenantSpec::new("synthetic", Dataset::QmSum).requests(1));
    spec.system = kind;
    spec.techniques = t;
    spec.cluster.modules = modules;
    best_factorization(&spec, trace)
        .expect("valid scenario")
        .expect("a feasible factorization")
}

fn synthetic_trace(ctx: u64, n: usize) -> Trace {
    let stats = DatasetStats {
        name: "synthetic",
        suite: "synthetic",
        mean: ctx as f64,
        std: ctx as f64 * 0.15,
        max: ctx * 2,
        min: (ctx / 4).max(1),
    };
    TraceBuilder::from_stats(stats)
        .seed(11)
        .requests(n)
        .decode_len(24)
        .sigma_clip(3.0)
        .build()
}

fn main() {
    let mut sink = bench::MetricSink::new("fig17");
    bench::header("Fig. 17(a): throughput vs capacity at 64K context");
    for (kind, mods) in [
        (SystemKind::PimOnly, vec![8u32, 16, 32, 64]),
        (SystemKind::XpuPim, vec![4u32, 8, 16, 32]),
    ] {
        println!("\n{}", kind.name());
        println!(
            "{:<10} {:>10} {:>14} {:>14}",
            "modules", "capacity", "base tok/s", "phony tok/s"
        );
        for m in mods {
            let trace = synthetic_trace(64 * 1024, 24);
            let b = best(kind, m, Techniques::baseline(), &trace).report;
            let p = best(kind, m, Techniques::pimphony(), &trace);
            println!(
                "{:<10} {:>8}GB {:>14.1} {:>14.1}",
                m,
                p.materialized.evaluator.system().total_capacity() >> 30,
                b.tokens_per_second,
                p.report.tokens_per_second
            );
            sink.metric(
                format!("a/{}/m{m}/phony_tokens_per_second", kind.name()),
                p.report.tokens_per_second,
            );
        }
    }

    bench::header("Fig. 17(b): throughput vs context at 512GB");
    for kind in [SystemKind::PimOnly, SystemKind::XpuPim] {
        let modules = match kind {
            SystemKind::PimOnly => 32,
            SystemKind::XpuPim => 16,
        };
        println!("\n{}", kind.name());
        println!(
            "{:>9} {:>14} {:>14} {:>9}",
            "context", "base tok/s", "phony tok/s", "speedup"
        );
        for exp in [12u32, 14, 16, 18, 20] {
            let ctx = 1u64 << exp;
            let trace = synthetic_trace(ctx, 16);
            let b = best(kind, modules, Techniques::baseline(), &trace).report;
            let p = best(kind, modules, Techniques::pimphony(), &trace).report;
            println!(
                "{:>8}K {:>14.2} {:>14.2} {:>8.1}x",
                ctx / 1024,
                b.tokens_per_second,
                p.tokens_per_second,
                p.tokens_per_second / b.tokens_per_second.max(1e-12)
            );
            sink.metric(
                format!("b/{}/ctx{}K/speedup_x", kind.name(), ctx / 1024),
                p.tokens_per_second / b.tokens_per_second.max(1e-12),
            );
        }
    }

    bench::header("Fig. 17(c): attention vs FC time share (PIMphony, CENT 512GB)");
    println!("{:>9} {:>10} {:>10}", "context", "attn%", "fc%");
    for exp in [12u32, 14, 16, 18, 20] {
        let ctx = 1u64 << exp;
        let r = best(
            SystemKind::PimOnly,
            32,
            Techniques::pimphony(),
            &synthetic_trace(ctx, 8),
        )
        .report;
        let tot = (r.attn_seconds + r.fc_seconds).max(1e-12);
        println!(
            "{:>8}K {:>9.1}% {:>9.1}%",
            ctx / 1024,
            100.0 * r.attn_seconds / tot,
            100.0 * r.fc_seconds / tot
        );
        sink.metric(
            format!("c/ctx{}K/attn_share", ctx / 1024),
            r.attn_seconds / tot,
        );
    }
    println!("\n(paper: 46.6x on CENT and 5.0x on NeuPIMs at 1M context)");
    sink.finish();
}
