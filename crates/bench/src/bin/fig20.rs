//! Fig. 20: throughput, GPU (A100 + flash-decoding + paged-attention) vs
//! PIMphony, memory-matched.

use bench::study::best_factorization;
use llm_model::{LLM_72B_128K_GQA, LLM_72B_32K, LLM_7B_128K_GQA, LLM_7B_32K};
use system::{GpuSystem, Scenario, TenantSpec};
use workload::Dataset;

fn main() {
    let mut sink = bench::MetricSink::new("fig20");
    bench::header("Fig. 20: GPU vs PIMphony throughput (memory-matched)");
    let cases = [
        (LLM_7B_32K, Dataset::QmSum),
        (LLM_72B_32K, Dataset::QmSum),
        (LLM_7B_128K_GQA, Dataset::MultiFieldQa),
        (LLM_72B_128K_GQA, Dataset::MultiFieldQa),
    ];
    println!(
        "{:<18} {:<14} {:>6} {:>12} {:>14} {:>9}",
        "model", "dataset", "GPUs", "GPU tok/s", "phony tok/s", "speedup"
    );
    for (model, dataset) in cases {
        let trace = bench::trace_for(dataset, 24, 32);
        let gpu = GpuSystem::matched_for(&model);
        let g = gpu.throughput(&model, &trace);
        // PIMphony at its best (TP, PP), like the Fig. 13 ladder. The
        // spec's tenant only satisfies validation: `trace` is served.
        let spec = Scenario::new(model.name).tenant(TenantSpec::new("paper", dataset).requests(1));
        let p = &best_factorization(&spec, &trace)
            .expect("valid scenario")
            .expect("a feasible factorization")
            .report;
        println!(
            "{:<18} {:<14} {:>6} {:>12.1} {:>14.1} {:>8.2}x",
            model.name,
            dataset.name(),
            gpu.gpus,
            g,
            p.tokens_per_second,
            p.tokens_per_second / g.max(1e-12)
        );
        sink.metric(format!("{}/gpu_tokens_per_second", model.name), g);
        sink.metric(
            format!("{}/phony_tokens_per_second", model.name),
            p.tokens_per_second,
        );
        sink.metric(
            format!("{}/speedup_x", model.name),
            p.tokens_per_second / g.max(1e-12),
        );
    }
    println!("(paper: PIMphony leads, larger on non-GQA; 72B narrows the FC gap)");
    sink.finish();
}
