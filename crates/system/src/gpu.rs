//! GPU baseline: A100s with flash-decoding + paged-attention (Fig. 20).
//!
//! A roofline model: FC layers are bounded by the maximum of compute time
//! and weight-streaming time; flash-decoding attention reads the KV cache
//! once per step at an efficiency factor; paged-attention makes batch
//! admission actual-size (like DPA). Memory is matched to the PIM system
//! under comparison (two A100-80GB for 7B, eight for 72B).

use llm_model::ModelConfig;
use workload::Trace;

/// A multi-GPU system description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSystem {
    /// Number of GPUs (tensor-parallel).
    pub gpus: u32,
    /// Peak fp16 FLOP/s per GPU.
    pub flops: f64,
    /// HBM bandwidth per GPU, bytes/s.
    pub mem_bw: f64,
    /// HBM capacity per GPU, bytes.
    pub capacity: u64,
    /// Achievable fraction of peak compute on GEMV/GEMM-mixed decode.
    pub compute_eff: f64,
    /// Achievable fraction of peak bandwidth for flash-decoding reads.
    pub bw_eff: f64,
}

impl GpuSystem {
    /// `n` A100-80GB GPUs.
    pub fn a100(n: u32) -> Self {
        GpuSystem {
            gpus: n,
            flops: 312e12,
            mem_bw: 2.0e12,
            capacity: 80 * (1 << 30),
            compute_eff: 0.5,
            bw_eff: 0.8,
        }
    }

    /// Memory-matched configuration for the paper's comparison: two A100s
    /// for 7B models, eight for 72B.
    pub fn matched_for(model: &ModelConfig) -> Self {
        Self::a100(if model.hidden_dim >= 8192 { 8 } else { 2 })
    }

    /// KV bytes available after weights.
    pub fn kv_capacity(&self, model: &ModelConfig) -> u64 {
        (u64::from(self.gpus) * self.capacity).saturating_sub(model.weight_bytes())
    }

    /// Seconds for one decode iteration of `batch` requests at the given
    /// token counts.
    pub fn iteration_seconds(&self, model: &ModelConfig, batch_tokens: &[u64]) -> f64 {
        let b = batch_tokens.len() as f64;
        if batch_tokens.is_empty() {
            return 0.0;
        }
        let d = f64::from(model.hidden_dim);
        let kvd = f64::from(model.kv_heads() * model.head_dim);
        let f = f64::from(model.ffn_dim);
        let fc_weights = (2.0 * d * d + 2.0 * d * kvd + 3.0 * d * f) * f64::from(model.dtype_bytes);
        let fc_flops = 2.0 * b * (2.0 * d * d + 2.0 * d * kvd + 3.0 * d * f);
        let agg_flops = f64::from(self.gpus) * self.flops * self.compute_eff;
        let agg_bw = f64::from(self.gpus) * self.mem_bw * self.bw_eff;
        let fc = (fc_flops / agg_flops).max(fc_weights / agg_bw);
        // Flash-decoding: each step streams every request's per-layer KV.
        let kv_bytes: f64 = batch_tokens
            .iter()
            .map(|&t| model.kv_bytes(t) as f64 / f64::from(model.layers))
            .sum();
        let attn = kv_bytes / agg_bw;
        f64::from(model.layers) * (fc + attn)
    }

    /// Serves `trace` in waves (paged-attention admission) and returns
    /// decode throughput in tokens/second.
    pub fn throughput(&self, model: &ModelConfig, trace: &Trace) -> f64 {
        let capacity = self.kv_capacity(model);
        let reqs = trace.requests();
        let mut idx = 0usize;
        let mut seconds = 0.0f64;
        let mut tokens = 0u64;
        while idx < reqs.len() {
            // Paged-attention: admit by actual final size.
            let mut used = 0u64;
            let mut n = 0usize;
            for r in &reqs[idx..] {
                let need = model.kv_bytes(r.final_len());
                if n > 0 && used + need > capacity {
                    break;
                }
                used += need;
                n += 1;
                if used >= capacity {
                    break;
                }
            }
            let wave = &reqs[idx..idx + n.max(1)];
            idx += n.max(1);
            let decode_len = wave.iter().map(|r| r.decode_len).max().unwrap_or(0);
            let mut step = 0u64;
            let stride = 64u64;
            while step < decode_len {
                let chunk = stride.min(decode_len - step);
                let batch: Vec<u64> = wave
                    .iter()
                    .filter(|r| r.decode_len > step)
                    .map(|r| r.context_len + step)
                    .collect();
                if batch.is_empty() {
                    break;
                }
                seconds += self.iteration_seconds(model, &batch) * chunk as f64;
                tokens += batch.len() as u64 * chunk;
                step += chunk;
            }
        }
        if seconds > 0.0 {
            tokens as f64 / seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::{LLM_72B_32K, LLM_7B_32K};
    use workload::{Dataset, TraceBuilder};

    #[test]
    fn matched_sizes_follow_the_paper() {
        assert_eq!(GpuSystem::matched_for(&LLM_7B_32K).gpus, 2);
        assert_eq!(GpuSystem::matched_for(&LLM_72B_32K).gpus, 8);
    }

    #[test]
    fn iteration_slows_with_context() {
        let g = GpuSystem::a100(2);
        let short = g.iteration_seconds(&LLM_7B_32K, &[2048]);
        let long = g.iteration_seconds(&LLM_7B_32K, &[32 * 1024]);
        assert!(long > 1.8 * short, "{long} vs {short}");
    }

    #[test]
    fn batching_amortizes_weights() {
        let g = GpuSystem::a100(2);
        let solo = g.iteration_seconds(&LLM_7B_32K, &[8192]);
        let batch8 = g.iteration_seconds(&LLM_7B_32K, &[8192; 8]);
        // 8x the work in much less than 8x the time.
        assert!(batch8 < 6.0 * solo);
    }

    #[test]
    fn throughput_is_positive_on_real_traces() {
        let trace = TraceBuilder::new(Dataset::QmSum)
            .seed(1)
            .requests(16)
            .decode_len(32)
            .build();
        let g = GpuSystem::matched_for(&LLM_7B_32K);
        assert!(g.throughput(&LLM_7B_32K, &trace) > 0.0);
    }

    #[test]
    fn kv_capacity_subtracts_weights() {
        let g = GpuSystem::a100(2);
        assert!(g.kv_capacity(&LLM_7B_32K) < 2 * 80 * (1 << 30));
        assert!(g.kv_capacity(&LLM_7B_32K) > 100 * (1 << 30));
    }
}
