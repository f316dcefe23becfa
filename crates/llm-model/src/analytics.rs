//! Decode-phase compute/memory analytics (paper Fig. 2).

use crate::config::ModelConfig;

/// Per-decode-step FLOPs, bytes, and footprint analytics for one model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeAnalytics {
    model: ModelConfig,
}

impl DecodeAnalytics {
    /// Creates analytics for `model`.
    pub fn new(model: ModelConfig) -> Self {
        DecodeAnalytics { model }
    }

    /// The analyzed model.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// FLOPs for one decode step of one request at context `tokens`
    /// (2 FLOPs per multiply-accumulate).
    pub fn flops_per_step(&self, tokens: u64) -> u64 {
        let m = &self.model;
        let d = u64::from(m.hidden_dim);
        let heads = u64::from(m.heads);
        let dh = u64::from(m.head_dim);
        // Projections: Q (d*d), K/V (d * kv_heads*dh), O (d*d).
        let proj = 2 * (2 * d * d + 2 * d * u64::from(m.kv_heads()) * dh);
        // Attention: QK^T + SV over the full context, all query heads.
        let attn = 2 * (2 * heads * dh * tokens);
        // Gated FFN: up, gate, down.
        let ffn = 2 * (3 * d * u64::from(m.ffn_dim));
        u64::from(m.layers) * (proj + attn + ffn)
    }

    /// Bytes moved for one decode step of a batch of `batch` requests, all
    /// at context `tokens`: weights are read once per step (batch-shared);
    /// the KV cache is read per request.
    pub fn bytes_per_step(&self, tokens: u64, batch: u64) -> u64 {
        self.model.weight_bytes() + batch * self.model.kv_bytes(tokens)
    }

    /// Compute intensity in FLOPs/byte for a batch decode step — the
    /// Fig. 2(a) curve. Falls with `tokens` because attention GEMV bytes
    /// grow while per-step FLOPs grow more slowly than weight reuse.
    pub fn compute_intensity(&self, tokens: u64, batch: u64) -> f64 {
        let flops = batch * self.flops_per_step(tokens);
        let bytes = self.bytes_per_step(tokens, batch);
        flops as f64 / bytes as f64
    }

    /// Total memory footprint (weights + batch KV caches) in bytes — the
    /// Fig. 2(b) surface.
    pub fn memory_footprint(&self, tokens: u64, batch: u64) -> u64 {
        self.model.weight_bytes() + batch * self.model.kv_bytes(tokens)
    }

    /// Fraction of decode-step FLOPs spent in Attention (vs FC) at context
    /// `tokens` — explains why long contexts make PIM the bottleneck
    /// (paper Fig. 17(c)).
    pub fn attention_flop_fraction(&self, tokens: u64) -> f64 {
        let m = &self.model;
        let attn =
            u64::from(m.layers) * 2 * (2 * u64::from(m.heads) * u64::from(m.head_dim) * tokens);
        attn as f64 / self.flops_per_step(tokens) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LLM_72B_32K, LLM_7B_128K_GQA, LLM_7B_32K};

    #[test]
    fn intensity_falls_with_context() {
        let a = DecodeAnalytics::new(LLM_7B_128K_GQA);
        let short = a.compute_intensity(1024, 8);
        let long = a.compute_intensity(128 * 1024, 8);
        assert!(long < short, "intensity should fall: {short} -> {long}");
        // GQA softens the drop; still expect a clear decline.
        assert!(short / long > 1.5, "ratio {:.2}", short / long);
        // Without GQA the collapse is much steeper.
        let b = DecodeAnalytics::new(crate::config::LLM_7B_32K);
        let ratio = b.compute_intensity(1024, 8) / b.compute_intensity(32 * 1024, 8);
        assert!(ratio > 2.0, "non-GQA ratio {ratio:.2}");
    }

    #[test]
    fn intensity_rises_with_batch_at_short_context() {
        let a = DecodeAnalytics::new(LLM_7B_32K);
        // At short context, batching amortizes weight reads.
        assert!(a.compute_intensity(512, 32) > a.compute_intensity(512, 1));
    }

    #[test]
    fn footprint_grows_with_context_and_batch() {
        let a = DecodeAnalytics::new(LLM_7B_32K);
        let base = a.memory_footprint(4096, 1);
        assert!(a.memory_footprint(32 * 1024, 1) > base);
        assert!(a.memory_footprint(4096, 16) > base);
    }

    #[test]
    fn a100_capacity_exceeded_at_long_context() {
        // Fig. 2(b): the dashed A100-80GB line is crossed by 7B workloads
        // at long context with modest batches.
        let a = DecodeAnalytics::new(LLM_7B_32K);
        let a100 = 80u64 * (1 << 30);
        assert!(a.memory_footprint(32 * 1024, 64) > a100);
        assert!(a.memory_footprint(2 * 1024, 4) < a100);
    }

    #[test]
    fn attention_dominates_flops_at_long_context() {
        let a = DecodeAnalytics::new(LLM_72B_32K);
        assert!(a.attention_flop_fraction(1024) < 0.3);
        assert!(a.attention_flop_fraction(512 * 1024) > 0.7);
    }

    #[test]
    fn flops_scale_linearly_in_layers() {
        let small = DecodeAnalytics::new(LLM_7B_32K);
        let mut half = LLM_7B_32K;
        half.layers = 16;
        let h = DecodeAnalytics::new(half);
        assert_eq!(small.flops_per_step(4096), 2 * h.flops_per_step(4096));
    }
}
