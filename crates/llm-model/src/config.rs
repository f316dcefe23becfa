//! Model configurations (paper Table I).

/// A decoder-only transformer configuration.
///
/// Field names follow Table I: `nl` layers, `nh` attention heads of
/// dimension `dh`, FC dimensions `d_in`/`d_out` (hidden and FFN widths),
/// optional GQA with group size `g`, and the advertised context window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Decoder layers (`n_l`).
    pub layers: u32,
    /// Attention heads (`n_h`).
    pub heads: u32,
    /// Per-head feature dimension (`d_h`).
    pub head_dim: u32,
    /// Hidden (model) dimension (`d_in`).
    pub hidden_dim: u32,
    /// FFN intermediate dimension (`d_out` of the up-projection).
    pub ffn_dim: u32,
    /// GQA group size `g` (query heads per KV head); 1 = MHA.
    pub gqa_group: u32,
    /// Advertised context window in tokens.
    pub context_window: u64,
    /// Bytes per parameter / activation element (fp16 = 2).
    pub dtype_bytes: u32,
}

/// LLM-7B without GQA, 32K window (Qwen1.5-7B flavour).
pub const LLM_7B_32K: ModelConfig = ModelConfig {
    name: "LLM-7B-32K",
    layers: 32,
    heads: 32,
    head_dim: 128,
    hidden_dim: 4096,
    ffn_dim: 12288,
    gqa_group: 1,
    context_window: 32 * 1024,
    dtype_bytes: 2,
};

/// LLM-7B with GQA (g = 4), 128K window (Llama3.1-8B flavour).
pub const LLM_7B_128K_GQA: ModelConfig = ModelConfig {
    name: "LLM-7B-128K-GQA",
    layers: 32,
    heads: 32,
    head_dim: 128,
    hidden_dim: 4096,
    ffn_dim: 12288,
    gqa_group: 4,
    context_window: 128 * 1024,
    dtype_bytes: 2,
};

/// LLM-72B without GQA, 32K window (Qwen1.5-72B flavour).
pub const LLM_72B_32K: ModelConfig = ModelConfig {
    name: "LLM-72B-32K",
    layers: 80,
    heads: 64,
    head_dim: 128,
    hidden_dim: 8192,
    ffn_dim: 24576,
    gqa_group: 1,
    context_window: 32 * 1024,
    dtype_bytes: 2,
};

/// LLM-72B with GQA (g = 8), 128K window (Llama3.1-70B flavour).
pub const LLM_72B_128K_GQA: ModelConfig = ModelConfig {
    name: "LLM-72B-128K-GQA",
    layers: 80,
    heads: 64,
    head_dim: 128,
    hidden_dim: 8192,
    ffn_dim: 24576,
    gqa_group: 8,
    context_window: 128 * 1024,
    dtype_bytes: 2,
};

impl ModelConfig {
    /// The Table I model zoo.
    pub fn table1() -> [ModelConfig; 4] {
        [LLM_7B_32K, LLM_7B_128K_GQA, LLM_72B_32K, LLM_72B_128K_GQA]
    }

    /// KV heads (`n_h / g`).
    pub fn kv_heads(&self) -> u32 {
        self.heads / self.gqa_group
    }

    /// Whether the model uses grouped-query attention.
    pub fn uses_gqa(&self) -> bool {
        self.gqa_group > 1
    }

    /// KV-cache bytes for one request at context length `tokens`:
    /// `2 (K and V) * n_l * kv_heads * d_h * tokens * dtype`.
    pub fn kv_bytes(&self, tokens: u64) -> u64 {
        2 * u64::from(self.layers)
            * u64::from(self.kv_heads())
            * u64::from(self.head_dim)
            * tokens
            * u64::from(self.dtype_bytes)
    }

    /// Total parameter count (attention projections + FFN + embeddings
    /// ignored; decoder weights dominate).
    pub fn param_count(&self) -> u64 {
        let d = u64::from(self.hidden_dim);
        let kv_proj = u64::from(self.kv_heads() * self.head_dim) * d;
        let qo_proj = 2 * d * d;
        // Gated FFN: up, gate, down.
        let ffn = 3 * d * u64::from(self.ffn_dim);
        u64::from(self.layers) * (qo_proj + 2 * kv_proj + ffn)
    }

    /// Model weight bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.param_count() * u64::from(self.dtype_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shapes() {
        assert_eq!(LLM_7B_32K.layers, 32);
        assert_eq!(LLM_7B_32K.heads, 32);
        assert_eq!(LLM_7B_32K.head_dim, 128);
        assert_eq!(LLM_72B_32K.layers, 80);
        assert_eq!(LLM_72B_32K.heads, 64);
        assert_eq!(LLM_7B_128K_GQA.gqa_group, 4);
        assert_eq!(LLM_72B_128K_GQA.gqa_group, 8);
    }

    #[test]
    fn kv_heads_divide_heads() {
        for m in ModelConfig::table1() {
            assert_eq!(m.heads % m.gqa_group, 0);
            assert_eq!(m.kv_heads() * m.gqa_group, m.heads);
        }
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let mha = LLM_7B_32K.kv_bytes(32 * 1024);
        let gqa = LLM_7B_128K_GQA.kv_bytes(32 * 1024);
        assert_eq!(mha, gqa * 4);
    }

    #[test]
    fn kv_bytes_hand_check() {
        // 7B GQA at 128K: 2 * 32 * 8 * 128 * 131072 * 2 = 16 GiB.
        let b = LLM_7B_128K_GQA.kv_bytes(128 * 1024);
        assert_eq!(b, 16 * (1 << 30));
    }

    #[test]
    fn param_counts_are_in_the_right_ballpark() {
        let p7 = LLM_7B_32K.param_count() as f64 / 1e9;
        let p72 = LLM_72B_32K.param_count() as f64 / 1e9;
        assert!((4.0..=10.0).contains(&p7), "7B params: {p7}");
        assert!((50.0..=90.0).contains(&p72), "72B params: {p72}");
    }
}
