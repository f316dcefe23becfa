//! Instruction-stream footprint model (paper Fig. 10(c)).
//!
//! Conventional PIM systems compile one instruction per unit of work, so the
//! stream size grows linearly with token length — creating instruction
//! buffer pressure at long context. DPA's loop encoding keeps the stored
//! stream nearly constant. This module quantifies both.

/// Encoded size of one plain PIM instruction, in bytes.
///
/// Table III's argument set (ch-mask 4 B, op-size 2 B, opcode 1 B, address
/// fields) packs into a 16 B slot on AiMX-style hardware.
pub const PLAIN_INSTRUCTION_BYTES: u64 = 16;

/// Encoded size of a `Dyn-Loop` header (bound source + body length).
pub const DYN_LOOP_BYTES: u64 = 8;

/// Encoded size of a `Dyn-Modi` entry (target, field, stride, modulo).
pub const DYN_MODI_BYTES: u64 = 8;

/// Shape of one attention kernel for the size model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionShape {
    /// Per-head feature dimension (d_h).
    pub head_dim: u32,
    /// Channels per module sharing the token axis.
    pub channels: u32,
    /// Banks per channel.
    pub banks: u32,
    /// Elements per 32 B tile (16 for fp16).
    pub elems_per_tile: u32,
}

impl AttentionShape {
    /// AiMX-flavoured default: d_h=128, 16 channels, 16 banks, fp16 tiles.
    pub fn aimx_default() -> Self {
        AttentionShape {
            head_dim: 128,
            channels: 16,
            banks: 16,
            elems_per_tile: 16,
        }
    }

    /// Tokens handled per channel for a context of `tokens`.
    pub fn tokens_per_channel(&self, tokens: u64) -> u64 {
        tokens.div_ceil(u64::from(self.channels))
    }

    /// `MAC` commands per channel for one QKᵀ over `tokens` tokens:
    /// one MAC per (input tile × 16-token output group).
    pub fn qkt_macs_per_channel(&self, tokens: u64) -> u64 {
        let input_tiles = u64::from(self.head_dim.div_ceil(self.elems_per_tile));
        let out_groups = self
            .tokens_per_channel(tokens)
            .div_ceil(u64::from(self.banks));
        input_tiles * out_groups
    }
}

/// Stored instruction bytes for a *statically compiled* attention kernel
/// sized for `t_max` tokens: every `WR-INP`/`MAC`/`RD-OUT` is materialized.
pub fn static_stream_bytes(shape: &AttentionShape, t_max: u64) -> u64 {
    let input_tiles = u64::from(shape.head_dim.div_ceil(shape.elems_per_tile));
    let out_groups = shape
        .tokens_per_channel(t_max)
        .div_ceil(u64::from(shape.banks));
    let macs = shape.qkt_macs_per_channel(t_max);
    // WR-INP for each input tile, MAC per (tile x group), RD-OUT per group.
    (input_tiles + macs + out_groups) * PLAIN_INSTRUCTION_BYTES
}

/// Stored instruction bytes for the same kernel encoded with DPA:
/// input writes stay plain; the token loop collapses to one `Dyn-Loop`
/// with a body of `input_tiles` MACs + one RD-OUT and two `Dyn-Modi`s.
pub fn dpa_stream_bytes(shape: &AttentionShape) -> u64 {
    let input_tiles = u64::from(shape.head_dim.div_ceil(shape.elems_per_tile));
    let plain = input_tiles * PLAIN_INSTRUCTION_BYTES; // WR-INPs
    let body = (input_tiles + 1) * PLAIN_INSTRUCTION_BYTES; // MACs + RD-OUT
    plain + DYN_LOOP_BYTES + body + 2 * DYN_MODI_BYTES
}

/// Ratio of static to DPA stream size at a given `t_max` — the headline of
/// Fig. 10(c).
pub fn compression_ratio(shape: &AttentionShape, t_max: u64) -> f64 {
    static_stream_bytes(shape, t_max) as f64 / dpa_stream_bytes(shape) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_grows_linearly() {
        let s = AttentionShape::aimx_default();
        let a = static_stream_bytes(&s, 4096);
        let b = static_stream_bytes(&s, 8192);
        let c = static_stream_bytes(&s, 16384);
        assert!(b > a && c > b);
        // Approximately linear: doubling tokens ~doubles bytes.
        let r1 = b as f64 / a as f64;
        let r2 = c as f64 / b as f64;
        assert!((r1 - 2.0).abs() < 0.2, "ratio {r1}");
        assert!((r2 - 2.0).abs() < 0.2, "ratio {r2}");
    }

    #[test]
    fn dpa_is_constant_in_tokens() {
        let s = AttentionShape::aimx_default();
        // dpa_stream_bytes takes no token parameter by construction; the
        // compression ratio must therefore grow with t_max.
        assert!(compression_ratio(&s, 1 << 20) > compression_ratio(&s, 1 << 12));
    }

    #[test]
    fn compression_is_large_at_1m_tokens() {
        let s = AttentionShape::aimx_default();
        let ratio = compression_ratio(&s, 1 << 20);
        assert!(ratio > 1000.0, "expected >1000x at 1M tokens, got {ratio}");
    }

    #[test]
    fn qkt_mac_count_matches_hand_calculation() {
        let s = AttentionShape::aimx_default();
        // 16K tokens -> 1K per channel -> 64 output groups x 8 input tiles.
        assert_eq!(s.qkt_macs_per_channel(16 * 1024), 64 * 8);
    }

    #[test]
    fn tokens_per_channel_rounds_up() {
        let s = AttentionShape::aimx_default();
        assert_eq!(s.tokens_per_channel(17), 2);
        assert_eq!(s.tokens_per_channel(16), 1);
    }
}
