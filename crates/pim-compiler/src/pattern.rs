//! Pattern matching over decoder graphs (paper Fig. 12).
//!
//! PIMphony's custom compiler passes detect transformer decoder patterns —
//! the attention pair (`QKᵀ` → softmax → `SV`) and the FC/FFN GEMVs — and
//! hand them to the PIM lowering pipeline.

use crate::ir::{DecoderGraph, OpId, OpKind};

/// A matched attention subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionMatch {
    /// The `QKᵀ` op.
    pub qkt: OpId,
    /// The softmax between the kernels.
    pub softmax: OpId,
    /// The `SV` op.
    pub sv: OpId,
    /// Heads.
    pub heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// GQA group size.
    pub gqa_group: u32,
}

/// A matched FC kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FcMatch {
    /// The GEMV op.
    pub op: OpId,
    /// Output dimension.
    pub dout: u32,
    /// Input dimension.
    pub din: u32,
}

/// Finds every `QKᵀ → softmax → SV` chain in the graph.
pub fn match_attention(graph: &DecoderGraph) -> Vec<AttentionMatch> {
    let mut out = Vec::new();
    for sv in graph.ops() {
        let (heads, head_dim, gqa_group) = match sv.kind {
            OpKind::Sv {
                heads,
                head_dim,
                gqa_group,
            } => (heads, head_dim, gqa_group),
            _ => continue,
        };
        // SV's first input should be a softmax fed by a matching QkT.
        let Some(sm) = sv
            .inputs
            .iter()
            .filter_map(|&i| graph.op(i))
            .find(|o| o.kind == OpKind::Softmax)
        else {
            continue;
        };
        let Some(qkt) = sm.inputs.iter().filter_map(|&i| graph.op(i)).find(|o| {
            matches!(o.kind, OpKind::QkT { heads: h, head_dim: d, gqa_group: g }
                if h == heads && d == head_dim && g == gqa_group)
        }) else {
            continue;
        };
        out.push(AttentionMatch {
            qkt: qkt.id,
            softmax: sm.id,
            sv: sv.id,
            heads,
            head_dim,
            gqa_group,
        });
    }
    out
}

/// Finds every dense GEMV (projections and FFN matmuls).
pub fn match_fc(graph: &DecoderGraph) -> Vec<FcMatch> {
    graph
        .ops()
        .iter()
        .filter_map(|o| match o.kind {
            OpKind::Gemv { dout, din } => Some(FcMatch {
                op: o.id,
                dout,
                din,
            }),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::{LLM_72B_128K_GQA, LLM_7B_32K};

    #[test]
    fn finds_the_attention_chain() {
        let g = DecoderGraph::decoder_layer(&LLM_7B_32K);
        let m = match_attention(&g);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].heads, 32);
        assert_eq!(m[0].gqa_group, 1);
        assert!(m[0].qkt < m[0].softmax && m[0].softmax < m[0].sv);
    }

    #[test]
    fn finds_all_fc_kernels() {
        let g = DecoderGraph::decoder_layer(&LLM_7B_32K);
        assert_eq!(match_fc(&g).len(), 7);
    }

    #[test]
    fn gqa_metadata_propagates() {
        let g = DecoderGraph::decoder_layer(&LLM_72B_128K_GQA);
        let m = match_attention(&g);
        assert_eq!(m[0].gqa_group, 8);
        assert_eq!(m[0].head_dim, 128);
    }

    #[test]
    fn no_match_without_softmax_link() {
        let mut g = DecoderGraph::new();
        let a = g.add(
            OpKind::QkT {
                heads: 2,
                head_dim: 4,
                gqa_group: 1,
            },
            vec![],
            "qkt",
        );
        let _ = g.add(
            OpKind::Sv {
                heads: 2,
                head_dim: 4,
                gqa_group: 1,
            },
            vec![a],
            "sv",
        );
        assert!(match_attention(&g).is_empty());
    }

    #[test]
    fn mismatched_shapes_do_not_match() {
        let mut g = DecoderGraph::new();
        let a = g.add(
            OpKind::QkT {
                heads: 2,
                head_dim: 4,
                gqa_group: 1,
            },
            vec![],
            "qkt",
        );
        let s = g.add(OpKind::Softmax, vec![a], "sm");
        let _ = g.add(
            OpKind::Sv {
                heads: 4,
                head_dim: 4,
                gqa_group: 1,
            },
            vec![s],
            "sv",
        );
        assert!(match_attention(&g).is_empty());
    }
}
