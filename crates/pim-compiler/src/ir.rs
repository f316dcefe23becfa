//! Typed IR for transformer decoder layers.
//!
//! A [`DecoderGraph`] is a small SSA-ish DAG of [`Op`]s. It exists to give
//! the pattern-matching pass (paper Fig. 12: "PIM-amenable kernel
//! detection") something faithful to match against; it is deliberately
//! minimal compared to MLIR.

use llm_model::ModelConfig;

/// Index of an op within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

/// Operation kinds appearing in decoder-layer graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Dense projection / FC layer: `out[dout] = W[dout×din]·x`.
    Gemv {
        /// Output dimension.
        dout: u32,
        /// Input dimension.
        din: u32,
    },
    /// Attention score kernel over the (dynamic-length) KV cache.
    QkT {
        /// Query heads participating.
        heads: u32,
        /// Per-head dimension.
        head_dim: u32,
        /// GQA group size.
        gqa_group: u32,
    },
    /// Softmax over scores (EPU-executed).
    Softmax,
    /// Attention value kernel over the KV cache.
    Sv {
        /// Query heads participating.
        heads: u32,
        /// Per-head dimension.
        head_dim: u32,
        /// GQA group size.
        gqa_group: u32,
    },
    /// Elementwise activation (SiLU/GeLU; AF-unit LUT on PIM).
    Activation,
    /// Residual add / elementwise combine.
    Elementwise,
}

impl OpKind {
    /// Whether the op is a memory-bound GEMV-class kernel PIM should own.
    pub fn is_pim_amenable(&self) -> bool {
        matches!(
            self,
            OpKind::Gemv { .. } | OpKind::QkT { .. } | OpKind::Sv { .. }
        )
    }

    /// Whether the op touches the dynamic-length KV cache.
    pub fn is_attention_kernel(&self) -> bool {
        matches!(self, OpKind::QkT { .. } | OpKind::Sv { .. })
    }
}

/// One operation with its dataflow inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The op's id.
    pub id: OpId,
    /// Operation kind and shape.
    pub kind: OpKind,
    /// Producer ops.
    pub inputs: Vec<OpId>,
    /// Debug label.
    pub label: &'static str,
}

/// A dataflow graph for one (or more) decoder layers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecoderGraph {
    ops: Vec<Op>,
}

impl DecoderGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an op, returning its id.
    pub fn add(&mut self, kind: OpKind, inputs: Vec<OpId>, label: &'static str) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Op {
            id,
            kind,
            inputs,
            label,
        });
        id
    }

    /// The ops in insertion (topological) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Looks up an op.
    pub fn op(&self, id: OpId) -> Option<&Op> {
        self.ops.get(id.0 as usize)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the graph has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Builds the canonical single-decoder-layer graph for `model`:
    /// Q/K/V projections → `QKᵀ` → softmax → `SV` → output projection →
    /// gated FFN, with residual adds.
    pub fn decoder_layer(model: &ModelConfig) -> Self {
        let mut g = DecoderGraph::new();
        let d = model.hidden_dim;
        let kv_dim = model.kv_heads() * model.head_dim;
        let input = g.add(OpKind::Elementwise, vec![], "layer-in");
        let q = g.add(OpKind::Gemv { dout: d, din: d }, vec![input], "q-proj");
        let k = g.add(
            OpKind::Gemv {
                dout: kv_dim,
                din: d,
            },
            vec![input],
            "k-proj",
        );
        let v = g.add(
            OpKind::Gemv {
                dout: kv_dim,
                din: d,
            },
            vec![input],
            "v-proj",
        );
        let qkt = g.add(
            OpKind::QkT {
                heads: model.heads,
                head_dim: model.head_dim,
                gqa_group: model.gqa_group,
            },
            vec![q, k],
            "qkt",
        );
        let sm = g.add(OpKind::Softmax, vec![qkt], "softmax");
        let sv = g.add(
            OpKind::Sv {
                heads: model.heads,
                head_dim: model.head_dim,
                gqa_group: model.gqa_group,
            },
            vec![sm, v],
            "sv",
        );
        let o = g.add(OpKind::Gemv { dout: d, din: d }, vec![sv], "o-proj");
        let res1 = g.add(OpKind::Elementwise, vec![input, o], "residual-1");
        let up = g.add(
            OpKind::Gemv {
                dout: model.ffn_dim,
                din: d,
            },
            vec![res1],
            "ffn-up",
        );
        let gate = g.add(
            OpKind::Gemv {
                dout: model.ffn_dim,
                din: d,
            },
            vec![res1],
            "ffn-gate",
        );
        let act = g.add(OpKind::Activation, vec![up, gate], "ffn-act");
        let down = g.add(
            OpKind::Gemv {
                dout: d,
                din: model.ffn_dim,
            },
            vec![act],
            "ffn-down",
        );
        let _res2 = g.add(OpKind::Elementwise, vec![res1, down], "residual-2");
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_model::LLM_7B_32K;

    #[test]
    fn decoder_layer_has_expected_shape() {
        let g = DecoderGraph::decoder_layer(&LLM_7B_32K);
        assert_eq!(g.len(), 14);
        let gemvs = g
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Gemv { .. }))
            .count();
        assert_eq!(gemvs, 7, "q,k,v,o + up,gate,down");
        assert!(g.ops().iter().any(|o| matches!(o.kind, OpKind::QkT { .. })));
        assert!(g.ops().iter().any(|o| matches!(o.kind, OpKind::Sv { .. })));
    }

    #[test]
    fn inputs_reference_earlier_ops_only() {
        let g = DecoderGraph::decoder_layer(&LLM_7B_32K);
        for op in g.ops() {
            for inp in &op.inputs {
                assert!(inp.0 < op.id.0, "{:?} uses later op {:?}", op.id, inp);
            }
        }
    }

    #[test]
    fn amenability_classification() {
        assert!(OpKind::Gemv { dout: 1, din: 1 }.is_pim_amenable());
        assert!(OpKind::QkT {
            heads: 1,
            head_dim: 1,
            gqa_group: 1
        }
        .is_attention_kernel());
        assert!(!OpKind::Softmax.is_pim_amenable());
        assert!(!OpKind::Gemv { dout: 1, din: 1 }.is_attention_kernel());
    }

    #[test]
    fn gqa_projection_dims_shrink() {
        let g = DecoderGraph::decoder_layer(&llm_model::LLM_7B_128K_GQA);
        let k = g.ops().iter().find(|o| o.label == "k-proj").unwrap();
        match k.kind {
            OpKind::Gemv { dout, .. } => assert_eq!(dout, 8 * 128),
            _ => panic!("k-proj must be a GEMV"),
        }
    }
}
