//! Operator graphs of the four end-to-end models (paper Table II, §V-B).
//!
//! GEMMs of fully-connected and projection layers are PIM-eligible; all
//! other operators — embeddings, batched attention GEMMs (tiny at sequence
//! length 8), GELU/softmax/layernorm, concatenation and tensor
//! reorganization — execute on the CPU (`CPU_Other` in Fig. 8).

use stepstone_core::GemmSpec;

/// One operator in a model graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A PIM-eligible weight GEMM.
    Gemm(GemmSpec),
    /// CPU-side work characterized by its memory and compute footprint.
    CpuOp { name: &'static str, bytes: u64, flops: u64 },
}

impl Op {
    fn gelu(elems: usize) -> Op {
        Op::CpuOp { name: "gelu", bytes: (elems * 8) as u64, flops: (elems * 8) as u64 }
    }

    fn layernorm(elems: usize) -> Op {
        Op::CpuOp { name: "layernorm", bytes: (elems * 8) as u64, flops: (elems * 6) as u64 }
    }

    fn softmax(elems: usize) -> Op {
        Op::CpuOp { name: "softmax", bytes: (elems * 8) as u64, flops: (elems * 5) as u64 }
    }

    fn reorg(bytes: u64) -> Op {
        Op::CpuOp { name: "reorg", bytes, flops: 0 }
    }

    fn batched_gemm(batch: usize, m: usize, k: usize, n: usize) -> Op {
        let flops = (2 * batch * m * k * n) as u64;
        let bytes = (batch * (m * k + k * n + m * n) * 4) as u64;
        Op::CpuOp { name: "batched_gemm", bytes, flops }
    }
}

/// A whole inference workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    pub name: &'static str,
    pub ops: Vec<Op>,
}

impl ModelGraph {
    pub fn gemm_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Gemm(_))).count()
    }

    pub fn total_weight_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|o| match o {
                Op::Gemm(g) => g.a_bytes(),
                _ => 0,
            })
            .sum()
    }
}

/// One transformer block: 4 projections + attention (CPU) + 2 MLP GEMMs +
/// norms/GELU.
fn transformer_block(hidden: usize, ff: usize, heads: usize, seq: usize, bsz: usize) -> Vec<Op> {
    let n = seq * bsz;
    let head_dim = hidden / heads;
    vec![
        // Q, K, V projections.
        Op::Gemm(GemmSpec::new(hidden, hidden, n)),
        Op::Gemm(GemmSpec::new(hidden, hidden, n)),
        Op::Gemm(GemmSpec::new(hidden, hidden, n)),
        // Attention scores + context (tiny batched GEMMs → CPU).
        Op::batched_gemm(heads * bsz, seq, head_dim, seq),
        Op::softmax(heads * bsz * seq * seq),
        Op::batched_gemm(heads * bsz, seq, seq, head_dim),
        Op::reorg((3 * hidden * n * 4) as u64),
        // Output projection.
        Op::Gemm(GemmSpec::new(hidden, hidden, n)),
        Op::layernorm(hidden * n),
        // MLP up / GELU / down.
        Op::Gemm(GemmSpec::new(hidden, ff, n)),
        Op::gelu(ff * n),
        Op::Gemm(GemmSpec::new(ff, hidden, n)),
        Op::layernorm(hidden * n),
    ]
}

/// DLRM RM3 (Table II): bottom MLP 2560-512-32, top MLP 512-128-1, bsz 4.
/// §V-B: "The execution time of DLRM is dominated by a single FC layer
/// (92%)" — the 2560×512 bottom GEMM.
pub fn dlrm(bsz: usize) -> ModelGraph {
    let ops = vec![
        // Sparse embedding lookups + dense feature handling (CPU).
        Op::CpuOp { name: "embedding", bytes: (80 * 64 * bsz) as u64, flops: 0 },
        // Bottom MLP.
        Op::Gemm(GemmSpec::new(2560, 512, bsz)),
        Op::Gemm(GemmSpec::new(512, 32, bsz)),
        // Feature interaction (concat + small dot products).
        Op::reorg((512 * bsz * 4) as u64),
        // Top MLP.
        Op::Gemm(GemmSpec::new(512, 128, bsz)),
        Op::Gemm(GemmSpec::new(128, 16, bsz)),
    ];
    ModelGraph { name: "DLRM", ops }
}

/// BERT (Table II): 24 blocks, MLP 1024-4096-1024, 16 heads, seq 8, bsz 4.
/// §V-B: "For BERT, N becomes 32 in all FC layers."
pub fn bert(bsz: usize) -> ModelGraph {
    let mut ops = Vec::new();
    for _ in 0..24 {
        ops.extend(transformer_block(1024, 4096, 16, 8, bsz));
    }
    ModelGraph { name: "BERT", ops }
}

/// GPT2 (Table II): 48 blocks, MLP 1600-6400-1600, seq 8, bsz 4. Text
/// generation decodes one token at a time (KV-cached), so FC layers run at
/// N = bsz for each of the 8 generated tokens.
pub fn gpt2(bsz: usize) -> ModelGraph {
    let hidden = 1600;
    let ff = 6400;
    let mut ops = Vec::new();
    for _token in 0..8 {
        for _block in 0..48 {
            let n = bsz;
            ops.push(Op::Gemm(GemmSpec::new(hidden, hidden, n)));
            ops.push(Op::Gemm(GemmSpec::new(hidden, hidden, n)));
            ops.push(Op::Gemm(GemmSpec::new(hidden, hidden, n)));
            ops.push(Op::batched_gemm(25 * bsz, 1, 64, 8));
            ops.push(Op::softmax(25 * bsz * 8));
            ops.push(Op::batched_gemm(25 * bsz, 1, 8, 64));
            ops.push(Op::Gemm(GemmSpec::new(hidden, hidden, n)));
            ops.push(Op::layernorm(hidden * n));
            ops.push(Op::Gemm(GemmSpec::new(hidden, ff, n)));
            ops.push(Op::gelu(ff * n));
            ops.push(Op::Gemm(GemmSpec::new(ff, hidden, n)));
            ops.push(Op::layernorm(hidden * n));
        }
    }
    ModelGraph { name: "GPT2", ops }
}

/// XLM (Table II): 12 blocks, MLP 2048-8192-2048, seq 1→8, bsz 4. §V-B:
/// "the sequence length starts at 1 and increases by 1 up to the maximum
/// length (8) after each iteration", so N grows 4, 8, …, 32 — the dynamic
/// BG→DV level-switching scenario.
pub fn xlm(bsz: usize) -> ModelGraph {
    let mut ops = Vec::new();
    for seq in 1..=8usize {
        for _block in 0..12 {
            ops.extend(transformer_block(2048, 8192, 16, seq, bsz));
        }
    }
    ModelGraph { name: "XLM", ops }
}

/// All four Fig. 8 models at the paper's batch size.
pub fn all_models() -> Vec<ModelGraph> {
    vec![dlrm(4), gpt2(4), xlm(4), bert(4)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_has_24_blocks_of_6_gemms() {
        let m = bert(4);
        assert_eq!(m.gemm_count(), 24 * 6);
        // All FC layers run at N = 32.
        for op in &m.ops {
            if let Op::Gemm(g) = op {
                assert_eq!(g.n, 32);
            }
        }
    }

    #[test]
    fn gpt2_decodes_at_batch_4() {
        let m = gpt2(4);
        assert_eq!(m.gemm_count(), 8 * 48 * 6);
        for op in &m.ops {
            if let Op::Gemm(g) = op {
                assert_eq!(g.n, 4);
            }
        }
    }

    #[test]
    fn xlm_batch_grows_with_sequence() {
        let m = xlm(4);
        let ns: std::collections::BTreeSet<usize> = m
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Gemm(g) => Some(g.n),
                _ => None,
            })
            .collect();
        assert_eq!(ns, (1..=8).map(|s| 4 * s).collect());
    }

    #[test]
    fn dlrm_is_dominated_by_the_bottom_fc() {
        let m = dlrm(4);
        let weights: Vec<u64> = m
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Gemm(g) => Some(g.a_bytes()),
                _ => None,
            })
            .collect();
        let max = *weights.iter().max().unwrap();
        let total: u64 = weights.iter().sum();
        assert!(max as f64 / total as f64 > 0.9, "92% in one FC (§V-B)");
    }

    #[test]
    fn language_model_weights_are_main_memory_scale() {
        // The premise of §II: LM parameters exceed cache capacity (DLRM's
        // MLP weights are small — its main-memory data is the embeddings).
        for m in [bert(4), gpt2(4), xlm(4)] {
            assert!(m.total_weight_bytes() > 100 << 20, "{}", m.name);
        }
        assert!(dlrm(4).total_weight_bytes() < 32 << 20);
    }
}
