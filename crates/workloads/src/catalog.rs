//! The GEMM dimension catalog of Table I: common DL-inference GEMMs from
//! language models (BERT, GPT2) and recommendation models (DLRM/RM3).


/// A named weight-matrix shape from Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    pub model: &'static str,
    pub layer: &'static str,
    /// Weight dimensions (M × K).
    pub m: usize,
    pub k: usize,
    /// Representative batch sizes reported in Table I.
    pub batch_range: (usize, usize),
}

/// The full Table I.
pub fn table1() -> Vec<CatalogEntry> {
    vec![
        CatalogEntry { model: "BERT", layer: "MLP", m: 1024, k: 4096, batch_range: (1, 8) },
        CatalogEntry { model: "BERT", layer: "MLP", m: 4096, k: 1024, batch_range: (1, 8) },
        CatalogEntry { model: "BERT", layer: "Projection", m: 1024, k: 1024, batch_range: (1, 8) },
        CatalogEntry { model: "GPT2", layer: "MLP", m: 1600, k: 6400, batch_range: (1, 8) },
        CatalogEntry { model: "GPT2", layer: "MLP", m: 6400, k: 1600, batch_range: (1, 8) },
        CatalogEntry { model: "GPT2", layer: "Projection", m: 1600, k: 1600, batch_range: (1, 8) },
        CatalogEntry { model: "DLRM", layer: "Bottom MLP", m: 2560, k: 512, batch_range: (1, 256) },
        CatalogEntry { model: "DLRM", layer: "Bottom MLP", m: 512, k: 32, batch_range: (1, 256) },
        CatalogEntry { model: "DLRM", layer: "Top MLP", m: 512, k: 128, batch_range: (1, 256) },
        CatalogEntry { model: "DLRM", layer: "Top MLP", m: 128, k: 1, batch_range: (1, 256) },
    ]
}

/// The representative default GEMM used throughout §V ("By default, we use
/// 1024×4096").
pub fn default_weights() -> (usize, usize) {
    (1024, 4096)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter().filter(|e| e.model == "DLRM").count(), 4);
        assert!(t.iter().any(|e| e.m == 1024 && e.k == 4096));
        assert!(t.iter().any(|e| e.m == 1600 && e.k == 6400));
        // Language-model batches are small (1–8); DLRM goes to 256.
        for e in &t {
            match e.model {
                "DLRM" => assert_eq!(e.batch_range, (1, 256)),
                _ => assert_eq!(e.batch_range, (1, 8)),
            }
        }
    }
}
