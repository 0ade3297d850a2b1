//! Reference predictions for the correctness check.
//!
//! The reference is `CompiledModel` evaluated on a model's stored
//! parameters, read back from the registry entry files: the one the
//! server's TRAIN wrote and the forest entry the benchmark wrote.

use pmca_mlkit::export::ModelParams;
use pmca_mlkit::tree::NodeSpec;
use pmca_mlkit::CompiledModel;
use pmca_serve::registry::decode_entry;
use pmca_serve::StoredModel;
use std::path::Path;

/// Largest relative difference accepted between a reply and its reference.
pub const TOLERANCE: f64 = 1e-9;

/// One registered model, compiled for reference predictions.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The stored entry.
    pub stored: StoredModel,
    /// Its compiled form.
    pub compiled: CompiledModel,
}

impl Reference {
    /// The newest entry of `family` in the registry directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when no entry of that family decodes.
    pub fn load(dir: &Path, family: &str) -> Result<Reference, String> {
        let mut best: Option<StoredModel> = None;
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "model") {
                continue;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let model = decode_entry(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if model.key.family == family && best.as_ref().is_none_or(|b| b.version < model.version)
            {
                best = Some(model);
            }
        }
        Reference::new(best.ok_or_else(|| format!("no {family} model in {}", dir.display()))?)
    }

    /// Compile a stored entry.
    ///
    /// # Errors
    ///
    /// Returns a message when its parameters do not compile.
    pub fn new(stored: StoredModel) -> Result<Reference, String> {
        let compiled = CompiledModel::compile(&stored.params).map_err(|e| e.to_string())?;
        Ok(Reference { stored, compiled })
    }

    /// The served estimate for counts in feature order: the compiled
    /// prediction, clamped non-negative as the server clamps it.
    pub fn predict(&self, counts: &[f64]) -> f64 {
        self.compiled.predict_one(counts).max(0.0)
    }

    /// Tree nodes visited to predict `counts`, summed over the forest's
    /// trees (0 for a non-forest model).
    pub fn nodes_visited(&self, counts: &[f64]) -> usize {
        match &self.stored.params {
            ModelParams::Forest { trees, .. } => trees.iter().map(|t| path_length(t, counts)).sum(),
            _ => 0,
        }
    }
}

/// Nodes on the root-to-leaf path of one preorder tree.
fn path_length(tree: &[NodeSpec], row: &[f64]) -> usize {
    // Preorder: a split's left subtree starts right after it, and its
    // right subtree after the whole left subtree.
    fn subtree_end(tree: &[NodeSpec], at: usize) -> usize {
        match tree[at] {
            NodeSpec::Leaf { .. } => at + 1,
            NodeSpec::Split { .. } => subtree_end(tree, subtree_end(tree, at + 1)),
        }
    }
    let mut at = 0;
    let mut visited = 1;
    while let NodeSpec::Split { feature, threshold } = tree[at] {
        at = if row[feature] <= threshold {
            at + 1
        } else {
            subtree_end(tree, at + 1)
        };
        visited += 1;
    }
    visited
}

/// How one reply compared with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical.
    Exact,
    /// Within [`TOLERANCE`] relative.
    Close,
    /// Outside the tolerance, or not a number.
    Wrong,
}

/// Compare a served value with its reference.
pub fn verdict(expected: f64, served: f64) -> Verdict {
    if served.to_bits() == expected.to_bits() {
        Verdict::Exact
    } else if served.is_finite()
        && (served - expected).abs() <= TOLERANCE * expected.abs().max(f64::MIN_POSITIVE)
    {
        Verdict::Close
    } else {
        Verdict::Wrong
    }
}

/// Running tally of verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Bit-identical replies.
    pub exact: u64,
    /// Replies within tolerance but not bit-identical.
    pub close: u64,
    /// Replies that failed the check or were errors.
    pub failed: u64,
}

impl Tally {
    /// Count one verdict.
    pub fn note(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Exact => self.exact += 1,
            Verdict::Close => self.close += 1,
            Verdict::Wrong => self.failed += 1,
        }
    }

    /// Add another tally.
    pub fn add(&mut self, other: Tally) {
        self.exact += other.exact;
        self.close += other.close;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_separate_exact_close_and_wrong() {
        assert_eq!(verdict(1.5, 1.5), Verdict::Exact);
        assert_eq!(verdict(1.0, 1.0 + 1e-12), Verdict::Close);
        assert_eq!(verdict(1.0, 1.0 + 1e-6), Verdict::Wrong);
        assert_eq!(verdict(1.0, f64::NAN), Verdict::Wrong);
        let mut t = Tally::default();
        t.note(Verdict::Exact);
        t.note(Verdict::Wrong);
        assert_eq!((t.exact, t.close, t.failed), (1, 0, 1));
    }

    #[test]
    fn path_length_follows_preorder_splits() {
        // root: x0 <= 1 ? (x1 <= 2 ? leaf : leaf) : leaf
        let tree = vec![
            NodeSpec::Split {
                feature: 0,
                threshold: 1.0,
            },
            NodeSpec::Split {
                feature: 1,
                threshold: 2.0,
            },
            NodeSpec::Leaf { value: 1.0 },
            NodeSpec::Leaf { value: 2.0 },
            NodeSpec::Leaf { value: 3.0 },
        ];
        assert_eq!(path_length(&tree, &[0.0, 0.0]), 3);
        assert_eq!(path_length(&tree, &[5.0, 0.0]), 2);
    }
}
