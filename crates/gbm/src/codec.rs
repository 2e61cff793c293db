//! Text serialization of trained boosters.
//!
//! A [`GbmModel`] serializes to the workspace's line-record format
//! ([`safe_data::record`]): a versioned header, one record per line, and
//! every `f64` written as its 16-hex-digit IEEE-754 bit pattern so a round
//! trip is lossless to the bit. The serving subsystem (`safe-serve`) embeds
//! this block inside a `SafeArtifact` so a fitted scorer can be persisted
//! next to the feature plan it consumes.
//!
//! Format (version 1):
//!
//! ```text
//! SAFEGBM\t1
//! BASE\t<hex f64>
//! OBJECTIVE\tlogistic|squared
//! NFEATURES\t<usize>
//! TREE\t<n_nodes>
//! I\t<feature>\t<hex threshold>\t<0|1 default_left>\t<left>\t<right>\t<hex gain>
//! L\t<hex value>
//! ...
//! ```
//!
//! Nodes appear in arena order (index 0 is the root): the `n_nodes` records
//! after a `TREE` record are its nodes. The decoder accepts only trees:
//! every child index inside the arena, no parent for the root, exactly one
//! for every other node, and every node reachable from the root, so
//! prediction on a decoded model always reaches a leaf. `eval_history` is
//! training-time telemetry, not part of the scoring function, and is
//! deliberately not serialized.

use safe_data::record::{hex, Reader, Record, RecordError};

use crate::booster::GbmModel;
use crate::config::Objective;
use crate::error::GbmError;
use crate::tree::{Tree, TreeNode};

/// Current codec format version.
pub const GBM_FORMAT_VERSION: u32 = 1;

impl GbmModel {
    /// Serialize to the versioned text codec (lossless f64 round trip).
    pub fn to_text(&self) -> String {
        let mut out = String::from("SAFEGBM\t1\n");
        out.push_str(&format!("BASE\t{}\n", hex(self.base)));
        let obj = match self.objective {
            Objective::Logistic => "logistic",
            Objective::Squared => "squared",
        };
        out.push_str(&format!("OBJECTIVE\t{obj}\n"));
        out.push_str(&format!("NFEATURES\t{}\n", self.n_features));
        for tree in &self.trees {
            out.push_str(&format!("TREE\t{}\n", tree.nodes.len()));
            for node in &tree.nodes {
                match node {
                    TreeNode::Internal {
                        feature,
                        threshold,
                        default_left,
                        left,
                        right,
                        gain,
                    } => out.push_str(&format!(
                        "I\t{feature}\t{}\t{}\t{left}\t{right}\t{}\n",
                        hex(*threshold),
                        u8::from(*default_left),
                        hex(*gain),
                    )),
                    TreeNode::Leaf { value } => {
                        out.push_str(&format!("L\t{}\n", hex(*value)))
                    }
                }
            }
        }
        out
    }

    /// Parse the text codec. Validates the header version, that each
    /// `TREE` is followed by its nodes, and that each tree is a tree whose
    /// splits read features inside `NFEATURES`.
    pub fn from_text(text: &str) -> Result<GbmModel, GbmError> {
        let mut r = Reader::open(text, "SAFEGBM\t1")?;
        let (mut base, mut objective, mut n_features) = (None, None, None);
        let mut trees = Vec::new();
        while let Some(mut rec) = r.next() {
            match rec.tag {
                "BASE" => base = Some(rec.hex()?),
                "OBJECTIVE" => {
                    objective = Some(match rec.field()? {
                        "logistic" => Objective::Logistic,
                        "squared" => Objective::Squared,
                        other => return Err(rec.err(format!("unknown objective '{other}'")).into()),
                    })
                }
                "NFEATURES" => n_features = Some(rec.parse()?),
                "TREE" => {
                    let n_nodes: usize = rec.parse()?;
                    let mut nodes = Vec::new();
                    for _ in 0..n_nodes {
                        let mut node = r.next().ok_or_else(|| rec.err("TREE is short of nodes"))?;
                        nodes.push(read_node(&mut node)?);
                        node.end()?;
                    }
                    trees.push(Tree { nodes });
                }
                other => return Err(rec.err(format!("unrecognized record '{other}'")).into()),
            }
            rec.end()?;
        }

        let base = base.ok_or_else(|| r.err("missing BASE record"))?;
        let objective = objective.ok_or_else(|| r.err("missing OBJECTIVE record"))?;
        let n_features = n_features.ok_or_else(|| r.err("missing NFEATURES record"))?;
        for (t, tree) in trees.iter().enumerate() {
            check_tree(&tree.nodes, n_features).map_err(|m| r.err(format!("tree {t}: {m}")))?;
        }

        Ok(GbmModel {
            trees,
            base,
            objective,
            n_features,
            eval_history: Vec::new(),
        })
    }
}

fn read_node(rec: &mut Record<'_>) -> Result<TreeNode, RecordError> {
    Ok(match rec.tag {
        "L" => TreeNode::Leaf { value: rec.hex()? },
        "I" => TreeNode::Internal {
            feature: rec.parse()?,
            threshold: rec.hex()?,
            default_left: match rec.field()? {
                "0" => false,
                "1" => true,
                other => return Err(rec.err(format!("bad default flag '{other}'"))),
            },
            left: rec.parse()?,
            right: rec.parse()?,
            gain: rec.hex()?,
        },
        other => return Err(rec.err(format!("expected a TREE node, got '{other}'"))),
    })
}

/// Checks that `nodes` is a tree as the module docs define it, with splits
/// on features below `n_features`. Parent counts alone would accept a cycle
/// detached from the root, so the walk from the root must reach every node.
fn check_tree(nodes: &[TreeNode], n_features: usize) -> Result<(), String> {
    let mut has_parent = vec![false; nodes.len()];
    for node in nodes {
        if let TreeNode::Internal { feature, left, right, .. } = node {
            if *feature >= n_features {
                return Err(format!("split feature {feature} >= NFEATURES {n_features}"));
            }
            for &child in [left, right] {
                match has_parent.get_mut(child) {
                    Some(seen) if child != 0 && !*seen => *seen = true,
                    _ => return Err(format!("child {child} is out of range, the root, or shared")),
                }
            }
        }
    }
    // With at most one parent per node and none for the root, the walk
    // visits each node it reaches once, so it ends.
    let mut stack = vec![0];
    let mut reached = 0;
    while let Some(i) = stack.pop() {
        reached += 1;
        if let Some(TreeNode::Internal { left, right, .. }) = nodes.get(i) {
            stack.extend([*left, *right]);
        }
    }
    if reached == nodes.len() {
        Ok(())
    } else {
        Err("the tree is empty or a node is unreachable from the root".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::Gbm;
    use crate::config::GbmConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use safe_data::dataset::Dataset;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![Vec::with_capacity(n); 3];
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c: f64 = rng.gen_range(-1.0..1.0);
            cols[0].push(a);
            cols[1].push(b);
            cols[2].push(c);
            labels.push((a + 0.5 * b > 0.0) as u8);
        }
        Dataset::from_columns(
            vec!["a".into(), "b".into(), "c".into()],
            cols,
            Some(labels),
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_score_bits() {
        let train = toy(400, 1);
        let model = Gbm::new(GbmConfig { n_rounds: 12, ..GbmConfig::default() })
            .fit(&train, None)
            .unwrap();
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert_eq!(back.n_trees(), model.n_trees());
        assert_eq!(back.n_features(), model.n_features());
        let direct = model.predict(&train);
        let recoded = back.predict(&train);
        for (a, b) in direct.iter().zip(&recoded) {
            assert_eq!(a.to_bits(), b.to_bits(), "score bits must survive the codec");
        }
    }

    #[test]
    fn text_is_stable_under_recode() {
        let train = toy(200, 2);
        let model = Gbm::default_trainer().fit(&train, None).unwrap();
        let text = model.to_text();
        let recoded = GbmModel::from_text(&text).unwrap().to_text();
        assert_eq!(text, recoded);
    }

    #[test]
    fn squared_objective_round_trips() {
        let train = toy(200, 3);
        let model = Gbm::new(GbmConfig {
            objective: Objective::Squared,
            n_rounds: 5,
            ..GbmConfig::default()
        })
        .fit(&train, None)
        .unwrap();
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert_eq!(back.objective(), Objective::Squared);
        assert_eq!(back.base_margin().to_bits(), model.base_margin().to_bits());
    }

    #[test]
    fn gnarly_leaf_values_survive() {
        let model = GbmModel {
            trees: vec![Tree {
                nodes: vec![TreeNode::Internal {
                    feature: 0,
                    threshold: 0.1 + 0.2,
                    default_left: false,
                    left: 1,
                    right: 2,
                    gain: 1e-300,
                },
                TreeNode::Leaf { value: -0.0 },
                TreeNode::Leaf { value: f64::MIN_POSITIVE }],
            }],
            base: f64::NAN,
            objective: Objective::Logistic,
            n_features: 1,
            eval_history: Vec::new(),
        };
        let back = GbmModel::from_text(&model.to_text()).unwrap();
        assert!(back.base_margin().is_nan());
        match &back.trees[0].nodes[1] {
            TreeNode::Leaf { value } => assert_eq!(value.to_bits(), (-0.0f64).to_bits()),
            other => panic!("expected leaf, got {other:?}"),
        }
        match &back.trees[0].nodes[0] {
            TreeNode::Internal { threshold, .. } => {
                assert_eq!(threshold.to_bits(), (0.1f64 + 0.2).to_bits())
            }
            other => panic!("expected internal, got {other:?}"),
        }
    }

    #[test]
    fn bad_text_rejected_with_line_numbers() {
        assert!(GbmModel::from_text("").is_err());
        assert!(GbmModel::from_text("NOTAGBM\t1\n").is_err());
        // Unknown record kind.
        let err = GbmModel::from_text("SAFEGBM\t1\nBOGUS\tx\n").unwrap_err();
        assert!(matches!(err, GbmError::Parse { line: 2, .. }), "{err:?}");
        // Node outside any TREE record.
        assert!(GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nL\t0000000000000000\n"
        )
        .is_err());
        // Short TREE record.
        assert!(GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nTREE\t2\nL\t0000000000000000\n"
        )
        .is_err());
        // An empty tree has no root to predict from.
        assert!(GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nTREE\t0\n"
        )
        .is_err());
        // A node count no allocation could hold.
        let err = GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nTREE\t18446744073709551615\nL\t0000000000000000\n"
        )
        .unwrap_err();
        assert!(matches!(err, GbmError::Parse { .. }), "{err:?}");
        // A root naming itself as both children: prediction would never end.
        let err = GbmModel::from_text(
            "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\nTREE\t1\nI\t0\t0000000000000000\t1\t0\t0\t0000000000000000\n"
        )
        .unwrap_err();
        assert!(matches!(err, GbmError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn corrupt_indices_rejected() {
        // Child index out of bounds.
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t2\n\
                    TREE\t3\nI\t0\t0000000000000000\t1\t1\t9\t0000000000000000\n\
                    L\t0000000000000000\nL\t0000000000000000\n";
        assert!(GbmModel::from_text(text).is_err());
        // Split feature outside the declared schema.
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\n\
                    TREE\t3\nI\t5\t0000000000000000\t1\t1\t2\t0000000000000000\n\
                    L\t0000000000000000\nL\t0000000000000000\n";
        assert!(GbmModel::from_text(text).is_err());
        // Nodes 1 and 2 are each other's parent, detached from a leaf root:
        // every node but the root has one parent, yet not all are reachable.
        let text = "SAFEGBM\t1\nBASE\t0000000000000000\nOBJECTIVE\tlogistic\nNFEATURES\t1\n\
                    TREE\t5\nL\t0000000000000000\n\
                    I\t0\t0000000000000000\t1\t2\t3\t0000000000000000\n\
                    I\t0\t0000000000000000\t1\t1\t4\t0000000000000000\n\
                    L\t0000000000000000\nL\t0000000000000000\n";
        assert!(GbmModel::from_text(text).is_err());
    }
}
