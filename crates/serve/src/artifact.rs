//! The versioned serving artifact: plan + booster + schema in one file.
//!
//! Format (version 1), a schema over [`safe_data::record`]:
//!
//! ```text
//! SAFEARTIFACT\t1
//! CHECKSUM\t<fnv1a-64 hex of everything below this line>
//! INPUT\t<raw column name>                       (one per expected input)
//! OUTPUT\t<name>\toriginal
//! OUTPUT\t<name>\tgenerated\t<op>\t<n>\t<parents…>
//! VAL_AUC\t<hex f64>                             (optional)
//! PLAN_BEGIN
//! <embedded SAFEPLAN v1 text>
//! PLAN_END
//! BOOSTER_BEGIN
//! <embedded SAFEGBM v1 text>
//! BOOSTER_END
//! ```
//!
//! Versioning/compat rules: the major format version in the header is
//! bumped on any change a v1 reader cannot ignore; unknown *record kinds*
//! within a version are an error (the checksum already guarantees the file
//! is exactly what was written, so leniency would only mask corruption).
//! All floats are 16-hex-digit IEEE-754 bit patterns — a save/load round
//! trip is bit-exact, which is what makes the serving-side AUC reproduce
//! the training-side AUC bit for bit.

use std::path::Path;

use safe_core::plan::FeaturePlan;
use safe_data::dataset::{Dataset, FeatureMeta, FeatureOrigin};
use safe_data::record::{hex, seal, Reader};
use safe_gbm::{Gbm, GbmConfig, GbmModel};
use safe_ops::registry::OperatorRegistry;
use safe_stats::auc::auc;

use crate::error::ServeError;

/// Current artifact format version.
pub const ARTIFACT_FORMAT_VERSION: u32 = 1;

/// Everything the serving side needs, bundled and versioned: the learned
/// feature plan Ψ, the fitted scoring booster, the expected raw input
/// schema, and per-output feature metadata.
#[derive(Debug, Clone)]
pub struct SafeArtifact {
    /// The learned feature-generation function.
    pub plan: FeaturePlan,
    /// The fitted booster scoring the plan's output features.
    pub model: GbmModel,
    /// Raw input columns the scorer expects, in plan order (the audit
    /// schema for incoming data).
    pub input_schema: Vec<String>,
    /// Name + provenance of each scored feature, in model-feature order.
    pub output_meta: Vec<FeatureMeta>,
    /// Validation AUC recorded at train time, when a validation set was
    /// supplied. Stored bit-exactly so the serving side can be checked
    /// against it.
    pub val_auc: Option<f64>,
}

impl SafeArtifact {
    /// Train the serving bundle for a learned plan: engineer `train` (and
    /// `valid`) through the plan, fit `config` on the engineered features,
    /// and record the validation AUC bit-exactly.
    pub fn train(
        plan: &FeaturePlan,
        registry: &OperatorRegistry,
        train: &Dataset,
        valid: Option<&Dataset>,
        config: &GbmConfig,
    ) -> Result<SafeArtifact, ServeError> {
        let compiled = plan.compile(registry)?;
        let eng_train = compiled.apply(train)?;
        let eng_valid = match valid {
            Some(v) => Some(compiled.apply(v)?),
            None => None,
        };
        let model = Gbm::new(config.clone()).fit(&eng_train, eng_valid.as_ref())?;
        let val_auc = match &eng_valid {
            Some(v) => {
                let labels = v
                    .labels()
                    .ok_or_else(|| ServeError::Data("validation set has no labels".into()))?;
                Some(auc(&model.predict(v), labels))
            }
            None => None,
        };
        Ok(SafeArtifact {
            plan: plan.clone(),
            model,
            input_schema: plan.input_names.clone(),
            output_meta: compiled.output_meta().to_vec(),
            val_auc,
        })
    }

    /// Internal consistency: schema lines must agree with the embedded
    /// plan, and the booster's feature count with the plan's output count.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.input_schema != self.plan.input_names {
            return Err(ServeError::Schema(
                "INPUT schema does not match the embedded plan's inputs".into(),
            ));
        }
        if self.output_meta.len() != self.plan.outputs.len() {
            return Err(ServeError::Schema(format!(
                "{} OUTPUT records for a plan with {} outputs",
                self.output_meta.len(),
                self.plan.outputs.len()
            )));
        }
        for (meta, name) in self.output_meta.iter().zip(&self.plan.outputs) {
            if &meta.name != name {
                return Err(ServeError::Schema(format!(
                    "OUTPUT '{}' does not match plan output '{}'",
                    meta.name, name
                )));
            }
        }
        if self.model.n_features() != self.plan.outputs.len() {
            return Err(ServeError::Schema(format!(
                "booster expects {} features, plan produces {}",
                self.model.n_features(),
                self.plan.outputs.len()
            )));
        }
        Ok(())
    }

    /// Serialize to the versioned text format (checksum included).
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        for name in &self.input_schema {
            body.push_str("INPUT\t");
            body.push_str(name);
            body.push('\n');
        }
        for meta in &self.output_meta {
            body.push_str("OUTPUT\t");
            body.push_str(&meta.name);
            match &meta.origin {
                FeatureOrigin::Original => body.push_str("\toriginal"),
                FeatureOrigin::Generated { op, parents } => {
                    body.push_str("\tgenerated\t");
                    body.push_str(op);
                    body.push('\t');
                    body.push_str(&parents.len().to_string());
                    for p in parents {
                        body.push('\t');
                        body.push_str(p);
                    }
                }
            }
            body.push('\n');
        }
        if let Some(a) = self.val_auc {
            body.push_str(&format!("VAL_AUC\t{}\n", hex(a)));
        }
        body.push_str("PLAN_BEGIN\n");
        body.push_str(&self.plan.to_text());
        body.push_str("PLAN_END\n");
        body.push_str("BOOSTER_BEGIN\n");
        body.push_str(&self.model.to_text());
        body.push_str("BOOSTER_END\n");
        seal("SAFEARTIFACT\t1", &body)
    }

    /// Parse the text format: header and checksum verified first, then the
    /// sections, then cross-section consistency ([`SafeArtifact::validate`]).
    pub fn from_text(text: &str) -> Result<SafeArtifact, ServeError> {
        let mut r = Reader::open_checked(text, "SAFEARTIFACT\t1")?;
        let (mut input_schema, mut output_meta) = (Vec::new(), Vec::new());
        let (mut val_auc, mut plan, mut model) = (None, None, None);
        while let Some(mut rec) = r.next() {
            match rec.tag {
                "INPUT" => input_schema.push(rec.field()?.to_string()),
                "OUTPUT" => {
                    let name = rec.field()?;
                    output_meta.push(match rec.field()? {
                        "original" => FeatureMeta::original(name),
                        "generated" => FeatureMeta::generated(
                            name,
                            rec.field()?,
                            rec.list(|r| r.field().map(String::from))?,
                        ),
                        other => return Err(rec.err(format!("bad OUTPUT origin '{other}'")).into()),
                    });
                }
                "VAL_AUC" => val_auc = Some(rec.hex()?),
                "PLAN_BEGIN" => plan = Some(FeaturePlan::from_text(r.section("PLAN_END")?)?),
                "BOOSTER_BEGIN" => model = Some(GbmModel::from_text(r.section("BOOSTER_END")?)?),
                other => return Err(rec.err(format!("unrecognized record '{other}'")).into()),
            }
            rec.end()?;
        }
        let artifact = SafeArtifact {
            plan: plan.ok_or_else(|| r.err("missing PLAN section"))?,
            model: model.ok_or_else(|| r.err("missing BOOSTER section"))?,
            input_schema,
            output_meta,
            val_auc,
        };
        artifact.validate()?;
        Ok(artifact)
    }

    /// Write the artifact to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_text()).map_err(|source| ServeError::Io {
            path: path.display().to_string(),
            source,
        })
    }

    /// Read an artifact back from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<SafeArtifact, ServeError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|source| ServeError::Io {
            path: path.display().to_string(),
            source,
        })?;
        SafeArtifact::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{toy_artifact, toy_split};

    #[test]
    fn text_round_trip_preserves_everything() {
        let artifact = toy_artifact(11);
        let back = SafeArtifact::from_text(&artifact.to_text()).unwrap();
        assert_eq!(back.plan, artifact.plan);
        assert_eq!(back.input_schema, artifact.input_schema);
        assert_eq!(back.output_meta, artifact.output_meta);
        assert_eq!(
            back.val_auc.map(f64::to_bits),
            artifact.val_auc.map(f64::to_bits),
            "stored AUC must survive bit-exactly"
        );
        assert_eq!(back.model.n_trees(), artifact.model.n_trees());
        // Same bytes out again.
        assert_eq!(back.to_text(), artifact.to_text());
    }

    #[test]
    fn round_trip_preserves_score_bits() {
        let artifact = toy_artifact(12);
        let (_, valid) = toy_split(12);
        let eng = artifact.plan.apply(&valid).unwrap();
        let direct = artifact.model.predict(&eng);
        let back = SafeArtifact::from_text(&artifact.to_text()).unwrap();
        let replayed = back.model.predict(&back.plan.apply(&valid).unwrap());
        assert_eq!(direct.len(), replayed.len());
        for (a, b) in direct.iter().zip(&replayed) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("safe-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.safe");
        let artifact = toy_artifact(13);
        artifact.save(&path).unwrap();
        let back = SafeArtifact::load(&path).unwrap();
        assert_eq!(back.to_text(), artifact.to_text());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampering_is_detected() {
        let text = toy_artifact(14).to_text();
        // Flip one byte in the body.
        let tampered = text.replacen("INPUT", "INPUX", 1);
        match SafeArtifact::from_text(&tampered) {
            Err(ServeError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
        // Truncation loses the booster end marker → checksum fails first.
        let truncated = &text[..text.len() - 20];
        assert!(SafeArtifact::from_text(truncated).is_err());
    }

    #[test]
    fn looping_booster_is_rejected_under_a_valid_checksum() {
        // A root naming itself as both children, sized to pass validate():
        // resealing makes the checksum no obstacle, so the booster decoder
        // must refuse it, or every score through it would never return.
        let artifact = toy_artifact(17);
        let looping = format!(
            "SAFEGBM\t1\nBASE\t{0}\nOBJECTIVE\tlogistic\nNFEATURES\t{1}\nTREE\t1\nI\t0\t{0}\t1\t0\t0\t{0}\n",
            hex(0.0),
            artifact.plan.outputs.len()
        );
        let text = artifact.to_text();
        let body = text.splitn(3, '\n').nth(2).unwrap();
        let body = body.replace(&artifact.model.to_text(), &looping);
        let err = SafeArtifact::from_text(&seal("SAFEARTIFACT\t1", &body)).unwrap_err();
        assert!(matches!(err, ServeError::Gbm(safe_gbm::GbmError::Parse { .. })), "{err:?}");
    }

    #[test]
    fn bad_headers_rejected() {
        assert!(SafeArtifact::from_text("").is_err());
        assert!(SafeArtifact::from_text("NOTANARTIFACT\t1\n").is_err());
        assert!(SafeArtifact::from_text("SAFEARTIFACT\t1\nBODY\n").is_err());
        // Version 2 does not exist yet.
        assert!(SafeArtifact::from_text("SAFEARTIFACT\t2\nCHECKSUM\t0\n").is_err());
    }

    #[test]
    fn cross_section_disagreement_rejected() {
        let mut artifact = toy_artifact(15);
        artifact.input_schema.push("phantom".into());
        let err = SafeArtifact::from_text(&artifact.to_text()).unwrap_err();
        assert!(matches!(err, ServeError::Schema(_)), "{err:?}");
    }

    #[test]
    fn missing_validation_set_leaves_auc_unset() {
        let (train, _) = toy_split(16);
        let artifact = SafeArtifact::train(
            &toy_artifact(16).plan,
            &OperatorRegistry::standard(),
            &train,
            None,
            &GbmConfig::miner(),
        )
        .unwrap();
        assert!(artifact.val_auc.is_none());
        let back = SafeArtifact::from_text(&artifact.to_text()).unwrap();
        assert!(back.val_auc.is_none());
    }
}
