//! The learned feature-generation function Ψ.
//!
//! A [`FeaturePlan`] is the portable artifact SAFE produces: the input
//! schema, a topologically ordered list of generation steps (operator name,
//! parent features, frozen parameters), and the selected output features.
//! Plans serialize to a line-oriented text format and compile — against any
//! [`OperatorRegistry`] — into a [`CompiledPlan`] that scores whole datasets
//! or single records (the paper's *real-time inference* requirement: "once
//! an instance is inputted, the feature should be produced instantly").

use std::collections::HashMap;
use std::fmt;

use safe_data::dataset::{Dataset, FeatureMeta};
use safe_data::record::{hex, Reader, Record, RecordError};
use safe_ops::op::{FittedOperator, OpError};
use safe_ops::registry::OperatorRegistry;

/// Errors from plan construction, serialization or execution.
#[derive(Debug)]
pub enum PlanError {
    /// A step references an operator absent from the registry.
    UnknownOperator(String),
    /// A step or output references an undefined feature.
    UnknownFeature(String),
    /// The dataset to transform is missing a required input column.
    MissingInput(String),
    /// A feature name contains a character the codec reserves.
    BadName(String),
    /// Text deserialization failed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// Operator rehydration/application failed.
    Op(OpError),
    /// Underlying data error.
    Data(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnknownOperator(op) => write!(f, "unknown operator '{op}'"),
            PlanError::UnknownFeature(name) => write!(f, "unknown feature '{name}'"),
            PlanError::MissingInput(name) => write!(f, "dataset lacks input column '{name}'"),
            PlanError::BadName(name) => {
                write!(f, "feature name '{name}' contains a reserved character")
            }
            PlanError::Parse { line, message } => write!(f, "plan parse error, line {line}: {message}"),
            PlanError::Op(e) => write!(f, "operator error: {e}"),
            PlanError::Data(msg) => write!(f, "data error: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<OpError> for PlanError {
    fn from(e: OpError) -> Self {
        PlanError::Op(e)
    }
}

impl From<RecordError> for PlanError {
    fn from(e: RecordError) -> Self {
        let (line, message) = e.into_parts();
        PlanError::Parse { line, message }
    }
}

/// One generation step.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Name of the produced feature.
    pub name: String,
    /// Operator registry name.
    pub op: String,
    /// Parent feature names (inputs or earlier steps), in argument order.
    pub parents: Vec<String>,
    /// Frozen operator parameters.
    pub params: Vec<f64>,
}

/// The serializable feature-generation function Ψ.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeaturePlan {
    /// Names of the raw input features the plan consumes.
    pub input_names: Vec<String>,
    /// Generation steps in dependency order.
    pub steps: Vec<PlanStep>,
    /// Names of the selected output features (inputs or step names).
    pub outputs: Vec<String>,
}

fn name_ok(name: &str) -> bool {
    !name.is_empty() && !name.contains('\t') && !name.contains('\n') && !name.contains('\r')
}

impl FeaturePlan {
    /// Validate internal consistency: names are codec-safe, steps reference
    /// only earlier definitions, outputs exist.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut defined: HashMap<&str, ()> = HashMap::new();
        for n in &self.input_names {
            if !name_ok(n) {
                return Err(PlanError::BadName(n.clone()));
            }
            defined.insert(n, ());
        }
        for s in &self.steps {
            if !name_ok(&s.name) || !name_ok(&s.op) {
                return Err(PlanError::BadName(s.name.clone()));
            }
            for p in &s.parents {
                if !defined.contains_key(p.as_str()) {
                    return Err(PlanError::UnknownFeature(p.clone()));
                }
            }
            defined.insert(&s.name, ());
        }
        for o in &self.outputs {
            if !defined.contains_key(o.as_str()) {
                return Err(PlanError::UnknownFeature(o.clone()));
            }
        }
        Ok(())
    }

    /// Number of outputs that are generated (vs. passed-through originals).
    pub fn n_generated_outputs(&self) -> usize {
        let step_names: std::collections::HashSet<&str> =
            self.steps.iter().map(|s| s.name.as_str()).collect();
        self.outputs
            .iter()
            .filter(|o| step_names.contains(o.as_str()))
            .count()
    }

    /// Compile against a registry, resolving operators and parent slots.
    pub fn compile(&self, registry: &OperatorRegistry) -> Result<CompiledPlan, PlanError> {
        self.validate()?;
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        for (i, n) in self.input_names.iter().enumerate() {
            slot_of.insert(n, i);
        }
        let mut steps = Vec::with_capacity(self.steps.len());
        for (k, s) in self.steps.iter().enumerate() {
            let op = registry
                .get(&s.op)
                .ok_or_else(|| PlanError::UnknownOperator(s.op.clone()))?;
            let fitted = op.rehydrate(&s.params)?;
            let parents: Vec<usize> = s
                .parents
                .iter()
                .map(|p| {
                    slot_of
                        .get(p.as_str())
                        .copied()
                        .ok_or_else(|| PlanError::UnknownFeature(p.clone()))
                })
                .collect::<Result<_, _>>()?;
            let out_slot = self.input_names.len() + k;
            slot_of.insert(&s.name, out_slot);
            steps.push(CompiledStep {
                fitted,
                parents,
                out_slot,
            });
        }
        let outputs: Vec<usize> = self
            .outputs
            .iter()
            .map(|o| {
                slot_of
                    .get(o.as_str())
                    .copied()
                    .ok_or_else(|| PlanError::UnknownFeature(o.clone()))
            })
            .collect::<Result<_, _>>()?;
        let output_meta = self
            .outputs
            .iter()
            .map(|o| match self.steps.iter().find(|s| &s.name == o) {
                Some(s) => FeatureMeta::generated(o.clone(), s.op.clone(), s.parents.clone()),
                None => FeatureMeta::original(o.clone()),
            })
            .collect();
        Ok(CompiledPlan {
            input_names: self.input_names.clone(),
            steps,
            outputs,
            output_meta,
        })
    }

    /// Convenience: compile against the standard registry and transform a
    /// dataset.
    ///
    /// # Errors — shape-mismatch contract
    ///
    /// Shares the exact error contract of [`CompiledPlan::apply`] (it
    /// delegates to it): a dataset lacking a required input column yields
    /// [`PlanError::MissingInput`] carrying the column name; internal slot
    /// inconsistencies (corrupted plan) yield [`PlanError::Data`].
    /// Compilation failures additionally surface as
    /// [`PlanError::UnknownOperator`] / [`PlanError::UnknownFeature`].
    pub fn apply(&self, ds: &Dataset) -> Result<Dataset, PlanError> {
        self.compile(&OperatorRegistry::standard())?.apply(ds)
    }

    /// Serialize to the versioned text codec.
    pub fn to_text(&self) -> String {
        let mut out = String::from("SAFEPLAN\t1\n");
        for n in &self.input_names {
            out.push_str("INPUT\t");
            out.push_str(n);
            out.push('\n');
        }
        for s in &self.steps {
            out.push_str("STEP\t");
            out.push_str(&s.name);
            out.push('\t');
            out.push_str(&s.op);
            out.push('\t');
            out.push_str(&s.parents.len().to_string());
            for p in &s.parents {
                out.push('\t');
                out.push_str(p);
            }
            out.push('\t');
            out.push_str(&s.params.len().to_string());
            for &v in &s.params {
                out.push('\t');
                out.push_str(&hex(v));
            }
            out.push('\n');
        }
        for o in &self.outputs {
            out.push_str("OUT\t");
            out.push_str(o);
            out.push('\n');
        }
        out
    }

    /// Parse the text codec.
    pub fn from_text(text: &str) -> Result<FeaturePlan, PlanError> {
        let mut plan = FeaturePlan::default();
        for mut rec in Reader::open(text, "SAFEPLAN\t1")? {
            match rec.tag {
                "INPUT" => plan.input_names.push(rec.field()?.to_string()),
                "OUT" => plan.outputs.push(rec.field()?.to_string()),
                "STEP" => plan.steps.push(PlanStep {
                    name: rec.field()?.to_string(),
                    op: rec.field()?.to_string(),
                    parents: rec.list(|r| r.field().map(String::from))?,
                    params: rec.list(Record::hex)?,
                }),
                other => return Err(rec.err(format!("unrecognized record '{other}'")).into()),
            }
            rec.end()?;
        }
        plan.validate()?;
        Ok(plan)
    }
}

#[derive(Debug)]
struct CompiledStep {
    fitted: Box<dyn FittedOperator>,
    parents: Vec<usize>,
    out_slot: usize,
}

/// Reusable scratch space for the per-row inference path.
///
/// [`CompiledPlan::apply_row_into`] needs one working slot per feature and a
/// small argument buffer per step; allocating those per call is measurable at
/// serving rates. Create one `RowScratch` per worker (it is plan-agnostic —
/// buffers are resized to fit whichever plan uses them) and reuse it across
/// rows.
#[derive(Debug, Default, Clone)]
pub struct RowScratch {
    slots: Vec<f64>,
    args: Vec<f64>,
}

/// An executable plan: operators rehydrated, names resolved to slots.
#[derive(Debug)]
pub struct CompiledPlan {
    input_names: Vec<String>,
    steps: Vec<CompiledStep>,
    outputs: Vec<usize>,
    output_meta: Vec<FeatureMeta>,
}

impl CompiledPlan {
    /// Number of raw inputs expected.
    pub fn n_inputs(&self) -> usize {
        self.input_names.len()
    }

    /// Number of output features produced.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Transform a whole dataset (columns located by name; label carried
    /// over).
    ///
    /// # Errors — shape-mismatch contract
    ///
    /// Shared with [`FeaturePlan::apply`] and the row-path variants
    /// ([`CompiledPlan::apply_row`], [`CompiledPlan::apply_row_into`],
    /// [`CompiledPlan::apply_rows`]): an input of the wrong shape — a
    /// missing column here, a wrong value count on the row paths — yields
    /// [`PlanError::MissingInput`]; structurally inconsistent input (ragged
    /// batch, corrupted plan slots) yields [`PlanError::Data`].
    pub fn apply(&self, ds: &Dataset) -> Result<Dataset, PlanError> {
        let n_slots = self.input_names.len() + self.steps.len();
        let mut slots: Vec<Option<Vec<f64>>> = Vec::with_capacity(n_slots);
        let mut scratch = Vec::new();
        for name in &self.input_names {
            // Read through `read_column` so chunked/spilled inputs work too:
            // plan application copies exactly its input columns (memory
            // bounded by plan width, not table width).
            let idx = ds
                .feature_index(name)
                .map_err(|_| PlanError::MissingInput(name.clone()))?;
            let col = ds
                .read_column(idx, &mut scratch)
                .map_err(|e| PlanError::Data(e.to_string()))?;
            slots.push(Some(col.to_vec()));
        }
        slots.resize_with(n_slots, || None);
        // Compilation orders steps topologically, so parent slots are always
        // filled; report (never panic) if a corrupted plan breaks that.
        let stale = || PlanError::Data("plan step referenced an uncomputed slot".into());
        for step in &self.steps {
            let parent_cols: Vec<&[f64]> = step
                .parents
                .iter()
                .map(|&p| slots.get(p).and_then(|s| s.as_deref()).ok_or_else(stale))
                .collect::<Result<_, _>>()?;
            let values = step.fitted.apply(&parent_cols);
            slots[step.out_slot] = Some(values);
        }
        let mut out = Dataset::with_rows(ds.n_rows());
        for (&slot, meta) in self.outputs.iter().zip(&self.output_meta) {
            let col = slots.get(slot).and_then(|s| s.as_ref()).ok_or_else(stale)?;
            out.push_column(meta.clone(), col.clone())
                .map_err(|e| PlanError::Data(e.to_string()))?;
        }
        if let Some(labels) = ds.labels() {
            out.set_labels(labels.to_vec())
                .map_err(|e| PlanError::Data(e.to_string()))?;
        }
        Ok(out)
    }

    /// Transform one record (values aligned with the plan's input order) —
    /// the real-time inference path.
    ///
    /// Convenience wrapper over [`CompiledPlan::apply_row_into`] that pays
    /// two allocations per call (scratch + output). Hot loops should hold a
    /// [`RowScratch`] and an output buffer and call `apply_row_into`
    /// directly.
    ///
    /// Errors follow the shape-mismatch contract documented on
    /// [`CompiledPlan::apply`].
    pub fn apply_row(&self, row: &[f64]) -> Result<Vec<f64>, PlanError> {
        let mut scratch = RowScratch::default();
        let mut out = Vec::with_capacity(self.outputs.len());
        self.apply_row_into(row, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Transform one record into a caller-owned buffer, reusing scratch
    /// space across calls — the allocation-free serving path.
    ///
    /// `out` is cleared and filled with the [`CompiledPlan::n_outputs`]
    /// feature values. Output bits are identical to [`CompiledPlan::apply`]
    /// on the same values: every operator's column path is defined as the
    /// per-row map of its row path.
    ///
    /// Errors follow the shape-mismatch contract documented on
    /// [`CompiledPlan::apply`].
    pub fn apply_row_into(
        &self,
        row: &[f64],
        scratch: &mut RowScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), PlanError> {
        if row.len() != self.input_names.len() {
            return Err(PlanError::MissingInput(format!(
                "expected {} input values, got {}",
                self.input_names.len(),
                row.len()
            )));
        }
        self.eval_row(row, scratch);
        out.clear();
        out.extend(self.outputs.iter().map(|&s| scratch.slots[s]));
        Ok(())
    }

    /// Transform a row-major batch without per-row allocation.
    ///
    /// `rows` holds `rows.len() / n_cols` records of `n_cols` values each,
    /// aligned with the plan's input order; `out` is cleared and filled
    /// row-major with [`CompiledPlan::n_outputs`] values per record.
    ///
    /// Errors follow the shape-mismatch contract documented on
    /// [`CompiledPlan::apply`]: `n_cols` differing from
    /// [`CompiledPlan::n_inputs`] yields [`PlanError::MissingInput`], a
    /// ragged batch (`rows.len()` not a multiple of `n_cols`) yields
    /// [`PlanError::Data`].
    pub fn apply_rows(
        &self,
        rows: &[f64],
        n_cols: usize,
        out: &mut Vec<f64>,
    ) -> Result<(), PlanError> {
        if n_cols != self.input_names.len() {
            return Err(PlanError::MissingInput(format!(
                "expected {} input columns, got {}",
                self.input_names.len(),
                n_cols
            )));
        }
        out.clear();
        if n_cols == 0 {
            if !rows.is_empty() {
                return Err(PlanError::Data(
                    "non-empty batch for a zero-input plan".into(),
                ));
            }
            return Ok(());
        }
        if !rows.len().is_multiple_of(n_cols) {
            return Err(PlanError::Data(format!(
                "ragged batch: {} values is not a multiple of {} columns",
                rows.len(),
                n_cols
            )));
        }
        let mut scratch = RowScratch::default();
        out.reserve((rows.len() / n_cols) * self.outputs.len());
        for row in rows.chunks_exact(n_cols) {
            self.eval_row(row, &mut scratch);
            out.extend(self.outputs.iter().map(|&s| scratch.slots[s]));
        }
        Ok(())
    }

    /// Core row evaluation. Caller guarantees `row.len() == n_inputs`.
    fn eval_row(&self, row: &[f64], scratch: &mut RowScratch) {
        let RowScratch { slots, args } = scratch;
        let n_slots = self.input_names.len() + self.steps.len();
        slots.clear();
        slots.resize(n_slots, f64::NAN);
        slots[..row.len()].copy_from_slice(row);
        for step in &self.steps {
            args.clear();
            args.extend(step.parents.iter().map(|&p| slots[p]));
            slots[step.out_slot] = step.fitted.apply_row(args);
        }
    }

    /// Input feature names, in expected order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output metadata (name + provenance), in output order.
    pub fn output_meta(&self) -> &[FeatureMeta] {
        &self.output_meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FeaturePlan {
        FeaturePlan {
            input_names: vec!["a".into(), "b".into()],
            steps: vec![
                PlanStep {
                    name: "mul(a,b)".into(),
                    op: "mul".into(),
                    parents: vec!["a".into(), "b".into()],
                    params: vec![],
                },
                PlanStep {
                    name: "log(mul(a,b))".into(),
                    op: "log".into(),
                    parents: vec!["mul(a,b)".into()],
                    params: vec![],
                },
            ],
            outputs: vec!["a".into(), "mul(a,b)".into(), "log(mul(a,b))".into()],
        }
    }

    fn sample_dataset() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]],
            Some(vec![0, 1, 0]),
        )
        .unwrap()
    }

    #[test]
    fn apply_computes_chained_steps() {
        let out = sample_plan().apply(&sample_dataset()).unwrap();
        assert_eq!(out.n_cols(), 3);
        assert_eq!(out.column_by_name("a").unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(out.column_by_name("mul(a,b)").unwrap(), &[4.0, 10.0, 18.0]);
        let log_col = out.column_by_name("log(mul(a,b))").unwrap();
        assert!((log_col[0] - (5.0f64).ln()).abs() < 1e-12);
        assert_eq!(out.labels().unwrap(), &[0, 1, 0]);
    }

    #[test]
    fn provenance_is_preserved() {
        let out = sample_plan().apply(&sample_dataset()).unwrap();
        assert_eq!(out.n_generated(), 2);
        assert!(!out.meta()[0].origin.is_generated());
    }

    #[test]
    fn apply_row_matches_batch() {
        let plan = sample_plan();
        let compiled = plan.compile(&OperatorRegistry::standard()).unwrap();
        let ds = sample_dataset();
        let batch = compiled.apply(&ds).unwrap();
        for i in 0..ds.n_rows() {
            let row_out = compiled.apply_row(&ds.row(i)).unwrap();
            for (c, &v) in row_out.iter().enumerate() {
                assert!((batch.column(c).unwrap()[i] - v).abs() < 1e-15);
            }
        }
    }

    /// 10k-row no-regression check for the `apply_row` reimplementation on
    /// top of `apply_row_into`: the row path, the buffer-reuse path, and the
    /// flat-batch path must all match the column path bit-for-bit.
    #[test]
    fn row_paths_match_batch_on_10k_rows() {
        let plan = sample_plan();
        let compiled = plan.compile(&OperatorRegistry::standard()).unwrap();
        let n = 10_000usize;
        let mut a = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for i in 0..n {
            let x = i as f64;
            a.push((x * 0.37).sin() * 10.0);
            b.push((x * 0.11).cos() * 5.0 + 0.25);
        }
        let ds = Dataset::from_columns(vec!["a".into(), "b".into()], vec![a, b], None).unwrap();
        let batch = compiled.apply(&ds).unwrap();

        let mut scratch = RowScratch::default();
        let mut row_out = Vec::new();
        let mut flat = Vec::with_capacity(n * 2);
        for i in 0..n {
            let row = ds.row(i);
            flat.extend_from_slice(&row);
            // Allocating path.
            let alloc_out = compiled.apply_row(&row).unwrap();
            // Buffer-reuse path.
            compiled.apply_row_into(&row, &mut scratch, &mut row_out).unwrap();
            assert_eq!(alloc_out.len(), compiled.n_outputs());
            for c in 0..compiled.n_outputs() {
                let want = batch.column(c).unwrap()[i].to_bits();
                assert_eq!(alloc_out[c].to_bits(), want, "apply_row row {i} col {c}");
                assert_eq!(row_out[c].to_bits(), want, "apply_row_into row {i} col {c}");
            }
        }
        // Flat-batch path.
        let mut flat_out = Vec::new();
        compiled.apply_rows(&flat, 2, &mut flat_out).unwrap();
        assert_eq!(flat_out.len(), n * compiled.n_outputs());
        for i in 0..n {
            for c in 0..compiled.n_outputs() {
                assert_eq!(
                    flat_out[i * compiled.n_outputs() + c].to_bits(),
                    batch.column(c).unwrap()[i].to_bits(),
                    "apply_rows row {i} col {c}"
                );
            }
        }
    }

    #[test]
    fn row_shape_mismatches_share_the_apply_contract() {
        let compiled = sample_plan()
            .compile(&OperatorRegistry::standard())
            .unwrap();
        assert!(matches!(
            compiled.apply_row(&[1.0]).unwrap_err(),
            PlanError::MissingInput(_)
        ));
        let mut out = Vec::new();
        assert!(matches!(
            compiled
                .apply_row_into(&[1.0, 2.0, 3.0], &mut RowScratch::default(), &mut out)
                .unwrap_err(),
            PlanError::MissingInput(_)
        ));
        // Wrong column count → MissingInput, like a missing dataset column.
        assert!(matches!(
            compiled.apply_rows(&[1.0, 2.0, 3.0], 3, &mut out).unwrap_err(),
            PlanError::MissingInput(_)
        ));
        // Ragged flat batch → Data, like a corrupted plan.
        assert!(matches!(
            compiled.apply_rows(&[1.0, 2.0, 3.0], 2, &mut out).unwrap_err(),
            PlanError::Data(_)
        ));
    }

    #[test]
    fn scratch_is_plan_agnostic() {
        // One scratch serves two plans of different sizes in alternation.
        let small = FeaturePlan {
            input_names: vec!["a".into()],
            steps: vec![],
            outputs: vec!["a".into()],
        };
        let small = small.compile(&OperatorRegistry::standard()).unwrap();
        let big = sample_plan().compile(&OperatorRegistry::standard()).unwrap();
        let mut scratch = RowScratch::default();
        let mut out = Vec::new();
        for i in 0..4 {
            big.apply_row_into(&[1.0 + i as f64, 2.0], &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out.len(), 3);
            small.apply_row_into(&[7.0], &mut scratch, &mut out).unwrap();
            assert_eq!(out, vec![7.0]);
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let mut plan = sample_plan();
        // Include gnarly params to prove hex round-trip is lossless.
        plan.steps.push(PlanStep {
            name: "zscore(a)".into(),
            op: "zscore".into(),
            parents: vec!["a".into()],
            params: vec![0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e300],
        });
        plan.outputs.push("zscore(a)".into());
        let text = plan.to_text();
        let back = FeaturePlan::from_text(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn column_order_independence() {
        // apply() locates inputs by name, so a permuted dataset still works.
        let plan = sample_plan();
        let swapped = Dataset::from_columns(
            vec!["b".into(), "a".into()],
            vec![vec![4.0], vec![1.0]],
            None,
        )
        .unwrap();
        let out = plan.apply(&swapped).unwrap();
        assert_eq!(out.column_by_name("mul(a,b)").unwrap(), &[4.0]);
    }

    #[test]
    fn missing_input_is_reported() {
        let plan = sample_plan();
        let bad = Dataset::from_columns(vec!["a".into()], vec![vec![1.0]], None).unwrap();
        assert!(matches!(
            plan.apply(&bad).unwrap_err(),
            PlanError::MissingInput(name) if name == "b"
        ));
    }

    #[test]
    fn forward_reference_rejected() {
        let plan = FeaturePlan {
            input_names: vec!["a".into()],
            steps: vec![PlanStep {
                name: "x".into(),
                op: "log".into(),
                parents: vec!["y".into()], // never defined
                params: vec![],
            }],
            outputs: vec!["x".into()],
        };
        assert!(matches!(
            plan.validate().unwrap_err(),
            PlanError::UnknownFeature(n) if n == "y"
        ));
    }

    #[test]
    fn unknown_operator_rejected_at_compile() {
        let plan = FeaturePlan {
            input_names: vec!["a".into()],
            steps: vec![PlanStep {
                name: "x".into(),
                op: "teleport".into(),
                parents: vec!["a".into()],
                params: vec![],
            }],
            outputs: vec!["x".into()],
        };
        assert!(matches!(
            plan.compile(&OperatorRegistry::standard()).unwrap_err(),
            PlanError::UnknownOperator(_)
        ));
    }

    #[test]
    fn bad_text_is_rejected_with_line_numbers() {
        assert!(FeaturePlan::from_text("").is_err());
        assert!(FeaturePlan::from_text("NOTAPLAN\t1\n").is_err());
        let err = FeaturePlan::from_text("SAFEPLAN\t1\nBOGUS\tx\n").unwrap_err();
        assert!(matches!(err, PlanError::Parse { line: 2, .. }));
        // Truncated STEP.
        assert!(FeaturePlan::from_text("SAFEPLAN\t1\nINPUT\ta\nSTEP\tx\tlog\t5\ta\n").is_err());
        // A parent count no line could hold.
        let text = "SAFEPLAN\t1\nINPUT\ta\nSTEP\tx\tlog\t18446744073709551615\n";
        let err = FeaturePlan::from_text(text).unwrap_err();
        assert!(matches!(err, PlanError::Parse { line: 3, .. }), "{err:?}");
    }

    #[test]
    fn reserved_characters_in_names_rejected() {
        let plan = FeaturePlan {
            input_names: vec!["bad\tname".into()],
            steps: vec![],
            outputs: vec![],
        };
        assert!(matches!(plan.validate().unwrap_err(), PlanError::BadName(_)));
    }

    #[test]
    fn stateful_step_round_trips_through_text() {
        // zscore with params must produce identical outputs after recode.
        let plan = FeaturePlan {
            input_names: vec!["a".into()],
            steps: vec![PlanStep {
                name: "zscore(a)".into(),
                op: "zscore".into(),
                parents: vec!["a".into()],
                params: vec![10.0, 2.0],
            }],
            outputs: vec!["zscore(a)".into()],
        };
        let ds =
            Dataset::from_columns(vec!["a".into()], vec![vec![8.0, 12.0]], None).unwrap();
        let direct = plan.apply(&ds).unwrap();
        let recoded = FeaturePlan::from_text(&plan.to_text()).unwrap().apply(&ds).unwrap();
        assert_eq!(
            direct.column(0).unwrap(),
            recoded.column(0).unwrap()
        );
        assert_eq!(direct.column(0).unwrap(), &[-1.0, 1.0]);
    }

    #[test]
    fn n_generated_outputs_counts_steps_only() {
        assert_eq!(sample_plan().n_generated_outputs(), 2);
    }
}
