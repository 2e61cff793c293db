//! # safe-models — the nine downstream classifiers of the paper's evaluation
//!
//! Tables III and VIII evaluate engineered feature sets under nine
//! scikit-learn classifiers; this crate rebuilds each of them from scratch
//! behind one [`Classifier`] / [`FittedClassifier`] pair:
//!
//! | paper abbrev. | implementation |
//! |---|---|
//! | AB  | [`adaboost::AdaBoost`] — SAMME on decision stumps |
//! | DT  | [`tree::DecisionTree`] — CART with gini impurity |
//! | ET  | [`forest::ExtraTrees`] — randomized-threshold ensemble |
//! | kNN | [`knn::KNearestNeighbors`] — brute-force, standardized L2 |
//! | LR  | [`linear::LogisticRegression`] — mini-batch SGD + L2 |
//! | MLP | [`mlp::MlpClassifier`] — 1 hidden ReLU layer, SGD momentum |
//! | RF  | [`forest::RandomForest`] — bootstrap + √M feature bagging |
//! | SVM | [`linear::LinearSvm`] — Pegasos hinge-loss SGD |
//! | XGB | [`xgb::XgbClassifier`] — wrapper over [`safe_gbm`] |
//!
//! All models consume the columnar [`safe_data::Dataset`], emit calibration-
//! agnostic scores in `[0, 1]` via `predict_proba` (AUC, the paper's metric,
//! only needs ranking), and are deterministic under a fixed seed.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod adaboost;
pub mod classifier;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod mlp;
pub mod scaler;
pub mod tree;
pub mod xgb;

pub use classifier::{Classifier, ClassifierKind, FittedClassifier, ModelError};
