//! First-party tracking-cookie detection (the COOKIEGRAPH-style
//! classifier this reproduction scores against generator ground truth).
//!
//! CookieGuard *partitions* cookies by owner; this crate *classifies*
//! them. Each first-party cookie observed in a crawl is reduced to the
//! feature set the detection literature uses — setter identity
//! (organization-resolved, CNAME-uncloaked), identifier-shaped values,
//! requested lifetime, value stability, respawn behaviour, and
//! read/exfil fan-out (who ships the value off-site, owner vs foreign
//! organizations) — and a small compiled decision-rule classifier
//! flags the tracking identifiers. Ground truth comes from
//! [`cg_webgen::CookieLabels`], which derives every generated cookie's
//! intent from realized vendor behaviour, so precision/recall are exact
//! rather than sampled.
//!
//! The pipeline consumes crawls in both of the repo's modes: resident
//! ([`DetectStats::from_logs`] over a
//! [`Dataset`](cg_analysis::Dataset)) and streaming
//! ([`DetectStats::from_store_with`] over the binary store's parallel
//! per-chunk folds). Per-key state exists only for labeled pairs, so
//! the streaming path is flat-RSS in crawl size.
//!
//! **Layer:** analysis (consumes `cg-instrument` logs and
//! `cg-crawlstore` streams; compiled from `cg-webgen` ground truth;
//! never touches the simulator).
//! **Invariants:** the fold is a commutative monoid and every ratio is
//! derived once at report time, so resident, streamed, and parallel
//! folds serialize byte-identical reports at any thread count or read
//! backend; per-visit extraction is pure (visit-order independent).
//! **Entry points:** [`DetectEngine::compile`], [`DetectStats`],
//! [`DetectReport::from_stats`].

#![warn(missing_docs)]

pub mod engine;
pub mod features;
pub mod report;
pub mod stats;

pub use engine::{DetectConfig, DetectEngine};
pub use features::{DetectKey, Owner, Stages, VisitFacts};
pub use report::{DetectReport, FlagReason, KeyRow, Scores, Verdict};
pub use stats::{DetectStats, ForeignAgg, KeyAgg, OrgId, OrgIdHasher, OrgMap};
