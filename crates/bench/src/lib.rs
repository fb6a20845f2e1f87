//! Criterion micro-benchmark crate (`cg-bench`).
//!
//! **Layer:** orchestration/tooling — no library code of its own; every
//! target under `benches/` drives another crate's hot path through the
//! vendored `criterion` stand-in. **Invariant:** CI compiles every
//! bench (`cargo bench -p cg-bench --no-run`), so a hot-path API change
//! cannot silently orphan its regression benchmark.
//!
//! **Entry points** (run with `cargo bench -p cg-bench --bench <name>`):
//! `cookiejar` (sharded vs. flat jar), `guard` (engine compile vs.
//! session open), `access` (`GuardedJar` traffic, one op at a time),
//! `decide` (compiled policy vs. string oracle), `store_roundtrip`
//! (crawl-store append/merge-scan), plus `baselines`, `domguard`,
//! `experiments`, `filterlist`, `hashing`, `parsing`, and `pipeline`.
