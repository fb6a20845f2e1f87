//! Verdicts and scoring: turns merged [`KeyAgg`]s into a deterministic
//! detection report.
//!
//! All ratios are computed here, once, from merged integer counts —
//! never inside the fold — so the serialized report is byte-identical
//! for any fold order, thread count, or read backend that produced the
//! same aggregates.
//!
//! Two scoring granularities are emitted:
//!
//! * **key-level** — each `(name, owner)` key counts once; sensitive to
//!   rare long-tail keys that never reach `min_support`;
//! * **instance-level** — each key weighted by the sites it appeared
//!   on, matching how the field studies score per cookie *instance*.
//!   This is the granularity the acceptance floors apply to.
//!
//! The guard-vs-detector matrix compares what CookieGuard would
//! partition anyway (every foreign-owned cookie, flagged or not)
//! against what the detector flags: its `detector_only` cell is
//! exactly the first-party impersonation the paper motivates —
//! site-owned cookies (self-hosted analytics) a partitioning guard
//! never touches.

use crate::engine::DetectConfig;
use crate::features::Owner;
use crate::stats::{DetectStats, KeyAgg, OrgId};
use cg_webgen::CookieLabel;
use serde::Serialize;
use std::collections::BTreeSet;

/// Why a key was flagged (the first rule that fired, in fixed order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlagReason {
    /// A foreign delete was undone by the owner within a visit.
    Respawn,
    /// The owner ships the value off-site at ≥ `theta_self` of its
    /// sites.
    SelfShip,
    /// Some single foreign organization ships the value at ≥
    /// `theta_foreign` of the sites where it is co-present.
    ForeignHarvest,
}

/// The detector's decision for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Classified as a tracking cookie.
    pub flagged: bool,
    /// First rule that fired, when flagged.
    pub reason: Option<FlagReason>,
}

/// Applies the decision rules to one merged aggregate. Pure and
/// integer-driven: two identical aggregates always yield the same
/// verdict. `broad_shippers` lists the organizations (in the id space
/// of the [`DetectStats`] that holds `agg`) whose crawl-wide
/// shipped-name breadth exceeded [`DetectConfig::broad_shipper_names`]:
/// their foreign-harvest evidence is discounted (they ship whatever
/// exists, so co-shipping one key is not targeting), while self-ship
/// evidence is never discounted — an owner exfiltrating its own cookie
/// is deliberate regardless of how much else it ships.
pub fn verdict(config: &DetectConfig, agg: &KeyAgg, broad_shippers: &BTreeSet<OrgId>) -> Verdict {
    let none = Verdict {
        flagged: false,
        reason: None,
    };
    if agg.sites_seen == 0 {
        return none;
    }
    let sites = agg.sites_seen as f64;
    // Gate: a tracking identifier must look like one (id-shaped value)
    // and outlive the visit (persistent lifetime) on most sites.
    if (agg.id_sites as f64) < config.id_ratio_min * sites
        || (agg.persistent_sites as f64) < config.persistent_ratio_min * sites
    {
        return none;
    }
    // One observed respawn is already deliberate — no support floor.
    if agg.respawn_sites >= 1 {
        return Verdict {
            flagged: true,
            reason: Some(FlagReason::Respawn),
        };
    }
    if agg.sites_seen < config.min_support {
        return none;
    }
    if agg.self_ship_sites as f64 >= config.theta_self * sites {
        return Verdict {
            flagged: true,
            reason: Some(FlagReason::SelfShip),
        };
    }
    let foreign_hit = agg.foreign.iter().any(|(entity, f)| {
        !broad_shippers.contains(entity)
            && f.co_present >= config.min_support
            && f.ships as f64 >= config.theta_foreign * f.co_present as f64
    });
    if foreign_hit {
        return Verdict {
            flagged: true,
            reason: Some(FlagReason::ForeignHarvest),
        };
    }
    none
}

/// One scored key in the report, with the evidence behind its verdict.
#[derive(Debug, Clone, Serialize)]
pub struct KeyRow {
    /// Cookie name.
    pub name: String,
    /// Owner class rendering (`(site)`, `(cloaked)`, or entity name).
    pub owner: String,
    /// Ground-truth label.
    pub label: &'static str,
    /// Sites the key was written on.
    pub sites_seen: u64,
    /// Sites with an identifier-shaped value.
    pub id_sites: u64,
    /// Sites with a persistent lifetime.
    pub persistent_sites: u64,
    /// Sites with a respawn sequence.
    pub respawn_sites: u64,
    /// Sites where the owner shipped the value off-site.
    pub self_ship_sites: u64,
    /// Distinct values observed (sketch estimate).
    pub distinct_values: u64,
    /// Total value writes.
    pub value_writes: u64,
    /// Best-evidenced foreign harvester: `(entity, ships, co_present)`
    /// among entities at `min_support`, by rate.
    pub top_foreign: Option<(String, u64, u64)>,
    /// Detector decision.
    pub flagged: bool,
    /// First rule that fired.
    pub reason: Option<FlagReason>,
}

/// Confusion counts plus the derived scores, at one granularity.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Scores {
    /// Flagged trackers.
    pub tp: u64,
    /// Flagged functionals.
    pub fp: u64,
    /// Missed trackers.
    pub fn_: u64,
    /// Unflagged functionals.
    pub tn: u64,
    /// `tp / (tp + fp)` (1.0 when nothing was flagged).
    pub precision: f64,
    /// `tp / (tp + fn)` (1.0 when no trackers exist).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl Scores {
    fn add(&mut self, label: CookieLabel, flagged: bool, weight: u64) {
        match (label, flagged) {
            (CookieLabel::Tracker, true) => self.tp += weight,
            (CookieLabel::Functional, true) => self.fp += weight,
            (CookieLabel::Tracker, false) => self.fn_ += weight,
            (CookieLabel::Functional, false) => self.tn += weight,
        }
    }

    fn finish(&mut self) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        self.precision = ratio(self.tp, self.tp + self.fp);
        self.recall = ratio(self.tp, self.tp + self.fn_);
        self.f1 = if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        };
    }
}

/// Guard-vs-detector comparison: what a partitioning guard isolates
/// (every foreign-owned cookie) against what the detector flags.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct GuardMatrix {
    /// Foreign-owned and flagged (keys).
    pub both: u64,
    /// Foreign-owned, not flagged (keys) — partitioned functionals.
    pub guard_only: u64,
    /// Site-owned but flagged (keys) — first-party impersonation the
    /// guard misses.
    pub detector_only: u64,
    /// Site-owned, not flagged (keys).
    pub neither: u64,
    /// Same four cells weighted by sites seen.
    pub both_instances: u64,
    /// Foreign-owned, not flagged (instances).
    pub guard_only_instances: u64,
    /// Site-owned but flagged (instances).
    pub detector_only_instances: u64,
    /// Site-owned, not flagged (instances).
    pub neither_instances: u64,
}

/// The full detection report: deterministic serialization (sorted rows,
/// integer evidence, ratios derived once).
#[derive(Debug, Clone, Serialize)]
pub struct DetectReport {
    /// The thresholds that produced these verdicts.
    pub config: DetectConfig,
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Scored keys, sorted by (name, owner).
    pub keys: Vec<KeyRow>,
    /// Key-level confusion and scores.
    pub key_scores: Scores,
    /// Instance-level (site-weighted) confusion and scores — the
    /// acceptance-floor granularity.
    pub instance_scores: Scores,
    /// Guard-vs-detector comparison matrix.
    pub guard_matrix: GuardMatrix,
    /// Distinct unlabeled pairs observed (outside the scored universe).
    pub unlabeled_pairs: u64,
    /// Writes on unlabeled pairs.
    pub unlabeled_sets: u64,
    /// Organizations whose shipped-name breadth crossed
    /// [`DetectConfig::broad_shipper_names`] — their foreign-harvest
    /// evidence was discounted.
    pub broad_shippers: u64,
}

impl DetectReport {
    /// Scores merged fold state. Pure: identical aggregates in,
    /// byte-identical JSON out.
    pub fn from_stats(stats: &DetectStats<'_>) -> DetectReport {
        let config = stats.engine().config().clone();
        let broad_names: Vec<&str> = stats
            .shipper_names
            .iter()
            .filter(|(_, sketch)| sketch.estimate() > config.broad_shipper_names)
            .map(|(entity, _)| entity.as_str())
            .collect();
        // A broad shipper never co-present with any key has no id and
        // no foreign evidence to discount.
        let broad: BTreeSet<OrgId> = broad_names
            .iter()
            .filter_map(|name| stats.org_id(name))
            .collect();
        let mut keys = Vec::with_capacity(stats.keys.len());
        let mut key_scores = Scores::default();
        let mut instance_scores = Scores::default();
        let mut guard = GuardMatrix::default();
        for (key, agg) in &stats.keys {
            let v = verdict(&config, agg, &broad);
            key_scores.add(agg.label, v.flagged, 1);
            instance_scores.add(agg.label, v.flagged, agg.sites_seen);
            let isolated = matches!(key.owner, Owner::Entity(_) | Owner::Cloaked);
            match (isolated, v.flagged) {
                (true, true) => {
                    guard.both += 1;
                    guard.both_instances += agg.sites_seen;
                }
                (true, false) => {
                    guard.guard_only += 1;
                    guard.guard_only_instances += agg.sites_seen;
                }
                (false, true) => {
                    guard.detector_only += 1;
                    guard.detector_only_instances += agg.sites_seen;
                }
                (false, false) => {
                    guard.neither += 1;
                    guard.neither_instances += agg.sites_seen;
                }
            }
            let top_foreign = agg
                .foreign
                .iter()
                .filter(|(_, f)| f.co_present >= config.min_support)
                .max_by(|(ia, a), (ib, b)| {
                    // rate comparison via cross-multiplication (exact),
                    // entity name as the deterministic tie-break
                    (a.ships * b.co_present, stats.org_name(**ia))
                        .cmp(&(b.ships * a.co_present, stats.org_name(**ib)))
                })
                .map(|(&id, f)| (stats.org_name(id).to_string(), f.ships, f.co_present));
            keys.push(KeyRow {
                name: key.name.clone(),
                owner: key.owner.as_str().to_string(),
                label: agg.label.as_str(),
                sites_seen: agg.sites_seen,
                id_sites: agg.id_sites,
                persistent_sites: agg.persistent_sites,
                respawn_sites: agg.respawn_sites,
                self_ship_sites: agg.self_ship_sites,
                distinct_values: agg.distinct_values.estimate(),
                value_writes: agg.value_writes,
                top_foreign,
                flagged: v.flagged,
                reason: v.reason,
            });
        }
        key_scores.finish();
        instance_scores.finish();
        DetectReport {
            config,
            crawled: stats.crawled,
            complete: stats.complete,
            keys,
            key_scores,
            instance_scores,
            guard_matrix: guard,
            unlabeled_pairs: stats.unlabeled_pairs.estimate(),
            unlabeled_sets: stats.unlabeled_sets,
            broad_shippers: broad_names.len() as u64,
        }
    }

    /// Canonical JSON (the byte-identity surface the differential tests
    /// compare).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable table with grep-stable anchors (`detect.…`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "detect.crawled {} detect.complete {}",
            self.crawled, self.complete
        );
        let _ = writeln!(
            out,
            "detect.keys {} detect.unlabeled_pairs {} detect.broad_shippers {}",
            self.keys.len(),
            self.unlabeled_pairs,
            self.broad_shippers
        );
        let _ = writeln!(
            out,
            "{:<24} {:<20} {:>6} {:>5} {:>5} {:>5} {:>5}  label       verdict",
            "name", "owner", "sites", "id", "pers", "resp", "self"
        );
        for row in &self.keys {
            let verdict = match (row.flagged, row.reason) {
                (true, Some(FlagReason::Respawn)) => "FLAG respawn",
                (true, Some(FlagReason::SelfShip)) => "FLAG self-ship",
                (true, Some(FlagReason::ForeignHarvest)) => "FLAG foreign",
                _ => "-",
            };
            let _ = writeln!(
                out,
                "{:<24} {:<20} {:>6} {:>5} {:>5} {:>5} {:>5}  {:<10}  {}",
                row.name,
                row.owner,
                row.sites_seen,
                row.id_sites,
                row.persistent_sites,
                row.respawn_sites,
                row.self_ship_sites,
                row.label,
                verdict
            );
        }
        for (tag, s) in [
            ("key", &self.key_scores),
            ("instance", &self.instance_scores),
        ] {
            let _ = writeln!(
                out,
                "detect.{tag}.tp {} detect.{tag}.fp {} detect.{tag}.fn {} detect.{tag}.tn {}",
                s.tp, s.fp, s.fn_, s.tn
            );
            let _ = writeln!(
                out,
                "detect.{tag}.precision {:.4} detect.{tag}.recall {:.4} detect.{tag}.f1 {:.4}",
                s.precision, s.recall, s.f1
            );
        }
        let g = &self.guard_matrix;
        let _ = writeln!(
            out,
            "detect.guard.both {} detect.guard.guard_only {} detect.guard.detector_only {} detect.guard.neither {}",
            g.both, g.guard_only, g.detector_only, g.neither
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ForeignAgg;

    const AD_CO: OrgId = OrgId(0);
    const NARROW_CO: OrgId = OrgId(1);

    fn agg(sites: u64, id: u64, pers: u64) -> KeyAgg {
        KeyAgg {
            label: CookieLabel::Tracker,
            sites_seen: sites,
            id_sites: id,
            persistent_sites: pers,
            ..KeyAgg::default()
        }
    }

    fn no_broad() -> BTreeSet<OrgId> {
        BTreeSet::new()
    }

    #[test]
    fn gates_block_non_identifier_cookies() {
        let cfg = DetectConfig::default();
        // persistent + shipped, but never id-shaped → never flagged
        let mut a = agg(10, 2, 10);
        a.self_ship_sites = 10;
        assert!(!verdict(&cfg, &a, &no_broad()).flagged);
        // id-shaped + shipped but session-lifetime → never flagged
        let mut b = agg(10, 10, 2);
        b.self_ship_sites = 10;
        assert!(!verdict(&cfg, &b, &no_broad()).flagged);
    }

    #[test]
    fn respawn_needs_no_support_floor() {
        let cfg = DetectConfig::default();
        let mut a = agg(1, 1, 1);
        a.respawn_sites = 1;
        let v = verdict(&cfg, &a, &no_broad());
        assert!(v.flagged);
        assert_eq!(v.reason, Some(FlagReason::Respawn));
    }

    #[test]
    fn rate_paths_respect_min_support() {
        let cfg = DetectConfig::default();
        // below min_support: strong rates, still unflagged
        let mut a = agg(2, 2, 2);
        a.self_ship_sites = 2;
        assert!(!verdict(&cfg, &a, &no_broad()).flagged);
        // at support, self-ship rate fires
        let mut b = agg(10, 10, 10);
        b.self_ship_sites = 2; // 0.20 ≥ θ_self 0.18
        assert_eq!(
            verdict(&cfg, &b, &no_broad()).reason,
            Some(FlagReason::SelfShip)
        );
        // foreign path: rate is conditional on co-presence
        let mut c = agg(20, 20, 20);
        c.foreign.insert(
            AD_CO,
            ForeignAgg {
                co_present: 10,
                ships: 3, // 0.30 ≥ θ_foreign 0.18
            },
        );
        assert_eq!(
            verdict(&cfg, &c, &no_broad()).reason,
            Some(FlagReason::ForeignHarvest)
        );
        // same ships over a thin denominator is ignored
        let mut d = agg(20, 20, 20);
        d.foreign.insert(
            AD_CO,
            ForeignAgg {
                co_present: 2,
                ships: 2,
            },
        );
        assert!(!verdict(&cfg, &d, &no_broad()).flagged);
    }

    #[test]
    fn broad_shippers_lose_foreign_evidence_but_not_self_ship() {
        let cfg = DetectConfig::default();
        let broad: BTreeSet<OrgId> = [AD_CO].into();
        // the only foreign evidence comes from a broad shipper → ignored
        let mut a = agg(20, 20, 20);
        a.foreign.insert(
            AD_CO,
            ForeignAgg {
                co_present: 10,
                ships: 9,
            },
        );
        assert!(!verdict(&cfg, &a, &broad).flagged);
        // a second, narrow entity with the same evidence still fires
        let mut b = a.clone();
        b.foreign.insert(
            NARROW_CO,
            ForeignAgg {
                co_present: 10,
                ships: 9,
            },
        );
        assert_eq!(
            verdict(&cfg, &b, &broad).reason,
            Some(FlagReason::ForeignHarvest)
        );
        // self-ship is never discounted, even for a broad owner
        let mut c = agg(10, 10, 10);
        c.self_ship_sites = 10;
        assert_eq!(verdict(&cfg, &c, &broad).reason, Some(FlagReason::SelfShip));
    }

    #[test]
    fn scores_handle_empty_denominators() {
        let mut s = Scores::default();
        s.finish();
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1, 1.0);
    }
}
