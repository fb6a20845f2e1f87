//! The detection fold: a commutative monoid over visits, engine-shared.
//!
//! [`DetectStats`] is to the detector what
//! [`StreamStats`](cg_analysis::StreamStats) is to the crawl census:
//! each visit is reduced to [`VisitFacts`](crate::features::VisitFacts)
//! and folded into per-key aggregates, then dropped. Per-key state
//! exists only for registry-labeled pairs, so memory is bounded by the
//! label table (a few hundred keys), never by crawl size — the flat-RSS
//! property the streaming acceptance check pins.
//!
//! `merge` is associative and commutative (integer sums, max-merge
//! labels, order-independent sketch unions), and every ratio is
//! computed once at report time from merged integers — which is why
//! resident folds, streamed folds, and parallel per-segment folds at
//! any thread count serialize byte-identically.

use crate::engine::DetectEngine;
use crate::features::{extract, DetectKey, Owner, Stages};
use cg_analysis::DistinctSketch;
use cg_crawlstore::{ReadBackend, StoreError};
use cg_instrument::VisitLog;
use cg_telemetry::{global, Class, Counter};
use cg_webgen::CookieLabel;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::path::Path;
use std::sync::OnceLock;

struct DetectMetrics {
    logs_folded: Counter,
}

fn detect_metrics() -> &'static DetectMetrics {
    static METRICS: OnceLock<DetectMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DetectMetrics {
        logs_folded: global().counter("detect.logs_folded", Class::Workload),
    })
}

/// A foreign organization, interned by the [`DetectStats`] that folded
/// it. Ids are local to one fold state: `merge` remaps the other
/// partial's ids, and [`DetectStats::org_name`] turns them back into
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u32);

/// Hasher for [`OrgId`] keys: one multiply. Ids are small dense
/// integers chosen by the fold, so SipHash's collision resistance buys
/// nothing on the co-presence hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrgIdHasher(u64);

impl Hasher for OrgIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A sparse map keyed by [`OrgId`].
pub type OrgMap<V> = HashMap<OrgId, V, BuildHasherDefault<OrgIdHasher>>;

/// The organization interner: each name stored once per fold state.
#[derive(Debug, Clone, Default)]
struct Orgs {
    names: Vec<String>,
    ids: HashMap<String, OrgId>,
}

impl Orgs {
    fn intern(&mut self, name: &str) -> OrgId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = OrgId(u32::try_from(self.names.len()).expect("fewer than 2^32 organizations"));
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }
}

/// One foreign organization's interaction with one key: how often it
/// was co-present (its scripts ran while the cookie existed) and on how
/// many of those sites it shipped the value off-site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForeignAgg {
    /// Sites where this organization's scripts were included alongside
    /// the key (the rate denominator).
    pub co_present: u64,
    /// Sites where it shipped the key's value (non-bulk requests only).
    pub ships: u64,
}

/// Cross-site aggregate for one labeled key. All fields are integer
/// site counts; ratios are derived at report time.
#[derive(Debug, Clone)]
pub struct KeyAgg {
    /// Ground truth (Tracker wins across merged owners).
    pub label: CookieLabel,
    /// Sites on which the key was written at all.
    pub sites_seen: u64,
    /// Sites where a written value carried an identifier segment.
    pub id_sites: u64,
    /// Sites where a write requested a persistent lifetime.
    pub persistent_sites: u64,
    /// Sites with a foreign-delete-then-owner-recreate sequence.
    pub respawn_sites: u64,
    /// Sites where the owner itself shipped the value off-site.
    pub self_ship_sites: u64,
    /// Per foreign organization (interned, see [`OrgId`]): co-presence
    /// and harvest counts. Sparse: only organizations ever co-present
    /// with this key have an entry.
    pub foreign: OrgMap<ForeignAgg>,
    /// Distinct values observed across all sites (value stability).
    pub distinct_values: DistinctSketch,
    /// Total value-writes observed (the stability denominator).
    pub value_writes: u64,
}

impl Default for KeyAgg {
    fn default() -> KeyAgg {
        KeyAgg {
            label: CookieLabel::Functional,
            sites_seen: 0,
            id_sites: 0,
            persistent_sites: 0,
            respawn_sites: 0,
            self_ship_sites: 0,
            foreign: OrgMap::default(),
            distinct_values: DistinctSketch::default(),
            value_writes: 0,
        }
    }
}

impl KeyAgg {
    /// Adds `other`, whose foreign ids `remap` translates into this
    /// aggregate's id space.
    fn absorb(&mut self, other: KeyAgg, remap: &[OrgId]) {
        if other.label == CookieLabel::Tracker {
            self.label = CookieLabel::Tracker;
        }
        self.sites_seen += other.sites_seen;
        self.id_sites += other.id_sites;
        self.persistent_sites += other.persistent_sites;
        self.respawn_sites += other.respawn_sites;
        self.self_ship_sites += other.self_ship_sites;
        for (id, agg) in other.foreign {
            let e = self.foreign.entry(remap[id.0 as usize]).or_default();
            e.co_present += agg.co_present;
            e.ships += agg.ships;
        }
        self.distinct_values.absorb(other.distinct_values);
        self.value_writes += other.value_writes;
    }
}

/// The fold state: per-key aggregates plus crawl accounting. Borrows
/// the compiled engine (`DetectEngine` is `Sync`), so per-segment
/// partials share one compilation.
#[derive(Clone)]
pub struct DetectStats<'e> {
    engine: &'e DetectEngine,
    stages: Stages,
    /// Visits folded, complete or not.
    pub crawled: u64,
    /// Visits retained by the completeness filter.
    pub complete: u64,
    /// Per labeled key (BTreeMap: deterministic iteration for reports).
    pub keys: BTreeMap<DetectKey, KeyAgg>,
    /// Names behind the [`OrgId`]s in `keys`.
    orgs: Orgs,
    /// Distinct unlabeled `(name, owner)` pairs seen (sketched, never
    /// retained — these are outside the scored universe).
    pub unlabeled_pairs: DistinctSketch,
    /// Unblocked writes on unlabeled pairs.
    pub unlabeled_sets: u64,
    /// Per shipping organization: distinct cookie names it shipped
    /// off-site anywhere in the crawl (bulk included). Deliberate
    /// harvesters ship a small fixed list; jar samplers accumulate
    /// breadth — the report discounts the broad ones as foreign
    /// evidence.
    pub shipper_names: BTreeMap<String, DistinctSketch>,
}

impl<'e> DetectStats<'e> {
    /// The identity element for `engine` at `stages`.
    pub fn new(engine: &'e DetectEngine, stages: Stages) -> DetectStats<'e> {
        DetectStats {
            engine,
            stages,
            crawled: 0,
            complete: 0,
            keys: BTreeMap::new(),
            orgs: Orgs::default(),
            unlabeled_pairs: DistinctSketch::default(),
            unlabeled_sets: 0,
            shipper_names: BTreeMap::new(),
        }
    }

    /// The engine these stats were folded under.
    pub fn engine(&self) -> &'e DetectEngine {
        self.engine
    }

    /// The name of an organization interned by this fold state.
    pub fn org_name(&self, id: OrgId) -> &str {
        &self.orgs.names[id.0 as usize]
    }

    /// The id of `name`, when this fold state has seen it co-present.
    pub fn org_id(&self, name: &str) -> Option<OrgId> {
        self.orgs.ids.get(name).copied()
    }

    /// Folds one visit and drops it.
    pub fn fold(&mut self, log: &VisitLog) {
        detect_metrics().logs_folded.incr();
        self.crawled += 1;
        if !log.complete {
            return;
        }
        self.complete += 1;
        let facts = extract(self.engine, log, self.stages);
        // Resolve the visit's co-present organizations once, not per key.
        let present: Vec<OrgId> = facts
            .foreign_present
            .iter()
            .map(|e| self.orgs.intern(e))
            .collect();
        for (key, kf) in facts.keys {
            let shippers: Vec<OrgId> = kf
                .foreign_ships
                .iter()
                .map(|e| self.orgs.intern(e))
                .collect();
            let owner = match &key.owner {
                Owner::Entity(e) => self.orgs.ids.get(e).copied(),
                Owner::Site | Owner::Cloaked => None,
            };
            let agg = self.keys.entry(key.clone()).or_default();
            if kf.label == Some(CookieLabel::Tracker) {
                agg.label = CookieLabel::Tracker;
            }
            agg.sites_seen += 1;
            agg.id_sites += u64::from(kf.id_value);
            agg.persistent_sites += u64::from(kf.persistent);
            agg.respawn_sites += u64::from(kf.respawned);
            agg.self_ship_sites += u64::from(kf.self_ship);
            for value in &kf.values {
                agg.distinct_values
                    .observe(&[key.name.as_bytes(), value.as_bytes()]);
            }
            agg.value_writes += kf.values.len() as u64;
            // Foreign rates are conditional on presence: the union of
            // included-script organizations and actual shippers (a
            // shipper is present by construction).
            let absent_shippers = shippers.iter().filter(|id| !present.contains(id));
            for &id in present.iter().chain(absent_shippers) {
                if owner == Some(id) {
                    continue;
                }
                let f = agg.foreign.entry(id).or_default();
                f.co_present += 1;
                f.ships += u64::from(shippers.contains(&id));
            }
        }
        for (name, owner) in &facts.unlabeled_pairs {
            self.unlabeled_pairs
                .observe(&[name.as_bytes(), owner.as_bytes()]);
        }
        self.unlabeled_sets += facts.unlabeled_sets;
        for (entity, names) in facts.shipped_names {
            let sketch = self.shipper_names.entry(entity).or_default();
            for name in names {
                sketch.observe(&[name.as_bytes()]);
            }
        }
    }

    /// Absorbs another partial folded under the same engine.
    /// Associative and commutative; `par_fold_with` still returns the
    /// partials in fixed chunk order so the whole pipeline is
    /// deterministic.
    pub fn merge(mut self, other: DetectStats<'e>) -> DetectStats<'e> {
        self.crawled += other.crawled;
        self.complete += other.complete;
        // Remap the other partial's ids once per organization.
        let remap: Vec<OrgId> = other
            .orgs
            .names
            .iter()
            .map(|name| self.orgs.intern(name))
            .collect();
        for (key, agg) in other.keys {
            self.keys.entry(key).or_default().absorb(agg, &remap);
        }
        self.unlabeled_pairs.absorb(other.unlabeled_pairs);
        self.unlabeled_sets += other.unlabeled_sets;
        for (entity, sketch) in other.shipper_names {
            self.shipper_names.entry(entity).or_default().absorb(sketch);
        }
        self
    }

    /// Folds a fallible stream of visit logs (a crawl reader or one
    /// store segment stream).
    pub fn from_reader<E>(
        engine: &'e DetectEngine,
        stages: Stages,
        logs: impl IntoIterator<Item = Result<VisitLog, E>>,
    ) -> Result<DetectStats<'e>, E> {
        let mut stats = DetectStats::new(engine, stages);
        for log in logs {
            stats.fold(&log?);
        }
        Ok(stats)
    }

    /// Folds already-resident logs (the `Dataset` path).
    pub fn from_logs<'l>(
        engine: &'e DetectEngine,
        stages: Stages,
        logs: impl IntoIterator<Item = &'l VisitLog>,
    ) -> DetectStats<'e> {
        let mut stats = DetectStats::new(engine, stages);
        for log in logs {
            stats.fold(log);
        }
        stats
    }

    /// Streams the store at `dir` with up to `threads` parallel
    /// per-chunk folds over mmap'd windows.
    pub fn from_store(
        engine: &'e DetectEngine,
        stages: Stages,
        dir: impl AsRef<Path>,
        threads: usize,
    ) -> Result<DetectStats<'e>, StoreError> {
        DetectStats::from_store_with(engine, stages, dir, threads, ReadBackend::default())
    }

    /// [`DetectStats::from_store`] naming the [`ReadBackend`]. Every
    /// thread count produces a byte-identical report.
    pub fn from_store_with(
        engine: &'e DetectEngine,
        stages: Stages,
        dir: impl AsRef<Path>,
        threads: usize,
        backend: ReadBackend,
    ) -> Result<DetectStats<'e>, StoreError> {
        let partials = cg_crawlstore::par_fold_with(dir, threads, backend, |stream| {
            DetectStats::from_reader(engine, stages, stream)
        })?;
        Ok(partials
            .into_iter()
            .fold(DetectStats::new(engine, stages), DetectStats::merge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DetectConfig;
    use crate::report::DetectReport;
    use cg_instrument::{CookieApi, Recorder, WriteKind};
    use cg_webgen::{CookieLabels, GenConfig, WebGenerator};
    use std::sync::OnceLock;

    fn engine() -> &'static DetectEngine {
        static ENGINE: OnceLock<DetectEngine> = OnceLock::new();
        ENGINE.get_or_init(|| {
            let gen = WebGenerator::new(GenConfig::small(100), 3);
            let labels = CookieLabels::derive(gen.registry());
            DetectEngine::compile(
                &labels,
                cg_entity::builtin_entity_map(),
                DetectConfig::default(),
            )
        })
    }

    fn visit(site: &str, events: impl FnOnce(&mut Recorder)) -> VisitLog {
        let mut r = Recorder::new(site, 1);
        events(&mut r);
        r.finish()
    }

    /// `Recorder::record_set` cannot express a lifetime (only the
    /// browser's `emit_set` path fills it); patch it on after the fact.
    fn with_max_age(mut log: VisitLog, age: i64) -> VisitLog {
        for ev in &mut log.sets {
            ev.max_age_s = Some(age);
        }
        log
    }

    #[test]
    fn fold_aggregates_labeled_keys_only() {
        let mut stats = DetectStats::new(engine(), Stages::SetsOnly);
        stats.fold(&visit("shop.example", |r| {
            r.record_set(
                "_fbp",
                "fb.1.1746746266109.868308499845957651",
                Some("facebook.net"),
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                None,
                false,
                10,
            );
            r.record_set(
                "my_site_pref",
                "dark",
                None,
                None,
                CookieApi::DocumentCookie,
                WriteKind::Create,
                None,
                false,
                11,
            );
        }));
        assert_eq!(stats.complete, 1);
        let key = DetectKey {
            name: "_fbp".into(),
            owner: Owner::Entity("Meta".into()),
        };
        let agg = stats.keys.get(&key).expect("labeled key aggregated");
        assert_eq!(agg.sites_seen, 1);
        assert_eq!(agg.id_sites, 1, "fbp value carries an id segment");
        assert_eq!(agg.label, CookieLabel::Tracker);
        assert_eq!(stats.unlabeled_pairs.estimate(), 1);
        assert_eq!(stats.unlabeled_sets, 1);
    }

    #[test]
    fn merge_matches_sequential_fold() {
        let a = with_max_age(
            visit("a.example", |r| {
                r.record_set(
                    "_ga",
                    "GA1.1.444332364.1746838827",
                    Some("googletagmanager.com"),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    5,
                );
            }),
            63_072_000,
        );
        let b = with_max_age(
            visit("b.example", |r| {
                r.record_set(
                    "_ga",
                    "GA1.1.999911111.1746838999",
                    Some("googletagmanager.com"),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    5,
                );
            }),
            63_072_000,
        );
        let mut seq = DetectStats::new(engine(), Stages::Full);
        seq.fold(&a);
        seq.fold(&b);
        let mut pa = DetectStats::new(engine(), Stages::Full);
        pa.fold(&a);
        let mut pb = DetectStats::new(engine(), Stages::Full);
        pb.fold(&b);
        let merged = pa.merge(pb);
        assert_eq!(seq.keys.len(), merged.keys.len());
        let key = seq.keys.keys().next().unwrap();
        assert_eq!(seq.keys[key].sites_seen, merged.keys[key].sites_seen);
        assert_eq!(seq.keys[key].persistent_sites, 2);
        assert_eq!(merged.keys[key].distinct_values.estimate(), 2);
    }

    /// A visit on `site` where googletagmanager.com sets `_ga`, every
    /// organization in `orgs` includes a script, and `shipper` (if any)
    /// ships the `_ga` identifier off-site.
    fn ga_visit(site: &str, id: &str, orgs: &[&str], shipper: Option<&str>) -> VisitLog {
        with_max_age(
            visit(site, |r| {
                r.record_set(
                    "_ga",
                    &format!("GA1.1.{id}.1746838827"),
                    Some("googletagmanager.com"),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    5,
                );
                for org in orgs {
                    r.record_inclusion(Some(&format!("https://cdn.{org}/t.js")), true);
                }
                if let Some(org) = shipper {
                    let script = cg_url::Url::parse(&format!("https://cdn.{org}/t.js")).unwrap();
                    r.record_request(
                        &format!("https://sink.{org}/c?v={id}"),
                        cg_http::RequestKind::Image,
                        Some(&script),
                        site,
                        None,
                        9,
                    );
                }
            }),
            63_072_000,
        )
    }

    /// Every key's foreign evidence, by organization name.
    fn foreign_by_name(stats: &DetectStats<'_>) -> BTreeMap<(DetectKey, String), ForeignAgg> {
        stats
            .keys
            .iter()
            .flat_map(|(key, agg)| {
                agg.foreign
                    .iter()
                    .map(move |(&id, &f)| ((key.clone(), stats.org_name(id).to_string()), f))
            })
            .collect()
    }

    #[test]
    fn partials_with_different_org_tables_merge_in_either_order() {
        // Partial A interns {x.org, y.org}; partial B interns {y.org, z.org}
        // in a different id order (z.org is B's first organization).
        let a = [
            ga_visit("a1.site", "444332364", &["x.org", "y.org"], None),
            ga_visit("a2.site", "444332365", &["y.org"], Some("y.org")),
        ];
        let b = [
            ga_visit("b1.site", "444332366", &["z.org"], Some("z.org")),
            ga_visit("b2.site", "444332367", &["y.org", "z.org"], None),
        ];
        let fold = |logs: &[VisitLog]| DetectStats::from_logs(engine(), Stages::Full, logs);
        let seq = fold(&[a[0].clone(), a[1].clone(), b[0].clone(), b[1].clone()]);
        let (pa, pb) = (fold(&a), fold(&b));
        assert_eq!(pa.org_id("z.org"), None);
        assert_eq!(pb.org_id("x.org"), None);
        assert_eq!(pb.org_id("z.org"), Some(OrgId(0)));
        let ab = pa.clone().merge(pb.clone());
        let ba = pb.merge(pa);

        let want = DetectReport::from_stats(&seq).to_json();
        assert_eq!(DetectReport::from_stats(&ab).to_json(), want);
        assert_eq!(DetectReport::from_stats(&ba).to_json(), want);
        let evidence = foreign_by_name(&seq);
        assert_eq!(foreign_by_name(&ab), evidence);
        assert_eq!(foreign_by_name(&ba), evidence);
        let ga = |org: &str| {
            evidence
                .iter()
                .find(|((k, o), _)| k.name == "_ga" && o == org)
                .map(|(_, f)| *f)
        };
        assert_eq!(
            ga("x.org"),
            Some(ForeignAgg {
                co_present: 1,
                ships: 0
            })
        );
        assert_eq!(
            ga("y.org"),
            Some(ForeignAgg {
                co_present: 3,
                ships: 1
            })
        );
        assert_eq!(
            ga("z.org"),
            Some(ForeignAgg {
                co_present: 2,
                ships: 1
            })
        );
    }

    #[test]
    fn top_foreign_ties_break_by_name_not_id() {
        let key = DetectKey {
            name: "_ga".into(),
            owner: Owner::Entity("Google".into()),
        };
        let tied = ForeignAgg {
            co_present: 8,
            ships: 2,
        };
        // The same named evidence under both interning orders.
        let top = |order: [&str; 2]| {
            let mut stats = DetectStats::new(engine(), Stages::Full);
            let mut agg = KeyAgg::default();
            for name in order {
                agg.foreign.insert(stats.orgs.intern(name), tied);
            }
            stats.keys.insert(key.clone(), agg);
            let report = DetectReport::from_stats(&stats);
            (report.keys[0].top_foreign.clone(), report.to_json())
        };
        let (first, json) = top(["z.org", "a.org"]);
        let (second, json2) = top(["a.org", "z.org"]);
        assert_eq!(first, Some(("z.org".to_string(), 2, 8)));
        assert_eq!(second, first);
        assert_eq!(json2, json);
    }
}
