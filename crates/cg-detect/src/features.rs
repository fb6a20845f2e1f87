//! Per-visit feature extraction: one `VisitLog` in, bounded
//! [`VisitFacts`] out.
//!
//! Implements the COOKIEGRAPH-style per-cookie feature set over the
//! instrumentation this repo already records:
//!
//! * **setter identity** — ownership replay (create wins, overwrites
//!   keep the original owner), with the actor collapsed to its
//!   organization and CNAME cloaking surfaced: a write whose script URL
//!   is first-party but whose attributed actor is foreign (the
//!   `resolve_cnames` crawl uncloaks attribution) is an
//!   [`Owner::Cloaked`] write.
//! * **identifier value** — §4.4 segment extraction with
//!   timestamp/counter segments removed and structured consent strings
//!   excluded wholesale.
//! * **lifetime** — the `max_age_s` the write requested.
//! * **read/exfil fan-out** — which organizations ship the value
//!   off-site, split into the owner's own beacons (self-ship) and
//!   foreign harvest (discounted when the carrying request is a bulk
//!   beacon), plus the co-presence denominators the rate features
//!   need.
//! * **respawn** — a foreign delete followed by the original owner
//!   re-creating the same cookie within the visit.
//!
//! Only registry-labeled pairs get per-key state, so per-visit memory
//! is bounded by the (finite) label table, never by crawl size.

use crate::engine::DetectEngine;
use cg_hash::{EncodedForms, ExfilMatcher};
use cg_instrument::{VisitLog, WriteKind};
use cg_script::value::split_segments;
use cg_webgen::CookieLabel;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Who owns a cookie pair, at aggregation granularity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Owner {
    /// Created by the site itself (inline or first-party script).
    Site,
    /// Created through a CNAME cloak: the script URL was first-party
    /// but attribution resolved to a foreign organization.
    Cloaked,
    /// Created by a third-party organization (canonical entity name).
    Entity(String),
}

impl Owner {
    /// Stable rendering for reports (`(site)`, `(cloaked)`, or the
    /// entity name).
    pub fn as_str(&self) -> &str {
        match self {
            Owner::Site => "(site)",
            Owner::Cloaked => "(cloaked)",
            Owner::Entity(e) => e,
        }
    }
}

/// The detector's aggregation key: cookie name plus owner class. Same
/// name under different organizations stays distinct (the paper's pair
/// definition); the same behaviour across sites folds together.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DetectKey {
    /// Cookie name.
    pub name: String,
    /// Owner class.
    pub owner: Owner,
}

/// What one visit contributed to one labeled key.
#[derive(Debug, Clone, Default)]
pub struct KeyVisitFacts {
    /// Ground-truth label (Tracker wins if owners disagree on merge).
    pub label: Option<CookieLabel>,
    /// A written value carried an identifier segment.
    pub id_value: bool,
    /// A write requested a persistent lifetime.
    pub persistent: bool,
    /// Foreign delete followed by owner re-create.
    pub respawned: bool,
    /// The owner shipped the value to a non-site destination.
    pub self_ship: bool,
    /// Foreign organizations that shipped the value (non-bulk).
    pub foreign_ships: BTreeSet<String>,
    /// Distinct values written this visit (value-stability sketching).
    pub values: Vec<String>,
}

/// Everything one visit contributes to the fold.
#[derive(Debug, Clone, Default)]
pub struct VisitFacts {
    /// Per labeled key.
    pub keys: BTreeMap<DetectKey, KeyVisitFacts>,
    /// Foreign organizations whose scripts were included on the page —
    /// the co-presence denominator for foreign-harvest rates.
    pub foreign_present: BTreeSet<String>,
    /// Unlabeled pairs observed, as `(name, owner-domain)` (folded into
    /// a distinct sketch, never retained).
    pub unlabeled_pairs: Vec<(String, String)>,
    /// Unblocked set events on unlabeled pairs.
    pub unlabeled_sets: u64,
    /// Every cookie name each organization shipped off-site this visit
    /// (bulk included) — feeds the global breadth profile that
    /// separates fixed-list harvesters from jar samplers.
    pub shipped_names: BTreeMap<String, BTreeSet<String>>,
}

/// Which extraction stages to run — the bench harness times the set
/// replay and the request-matching stage separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stages {
    /// Ownership replay + value/lifetime features only.
    SetsOnly,
    /// Everything, including exfil matching over requests.
    Full,
}

/// Whether `seg` looks like a minted identifier rather than a
/// timestamp or counter. Pure-decimal segments need ≥ 9 digits (8-digit
/// counters stay out, GA's 9-digit client id stays in) and must not
/// sit in the epoch-seconds or epoch-milliseconds ranges.
fn id_segment(seg: &str) -> bool {
    if !seg.bytes().all(|b| b.is_ascii_digit()) {
        return true; // hex/uuid/alpha segments of ≥8 chars are ids
    }
    if seg.len() < 9 {
        return false; // short counters
    }
    match seg.parse::<u64>() {
        // epoch seconds (2001–2039) or epoch millis (2001–2096).
        Ok(n) => {
            !(1_000_000_000..2_200_000_000).contains(&n)
                && !(1_000_000_000_000..4_000_000_000_000).contains(&n)
        }
        Err(_) => true, // > u64: a long numeric id
    }
}

/// Structured values (consent strings: `k=v&k=v`) are settings blobs,
/// not identifiers — even though they may embed id-shaped segments.
fn structured_value(value: &str) -> bool {
    value.contains('=') && value.contains('&')
}

/// The identifier candidates of one cookie value.
fn id_segments(value: &str) -> Vec<&str> {
    if structured_value(value) {
        return Vec::new();
    }
    split_segments(value)
        .into_iter()
        .filter(|s| id_segment(s))
        .collect()
}

/// Extracts one visit's facts. Pure: same log + engine → same facts,
/// independent of any other visit (the order-independence property the
/// proptest pins).
pub fn extract(engine: &DetectEngine, log: &VisitLog, stages: Stages) -> VisitFacts {
    let site = log.site_domain.as_str();
    let site_entity = engine.entity_of(site);
    let mut out = VisitFacts::default();

    // -- set replay: ownership, labels, value/lifetime features -------
    // live owner per cookie name: (actor domain, key when labeled)
    let mut live: HashMap<&str, (String, Option<DetectKey>)> = HashMap::new();
    // names a foreign actor deleted, with the original owner domain
    let mut foreign_deleted: HashMap<&str, String> = HashMap::new();
    let mut unlabeled_seen: BTreeSet<(String, String)> = BTreeSet::new();

    for ev in &log.sets {
        if ev.blocked {
            continue;
        }
        let actor = ev.actor.as_deref().unwrap_or(site);
        match ev.kind {
            WriteKind::Create => {
                let owner = classify_owner(engine, actor, ev.actor_url.as_deref(), site);
                let label = match &owner {
                    Owner::Site => engine.label_for(&ev.name, site),
                    _ => engine.label_for(&ev.name, actor),
                };
                let key = label.map(|_| DetectKey {
                    name: ev.name.clone(),
                    owner: owner.clone(),
                });
                if let Some(key) = &key {
                    let facts = out.keys.entry(key.clone()).or_default();
                    facts.label = max_label(facts.label, label);
                    facts.id_value |= !id_segments(&ev.value).is_empty();
                    facts.persistent |= ev
                        .max_age_s
                        .is_some_and(|a| a >= engine.config().persist_cutoff_s);
                    facts.values.push(ev.value.clone());
                    // respawn: this create resurrects a foreign-deleted
                    // cookie under its original owner
                    if let Some(orig) = foreign_deleted.get(ev.name.as_str()) {
                        if engine.same_entity(orig, actor) {
                            facts.respawned = true;
                        }
                    }
                } else {
                    out.unlabeled_sets += 1;
                    unlabeled_seen.insert((ev.name.clone(), actor.to_string()));
                }
                live.insert(&ev.name, (actor.to_string(), key));
            }
            WriteKind::Overwrite => {
                match live.get(ev.name.as_str()) {
                    Some((_, Some(key))) => {
                        // ownership is sticky: the overwrite feeds the
                        // original pair's features
                        let facts = out.keys.entry(key.clone()).or_default();
                        facts.id_value |= !id_segments(&ev.value).is_empty();
                        facts.persistent |= ev
                            .max_age_s
                            .is_some_and(|a| a >= engine.config().persist_cutoff_s);
                        facts.values.push(ev.value.clone());
                    }
                    Some((_, None)) => out.unlabeled_sets += 1,
                    None => {
                        // blind overwrite of an invisible cookie:
                        // treat as a create by this actor
                        let owner = classify_owner(engine, actor, ev.actor_url.as_deref(), site);
                        let label = match &owner {
                            Owner::Site => engine.label_for(&ev.name, site),
                            _ => engine.label_for(&ev.name, actor),
                        };
                        let key = label.map(|_| DetectKey {
                            name: ev.name.clone(),
                            owner,
                        });
                        if let Some(key) = &key {
                            let facts = out.keys.entry(key.clone()).or_default();
                            facts.label = max_label(facts.label, label);
                            facts.id_value |= !id_segments(&ev.value).is_empty();
                            facts.persistent |= ev
                                .max_age_s
                                .is_some_and(|a| a >= engine.config().persist_cutoff_s);
                            facts.values.push(ev.value.clone());
                        } else {
                            out.unlabeled_sets += 1;
                            unlabeled_seen.insert((ev.name.clone(), actor.to_string()));
                        }
                        live.insert(&ev.name, (actor.to_string(), key));
                    }
                }
            }
            WriteKind::Delete => {
                if let Some((owner_domain, _)) = live.get(ev.name.as_str()) {
                    if !engine.same_entity(owner_domain, actor) {
                        foreign_deleted.insert(&ev.name, owner_domain.clone());
                    }
                }
            }
        }
    }
    out.unlabeled_pairs = unlabeled_seen.into_iter().collect();

    if stages == Stages::SetsOnly {
        return out;
    }

    // -- co-presence: which foreign organizations ran scripts here ----
    for inc in &log.inclusions {
        if let Some(d) = &inc.domain {
            let e = engine.entity_of(d);
            if e != site_entity {
                out.foreign_present.insert(e);
            }
        }
    }

    // -- exfil matching: who ships which key's value where ------------
    let mut form_keys: Vec<&DetectKey> = Vec::new();
    let mut forms: Vec<EncodedForms> = Vec::new();
    for (key, facts) in &out.keys {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for value in &facts.values {
            for seg in id_segments(value) {
                if seen.insert(seg) {
                    form_keys.push(key);
                    forms.push(EncodedForms::of(seg));
                }
            }
        }
    }
    if forms.is_empty() {
        return out;
    }
    let matcher = ExfilMatcher::compile(&forms);
    // Forms are grouped by key in key order: each key boundary between
    // neighbours adds one distinct key.
    let id_keys_in_visit = 1 + form_keys.windows(2).filter(|w| w[0] != w[1]).count();

    let mut ships: Vec<(DetectKey, String, bool)> = Vec::new(); // (key, initiator entity, bulk)
    let mut hits = Vec::new();
    let mut matched: Vec<&DetectKey> = Vec::new();
    for req in &log.requests {
        let Some(dest) = &req.dest_domain else {
            continue;
        };
        if dest.eq_ignore_ascii_case(site) {
            continue; // first-party traffic is not exfiltration
        }
        matcher.find_into(&req.url, &mut hits);
        if hits.is_empty() {
            continue;
        }
        let initiator = req.initiator.as_deref().unwrap_or(site);
        let init_entity = engine.entity_of(initiator);
        matched.clear();
        matched.extend(hits.iter().map(|&i| form_keys[i]));
        matched.dedup();
        // Bulk = many keys in absolute terms, or most of what this
        // visit's jar had to offer (samplers empty small jars without
        // ever hitting the absolute threshold).
        let bulk = matched.len() >= engine.config().bulk_distinct_keys
            || (matched.len() >= 2
                && matched.len() as f64
                    >= engine.config().bulk_jar_fraction * id_keys_in_visit as f64);
        for &key in &matched {
            out.shipped_names
                .entry(init_entity.clone())
                .or_default()
                .insert(key.name.clone());
            ships.push((key.clone(), init_entity.clone(), bulk));
        }
    }
    for (key, init_entity, bulk) in ships {
        let owner_is_initiator = match &key.owner {
            Owner::Site | Owner::Cloaked => init_entity == site_entity,
            Owner::Entity(e) => *e == init_entity,
        };
        let facts = out.keys.get_mut(&key).expect("key came from out.keys");
        if owner_is_initiator {
            // The owner shipping its own cookie off-site is always
            // deliberate — bulk or not (self-hosted analytics ships the
            // whole jar).
            facts.self_ship = true;
        } else if !bulk {
            facts.foreign_ships.insert(init_entity);
        }
    }
    out
}

/// Owner classification for one write.
fn classify_owner(
    engine: &DetectEngine,
    actor: &str,
    actor_url: Option<&str>,
    site: &str,
) -> Owner {
    if actor.eq_ignore_ascii_case(site) {
        return Owner::Site;
    }
    // Foreign attribution from a first-party script URL = the
    // `resolve_cnames` crawl uncloaked a CNAME alias.
    let url_domain = actor_url.and_then(cg_url::url_domain);
    if url_domain
        .as_deref()
        .is_some_and(|d| d.eq_ignore_ascii_case(site))
    {
        return Owner::Cloaked;
    }
    Owner::Entity(engine.entity_of(actor))
}

/// Tracker wins when two owners of a merged key disagree.
fn max_label(a: Option<CookieLabel>, b: Option<CookieLabel>) -> Option<CookieLabel> {
    match (a, b) {
        (Some(CookieLabel::Tracker), _) | (_, Some(CookieLabel::Tracker)) => {
            Some(CookieLabel::Tracker)
        }
        (Some(l), _) => Some(l),
        (None, l) => l,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_segment_rejects_timestamps_and_counters() {
        assert!(id_segment("444332364")); // GA 9-digit client id
        assert!(!id_segment("1746838827")); // epoch seconds
        assert!(!id_segment("1746746266109")); // epoch millis
        assert!(!id_segment("12345678")); // 8-digit counter
        assert!(id_segment("868308499845957651")); // FBP 18-digit id
        assert!(id_segment("deadbeefcafe")); // hex
    }

    #[test]
    fn consent_strings_have_no_candidates() {
        let v = "isGpcEnabled=0&datestamp=99&consentId=aaaabbbb-cccc-dddd-eeee-ffff00001111";
        assert!(id_segments(v).is_empty());
        assert_eq!(id_segments("GA1.1.444332364.1746838827"), vec!["444332364"]);
    }
}
