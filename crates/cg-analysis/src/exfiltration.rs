//! Exfiltration detection (§4.4) and its aggregations (Table 2, Fig. 2).
//!
//! Pipeline, exactly as the paper specifies:
//!
//! 1. split every cookie value on non-alphanumeric delimiters and keep
//!    candidate identifiers of ≥8 characters;
//! 2. compute the Base64, MD5, and SHA-1 encodings of each candidate;
//! 3. scan the outbound requests' URLs for any encoded form;
//! 4. confirm exfiltration when a form appears in a request to a
//!    domain other than the visited site, and label it *cross-domain*
//!    when the initiating script's eTLD+1 differs from the cookie
//!    pair's owner.

use crate::dataset::{Dataset, PairKey};
use cg_entity::EntityMap;
use cg_hash::{EncodedForms, ExfilMatcher};
use cg_instrument::CookieApi;
use cg_script::value::split_segments;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One confirmed exfiltration event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExfilEvent {
    /// The site on which the event occurred.
    pub site: String,
    /// The exfiltrated cookie pair.
    pub pair: PairKey,
    /// eTLD+1 of the script that sent the request.
    pub exfiltrator: String,
    /// eTLD+1 of the receiving endpoint.
    pub destination: String,
    /// True when the exfiltrator is not the pair's owner.
    pub cross_domain: bool,
}

/// Per-pair aggregate for Table 2.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PairExfilAggregate {
    /// Cross-domain exfiltrator entities (excluding the owner's own).
    pub exfiltrator_entities: HashSet<String>,
    /// Destination entities.
    pub destination_entities: HashSet<String>,
    /// Sites on which the pair was cross-domain exfiltrated.
    pub sites: HashSet<String>,
    /// Exfiltrator entity → how many sites it exfiltrated this pair on.
    pub exfiltrator_counts: HashMap<String, usize>,
    /// Destination entity → receive count.
    pub destination_counts: HashMap<String, usize>,
}

/// The complete exfiltration analysis result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExfilAnalysis {
    /// All events (cross-domain and authorized).
    pub events: Vec<ExfilEvent>,
    /// Sites with ≥1 cross-domain exfiltration of a `document.cookie`
    /// pair.
    pub sites_with_cross_exfil_doc: HashSet<String>,
    /// Sites with ≥1 cross-domain exfiltration of a CookieStore pair.
    pub sites_with_cross_exfil_store: HashSet<String>,
    /// Pairs (document.cookie) cross-domain exfiltrated.
    pub cross_exfiltrated_pairs_doc: HashSet<PairKey>,
    /// Pairs (CookieStore) cross-domain exfiltrated.
    pub cross_exfiltrated_pairs_store: HashSet<PairKey>,
    /// Table 2 aggregates, keyed by pair.
    pub per_pair: HashMap<PairKey, PairExfilAggregate>,
    /// Fig. 2: exfiltrator script domain → unique pairs it exfiltrated
    /// cross-domain.
    pub per_exfiltrator_domain: HashMap<String, HashSet<PairKey>>,
}

/// Runs the detection pipeline over a dataset.
///
/// Events come out in a fixed order — sites in dataset order, then
/// requests in log order, then pairs in sorted [`PairKey`] order — so
/// two runs over the same dataset serialize identically.
pub fn detect_exfiltration(ds: &Dataset, entities: &EntityMap) -> ExfilAnalysis {
    let mut out = ExfilAnalysis::default();
    let mut hits = Vec::new();

    for (log, site) in ds.logs.iter().zip(&ds.sites) {
        let mut pairs: Vec<(&PairKey, CookieApi, &Vec<String>)> = site
            .pairs
            .iter()
            .filter_map(|(key, hist)| Some((key, hist.api?, &hist.values)))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        // Candidate forms for this site's pairs.
        let mut owners: Vec<(&PairKey, CookieApi)> = Vec::new();
        let mut forms: Vec<EncodedForms> = Vec::new();
        for (key, api, values) in pairs {
            let mut seen: HashSet<&str> = HashSet::new();
            for value in values {
                for seg in split_segments(value) {
                    if seen.insert(seg) {
                        owners.push((key, api));
                        forms.push(EncodedForms::of(seg));
                    }
                }
            }
        }
        if forms.is_empty() {
            continue;
        }
        let matcher = ExfilMatcher::compile(&forms);

        for req in &log.requests {
            // Only third-party destinations can receive an exfiltration.
            let Some(dest) = &req.dest_domain else {
                continue;
            };
            if dest.eq_ignore_ascii_case(&log.site_domain) {
                continue;
            }
            // The initiator must be attributable for per-script analysis.
            let Some(initiator) = &req.initiator else {
                continue;
            };
            matcher.find_into(&req.url, &mut hits);
            for &i in &hits {
                let (key, api) = owners[i];
                let cross = !initiator.eq_ignore_ascii_case(&key.owner);
                out.events.push(ExfilEvent {
                    site: log.site_domain.clone(),
                    pair: key.clone(),
                    exfiltrator: initiator.clone(),
                    destination: dest.clone(),
                    cross_domain: cross,
                });
                if cross {
                    match api {
                        CookieApi::CookieStore => {
                            out.sites_with_cross_exfil_store
                                .insert(log.site_domain.clone());
                            out.cross_exfiltrated_pairs_store.insert(key.clone());
                        }
                        _ => {
                            out.sites_with_cross_exfil_doc
                                .insert(log.site_domain.clone());
                            out.cross_exfiltrated_pairs_doc.insert(key.clone());
                        }
                    }
                    let agg = out.per_pair.entry(key.clone()).or_default();
                    let ex_entity = entities.entity_of(initiator);
                    let dest_entity = entities.entity_of(dest);
                    // The paper excludes the owner's own entity from the
                    // exfiltrator count (Table 2 "excluding Google").
                    if ex_entity != entities.entity_of(&key.owner) {
                        agg.exfiltrator_entities.insert(ex_entity.clone());
                        *agg.exfiltrator_counts.entry(ex_entity).or_insert(0) += 1;
                    }
                    agg.destination_entities.insert(dest_entity.clone());
                    *agg.destination_counts.entry(dest_entity).or_insert(0) += 1;
                    agg.sites.insert(log.site_domain.clone());
                    out.per_exfiltrator_domain
                        .entry(initiator.clone())
                        .or_default()
                        .insert(key.clone());
                }
            }
        }
    }
    out
}

impl ExfilAnalysis {
    /// Table 2: the top `n` pairs by destination-entity count, with the
    /// top-3 exfiltrator and destination entities each.
    pub fn table2(&self, n: usize) -> Vec<Table2Row> {
        let mut rows: Vec<Table2Row> = self
            .per_pair
            .iter()
            .map(|(key, agg)| Table2Row {
                cookie: key.name.clone(),
                owner: key.owner.clone(),
                exfiltrator_entities: agg.exfiltrator_entities.len(),
                destination_entities: agg.destination_entities.len(),
                top_exfiltrators: top_k(&agg.exfiltrator_counts, 3),
                top_destinations: top_k(&agg.destination_counts, 3),
                consent_signal: is_consent_signal(&key.name),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.destination_entities
                .cmp(&a.destination_entities)
                .then(b.exfiltrator_entities.cmp(&a.exfiltrator_entities))
                .then(a.cookie.cmp(&b.cookie))
                // Owner completes the pair key: without it, equal-count
                // same-name pairs order by HashMap iteration and the
                // report is not byte-reproducible across runs.
                .then(a.owner.cmp(&b.owner))
        });
        rows.truncate(n);
        rows
    }

    /// Fig. 2: the top `n` exfiltrator script domains by unique pairs
    /// exfiltrated, with the share of all `total_pairs`.
    pub fn fig2(&self, n: usize, total_pairs: usize) -> Vec<(String, usize, f64)> {
        let mut rows: Vec<(String, usize)> = self
            .per_exfiltrator_domain
            .iter()
            .map(|(d, pairs)| (d.clone(), pairs.len()))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows.into_iter()
            .map(|(d, c)| {
                let share = if total_pairs == 0 {
                    0.0
                } else {
                    100.0 * c as f64 / total_pairs as f64
                };
                (d, c, share)
            })
            .collect()
    }
}

/// One Table 2 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// Cookie name.
    pub cookie: String,
    /// Creating domain.
    pub owner: String,
    /// Distinct cross-domain exfiltrator entities.
    pub exfiltrator_entities: usize,
    /// Distinct destination entities.
    pub destination_entities: usize,
    /// Most frequent exfiltrator entities.
    pub top_exfiltrators: Vec<String>,
    /// Most frequent destination entities.
    pub top_destinations: Vec<String>,
    /// True for IAB consent strings (`us_privacy`): *intended* to be
    /// read downstream, flagged as a consent signal rather than a
    /// tracking identifier (the paper's §5.4 exception).
    pub consent_signal: bool,
}

/// Whether a cookie name carries the IAB U.S. Privacy (CCPA) consent
/// string — §5.4 flags these as consent signals, not tracking
/// identifiers, since downstream ad tech is *supposed* to read them.
pub fn is_consent_signal(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower == "us_privacy" || lower == "usprivacy"
}

fn top_k(counts: &HashMap<String, usize>, k: usize) -> Vec<String> {
    let mut v: Vec<(&String, &usize)> = counts.iter().collect();
    v.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    v.into_iter()
        .take(k)
        .map(|(name, _)| name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cg_instrument::{Recorder, WriteKind};

    fn dataset_one_site() -> Dataset {
        let mut r = Recorder::new("shop.example", 1);
        // gtm.com sets _ga.
        r.record_set(
            "_ga",
            "GA1.1.444332364.1746838827",
            Some("gtm.com"),
            Some("https://gtm.com/gtm.js"),
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        // a short cookie that can never match
        r.record_set(
            "tiny",
            "v1",
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            1,
        );
        // licdn.com exfiltrates the _ga segment, Base64-encoded.
        let b64 = cg_hash::b64encode_no_pad(b"444332364");
        let script = cg_url::Url::parse("https://snap.licdn.com/insight.min.js").unwrap();
        r.record_request(
            &format!("https://px.ads.linkedin.com/attribution_trigger?pid=1&ga={b64}"),
            cg_http::RequestKind::Image,
            Some(&script),
            "shop.example",
            None,
            10,
        );
        // gtm.com also sends its own cookie home (authorized, not cross).
        let gtm_script = cg_url::Url::parse("https://gtm.com/gtm.js").unwrap();
        r.record_request(
            "https://collect.gtm.com/g?id=444332364",
            cg_http::RequestKind::Beacon,
            Some(&gtm_script),
            "shop.example",
            None,
            11,
        );
        Dataset::from_logs(vec![r.finish()])
    }

    #[test]
    fn detects_base64_segment_exfiltration() {
        let ds = dataset_one_site();
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        let cross: Vec<&ExfilEvent> = analysis.events.iter().filter(|e| e.cross_domain).collect();
        assert_eq!(cross.len(), 1);
        assert_eq!(cross[0].exfiltrator, "licdn.com");
        assert_eq!(cross[0].destination, "linkedin.com");
        assert_eq!(cross[0].pair.owner, "gtm.com");
        // The authorized gtm→gtm.com event is recorded but not cross.
        assert!(analysis
            .events
            .iter()
            .any(|e| !e.cross_domain && e.exfiltrator == "gtm.com"));
        assert_eq!(analysis.sites_with_cross_exfil_doc.len(), 1);
    }

    #[test]
    fn table2_aggregates_entities() {
        let ds = dataset_one_site();
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        let rows = analysis.table2(5);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cookie, "_ga");
        // licdn.com belongs to Microsoft in the entity map.
        assert_eq!(rows[0].top_exfiltrators, vec!["Microsoft".to_string()]);
        assert_eq!(rows[0].exfiltrator_entities, 1);
        assert_eq!(rows[0].destination_entities, 1);
    }

    #[test]
    fn us_privacy_flagged_as_consent_signal() {
        // §5.4: the IAB CCPA string is *meant* to be read downstream.
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "us_privacy",
            "1YNN8437206153",
            Some("ketchjs.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let script = cg_url::Url::parse("https://cdn.yieldpartner.io/bid.js").unwrap();
        r.record_request(
            "https://sync.yieldpartner.io/px?usp=1YNN8437206153",
            cg_http::RequestKind::Image,
            Some(&script),
            "site.com",
            None,
            3,
        );
        let ds = Dataset::from_logs(vec![r.finish()]);
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        let rows = analysis.table2(5);
        assert_eq!(rows.len(), 1);
        assert!(rows[0].consent_signal, "us_privacy must be flagged");
        assert!(is_consent_signal("usprivacy"));
        assert!(!is_consent_signal("_ga"));
    }

    #[test]
    fn fig2_ranks_exfiltrators() {
        let ds = dataset_one_site();
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        let rows = analysis.fig2(10, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "licdn.com");
        assert_eq!(rows[0].1, 1);
        assert!((rows[0].2 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn full_value_base64_is_missed() {
        // Encoding the FULL value (with a prefix whose length is not a
        // multiple of 3) destroys Base64 segment alignment: the detector
        // (faithfully) cannot match it. Note that when the prefix length
        // IS a multiple of 3 — e.g. `GA1.1.` — the segment's Base64 runs
        // appear verbatim inside the full-value encoding and detection
        // still succeeds; this test pins the genuinely-evasive case.
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "_ga",
            "uid_444332364_tail",
            Some("gtm.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let b64_full = cg_hash::b64encode_no_pad(b"uid_444332364_tail");
        let script = cg_url::Url::parse("https://sneaky.io/t.js").unwrap();
        r.record_request(
            &format!("https://sink.sneaky.io/c?x={b64_full}"),
            cg_http::RequestKind::Xhr,
            Some(&script),
            "site.com",
            None,
            5,
        );
        let ds = Dataset::from_logs(vec![r.finish()]);
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        assert!(
            analysis.events.is_empty(),
            "full-value encoding must evade segment matching"
        );
    }

    #[test]
    fn own_site_requests_not_exfiltration() {
        let mut r = Recorder::new("site.com", 1);
        r.record_set(
            "c",
            "abcdefgh12345678",
            Some("t.com"),
            None,
            CookieApi::DocumentCookie,
            WriteKind::Create,
            None,
            false,
            0,
        );
        let script = cg_url::Url::parse("https://t.com/t.js").unwrap();
        r.record_request(
            "https://api.site.com/save?v=abcdefgh12345678",
            cg_http::RequestKind::Xhr,
            Some(&script),
            "site.com",
            None,
            1,
        );
        let ds = Dataset::from_logs(vec![r.finish()]);
        let analysis = detect_exfiltration(&ds, &cg_entity::builtin_entity_map());
        assert!(analysis.events.is_empty());
    }

    #[test]
    fn events_serialize_identically_across_runs() {
        // Sixteen pairs shipped by one request: in hash-map order the
        // events of two separately built datasets would almost surely
        // differ in order.
        let log = || {
            let mut r = Recorder::new("site.com", 1);
            for i in 0..16 {
                r.record_set(
                    &format!("c{i:02}"),
                    &format!("uid{i:02}x4443323"),
                    Some(if i % 2 == 0 { "gtm.com" } else { "t.com" }),
                    None,
                    CookieApi::DocumentCookie,
                    WriteKind::Create,
                    None,
                    false,
                    i,
                );
            }
            let ids: Vec<String> = (0..16).map(|i| format!("uid{i:02}x4443323")).collect();
            let script = cg_url::Url::parse("https://sneaky.io/t.js").unwrap();
            r.record_request(
                &format!("https://sink.sneaky.io/c?ids={}", ids.join(",")),
                cg_http::RequestKind::Xhr,
                Some(&script),
                "site.com",
                None,
                20,
            );
            r.finish()
        };
        let entities = cg_entity::builtin_entity_map();
        let run = || {
            let analysis = detect_exfiltration(&Dataset::from_logs(vec![log()]), &entities);
            serde_json::to_string(&analysis.events).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        let events: Vec<ExfilEvent> = serde_json::from_str(&first).unwrap();
        assert_eq!(events.len(), 16);
        assert!(events.windows(2).all(|w| w[0].pair < w[1].pair));
    }
}
