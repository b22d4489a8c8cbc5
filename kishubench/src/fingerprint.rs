//! Namespace fingerprints: the ground truth every checkout and resume is
//! checked against.
//!
//! A fingerprint maps each bound name to a hash of its `repr` and a hash of
//! the payload bytes of every `External` (library) object reachable from
//! it. `repr` alone would miss library state: it prints an external
//! object's class, length and epoch, not its bytes.

use std::collections::BTreeMap;

use kishu::KishuSession;
use kishu_kernel::ObjKind;
use kishu_minipy::repr::repr;
use kishu_testkit::hash::{xxh64, xxh64_str};

/// Per-name `(repr hash, external payload hash)`.
pub type Fingerprint = BTreeMap<String, (u64, u64)>;

/// Fingerprint the session's live namespace.
pub fn fingerprint(session: &KishuSession) -> Fingerprint {
    let heap = &session.interp.heap;
    session
        .interp
        .globals
        .bindings()
        .map(|(name, root)| {
            // Reachability order follows heap layout, which a restore may
            // change; combine the per-object hashes order-independently.
            let mut payloads: Vec<u64> = heap
                .reachable_from(root)
                .into_iter()
                .filter_map(|id| match heap.kind(id) {
                    ObjKind::External { payload, .. } => Some(xxh64(payload, 0)),
                    _ => None,
                })
                .collect();
            payloads.sort_unstable();
            let combined = payloads.iter().fold(0u64, |acc, h| {
                xxh64(&[acc.to_le_bytes(), h.to_le_bytes()].concat(), 0)
            });
            (
                name.to_string(),
                (xxh64_str(&repr(heap, root), 0), combined),
            )
        })
        .collect()
}

/// Names whose entries differ between `expected` and `actual`, ignoring
/// the names in `skip`; names present on one side only count as differing.
pub fn mismatched_names(
    expected: &Fingerprint,
    actual: &Fingerprint,
    skip: &[String],
) -> Vec<String> {
    let mut names: Vec<&String> = expected.keys().chain(actual.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|n| !skip.contains(n) && expected.get(*n) != actual.get(*n))
        .cloned()
        .collect()
}

/// Check a restored namespace against the fingerprint recorded for its
/// commit. Names in recomputed co-variables were rebuilt by replaying
/// cells rather than loaded; they must be present, and their values are
/// compared apart from the rest. Returns `(loaded-side mismatches,
/// recomputed-side value mismatches)`.
pub fn check_restored(
    expected: &Fingerprint,
    actual: &Fingerprint,
    recomputed: &[Vec<String>],
) -> (Vec<String>, Vec<String>) {
    let recomputed_names: Vec<String> = recomputed.iter().flatten().cloned().collect();
    let mut strict = mismatched_names(expected, actual, &recomputed_names);
    let mut soft = Vec::new();
    for n in &recomputed_names {
        match (expected.get(n), actual.get(n)) {
            (Some(_), None) => strict.push(n.clone()),
            (e, a) if e != a => soft.push(n.clone()),
            _ => {}
        }
    }
    (strict, soft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kishu::KishuConfig;

    #[test]
    fn fingerprints_see_external_payload_bytes() {
        let mut s = KishuSession::in_memory(KishuConfig::default());
        s.run_cell("m = lib_obj('sk.KMeans', 4096, 1)\nx = [1, 2]\n")
            .expect("runs");
        let a = fingerprint(&s);
        s.run_cell("m = lib_obj('sk.KMeans', 4096, 2)\n")
            .expect("runs");
        let b = fingerprint(&s);
        // Same repr (class, length, epoch), different bytes.
        assert_eq!(a["m"].0, b["m"].0);
        assert_ne!(a["m"].1, b["m"].1);
        assert_eq!(mismatched_names(&a, &b, &[]), vec!["m".to_string()]);
        assert!(mismatched_names(&a, &b, &["m".to_string()]).is_empty());
        let (strict, soft) = check_restored(&a, &b, &[vec!["m".to_string()]]);
        assert!(strict.is_empty());
        assert_eq!(soft, vec!["m".to_string()]);
    }
}
