//! The spec codec's key sets are the documented ones: a misspelled key
//! in a checked-in spec fails to parse with a suggestion, and the key
//! tables in `docs/scenarios.md` list exactly the keys the codec
//! accepts, in both directions.

use pimphony::system::scenario::keys;
use pimphony::Scenario;

fn repo_file(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("cannot read {full}: {e}"))
}

#[test]
fn misspelled_policy_key_in_a_checked_in_spec_is_rejected_with_a_suggestion() {
    let text = repo_file("scenarios/slo/slo_native.json");
    Scenario::parse(&text).expect("the checked-in spec parses");
    let typo = text.replacen("\"preemption\"", "\"preemptoin\"", 1);
    assert_ne!(typo, text);
    let err = Scenario::parse(&typo).unwrap_err();
    assert!(
        err.starts_with("policies: unknown key \"preemptoin\" (did you mean \"preemption\"?"),
        "{err}"
    );
}

/// The backticked names in the first column of the first table after
/// `heading` (a `` `tp` / `pp` `` cell names two keys).
fn table_keys(doc: &str, heading: &str) -> Vec<String> {
    let start = doc
        .lines()
        .position(|l| l == heading)
        .unwrap_or_else(|| panic!("docs/scenarios.md has no {heading:?} heading"));
    let rows = doc
        .lines()
        .skip(start + 1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2); // header and separator
    let mut keys: Vec<String> = rows
        .flat_map(|row| {
            let cell = row.split('|').nth(1).unwrap_or_default();
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn docs_key_tables_list_exactly_the_accepted_keys() {
    let doc = repo_file("docs/scenarios.md");
    for (heading, accepted) in [
        ("## Top-level structure", keys::TOP),
        ("## Cluster block", keys::CLUSTER),
        ("### Pools (prefill/decode disaggregation)", keys::POOL),
        ("## Policies block", keys::POLICIES),
        ("## Workload block (one entry per tenant)", keys::TENANT),
    ] {
        let mut accepted: Vec<String> = accepted.iter().map(|k| k.to_string()).collect();
        accepted.sort();
        let documented = table_keys(&doc, heading);
        let undocumented: Vec<&String> = accepted
            .iter()
            .filter(|k| !documented.contains(k))
            .collect();
        let unaccepted: Vec<&String> = documented
            .iter()
            .filter(|k| !accepted.contains(k))
            .collect();
        assert!(
            undocumented.is_empty() && unaccepted.is_empty(),
            "{heading}: accepted but undocumented {undocumented:?}, \
             documented but not accepted {unaccepted:?}"
        );
        assert_eq!(documented, accepted, "{heading}: a key is listed twice");
    }
}
