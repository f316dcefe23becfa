//! The spec codec's key sets are the documented ones: a misspelled key
//! in a checked-in spec fails to parse with a suggestion, and the key
//! tables in `docs/scenarios.md` list exactly the keys the codec
//! accepts, in both directions — down to the `decode` and `arrivals`
//! objects a tenant row spells out.

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

/// The body rows of the first table after `heading`.
fn table_rows<'a>(doc: &'a str, heading: &str) -> impl Iterator<Item = &'a str> {
    let start = doc
        .lines()
        .position(|l| l == heading)
        .unwrap_or_else(|| panic!("docs/scenarios.md has no {heading:?} heading"));
    doc.lines()
        .skip(start + 1)
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
}

/// The backticked names in the first column of the first table after
/// `heading` (a `` `tp` / `pp` `` cell names two keys).
fn table_keys(doc: &str, heading: &str) -> Vec<String> {
    let mut keys: Vec<String> = table_rows(doc, heading)
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

/// The JSON keys (`"name":`) the row for `key` of the table after
/// `heading` spells out in its example objects, sorted and deduplicated.
fn row_object_keys(doc: &str, heading: &str, key: &str) -> Vec<String> {
    let first_cell = format!("| `{key}` |");
    let row = table_rows(doc, heading)
        .find(|row| row.starts_with(&first_cell))
        .unwrap_or_else(|| panic!("{heading}: no row for `{key}`"));
    let mut keys: Vec<String> = row
        .split('"')
        .collect::<Vec<_>>()
        .windows(2)
        .skip(1) // (quoted, following) pairs: quoted segments are odd
        .step_by(2)
        .filter(|w| w[1].trim_start().starts_with(':'))
        .map(|w| w[0].to_string())
        .collect();
    keys.sort();
    keys.dedup();
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

#[test]
fn docs_workload_table_spells_exactly_the_decode_and_arrivals_keys() {
    let doc = repo_file("docs/scenarios.md");
    let heading = "## Workload block (one entry per tenant)";
    for (key, accepted) in [("decode", keys::DECODE), ("arrivals", keys::ARRIVALS)] {
        let mut accepted: Vec<String> = accepted.iter().map(|k| k.to_string()).collect();
        accepted.sort();
        assert_eq!(row_object_keys(&doc, heading, key), accepted, "{key}");
    }
}
