//! The metric surface is what `register_all_metrics()` says it is: after a
//! served workload that touches every layer, no series exists that was not
//! already registered (at zero) up front, and every family is documented —
//! with its kind — in README's `## Metrics` table, which in turn lists no
//! family the registry does not have.
//!
//! One test, alone in its binary: it reads the whole process-global registry.

use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::VariantConfig;
use mmdbms::prelude::*;
use mmdbms::server::protocol::{PlanKind, ProfileKind};
use mmdbms::server::{Client, QueryBackend, QueryServer, RangeRequest, ServerConfig};
use mmdbms::storage::DurabilityOptions;
use mmdbms::telemetry::{self, global};
use mmdbms::MultimediaDatabase;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Families whose label values are data (a histogram bin, a version
/// string), so their series cannot exist before the data does. They are
/// matched by family name only.
const LABEL_GENERATED: [&str; 3] = [
    "mmdb_query_range_demand_total",
    "mmdb_build_info",
    "mmdb_trace_kept_total",
];

fn label_generated(series: &str) -> bool {
    LABEL_GENERATED
        .iter()
        .any(|family| series.starts_with(family))
}

/// Family → kind, from the `# TYPE` lines of the exposition.
fn families() -> BTreeMap<String, String> {
    global()
        .render_prometheus()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (family, kind) = rest.split_once(' ').expect("# TYPE <family> <kind>");
            (family.to_string(), kind.to_string())
        })
        .collect()
}

/// Family → kind, from the rows of README's `## Metrics` table
/// (`` | `family` | kind | layer | meaning | ``).
fn documented() -> BTreeMap<String, String> {
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let text = std::fs::read_to_string(readme).unwrap();
    let section = text
        .split("\n## Metrics\n")
        .nth(1)
        .expect("README has a `## Metrics` section");
    let section = section.split("\n## ").next().unwrap();
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| {
            let mut cells = row.split('|').map(str::trim);
            let family = cells.next().unwrap().trim_end_matches('`');
            let kind = cells.next().expect("kind column");
            for cell in ["layer", "meaning"] {
                let text = cells.next().unwrap_or_default();
                assert!(!text.is_empty(), "{family}: empty {cell} column");
            }
            (family.to_string(), kind.to_string())
        })
        .collect()
}

#[test]
fn every_series_is_registered_up_front_and_documented() {
    mmdbms::register_all_metrics();
    let at_start = global().snapshot();
    assert!(
        at_start.values.values().all(|&value| value == 0),
        "registration alone moves nothing"
    );
    let registered: BTreeSet<String> = at_start.values.into_keys().collect();

    // A 4-shard on-disk database, served.
    let dir = std::env::temp_dir().join(format!("mmdb-metric-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let quantizer = || Box::new(RgbQuantizer::default_64());
    let db =
        MultimediaDatabase::create_sharded_with(&dir, quantizer(), DurabilityOptions::default(), 4)
            .unwrap();
    let flags = FlagGenerator::with_seed(5);
    for i in 0..12 {
        db.insert_image_with_augmentation(&flags.generate(i), 2, VariantConfig::default(), i)
            .unwrap();
    }
    let db = Arc::new(db);
    let config = ServerConfig {
        workers: 2,
        trace_keep: std::time::Duration::ZERO,
        ..ServerConfig::default()
    };
    let server = QueryServer::bind(
        "127.0.0.1:0",
        Arc::clone(&db) as Arc<dyn QueryBackend>,
        config,
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Every plan, a k-NN, a lookup, stats, a ping.
    let bin = db.bin_of(Rgb::new(0xCE, 0x11, 0x26)) as u32;
    for plan in [
        PlanKind::Instantiate,
        PlanKind::Rbm,
        PlanKind::Bwm,
        PlanKind::Indexed,
        PlanKind::Bwm, // again, now with a fresh index to probe
    ] {
        client
            .range(RangeRequest {
                plan,
                profile: ProfileKind::Conservative,
                bin,
                pct_min: 0.05,
                pct_max: 1.0,
            })
            .unwrap();
    }
    let probe = db.binary_ids()[0];
    assert!(!client.knn(probe.0, 3).unwrap().is_empty());
    client.lookup(probe.0).unwrap();
    client.stats().unwrap();
    client.ping().unwrap();

    // An insert, a delete, static analysis, a flush and a reopen.
    let extra = db.insert_image(&flags.generate(40)).unwrap();
    let edited = db
        .insert_edited(EditSequence::builder(extra).blur().build())
        .unwrap();
    db.delete(edited).unwrap();
    db.lint();
    db.flush().unwrap();
    drop(client);
    server.shutdown();
    drop(db);
    let db = MultimediaDatabase::open(&dir).unwrap();
    db.query_range_with_plan(
        &ColorRangeQuery::at_least(bin as usize, 0.05),
        QueryPlan::Indexed,
    )
    .unwrap();

    // What the exposition hook and `mmdbctl serve` add on top.
    db.refresh_staleness_gauges();
    telemetry::register_build_info("0.0.0", "test");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();

    let unregistered: Vec<_> = global()
        .snapshot()
        .values
        .into_keys()
        .filter(|name| !registered.contains(name) && !label_generated(name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "series created by traffic but absent after register_all_metrics(): {unregistered:#?}"
    );
    let at_end = global().snapshot();
    assert!(
        at_end.get("mmdb_rules_bounds_computed_total") > 0
            && at_end.get("mmdb_wal_appends_total") > 0,
        "the workload reached the rule engine and the WAL"
    );

    let families = families();
    for family in ["mmdb_query_range_demand_total", "mmdb_build_info"] {
        assert!(families.contains_key(family), "{family} was exercised");
    }
    let documented = documented();
    let undocumented: Vec<_> = families
        .iter()
        .filter(|(family, kind)| documented.get(*family) != Some(*kind))
        .collect();
    assert!(
        undocumented.is_empty(),
        "families missing from (or listed with another kind in) README `## Metrics`: \
         {undocumented:#?}"
    );
    let stale: Vec<_> = documented
        .keys()
        .filter(|family| !families.contains_key(*family))
        .collect();
    assert!(
        stale.is_empty(),
        "README `## Metrics` rows for families the registry does not have: {stale:#?}"
    );
}
