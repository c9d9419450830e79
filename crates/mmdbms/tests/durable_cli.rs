//! End-to-end durability tests of the `mmdbctl` binary: SIGKILL a churning
//! process and recover its directory; SIGINT a server and verify the drain
//! left zero WAL tail.

use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

fn mmdbctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmdbctl"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = mmdbctl(args);
    assert!(
        out.status.success(),
        "mmdbctl {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Serializes the tests that read process-wide counter deltas.
static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdbctl_dur_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spawns a long-running `mmdbctl` subcommand with piped stdio.
fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_mmdbctl"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns")
}

/// Reads lines from the child's stdout until `pred` matches one (returning
/// it) or EOF.
fn wait_for_line(child: &mut Child, pred: impl Fn(&str) -> bool) -> Option<String> {
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let reader = std::io::BufReader::new(stdout);
    for line in reader.lines() {
        let line = line.ok()?;
        if pred(&line) {
            return Some(line);
        }
    }
    None
}

/// SIGKILL mid-churn, then recover: the directory must pass fsck (a torn
/// tail is acceptable crash residue, not corruption), reopen, and keep the
/// plan equivalence RBM ≡ Indexed on the recovered catalog.
#[test]
fn sigkill_mid_churn_recovers_consistent_database() {
    let db = temp_db("kill");
    let db_s = db.to_str().unwrap();
    ok(&["create", "--db", db_s, "--fsync", "always"]);

    // `--ops 0` churns forever; progress lines are flushed every 4 ops so
    // we know real work was acknowledged before the kill.
    let mut child = spawn(&[
        "churn",
        "--db",
        db_s,
        "--ops",
        "0",
        "--report-every",
        "4",
        "--fsync",
        "always",
    ]);
    let progress = wait_for_line(&mut child, |l| l.starts_with("churn: "))
        .expect("churn reported progress before dying");
    assert!(
        progress.contains("op(s)"),
        "unexpected progress line {progress:?}"
    );
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");

    // Offline check first: errors mean recovery would lose acknowledged
    // data; a torn final record only shows up as a note.
    let fsck = ok(&["fsck", db_s]);
    assert!(
        !fsck.contains("error ["),
        "fsck found errors after SIGKILL:\n{fsck}"
    );

    // The recovered catalog serves queries, and the recovered index path
    // agrees with the scan path.
    let ls = ok(&["ls", "--db", db_s]);
    assert!(ls.contains("binary"), "no images survived the kill:\n{ls}");
    ok(&["verify", "--db", db_s]);
    let rbm = ok(&[
        "query", "--db", db_s, "--color", "#ff0000", "--min", "0.05", "--plan", "rbm",
    ]);
    let indexed = ok(&[
        "query", "--db", db_s, "--color", "#ff0000", "--min", "0.05", "--plan", "indexed",
    ]);
    let ids = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.trim_start().starts_with("img#"))
            .map(|l| l.trim().to_string())
            .collect()
    };
    assert_eq!(
        ids(&rbm),
        ids(&indexed),
        "plans disagree after crash recovery"
    );

    std::fs::remove_dir_all(&db).ok();
}

/// SIGINT on `serve` must drain to disk — final snapshot plus WAL fsync —
/// so the next open replays zero records (verified via fsck's replayable
/// count, which is exactly what recovery would replay).
#[test]
fn serve_sigint_drain_leaves_zero_replay() {
    let db = temp_db("drain");
    let db_s = db.to_str().unwrap();
    ok(&["create", "--db", db_s]);
    ok(&[
        "gen",
        "--db",
        db_s,
        "--collection",
        "flags",
        "--count",
        "3",
        "--augment",
        "2",
    ]);

    // Before the server runs, the directory has an un-snapshotted WAL tail
    // from `gen` — the drain, not `gen`, must be what cleans it up. (`gen`
    // flushes too, so force a tail by checking only after the serve cycle.)
    let mut child = spawn(&[
        "serve",
        "--db",
        db_s,
        "--listen",
        "127.0.0.1:0",
        "--warmup",
        "2",
    ]);
    wait_for_line(&mut child, |l| l.contains("serving queries on")).expect("server came up");
    let pid = child.id().to_string();
    let kill = Command::new("kill")
        .args(["-INT", &pid])
        .status()
        .expect("kill runs");
    assert!(kill.success(), "kill -INT failed");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "serve exited nonzero after SIGINT");
    let stderr = {
        let mut s = String::new();
        use std::io::Read as _;
        child.stderr.take().unwrap().read_to_string(&mut s).ok();
        s
    };
    assert!(
        stderr.contains("flushed database to disk"),
        "drain did not run:\n{stderr}"
    );

    let fsck = ok(&["fsck", db_s]);
    assert!(
        fsck.contains("(0 replayable"),
        "drained shutdown left a WAL tail:\n{fsck}"
    );
    assert!(
        !fsck.contains("error ["),
        "fsck errors after clean shutdown:\n{fsck}"
    );

    // And the reopened database is immediately whole.
    let ls = ok(&["ls", "--db", db_s]);
    assert!(
        ls.contains("edited"),
        "catalog incomplete after drain:\n{ls}"
    );

    std::fs::remove_dir_all(&db).ok();
}

/// One index file is persisted and read per shard, the Conservative one. A
/// literal-profile `paper_table1.idx` left in `boundidx/` — stamped past the
/// catalog, so reading it at all would discard it or flag it — is never
/// read: the database opens warm from `conservative.idx` alone, answers
/// Indexed ≡ RBM, leaves the file untouched, and `fsck` passes without
/// mentioning it.
#[test]
fn stale_literal_profile_index_file_is_ignored() {
    use mmdbms::boundidx::{persist, BoundIndex};
    use mmdbms::datagen::{flags::FlagGenerator, VariantConfig};
    use mmdbms::prelude::*;
    let _counters = COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let db = temp_db("stale_idx");
    let idx_dir = db.join("boundidx");
    let query = |db: &MultimediaDatabase, plan| {
        let red = ColorRangeQuery::at_least(db.bin_of(Rgb::new(0xCE, 0x11, 0x26)), 0.1);
        db.query_range_with_plan(&red, plan)
            .unwrap()
            .sorted_results()
    };
    {
        let mmdb = MultimediaDatabase::create(&db, Box::new(RgbQuantizer::default_64())).unwrap();
        let flags = FlagGenerator::with_seed(3);
        for i in 0..8 {
            mmdb.insert_image_with_augmentation(&flags.generate(i), 2, VariantConfig::default(), i)
                .unwrap();
        }
        query(&mmdb, QueryPlan::Indexed);
        mmdb.flush().unwrap();
        // An index stamped past the catalog, under the literal profile's
        // name: were it read, it would be discarded or served stale.
        let storage = mmdb.storage();
        let ahead = BoundIndex::build(
            RuleProfile::Conservative,
            storage.quantizer(),
            storage.background(),
            &storage.binary_ids(),
            &storage.edited_ids(),
            storage,
            storage,
            storage.current_epoch() + 1_000,
            1,
        )
        .unwrap();
        let elsewhere = db.join("stale_idx_scratch");
        let saved = persist::save(&ahead, &elsewhere).unwrap();
        let literal = idx_dir.join(persist::index_file_name(RuleProfile::PaperTable1));
        std::fs::rename(saved, literal).unwrap();
        std::fs::remove_dir(elsewhere).unwrap();
    }
    let stale = idx_dir.join(persist::index_file_name(RuleProfile::PaperTable1));
    let stale_bytes = std::fs::read(&stale).unwrap();

    let metrics = mmdbms::telemetry::global();
    let counter = |name| metrics.counter(name).get();
    let (loads, builds) = (
        counter("mmdb_boundidx_warm_loads_total"),
        counter("mmdb_boundidx_builds_total"),
    );
    let mmdb = MultimediaDatabase::open(&db).unwrap();
    let indexed = query(&mmdb, QueryPlan::Indexed);
    assert!(!indexed.is_empty());
    assert_eq!(indexed, query(&mmdb, QueryPlan::Rbm), "Indexed ≡ RBM");
    assert_eq!(counter("mmdb_boundidx_warm_loads_total") - loads, 1);
    assert_eq!(counter("mmdb_boundidx_builds_total"), builds, "served warm");
    mmdb.flush().unwrap();
    drop(mmdb);
    assert_eq!(std::fs::read(&stale).unwrap(), stale_bytes, "never read");

    let fsck = ok(&["fsck", db.to_str().unwrap()]);
    assert!(!fsck.contains("paper_table1"), "{fsck}");

    std::fs::remove_dir_all(&db).ok();
}

/// Index files written by older builds fail the version check: version 2
/// carried a per-entry reference column, version 3 a `(min, max, total)`
/// triple per bin, version 4 every bin's `lo` and `hi`. `open` discards such a file and the first Indexed query
/// rebuilds, so the old file costs one build and is never an open failure
/// or a served answer. `fsck` only warns.
#[test]
fn old_format_index_file_is_rebuilt() {
    // One entry, image #1, with bounds that would answer wrongly if the
    // file were served.
    let entry = |bins: usize, refs: bool| {
        let mut row = 1u64.to_le_bytes().to_vec();
        if refs {
            row.extend_from_slice(&1u32.to_le_bytes());
            row.extend_from_slice(&2u64.to_le_bytes());
        }
        for _ in 0..bins {
            for v in [0u64, 0, 1] {
                row.extend_from_slice(&v.to_le_bytes());
            }
        }
        row
    };
    // Version 4 stored every bin's `lo` and `hi`, `[0, 0]` included.
    let dense = |bins: usize| {
        let mut row = 1u64.to_le_bytes().to_vec();
        for _ in 0..bins {
            row.extend_from_slice(&0.0f64.to_le_bytes());
            row.extend_from_slice(&1.0f64.to_le_bytes());
        }
        row
    };
    refused_index_file_is_rebuilt("old_idx", |bins| {
        vec![
            ("version 2", index_body(2, bins, 1, &entry(bins, true))),
            ("version 3", index_body(3, bins, 1, &entry(bins, false))),
            ("version 4", index_body(4, bins, 1, &dense(bins))),
        ]
    });
}

/// A checksummed current-format file that breaks a row rule is refused
/// like a torn one: `open` rebuilds and `fsck` reports `F009`. A repeated
/// id, served, would answer twice and outlive its image's delete. So is a
/// well-formed file stamped past the recovered catalog (a rollback under
/// `fsync = never` lost the WAL tail it had seen): it decodes, but counts
/// as a discard, never as a warm load.
#[test]
fn checksummed_index_file_that_breaks_a_row_rule_is_rebuilt() {
    use mmdbms::boundidx::persist::INDEX_FORMAT_VERSION;
    use mmdbms::prelude::RuleProfile;
    // A row: the id, how many bins list it, then `(bin, lo, hi)` for each.
    let listed = |id: u64, intervals: &[(usize, f64, f64)]| {
        let mut row = id.to_le_bytes().to_vec();
        row.extend_from_slice(&(intervals.len() as u16).to_le_bytes());
        for &(bin, lo, hi) in intervals {
            row.extend_from_slice(&(bin as u16).to_le_bytes());
            row.extend_from_slice(&lo.to_le_bytes());
            row.extend_from_slice(&hi.to_le_bytes());
        }
        row
    };
    // Image #1 listed in every bin with `[lo, hi]`.
    let row = |id: u64, bins: usize, lo: f64, hi: f64| {
        listed(id, &(0..bins).map(|bin| (bin, lo, hi)).collect::<Vec<_>>())
    };
    let v = INDEX_FORMAT_VERSION;
    refused_index_file_is_rebuilt("hostile_idx", |bins| {
        let twice = [row(1, bins, 0.0, 1.0), row(1, bins, 0.0, 1.0)].concat();
        let mut ahead = index_body(v, bins, 1, &row(1, bins, 0.0, 1.0));
        let epoch_at = 4 + 2 + RuleProfile::Conservative.label().len();
        ahead[epoch_at..epoch_at + 8].copy_from_slice(&1_000_000u64.to_le_bytes());
        let out_of_range = listed(1, &[(0, 0.0, 1.0), (bins, 0.0, 1.0)]);
        let descending = listed(1, &[(1, 0.0, 1.0), (0, 0.0, 1.0)]);
        vec![
            ("repeated id", index_body(v, bins, 2, &twice)),
            ("NaN", index_body(v, bins, 1, &row(1, bins, f64::NAN, 1.0))),
            ("lo > hi", index_body(v, bins, 1, &row(1, bins, 0.6, 0.5))),
            ("hi > 1", index_body(v, bins, 1, &row(1, bins, 0.0, 2.0))),
            ("rows past the bytes", index_body(v, bins, 1 << 40, &twice)),
            ("bin out of range", index_body(v, bins, 1, &out_of_range)),
            ("bins not ascending", index_body(v, bins, 1, &descending)),
            (
                "listed [0, 0]",
                index_body(v, bins, 1, &row(1, bins, 0.0, 0.0)),
            ),
            ("epoch ahead", ahead),
        ]
    });
}

/// The checksummed part of an index file: header for the Conservative
/// profile at epoch 1, then `count` and the raw `rows`.
fn index_body(version: u32, bins: usize, count: u64, rows: &[u8]) -> Vec<u8> {
    use mmdbms::prelude::RuleProfile;
    let label = RuleProfile::Conservative.label().as_bytes();
    let mut body = Vec::new();
    body.extend_from_slice(&version.to_le_bytes());
    body.extend_from_slice(&(label.len() as u16).to_le_bytes());
    body.extend_from_slice(label);
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(&(bins as u32).to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    body.extend_from_slice(rows);
    body
}

/// Writes each of `bodies(bin_count)` with a valid checksum as the
/// database's persisted index. For each: `fsck` reports it as `F009` and
/// nothing else, `open` never loads it and counts one discard, and the
/// first Indexed query rebuilds (one build) and answers ≡ RBM. The index
/// persisted at close is current again.
fn refused_index_file_is_rebuilt(
    tag: &str,
    bodies: impl FnOnce(usize) -> Vec<(&'static str, Vec<u8>)>,
) {
    use mmdbms::boundidx::persist::{index_file_name, INDEX_MAGIC};
    use mmdbms::datagen::{flags::FlagGenerator, VariantConfig};
    use mmdbms::prelude::*;
    let _counters = COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);

    let db = temp_db(tag);
    let query = |db: &MultimediaDatabase, plan| {
        let red = ColorRangeQuery::at_least(db.bin_of(Rgb::new(0xCE, 0x11, 0x26)), 0.1);
        db.query_range_with_plan(&red, plan)
            .unwrap()
            .sorted_results()
    };
    let bins = {
        let mmdb = MultimediaDatabase::create(&db, Box::new(RgbQuantizer::default_64())).unwrap();
        let flags = FlagGenerator::with_seed(5);
        for i in 0..6 {
            mmdb.insert_image_with_augmentation(&flags.generate(i), 2, VariantConfig::default(), i)
                .unwrap();
        }
        mmdb.flush().unwrap();
        mmdb.storage().quantizer().bin_count()
    };
    let idx_dir = db.join("boundidx");
    std::fs::create_dir_all(&idx_dir).unwrap();
    let idx_file = idx_dir.join(index_file_name(RuleProfile::Conservative));
    for (what, body) in bodies(bins) {
        let crc = mmdbms::durable::crc32(&body);
        std::fs::write(
            &idx_file,
            [&INDEX_MAGIC[..], &body, &crc.to_le_bytes()].concat(),
        )
        .unwrap();

        let fsck = ok(&["fsck", db.to_str().unwrap()]);
        assert!(fsck.contains("F009"), "{what}: {fsck}");
        for line in fsck.lines().filter(|l| l.contains("F0")) {
            assert!(line.contains("F009"), "{what}: {fsck}");
        }

        let metrics = mmdbms::telemetry::global();
        let counter = |name| metrics.counter(name).get();
        let (loads, builds, discards) = (
            counter("mmdb_boundidx_warm_loads_total"),
            counter("mmdb_boundidx_builds_total"),
            counter("mmdb_boundidx_warm_discards_total"),
        );
        let mmdb = MultimediaDatabase::open(&db).unwrap();
        assert_eq!(
            counter("mmdb_boundidx_warm_discards_total") - discards,
            1,
            "{what}: discarded at open"
        );
        let indexed = query(&mmdb, QueryPlan::Indexed);
        assert!(!indexed.is_empty(), "{what}");
        assert_eq!(
            indexed,
            query(&mmdb, QueryPlan::Rbm),
            "{what}: Indexed ≡ RBM"
        );
        assert_eq!(
            counter("mmdb_boundidx_warm_loads_total"),
            loads,
            "{what}: never loaded"
        );
        assert_eq!(
            counter("mmdb_boundidx_builds_total") - builds,
            1,
            "{what}: rebuilt"
        );
        mmdb.flush().unwrap();
        drop(mmdb);

        let fsck = ok(&["fsck", db.to_str().unwrap()]);
        assert!(
            !fsck.contains("F009"),
            "{what}: the rebuilt file is current: {fsck}"
        );
    }

    std::fs::remove_dir_all(&db).ok();
}

/// A second `create` must fail whatever its shard count: a sharded root has
/// no `meta` file, so only the `shards` manifest says a database is there.
#[test]
fn create_over_sharded_database_is_refused() {
    let db = temp_db("recreate");
    let db_s = db.to_str().unwrap();
    ok(&["create", "--db", db_s, "--shards", "4"]);
    ok(&["gen", "--db", db_s, "--count", "8", "--augment", "2"]);
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&db)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();

    let out = mmdbctl(&["create", "--db", db_s]);
    assert!(
        !out.status.success(),
        "create over a sharded database succeeded:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("already exists"),
        "unexpected error: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(listing(), before, "refused create changed the directory");
    // The catalog is still the sharded one.
    let info = ok(&["info", "--db", db_s]);
    assert!(info.contains("binary images:   8 "), "{info}");

    std::fs::remove_dir_all(&db).ok();
}
