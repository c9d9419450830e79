//! End-to-end tests of the `mmdbctl` binary: a full admin session against a
//! real on-disk database.

use std::path::PathBuf;
use std::process::{Command, Output};

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

fn temp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmdbctl_it_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn full_admin_session() {
    let db = temp_db("session");
    let db_s = db.to_str().unwrap();

    // create + seed
    let out = ok(&["create", "--db", db_s]);
    assert!(out.contains("created database"));
    let out = ok(&[
        "gen",
        "--db",
        db_s,
        "--collection",
        "flags",
        "--count",
        "4",
        "--augment",
        "2",
    ]);
    assert!(out.contains("12 objects"));

    // ls + info
    let out = ok(&["ls", "--db", db_s]);
    assert!(out.contains("binary"));
    assert!(out.contains("edited"));
    let out = ok(&["info", "--db", db_s]);
    assert!(out.contains("BWM structure"));
    let out = ok(&["info", "--db", db_s, "--id", "1"]);
    assert!(out.contains("dominant colors"));

    // query under every plan returns the same ids
    let mut plans = Vec::new();
    for plan in ["bwm", "rbm"] {
        let out = ok(&[
            "query", "--db", db_s, "--color", "#ce1126", "--min", "0.1", "--plan", plan,
        ]);
        let ids: Vec<String> = out
            .lines()
            .filter(|l| l.trim_start().starts_with("img#"))
            .map(|l| l.trim().to_string())
            .collect();
        plans.push(ids);
    }
    assert_eq!(plans[0], plans[1], "BWM and RBM disagree through the CLI");

    // export an image, then use it as a k-NN probe
    let probe = db.join("probe.ppm");
    ok(&["export", "--db", db_s, "--id", "1", probe.to_str().unwrap()]);
    let out = ok(&["knn", "--db", db_s, probe.to_str().unwrap(), "--k", "2"]);
    assert!(out.contains("img#1"), "{out}");
    assert!(out.contains("L1 = 0.0000"), "{out}");

    // print an edited image's script, round-trip it back in
    let script_out = ok(&["script", "--db", db_s, "--id", "2"]);
    assert!(script_out.starts_with("base "));
    let script_path = db.join("variant.edit");
    std::fs::write(&script_path, &script_out).unwrap();
    let out = ok(&["insert-script", "--db", db_s, script_path.to_str().unwrap()]);
    assert!(out.contains("inserted edited image"));

    // delete an edited image
    let out = ok(&["delete", "--db", db_s, "--id", "2"]);
    assert!(out.contains("deleted"));

    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn insert_external_ppm() {
    let db = temp_db("insert");
    let db_s = db.to_str().unwrap();
    ok(&["create", "--db", db_s]);
    // Author a tiny P3 image by hand.
    let ppm = db.join("tiny.ppm");
    std::fs::write(&ppm, "P3\n2 2\n255\n255 0 0 255 0 0 0 0 255 0 0 255\n").unwrap();
    let out = ok(&["insert", "--db", db_s, ppm.to_str().unwrap()]);
    assert!(out.contains("inserted img#1 (2x2)"), "{out}");
    let out = ok(&["query", "--db", db_s, "--color", "#ff0000", "--min", "0.4"]);
    assert!(out.contains("img#1"));
    std::fs::remove_dir_all(&db).ok();
}

/// `ls` rows as `(id, kind)`.
fn listing(db_s: &str) -> Vec<(u64, String)> {
    ok(&["ls", "--db", db_s])
        .lines()
        .skip(1)
        .map(|row| {
            let mut cells = row.split_whitespace();
            let id = cells.next().unwrap().parse().unwrap();
            (id, cells.next().unwrap().to_string())
        })
        .collect()
}

/// Size of each shard's current (newest-generation) blob file.
fn blob_file_bytes(db: &std::path::Path) -> Vec<u64> {
    let dirs = match mmdbms::read_shard_manifest(db).unwrap() {
        Some(n) => (0..n).map(|i| mmdbms::shard_dir(db, i)).collect(),
        None => vec![db.to_path_buf()],
    };
    dirs.iter()
        .map(|dir| {
            std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|entry| {
                    let entry = entry.unwrap();
                    let name = entry.file_name().into_string().unwrap();
                    let gen: u64 = match name.as_str() {
                        "blobs.mmdb" => 0,
                        _ => name
                            .strip_prefix("blobs-")?
                            .strip_suffix(".mmdb")?
                            .parse()
                            .ok()?,
                    };
                    Some((gen, entry.metadata().unwrap().len()))
                })
                .max()
                .expect("a blob file")
                .1
        })
        .collect()
}

/// Every command that means "the database" acts on every shard: `--expand`
/// resolves each match's base on the shard that owns it, `ls` lists every
/// id, `info` / `script` / `analyze` find an id on the last shard, `verify`
/// checks every shard and `compact` reclaims space on every shard.
#[test]
fn expand_finds_bases_on_every_shard() {
    let count_of = |out: &str| -> usize {
        let first = out.lines().next().unwrap_or_default();
        first
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .expect("N result(s)")
    };
    for shards in ["1", "4"] {
        let db = temp_db(&format!("expand{shards}"));
        let db_s = db.to_str().unwrap();
        ok(&["create", "--db", db_s, "--shards", shards]);
        ok(&[
            "gen",
            "--db",
            db_s,
            "--collection",
            "flags",
            "--count",
            "24",
            "--augment",
            "3",
            "--seed",
            "5",
        ]);
        let query = [
            "query", "--db", db_s, "--color", "#ff0000", "--min", "0.3", "--plan", "rbm",
        ];
        // The layouts store different variants: a sharded `gen` pastes only
        // flags stored on the variant's own shard.
        let (matches, expanded) = if shards == "1" { (80, 90) } else { (78, 88) };
        assert_eq!(count_of(&ok(&query)), matches, "{shards} shard(s)");
        let out = ok(&[&query[..], &["--expand", "true"]].concat());
        assert_eq!(count_of(&out), expanded, "{shards} shard(s), expanded");

        let rows = listing(db_s);
        assert_eq!(rows.len(), 96, "{shards} shard(s): every generated object");
        let n: u64 = shards.parse().unwrap();
        let (edited, _) = rows
            .iter()
            .find(|(id, kind)| kind == "edited" && (id - 1) % n == n - 1)
            .expect("an edited image on the last shard");
        let id = edited.to_string();
        let out = ok(&["info", "--db", db_s, "--id", &id]);
        assert!(out.contains("kind:  Edited"), "{out}");
        assert!(ok(&["script", "--db", db_s, "--id", &id]).starts_with("base "));
        assert!(ok(&["analyze", "--db", db_s, "--id", &id]).contains("classification"));
        assert!(ok(&["verify", "--db", db_s]).starts_with("ok"), "{shards}");

        // One more binary image per shard (round-robin placement), deleted
        // again: every shard's blob file has a hole for compact to reclaim.
        ok(&[
            "gen",
            "--db",
            db_s,
            "--count",
            shards,
            "--augment",
            "0",
            "--seed",
            "6",
        ]);
        for (id, _) in listing(db_s).iter().filter(|row| !rows.contains(row)) {
            ok(&["delete", "--db", db_s, "--id", &id.to_string()]);
        }
        let before = blob_file_bytes(&db);
        let out = ok(&["compact", "--db", db_s]);
        let after = blob_file_bytes(&db);
        assert!(
            before.iter().zip(&after).all(|(b, a)| a < b),
            "{shards} shard(s): {before:?} -> {after:?}"
        );
        let reclaimed: u64 = before.iter().zip(&after).map(|(b, a)| b - a).sum();
        assert!(
            out.contains(&format!("compacted: {reclaimed} bytes reclaimed")),
            "{out}"
        );
        assert!(ok(&["verify", "--db", db_s]).starts_with("ok"), "{shards}");
        // Opening the compacted database rebuilds Figure 1 on every shard:
        // one cluster per surviving binary image.
        let json = ok(&["metrics", "--db", db_s, "--format", "json"]);
        assert!(
            json.contains(r#""mmdb_bwm_cluster_inserts_total": 24,"#),
            "{json}"
        );
        std::fs::remove_dir_all(&db).ok();
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    let db = temp_db("errs");
    let db_s = db.to_str().unwrap();
    // Open of a missing database fails cleanly.
    let out = mmdbctl(&["ls", "--db", db_s]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    // Unknown subcommand — a retired name is one, not an alias.
    for name in ["frobnicate", "serve-queries"] {
        let out = mmdbctl(&[name, "--db", db_s]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: mmdbctl <create|"));
    }
    // Bad color.
    ok(&["create", "--db", db_s]);
    let out = mmdbctl(&["query", "--db", db_s, "--color", "red", "--min", "0.1"]);
    assert!(!out.status.success());
    // Deleting a base that still has variants is refused.
    ok(&["gen", "--db", db_s, "--count", "1", "--augment", "1"]);
    let out = mmdbctl(&["delete", "--db", db_s, "--id", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("referenced"));
    std::fs::remove_dir_all(&db).ok();
}
