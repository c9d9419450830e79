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

/// `--expand` resolves each match's base on the shard that owns it, so the
/// expansion does not depend on how the catalog is partitioned.
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
        assert_eq!(count_of(&ok(&query)), 80, "{shards} shard(s)");
        let expanded = ok(&[&query[..], &["--expand", "true"]].concat());
        assert_eq!(count_of(&expanded), 90, "{shards} shard(s), expanded");
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
