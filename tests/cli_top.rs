//! `rvmon top` end to end: replay a `rvmon run --journal` directory and a
//! two-tenant `rvmond` root through the real binary and check the
//! per-phase cost rows and the Figure 10 `E=… M=… FM=… CM=…` line.

use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use rv_monitor::core::{Service, ServiceConfig, TenantOptions};

const SPEC: &str = r#"
UnsafeIter(Collection c, Iterator i) {
    event create(c, i);
    event update(c);
    event next(i);
    ere: update* create next* update+ next
    @match { report "improper Concurrent Modification found!"; }
}
"#;

fn repo_path(rel: &str) -> String {
    format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn scratch(tag: &str) -> PathBuf {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos();
    let dir = std::env::temp_dir().join(format!("rvmon-top-test-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rvmon(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rvmon")).args(args).output().expect("spawn rvmon");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "rvmon {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The numeric columns of one phase row (`spans p50 p95 p99 total`),
/// found by the row's leading words (`[phase]` or `[tenant, phase]`).
fn phase_row(stdout: &str, lead: &[&str]) -> Option<[u64; 5]> {
    stdout.lines().find_map(|line| {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.len() != lead.len() + 5 || words[..lead.len()] != *lead {
            return None;
        }
        let mut cols = [0u64; 5];
        for (slot, w) in cols.iter_mut().zip(&words[lead.len()..]) {
            *slot = w.parse().ok()?;
        }
        Some(cols)
    })
}

#[test]
fn top_over_a_journal_prints_phase_rows_and_the_fig10_row() {
    let dir = scratch("journal");
    let journal = dir.join("j");
    rvmon(&[
        "run",
        &repo_path("specs/unsafe_iter.rv"),
        &repo_path("examples/unsafe_iter.events"),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    let out = rvmon(&["top", journal.to_str().unwrap()]);
    let mut lines = out.lines();
    let title = lines.next().unwrap_or_default();
    assert!(title.starts_with("rvmon top — 7 event(s) replayed from 15 durable record(s) in "));
    assert_eq!(
        lines.next(),
        Some("phase                 spans       p50 ns       p95 ns       p99 ns       total ns"),
        "{out}"
    );
    // The demo's span counts are deterministic: one index lookup,
    // disable check and transition per event, two sweeps.
    for (phase, spans) in
        [("index_lookup", 7), ("disable_check", 7), ("transition", 7), ("sweep", 2)]
    {
        let row = phase_row(&out, &[phase]).unwrap_or_else(|| panic!("no {phase} row:\n{out}"));
        assert_eq!(row[0], spans, "{phase} spans:\n{out}");
        assert!(row[4] > 0, "{phase} total ns:\n{out}");
    }
    assert!(phase_row(&out, &["journal_append"]).is_none(), "engine phases only:\n{out}");
    assert!(out.contains("\nE=7 M=3 FM=1 CM=2 triggers=1\n"), "{out}");
    assert!(out.contains("\ngc: 2 journaled cycle(s), "), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn drive(service: &Service, tenant: &str, iters: usize) {
    service.admit(tenant, SPEC, TenantOptions::default()).unwrap();
    for i in 0..iters {
        service.submit(tenant, &format!("create c i{i}")).unwrap();
    }
    service.submit(tenant, "update c").unwrap();
    for i in 0..iters {
        service.submit(tenant, &format!("next i{i}")).unwrap();
    }
    service.sync(tenant, 1).unwrap();
}

fn daemon_root() -> PathBuf {
    let root = scratch("daemon");
    let service =
        Service::new(ServiceConfig { root: root.clone(), ..ServiceConfig::default() }).unwrap();
    drive(&service, "alpha", 4);
    drive(&service, "beta", 9);
    assert_eq!(service.drain(), 2);
    root
}

#[test]
fn top_over_a_daemon_root_prints_one_table_per_tenant() {
    let root = daemon_root();
    let out = rvmon(&["top", root.to_str().unwrap()]);
    let mut lines = out.lines();
    let title = lines.next().unwrap_or_default();
    assert!(title.starts_with("rvmon top — daemon root "), "{out}");
    assert!(title.ends_with(" with 2 tenant(s)"), "{out}");
    assert_eq!(
        lines.next(),
        Some(
            "tenant       phase                 spans       p50 ns       p95 ns       p99 ns       \
             total ns"
        ),
        "{out}"
    );
    for (tenant, iters) in [("alpha", 4u64), ("beta", 9)] {
        let events = 2 * iters + 1;
        for (phase, spans) in [("index_lookup", events), ("transition", events), ("sweep", 1)] {
            let row = phase_row(&out, &[tenant, phase])
                .unwrap_or_else(|| panic!("no {tenant} {phase} row:\n{out}"));
            assert_eq!(row[0], spans, "{tenant} {phase} spans:\n{out}");
        }
        // Every durable record is re-appended once to the scratch journal.
        let append = phase_row(&out, &[tenant, "journal_append"])
            .unwrap_or_else(|| panic!("no {tenant} journal_append row:\n{out}"));
        assert!(append[0] > events, "{tenant} journal_append spans:\n{out}");
        // Each `create` makes a monitor and so does the lone `update`;
        // the final sweep collects every iterator's monitor.
        let fig10 =
            format!("{tenant:<12} E={events} M={} FM=0 CM={iters} triggers={iters} (", iters + 1);
        let line = out
            .lines()
            .find(|l| l.starts_with(&fig10))
            .unwrap_or_else(|| panic!("no `{fig10}` line:\n{out}"));
        assert!(line.ends_with(&format!("({events} event(s) from {} record(s))", append[0])));
    }
    // Tenant tables appear in name order.
    let alpha = out.find("alpha        E=").unwrap();
    let beta = out.find("beta         index_lookup").unwrap();
    assert!(alpha < beta, "{out}");
    let _ = std::fs::remove_dir_all(&root);
}

const HAS_NEXT: &str = r#"
HasNext(Iterator i) {
    event hasnexttrue(i);
    event hasnextfalse(i);
    event next(i);
    fsm:
        unknown [ hasnexttrue -> more hasnextfalse -> none next -> error ]
        more [ hasnexttrue -> more next -> unknown ]
        none [ hasnextfalse -> none next -> error ]
        error []
    @error { report "improper Iterator use found!"; }
}
"#;

/// The tenant's live `engine` events and triggers, from its stats JSON.
fn engine_counters(service: &Service, tenant: &str) -> (u64, u64) {
    let json = service.tenant_stats_json(tenant).unwrap();
    let engine = &json[json.find("\"engine\":{").expect("engine object")..];
    let engine = &engine[..engine.find('}').expect("engine object ends")];
    let counter = |key: &str| -> u64 {
        let at = engine.find(&format!("\"{key}\":")).expect("counter present") + key.len() + 3;
        engine[at..].split(|c: char| !c.is_ascii_digit()).next().unwrap().parse().unwrap()
    };
    (counter("events"), counter("triggers"))
}

#[test]
fn replay_tools_follow_a_hot_reload_on_a_daemon_root() {
    let root = scratch("reload");
    let config = || ServiceConfig { root: root.clone(), ..ServiceConfig::default() };
    let service = Service::new(config()).unwrap();
    service.admit("t", SPEC, TenantOptions::default()).unwrap();
    // Session-stamped lines, as resilient clients send them.
    let lines = ["create c i0", "update c", "next i0", "hasnexttrue i1", "next i1", "next i1"];
    for (cseq, line) in (1..).zip(&lines[..3]) {
        service.submit_seq("t", 1, cseq, line).unwrap();
    }
    service.sync("t", 1).unwrap();
    assert_eq!(service.reload("t", 7, HAS_NEXT).unwrap(), 2);
    for (cseq, line) in (4..).zip(&lines[3..]) {
        service.submit_seq("t", 1, cseq, line).unwrap();
    }
    service.sync("t", 2).unwrap();
    let (events, triggers) = engine_counters(&service, "t");
    assert_eq!((events, triggers), (3, 1));
    assert_eq!(service.drain(), 1);
    drop(service);

    // A restarted daemon recovers the tenant past its cutover.
    let service = Service::new(config()).unwrap();
    assert_eq!(service.recover_all().unwrap(), (vec!["t".to_owned()], Vec::new()));
    assert_eq!(engine_counters(&service, "t"), (events, triggers));
    assert_eq!(service.drain(), 1);
    drop(service);

    let out = rvmon(&["top", root.to_str().unwrap()]);
    let row = format!("t            E={events} M=");
    let line = out
        .lines()
        .find(|l| l.starts_with(&row))
        .unwrap_or_else(|| panic!("no `{row}` line:\n{out}"));
    assert!(line.contains(&format!(" triggers={triggers} (")), "{out}");
    let tenant = root.join("t");
    rvmon(&["replay", tenant.to_str().unwrap()]);
    rvmon(&["recover", tenant.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&root);
}
