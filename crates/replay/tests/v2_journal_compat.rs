//! The end of the journal v2 sunset: version-2 journals (float-second
//! metric records, the PR 2 format) are now **refused**, cleanly and
//! with a migration hint — never mis-read, never half-replayed.
//!
//! History: v3 kept a legacy float-seconds decoder so v2 journals
//! replayed bit-for-bit, and older releases shipped a byte-exact
//! `snip convert --to-v3` migration. The decoder and the migration are
//! gone and `MIN_SUPPORTED_JOURNAL_VERSION` is 3, so the tests here pin
//! the *rejection* path: a v2 journal is refused at the header by
//! replay, and its metric records are refused by the value decoder —
//! each with an actionable error. A v2 journal is synthesized exactly as
//! the old compat suite built it (rewriting a fresh v3 recording into the
//! v2 wire shape), so what is being refused is the genuine v2 format.

use std::io::Cursor;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{json, Deserialize as _, Value};

use snip_mobility::{EpochProfile, TraceGenerator};
use snip_replay::event::{JournalHeader, SchedulerSpec};
use snip_replay::journal::{JournalFormat, JournalReader, JournalWriter};
use snip_replay::record::record_run;
use snip_replay::replay::{replay_run, ReplayError};
use snip_replay::{JournalEvent, MIN_SUPPORTED_JOURNAL_VERSION};
use snip_sim::SimConfig;
use snip_units::DutyCycle;

fn record_v3_jsonl() -> Vec<u8> {
    let trace = TraceGenerator::new(EpochProfile::roadside())
        .epochs(2)
        .generate(&mut StdRng::seed_from_u64(21));
    let header = JournalHeader::new(
        SchedulerSpec::At {
            duty_cycle: DutyCycle::new(0.001).unwrap(),
        },
        SimConfig::paper_defaults()
            .with_epochs(2)
            .with_zeta_target_secs(16.0),
        22,
    );
    let mut writer = JournalWriter::new(Vec::new(), JournalFormat::Jsonl);
    record_run(&mut writer, &header, &trace).expect("in-memory record");
    writer.into_inner()
}

/// Rewrites a v3 `EpochMetrics` value map into the v2 float-seconds shape.
fn legacy_epoch_metrics(v: &Value) -> Value {
    let us = |key: &str| -> f64 {
        match v.get(key) {
            Some(Value::U64(n)) => *n as f64 / 1e6,
            other => panic!("expected integer `{key}`, got {other:?}"),
        }
    };
    let copy = |key: &str| v.get(key).expect(key).clone();
    Value::Map(vec![
        ("zeta".into(), Value::F64(us("zeta_us"))),
        ("phi".into(), Value::F64(us("phi_us"))),
        ("uploaded".into(), Value::F64(us("uploaded_us"))),
        ("upload_on_time".into(), Value::F64(us("upload_on_time_us"))),
        ("contacts_total".into(), copy("contacts_total")),
        ("contacts_probed".into(), copy("contacts_probed")),
        ("beacons".into(), copy("beacons")),
    ])
}

/// Rewrites a v3 `RunMetrics` value map into the v2 float-seconds shape.
fn legacy_run_metrics(v: &Value) -> Value {
    let slots = |key: &str| -> Value {
        let seq = v.get(key).expect(key).as_seq().expect("slot sequence");
        Value::Seq(
            seq.iter()
                .map(|s| match s {
                    Value::U64(n) => Value::F64(*n as f64 / 1e6),
                    other => panic!("expected integer slot, got {other:?}"),
                })
                .collect(),
        )
    };
    let epochs = v.get("epochs").expect("epochs").as_seq().expect("seq");
    Value::Map(vec![
        (
            "epochs".into(),
            Value::Seq(epochs.iter().map(legacy_epoch_metrics).collect()),
        ),
        ("slot_phi".into(), slots("slot_phi_us")),
        ("slot_zeta".into(), slots("slot_zeta_us")),
    ])
}

/// Downgrades one decoded journal line to the v2 wire shape.
fn downgrade_line(v: &Value) -> Value {
    let remap = |entries: &[(String, Value)], f: &dyn Fn(&str, &Value) -> Value| {
        Value::Map(
            entries
                .iter()
                .map(|(k, val)| (k.clone(), f(k, val)))
                .collect(),
        )
    };
    match v.as_map() {
        Some([(tag, body)]) if tag == "Header" => {
            let inner = remap(body.as_map().expect("header map"), &|k, val| {
                if k == "version" {
                    Value::U64(2)
                } else {
                    val.clone()
                }
            });
            Value::Map(vec![("Header".into(), inner)])
        }
        Some([(tag, body)]) if tag == "Sim" => match body.as_map() {
            Some([(ev, payload)]) if ev == "EpochEnd" => {
                let inner = remap(payload.as_map().expect("EpochEnd map"), &|k, val| {
                    if k == "metrics" {
                        legacy_epoch_metrics(val)
                    } else {
                        val.clone()
                    }
                });
                Value::Map(vec![(
                    "Sim".into(),
                    Value::Map(vec![("EpochEnd".into(), inner)]),
                )])
            }
            _ => v.clone(),
        },
        Some([(tag, body)]) if tag == "RunEnd" => {
            let inner = remap(body.as_map().expect("RunEnd map"), &|k, val| {
                if k == "metrics" {
                    legacy_run_metrics(val)
                } else {
                    val.clone()
                }
            });
            Value::Map(vec![("RunEnd".into(), inner)])
        }
        _ => v.clone(),
    }
}

fn downgrade_to_v2(jsonl: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(jsonl).expect("jsonl is utf-8");
    let mut out = String::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = json::from_str(line).expect("well-formed line");
        out.push_str(&json::to_string(&downgrade_line(&v)));
        out.push('\n');
    }
    out.into_bytes()
}

#[test]
fn min_supported_version_is_now_three() {
    assert_eq!(
        MIN_SUPPORTED_JOURNAL_VERSION, 3,
        "the v2 sunset is over: nothing below v3 may be read"
    );
}

#[test]
fn v2_journal_is_refused_at_the_header() {
    let v3 = record_v3_jsonl();
    let v2 = downgrade_to_v2(&v3);
    assert_ne!(v2, v3, "the downgrade must actually change the bytes");
    assert!(
        std::str::from_utf8(&v2).unwrap().contains("\"version\":2"),
        "downgraded header must be stamped v2"
    );

    let mut reader = JournalReader::new(Cursor::new(v2), JournalFormat::Jsonl);
    match replay_run(&mut reader, None) {
        Err(ReplayError::UnsupportedVersion { found }) => assert_eq!(found, 2),
        other => panic!("a v2 journal must be refused at the header, got {other:?}"),
    }
}

#[test]
fn v2_metric_records_no_longer_decode() {
    // Below the header check, the value decoder itself refuses the v2
    // float-seconds shape — so a v2 record can never be half-read even by
    // code paths that skip the version gate.
    let v3 = record_v3_jsonl();
    let v2 = downgrade_to_v2(&v3);
    let text = std::str::from_utf8(&v2).unwrap();
    let run_end = text
        .lines()
        .find(|l| l.contains("RunEnd"))
        .expect("journal ends with RunEnd");
    let v: Value = json::from_str(run_end).expect("well-formed line");
    let err = JournalEvent::from_value(&v).unwrap_err();
    assert!(
        err.to_string().contains("journal v2"),
        "the refusal must name the legacy shape: {err}"
    );
}

#[test]
fn versions_other_than_three_are_refused_by_replay() {
    let v3 = record_v3_jsonl();
    for bad_version in [1u64, 2, 4, 999] {
        let text = std::str::from_utf8(&v3).unwrap();
        let mut lines = text.lines();
        let header: Value = json::from_str(lines.next().unwrap()).unwrap();
        let patched = match header.as_map() {
            Some([(tag, body)]) if tag == "Header" => Value::Map(vec![(
                "Header".into(),
                Value::Map(
                    body.as_map()
                        .unwrap()
                        .iter()
                        .map(|(k, v)| {
                            if k == "version" {
                                (k.clone(), Value::U64(bad_version))
                            } else {
                                (k.clone(), v.clone())
                            }
                        })
                        .collect(),
                ),
            )]),
            _ => panic!("first line must be the header"),
        };
        let mut bytes = json::to_string(&patched).into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(text.split_once('\n').unwrap().1.as_bytes());
        let mut reader = JournalReader::new(Cursor::new(bytes), JournalFormat::Jsonl);
        match replay_run(&mut reader, None) {
            Err(ReplayError::UnsupportedVersion { found }) => {
                assert_eq!(found, bad_version as u32);
            }
            other => panic!("version {bad_version} must be refused, got {other:?}"),
        }
    }
}
