//! Persistence round-trips: the distributed-aggregation workflow.
//!
//! A schema is created once, shipped (as JSON here; any serde format works)
//! to several workers, each worker sketches its stream partition, the
//! serialized sketches come back, and the coordinator merges and estimates.
//! This only works if (a) the seeds survive exactly and (b) the schema
//! identity survives, so deserialized sketches still recognize each other.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sss_sketch::{
    AgmsSchema, AgmsSketch, CountMinSchema, CountMinSketch, FagmsSchema, FagmsSketch, Sketch,
};

#[test]
fn agms_distributed_roundtrip() {
    let mut rng = StdRng::seed_from_u64(1);
    let schema: AgmsSchema = AgmsSchema::new(64, &mut rng);
    let schema_json = serde_json::to_string(&schema).unwrap();

    // Two "workers" each restore the schema and sketch a partition.
    let mut parts = Vec::new();
    for w in 0..2u64 {
        let worker_schema: AgmsSchema = serde_json::from_str(&schema_json).unwrap();
        let mut sk = worker_schema.sketch();
        for k in (w * 500)..(w * 500 + 500) {
            sk.update(k % 100, 1);
        }
        parts.push(serde_json::to_string(&sk).unwrap());
    }

    // The coordinator merges the returned sketches.
    let mut merged: AgmsSketch = serde_json::from_str(&parts[0]).unwrap();
    let second: AgmsSketch = serde_json::from_str(&parts[1]).unwrap();
    merged.merge(&second).unwrap();

    // Reference: one sketch over the whole stream.
    let mut whole = schema.sketch();
    for k in 0..1000u64 {
        whole.update(k % 100, 1);
    }
    assert_eq!(merged.raw_counters(), whole.raw_counters());
}

#[test]
fn fagms_roundtrip_preserves_estimates_and_identity() {
    let mut rng = StdRng::seed_from_u64(2);
    let schema: FagmsSchema = FagmsSchema::new(3, 256, &mut rng);
    let mut s = schema.sketch();
    let mut t = schema.sketch();
    for k in 0..5000u64 {
        s.update(k % 300, 1);
        t.update(k % 150, 1);
    }
    let s2: FagmsSketch = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
    let t2: FagmsSketch = serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
    assert_eq!(s.self_join_estimate(), s2.self_join_estimate());
    // Identity survives: a restored sketch can be joined with a live one.
    assert_eq!(
        s.size_of_join_estimate(&t).unwrap(),
        s2.size_of_join_estimate(&t2).unwrap()
    );
    assert_eq!(
        s.size_of_join_estimate(&t2).unwrap(),
        s2.size_of_join_estimate(&t).unwrap()
    );
}

#[test]
fn countmin_roundtrip() {
    let mut rng = StdRng::seed_from_u64(3);
    let schema: CountMinSchema = CountMinSchema::new(4, 128, &mut rng);
    let mut s = schema.sketch();
    for k in 0..2000u64 {
        s.update(k % 50, 1);
    }
    let s2: CountMinSketch = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
    for k in 0..60u64 {
        assert_eq!(s.point_query(k), s2.point_query(k));
    }
}

#[test]
fn corrupted_payloads_are_rejected() {
    let mut rng = StdRng::seed_from_u64(4);
    let schema: AgmsSchema = AgmsSchema::new(8, &mut rng);
    let sk = schema.sketch();
    let json = serde_json::to_string(&sk).unwrap();
    // Counter count no longer matches the schema.
    let tampered = json.replace("\"counters\":[0,0,0,0,0,0,0,0]", "\"counters\":[0,0,0]");
    assert_ne!(
        json, tampered,
        "test setup: the payload must actually change"
    );
    let res: Result<AgmsSketch, _> = serde_json::from_str(&tampered);
    assert!(
        res.is_err(),
        "mismatched counter counts must not deserialize"
    );

    // Empty schema.
    let empty = r#"{"families":[],"id":7}"#;
    let res: Result<AgmsSchema, _> = serde_json::from_str(empty);
    assert!(res.is_err(), "empty schemas must not deserialize");
}
