//! Store-level tests: DirStore atomicity conventions, commit/recover round
//! trips, every disk-fault kind detected with the right typed reason, and
//! retention GC.

use std::collections::BTreeMap;
use std::sync::Arc;

use tofu_durable::{
    gc, recover_latest, write_checkpoint, BlobStore, DirStore, DiskFault, DiskFaultPlan,
    FaultyStore, FullSnapshot, MemStore, RejectReason,
};
use tofu_graph::TensorId;
use tofu_tensor::{Shape, Tensor};

fn snap(ckpt: usize, tensors: usize, seed: f32) -> FullSnapshot {
    let tensors = (0..tensors)
        .map(|i| {
            let data: Vec<f32> = (0..6).map(|j| seed + i as f32 * 10.0 + j as f32).collect();
            (TensorId(i * 3), Tensor::from_vec(Shape::new(vec![2, 3]), data).unwrap())
        })
        .collect::<BTreeMap<_, _>>();
    FullSnapshot { ckpt, every: 2, tensors }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tofu-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn dir_store_round_trip_and_tmp_files_invisible() {
    let dir = tmp_dir("roundtrip");
    let store = DirStore::open(&dir).unwrap();
    store.put("a.blob", b"hello").unwrap();
    store.put("b.blob", b"world").unwrap();
    assert_eq!(store.get("a.blob").unwrap(), b"hello");
    // Overwrite is atomic-replace, not append.
    store.put("a.blob", b"hi").unwrap();
    assert_eq!(store.get("a.blob").unwrap(), b"hi");
    // A leftover temp file (crash mid-put) is invisible to list().
    std::fs::write(dir.join(".tmp.c.blob"), b"partial").unwrap();
    assert_eq!(store.list().unwrap(), vec!["a.blob".to_string(), "b.blob".to_string()]);
    store.delete("a.blob").unwrap();
    store.delete("a.blob").unwrap(); // idempotent
    assert_eq!(store.list().unwrap(), vec!["b.blob".to_string()]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_bad_blob_names() {
    let store = MemStore::new();
    assert!(store.put("", b"x").is_err());
    assert!(store.put(".tmp.evil", b"x").is_err());
    assert!(store.put("../escape", b"x").is_err());
    assert!(store.put("dir/slash", b"x").is_err());
}

#[test]
fn commit_then_recover_is_identical_on_disk() {
    let dir = tmp_dir("recover");
    let store = DirStore::open(&dir).unwrap();
    let s = snap(1, 3, 0.5);
    let stats = write_checkpoint(&store, &s, true).unwrap();
    assert!(stats.committed);
    assert_eq!(stats.shards, 3);
    let rec = recover_latest(&store, Some(2)).unwrap();
    assert!(rec.rejected.is_empty());
    assert_eq!(rec.snapshot.unwrap(), s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncommitted_checkpoint_is_invisible() {
    let store = MemStore::new();
    write_checkpoint(&store, &snap(1, 2, 0.0), true).unwrap();
    // Checkpoint 2 dies before its manifest: shards exist, commit missing.
    write_checkpoint(&store, &snap(2, 2, 9.0), false).unwrap();
    let rec = recover_latest(&store, None).unwrap();
    assert!(rec.rejected.is_empty());
    assert_eq!(rec.snapshot.unwrap().ckpt, 1);
}

fn faulted_recovery(fault: DiskFault) -> (Option<usize>, Vec<(u64, RejectReason)>) {
    let inner = Arc::new(MemStore::new());
    let store = FaultyStore::new(inner, DiskFaultPlan::none().with(fault));
    write_checkpoint(&store, &snap(1, 2, 0.0), true).unwrap();
    write_checkpoint(&store, &snap(2, 2, 50.0), true).unwrap();
    assert_eq!(store.fired(), 1, "fault {fault:?} never fired");
    let rec = recover_latest(&store, Some(2)).unwrap();
    (
        rec.snapshot.map(|s| s.ckpt),
        rec.rejected.into_iter().map(|r| (r.ckpt, r.reason)).collect(),
    )
}

#[test]
fn torn_write_detected_and_skipped() {
    let (ok, rej) = faulted_recovery(DiskFault::TornWrite { ckpt: 2, shard: 0, keep: 13 });
    assert_eq!(ok, Some(1));
    assert_eq!(rej.len(), 1);
    assert!(matches!(rej[0], (2, RejectReason::SizeMismatch { .. })), "{rej:?}");
}

#[test]
fn bit_flip_detected_and_skipped() {
    let (ok, rej) = faulted_recovery(DiskFault::BitFlip { ckpt: 2, shard: 1, bit: 137 });
    assert_eq!(ok, Some(1));
    assert_eq!(rej.len(), 1);
    assert!(matches!(rej[0], (2, RejectReason::ShardCorrupt { .. })), "{rej:?}");
}

#[test]
fn missing_shard_detected_and_skipped() {
    let (ok, rej) = faulted_recovery(DiskFault::MissingShard { ckpt: 2, shard: 1 });
    assert_eq!(ok, Some(1));
    assert_eq!(rej.len(), 1);
    assert!(matches!(rej[0], (2, RejectReason::MissingShard { .. })), "{rej:?}");
}

#[test]
fn stale_manifest_detected_and_skipped() {
    let (ok, rej) = faulted_recovery(DiskFault::StaleManifest { ckpt: 2 });
    assert_eq!(ok, Some(1));
    assert_eq!(rej.len(), 1);
    assert!(matches!(rej[0], (2, RejectReason::MissingShard { .. })), "{rej:?}");
}

#[test]
fn duplicate_manifest_detected_and_skipped() {
    let (ok, rej) = faulted_recovery(DiskFault::DuplicateManifest { ckpt: 2 });
    // The forged manifest under ordinal 3 is rejected by name/body
    // disagreement; the real checkpoint 2 still wins.
    assert_eq!(ok, Some(2));
    assert_eq!(rej.len(), 1);
    assert!(matches!(rej[0], (3, RejectReason::IdMismatch { name: 3, body: 2 })), "{rej:?}");
}

#[test]
fn wrong_cadence_rejected() {
    let store = MemStore::new();
    write_checkpoint(&store, &snap(1, 2, 0.0), true).unwrap();
    let rec = recover_latest(&store, Some(5)).unwrap();
    assert!(rec.snapshot.is_none());
    assert!(matches!(rec.rejected[0].reason, RejectReason::WrongCadence { want: 5, got: 2 }));
}

#[test]
fn gc_keeps_newest_and_sweeps_orphans() {
    let store = MemStore::new();
    for k in 1..=4 {
        write_checkpoint(&store, &snap(k, 2, k as f32), true).unwrap();
    }
    // Orphan shards from a checkpoint that never committed (older than all
    // retained ones — e.g. a crashed pre-commit write later superseded).
    // Checkpoint 5's uncommitted shards are NEWER than the retained set and
    // must survive GC (a restart will overwrite them).
    write_checkpoint(&store, &snap(5, 2, 9.0), false).unwrap();
    let removed = gc(&store, 2).unwrap();
    // Manifests 1 and 2 go, plus their 2 shards each.
    assert_eq!(removed, 6);
    let names = store.list().unwrap();
    assert!(names.iter().any(|n| n.contains("00000003.manifest")));
    assert!(names.iter().any(|n| n.contains("00000004.manifest")));
    assert!(!names.iter().any(|n| n.contains("00000001") || n.contains("00000002")));
    // Uncommitted-but-newer shards survive.
    assert!(names.iter().any(|n| n.starts_with("ckpt-00000005-")));
    let rec = recover_latest(&store, None).unwrap();
    assert_eq!(rec.snapshot.unwrap().ckpt, 4);
}

#[test]
fn gc_after_crash_leaves_recoverable_state() {
    // Even if every manifest but the newest is deleted and *then* the
    // process dies before sweeping shards, recovery still works.
    let store = MemStore::new();
    for k in 1..=3 {
        write_checkpoint(&store, &snap(k, 2, k as f32), true).unwrap();
    }
    store.delete("ckpt-00000001.manifest").unwrap();
    store.delete("ckpt-00000002.manifest").unwrap();
    let rec = recover_latest(&store, None).unwrap();
    assert_eq!(rec.snapshot.unwrap().ckpt, 3);
    // The orphan shards are swept by the next GC pass.
    let removed = gc(&store, 2).unwrap();
    assert_eq!(removed, 4);
}
