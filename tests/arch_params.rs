//! Golden tests pinning the paper's machine and the arch-spec grammar.
//!
//! The refactor that moved the Table-1 hardware base into `wwt-arch`
//! must not move a single number: these tests spell out every Table 1–3
//! cost the default configurations encode, so any drift — a changed
//! default, a preset leaking into `default()`, a unit slip — fails
//! loudly with the table name in hand.

use proptest::prelude::*;

use wwt::arch::{ArchParams, KEYS, PRESETS};
use wwt::mp::MpConfig;
use wwt::sm::{AllocPolicy, ProtocolMode, SmConfig};

/// Table 1: the common hardware base, exactly as published.
#[test]
fn default_arch_is_the_paper_table_1_machine() {
    let a = ArchParams::default();
    assert_eq!(a.cache.size_bytes, 256 * 1024, "Table 1: 256 KB cache");
    assert_eq!(a.cache.ways, 4, "Table 1: 4-way associative");
    assert_eq!(a.cache.block_bytes, 32, "Table 1: 32-byte blocks");
    assert_eq!(a.tlb_entries, 64, "Table 1: 64-entry TLB");
    assert_eq!(a.net_latency, 100, "Table 1: 100-cycle network");
    assert_eq!(a.msg_to_self, 10, "Table 1: 10-cycle self-message");
    assert_eq!(a.barrier_latency, 100, "Table 1: 100-cycle barrier");
    assert_eq!(a.priv_miss, 11, "Table 1: 11-cycle private miss");
    assert_eq!(a.dram, 10, "Table 1: 10-cycle DRAM access");
    assert_eq!(a.replacement, 1, "Tables 2/3: 1-cycle replacement");
    assert_eq!(a.tlb_miss, 20, "Table 1: 20-cycle TLB refill");
    assert_eq!(a.priv_miss_total(), 21, "11 + 10 = full private miss");
    assert!(a.is_paper());
    assert!(a.validate().is_ok());
}

/// Table 2: the MP machine's network-interface costs, and the shared
/// base embedded unchanged.
#[test]
fn default_mp_config_encodes_table_2() {
    let c = MpConfig::default();
    assert_eq!(c.arch, ArchParams::default(), "shared base is Table 1");
    assert_eq!(c.ni_status, 5, "Table 2: NI status access");
    assert_eq!(c.ni_tag_dest, 5, "Table 2: tag + destination write");
    assert_eq!(c.ni_send, 15, "Table 2: 5-word send");
    assert_eq!(c.ni_recv, 15, "Table 2: 5-word receive");
    assert_eq!(c.priv_miss_total(), 21);
}

/// Table 3: the SM machine's protocol costs, and the shared base
/// embedded unchanged.
#[test]
fn default_sm_config_encodes_table_3() {
    let c = SmConfig::default();
    assert_eq!(c.arch, ArchParams::default(), "shared base is Table 1");
    assert_eq!(c.shared_miss, 19, "Table 3: shared-miss handling");
    assert_eq!(c.invalidate, 3, "Table 3: invalidation");
    assert_eq!(c.repl_shared_clean, 5, "Table 3: clean replacement");
    assert_eq!(c.repl_shared_dirty, 13, "Table 3: dirty replacement");
    assert_eq!(c.dir_base, 10, "Table 3: directory base");
    assert_eq!(c.dir_recv_block, 8, "Table 3: +block received");
    assert_eq!(c.dir_send_msg, 5, "Table 3: +message sent");
    assert_eq!(c.dir_send_block, 8, "Table 3: +block sent");
    assert_eq!(c.ctrl_msg_bytes, 8, "Section 4: 8-byte control messages");
    assert_eq!(
        c.arch.cache.block_bytes, 32,
        "Section 4: 32-byte data blocks"
    );
    assert_eq!(c.alloc_policy, AllocPolicy::RoundRobin);
    assert_eq!(c.protocol, ProtocolMode::Invalidate);
    assert!(!c.stache);
}

/// Both machines read the one latency implementation: same base, same
/// answer for every (a, b) pair, including the self-message discount.
#[test]
fn machines_share_one_latency_implementation() {
    let mp = MpConfig::default();
    let sm = SmConfig::default();
    assert_eq!(mp.arch, sm.arch);
    for a in 0..4 {
        for b in 0..4 {
            assert_eq!(sm.latency(a, b), mp.arch.latency(a, b));
            let expect = if a == b { 10 } else { 100 };
            assert_eq!(sm.latency(a, b), expect);
        }
    }
}

/// Every named preset parses, validates, and hashes distinctly; `paper`
/// is the default.
#[test]
fn presets_parse_validate_and_hash_distinctly() {
    let mut hashes = Vec::new();
    for (name, _) in PRESETS {
        let a = ArchParams::parse(name).unwrap();
        assert!(a.validate().is_ok(), "{name}");
        hashes.push(a.stable_hash());
    }
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), PRESETS.len(), "presets must be distinct");
    assert_eq!(ArchParams::parse("paper").unwrap(), ArchParams::default());
}

/// Every documented key is accepted by the override grammar.
#[test]
fn every_documented_key_is_settable() {
    for (key, _) in KEYS {
        let spec = format!("paper,{key}=128");
        assert!(
            ArchParams::parse(&spec).is_ok(),
            "documented key {key} rejected"
        );
    }
}

// The scalar keys whose values are unconstrained beyond being positive;
// the cache-geometry keys carry divisibility/power-of-two invariants and
// are exercised by wwt-arch's own unit tests.
const SCALAR_KEYS: [&str; 8] = [
    "tlb_entries",
    "net_latency",
    "msg_to_self",
    "barrier_latency",
    "priv_miss",
    "dram",
    "replacement",
    "tlb_miss",
];

fn spec_from(pairs: &[(usize, u64)]) -> String {
    let mut s = String::from("paper");
    for &(k, v) in pairs {
        s.push_str(&format!(",{}={}", SCALAR_KEYS[k], v));
    }
    s
}

proptest! {
    /// Parsing the same spec twice gives the same parameters and the
    /// same stable hash, and the canonical form round-trips.
    #[test]
    fn parse_then_hash_is_deterministic(
        pairs in proptest::collection::vec((0usize..8, 1u64..10_000), 0..8)
    ) {
        let spec = spec_from(&pairs);
        let a = ArchParams::parse(&spec).unwrap();
        let b = ArchParams::parse(&spec).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.stable_hash(), b.stable_hash());
        // canonical() names every field, so re-parsing it reproduces
        // the exact point.
        let c = ArchParams::parse(&a.canonical()).unwrap();
        prop_assert_eq!(a, c);
        prop_assert_eq!(a.stable_hash(), c.stable_hash());
    }

    /// With distinct keys, assignment order is irrelevant: forward and
    /// reversed key=value lists land on the same point and hash.
    #[test]
    fn key_value_order_is_irrelevant(
        mask in 1usize..256,
        values in proptest::collection::vec(1u64..10_000, 8..9)
    ) {
        let pairs: Vec<(usize, u64)> = (0..8)
            .filter(|k| mask & (1 << k) != 0)
            .map(|k| (k, values[k]))
            .collect();
        let mut reversed = pairs.clone();
        reversed.reverse();
        let fwd = ArchParams::parse(&spec_from(&pairs)).unwrap();
        let rev = ArchParams::parse(&spec_from(&reversed)).unwrap();
        prop_assert_eq!(fwd, rev);
        prop_assert_eq!(fwd.stable_hash(), rev.stable_hash());
    }

    /// Any two different scalar points hash differently (the run cache
    /// depends on this to keep sweep points apart).
    #[test]
    fn distinct_scalar_points_hash_distinctly(
        key in 0usize..8,
        v1 in 1u64..10_000,
        v2 in 1u64..10_000
    ) {
        if v1 != v2 {
            let a = ArchParams::parse(&spec_from(&[(key, v1)])).unwrap();
            let b = ArchParams::parse(&spec_from(&[(key, v2)])).unwrap();
            prop_assert!(
                a.stable_hash() != b.stable_hash(),
                "{}={} vs {}", SCALAR_KEYS[key], v1, v2
            );
        }
    }
}
