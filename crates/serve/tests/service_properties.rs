//! Integration tests for the caching mapping service:
//!
//! * property test: requests that are equal up to a dimension permutation
//!   (and stencil offset order) hit the same canonical cache entry,
//! * property test: the compact node-table encoding decodes to exactly the
//!   verbose table, and `new_rank_of` point answers read the same entries,
//! * property test: reopening a persisted service reproduces the exact
//!   per-shard LRU contents and recency order (oracle: the pre-shutdown
//!   shard dumps),
//! * LRU eviction ordering under concurrent access (per-shard determinism),
//! * property tests: GDSF matches the LRU model under uniform costs and a
//!   linear-scan Greedy-Dual model under unequal costs,
//! * byte-identical responses across real `RAYON_NUM_THREADS` settings,
//!   verified via subprocesses like the engine determinism tests.

use proptest::prelude::*;
use stencil_serve::json::{decode_nodes_compact, Value};
use stencil_serve::service::{MappingService, ServiceConfig};
use stencil_serve::{EvictionPolicy, ShardedLru};

/// Builds the request line for dims permuted by `perm` (stencil given as
/// explicit offsets permuted the same way, so the request is equivalent).
fn permuted_request_line(
    dims: &[usize],
    offsets: &[Vec<i64>],
    perm: &[usize],
    algorithm: &str,
) -> String {
    let p_dims: Vec<String> = perm.iter().map(|&i| dims[i].to_string()).collect();
    let p_offsets: Vec<String> = offsets
        .iter()
        .map(|o| {
            let xs: Vec<String> = perm.iter().map(|&i| o[i].to_string()).collect();
            format!("[{}]", xs.join(","))
        })
        .collect();
    format!(
        r#"{{"dims":[{}],"stencil":[{}],"nodes":2,"algorithm":"{algorithm}","want_mapping":false}}"#,
        p_dims.join(","),
        p_offsets.join(",")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The satellite property: permuted-but-equivalent requests hit the same
    /// cache entry — the cache never grows past one entry, the second
    /// request reports `cached: true`, and both report identical costs.
    #[test]
    fn permuted_equivalent_requests_hit_the_same_cache_entry(
        d0 in 2usize..7,
        d1 in 2usize..7,
        d2 in 1usize..5,
        stencil_choice in 0u8..3,
        shuffle in 0usize..6,
        alg in 0u8..3,
    ) {
        let p = d0 * d1 * d2;
        if !p.is_multiple_of(2) {
            return Ok(());
        }
        let dims = [d0, d1, d2];
        let stencil = match stencil_choice % 3 {
            0 => stencil_grid::Stencil::nearest_neighbor(3),
            1 => stencil_grid::Stencil::nearest_neighbor_with_hops(3),
            _ => stencil_grid::Stencil::component(3),
        };
        let offsets: Vec<Vec<i64>> = stencil.offsets().to_vec();
        let algorithm = ["hyperplane", "kdtree", "stencil_strips"][(alg % 3) as usize];
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let perm = PERMS[shuffle % 6];

        let service = MappingService::new(&ServiceConfig::default());
        let identity = permuted_request_line(&dims, &offsets, &[0, 1, 2], algorithm);
        let permuted = permuted_request_line(&dims, &offsets, &perm, algorithm);
        let first = Value::parse(&service.handle_line(&identity)).unwrap();
        let second = Value::parse(&service.handle_line(&permuted)).unwrap();
        prop_assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
        prop_assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));
        prop_assert_eq!(second.get("cached").and_then(Value::as_bool), Some(true),
            "permuted request must be served from the cache");
        prop_assert_eq!(service.cache_stats().len, 1,
            "equivalent requests must share one entry");
        prop_assert_eq!(first.get("j_sum"), second.get("j_sum"));
        prop_assert_eq!(first.get("j_max"), second.get("j_max"));
    }

    /// Compact-encoding roundtrip: for arbitrary mappings (dims shape,
    /// stencil, algorithm, permuted orientation), decoding the compact
    /// response gives exactly the verbose response's node table, and
    /// `new_rank_of` point answers equal the table's entries at the queried
    /// positions.
    #[test]
    fn compact_and_point_answers_match_the_verbose_table(
        d0 in 2usize..7,
        d1 in 2usize..7,
        d2 in 1usize..5,
        stencil_choice in 0u8..3,
        shuffle in 0usize..6,
        alg in 0u8..4,
        rank_picks in proptest::collection::vec(0usize..1000, 1..6),
    ) {
        let p = d0 * d1 * d2;
        if !p.is_multiple_of(2) {
            return Ok(());
        }
        let dims = [d0, d1, d2];
        let stencil = match stencil_choice % 3 {
            0 => stencil_grid::Stencil::nearest_neighbor(3),
            1 => stencil_grid::Stencil::nearest_neighbor_with_hops(3),
            _ => stencil_grid::Stencil::component(3),
        };
        let offsets: Vec<Vec<i64>> = stencil.offsets().to_vec();
        let algorithm = ["hyperplane", "kdtree", "stencil_strips", "blocked"][(alg % 4) as usize];
        const PERMS: [[usize; 3]; 6] = [
            [0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ];
        let perm = PERMS[shuffle % 6];
        let service = MappingService::new(&ServiceConfig::default());

        // the same (possibly permuted) request in all three response forms
        let base = permuted_request_line(&dims, &offsets, &perm, algorithm);
        let verbose = base.replace(",\"want_mapping\":false", "");
        let compact = base.replace(
            ",\"want_mapping\":false",
            ",\"encoding\":\"compact\"",
        );
        let ranks: Vec<usize> = rank_picks.iter().map(|&r| r % p).collect();
        let ranks_json: Vec<String> = ranks.iter().map(|r| r.to_string()).collect();
        let points = base.replace(
            ",\"want_mapping\":false",
            &format!(",\"query\":\"new_rank_of\",\"ranks\":[{}]", ranks_json.join(",")),
        );

        let vv = Value::parse(&service.handle_line(&verbose)).unwrap();
        prop_assert_eq!(vv.get("status").and_then(Value::as_str), Some("ok"));
        let table: Vec<u32> = vv.get("nodes").and_then(Value::as_arr).unwrap()
            .iter().map(|x| x.as_usize().unwrap() as u32).collect();
        prop_assert_eq!(table.len(), p);

        let vc = Value::parse(&service.handle_line(&compact)).unwrap();
        prop_assert_eq!(vc.get("encoding").and_then(Value::as_str), Some("compact"));
        let decoded = decode_nodes_compact(
            vc.get("nodes").and_then(Value::as_str).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &table, "compact != verbose");
        prop_assert_eq!(vc.get("j_sum"), vv.get("j_sum"));

        let vq = Value::parse(&service.handle_line(&points)).unwrap();
        prop_assert_eq!(vq.get("status").and_then(Value::as_str), Some("ok"));
        let answers: Vec<u32> = vq.get("nodes").and_then(Value::as_arr).unwrap()
            .iter().map(|x| x.as_usize().unwrap() as u32).collect();
        prop_assert_eq!(answers.len(), ranks.len());
        for (i, &r) in ranks.iter().enumerate() {
            prop_assert_eq!(answers[i], table[r],
                "new_rank_of({}) disagrees with the table", r);
        }
    }

    /// Persistence reload oracle: after an arbitrary request sequence (with
    /// a small capacity so evictions and touches matter), reopening the
    /// service from its log reproduces the exact per-shard cache contents
    /// and recency order that were resident before shutdown.
    #[test]
    fn persistence_reload_reproduces_per_shard_lru_contents(
        picks in proptest::collection::vec(0usize..10, 1..24),
        capacity in 2usize..7,
        case_tag in 0u64..1_000_000,
    ) {
        let dir = std::env::temp_dir().join("stencil-serve-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "reload-{}-{case_tag}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = ServiceConfig {
            cache_capacity: capacity,
            cache_shards: 2,
            persist_path: Some(path.clone()),
            ..ServiceConfig::default()
        };
        // a pool of distinct cheap instances; repeats become hits (touches)
        let universe: Vec<String> = (0..10).map(|i| {
            let nodes = 2 + i;
            format!(r#"{{"dims":[{nodes},4],"nodes":{nodes},"want_mapping":false}}"#)
        }).collect();
        let before: Vec<Vec<_>>;
        {
            let s = MappingService::open(&cfg).unwrap();
            for &pick in &picks {
                let out = s.handle_line(&universe[pick]);
                prop_assert!(out.contains("\"status\":\"ok\""), "{}", out);
            }
            before = (0..s.cache_num_shards())
                .map(|sh| s.cache_shard_entries_lru_first(sh))
                .collect();
        }
        let s = MappingService::open(&cfg).unwrap();
        for (shard, expected) in before.iter().enumerate() {
            let after = s.cache_shard_entries_lru_first(shard);
            prop_assert_eq!(after.len(), expected.len(), "shard {} size", shard);
            for (a, e) in after.iter().zip(expected) {
                prop_assert_eq!(&a.0, &e.0, "shard {} key order", shard);
                prop_assert_eq!(&*a.1, &*e.1, "shard {} entry payload", shard);
            }
        }
        // and the reloaded entries actually serve: a repeat of the last
        // request is a hit that recomputes nothing
        let misses_before = s.cache_stats().misses;
        let out = s.handle_line(&universe[*picks.last().unwrap()]);
        prop_assert!(out.contains("\"cached\":true"), "{}", out);
        prop_assert_eq!(s.cache_stats().misses, misses_before);
        let _ = std::fs::remove_file(&path);
    }
}

/// Concurrent traffic against a persisted service, then a reload: the log's
/// per-shard record order is pinned to the shard's operation order (the
/// service holds a per-shard persist lock around each `(cache op, record)`
/// pair), so the reloaded per-shard contents and recency must equal the
/// pre-shutdown state no matter how the worker threads interleaved.
#[test]
fn persisted_reload_matches_under_concurrent_traffic() {
    let dir = std::env::temp_dir().join("stencil-serve-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("concurrent-reload-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServiceConfig {
        cache_capacity: 8,
        cache_shards: 2,
        persist_path: Some(path.clone()),
        ..ServiceConfig::default()
    };
    let before: Vec<Vec<_>>;
    {
        let s = MappingService::open(&cfg).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..60usize {
                        // overlapping key universe across threads: plenty of
                        // same-shard contention, hits and evictions
                        let nodes = 2 + (t + i) % 8;
                        let line = format!(
                            r#"{{"dims":[{nodes},4],"nodes":{nodes},"want_mapping":false}}"#
                        );
                        let out = s.handle_line(&line);
                        assert!(out.contains("\"status\":\"ok\""), "{out}");
                    }
                });
            }
        });
        before = (0..s.cache_num_shards())
            .map(|sh| s.cache_shard_entries_lru_first(sh))
            .collect();
    }
    let s = MappingService::open(&cfg).unwrap();
    for (shard, expected) in before.iter().enumerate() {
        let after = s.cache_shard_entries_lru_first(shard);
        assert_eq!(
            after.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            expected.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            "shard {shard} diverged after a concurrent-traffic reload"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A sequential model of LRU used as the oracle for the concurrent test.
struct ModelLru {
    cap: usize,
    /// Most recently used first.
    entries: Vec<(u64, u64)>,
}

impl ModelLru {
    fn get(&mut self, k: u64) -> Option<u64> {
        let pos = self.entries.iter().position(|&(key, _)| key == k)?;
        let e = self.entries.remove(pos);
        self.entries.insert(0, e);
        Some(e.1)
    }
    fn insert(&mut self, k: u64, v: u64) {
        if let Some(pos) = self.entries.iter().position(|&(key, _)| key == k) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.cap {
            self.entries.pop();
        }
        self.entries.insert(0, (k, v));
    }
}

/// LRU eviction ordering under concurrent access: each thread owns one
/// shard (keys are pre-filtered by `shard_of`), hammers it with a
/// deterministic mixed get/insert workload, and checks every observation
/// against the sequential model.  Shards are independent, so per-thread
/// behaviour must be exactly sequential-LRU even while all threads run
/// concurrently; afterwards the shard's exact MRU order must match the
/// model's.
#[test]
fn lru_eviction_ordering_is_sequential_per_shard_under_concurrency() {
    const SHARDS: usize = 4;
    const PER_SHARD_CAP: usize = 4;
    let cache: ShardedLru<u64, u64> = ShardedLru::new(SHARDS * PER_SHARD_CAP, SHARDS);
    assert_eq!(cache.num_shards(), SHARDS);

    // partition a key universe by shard
    let mut keys_by_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    let mut k = 0u64;
    while keys_by_shard.iter().any(|ks| ks.len() < 16) {
        let s = cache.shard_of(&k);
        if keys_by_shard[s].len() < 16 {
            keys_by_shard[s].push(k);
        }
        k += 1;
    }

    std::thread::scope(|scope| {
        for (shard, keys) in keys_by_shard.iter().enumerate() {
            let cache = &cache;
            scope.spawn(move || {
                let mut model = ModelLru {
                    cap: PER_SHARD_CAP,
                    entries: Vec::new(),
                };
                // deterministic mixed workload: xorshift-style index stream
                let mut state = 0x9E37_79B9u64.wrapping_mul(shard as u64 + 1) | 1;
                for step in 0..4000u64 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = keys[(state % 16) as usize];
                    if state.is_multiple_of(3) {
                        let value = key * 1000 + step;
                        cache.insert(key, value);
                        model.insert(key, value);
                    } else {
                        assert_eq!(
                            cache.get(&key),
                            model.get(key),
                            "shard {shard} step {step}: cache diverged from sequential LRU"
                        );
                    }
                }
                // the final recency order of the shard matches the model exactly
                let expected: Vec<u64> = model.entries.iter().map(|&(k, _)| k).collect();
                assert_eq!(
                    cache.shard_keys_mru_first(shard),
                    expected,
                    "shard {shard}: MRU order diverged"
                );
            });
        }
    });
    assert!(cache.len() <= SHARDS * PER_SHARD_CAP);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GDSF with uniform costs is *exactly* per-shard LRU: for arbitrary
    /// mixed get/insert sequences, every observation and the final recency
    /// order match the sequential LRU model.  This is the property that lets
    /// `--eviction gdsf` share the LRU code path, goldens, and persistence
    /// format — the policies only diverge when costs differ.
    #[test]
    fn gdsf_with_uniform_costs_matches_the_lru_oracle(
        ops in proptest::collection::vec(0u64..48_000, 1..120),
        cap in 1usize..6,
    ) {
        let cache: ShardedLru<u64, u64> =
            ShardedLru::with_policy(cap, 1, EvictionPolicy::Gdsf);
        let mut model = ModelLru { cap, entries: Vec::new() };
        for (step, &encoded) in ops.iter().enumerate() {
            // decode (key, op-kind, value) from one draw; the vendored
            // proptest has no tuple strategies
            let key = encoded % 12;
            let op = (encoded / 12) % 2;
            let val = encoded / 24;
            if op == 0 {
                cache.insert_with_cost(key, val, 1);
                model.insert(key, val);
            } else {
                prop_assert_eq!(
                    cache.get(&key),
                    model.get(key),
                    "step {}: uniform-cost GDSF diverged from LRU",
                    step
                );
            }
            prop_assert_eq!(
                cache.shard_keys_mru_first(0),
                model.entries.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
                "step {}: recency order diverged",
                step
            );
        }
    }

    /// GDSF with unequal costs matches the linear-scan Greedy-Dual model:
    /// every `get` and the shard's recency order agree after each step of
    /// an arbitrary get/insert sequence with per-insert costs 1..=5.
    #[test]
    fn gdsf_with_unequal_costs_matches_the_greedy_dual_oracle(
        ops in proptest::collection::vec(0u64..60_000, 1..160),
        cap in 1usize..6,
    ) {
        let cache: ShardedLru<u64, u64> =
            ShardedLru::with_policy(cap, 1, EvictionPolicy::Gdsf);
        let mut model = ModelGdsf { cap, clock: 0, entries: Vec::new() };
        for (step, &encoded) in ops.iter().enumerate() {
            let key = encoded % 12;
            let op = (encoded / 12) % 2;
            let cost = 1 + (encoded / 24) % 5;
            let val = encoded / 120;
            if op == 0 {
                cache.insert_with_cost(key, val, cost);
                model.insert(key, val, cost);
            } else {
                prop_assert_eq!(
                    cache.get(&key),
                    model.get(key),
                    "step {}: GDSF diverged from the Greedy-Dual model",
                    step
                );
            }
            prop_assert_eq!(
                cache.shard_keys_mru_first(0),
                model.entries.iter().map(|e| e.0).collect::<Vec<_>>(),
                "step {}: recency order diverged",
                step
            );
        }
    }
}

/// A sequential model of Greedy-Dual eviction, the oracle for unequal
/// costs: a recency-ordered `Vec` and a linear scan for the victim with the
/// smallest priority (least recently used among ties), which advances the
/// clock to that priority.
struct ModelGdsf {
    cap: usize,
    clock: u64,
    /// `(key, value, cost, clock_at_last_use + cost)`, most recently used
    /// first.
    entries: Vec<(u64, u64, u64, u64)>,
}

impl ModelGdsf {
    fn get(&mut self, k: u64) -> Option<u64> {
        let pos = self.entries.iter().position(|e| e.0 == k)?;
        let (key, value, cost, _) = self.entries.remove(pos);
        self.entries
            .insert(0, (key, value, cost, self.clock + cost));
        Some(value)
    }
    fn insert(&mut self, k: u64, v: u64, cost: u64) {
        if let Some(pos) = self.entries.iter().position(|e| e.0 == k) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.cap {
            // scanning from the LRU end, min_by_key keeps the first minimum
            let victim = (0..self.entries.len())
                .rev()
                .min_by_key(|&i| self.entries[i].3)
                .expect("full model");
            self.clock = self.clock.max(self.entries[victim].3);
            self.entries.remove(victim);
        }
        self.entries.insert(0, (k, v, cost, self.clock + cost));
    }
}

/// Replays a mixed request batch (singles, batches, errors, fallbacks,
/// permuted repeats) and fingerprints the full response transcript.  Child
/// processes re-run this under different `RAYON_NUM_THREADS`; all
/// transcripts must be byte-identical (the vendored rayon reads the
/// variable once per process, hence subprocesses).
#[test]
fn responses_identical_across_thread_counts() {
    const CHILD_VAR: &str = "STENCIL_SERVE_DETERMINISM_CHILD";
    let transcript = || -> String {
        let service = MappingService::new(&ServiceConfig::default());
        let lines = [
            r#"{"id":1,"dims":[16,12],"nodes":8,"algorithm":"hyperplane"}"#,
            r#"{"id":2,"dims":[12,16],"nodes":8,"algorithm":"hyperplane"}"#,
            r#"{"id":3,"dims":[16,12],"nodes":8,"algorithm":"viem","seed":5}"#,
            r#"{"id":4,"dims":[16,12],"nodes":8,"algorithm":"viem","seed":5}"#,
            r#"{"batch":[{"id":5,"dims":[10,10],"nodes":4,"algorithm":"kdtree"},
                         {"id":6,"dims":[10,10],"nodes":4,"algorithm":"kdtree"},
                         {"id":7,"dims":[10,10],"nodes":4,"algorithm":"stencil_strips"},
                         {"id":8,"dims":[3,3],"nodes":2}]}"#,
            r#"{"id":9,"dims":[16,4],"nodes":8,"algorithm":"blocked","max_jsum":100,"on_over_budget":"fallback"}"#,
            r#"{"id":10,"dims":[4,16],"nodes":8,"algorithm":"blocked","max_jsum":1}"#,
        ];
        let mut out = String::new();
        for line in lines {
            out.push_str(&service.handle_line(line));
            out.push('\n');
        }
        out
    };
    if std::env::var(CHILD_VAR).is_ok() {
        // FNV-1a over the transcript
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in transcript().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        println!("transcript:{h:016x}");
        return;
    }
    let exe = std::env::current_exe().expect("test executable path");
    let mut fingerprints = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = std::process::Command::new(&exe)
            .args([
                "responses_identical_across_thread_counts",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD_VAR, "1")
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawning the child test process");
        assert!(
            out.status.success(),
            "child with RAYON_NUM_THREADS={threads} failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let fp = stdout
            .lines()
            .find_map(|l| l.split("transcript:").nth(1))
            .unwrap_or_else(|| panic!("no transcript fingerprint in child output:\n{stdout}"))
            .split_whitespace()
            .next()
            .expect("fingerprint value")
            .to_string();
        fingerprints.push((threads, fp));
    }
    let (_, reference) = &fingerprints[0];
    for (threads, fp) in &fingerprints {
        assert_eq!(
            fp, reference,
            "RAYON_NUM_THREADS={threads} produced different responses"
        );
    }
}
