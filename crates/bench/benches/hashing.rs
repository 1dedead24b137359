//! Criterion: vectorized hashing and group-table insertcheck
//! (the Fig. 4(e) primitive).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ma_primitives::group_table::{
    hash_insertcheck_multi_gcc, hash_insertcheck_u64_gcc, hash_insertcheck_u64_icc, GroupTable,
    MultiGroupTable,
};
use ma_primitives::hashing::{hash_bytes, hash_u64, map_hash_i64_clang, map_hash_i64_gcc};
use ma_vector::StrVec;

fn bench_hashing(c: &mut Criterion) {
    let n = 16 * 1024;
    let keys: Vec<i64> = (0..n as i64).map(|i| i % 997).collect();
    let mut hashes = vec![0u64; n];
    let mut group = c.benchmark_group("hashing");
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("map_hash_i64/gcc", |b| {
        b.iter(|| {
            map_hash_i64_gcc(&mut hashes, &keys, None);
            std::hint::black_box(&hashes);
        })
    });
    group.bench_function("map_hash_i64/clang", |b| {
        b.iter(|| {
            map_hash_i64_clang(&mut hashes, &keys, None);
            std::hint::black_box(&hashes);
        })
    });

    let khashes: Vec<u64> = keys.iter().map(|&k| hash_u64(k as u64)).collect();
    let mut gids = vec![0u32; n];
    for (name, f) in [
        (
            "insertcheck_u64/gcc",
            hash_insertcheck_u64_gcc as ma_primitives::GroupInsertCheck,
        ),
        ("insertcheck_u64/icc", hash_insertcheck_u64_icc),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut t = GroupTable::new();
                t.reserve(n);
                std::hint::black_box(f(&mut t, &khashes, &keys, &mut gids, None));
            })
        });
    }

    let strs: Vec<String> = (0..n).map(|i| format!("key{}", i % 997)).collect();
    let skeys = StrVec::from_strings(&strs);
    let shashes: Vec<u64> = strs.iter().map(|s| hash_bytes(s.as_bytes())).collect();
    // A single string key runs on the composite table with one string column.
    group.bench_with_input(BenchmarkId::new("insertcheck_str", "gcc"), &n, |b, _| {
        b.iter(|| {
            let mut t = MultiGroupTable::new(0, 1);
            t.reserve(n);
            std::hint::black_box(hash_insertcheck_multi_gcc(
                &mut t,
                &shashes,
                &[],
                &[&skeys],
                &mut gids,
                None,
            ));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hashing);
criterion_main!(benches);
