//! Benchmark set-up: data generation, column encoding and the raw twin,
//! each timed from outside through the layer's public entry point.

use std::sync::Arc;
use std::time::Instant;

use ma_tpch::TpchData;
use ma_vector::encode::raw_bytes;
use ma_vector::{encode_table, Table};

/// The eight TPC-H tables, in generation order.
pub const TABLES: [&str; 8] = [
    "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem",
];

/// Both storage modes of one generated database.
pub struct Db {
    /// Compressed columns (the engine's default storage).
    pub encoded: Arc<TpchData>,
    /// The uncompressed twin, decoded from `encoded`.
    pub raw: Arc<TpchData>,
}

/// Wall time of one set-up, split by layer.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// `TpchData::generate_raw`.
    pub generate_s: f64,
    /// `ma_vector::encode_table` over every table.
    pub encode_s: f64,
    /// `TpchData::decode_all` (`ma_vector::decode_table` per table).
    pub decode_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.encode_s + self.decode_s
    }
}

/// Encodes every table of a raw database, as `TpchData::generate` does.
fn encode_all(raw: &TpchData) -> TpchData {
    let enc = |t: &Arc<Table>| Arc::new(encode_table(t));
    TpchData {
        sf: raw.sf,
        region: enc(&raw.region),
        nation: enc(&raw.nation),
        supplier: enc(&raw.supplier),
        customer: enc(&raw.customer),
        part: enc(&raw.part),
        partsupp: enc(&raw.partsupp),
        orders: enc(&raw.orders),
        lineitem: enc(&raw.lineitem),
    }
}

/// Generates, encodes and decodes one database, timing each step.
pub fn build(sf: f64, data_seed: u64) -> (Db, SetupTimes) {
    let t = Instant::now();
    let generated = TpchData::generate_raw(sf, data_seed);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let encoded = Arc::new(encode_all(&generated));
    let encode_s = t.elapsed().as_secs_f64();
    drop(generated);

    let t = Instant::now();
    let raw = Arc::new(encoded.decode_all());
    let decode_s = t.elapsed().as_secs_f64();

    let times = SetupTimes {
        generate_s,
        encode_s,
        decode_s,
    };
    (Db { encoded, raw }, times)
}

/// Sets up `reps` times (at most one database alive at a time) and keeps
/// the last database; every repetition's times are returned.
pub fn build_repeated(sf: f64, data_seed: u64, reps: usize) -> (Db, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(reps);
    let mut db = None;
    for _ in 0..reps.max(1) {
        drop(db.take());
        let (d, t) = build(sf, data_seed);
        db = Some(d);
        times.push(t);
    }
    (db.expect("at least one set-up ran"), times)
}

/// (Σ resident bytes, Σ raw bytes) over every column of every table.
pub fn bytes(db: &TpchData) -> (usize, usize) {
    let (mut resident, mut raw) = (0, 0);
    for name in TABLES {
        let table = db.table(name).expect("every TPC-H table exists");
        for i in 0..table.column_names().len() {
            let col = table.column_at(i);
            resident += col.resident_bytes();
            raw += raw_bytes(col);
        }
    }
    (resident, raw)
}

/// Σ resident bytes / Σ raw bytes over every column of every table.
pub fn bytes_per_raw_byte(db: &TpchData) -> f64 {
    let (resident, raw) = bytes(db);
    resident as f64 / raw as f64
}

/// Total rows across all tables.
pub fn total_rows(db: &TpchData) -> usize {
    TABLES
        .iter()
        .map(|n| db.table(n).expect("every TPC-H table exists").rows())
        .sum()
}
