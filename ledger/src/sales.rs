//! Inputs and oracle of the DailySales workloads (`warehouse-day`,
//! `durable-spill`).
//!
//! Everything here runs during set-up, before any timer starts: the daily
//! batches come from the seeded `SalesGenerator`, and the oracle replays
//! them through an independent model of the summary view — a map from
//! group key to `(SUM, COUNT)` with the view's rules (a group appears with
//! its first positive count, disappears when its count reaches zero, and a
//! negative delta on a missing group is a stale correction and is dropped)
//! plus the rolling window's retirement of the oldest day. The model keeps
//! each group's history by version, and per version the aggregates every
//! analyst query asks for, so any answer can be checked at the session's
//! own VN.

use std::collections::HashMap;
use std::sync::Arc;
use wh_types::{Date, Row, SplitMix64, Value};
use wh_view::SourceDelta;
use wh_workload::{SalesConfig, SalesGenerator};

/// Size of a DailySales workload.
#[derive(Debug, Clone, Copy)]
pub struct SalesSize {
    /// Days in the rolling window.
    pub window_days: usize,
    pub sales_per_day: usize,
    pub cities: usize,
    pub product_lines: usize,
    /// Maintenance batches generated (one day each).
    pub batches: usize,
    /// Analyst sessions' parameters generated (used round-robin).
    pub sessions: usize,
}

/// Lookups and range lookups per analyst session.
pub const LOOKUPS: usize = 32;
pub const RANGES: usize = 2;
/// Rows the top-k query returns.
pub const TOP_K: usize = 10;

/// Parameters of one analyst session, drawn at set-up.
#[derive(Debug, Clone)]
pub struct AnalystParams {
    pub filter_pl: u16,
    pub filter_day: u16,
    pub filter_sql: String,
    /// `(city, product line, days back from the newest day)`.
    pub lookups: Vec<(u16, u16, u16)>,
    /// `(city, product line)` drill-downs over the whole window.
    pub ranges: Vec<(u16, u16)>,
}

/// Aggregates of the view at one version.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub rows: i64,
    pub total: i64,
    /// Per city: (SUM, rows).
    pub city: Vec<(i64, i64)>,
    /// Per product line: (SUM, rows).
    pub pl: Vec<(i64, i64)>,
    /// Per (product line, day): (SUM, rows), at `pl * days + day`.
    pub pl_day: Vec<(i64, i64)>,
    /// The `TOP_K` largest SUM values, descending.
    pub top: Vec<i64>,
}

/// The generated inputs and the oracle.
pub struct SalesInputs {
    pub first_day: Date,
    pub window_days: usize,
    /// Days generated in all: the initial window plus one per batch.
    pub days: usize,
    pub cities: Vec<Arc<str>>,
    pub states: Vec<Arc<str>>,
    pub pls: Vec<Arc<str>>,
    city_idx: HashMap<Arc<str>, u16>,
    pl_idx: HashMap<Arc<str>, u16>,
    /// Packed date → day index.
    day_idx: HashMap<u32, usize>,
    /// Summary rows at version index 0 (the initial load).
    pub initial_rows: Vec<Row>,
    /// Batch `i` brings day `window_days + i`.
    pub batches: Vec<Vec<SourceDelta>>,
    /// Batch `i` retires day `i`.
    pub retire_sql: Vec<String>,
    pub sessions: Vec<AnalystParams>,
    /// Per group key: `(version index, SUM, COUNT)` from that version on;
    /// COUNT 0 means absent.
    history: HashMap<u32, Vec<(u32, i64, i64)>>,
    /// Per version index.
    pub agg: Vec<Agg>,
}

pub const TABLE: &str = "daily_sales";
pub const RANGE_INDEX: &str = "by_city_pl";
pub const Q_COUNT: &str = "SELECT COUNT(*) FROM daily_sales";
pub const Q_BY_CITY: &str = "SELECT city, SUM(total_sales) FROM daily_sales GROUP BY city";
pub const Q_BY_PL: &str =
    "SELECT product_line, SUM(total_sales), COUNT(*) FROM daily_sales GROUP BY product_line";
pub const Q_TOP: &str = "SELECT city, product_line, date, total_sales FROM daily_sales \
                         ORDER BY total_sales DESC LIMIT 10";

impl SalesInputs {
    pub fn generate(size: SalesSize, seed: u64) -> SalesInputs {
        let first_day = Date::ymd(1996, 1, 1);
        let mut gen = SalesGenerator::new(
            SalesConfig {
                cities: size.cities,
                product_lines: size.product_lines,
                sales_per_day: size.sales_per_day,
                correction_per_mille: 20,
                seed,
            },
            first_day,
        );
        let initial = gen.days(size.window_days);
        let batches = gen.days(size.batches);
        let days = size.window_days + size.batches;
        let mut inputs = SalesInputs {
            first_day,
            window_days: size.window_days,
            days,
            cities: Vec::new(),
            states: Vec::new(),
            pls: Vec::new(),
            city_idx: HashMap::new(),
            pl_idx: HashMap::new(),
            day_idx: (0..days)
                .map(|d| (first_day.plus_days(d as u32).to_packed(), d))
                .collect(),
            initial_rows: Vec::new(),
            batches: Vec::new(),
            retire_sql: Vec::new(),
            sessions: Vec::new(),
            history: HashMap::new(),
            agg: Vec::new(),
        };
        // Name tables: every city and product line that occurs, in order
        // of first appearance.
        for delta in initial.iter().chain(&batches).flatten() {
            let row = delta_row(delta);
            inputs.intern(row);
        }
        let mut live: HashMap<u32, (i64, i64)> = HashMap::new();
        for day in &initial {
            inputs.apply(&mut live, day, None, 0);
        }
        for (&key, &(sum, count)) in &live {
            inputs.history.insert(key, vec![(0, sum, count)]);
        }
        let mut keys: Vec<u32> = live.keys().copied().collect();
        keys.sort_unstable();
        inputs.initial_rows = keys
            .iter()
            .map(|&k| {
                let (sum, count) = live[&k];
                inputs.summary_row(k, sum, count)
            })
            .collect();
        inputs.agg.push(inputs.aggregate(&live));
        for (i, day) in batches.iter().enumerate() {
            let j = i as u32 + 1;
            inputs.apply(&mut live, day, Some(i), j);
            inputs.agg.push(inputs.aggregate(&live));
            inputs.retire_sql.push(format!(
                "DELETE FROM {TABLE} WHERE date = DATE '{}'",
                inputs.date(i)
            ));
        }
        inputs.batches = batches;
        inputs.sessions = inputs.analyst_params(size.sessions, seed);
        inputs
    }

    fn intern(&mut self, row: &Row) {
        let city: Arc<str> = str_of(&row[0]).into();
        if !self.city_idx.contains_key(&city) {
            self.city_idx.insert(city.clone(), self.cities.len() as u16);
            self.cities.push(city);
            self.states.push(str_of(&row[1]).into());
        }
        let pl: Arc<str> = str_of(&row[2]).into();
        if !self.pl_idx.contains_key(&pl) {
            self.pl_idx.insert(pl.clone(), self.pls.len() as u16);
            self.pls.push(pl);
        }
    }

    /// Key code of group `(city, pl, day)`.
    pub fn key(&self, city: u16, pl: u16, day: usize) -> u32 {
        ((day * self.cities.len() + city as usize) * self.pls.len() + pl as usize) as u32
    }

    fn unkey(&self, key: u32) -> (u16, u16, usize) {
        let key = key as usize;
        let pl = key % self.pls.len();
        let rest = key / self.pls.len();
        (
            (rest % self.cities.len()) as u16,
            pl as u16,
            rest / self.cities.len(),
        )
    }

    pub fn date(&self, day: usize) -> Date {
        self.first_day.plus_days(day as u32)
    }

    /// Day index of `date`.
    pub fn day_of(&self, date: Date) -> Option<usize> {
        self.day_idx.get(&date.to_packed()).copied()
    }

    pub fn city_of(&self, s: &str) -> Option<u16> {
        self.city_idx.get(s).copied()
    }

    pub fn pl_of(&self, s: &str) -> Option<u16> {
        self.pl_idx.get(s).copied()
    }

    /// Key code of a summary row `(city, state, pl, date, ...)`.
    pub fn key_of_row(&self, row: &[Value]) -> Option<u32> {
        let city = self.city_of(row.first()?.as_str()?)?;
        let pl = self.pl_of(row.get(2)?.as_str()?)?;
        let day = self.day_of(row.get(3)?.as_date()?)?;
        Some(self.key(city, pl, day))
    }

    /// The summary row of group `key` with the given aggregates.
    pub fn summary_row(&self, key: u32, sum: i64, count: i64) -> Row {
        let (city, pl, day) = self.unkey(key);
        vec![
            Value::from(self.cities[city as usize].clone()),
            Value::from(self.states[city as usize].clone()),
            Value::from(self.pls[pl as usize].clone()),
            Value::from(self.date(day)),
            Value::from(sum),
            Value::from(count),
        ]
    }

    /// The key-only probe row of group `(city, pl, day)` for
    /// `read_by_key`.
    pub fn key_row(&self, city: u16, pl: u16, day: usize) -> Row {
        let mut row = self.summary_row(self.key(city, pl, day), 0, 0);
        row[4] = Value::Null;
        row[5] = Value::Null;
        row
    }

    /// Apply one day's deltas to the model (and, for a maintenance batch,
    /// retire the oldest day), recording history at version index `j`.
    fn apply(
        &mut self,
        live: &mut HashMap<u32, (i64, i64)>,
        deltas: &[SourceDelta],
        retire_day: Option<usize>,
        j: u32,
    ) {
        let mut net: HashMap<u32, (i64, i64)> = HashMap::new();
        for delta in deltas {
            let (row, sign) = match delta {
                SourceDelta::Insert(r) => (r, 1),
                SourceDelta::Delete(r) => (r, -1),
            };
            let key = self.key_of_source(row);
            let amount = row[4].as_int().expect("amount is an integer");
            let e = net.entry(key).or_insert((0, 0));
            e.0 += sign * amount;
            e.1 += sign;
        }
        let mut changed: Vec<u32> = Vec::new();
        for (key, (ds, dc)) in net {
            match live.get(&key).copied() {
                None if dc > 0 => {
                    live.insert(key, (ds, dc));
                    changed.push(key);
                }
                None => {}
                Some((sum, count)) => {
                    if count + dc <= 0 {
                        live.remove(&key);
                    } else {
                        live.insert(key, (sum + ds, count + dc));
                    }
                    changed.push(key);
                }
            }
        }
        if let Some(day) = retire_day {
            for city in 0..self.cities.len() as u16 {
                for pl in 0..self.pls.len() as u16 {
                    let key = self.key(city, pl, day);
                    if live.remove(&key).is_some() {
                        changed.push(key);
                    }
                }
            }
        }
        if retire_day.is_none() {
            return; // initial load: history starts at version index 0
        }
        for key in changed {
            let (sum, count) = live.get(&key).copied().unwrap_or((0, 0));
            let h = self.history.entry(key).or_default();
            h.retain(|&(at, _, _)| at != j);
            h.push((j, sum, count));
        }
    }

    fn key_of_source(&self, row: &Row) -> u32 {
        let city = self.city_idx[str_of(&row[0])];
        let pl = self.pl_idx[str_of(&row[2])];
        let date = row[3].as_date().expect("date column");
        let day = self.day_of(date).expect("generated day");
        self.key(city, pl, day)
    }

    fn aggregate(&self, live: &HashMap<u32, (i64, i64)>) -> Agg {
        let mut agg = Agg {
            city: vec![(0, 0); self.cities.len()],
            pl: vec![(0, 0); self.pls.len()],
            pl_day: vec![(0, 0); self.pls.len() * self.days],
            ..Agg::default()
        };
        let mut sums: Vec<i64> = Vec::with_capacity(live.len());
        for (&key, &(sum, _)) in live {
            let (city, pl, day) = self.unkey(key);
            agg.rows += 1;
            agg.total += sum;
            add(&mut agg.city[city as usize], sum);
            add(&mut agg.pl[pl as usize], sum);
            add(&mut agg.pl_day[pl as usize * self.days + day], sum);
            sums.push(sum);
        }
        sums.sort_unstable_by(|a, b| b.cmp(a));
        sums.truncate(TOP_K);
        agg.top = sums;
        agg
    }

    /// `(SUM, COUNT)` of group `key` at version index `j`, if present.
    pub fn at(&self, key: u32, j: usize) -> Option<(i64, i64)> {
        let h = self.history.get(&key)?;
        let n = h.partition_point(|&(at, _, _)| at as usize <= j);
        if n == 0 {
            return None;
        }
        let (_, sum, count) = h[n - 1];
        (count > 0).then_some((sum, count))
    }

    /// Every present group at version index `j`, by key.
    pub fn state_at(&self, j: usize) -> HashMap<u32, (i64, i64)> {
        self.history
            .keys()
            .filter_map(|&k| self.at(k, j).map(|v| (k, v)))
            .collect()
    }

    /// Newest day in the window at version index `j`.
    pub fn newest_day(&self, j: usize) -> usize {
        self.window_days - 1 + j
    }

    fn analyst_params(&self, n: usize, seed: u64) -> Vec<AnalystParams> {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xa11a_1157);
        let c = self.cities.len();
        let p = self.pls.len();
        (0..n)
            .map(|_| {
                let filter_pl = rng.index(p) as u16;
                let filter_day = rng.index(self.days) as u16;
                AnalystParams {
                    filter_pl,
                    filter_day,
                    filter_sql: format!(
                        "SELECT COUNT(*), SUM(total_sales) FROM {TABLE} \
                         WHERE product_line = '{}' AND date >= DATE '{}'",
                        self.pls[filter_pl as usize],
                        self.date(filter_day as usize)
                    ),
                    lookups: (0..LOOKUPS)
                        .map(|_| {
                            (
                                rng.index(c) as u16,
                                rng.index(p) as u16,
                                rng.index(self.window_days) as u16,
                            )
                        })
                        .collect(),
                    ranges: (0..RANGES)
                        .map(|_| (rng.index(c) as u16, rng.index(p) as u16))
                        .collect(),
                }
            })
            .collect()
    }
}

fn add(slot: &mut (i64, i64), sum: i64) {
    slot.0 += sum;
    slot.1 += 1;
}

fn delta_row(d: &SourceDelta) -> &Row {
    match d {
        SourceDelta::Insert(r) | SourceDelta::Delete(r) => r,
    }
}

fn str_of(v: &Value) -> &str {
    v.as_str().expect("string column")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SalesInputs {
        SalesInputs::generate(
            SalesSize {
                window_days: 4,
                sales_per_day: 200,
                cities: 6,
                product_lines: 3,
                batches: 5,
                sessions: 3,
            },
            7,
        )
    }

    #[test]
    fn model_is_seeded() {
        let (a, b) = (tiny(), tiny());
        assert_eq!(a.initial_rows, b.initial_rows);
        assert_eq!(a.agg.len(), 6);
        assert_eq!(a.agg[5].total, b.agg[5].total);
    }

    #[test]
    fn window_rolls() {
        let m = tiny();
        for j in 0..m.agg.len() {
            let state = m.state_at(j);
            assert_eq!(state.len() as i64, m.agg[j].rows);
            let oldest = j; // batch j-1 retired day j-1
            for &k in state.keys() {
                let (_, _, day) = m.unkey(k);
                assert!(day >= oldest && day <= m.newest_day(j), "day {day} at {j}");
            }
        }
    }
}
