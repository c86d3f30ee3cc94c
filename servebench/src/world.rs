//! Seeded worlds and request scripts.
//!
//! Everything here is a pure function of `(seed, index)`: the same seed
//! gives the same cars, regions, update batches and query texts, so the
//! wire run, the oracle replay and the traced replay regenerate
//! identical inputs without sharing state.

use most_core::sharded::{ShardRouting, ShardedDb, ShardedDbBuilder};
use most_core::{Database, UpdateOp};
use most_dbms::value::Value;
use most_server::Request;
use most_spatial::{Point, Polygon, Rect, Velocity};
use most_testkit::rng::Rng;

/// Query horizon (the database `expiration`), in ticks.  The spatial
/// index rolls to a fresh epoch once the clock is this far past its
/// start, so write workloads longer than this pay periodic rebuilds.
pub const HORIZON: u64 = 100;

/// Side of the square regions.  Worlds have one car per 200 square units
/// whatever their population, so a region starts with about 32 cars in it
/// and a spatial query does the same work per region in every workload.
const REGION_SIDE: f64 = 80.0;

/// Price the beacon car is set to when it should enter the beacon
/// continuous query's display; no ordinary car is priced this high.
const BEACON_PRICE: f64 = 1000.0;

/// The four `Instantaneous` query shapes of the issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `INSIDE(o, Rk)`.
    Inside,
    /// `o.PRICE <= c`, `c` low enough to select about 1% of the cars.
    Attr,
    /// `Eventually within 40 INSIDE(o, Rk)`.
    Eventually,
    /// `INSIDE(o, Rk) AND o.PRICE <= c`.
    Conj,
}

/// The mix `query_static` and `mixed_serving` rotate through: all four
/// shapes, the two index-assisted ones twice.  They are an order of
/// magnitude cheaper than the other two, so at equal shares the median
/// latency would sit on the edge between the two groups and jump from
/// run to run; at 2:2:1:1 it lies inside the cheap group, and the
/// expensive shapes dominate `throughput_rps` instead.
pub const ALL_SHAPES: [Shape; 6] =
    [Shape::Inside, Shape::Eventually, Shape::Attr, Shape::Inside, Shape::Eventually, Shape::Conj];

/// A generated world: cars, regions and the id lists update batches
/// draw from.
#[derive(Debug, Clone)]
pub struct World {
    seed: u64,
    /// Side of the square `[0, width)²` the cars start in.
    pub width: f64,
    cars: Vec<(Point, Velocity, f64)>,
    /// Region `Rk` is `regions[k]`.
    pub regions: Vec<Rect>,
    /// Car ids by x-band; update batch `k` stays inside band
    /// `(k - 1) % bands.len()`, so under `ShardRouting::SpatialBands` with as
    /// many shards it touches exactly one shard.  `bands[b][0]` is that
    /// band's beacon car.
    pub bands: Vec<Vec<u64>>,
}

fn velocity(rng: &mut Rng) -> Velocity {
    Velocity::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0))
}

impl World {
    /// Generates `cars` cars at constant density, `regions` square
    /// regions and `bands` x-bands.  Cars start on a jittered lattice, one
    /// per cell, so every seed gives every region nearly the same
    /// population and seeds differ in detail, not in how much work a
    /// query or a refresh is.
    pub fn generate(seed: u64, cars: usize, regions: usize, bands: usize) -> World {
        let mut rng = Rng::seed_from_u64(seed);
        let width = 1000.0 * (cars as f64 / 5000.0).sqrt();
        let side = (cars as f64).sqrt().ceil() as usize;
        let cell = width / side as f64;
        let mut band_ids = vec![Vec::new(); bands];
        let cars: Vec<_> = (0..cars)
            .map(|i| {
                let x = ((i % side) as f64 + rng.f64()) * cell;
                let p = Point::new(x, ((i / side) as f64 + rng.f64()) * cell);
                let price = rng.random_range(40.0..200.0f64).floor();
                let band = ((x / width * bands as f64) as usize).min(bands - 1);
                band_ids[band].push(i as u64 + 1);
                (p, velocity(&mut rng), price)
            })
            .collect();
        assert!(band_ids.iter().all(|b| b.len() >= 2), "every band needs a beacon and a car");
        // Regions sit on a fixed grid, the same for every seed: districts
        // stay put, the traffic through them is what the seed varies.
        let grid = (regions as f64).sqrt().ceil() as usize;
        let regions = (0..regions)
            .map(|k| {
                let cx = ((k % grid) as f64 + 0.5) * width / grid as f64;
                let cy = ((k / grid) as f64 + 0.5) * width / grid as f64;
                let half = REGION_SIDE / 2.0;
                Rect::new(cx - half, cy - half, cx + half, cy + half)
            })
            .collect();
        World { seed, width, cars, regions, bands: band_ids }
    }

    /// Number of cars.
    pub fn len(&self) -> usize {
        self.cars.len()
    }

    /// The extent handed to `enable_spatial_index`: the start square plus
    /// a margin for cars that drift out during a run.
    pub fn space(&self) -> Rect {
        Rect::new(-1000.0, -1000.0, self.width + 1000.0, self.width + 1000.0)
    }

    /// The world as a single database (no index, no continuous queries):
    /// the engine's initial state and the oracle's.
    pub fn database(&self) -> Database {
        let mut db = Database::new(HORIZON);
        for (i, (p, v, price)) in self.cars.iter().enumerate() {
            let id = db.insert_moving_object("cars", *p, *v);
            assert_eq!(id, i as u64 + 1, "ids are 1..=cars in generation order");
            db.set_static(id, "PRICE", Value::from(*price)).expect("open class admits PRICE");
        }
        for (k, r) in self.regions.iter().enumerate() {
            db.add_region(format!("R{k}"), rect_polygon(r));
        }
        db
    }

    /// The same world behind `shards` spatial-band shards, ids mirrored.
    pub fn sharded(&self, shards: usize) -> ShardedDb {
        let routing = ShardRouting::SpatialBands { min_x: 0.0, max_x: self.width };
        let mut b = ShardedDbBuilder::new(shards, HORIZON).with_routing(routing);
        for (k, r) in self.regions.iter().enumerate() {
            b.add_region(&format!("R{k}"), rect_polygon(r));
        }
        for (i, (p, v, price)) in self.cars.iter().enumerate() {
            let id = b.insert_moving_object("cars", *p, *v);
            assert_eq!(id, i as u64 + 1, "sharded ids mirror the single database");
            b.set_static(id, "PRICE", Value::from(*price)).expect("open class admits PRICE");
        }
        b.finish()
    }

    /// Update batch `k` (1-based): `motions` motion-vector changes on
    /// seeded cars of band `(k - 1) % bands`, then the beacon toggle that makes
    /// the beacon continuous query's display change on every batch.
    pub fn batch(&self, k: u64, motions: usize) -> Vec<UpdateOp> {
        let mut rng = Rng::seed_from_u64(self.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let nb = self.bands.len() as u64;
        let (band, visit) = ((k - 1) % nb, (k - 1) / nb);
        let band = &self.bands[band as usize];
        let mut ops: Vec<UpdateOp> = (0..motions)
            .map(|_| UpdateOp::Motion {
                // Index 0 is the beacon; it never moves.
                id: band[1 + rng.below(band.len() as u64 - 1) as usize],
                velocity: velocity(&mut rng),
            })
            .collect();
        // A band's first visit prices its beacon up, the next down, …: the
        // beacon query's display changes by exactly one row per batch.
        let price = if visit % 2 == 0 { BEACON_PRICE } else { 50.0 };
        ops.push(UpdateOp::Static { id: band[0], attr: "PRICE".into(), value: Value::from(price) });
        ops
    }

    /// The continuous-query texts: spatial, temporal and conjunctive
    /// shapes over the first regions, and the beacon query last, so its
    /// delta is the last frame of every fan-out.
    pub fn cq_texts(&self, n: usize) -> Vec<String> {
        let mut texts: Vec<String> = (0..n.saturating_sub(1))
            .map(|i| {
                let k = i % self.regions.len();
                match i % 3 {
                    0 => format!("RETRIEVE o WHERE INSIDE(o, R{k})"),
                    1 => format!("RETRIEVE o WHERE Eventually within 40 INSIDE(o, R{k})"),
                    _ => format!("RETRIEVE o WHERE INSIDE(o, R{k}) AND o.PRICE <= 120"),
                }
            })
            .collect();
        if n > 0 {
            texts.push(beacon_cq());
        }
        texts
    }

    /// The region and shape of connection `conn`'s `i`-th query, and the
    /// generator positioned to draw the shape's constant.
    fn query_draw(&self, conn: u64, i: u64, shapes: &[Shape]) -> (usize, Shape, Rng) {
        let mut rng =
            Rng::seed_from_u64(self.seed ^ (conn << 56) ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let k = rng.below(self.regions.len() as u64) as usize;
        (k, shapes[i as usize % shapes.len()], rng)
    }

    /// The region the `i`-th query of connection `conn` names, if its
    /// shape names one.
    pub fn query_region(&self, conn: u64, i: u64, shapes: &[Shape]) -> Option<&Rect> {
        let (k, shape, _) = self.query_draw(conn, i, shapes);
        (shape != Shape::Attr).then(|| &self.regions[k])
    }

    /// The `i`-th `Instantaneous` query text of connection `conn`.
    pub fn query_text(&self, conn: u64, i: u64, shapes: &[Shape]) -> String {
        let (k, shape, mut rng) = self.query_draw(conn, i, shapes);
        match shape {
            Shape::Inside => format!("RETRIEVE o WHERE INSIDE(o, R{k})"),
            Shape::Attr => format!("RETRIEVE o WHERE o.PRICE <= {}", 40 + rng.below(3)),
            Shape::Eventually => format!("RETRIEVE o WHERE Eventually within 40 INSIDE(o, R{k})"),
            Shape::Conj => {
                format!(
                    "RETRIEVE o WHERE INSIDE(o, R{k}) AND o.PRICE <= {}",
                    100 + 20 * rng.below(3)
                )
            }
        }
    }

    /// The `i`-th read request of connection `conn`.  With `history`,
    /// every 20th request rotates through `Persistent`, `Alibi` and
    /// `Aggregate`; all others are `Instantaneous`.
    pub fn read_request(&self, conn: u64, i: u64, shapes: &[Shape], history: bool) -> Request {
        if history && i % 20 == 19 {
            let n = self.len() as u64;
            return match (i / 20) % 3 {
                0 => Request::Persistent {
                    query: self.query_text(conn, i, &[Shape::Conj]),
                    origin: 0,
                },
                // Every car has a leg from tick 0, so any pair has the two
                // samples an alibi needs once the clock has moved.
                1 => Request::Alibi {
                    a: 1 + i % n,
                    b: 1 + (i * 7 + 3) % n,
                    vmax: 3.0,
                    begin: 0,
                    end: 1 << 40,
                },
                _ => Request::Aggregate { begin: 0, end: 1 << 40, k: 3 },
            };
        }
        Request::Instantaneous { query: self.query_text(conn, i, shapes) }
    }
}

/// The beacon continuous query: empty unless a beacon car is priced up.
pub fn beacon_cq() -> String {
    format!("RETRIEVE o WHERE o.PRICE >= {BEACON_PRICE}")
}

fn rect_polygon(r: &Rect) -> Polygon {
    Polygon::rectangle(r.min_x, r.min_y, r.max_x, r.max_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use most_testkit::ser::to_json_string;

    #[test]
    fn same_seed_gives_identical_scripts() {
        let a = World::generate(7, 200, 4, 4);
        let b = World::generate(7, 200, 4, 4);
        let c = World::generate(8, 200, 4, 4);
        assert_eq!(a.database().fingerprint(), b.database().fingerprint());
        assert_ne!(a.database().fingerprint(), c.database().fingerprint());
        for k in 1..20 {
            assert_eq!(a.batch(k, 8), b.batch(k, 8));
            let ra = a.read_request(2, k, &ALL_SHAPES, true);
            assert_eq!(
                to_json_string(&ra).unwrap(),
                to_json_string(&b.read_request(2, k, &ALL_SHAPES, true)).unwrap()
            );
        }
        assert_ne!(a.batch(3, 8), c.batch(3, 8));
    }

    #[test]
    fn batches_stay_in_their_band_and_toggle_the_beacon() {
        let w = World::generate(1, 400, 2, 4);
        for k in 1..=8u64 {
            let ops = w.batch(k, 16);
            let band = &w.bands[((k - 1) % 4) as usize];
            assert_eq!(ops.len(), 17);
            for op in &ops {
                let id = match op {
                    UpdateOp::Motion { id, .. } | UpdateOp::Static { id, .. } => *id,
                    other => panic!("unexpected op {other:?}"),
                };
                assert!(band.contains(&id));
            }
            let UpdateOp::Static { value, .. } = &ops[16] else { panic!("beacon op is last") };
            let up = k <= 4;
            assert_eq!(*value, Value::from(if up { BEACON_PRICE } else { 50.0 }));
        }
    }

    #[test]
    fn sharded_world_mirrors_the_single_database() {
        let w = World::generate(3, 300, 4, 4);
        let db = w.database();
        let cut = w.sharded(4).pin();
        assert_eq!(cut.len(), db.len());
        let q = most_ftl::Query::parse(&w.query_text(2, 5, &[Shape::Conj])).unwrap();
        assert_eq!(
            to_json_string(&cut.instantaneous(&q).unwrap()).unwrap(),
            to_json_string(&db.instantaneous_readonly(&q).unwrap()).unwrap()
        );
    }
}
