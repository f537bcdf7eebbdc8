//! Seeded input generation. Everything the program receives is made
//! here from the workload seed, with a generator owned by the benchmark
//! (not the repository's data crate), so the inputs stay fixed when the
//! program changes.

use pr_geom::{Item, Point, Rect};

/// SplitMix64: tiny, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose (`tag`) of one seed, so that adding a
    /// stream never shifts the values of another.
    pub fn new(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 finaliser, also the id hash of the answer checks.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SIZE(max_side): side lengths uniform in `[0, max_side)`, placed
/// uniformly so the rectangle lies inside the unit square.
pub fn size_rects(n: usize, max_side: f64, first_id: u32, rng: &mut Rng) -> Vec<Item<2>> {
    (0..n)
        .map(|i| {
            let w = rng.unit() * max_side;
            let h = rng.unit() * max_side;
            let x = rng.unit() * (1.0 - w);
            let y = rng.unit() * (1.0 - h);
            Item::new(Rect::xyxy(x, y, x + w, y + h), first_id + i as u32)
        })
        .collect()
}

/// Uniform points in the unit square, ids `first_id..`.
pub fn points(n: usize, first_id: u32, rng: &mut Rng) -> Vec<Item<2>> {
    (0..n)
        .map(|i| {
            let (x, y) = (rng.unit(), rng.unit());
            Item::new(Rect::xyxy(x, y, x, y), first_id + i as u32)
        })
        .collect()
}

/// Square windows covering `area` of the unit square, inside it.
pub fn windows(n: usize, area: f64, rng: &mut Rng) -> Vec<Rect<2>> {
    let side = area.sqrt();
    (0..n)
        .map(|_| {
            let x = rng.unit() * (1.0 - side);
            let y = rng.unit() * (1.0 - side);
            Rect::xyxy(x, y, x + side, y + side)
        })
        .collect()
}

pub fn query_points(n: usize, rng: &mut Rng) -> Vec<Point<2>> {
    (0..n)
        .map(|_| Point::new([rng.unit(), rng.unit()]))
        .collect()
}

/// Serialises generated inputs (little-endian bit patterns) so the
/// self-test can compare them byte for byte across runs.
#[derive(Default)]
pub struct InputDump(Vec<u8>);

impl InputDump {
    pub fn items(&mut self, items: &[Item<2>]) {
        for it in items {
            self.0.extend_from_slice(&it.id.to_le_bytes());
            self.rect(&it.rect);
        }
    }

    pub fn rects(&mut self, rects: &[Rect<2>]) {
        for r in rects {
            self.rect(r);
        }
    }

    pub fn points(&mut self, points: &[Point<2>]) {
        for p in points {
            for c in p.coords() {
                self.0.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
    }

    fn rect(&mut self, r: &Rect<2>) {
        for d in 0..2 {
            self.0
                .extend_from_slice(&r.lo_at(d).to_bits().to_le_bytes());
            self.0
                .extend_from_slice(&r.hi_at(d).to_bits().to_le_bytes());
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}
