//! Golden page images of fixed PR-tree builds.
//!
//! Each case bulk-loads a fixed input onto a fresh `MemDevice` and hashes
//! every page the build wrote, in page-id order, together with the root
//! page and height. The constants were computed from the Vec-peeling
//! grouping the loaders used before the in-place kernel; any change to
//! groups, group order, entry order within a page, page ids or page
//! bytes changes a hash. Inputs come from a local generator so they do
//! not move when `pr-data` does.

use pr_em::{BlockDevice, MemDevice, Stream};
use pr_geom::{Item, Rect};
use pr_tree::bulk::external::ExternalConfig;
use pr_tree::bulk::pr::PrTreeLoader;
use pr_tree::bulk::pr_external::PrExternalLoader;
use pr_tree::bulk::pr_parallel::ParallelPrLoader;
use pr_tree::bulk::BulkLoader;
use pr_tree::{Entry, RTree, TreeParams};
use std::sync::Arc;

/// SplitMix64: a fixed, dependency-free input generator.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn points_2d(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut g = Gen(seed);
    (0..n)
        .map(|id| {
            let (x, y) = (g.unit(), g.unit());
            Item::new(Rect::xyxy(x, y, x, y), id)
        })
        .collect()
}

fn rects_2d(n: u32, seed: u64) -> Vec<Item<2>> {
    let mut g = Gen(seed);
    (0..n)
        .map(|id| {
            let (x, y) = (g.unit(), g.unit());
            let (w, h) = (0.02 * g.unit(), 0.02 * g.unit());
            Item::new(Rect::xyxy(x, y, x + w, y + h), id)
        })
        .collect()
}

fn rects_3d(n: u32, seed: u64) -> Vec<Item<3>> {
    let mut g = Gen(seed);
    (0..n)
        .map(|id| {
            let lo = [g.unit(), g.unit(), g.unit()];
            let hi = [
                lo[0] + 0.05 * g.unit(),
                lo[1] + 0.05 * g.unit(),
                lo[2] + 0.05 * g.unit(),
            ];
            Item::new(Rect::new(lo, hi), id)
        })
        .collect()
}

/// A `side`³ lattice of points, `copies` coincident items per site with
/// distinct ids, and a bit-identical twin (same rectangle, same id) of
/// every third site's last item.
fn twins_3d(side: u32, copies: u32) -> Vec<Item<3>> {
    let mut items = Vec::new();
    let mut id = 0u32;
    for site in 0..side.pow(3) {
        let c = [
            (site % side) as f64,
            (site / side % side) as f64,
            (site / side / side) as f64,
        ];
        for _ in 0..copies {
            items.push(Item::new(Rect::new(c, c), id));
            id += 1;
        }
        if site % 3 == 0 {
            items.push(Item::new(Rect::new(c, c), id - 1));
        }
    }
    items
}

/// FNV-1a over the root page, the height and every page of the tree in
/// page-id order (with its id). The external loader also leaves freed
/// sort scratch on its device, so pages are found by walking the tree.
fn page_image_hash<const D: usize>(dev: &dyn BlockDevice, tree: &RTree<D>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    feed(&tree.root().to_le_bytes());
    feed(&[tree.height() as u8]);
    let mut pages = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(page) = stack.pop() {
        pages.push(page);
        let (node, _) = tree.read_node(page).expect("read node");
        if !node.is_leaf() {
            stack.extend(node.entries.iter().map(|e| e.ptr as u64));
        }
    }
    pages.sort_unstable();
    let mut buf = vec![0u8; dev.block_size()];
    for page in pages {
        dev.read_block(page, &mut buf).expect("read page");
        feed(&page.to_le_bytes());
        feed(&buf);
    }
    h
}

fn build_hash<const D: usize>(
    loader: &dyn BulkLoader<D>,
    params: TreeParams,
    items: Vec<Item<D>>,
) -> u64 {
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let tree = loader
        .load(Arc::clone(&dev), params, items)
        .expect("bulk load");
    page_image_hash(dev.as_ref(), &tree)
}

/// Compares every case before failing, so one run reports all of them.
fn assert_hashes(cases: &[(&str, u64, u64)]) {
    let bad: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, want {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "page images changed:\n{}", bad.join("\n"));
}

#[test]
fn pr_points_2d_page_images() {
    let pr = PrTreeLoader::default();
    assert_hashes(&[
        (
            "points, B=113",
            build_hash(&pr, TreeParams::paper_2d(), points_2d(40_000, 1)),
            0x0ce488032cd0625a,
        ),
        (
            "points, B=8",
            build_hash(&pr, TreeParams::with_cap::<2>(8), points_2d(6_000, 2)),
            0x68fc2c8e0aa57d5a,
        ),
    ]);
}

#[test]
fn pr_rects_2d_page_images() {
    let pr = PrTreeLoader::default();
    assert_hashes(&[(
        "rects, B=16",
        build_hash(&pr, TreeParams::with_cap::<2>(16), rects_2d(20_000, 3)),
        0x0f2b1f043e829885,
    )]);
}

#[test]
fn pr_3d_page_images() {
    let pr = PrTreeLoader::default();
    assert_hashes(&[(
        "3-D rects, B=8",
        build_hash(&pr, TreeParams::with_cap::<3>(8), rects_3d(8_000, 4)),
        0x2d8f326dc48a43ee,
    )]);
}

#[test]
fn pr_bit_identical_twins_page_images() {
    let pr = PrTreeLoader::default();
    assert_hashes(&[(
        "3-D twins, B=8",
        build_hash(&pr, TreeParams::with_cap::<3>(8), twins_3d(6, 3)),
        0x33fe4adc5e18a9ce,
    )]);
}

#[test]
fn pr_ablation_page_images() {
    let params = TreeParams::with_cap::<2>(8);
    let loader = |priority_size, snap_splits| PrTreeLoader {
        priority_size,
        snap_splits,
    };
    assert_hashes(&[
        (
            "priority_size=1",
            build_hash(&loader(Some(1), true), params, rects_2d(5_000, 5)),
            0x89944b203322e767,
        ),
        (
            "priority_size=3",
            build_hash(&loader(Some(3), true), params, rects_2d(5_000, 5)),
            0x25e65fe267dacab1,
        ),
        (
            "snap_splits=false",
            build_hash(&loader(None, false), params, rects_2d(5_000, 5)),
            0x7058d942175dae83,
        ),
        (
            "priority_size=2, snap_splits=false",
            build_hash(&loader(Some(2), false), params, points_2d(5_000, 6)),
            0xa1d9de421dba1819,
        ),
    ]);
}

#[test]
fn parallel_pr_page_images() {
    let params = TreeParams::with_cap::<2>(16);
    let loader = |threads| ParallelPrLoader {
        inner: PrTreeLoader::default(),
        threads,
    };
    assert_hashes(&[
        (
            "parallel, 2 threads",
            build_hash(&loader(2), params, rects_2d(30_000, 7)),
            0x31f1130c39e8b7e3,
        ),
        (
            "parallel, 4 threads",
            build_hash(&loader(4), params, rects_2d(30_000, 7)),
            0xbb46366647c4cc83,
        ),
    ]);
}

#[test]
fn external_pr_page_images() {
    // A budget of 40 pages forces external kd levels above an in-memory
    // base case that resumes the axis cycle mid-recursion.
    let params = TreeParams::with_cap::<2>(16);
    let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new(params.page_size));
    let input = Stream::from_iter(
        dev.as_ref(),
        rects_2d(6_000, 8).into_iter().map(Entry::from_item),
    )
    .expect("input stream");
    let loader = PrExternalLoader::new(ExternalConfig::with_memory(40 * params.page_size));
    let tree = loader
        .load::<2>(Arc::clone(&dev), params, &input)
        .expect("external load");
    assert_hashes(&[(
        "external",
        page_image_hash(dev.as_ref(), &tree),
        0x5347c7452e3ac135,
    )]);
}
