//! Deterministic dataset builders: every image and edit sequence is a pure
//! function of `--seed`, generated before the ingest clock starts.
//!
//! Two datasets exist (see `benchmark/README.md` for why):
//!
//! * `selective` — 48×32 flags carrying a random emblem, each with four
//!   two-operation (`Define` + `Modify`) variants over a small region, so
//!   every bound interval is tight and a narrow range window returns tens of
//!   ids out of tens of thousands.
//! * `paper` — the same flags with four default-[`VariantConfig`] variants
//!   (3–7 operations, 25 % with a `Merge` target), the paper's Figure 3/4
//!   setting. Merge targets come from a pool capped at [`MERGE_POOL`] bases.

use crate::rng::Rng;
use crate::spec::{Dataset, VARIANTS_PER_BASE};
use mmdbms::datagen::edits::TargetInfo;
use mmdbms::datagen::flags::FlagGenerator;
use mmdbms::datagen::palette::FLAG_COLORS;
use mmdbms::datagen::{VariantConfig, VariantGenerator};
use mmdbms::editops::{EditOp, EditSequence, ImageId};
use mmdbms::imaging::{draw, RasterImage, Rect, Rgb};
use mmdbms::MultimediaDatabase;

pub const WIDTH: u32 = 48;
pub const HEIGHT: u32 = 32;

/// `insert_image_with_augmentation` offers every binary image as a merge
/// target and rescans the catalog per call — quadratic at this size — so the
/// pool is the most recent bases, capped.
const MERGE_POOL: usize = 64;

/// One base image and the operation lists of its variants. The sequences
/// are bound to the base's id at ingest time, because a sharded database
/// allocates ids per shard.
pub struct Unit {
    pub image: RasterImage,
    pub variants: Vec<Vec<EditOp>>,
}

/// Flag `index` of the seeded collection plus a rectangular emblem. Flag
/// layouts have a handful of exact color fractions (½, ⅓, …); the emblem
/// smears them so interval endpoints spread over the whole unit range and a
/// range window's selectivity does not depend on hitting a cluster.
pub fn base_image(flags: &FlagGenerator, rng: &mut Rng, index: u64) -> RasterImage {
    let mut img = flags.generate(index);
    let w = 2 + rng.below(19) as i64;
    let h = 2 + rng.below(13) as i64;
    let x = rng.below((WIDTH as i64 - w) as u64 + 1) as i64;
    let y = rng.below((HEIGHT as i64 - h) as u64 + 1) as i64;
    let color = FLAG_COLORS[rng.below(FLAG_COLORS.len() as u64) as usize];
    draw::fill_rect(&mut img, &Rect::from_origin_size(x, y, w, h), color);
    img
}

/// A `Define` over a region of at most 6×4 pixels followed by a `Modify` of
/// a color present in the base: the two touched bins get bounds at most
/// 24/1536 wide, every other bin stays exact.
pub fn selective_variant(rng: &mut Rng, base: &RasterImage) -> Vec<EditOp> {
    let w = 1 + rng.below(6) as i64;
    let h = 1 + rng.below(4) as i64;
    let x = rng.below((WIDTH as i64 - w) as u64 + 1) as i64;
    let y = rng.below((HEIGHT as i64 - h) as u64 + 1) as i64;
    let from = base.get(
        rng.below(WIDTH as u64) as u32,
        rng.below(HEIGHT as u64) as u32,
    );
    let to = other_color(rng, from);
    vec![
        EditOp::Define {
            region: Rect::from_origin_size(x, y, w, h),
        },
        EditOp::Modify { from, to },
    ]
}

fn other_color(rng: &mut Rng, not: Rgb) -> Rgb {
    loop {
        let c = FLAG_COLORS[rng.below(FLAG_COLORS.len() as u64) as usize];
        if c != not {
            return c;
        }
    }
}

/// Generates `bases` units of `dataset`, starting at flag `first_index`
/// (the churn workload draws its fresh images from indexes past the
/// catalog's). `paper` sequences carry predicted ids — valid only for
/// in-order ingest into an empty single-shard database, which
/// [`ingest_unit`] asserts.
pub fn generate(dataset: Dataset, seed: u64, first_index: u64, bases: usize) -> Vec<Unit> {
    let flags = FlagGenerator::new(seed, WIDTH, HEIGHT);
    let mut units = Vec::with_capacity(bases);
    match dataset {
        Dataset::Selective => {
            for i in 0..bases as u64 {
                let index = first_index + i;
                let mut rng = Rng::fork(seed, 0x5E1E_0000 + index);
                let image = base_image(&flags, &mut rng, index);
                let variants = (0..VARIANTS_PER_BASE)
                    .map(|_| selective_variant(&mut rng, &image))
                    .collect();
                units.push(Unit { image, variants });
            }
        }
        Dataset::Paper => {
            assert_eq!(
                first_index, 0,
                "paper ids are predicted from an empty database"
            );
            let mut variants = VariantGenerator::new(
                seed ^ 0xA5A5,
                VariantConfig::default(),
                FLAG_COLORS.to_vec(),
            );
            let mut pool: Vec<TargetInfo> = Vec::with_capacity(MERGE_POOL);
            for index in 0..bases as u64 {
                let mut rng = Rng::fork(seed, 0x9A9E_0000 + index);
                let image = base_image(&flags, &mut rng, index);
                let id = predicted_paper_base(index as usize);
                let ops = (0..VARIANTS_PER_BASE)
                    .map(|_| variants.generate(id, &image, &pool).ops)
                    .collect();
                if pool.len() == MERGE_POOL {
                    pool.remove(0);
                }
                pool.push(TargetInfo {
                    id,
                    width: WIDTH,
                    height: HEIGHT,
                });
                units.push(Unit {
                    image,
                    variants: ops,
                });
            }
        }
    }
    units
}

/// The id [`generate`] assumed for `paper` base `index`.
pub fn predicted_paper_base(index: usize) -> ImageId {
    ImageId::new(1 + index as u64 * (1 + VARIANTS_PER_BASE as u64))
}

/// Inserts one unit through the facade — base first, then its variants —
/// and returns the ids in insertion order.
pub fn ingest_unit(
    db: &MultimediaDatabase,
    unit: &Unit,
    predicted_base: Option<ImageId>,
) -> Result<Vec<ImageId>, String> {
    let mut ids = Vec::with_capacity(1 + unit.variants.len());
    let base = db.insert_image(&unit.image).map_err(|e| e.to_string())?;
    if predicted_base.is_some_and(|p| p != base) {
        return Err(format!(
            "sequences were generated for base id {predicted_base:?}, the database allocated {base}"
        ));
    }
    ids.push(base);
    for ops in &unit.variants {
        let seq = EditSequence::new(base, ops.clone());
        ids.push(db.insert_edited(seq).map_err(|e| e.to_string())?);
    }
    Ok(ids)
}
