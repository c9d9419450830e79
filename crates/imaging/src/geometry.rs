//! Integer geometry: points and axis-aligned rectangles.
//!
//! Rectangles are the canonical shape of the paper's *Defined Region* (the
//! `Define` operation takes "the coordinates of the desired group of pixels"),
//! and also back the drawing primitives in [`crate::draw`].

/// An integer pixel coordinate. `x` is the column, `y` the row; the origin is
/// the top-left corner of an image. Coordinates are signed so that geometry
/// produced by `Mutate` transforms can temporarily leave image bounds before
/// being clipped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// Column.
    pub x: i64,
    /// Row.
    pub y: i64,
}

impl Point {
    /// Creates a point.
    #[inline]
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }
}

/// A half-open axis-aligned rectangle: pixels with `x0 <= x < x1` and
/// `y0 <= y < y1`. An empty rectangle has `x1 <= x0` or `y1 <= y0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Inclusive left edge.
    pub x0: i64,
    /// Inclusive top edge.
    pub y0: i64,
    /// Exclusive right edge.
    pub x1: i64,
    /// Exclusive bottom edge.
    pub y1: i64,
}

impl Rect {
    /// The canonical empty rectangle.
    pub const EMPTY: Rect = Rect {
        x0: 0,
        y0: 0,
        x1: 0,
        y1: 0,
    };

    /// Creates a rectangle from edges. Edges are not reordered; a rectangle
    /// with `x1 <= x0` is simply empty.
    #[inline]
    pub const fn new(x0: i64, y0: i64, x1: i64, y1: i64) -> Self {
        Rect { x0, y0, x1, y1 }
    }

    /// Creates a rectangle from an origin and a size.
    #[inline]
    pub const fn from_origin_size(x: i64, y: i64, w: i64, h: i64) -> Self {
        Rect::new(x, y, x + w, y + h)
    }

    /// Rectangle covering an entire `w`×`h` image.
    #[inline]
    pub const fn of_image(w: u32, h: u32) -> Self {
        Rect::new(0, 0, w as i64, h as i64)
    }

    /// Width (zero if empty).
    #[inline]
    pub fn width(&self) -> i64 {
        (self.x1 - self.x0).max(0)
    }

    /// Height (zero if empty).
    #[inline]
    pub fn height(&self) -> i64 {
        (self.y1 - self.y0).max(0)
    }

    /// Number of pixels covered, saturating at `u64::MAX`.
    #[inline]
    pub fn area(&self) -> u64 {
        (self.width() as u64).saturating_mul(self.height() as u64)
    }

    /// True when the rectangle covers no pixel.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x1 <= self.x0 || self.y1 <= self.y0
    }

    /// True when `(x, y)` lies inside.
    #[inline]
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }

    /// True when `other` is fully inside `self`. An empty `other` is
    /// contained in everything.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (other.x0 >= self.x0
                && other.x1 <= self.x1
                && other.y0 >= self.y0
                && other.y1 <= self.y1)
    }

    /// Intersection (empty if disjoint).
    #[inline]
    pub fn intersect(&self, other: &Rect) -> Rect {
        let r = Rect::new(
            self.x0.max(other.x0),
            self.y0.max(other.y0),
            self.x1.min(other.x1),
            self.y1.min(other.y1),
        );
        if r.is_empty() {
            Rect::EMPTY
        } else {
            r
        }
    }

    /// Smallest rectangle covering both (empty inputs are ignored).
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect::new(
            self.x0.min(other.x0),
            self.y0.min(other.y0),
            self.x1.max(other.x1),
            self.y1.max(other.y1),
        )
    }

    /// Translates by `(dx, dy)`.
    #[inline]
    pub fn translate(&self, dx: i64, dy: i64) -> Rect {
        Rect::new(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)
    }

    /// Iterates over every `(x, y)` pixel coordinate in row-major order.
    pub fn pixels(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let r = *self;
        (r.y0..r.y1.max(r.y0)).flat_map(move |y| (r.x0..r.x1.max(r.x0)).map(move |x| (x, y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_and_emptiness() {
        let r = Rect::new(2, 3, 5, 7);
        assert_eq!(r.width(), 3);
        assert_eq!(r.height(), 4);
        assert_eq!(r.area(), 12);
        assert!(!r.is_empty());
        assert!(Rect::new(5, 3, 2, 7).is_empty());
        assert_eq!(Rect::new(5, 3, 2, 7).area(), 0);
        assert!(Rect::EMPTY.is_empty());
    }

    #[test]
    fn area_saturates() {
        let square = Rect::from_origin_size(1 << 33, 1 << 33, 1 << 33, 1 << 33);
        assert_eq!(square.area(), u64::MAX);
        assert_eq!(Rect::new(0, 0, 1 << 32, 1 << 31).area(), 1 << 63);
    }

    #[test]
    fn containment() {
        let r = Rect::new(0, 0, 10, 10);
        assert!(r.contains(0, 0));
        assert!(r.contains(9, 9));
        assert!(!r.contains(10, 0));
        assert!(!r.contains(0, -1));
        assert!(r.contains_rect(&Rect::new(2, 2, 8, 8)));
        assert!(r.contains_rect(&r));
        assert!(!r.contains_rect(&Rect::new(2, 2, 11, 8)));
        assert!(r.contains_rect(&Rect::EMPTY));
    }

    #[test]
    fn intersect_union() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 15, 15);
        assert_eq!(a.intersect(&b), Rect::new(5, 5, 10, 10));
        assert_eq!(a.union(&b), Rect::new(0, 0, 15, 15));
        let disjoint = Rect::new(20, 20, 30, 30);
        assert!(a.intersect(&disjoint).is_empty());
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert_eq!(Rect::EMPTY.union(&a), a);
    }

    #[test]
    fn translate_moves_all_edges() {
        let r = Rect::new(1, 2, 3, 4).translate(10, -2);
        assert_eq!(r, Rect::new(11, 0, 13, 2));
    }

    #[test]
    fn pixels_iterates_row_major() {
        let r = Rect::new(1, 1, 3, 3);
        let pts: Vec<_> = r.pixels().collect();
        assert_eq!(pts, vec![(1, 1), (2, 1), (1, 2), (2, 2)]);
        assert_eq!(Rect::EMPTY.pixels().count(), 0);
        // degenerate negative-extent rect yields nothing
        assert_eq!(Rect::new(3, 3, 1, 1).pixels().count(), 0);
    }

    #[test]
    fn of_image_covers_all() {
        let r = Rect::of_image(4, 3);
        assert_eq!(r.area(), 12);
        assert!(r.contains(3, 2));
        assert!(!r.contains(4, 2));
    }
}
