//! 3×3 homogeneous transform matrices for the `Mutate` operation.
//!
//! The paper parameterizes `Mutate` with a matrix `(M11, …, M33)` "used to
//! change the locations of the pixels … rotations, scales, and translations
//! of items within an image". We use row-major homogeneous coordinates:
//!
//! ```text
//! [x']   [m11 m12 m13] [x]
//! [y'] = [m21 m22 m23] [y]
//! [1 ]   [m31 m32 m33] [1]
//! ```
//!
//! with affine transforms keeping the last row at `(0, 0, 1)`.

/// A row-major 3×3 matrix over `f64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Matrix3 {
    /// Rows of the matrix; `m[r][c]` is row `r`, column `c`.
    pub m: [[f64; 3]; 3],
}

impl Matrix3 {
    /// The identity transform.
    pub const IDENTITY: Matrix3 = Matrix3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Creates a matrix from rows.
    pub const fn new(m: [[f64; 3]; 3]) -> Self {
        Matrix3 { m }
    }

    /// Translation by `(dx, dy)`.
    pub fn translation(dx: f64, dy: f64) -> Self {
        Matrix3::new([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])
    }

    /// Axis-aligned scale by `(sx, sy)` about the origin.
    pub fn scale(sx: f64, sy: f64) -> Self {
        Matrix3::new([[sx, 0.0, 0.0], [0.0, sy, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Counter-clockwise rotation by `radians` about `(cx, cy)`.
    pub fn rotation_about(radians: f64, cx: f64, cy: f64) -> Self {
        let (s, c) = radians.sin_cos();
        // T(c) · R · T(-c)
        Matrix3::new([
            [c, -s, cx - c * cx + s * cy],
            [s, c, cy - s * cx - c * cy],
            [0.0, 0.0, 1.0],
        ])
    }

    /// Matrix product `self · rhs` (apply `rhs` first).
    pub fn compose(&self, rhs: &Matrix3) -> Matrix3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        Matrix3::new(out)
    }

    /// Applies the transform to a point (homogeneous divide included).
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        let xp = self.m[0][0] * x + self.m[0][1] * y + self.m[0][2];
        let yp = self.m[1][0] * x + self.m[1][1] * y + self.m[1][2];
        let w = self.m[2][0] * x + self.m[2][1] * y + self.m[2][2];
        if w == 0.0 || w == 1.0 {
            (xp, yp)
        } else {
            (xp / w, yp / w)
        }
    }

    /// Determinant of the upper-left 2×2 linear part — the local area scale
    /// factor of an affine transform.
    pub fn linear_det(&self) -> f64 {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// True when the transform is affine (last row `0 0 1`).
    pub fn is_affine(&self) -> bool {
        self.m[2] == [0.0, 0.0, 1.0]
    }

    /// True when the matrix is exactly the identity transform. Used by the
    /// static analyzer's dead-op pass: an identity `Mutate` stamps every DR
    /// pixel onto itself and leaves the raster unchanged.
    pub fn is_identity(&self) -> bool {
        *self == Matrix3::IDENTITY
    }

    /// True when the transform preserves area (|det| = 1) — the paper's
    /// "rigid body" rule condition, which also admits shears and reflections
    /// of unit determinant.
    pub fn is_area_preserving(&self) -> bool {
        self.is_affine() && (self.linear_det().abs() - 1.0).abs() < 1e-9
    }

    /// True when the transform is an axis-aligned scale plus translation
    /// (no rotation/shear terms) — the shape Table 1's whole-image rule
    /// (`multiply by M11·M22`) describes.
    pub fn is_axis_scale(&self) -> bool {
        self.is_affine()
            && self.m[0][1] == 0.0
            && self.m[1][0] == 0.0
            && self.m[0][0] > 0.0
            && self.m[1][1] > 0.0
    }

    /// Inverse of an affine transform, or `None` when singular.
    pub fn affine_inverse(&self) -> Option<Matrix3> {
        if !self.is_affine() {
            return None;
        }
        let det = self.linear_det();
        if det.abs() < 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        let a = self.m[0][0];
        let b = self.m[0][1];
        let tx = self.m[0][2];
        let c = self.m[1][0];
        let d = self.m[1][1];
        let ty = self.m[1][2];
        let ia = d * inv_det;
        let ib = -b * inv_det;
        let ic = -c * inv_det;
        let id = a * inv_det;
        Some(Matrix3::new([
            [ia, ib, -(ia * tx + ib * ty)],
            [ic, id, -(ic * tx + id * ty)],
            [0.0, 0.0, 1.0],
        ]))
    }

    /// Flat `(M11..M33)` parameter list in the paper's ordering.
    pub fn flatten(&self) -> [f64; 9] {
        [
            self.m[0][0],
            self.m[0][1],
            self.m[0][2],
            self.m[1][0],
            self.m[1][1],
            self.m[1][2],
            self.m[2][0],
            self.m[2][1],
            self.m[2][2],
        ]
    }

    /// Rebuilds a matrix from the flat `(M11..M33)` parameter list.
    pub fn from_flat(v: [f64; 9]) -> Self {
        Matrix3::new([[v[0], v[1], v[2]], [v[3], v[4], v[5]], [v[6], v[7], v[8]]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: (f64, f64), b: (f64, f64)) -> bool {
        (a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9
    }

    #[test]
    fn identity_is_noop() {
        assert!(close(Matrix3::IDENTITY.apply(3.5, -2.0), (3.5, -2.0)));
        assert!(Matrix3::IDENTITY.is_area_preserving());
        assert!(Matrix3::IDENTITY.is_axis_scale());
    }

    #[test]
    fn translation_moves() {
        let t = Matrix3::translation(5.0, -3.0);
        assert!(close(t.apply(1.0, 1.0), (6.0, -2.0)));
        assert!(t.is_area_preserving());
    }

    #[test]
    fn scale_scales_and_dets() {
        let s = Matrix3::scale(2.0, 3.0);
        assert!(close(s.apply(4.0, 5.0), (8.0, 15.0)));
        assert_eq!(s.linear_det(), 6.0);
        assert!(s.is_axis_scale());
        assert!(!s.is_area_preserving());
    }

    #[test]
    fn rotation_about_center_fixes_center() {
        let r = Matrix3::rotation_about(std::f64::consts::FRAC_PI_2, 10.0, 10.0);
        assert!(close(r.apply(10.0, 10.0), (10.0, 10.0)));
        // 90° CCW about (10,10): (11,10) → (10,11) in math orientation.
        let p = r.apply(11.0, 10.0);
        assert!(
            (p.0 - 10.0).abs() < 1e-9 && (p.1 - 11.0).abs() < 1e-9,
            "{p:?}"
        );
        assert!(r.is_area_preserving());
        assert!(!r.is_axis_scale());
    }

    #[test]
    fn compose_order() {
        // compose(T, S) applies S first.
        let t = Matrix3::translation(1.0, 0.0);
        let s = Matrix3::scale(2.0, 2.0);
        let ts = t.compose(&s);
        assert!(close(ts.apply(1.0, 1.0), (3.0, 2.0)));
        let st = s.compose(&t);
        assert!(close(st.apply(1.0, 1.0), (4.0, 2.0)));
    }

    #[test]
    fn inverse_roundtrip() {
        let m = Matrix3::rotation_about(0.7, 3.0, 4.0).compose(&Matrix3::scale(1.5, 0.5));
        let inv = m.affine_inverse().unwrap();
        let p = m.apply(7.0, -2.0);
        assert!(close(inv.apply(p.0, p.1), (7.0, -2.0)));
    }

    #[test]
    fn singular_has_no_inverse() {
        assert!(Matrix3::scale(0.0, 1.0).affine_inverse().is_none());
        // Non-affine (projective) matrices are rejected too.
        let mut proj = Matrix3::IDENTITY;
        proj.m[2] = [0.1, 0.0, 1.0];
        assert!(proj.affine_inverse().is_none());
    }

    #[test]
    fn flat_roundtrip() {
        let m = Matrix3::rotation_about(1.1, 2.0, 3.0);
        assert_eq!(Matrix3::from_flat(m.flatten()), m);
    }

    #[test]
    fn shear_of_unit_det_counts_as_area_preserving() {
        let shear = Matrix3::new([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(shear.is_area_preserving());
        assert!(!shear.is_axis_scale());
    }
}
