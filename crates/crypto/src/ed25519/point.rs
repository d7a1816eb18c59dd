//! Edwards-curve point arithmetic for edwards25519 (RFC 8032 §5.1).
//!
//! Points use extended homogeneous coordinates `(X : Y : Z : T)` with
//! `x = X/Z`, `y = Y/Z`, `x*y = T/Z`. The unified addition formula is
//! complete on this curve, so doubling is just `add(p, p)`.

use super::field::{sqrt, Fe};
use super::scalar::Scalar;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The curve constant `d = -121665/121666 mod p`.
pub fn curve_d() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(Fe::from_u64(121666).invert())
    })
}

fn curve_2d() -> Fe {
    static CELL: OnceLock<Fe> = OnceLock::new();
    *CELL.get_or_init(|| curve_d().add(curve_d()))
}

/// The standard base point `B` with `y = 4/5` and even `x`.
pub fn base_point() -> Point {
    static CELL: OnceLock<Point> = OnceLock::new();
    *CELL.get_or_init(|| {
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let x = recover_x(y, false).expect("base point x must exist");
        Point::from_affine(x, y)
    })
}

/// Recovers the x coordinate from y and the sign bit, if the point exists.
fn recover_x(y: Fe, x_is_odd: bool) -> Option<Fe> {
    // x^2 = (y^2 - 1) / (d*y^2 + 1)
    let yy = y.square();
    let u = yy.sub(Fe::ONE);
    let v = curve_d().mul(yy).add(Fe::ONE);
    let xx = u.mul(v.invert());
    let mut x = sqrt(xx)?;
    if x.is_zero() && x_is_odd {
        return None; // sign bit set on x = 0 is invalid
    }
    if x.is_odd() != x_is_odd {
        x = x.neg();
    }
    Some(x)
}

impl Point {
    /// The identity element (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// Builds a point from affine coordinates (assumed on the curve).
    pub fn from_affine(x: Fe, y: Fe) -> Point {
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        }
    }

    /// Unified point addition (complete for edwards25519).
    pub fn add(&self, other: &Point) -> Point {
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(curve_2d()).mul(other.t);
        let d = self.z.add(self.z).mul(other.z);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            t: e.mul(h),
            z: f.mul(g),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        self.add(self)
    }

    /// Point negation.
    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by double-and-add (not constant time; see the
    /// crate-level note on side channels).
    pub fn mul_scalar(&self, scalar: &Scalar) -> Point {
        let mut result = Point::identity();
        let mut acc = *self;
        for bit in scalar.bits_le() {
            if bit {
                result = result.add(&acc);
            }
            acc = acc.double();
        }
        result
    }

    /// Compresses to the 32-byte RFC 8032 encoding.
    pub fn compress(&self) -> [u8; 32] {
        let z_inv = self.z.invert();
        let x = self.x.mul(z_inv);
        let y = self.y.mul(z_inv);
        let mut bytes = y.to_bytes();
        if x.is_odd() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Decompresses an encoded point, validating it lies on the curve.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let x_is_odd = bytes[31] & 0x80 != 0;
        let y = Fe::from_bytes(bytes);
        // Reject non-canonical y encodings (y >= p): round-trip check.
        let mut canonical = y.to_bytes();
        canonical[31] |= (x_is_odd as u8) << 7;
        if &canonical != bytes {
            return None;
        }
        let x = recover_x(y, x_is_odd)?;
        Some(Point::from_affine(x, y))
    }

    /// True if this is the identity element.
    pub fn is_identity(&self) -> bool {
        // x == 0 and y == z
        self.x.is_zero() && self.y == self.z
    }

    /// Multiplies by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> Point {
        self.double().double().double()
    }
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) and (Y1/Z1 == Y2/Z2), cross-multiplied.
        self.x.mul(other.z) == other.x.mul(self.z) && self.y.mul(other.z) == other.y.mul(self.z)
    }
}

impl Eq for Point {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_point_on_curve() {
        // -x^2 + y^2 = 1 + d*x^2*y^2
        let b = base_point();
        let x2 = b.x.square();
        let y2 = b.y.square();
        let lhs = y2.sub(x2);
        let rhs = Fe::ONE.add(curve_d().mul(x2).mul(y2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn base_point_encoding_is_canonical() {
        // The standard encoding of B is 0x58666666...66 (y = 4/5).
        let enc = base_point().compress();
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn add_identity() {
        let b = base_point();
        assert_eq!(b.add(&Point::identity()), b);
        assert_eq!(Point::identity().add(&b), b);
    }

    #[test]
    fn add_inverse_gives_identity() {
        let b = base_point();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = base_point();
        assert_eq!(b.double(), b.add(&b));
    }

    #[test]
    fn scalar_mul_small() {
        let b = base_point();
        let three = Scalar([3, 0, 0, 0]);
        assert_eq!(b.mul_scalar(&three), b.add(&b).add(&b));
        assert_eq!(b.mul_scalar(&Scalar::ZERO), Point::identity());
        assert_eq!(b.mul_scalar(&Scalar::ONE), b);
    }

    #[test]
    fn order_of_base_point() {
        // l * B == identity.
        let l_minus_1 = {
            // l - 1 via scalar: 0 - 1 mod l
            let zero = Scalar::ZERO;
            let one = Scalar::ONE;
            // additive inverse: l - 1 = 0 + (l-1); compute as mul by (l-1)?
            // Easier: (l-1)*B = -B, so l*B = identity.
            let mut words = *super::super::scalar::group_order();
            // (path: crate::ed25519::scalar)
            words[0] -= 1;
            let _ = (zero, one);
            Scalar(words)
        };
        let b = base_point();
        assert_eq!(b.mul_scalar(&l_minus_1), b.neg());
        assert!(b.mul_scalar(&l_minus_1).add(&b).is_identity());
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let p = base_point().mul_scalar(&Scalar([123456789, 42, 0, 0]));
        let enc = p.compress();
        let q = Point::decompress(&enc).expect("valid encoding");
        assert_eq!(p, q);
        assert_eq!(q.compress(), enc);
    }

    #[test]
    fn decompress_rejects_invalid() {
        // A y with no corresponding x: search a few candidates.
        let mut found_invalid = false;
        for candidate in 2u8..50 {
            let mut bytes = [0u8; 32];
            bytes[0] = candidate;
            if Point::decompress(&bytes).is_none() {
                found_invalid = true;
                break;
            }
        }
        assert!(found_invalid, "expected at least one invalid encoding");
    }

    #[test]
    fn decompress_rejects_noncanonical() {
        // p + 1 encodes y = 1 non-canonically.
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xee; // p + 1 = 2^255 - 18
        bytes[31] = 0x7f;
        assert!(Point::decompress(&bytes).is_none());
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = base_point();
        let a = Scalar([5, 0, 0, 0]);
        let c = Scalar([7, 0, 0, 0]);
        let sum = a.add(c);
        assert_eq!(b.mul_scalar(&sum), b.mul_scalar(&a).add(&b.mul_scalar(&c)));
    }
}
