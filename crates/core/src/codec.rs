//! Payload marshalling helpers.
//!
//! The benchmark applications ship matrices, image tiles, and complex
//! signal vectors. These helpers convert between typed slices and the byte
//! payloads NCS and p4 carry, with explicit little-endian layout so results
//! are platform-independent.

use bytes::Bytes;

/// Serializes a slice of `f64` (little-endian).
pub fn f64s_to_bytes(xs: &[f64]) -> Bytes {
    let mut v = Vec::with_capacity(xs.len() * 8);
    for x in xs {
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// Deserializes a slice of `f64`. Panics if the length is not a multiple
/// of 8.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    assert!(
        b.len().is_multiple_of(8),
        "not an f64 array: {} bytes",
        b.len()
    );
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Serializes `(re, im)` pairs.
pub fn complex_to_bytes(xs: &[(f64, f64)]) -> Bytes {
    let mut v = Vec::with_capacity(xs.len() * 16);
    for (re, im) in xs {
        v.extend_from_slice(&re.to_le_bytes());
        v.extend_from_slice(&im.to_le_bytes());
    }
    Bytes::from(v)
}

/// Deserializes `(re, im)` pairs.
pub fn bytes_to_complex(b: &[u8]) -> Vec<(f64, f64)> {
    assert!(
        b.len().is_multiple_of(16),
        "not a complex array: {} bytes",
        b.len()
    );
    b.chunks_exact(16)
        .map(|c| {
            (
                f64::from_le_bytes(c[..8].try_into().unwrap()),
                f64::from_le_bytes(c[8..].try_into().unwrap()),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let xs = vec![0.0, -1.5, 3.25e300, f64::MIN_POSITIVE, 42.0];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&xs)), xs);
    }

    #[test]
    fn f64_empty() {
        assert!(bytes_to_f64s(&f64s_to_bytes(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "not an f64 array")]
    fn f64_bad_length() {
        bytes_to_f64s(&[1, 2, 3]);
    }

    #[test]
    fn complex_roundtrip() {
        let xs = vec![(1.0, -2.0), (0.5, 0.25), (-0.0, 1e-300)];
        assert_eq!(bytes_to_complex(&complex_to_bytes(&xs)), xs);
    }
}
