//! The hex codec for machine code: the BHive text format (two digits
//! per byte, no separators) that block inputs, rows and caches share.

/// Lowercase hex of `bytes`, two digits per byte.
#[must_use]
pub fn encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(2 * bytes.len());
    for b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

/// The bytes of a hex string, upper- or lowercase, in one allocation of
/// the exact size: `None` on odd length or a non-hex character. The empty string decodes to no bytes;
/// callers that need a block reject that themselves.
#[must_use]
pub fn decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(hex.len() / 2);
    for pair in hex.as_bytes().chunks_exact(2) {
        bytes.push(nibble(pair[0])? << 4 | nibble(pair[1])?);
    }
    Some(bytes)
}

fn nibble(digit: u8) -> Option<u8> {
    char::from(digit).to_digit(16).map(|d| d as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_malformed_hex() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&bytes)), Some(bytes.clone()));
        assert_eq!(decode(&encode(&bytes).to_uppercase()), Some(bytes));
        assert_eq!(decode(""), Some(Vec::new()));
        for bad in ["4", "4g", "+1", " 48", "é1", "48c"] {
            assert_eq!(decode(bad), None, "{bad:?}");
        }
    }
}
