//! A dependency-free binary codec for checkpoints.
//!
//! Checkpointing is a core deliverable of this crate: a
//! [`crate::Checkpoint`] must survive a trip through bytes and resume
//! bit-identically. This module provides that trip by
//! hand: a small length-prefixed little-endian format with explicit enum
//! tags. Every engine state type implements [`Codec`]; behaviors that
//! want byte-level checkpoints implement it too (a handful of lines —
//! see the crate examples).
//!
//! The format is versioned through the checkpoint header, not
//! self-describing; decoding with a mismatched build is detected by the
//! header magic and version, not guessed at.

use std::fmt;

use decay_core::NodeId;
use decay_netsim::{FaultPlan, Outage, ReceptionModel};
use decay_sinr::SinrParams;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-value.
    UnexpectedEof,
    /// An enum tag byte was out of range.
    InvalidTag {
        /// The offending tag.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A decoded value violated an invariant.
    Invalid(&'static str),
    /// Trailing bytes after a complete value.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::InvalidTag { tag, ty } => write!(f, "invalid tag {tag} for {ty}"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary encoding/decoding of one value.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Reads `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

impl Codec for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(input, 1)?[0])
    }
}

impl Codec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u32::from_le_bytes(take(input, 4)?.try_into().unwrap()))
    }
}

impl Codec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u64::from_le_bytes(take(input, 8)?.try_into().unwrap()))
    }
}

impl Codec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(input)?).map_err(|_| CodecError::Invalid("usize overflow"))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::InvalidTag { tag, ty: "bool" }),
        }
    }
}

impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::decode(input)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        // Guard against absurd lengths from corrupt input: each element
        // costs at least one byte.
        if len > input.len() {
            return Err(CodecError::UnexpectedEof);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            tag => Err(CodecError::InvalidTag { tag, ty: "Option" }),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl Codec for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(NodeId::new(usize::decode(input)?))
    }
}

impl Codec for SinrParams {
    fn encode(&self, out: &mut Vec<u8>) {
        self.beta().encode(out);
        self.noise().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let beta = f64::decode(input)?;
        let noise = f64::decode(input)?;
        SinrParams::new(beta, noise).map_err(|_| CodecError::Invalid("SinrParams"))
    }
}

impl Codec for ReceptionModel {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ReceptionModel::Threshold => 0,
            ReceptionModel::Rayleigh => 1,
        });
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(ReceptionModel::Threshold),
            1 => Ok(ReceptionModel::Rayleigh),
            tag => Err(CodecError::InvalidTag {
                tag,
                ty: "ReceptionModel",
            }),
        }
    }
}

impl Codec for Outage {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.from_slot.encode(out);
        self.until_slot.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Outage {
            node: NodeId::decode(input)?,
            from_slot: usize::decode(input)?,
            until_slot: usize::decode(input)?,
        })
    }
}

impl Codec for FaultPlan {
    fn encode(&self, out: &mut Vec<u8>) {
        self.outages().to_vec().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(FaultPlan::new(Vec::<Outage>::decode(input)?))
    }
}

/// Encodes a value to a standalone byte vector.
pub fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a standalone byte vector, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated, malformed, or over-long input.
pub fn from_bytes<T: Codec>(mut input: &[u8]) -> Result<T, CodecError> {
    let value = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        42u64.encode(&mut out);
        (-0.5f64).encode(&mut out);
        true.encode(&mut out);
        Some(NodeId::new(7)).encode(&mut out);
        let mut input = out.as_slice();
        assert_eq!(u64::decode(&mut input).unwrap(), 42);
        assert_eq!(f64::decode(&mut input).unwrap(), -0.5);
        assert!(bool::decode(&mut input).unwrap());
        assert_eq!(
            Option::<NodeId>::decode(&mut input).unwrap(),
            Some(NodeId::new(7))
        );
        assert!(input.is_empty());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_bytes(&weird);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn vectors_and_tuples_round_trip() {
        let v: Vec<(NodeId, f64, u64)> = vec![(NodeId::new(0), 1.5, 9), (NodeId::new(3), 0.25, 11)];
        let back: Vec<(NodeId, f64, u64)> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn fault_plan_round_trips() {
        let plan = FaultPlan::none()
            .with_crash(NodeId::new(3), 10)
            .with_outage(NodeId::new(1), 5, 8);
        let back: FaultPlan = from_bytes(&to_bytes(&plan)).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = to_bytes(&vec![1u64, 2, 3]);
        assert_eq!(
            from_bytes::<Vec<u64>>(&bytes[..bytes.len() - 1]),
            Err(CodecError::UnexpectedEof)
        );
        let mut extended = bytes.clone();
        extended.push(0xFF);
        assert_eq!(
            from_bytes::<Vec<u64>>(&extended),
            Err(CodecError::TrailingBytes)
        );
        // A huge claimed length must not allocate.
        let huge = to_bytes(&u64::MAX);
        assert_eq!(
            from_bytes::<Vec<u64>>(&huge),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn errors_display() {
        for err in [
            CodecError::UnexpectedEof,
            CodecError::InvalidTag { tag: 9, ty: "bool" },
            CodecError::Invalid("x"),
            CodecError::TrailingBytes,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
