//! Lossless byte records of protocol state.
//!
//! A model checker keeps its search frontier as bytes rather than as
//! cloned cores: [`ProtocolCore::write_record`] appends a state,
//! [`ProtocolCore::read_record`] overwrites a core with it, and the
//! message records here serialize the in-flight traffic next to it. A
//! record is exact, not canonical: reading one back gives the state that
//! wrote it, field for field, timer tokens and timestamps included.
//!
//! Every integer is unsigned LEB128 (seven bits per byte, low bits
//! first, the high bit set on every byte but the last), so the small
//! counters that fill a protocol state take one byte each. Integers are
//! written and read in fixed groups — a site, half a session, a message
//! header — so a group of values below 128 costs one check and one
//! copy. Records are self-delimiting: a reader knows each field's place
//! from the fields before it, and records sit back to back with no
//! length prefix.
//!
//! [`ProtocolCore::write_record`]: crate::ProtocolCore::write_record
//! [`ProtocolCore::read_record`]: crate::ProtocolCore::read_record

use crate::message::{Message, Payload};
use quorum_core::{Access, QuorumSpec};

/// Appends each of `words` to `out` as unsigned LEB128.
#[inline]
pub fn write_leb128<const N: usize>(out: &mut Vec<u8>, words: [u64; N]) {
    // Nearly every field of a protocol state is below 128: then each
    // word is its own byte, and the group is one copy.
    if words.iter().all(|&w| w < 0x80) {
        out.extend_from_slice(&words.map(|w| w as u8));
    } else {
        write_long(out, &words);
    }
}

#[inline(never)]
fn write_long(out: &mut Vec<u8>, words: &[u64]) {
    for &word in words {
        let mut w = word;
        while w >= 0x80 {
            out.push(w as u8 | 0x80);
            w >>= 7;
        }
        out.push(w as u8);
    }
}

/// Reads `N` unsigned LEB128 words from the front of `bytes` and moves
/// `bytes` past them.
///
/// # Panics
/// Panics if `bytes` ends inside a word or a word overflows `u64`.
#[inline]
pub fn read_leb128<const N: usize>(bytes: &mut &[u8]) -> [u64; N] {
    if let Some((head, rest)) = bytes.split_first_chunk::<N>() {
        if head.iter().all(|&b| b < 0x80) {
            *bytes = rest;
            return head.map(u64::from);
        }
    }
    read_long(bytes)
}

#[inline(never)]
fn read_long<const N: usize>(bytes: &mut &[u8]) -> [u64; N] {
    std::array::from_fn(|_| {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let (&byte, rest) = bytes
                .split_first()
                .expect("record ends inside a LEB128 value");
            *bytes = rest;
            let low = u64::from(byte & 0x7f);
            assert!(
                shift < 64 && low << shift >> shift == low,
                "LEB128 value overflows u64"
            );
            value |= low << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    })
}

/// A record word narrowed to the field's type (`usize`, `u32`).
///
/// # Panics
/// Panics if the word does not fit.
pub(crate) fn narrow<T: TryFrom<u64>>(word: u64) -> T {
    T::try_from(word).unwrap_or_else(|_| {
        panic!(
            "record word {word} overflows {}",
            std::any::type_name::<T>()
        )
    })
}

/// Appends `flags` packed eight to a byte, the first flag in bit 0.
#[inline]
pub(crate) fn write_flags(out: &mut Vec<u8>, flags: &[bool]) {
    out.extend(flags.chunks(8).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0, |byte, (bit, &flag)| byte | u8::from(flag) << bit)
    }));
}

/// Reads `len` flags written by [`write_flags`] and appends them to
/// `flags`.
#[inline]
pub(crate) fn read_flags(bytes: &mut &[u8], len: usize, flags: &mut Vec<bool>) {
    let (packed, rest) = bytes.split_at(len.div_ceil(8));
    *bytes = rest;
    flags.extend((0..len).map(|i| packed[i / 8] >> (i % 8) & 1 == 1));
}

pub(crate) fn access_word(kind: Access) -> u64 {
    match kind {
        Access::Read => 0,
        Access::Write => 1,
    }
}

pub(crate) fn access_from(word: u64) -> Access {
    match word {
        0 => Access::Read,
        1 => Access::Write,
        _ => panic!("record holds access word {word}"),
    }
}

pub(crate) fn spec_words(spec: QuorumSpec) -> [u64; 3] {
    [spec.q_r(), spec.q_w(), spec.total()]
}

pub(crate) fn spec_from([q_r, q_w, total]: [u64; 3]) -> QuorumSpec {
    QuorumSpec::new(q_r, q_w, total).expect("a record holds only valid specs")
}

impl Message {
    /// Appends this message's record to `out`: sender, receiver,
    /// session and a payload tag, then the payload's fields.
    #[inline]
    pub fn write_record(&self, out: &mut Vec<u8>) {
        let (tag, from, to) = (self.payload_tag(), self.from as u64, self.to as u64);
        write_leb128(out, [from, to, self.session, tag]);
        match self.payload {
            Payload::VoteRequest {
                kind,
                epoch,
                epoch_spec,
            } => {
                let [q_r, q_w, total] = spec_words(epoch_spec);
                write_leb128(out, [access_word(kind), epoch, q_r, q_w, total]);
            }
            Payload::ReadValue {
                votes,
                version,
                epoch,
            }
            | Payload::VoteGrant {
                votes,
                version,
                epoch,
            } => write_leb128(out, [votes, version, epoch]),
            Payload::VoteDeny { epoch, epoch_spec } | Payload::Install { epoch, epoch_spec } => {
                let [q_r, q_w, total] = spec_words(epoch_spec);
                write_leb128(out, [epoch, q_r, q_w, total]);
            }
            Payload::WriteCommit { version } => write_leb128(out, [version]),
            Payload::CommitAck { votes } => write_leb128(out, [votes]),
        }
    }

    /// The payload's variant as a record word.
    fn payload_tag(&self) -> u64 {
        match self.payload {
            Payload::VoteRequest { .. } => 0,
            Payload::ReadValue { .. } => 1,
            Payload::VoteGrant { .. } => 2,
            Payload::VoteDeny { .. } => 3,
            Payload::WriteCommit { .. } => 4,
            Payload::CommitAck { .. } => 5,
            Payload::Install { .. } => 6,
        }
    }

    /// Reads one record written by [`Message::write_record`] from the
    /// front of `bytes` and moves `bytes` past it.
    ///
    /// # Panics
    /// Panics if `bytes` does not start with a whole message record.
    #[inline]
    pub fn read_record(bytes: &mut &[u8]) -> Message {
        let [from, to, session, tag] = read_leb128(bytes);
        let payload = match tag {
            0 => {
                let [kind, epoch, q_r, q_w, total] = read_leb128(bytes);
                Payload::VoteRequest {
                    kind: access_from(kind),
                    epoch,
                    epoch_spec: spec_from([q_r, q_w, total]),
                }
            }
            1 | 2 => {
                let [votes, version, epoch] = read_leb128(bytes);
                if tag == 1 {
                    Payload::ReadValue {
                        votes,
                        version,
                        epoch,
                    }
                } else {
                    Payload::VoteGrant {
                        votes,
                        version,
                        epoch,
                    }
                }
            }
            3 | 6 => {
                let [epoch, q_r, q_w, total] = read_leb128(bytes);
                let epoch_spec = spec_from([q_r, q_w, total]);
                if tag == 3 {
                    Payload::VoteDeny { epoch, epoch_spec }
                } else {
                    Payload::Install { epoch, epoch_spec }
                }
            }
            4 => {
                let [version] = read_leb128(bytes);
                Payload::WriteCommit { version }
            }
            5 => {
                let [votes] = read_leb128(bytes);
                Payload::CommitAck { votes }
            }
            _ => panic!("record holds payload tag {tag}"),
        };
        Message {
            from: narrow(from),
            to: narrow(to),
            session,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leb128_round_trips_at_every_width() {
        let values = [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut out = Vec::new();
        for v in values {
            write_leb128(&mut out, [v]);
        }
        // 1 + 1 + 1 + 2 + 2 + 3 + 5 + 10 bytes.
        assert_eq!(out.len(), 25);
        // Written one at a time or as a group, the bytes are the same.
        let mut grouped = Vec::new();
        write_leb128(&mut grouped, values);
        assert_eq!(grouped, out);
        let mut bytes = out.as_slice();
        for v in values {
            assert_eq!(read_leb128(&mut bytes), [v]);
        }
        assert!(bytes.is_empty());
        let mut bytes = grouped.as_slice();
        assert_eq!(read_leb128(&mut bytes), values);
        assert!(bytes.is_empty());
        // A group of one-byte words is read in one step.
        let mut bytes = [3u8, 0, 0x7f, 9].as_slice();
        assert_eq!(read_leb128(&mut bytes), [3, 0, 0x7f]);
        assert_eq!(bytes, [9]);
    }

    #[test]
    #[should_panic(expected = "record ends inside a LEB128 value")]
    fn truncated_leb128_panics() {
        let _: [u64; 1] = read_leb128(&mut [0x80u8].as_slice());
    }

    #[test]
    #[should_panic(expected = "LEB128 value overflows u64")]
    fn overlong_leb128_panics() {
        let mut out = Vec::new();
        write_leb128(&mut out, [u64::MAX]);
        // Bit 64 set in the tenth byte.
        out[9] = 0x02;
        let _: [u64; 1] = read_leb128(&mut out.as_slice());
    }

    #[test]
    fn flags_pack_eight_to_a_byte() {
        let flags: Vec<bool> = (0..11).map(|i| i % 3 == 0).collect();
        let mut out = Vec::new();
        write_flags(&mut out, &flags);
        assert_eq!(out, [0b0100_1001, 0b0000_0010]);
        // The reader appends, keeping what the buffer already holds.
        let mut back = vec![true; 3];
        let mut bytes = out.as_slice();
        read_flags(&mut bytes, flags.len(), &mut back);
        assert_eq!(back[..3], [true; 3]);
        assert_eq!(back[3..], flags);
        assert!(bytes.is_empty());
    }

    #[test]
    fn every_payload_round_trips() {
        let spec = QuorumSpec::new(2, 3, 3).unwrap();
        let payloads = [
            Payload::VoteRequest {
                kind: Access::Write,
                epoch: 300,
                epoch_spec: spec,
            },
            Payload::ReadValue {
                votes: 1,
                version: 2,
                epoch: 3,
            },
            Payload::VoteGrant {
                votes: 4,
                version: 5,
                epoch: 6,
            },
            Payload::VoteDeny {
                epoch: 7,
                epoch_spec: spec,
            },
            Payload::WriteCommit { version: 1 << 40 },
            Payload::CommitAck { votes: 9 },
            Payload::Install {
                epoch: 10,
                epoch_spec: spec,
            },
        ];
        let messages: Vec<Message> = payloads
            .iter()
            .enumerate()
            .map(|(i, &payload)| Message {
                from: i,
                to: 200 + i,
                session: i as u64 * 1000,
                payload,
            })
            .collect();
        let mut out = Vec::new();
        for m in &messages {
            m.write_record(&mut out);
        }
        let mut bytes = out.as_slice();
        for m in &messages {
            assert_eq!(Message::read_record(&mut bytes), *m);
        }
        assert!(bytes.is_empty());
    }
}
