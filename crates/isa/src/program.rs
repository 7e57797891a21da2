//! Program container and memory-map constants.

use crate::instr::Instr;
use serde::{Deserialize, Serialize};

/// Base address of the initialized data segment.
pub const DATA_BASE: u64 = 0x0001_0000;

/// Default total data-memory size in bytes (data + heap + stack).
pub const DEFAULT_MEM_BYTES: u64 = 64 << 20;

/// Initial stack pointer (grows downward from the top of memory).
pub const STACK_TOP: u64 = DATA_BASE + DEFAULT_MEM_BYTES - 16;

/// An executable program: instruction text (fetched by index, Harvard
/// style), an initialized data image loaded at [`DATA_BASE`], and an entry
/// point.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Program {
    /// Instruction memory; the PC indexes this vector.
    pub text: Vec<Instr>,
    /// Initial data image, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
    /// Entry PC (index into `text`).
    pub entry: usize,
}

impl Program {
    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }
}

/// Environment-call service numbers (`a7` selects, `a0..` carry arguments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u64)]
pub enum Syscall {
    /// Terminate with exit code in `a0`.
    Exit = 0,
    /// Append the low byte of `a0` to the output stream.
    PutByte = 1,
    /// Append the decimal rendering of `a0` (as i64) to the output stream.
    PutInt = 2,
    /// Append the raw 8 bytes of `f10` (little-endian) to the output stream.
    PutF64 = 3,
}

impl Syscall {
    /// Decode a service number.
    pub fn from_u64(x: u64) -> Option<Syscall> {
        Some(match x {
            0 => Syscall::Exit,
            1 => Syscall::PutByte,
            2 => Syscall::PutInt,
            3 => Syscall::PutF64,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_roundtrip() {
        for s in [
            Syscall::Exit,
            Syscall::PutByte,
            Syscall::PutInt,
            Syscall::PutF64,
        ] {
            assert_eq!(Syscall::from_u64(s as u64), Some(s));
        }
        assert_eq!(Syscall::from_u64(99), None);
    }
}
